"""Combinatorics of the Johnson graph J(n, k).

Vertices are the k-subsets of {1, ..., n}, adjacent when they share k-1
elements.  Vertices are identified with their colexicographic rank, and
every directed edge (arc) is identified with a flat index

    arc = tail_rank * degree + slot,
    slot = removed_index * (n - k) + inserted_index,

where ``removed_index`` positions the outgoing element inside the sorted
tail subset and ``inserted_index`` positions the incoming element inside
the sorted complement of the tail.  All combinatorial quantities are exact
Python integers; subsets are 1-based tuples at the API surface.

The scalar functions (:func:`rank_vertex`, :func:`arc_head`,
:func:`arc_opposite`, ...) decode one arc at a time.  The full engine's
arc-reversal table comes from :func:`opposite_permutation`, which does the
same colex ranking vectorized with numpy over all arcs, in int64; the
scalar functions are kept as its independent oracle.
"""

from bisect import bisect_left
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import DegenerateInstanceError

__all__ = [
    "GraphParams",
    "IntersectionRow",
    "graph_params",
    "rank_vertex",
    "unrank_vertex",
    "arc_head",
    "arc_opposite",
    "arc_components",
    "opposite_permutation",
    "permutation_scratch_bytes",
    "distance_class",
    "shell_size",
    "intersection_numbers",
]


@dataclass(frozen=True)
class GraphParams:
    """Instance parameters of J(n, k) with derived sizes."""

    n: int
    k: int
    num_vertices: int   # C(n, k)
    degree: int         # k * (n - k)
    num_arcs: int       # num_vertices * degree == 2 * |E|


@dataclass(frozen=True)
class IntersectionRow:
    """Neighbor counts of a vertex at distance ``level`` from a fixed vertex.

    ``a`` neighbors stay in the same distance shell, ``b`` move one shell
    out, ``c`` move one shell in; a + b + c equals the degree.
    """

    level: int
    a: int
    b: int
    c: int


def graph_params(n: int, k: int) -> GraphParams:
    """Validate (n, k) and build the parameter record.

    Requires n >= 2k so the graph has diameter k.  J(2, 1) is refused:
    its smallest adjacency eigenvalue equals -degree, which leaves the
    walk eigenphases undefined.
    """
    if k < 1:
        raise ValueError(f"J(n,k) requires k >= 1 (got k={k})")
    if n < 2 * k:
        raise ValueError(f"J(n,k) requires n >= 2k (got n={n}, k={k})")
    if (n, k) == (2, 1):
        raise DegenerateInstanceError(
            "degenerate instance J(2,1): smallest eigenvalue equals -degree")
    return GraphParams(
        n=n,
        k=k,
        num_vertices=comb(n, k),
        degree=k * (n - k),
        num_arcs=comb(n, k) * k * (n - k),
    )


def rank_vertex(params: GraphParams, subset) -> int:
    """Colexicographic rank of a sorted k-subset of {1, ..., n}."""
    sub = tuple(subset)
    if len(sub) != params.k:
        raise ValueError(f"expected a {params.k}-subset, got {sub!r}")
    prev = 0
    rank = 0
    for i, e in enumerate(sub, start=1):
        if not prev < e <= params.n:
            raise ValueError(f"subset must be strictly increasing in [1,{params.n}]: {sub!r}")
        prev = e
        rank += comb(e - 1, i)
    return rank


def unrank_vertex(params: GraphParams, rank: int) -> tuple:
    """Inverse of :func:`rank_vertex`; returns the sorted 1-based subset."""
    if not 0 <= rank < params.num_vertices:
        raise ValueError(f"vertex rank {rank} out of range [0, {params.num_vertices})")
    out = []
    r = rank
    for i in range(params.k, 0, -1):
        # largest e with C(e-1, i) <= r
        e = i  # smallest possible value of the i-th largest element
        c = comb(e - 1, i)
        while True:
            c_next = comb(e, i)
            if c_next > r:
                break
            e += 1
            c = c_next
        out.append(e)
        r -= c
    return tuple(reversed(out))


def _complement(params: GraphParams, subset) -> list:
    members = set(subset)
    return [e for e in range(1, params.n + 1) if e not in members]


def arc_components(params: GraphParams, arc: int) -> tuple:
    """Decode an arc index into (tail_rank, removed_element, inserted_element)."""
    if not 0 <= arc < params.num_arcs:
        raise ValueError(f"arc index {arc} out of range [0, {params.num_arcs})")
    d = params.degree
    tail, slot = divmod(arc, d)
    removed_idx, inserted_idx = divmod(slot, params.n - params.k)
    tail_subset = unrank_vertex(params, tail)
    removed = tail_subset[removed_idx]
    inserted = _complement(params, tail_subset)[inserted_idx]
    return tail, removed, inserted


def arc_head(params: GraphParams, arc: int) -> int:
    """Rank of the head vertex: the tail with one element swapped out."""
    tail, removed, inserted = arc_components(params, arc)
    tail_subset = unrank_vertex(params, tail)
    head_subset = sorted(e for e in tail_subset if e != removed)
    head_subset.insert(bisect_left(head_subset, inserted), inserted)
    return rank_vertex(params, head_subset)


def arc_opposite(params: GraphParams, arc: int) -> int:
    """Index of the reversed arc; a fixed-point-free involution."""
    tail, removed, inserted = arc_components(params, arc)
    tail_subset = unrank_vertex(params, tail)
    head_subset = sorted(e for e in tail_subset if e != removed)
    head_subset.insert(bisect_left(head_subset, inserted), inserted)
    head = rank_vertex(params, head_subset)
    # reversed swap: `inserted` leaves the head, `removed` re-enters
    removed_idx = bisect_left(head_subset, inserted)
    inserted_idx = (removed - 1) - bisect_left(head_subset, removed)
    slot = removed_idx * (params.n - params.k) + inserted_idx
    return head * params.degree + slot


# Arcs per block of the vectorized permutation build (whole tails, at least
# one).  Sizing blocks by arcs rather than tails keeps the build's temporaries
# near a megabyte for every n and k (see permutation_scratch_bytes).
CHUNK_ARCS = 2 ** 16


def _binomial_table(n: int, k: int) -> np.ndarray:
    """``table[e, i] = C(e, i)`` for 0 <= e < n and 0 <= i <= k + 1, int64."""
    return np.array([[comb(e, i) for i in range(k + 2)] for e in range(n)],
                    dtype=np.int64)


def _colex_subsets(n: int, k: int) -> np.ndarray:
    """All sorted 1-based k-subsets of {1..n} in colex order, shape (C(n,k), k).

    The j-subsets with largest element e are the (j-1)-subsets of
    {1..e-1}, which are the first C(e-1, j-1) rows of the previous level.
    """
    subsets = np.arange(1, n + 1, dtype=np.int64)[:, None]
    for j in range(2, k + 1):
        subsets = np.concatenate([
            np.column_stack((subsets[:comb(e - 1, j - 1)],
                             np.full(comb(e - 1, j - 1), e, dtype=np.int64)))
            for e in range(j, n + 1)])
    return subsets


def permutation_scratch_bytes(params: GraphParams) -> int:
    """Upper bound on the bytes :func:`opposite_permutation` holds besides its output.

    The subset table and its build take three int64 per subset element, a
    block under ten int64 per (tail, ground element) pair, and the small
    per-instance tables under 64 KiB.
    """
    block = min(max(1, CHUNK_ARCS // params.degree), params.num_vertices)
    return 8 * (3 * params.num_vertices * params.k + 10 * block * params.n) + 2 ** 16


def opposite_permutation(params: GraphParams) -> np.ndarray:
    """Arc-reversal permutation as a read-only int64 array over all arcs.

    Vectorized colex ranking over blocks of whole tails, about CHUNK_ARCS
    arcs each; the scalar :func:`arc_opposite` is its independent oracle.

    Take the arc that removes r = T[i] from the sorted tail T and inserts
    s, the j-th element of its complement.  Then c = #{t in T : t < s} =
    s - 1 - j, and the reversed arc removes s from the head H at index
    c - [i < c] and re-inserts r at complement index (r - 1) - i - [c <= i].
    In the colex rank ``sum_p C(T[p] - 1, p + 1)``, s enters at 1-based
    place c - [i < c] + 1, r leaves, and the tail elements strictly between
    them shift one place: down for i < p < c, up for c <= p < i.  Prefix
    sums of those shifts over p make every reversed arc a (tail, i) term
    plus a (tail, j) term, one pair for each sign of c - i, so the work per
    arc is two adds and a compare.

    Head ranks are recoverable as ``opposite_permutation(p) // p.degree``.
    """
    n, k, d = params.n, params.k, params.degree
    m = n - k
    opp = np.empty(params.num_arcs, dtype=np.int64)
    binom = _binomial_table(n, k)
    subsets = _colex_subsets(n, k)
    idx = np.arange(k)
    block = max(1, CHUNK_ARCS // d)
    for lo in range(0, params.num_vertices, block):
        tails = subsets[lo:lo + block]                    # (B, k), sorted
        B = len(tails)
        free = np.ones((B, n), dtype=bool)
        free[np.arange(B)[:, None], tails - 1] = False
        s0 = np.nonzero(free)[1].reshape(B, m)           # s - 1, (B, m), sorted
        c = s0 - np.arange(m)                             # tail elements below s

        # per (tail, i): C(T[p]-1, p), C(T[p]-1, p+1), C(T[p]-1, p+2)
        g0, g1, g2 = (binom[tails - 1, idx + shift] for shift in range(3))
        zero = np.zeros((B, 1), dtype=np.int64)
        down = np.hstack((zero, np.cumsum(g0 - g1, axis=1)))   # (B, k+1)
        up = np.hstack((zero, np.cumsum(g2 - g1, axis=1)))     # (B, k+1)
        base = g1.sum(axis=1)[:, None] - g1                    # rank(T) - C(r-1, i+1)
        r_term = tails - 1 - idx
        i_low = d * (base - down[:, 1:]) + r_term              # i < c
        i_high = d * (base + up[:, :k]) + r_term - 1           # c <= i

        # per (tail, j)
        s_low = d * (binom[s0, c] + np.take_along_axis(down, c, axis=1)) + m * (c - 1)
        s_high = d * (binom[s0, c + 1] - np.take_along_axis(up, c, axis=1)) + m * c

        out = opp[lo * d:(lo + B) * d].reshape(B, k, m)
        np.add(i_high[:, :, None], s_high[:, None, :], out=out)
        np.add(i_low[:, :, None], s_low[:, None, :], out=out,
               where=idx[None, :, None] < c[:, None, :])
    opp.setflags(write=False)
    return opp


def distance_class(params: GraphParams, v: int, w: int) -> int:
    """Shortest-path distance between two vertex ranks: k - |v ∩ w|."""
    vs = unrank_vertex(params, v)
    ws = set(unrank_vertex(params, w))
    return params.k - sum(1 for e in vs if e in ws)


def shell_size(params: GraphParams, level: int) -> int:
    """Number of vertices at distance ``level`` from any fixed vertex."""
    if not 0 <= level <= params.k:
        raise ValueError(f"distance level {level} out of range [0, {params.k}]")
    return comb(params.k, level) * comb(params.n - params.k, level)


def intersection_numbers(params: GraphParams, level: int) -> IntersectionRow:
    """Intersection numbers of J(n, k) at the given distance level.

    a = level*(n - 2*level), b = (k - level)*(n - k - level), c = level**2.
    """
    if not 0 <= level <= params.k:
        raise ValueError(f"distance level {level} out of range [0, {params.k}]")
    n, k = params.n, params.k
    return IntersectionRow(
        level=level,
        a=level * (n - 2 * level),
        b=(k - level) * (n - k - level),
        c=level * level,
    )
