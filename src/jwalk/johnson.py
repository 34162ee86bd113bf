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

The full engine holds the walk in the pair layout, indexed by the shared
(k-1)-subset of an arc's ends: :func:`pair_vertex_table` maps each
(added element, subset) pair to its vertex rank, by the colex ranking of
the scalar :func:`rank_vertex` vectorized with numpy in int64, and
:func:`arc_pair_slots` places every flat arc index in that layout and
pairs it with its reversed arc.  Their independent oracle, scalar
decoders that read one flat arc index at a time, lives with the tests in
``tests/flat_layout.py``.
"""

from math import comb
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInstanceError

__all__ = [
    "GraphParams",
    "IntersectionRow",
    "graph_params",
    "rank_vertex",
    "unrank_vertex",
    "pair_vertex_table",
    "arc_pair_slots",
    "vertex_pairs",
    "shell_size",
    "intersection_numbers",
]


class GraphParams(NamedTuple):
    """Instance parameters of J(n, k) with derived sizes."""

    n: int
    k: int
    num_vertices: int   # C(n, k)
    degree: int         # k * (n - k)
    num_arcs: int       # num_vertices * degree == 2 * |E|


class IntersectionRow(NamedTuple):
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
    out, hi = [], params.n + 1
    for i in range(params.k, 0, -1):
        # largest e < hi with C(e-1, i) <= rank, by bisection over [i, hi):
        # C(lo-1, i) <= rank < C(hi-1, i) holds throughout, and the next
        # element lies below this one
        lo = i
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if comb(mid - 1, i) <= rank else (lo, mid)
        out.append(lo)
        rank -= comb(lo - 1, i)
        hi = lo
    return tuple(reversed(out))


def _binomial_table(n: int, k: int) -> np.ndarray:
    """``table[e, i] = C(e, i)`` for 0 <= e < n and 0 <= i <= k + 1, int64."""
    return np.array([[comb(e, i) for i in range(k + 2)] for e in range(n)],
                    dtype=np.int64)


def _colex_subsets(n: int, k: int) -> np.ndarray:
    """All sorted 1-based k-subsets of {1..n} in colex order, shape (C(n,k), k).

    The j-subsets with largest element e are the (j-1)-subsets of
    {1..e-1}, which are the first C(e-1, j-1) rows of the previous level.
    """
    if k == 0:
        return np.zeros((1, 0), dtype=np.int64)
    subsets = np.arange(1, n + 1, dtype=np.int64)[:, None]
    for j in range(2, k + 1):
        subsets = np.concatenate([
            np.column_stack((subsets[:comb(e - 1, j - 1)],
                             np.full(comb(e - 1, j - 1), e, dtype=np.int64)))
            for e in range(j, n + 1)])
    return subsets


def pair_vertex_table(params: GraphParams) -> np.ndarray:
    """Rank of a ∪ {x} for every (k-1)-subset a and every x outside it, int64.

    Row j is the j-th element of a's sorted complement, and column a the
    colex rank of a, so the table has shape (n - k + 1, C(n, k-1)) and is
    emitted in that (x, a) order.  It is the vertex map of the pair layout,
    where an arc u -> v sits at (position of u - v, position of v - u,
    u ∩ v); the scalar :func:`rank_vertex` is its independent oracle.
    """
    return _pair_layout(params)[0]


def _pair_layout(params: GraphParams) -> tuple:
    """:func:`pair_vertex_table`, and the c = s - 1 - j of each entry, both in (j, a) order.

    The j-th complement element s of a has c = s - 1 - j elements of a
    below it, so in the colex rank of a ∪ {s} the elements of a below s
    keep their places, s takes place c + 1, and those above move up one
    place: a prefix sum over a's terms, C(s - 1, c + 1), and a suffix sum.
    """
    n, k = params.n, params.k
    m = n - k + 1
    binom = _binomial_table(n, k)
    subsets = _colex_subsets(n, k - 1)                 # (C, k-1), sorted
    rows = len(subsets)
    idx = np.arange(k - 1)
    zero = np.zeros((rows, 1), dtype=np.int64)
    stay = binom[subsets - 1, idx + 1]                 # a[p] keeps place p + 1
    moved = binom[subsets - 1, idx + 2]                # a[p] moves to place p + 2
    below = np.hstack((zero, np.cumsum(stay, axis=1)))                   # p < c
    above = moved.sum(axis=1)[:, None] - np.hstack((zero, np.cumsum(moved, axis=1)))
    del stay, moved
    free = np.ones((rows, n), dtype=bool)
    free[np.arange(rows)[:, None], subsets - 1] = False
    del subsets
    s0 = np.ascontiguousarray(np.flatnonzero(free).reshape(rows, m).T)  # row*n + s - 1
    del free
    s0 %= n
    c = s0 - np.arange(m)[:, None]                     # elements of a below s
    c += 1
    table = binom[s0, c]                               # C(s - 1, c + 1)
    del s0
    c -= 1
    table += np.take_along_axis(below.T, c, axis=0)
    table += np.take_along_axis(above.T, c, axis=0)
    return table, c


def arc_pair_slots(params: GraphParams) -> tuple:
    """Pair-layout slot of every arc, and the arc-reversal permutation.

    Returns two read-only int64 arrays indexed by the flat arc index of
    the module docstring: the flat index of the arc's slot in a pair state
    of shape (m, m, C(n, k-1)), m = n - k + 1, and the index of the
    reversed arc, whose slot is the one with x and y swapped.  The scalar
    decoders of ``tests/flat_layout.py`` are its independent oracle.

    Slot (x, y, a) is the arc from a ∪ {s_x} to a ∪ {s_y}, where s_j is
    the j-th element outside a.  Its tail is ``pair_vertex_table[x, a]``;
    the removed element s_x has c = s_x - 1 - x elements of a below it, so
    it sits at index c of the tail, and the inserted s_y sits at index
    y - [x < y] of the tail's complement, which lacks s_x.

    The arcs out of a vertex by the same removed index are the n - k
    consecutive ones of one (x, a) pair, so the pairs are scattered once
    to their rows, tail·k + c, and each row is filled in place across its
    inserted indices.  Besides the two results the build holds one boolean
    per arc and a few tables of m·C(n, k-1) entries.
    """
    n, k = params.n, params.k
    m, C = n - k + 1, comb(n, k - 1)
    tails, below = _pair_layout(params)                # below: c of each s_x
    # row tail·k + c holds the pair (x, a) of the arcs that leave the tail
    # by its c-th element, and column i the arc inserting at i = y - [x < y]
    row = tails * k + below
    x, a = np.empty(m * C, np.int64), np.empty(m * C, np.int64)
    x[row], a[row] = np.arange(m)[:, None], np.arange(C)
    del row
    # the reversed arc's tail and removed index, read at (y, a)
    reverse = params.degree * tails + (n - k) * below
    del tails, below
    after = np.arange(n - k) >= x[:, None]             # i >= x: y = i + 1
    slots = a[:, None] + np.arange(n - k) * C
    np.add(slots, C, out=slots, where=after)           # y C + a
    opposite = reverse.ravel()[slots]
    opposite += x[:, None] - 1
    np.add(opposite, 1, out=opposite, where=after)     # inserted s_x at x - [y < x]
    slots += (x * (m * C))[:, None]                    # (x m + y) C + a
    slots, opposite = slots.ravel(), opposite.ravel()
    slots.setflags(write=False)
    opposite.setflags(write=False)
    return slots, opposite


def vertex_pairs(params: GraphParams, v: int) -> tuple:
    """The k pairs (x, a) of :func:`pair_vertex_table` with a ∪ {x} = v.

    Returns two int64 arrays, the ranks of a and the complement positions
    of x, ordered as v's elements leave it, which is the order of the
    flat indices of v's outgoing arcs.
    """
    members = unrank_vertex(params, v)
    terms = [comb(e - 1, p + 1) for p, e in enumerate(members)]
    lowered = [comb(e - 1, p) for p, e in enumerate(members)]
    ranks = [sum(terms[:i]) + sum(lowered[i + 1:]) for i in range(params.k)]
    return (np.array(ranks, dtype=np.int64),
            np.array([e - 1 - i for i, e in enumerate(members)], dtype=np.int64))


def _check_level(params: GraphParams, level: int) -> None:
    """ValueError unless ``level`` is a distance level 0..k, which also indexes the spectrum."""
    if not 0 <= level <= params.k:
        raise ValueError(f"level {level} out of range [0, {params.k}]")


def shell_size(params: GraphParams, level: int) -> int:
    """Number of vertices at distance ``level`` from any fixed vertex."""
    _check_level(params, level)
    return comb(params.k, level) * comb(params.n - params.k, level)


def intersection_numbers(params: GraphParams, level: int) -> IntersectionRow:
    """Intersection numbers of J(n, k) at the given distance level.

    a = level*(n - 2*level), b = (k - level)*(n - k - level), c = level**2.
    """
    _check_level(params, level)
    n, k = params.n, params.k
    return IntersectionRow(
        level=level,
        a=level * (n - 2 * level),
        b=(k - level) * (n - k - level),
        c=level * level,
    )
