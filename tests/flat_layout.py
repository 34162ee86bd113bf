"""The flat arc layout, kept as the tests' independent oracle of the pair engine.

A flat state is a float64 vector over the arcs in the tail-major order of
``jwalk.johnson``, so the arcs leaving a vertex are one contiguous block of
``degree`` amplitudes, and the shift gathers every arc from its reverse.
The scalar decoders below (:func:`arc_components`, :func:`arc_head`,
:func:`arc_opposite`) read one flat arc index at a time from the scalar
``johnson.rank_vertex`` and ``unrank_vertex``.  The reversal and the pair
slot of every arc come from them, so nothing here shares the vectorized
colex ranking of ``johnson.pair_vertex_table`` or
``johnson.arc_pair_slots``.  The passes take a batch of flat states as the
rows of a 2-D array.  :func:`distance_class` is the scalar distance
between two vertex ranks, the shell oracle of the certification tests.
"""

from bisect import bisect_left
from functools import lru_cache
from math import comb

import numpy as np

from jwalk.johnson import rank_vertex, unrank_vertex


def _complement(params, subset):
    members = set(subset)
    return [e for e in range(1, params.n + 1) if e not in members]


def distance_class(params, v, w):
    """Shortest-path distance between two vertex ranks: k - |v ∩ w|."""
    ws = set(unrank_vertex(params, w))
    return params.k - sum(1 for e in unrank_vertex(params, v) if e in ws)


def arc_components(params, arc):
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


def arc_head(params, arc):
    """Rank of the head vertex: the tail with one element swapped out."""
    tail, removed, inserted = arc_components(params, arc)
    tail_subset = unrank_vertex(params, tail)
    head_subset = sorted(e for e in tail_subset if e != removed)
    head_subset.insert(bisect_left(head_subset, inserted), inserted)
    return rank_vertex(params, head_subset)


def arc_opposite(params, arc):
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


@lru_cache(maxsize=None)
def opposite(params):
    """The arc-reversal permutation, read-only, from ``arc_opposite``."""
    opp = np.array([arc_opposite(params, arc) for arc in range(params.num_arcs)],
                   dtype=np.int64)
    opp.setflags(write=False)
    return opp


def pair_slot(params, arc):
    """Flat index into the pair state of a flat arc, from the scalar decoders."""
    tail, removed, inserted = arc_components(params, arc)
    shared = [e for e in unrank_vertex(params, tail) if e != removed]
    outside = [e for e in range(1, params.n + 1) if e not in shared]
    rank = sum(comb(e - 1, i) for i, e in enumerate(shared, start=1))
    m = len(outside)
    return (outside.index(removed) * m + outside.index(inserted)) * comb(params.n, params.k - 1) \
        + rank


@lru_cache(maxsize=None)
def pair_slots(params):
    """:func:`pair_slot` of every arc, read-only."""
    slots = np.array([pair_slot(params, arc) for arc in range(params.num_arcs)],
                     dtype=np.int64)
    slots.setflags(write=False)
    return slots


def pair_shape(params):
    m = params.n - params.k + 1
    return (m, m, comb(params.n, params.k - 1))


def to_pair(params, flat):
    """Flat states (the last axis) placed in zeroed pair states, one per leading index."""
    shape = pair_shape(params)
    pair = np.zeros(flat.shape[:-1] + (shape[0] * shape[1] * shape[2],))
    pair[..., pair_slots(params)] = flat
    return pair.reshape(flat.shape[:-1] + shape)


def to_flat(params, pair):
    """The arc amplitudes of pair states, in flat order."""
    return pair.reshape(pair.shape[:-3] + (-1,))[..., pair_slots(params)]


def shifted_to_flat(params, pair):
    """The flat state S·ψ of a pair state ψ: S is the swap of x and y."""
    return to_flat(params, np.ascontiguousarray(np.swapaxes(pair, -3, -2)))


def uniform(params):
    return np.full(params.num_arcs, 1.0 / np.sqrt(float(params.num_arcs)))


def tail_block(params, v):
    return slice(v * params.degree, (v + 1) * params.degree)


def coin(params, state):
    """Grover coin on every tail block, in place."""
    blocks = state.reshape(state.shape[:-1] + (params.num_vertices, params.degree))
    means = np.mean(blocks, axis=-1)
    means *= 2.0
    np.subtract(means[..., None], blocks, out=blocks)
    return state


def oracle(params, state, marked):
    """Reflection through the uniform superposition of ``marked``'s tail block, in place."""
    block = state[..., tail_block(params, marked)]
    block -= 2.0 * block.mean(axis=-1, keepdims=True)
    return state


def shift(params, state):
    """The flip-flop shift: every arc takes its reverse's amplitude."""
    return np.take(state, opposite(params), axis=-1)


def step(params, state, marked=None):
    """One search step S·C·O; consumes ``state``."""
    if marked is not None:
        oracle(params, state, marked)
    return shift(params, coin(params, state))


def vertex_probability(params, state, v):
    block = state[tail_block(params, v)]
    return float(np.dot(block, block))


def alt_vertex_probability(params, state, v):
    """Mass on the arcs with tail ``v`` or head ``v``."""
    heads = state[opposite(params)[tail_block(params, v)]]
    return vertex_probability(params, state, v) + float(np.dot(heads, heads))


# k = 1 has the empty (k-1)-subset only; n = 2k has the shortest
# complements, so the largest share of x = y slots in the pair layout
PAIR_INSTANCES = [(3, 1), (7, 1), (5, 2), (6, 3), (9, 3), (8, 4), (10, 5)]
