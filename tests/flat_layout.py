"""The flat arc layout, kept as the tests' independent oracle of the pair engine.

A flat state is a float64 vector over the arcs in the tail-major order of
``jwalk.johnson``, so the arcs leaving a vertex are one contiguous block of
``degree`` amplitudes, and the shift gathers every arc from its reverse.
The reversal comes from the scalar ``arc_opposite`` and the pair slot of an
arc from the scalar decoders, one arc at a time, so nothing here shares
the vectorized colex ranking of ``johnson.pair_vertex_table`` or
``johnson.arc_pair_slots``.  The passes take a batch of flat states as the
rows of a 2-D array.
"""

from functools import lru_cache
from math import comb

import numpy as np

from jwalk.johnson import arc_components, arc_opposite, unrank_vertex


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
    return (rank * m + outside.index(removed)) * m + outside.index(inserted)


@lru_cache(maxsize=None)
def pair_slots(params):
    """:func:`pair_slot` of every arc, read-only."""
    slots = np.array([pair_slot(params, arc) for arc in range(params.num_arcs)],
                     dtype=np.int64)
    slots.setflags(write=False)
    return slots


def pair_shape(params):
    m = params.n - params.k + 1
    return (comb(params.n, params.k - 1), m, m)


def to_pair(params, flat):
    """Flat states (the last axis) placed in zeroed pair states."""
    shape = pair_shape(params)
    pair = np.zeros(flat.shape[:-1] + (shape[0] * shape[1] * shape[2],))
    pair[..., pair_slots(params)] = flat
    return pair.reshape(flat.shape[:-1] + shape)


def to_flat(params, pair):
    """The arc amplitudes of pair states, in flat order."""
    return pair.reshape(pair.shape[:-3] + (-1,))[..., pair_slots(params)]


def shifted_to_flat(params, pair):
    """The flat state S·ψ of a pair state ψ: S is the swap of x and y."""
    return to_flat(params, np.ascontiguousarray(np.swapaxes(pair, -1, -2)))


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
