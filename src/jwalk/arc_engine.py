"""Exact matrix-free simulation of the search walk on the full arc space.

States are real float64 vectors over all arcs, tail-major and slot-minor, so
the outgoing arcs of one vertex occupy a contiguous block of length
``degree``.  One search step applies, in order, the marked-vertex
reflection, the Grover coin on every block, and the arc-reversal shift;
each pass is O(num_arcs) with no operator ever materialized.  Every one
of these operators is a real orthogonal matrix and the walk starts from the
real uniform state, so the state never acquires an imaginary part.

The passes work in place where they can.  :func:`apply_oracle` and
:func:`apply_coin` overwrite their input and return it; :func:`apply_shift`
gathers into one new array, the only whole-state allocation of a
:func:`step`, which therefore consumes its input.  A caller that needs the
input afterwards passes ``state.copy()``.  The in-place passes refuse a
state that is not a C-contiguous float64 flat or pair state (below), since
reshaping a strided view would silently update a copy.

The flat passes and :func:`step` also take a *batch*, a C-contiguous
(b, num_arcs) array with one flat state per row, and step every row at
once.  Each pass reduces over the last, contiguous axis, which runs the
same arithmetic as on one state, so every row comes out bitwise equal to
a single-state call.  ``jwalk.validation`` steps the columns of its dense
matrices this way.

:func:`evolve_and_record` never applies the shift S, and it holds the walk
in a second layout, the *pair state* ψ[a, x, y].  The arc u -> v is set by
a = u ∩ v, a (k-1)-subset indexed by its colex rank, and by the positions x
of u - v and y of v - u in a's sorted complement of m = n - k + 1
elements.  The slots x = y are not arcs and stay exactly 0, so the pair
state has m/(m-1) slots per arc.  The arcs leaving u are the k rows
ψ[u - x, x, :] with x in u, the arcs entering v the k columns
ψ[v - y, :, y] with y in v, and S swaps x and y.

The loop steps U = S·C·O in pairs: S is an involution, so
S·C·O·S = C_h·O_h, where C_h is the Grover coin on *head* blocks (the arcs
entering each vertex) and O_h the reflection on the arcs entering the
marked vertex.  From ψ_t at even t the tail-side passes give
φ = C·O·ψ_t = S·ψ_{t+1}, and the head-side passes give
ψ_{t+2} = C_h·O_h·φ.  In the pair state both coins are the same pass on
different axes: sum each row over y (tails) or each column over x
(heads), add a vertex's k sums through the (a, x) -> vertex table of
:func:`jwalk.johnson.pair_vertex_table`, and subtract every slot from
twice its block's mean.  No pass gathers the state through a permutation.
At odd t the state holds S·ψ_t, so ψ_t's tail blocks are read along the
x axis.  :func:`step` and :func:`apply_shift` on flat states stay as the
reference the paired loop is certified against.

Block reductions are evaluated by numpy in a fixed order, so repeated
runs produce identical bytes regardless of BLAS threading.

:class:`Series` is the sampled record both engines return, as numpy
columns; ``jwalk.reduced`` takes its sample times from here too, so the
two engines record the same rows and refuse the same impossible counts.
"""

from functools import lru_cache
from math import comb, prod
from typing import NamedTuple, Optional

import numpy as np

from .errors import CapacityError
from .johnson import GraphParams, pair_vertex_table, vertex_pairs

__all__ = [
    "DEFAULT_CAPACITY",
    "HARD_CAPACITY",
    "uniform_state",
    "state_norm",
    "apply_coin",
    "apply_shift",
    "apply_oracle",
    "step",
    "vertex_probability",
    "alt_vertex_probability",
    "Series",
    "evolve_and_record",
]

# Refuse allocations above this many amplitudes unless the caller raises the
# cap explicitly (64 MiB of float64 per state buffer at the default).
DEFAULT_CAPACITY = 2 ** 23
# Absolute ceiling even when forced; keeps arc indices well inside int64
# and allocation failures predictable.
HARD_CAPACITY = 2 ** 31
# The head coin sums a pair state over x in this many contiguous ranges and
# adds the partial sums.  A single middle-axis sum adds the m terms of each
# (a, y) in one accumulator: over 2*t_run its norm drift reached 1.5e-14 on
# J(100,2) and 2.5e-14 on J(200,2), against 2.4e-15 and 8.7e-15 split.
_HEAD_SUM_PARTS = 8
# 8-byte words per k·num_vertices = C(n,k-1)·m that a run holds besides the
# pair state.  The (a, x) -> vertex table's build peaks near 3.5 of them, and
# near 5 when k is close to n/2 and the (k-1)-subsets are long.  A coin
# holds 3, the table, the row sums and the gathered means, plus the
# num_vertices block sums.
_TABLE_WORDS = 6


def _mem_available() -> Optional[int]:
    """``MemAvailable`` from /proc/meminfo in bytes, or None if unreadable."""
    try:
        with open("/proc/meminfo") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _check_capacity(params: GraphParams, capacity: int) -> None:
    """Refuse an instance above the amplitude cap, or one that cannot fit.

    Above the default cap the run also needs its bytes to fit in the
    memory the system reports available: 8 per slot of the pair state,
    that is 8·m/(m-1) per arc, plus ``_TABLE_WORDS`` 8-byte words per
    k·num_vertices for the vertex table and the coin's row sums.  No
    permutation is built.
    """
    cap = min(capacity, HARD_CAPACITY)
    if params.num_arcs > cap:
        raise CapacityError(
            f"instance J({params.n},{params.k}) needs {params.num_arcs} amplitudes, "
            f"above the cap of {cap}; use the reduced engine instead")
    if capacity <= DEFAULT_CAPACITY:
        return
    available = _mem_available()
    needed = 8 * prod(_pair_shape(params)) \
        + 8 * _TABLE_WORDS * params.k * params.num_vertices
    if available is not None and needed > available:
        raise CapacityError(
            f"instance J({params.n},{params.k}) needs {needed} bytes, above the "
            f"{available} bytes of available memory; use the reduced engine instead")


class Series(NamedTuple):
    """A sampled probability series as columns, one entry per recorded step."""

    t: np.ndarray                  # int64 step numbers, increasing
    p_succ: np.ndarray             # float64 success probability
    p_alt: Optional[np.ndarray]    # float64 tail-or-head diagnostic; None if not computed
    norm: np.ndarray               # float64 state norm


def _sample_times(steps: int, stride: int, columns: int) -> np.ndarray:
    """t = 0, stride, 2*stride, ... and ``steps`` itself, as an int64 column.

    Refuses, before anything is evaluated, a series whose ``columns``
    8-byte columns exceed the memory the system reports available.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    count = steps // stride + 1 + (steps % stride != 0)
    needed = 8 * columns * count
    available = _mem_available()
    if available is not None and needed > available:
        raise CapacityError(
            f"a series of {count} rows needs {needed} bytes, above the {available} "
            f"bytes of available memory; raise the stride")
    times = np.arange(0, steps + 1, stride, dtype=np.int64)
    return times if times[-1] == steps else np.append(times, np.int64(steps))


def _check_vertex(params: GraphParams, v: int) -> None:
    # a negative rank would wrap onto another block, and one past the end
    # would read or reflect an empty slice
    if not 0 <= v < params.num_vertices:
        raise ValueError(f"vertex rank {v} out of range [0, {params.num_vertices})")


def _tail_block(params: GraphParams, v: int) -> slice:
    return slice(v * params.degree, (v + 1) * params.degree)


def _pair_shape(params: GraphParams) -> tuple:
    m = params.n - params.k + 1
    return (comb(params.n, params.k - 1), m, m)


def _check_state(params: GraphParams, state: np.ndarray, axis: int = 2,
                 batch: bool = False) -> bool:
    """Refuse a state the passes cannot update in place; True for a pair state.

    A flat state has tail blocks only, so its ``axis`` must be 2.  With
    ``batch`` a 2-D array is taken as a batch of flat states, one per row.
    """
    ndim = state.ndim if isinstance(state, np.ndarray) else 0
    is_pair = ndim == 3
    if is_pair:
        shape = _pair_shape(params)
    elif batch and ndim == 2:
        shape = (len(state), params.num_arcs)
    else:
        shape = (params.num_arcs,)
    if not (isinstance(state, np.ndarray) and state.dtype == np.float64
            and state.shape == shape and state.flags.c_contiguous):
        raise ValueError(
            f"state must be a C-contiguous float64 vector of {params.num_arcs} "
            f"amplitudes{', a batch of such rows' if batch else ''}, or a pair "
            f"state of shape {_pair_shape(params)} (passes update it in place)")
    if axis != 2 and not (is_pair and axis == 1):
        raise ValueError(f"blocks run along axis 2, or 1 in a pair state; got {axis}")
    return is_pair


def uniform_state(params: GraphParams, capacity: int = DEFAULT_CAPACITY) -> np.ndarray:
    """Uniform superposition over all arcs, amplitude (degree*N)**-0.5."""
    _check_capacity(params, capacity)
    amp = 1.0 / np.sqrt(float(params.num_arcs))
    return np.full(params.num_arcs, amp)


def state_norm(state: np.ndarray) -> float:
    """2-norm: squares summed along each row, then the rows summed pairwise.

    A pair state's rows are its (a, x) rows, so the only temporary is one
    float per row; a flat state's rows are its amplitudes, which gives
    numpy's pairwise sum of the squares (BLAS nrm2's rescaling loses bits).
    """
    rows = state.reshape(-1, state.shape[-1] if state.ndim > 1 else 1)
    return float(np.sqrt(np.sum(np.einsum("ij,ij->i", rows, rows))))


def apply_coin(params: GraphParams, state: np.ndarray,
               vertices: Optional[np.ndarray] = None, axis: int = 2) -> np.ndarray:
    """Grover coin per tail block, in place: block = 2*mean(block) - block.

    Allocates only the O(num_vertices) block means, per row of a batch;
    returns ``state``.
    Given a pair state and ``vertices``, the table of
    :func:`jwalk.johnson.pair_vertex_table`, it is the coin on the blocks
    that run along ``axis``: 2 for tail blocks, 1 for head blocks,
    C_h = S·C·S.  Each (a, x) row is reduced over ``axis``, the k rows of a
    vertex are added through the table, and every slot gets twice its
    block's mean minus itself; the x = y slots are then set back to 0.
    Besides the state it allocates a few tables of k·num_vertices floats.
    """
    d = params.degree
    if _check_state(params, state, axis, batch=True) != (vertices is not None):
        raise ValueError("the coin takes the vertex table with a pair state, and only then")
    if vertices is None:
        blocks = state.reshape(state.shape[:-1] + (params.num_vertices, d))
        means = np.mean(blocks, axis=-1)
        means *= 2.0
        np.subtract(means[..., None], blocks, out=blocks)
        return state
    means = np.bincount(vertices.ravel(), weights=_row_sums(state, axis).ravel(),
                        minlength=params.num_vertices)
    means /= d
    means *= 2.0
    np.subtract(np.expand_dims(np.take(means, vertices), axis), state, out=state)
    _zero_diagonal(state)
    return state


def _row_sums(state: np.ndarray, axis: int) -> np.ndarray:
    """Sum of a pair state over ``axis``; over x in ``_HEAD_SUM_PARTS`` ranges.

    ``einsum`` runs each m-term sum in one inner loop, where ``np.sum``
    sets up a reduction per row: 2.5 times slower on J(40,3)'s rows of 38.
    """
    if axis == 2:
        return np.einsum("axy->ax", state)
    m = state.shape[1]
    width = -(-m // _HEAD_SUM_PARTS)
    sums = np.einsum("axy->ay", state[:, :width])
    for lo in range(width, m, width):
        sums += np.einsum("axy->ay", state[:, lo:lo + width])
    return sums


def _zero_diagonal(state: np.ndarray) -> None:
    """Set the x = y slots of a pair state, which are not arcs, to 0."""
    m = state.shape[1]
    state.reshape(len(state), m * m)[:, ::m + 1] = 0.0


def apply_shift(state: np.ndarray, opposite: np.ndarray) -> np.ndarray:
    """Flip-flop shift: the amplitude of every arc moves to its reverse.

    The one gather into a new array (``np.take`` with ``out=`` measured
    slower).  A batch is gathered by ``np.take`` along its rows, which
    comes back C-contiguous where ``state[:, opposite]`` would not; on one
    state ``np.take`` would also copy a read-only ``opposite`` first.
    """
    return state[opposite] if state.ndim == 1 else np.take(state, opposite, axis=1)


def apply_oracle(params: GraphParams, state: np.ndarray, marked: int,
                 axis: int = 2) -> np.ndarray:
    """Reflect through the uniform superposition of arcs leaving ``marked``.

    In place, touching only the ``degree`` marked amplitudes; every other
    amplitude stays bitwise unchanged.  Returns ``state``.  On a batch it
    reflects every row.  On a pair state it reflects the block of
    ``marked`` that runs along ``axis``: its arcs leaving at 2, its arcs
    entering at 1, O_h = S·O·S.
    """
    pairs = _check_state(params, state, axis, batch=True)
    _check_vertex(params, marked)
    if not pairs:
        block = state[..., _tail_block(params, marked)]
        block -= 2.0 * block.mean(axis=-1, keepdims=True)
        return state
    index, diagonal = _pair_block(params, marked, axis)
    block = state[index]
    block -= 2.0 * (block.sum() / params.degree)
    block[diagonal] = 0.0
    state[index] = block
    return state


def step(params: GraphParams,
         state: np.ndarray,
         opposite: np.ndarray,
         marked: Optional[int] = None) -> np.ndarray:
    """One walk step: shift∘coin, preceded by the oracle on ``marked``.

    ``marked=None`` is the unmarked walk.  Consumes ``state`` (the oracle
    and the coin run in place on it) and returns the next state, the one
    whole-state allocation of the step.  A (b, num_arcs) batch steps
    every row.
    """
    if marked is not None:
        apply_oracle(params, state, marked)
    return apply_shift(apply_coin(params, state), opposite)


def vertex_probability(params: GraphParams, state: np.ndarray, v: int,
                       axis: int = 2) -> float:
    """Probability mass on the arcs whose tail is ``v``.

    On a pair state it is the mass of ``v``'s block along ``axis``: at 1
    the arcs whose head is ``v``, which is also the tail mass of the
    state's shift S·state, so the paired loop reads odd steps there.
    """
    pairs = _check_state(params, state, axis)
    _check_vertex(params, v)
    if pairs:
        block = state[_pair_block(params, v, axis)[0]].ravel()
    else:
        block = state[_tail_block(params, v)]
    return float(np.dot(block, block))


@lru_cache(maxsize=64)
def _pair_block(params: GraphParams, v: int, axis: int) -> tuple:
    """Index of ``v``'s (k, m) block along ``axis``, and of its x = y slots in it.

    Cached, with read-only index arrays: the paired loop reads the marked
    vertex's blocks on every step, and unranking it is Python work.
    """
    a, x = vertex_pairs(params, v)
    rows = np.arange(params.k)
    for array in (a, x, rows):
        array.flags.writeable = False
    index = (a, x, slice(None)) if axis == 2 else (a, slice(None), x)
    return index, (rows, x)


def alt_vertex_probability(params: GraphParams, state: np.ndarray, v: int,
                           opposite: np.ndarray) -> float:
    """Mass on arcs with tail ``v`` or head ``v``.

    This double-counts every arc once over the vertex sum (it totals 2,
    not 1) and is not a valid measurement statistic; it is emitted as a
    diagnostic because published walk data has been reported this way.
    """
    _check_vertex(params, v)
    idx = np.arange(v * params.degree, (v + 1) * params.degree)
    tails = state[idx]
    heads = state[opposite[idx]]
    return float(np.dot(tails, tails) + np.dot(heads, heads))


def evolve_and_record(params: GraphParams, marked: int, steps: int, stride: int = 1,
                      capacity: int = DEFAULT_CAPACITY) -> Series:
    """Run the search walk and sample the probability series.

    Records every stride-th step (t = 0 always included, the final step
    always recorded): ``p_succ`` is the tail-block mass at the marked
    vertex, ``p_alt`` the tail-or-head diagnostic, ``norm`` the state
    2-norm.  Steps run in pairs on a pair state without the shift (module
    docstring), so at odd t the state holds S·ψ_t: its tail and head
    blocks trade axes, and the norm is unchanged by the permutation.
    """
    times = _sample_times(steps, stride, columns=4)
    _check_vertex(params, marked)
    _check_capacity(params, capacity)
    vertices = pair_vertex_table(params)
    state = np.full(_pair_shape(params), 1.0 / np.sqrt(float(params.num_arcs)))
    _zero_diagonal(state)
    p_succ, p_alt, norm = (np.empty(len(times)) for _ in range(3))
    row = 0
    for t in range(steps + 1):
        axis = 1 if t % 2 else 2  # where the tail blocks of ψ_t lie in the state
        if t == times[row]:
            p_succ[row] = vertex_probability(params, state, marked, axis)
            p_alt[row] = p_succ[row] + vertex_probability(params, state, marked, 3 - axis)
            norm[row] = state_norm(state)
            row += 1
        if t == steps:
            break
        # even t: ψ_t -> S·ψ_{t+1} = C·O·ψ_t; odd t: S·ψ_t -> ψ_{t+1} = C_h·O_h·S·ψ_t
        apply_coin(params, apply_oracle(params, state, marked, axis), vertices, axis)
    return Series(t=times, p_succ=p_succ, p_alt=p_alt, norm=norm)
