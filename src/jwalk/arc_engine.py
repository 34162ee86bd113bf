"""Exact matrix-free simulation of the search walk on the full arc space.

The walk is held as a real float64 *pair state* ψ[a, x, y].  The arc
u -> v is set by a = u ∩ v, a (k-1)-subset indexed by its colex rank, and
by the positions x of u - v and y of v - u in a's sorted complement of
m = n - k + 1 elements.  The slots x = y are not arcs and stay exactly 0,
so the pair state has m/(m-1) slots per arc.  The arcs leaving u are the k
rows ψ[u - x, x, :] with x in u, the arcs entering v the k columns
ψ[v - y, :, y] with y in v, and the flip-flop shift S, which reverses every
arc, is the swap of x and y.  :func:`jwalk.johnson.arc_pair_slots` places
the flat arc indices of :mod:`jwalk.johnson` in this layout.  Every
operator of the walk is a real orthogonal matrix and the walk starts from
the real uniform state, so the state never acquires an imaginary part.

One search step U = S·C·O applies the marked-vertex reflection O, the
Grover coin C on the arcs leaving each vertex, and S.  The loop steps in
pairs: S is an involution, so S·C·O·S = C_h·O_h, where C_h is the Grover
coin on *head* blocks (the arcs entering each vertex) and O_h the
reflection on the arcs entering the marked vertex.  From ψ_t at even t the
tail-side passes give φ = C·O·ψ_t = S·ψ_{t+1}, and the head-side passes
give ψ_{t+2} = C_h·O_h·φ.  Both coins are the same pass on different axes:
sum each row over y (tails) or each column over x (heads), add a vertex's
k sums through the (a, x) -> vertex table of
:func:`jwalk.johnson.pair_vertex_table`, and subtract every slot from
twice its block's mean.  No pass gathers the state through a permutation,
and S is never applied: at odd t the state holds S·ψ_t, so ψ_t's tail
blocks are read along the x axis.

:func:`apply_oracle` and :func:`apply_coin` overwrite their input and
return it, and refuse a state that is not a C-contiguous float64 pair
state, since reshaping a strided view would silently update a copy.  They
also take a *batch*, a C-contiguous (b, C(n, k-1), m, m) array with one
pair state per entry of its first axis, and run every block reduction per
state in the same order as on one state, so every entry comes out bitwise
equal to a single-state call.  ``jwalk.validation`` steps the columns of
its dense matrices this way.

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
    "uniform_state",
    "state_norm",
    "apply_coin",
    "apply_oracle",
    "vertex_probability",
    "Series",
    "evolve_and_record",
]

# Where /proc/meminfo cannot be read, the full engine refuses above this many
# amplitudes (64 MiB of float64) instead.
_UNMEASURED_CAPACITY = 2 ** 23
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


def _require_bytes(needed: int, what: str, remedy: str, amplitudes: int = 0) -> None:
    """Refuse ``what`` with CapacityError if its ``needed`` bytes exceed ``MemAvailable``.

    The one memory rule of every capacity refusal.  Where /proc/meminfo
    cannot be read, ``amplitudes`` above ``_UNMEASURED_CAPACITY`` are refused.
    """
    available = _mem_available()
    if available is None and amplitudes > _UNMEASURED_CAPACITY:
        raise CapacityError(
            f"{what} holds {amplitudes} amplitudes, above the {_UNMEASURED_CAPACITY} "
            f"allowed where available memory cannot be read; {remedy}")
    if available is not None and needed > available:
        raise CapacityError(
            f"{what} needs {needed} bytes, above the {available} bytes of "
            f"available memory; {remedy}")


def _check_capacity(params: GraphParams, series: int = 0) -> None:
    """Refuse a full-engine walk on ``params``, plus ``series`` bytes, that cannot fit.

    The walk holds 8 bytes per slot of the pair state, that is 8·m/(m-1)
    per arc, and ``_TABLE_WORDS`` 8-byte words per k·num_vertices for the
    vertex table and the coin's row sums (:func:`_require_bytes`).
    """
    needed = 8 * (prod(_pair_shape(params)) + _TABLE_WORDS * params.k * params.num_vertices)
    _require_bytes(needed + series, f"the full engine on J({params.n},{params.k})",
                   "use the reduced engine instead" + (", or raise the stride" if series else ""),
                   amplitudes=params.num_arcs)


class Series(NamedTuple):
    """A sampled probability series as columns, one entry per recorded step."""

    t: np.ndarray                  # int64 step numbers, increasing
    p_succ: np.ndarray             # float64 success probability
    p_alt: Optional[np.ndarray]    # float64 tail-or-head diagnostic; None if not computed
    norm: np.ndarray               # float64 state norm


def _sample_times(steps: int, stride: int, columns: int,
                  full: Optional[GraphParams] = None) -> np.ndarray:
    """t = 0, stride, 2*stride, ... and ``steps`` itself, as an int64 column.

    Refuses first, before anything is allocated, ``columns`` 8-byte columns
    of them beyond available memory, with ``full`` its full-engine walk added.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    count = steps // stride + 1 + (steps % stride != 0)
    if full is None:
        _require_bytes(8 * columns * count, f"a series of {count} rows", "raise the stride")
    else:
        _check_capacity(full, 8 * columns * count)
    times = np.arange(0, steps + 1, stride, dtype=np.int64)
    return times if times[-1] == steps else np.append(times, np.int64(steps))


def _check_vertex(params: GraphParams, v: int) -> None:
    # a negative rank would wrap onto another block, and one past the end
    # would read or reflect an empty slice
    if not 0 <= v < params.num_vertices:
        raise ValueError(f"vertex rank {v} out of range [0, {params.num_vertices})")


def _pair_shape(params: GraphParams) -> tuple:
    m = params.n - params.k + 1
    return (comb(params.n, params.k - 1), m, m)


def _check_state(params: GraphParams, state: np.ndarray, axis: int = 2,
                 batch: bool = False) -> None:
    """Refuse a state the passes cannot update in place, or an axis with no blocks.

    With ``batch`` a 4-D array is taken as a batch of pair states.
    """
    shape = _pair_shape(params)
    if batch and isinstance(state, np.ndarray) and state.ndim == 4:
        shape = (len(state),) + shape
    if not (isinstance(state, np.ndarray) and state.dtype == np.float64
            and state.shape == shape and state.flags.c_contiguous):
        raise ValueError(
            f"state must be a C-contiguous float64 pair state of shape "
            f"{_pair_shape(params)}{', or a batch of them' if batch else ''} "
            f"(passes update it in place)")
    if axis not in (1, 2):
        raise ValueError(f"blocks run along axis 2 (tails) or 1 (heads); got {axis}")


def uniform_state(params: GraphParams) -> np.ndarray:
    """Uniform superposition over all arcs as a pair state, amplitude (degree*N)**-0.5.

    Refuses first a walk that cannot fit (:func:`_check_capacity`).
    """
    _check_capacity(params)
    state = np.full(_pair_shape(params), 1.0 / np.sqrt(float(params.num_arcs)))
    _zero_diagonal(state)
    return state


def state_norm(state: np.ndarray) -> float:
    """2-norm of a pair state: squares summed along each (a, x) row, then the rows.

    The rows are summed pairwise, and the only temporary is one float per
    row (BLAS nrm2's rescaling loses bits).
    """
    rows = state.reshape(-1, state.shape[-1])
    return float(np.sqrt(np.sum(np.einsum("ij,ij->i", rows, rows))))


def apply_coin(params: GraphParams, state: np.ndarray, vertices: np.ndarray,
               axis: int = 2) -> np.ndarray:
    """Grover coin on every block along ``axis``, in place: block = 2*mean(block) - block.

    ``vertices`` is the table of :func:`jwalk.johnson.pair_vertex_table`.
    The blocks along axis 2 are the tail blocks (C), those along axis 1
    the head blocks (C_h = S·C·S).  Each (a, x) row is reduced over
    ``axis``, the k rows of a vertex are added through the table, and
    every slot gets twice its block's mean minus itself; the x = y slots
    are then set back to 0.  Besides the state it allocates a few tables
    of k·num_vertices floats per state; returns ``state``.
    """
    _check_state(params, state, axis, batch=True)
    index = vertices
    if state.ndim == 4:  # a batch: state i's vertices are counted in bins i*N + v
        index = vertices + params.num_vertices * np.arange(len(state))[:, None, None]
    means = np.bincount(index.ravel(), weights=_row_sums(state, axis).ravel(),
                        minlength=params.num_vertices)
    means /= params.degree
    means *= 2.0
    np.subtract(np.expand_dims(np.take(means, index), axis - 3), state, out=state)
    _zero_diagonal(state)
    return state


def _row_sums(state: np.ndarray, axis: int) -> np.ndarray:
    """Sum of a pair state over ``axis``; over x in ``_HEAD_SUM_PARTS`` ranges.

    ``einsum`` runs each m-term sum in one inner loop, where ``np.sum``
    sets up a reduction per row: 2.5 times slower on J(40,3)'s rows of 38.
    """
    if axis == 2:
        return np.einsum("...xy->...x", state)
    m = state.shape[-2]
    width = -(-m // _HEAD_SUM_PARTS)
    sums = np.einsum("...xy->...y", state[..., :width, :])
    for lo in range(width, m, width):
        sums += np.einsum("...xy->...y", state[..., lo:lo + width, :])
    return sums


def _zero_diagonal(state: np.ndarray) -> None:
    """Set the x = y slots of a pair state, or of a batch of them, to 0."""
    m = state.shape[-1]
    state.reshape(-1, m * m)[:, ::m + 1] = 0.0


def _blocks_along(state: np.ndarray, axis: int) -> np.ndarray:
    """A view in which the blocks along ``axis`` run along the last axis."""
    return state if axis == 2 else state.swapaxes(-1, -2)


def apply_oracle(params: GraphParams, state: np.ndarray, marked: int,
                 axis: int = 2) -> np.ndarray:
    """Reflect through the uniform superposition of ``marked``'s block along ``axis``.

    At axis 2 the block is the arcs leaving ``marked`` (O), at 1 the arcs
    entering it (O_h = S·O·S).  In place, touching only the ``degree``
    amplitudes of the block; every other amplitude stays bitwise
    unchanged.  Returns ``state``.  On a batch it reflects every state.
    """
    _check_state(params, state, axis, batch=True)
    _check_vertex(params, marked)
    index, diagonal = _pair_block(params, marked)
    view = _blocks_along(state, axis)
    block = view[index]                                  # (..., k, m)
    block -= 2.0 * (block.reshape(block.shape[:-2] + (-1,)).sum(axis=-1)
                    / params.degree)[..., None, None]
    block[diagonal] = 0.0
    view[index] = block
    return state


def vertex_probability(params: GraphParams, state: np.ndarray, v: int,
                       axis: int = 2) -> float:
    """Probability mass of ``v``'s block along ``axis`` of a pair state.

    At 2 it is the mass on the arcs whose tail is ``v``; at 1 the arcs
    whose head is ``v``, which is also the tail mass of the state's shift
    S·state, so the paired loop reads odd steps there.
    """
    _check_state(params, state, axis)
    _check_vertex(params, v)
    block = _blocks_along(state, axis)[_pair_block(params, v)[0]].ravel()
    return float(np.dot(block, block))


@lru_cache(maxsize=64)
def _pair_block(params: GraphParams, v: int) -> tuple:
    """Index of ``v``'s (k, m) block of tail rows, and of its x = y slots in it.

    Both lead with ``...``, so they index a batch too.  Cached, with
    read-only index arrays: the paired loop reads the marked vertex's
    blocks on every step, and unranking it is Python work.
    """
    a, x = vertex_pairs(params, v)
    rows = np.arange(params.k)
    for array in (a, x, rows):
        array.flags.writeable = False
    return (Ellipsis, a, x, slice(None)), (Ellipsis, rows, x)


def evolve_and_record(params: GraphParams, marked: int, steps: int, stride: int = 1) -> Series:
    """Run the search walk and sample the probability series.

    Records every stride-th step (t = 0 always included, the final step
    always recorded): ``p_succ`` is the tail-block mass at the marked
    vertex, ``p_alt`` the tail-or-head diagnostic, ``norm`` the state
    2-norm.  Steps run in pairs on a pair state without the shift (module
    docstring), so at odd t the state holds S·ψ_t: its tail and head
    blocks trade axes, and the norm is unchanged by the permutation.
    Refuses, before anything is allocated, a run whose pair state, vertex
    tables and four series columns together exceed the available memory.
    """
    times = _sample_times(steps, stride, columns=4, full=params)
    _check_vertex(params, marked)
    state = uniform_state(params)
    vertices = pair_vertex_table(params)
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
