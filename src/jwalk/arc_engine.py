"""Exact matrix-free simulation of the search walk on the full arc space.

The walk is held as a real float64 *pair state* ψ[x, y, a].  The arc
u -> v is set by a = u ∩ v, a (k-1)-subset indexed by its colex rank, and
by the positions x of u - v and y of v - u in a's sorted complement of
m = n - k + 1 elements.  The slots x = y are not arcs and stay exactly 0,
so the pair state has m/(m-1) slots per arc.  The arcs leaving u are the k
rows ψ[x, :, u - x] with x in u, the arcs entering v the k columns
ψ[:, y, v - y] with y in v, and the flip-flop shift S, which reverses every
arc, is the swap of x and y.  :func:`jwalk.johnson.arc_pair_slots` places
the flat arc indices of :mod:`jwalk.johnson` in this layout.  Every
operator of the walk is a real orthogonal matrix and the walk starts from
the real uniform state, so the state never acquires an imaginary part.

The subset axis a is innermost: it has C(n, k-1) >= n > m entries for
every k >= 2, and at k = 1 its one entry drops out of every loop.  So each
pass runs its inner loop along a run of at least n contiguous slots, where
an (a, x, y) order would run it along rows of only m.

One search step U = S·C·O applies the marked-vertex reflection O, the
Grover coin C on the arcs leaving each vertex, and S.  The loop steps in
pairs: S is an involution, so S·C·O·S = C_h·O_h, where C_h is the Grover
coin on *head* blocks (the arcs entering each vertex) and O_h the
reflection on the arcs entering the marked vertex.  From ψ_t at even t the
tail-side passes give φ = C·O·ψ_t = S·ψ_{t+1}, and the head-side passes
give ψ_{t+2} = C_h·O_h·φ.  Both coins are the same pass on different axes:
sum the state over y (axis 1, tails) or over x (axis 0, heads), add a
vertex's k sums through the (x, a) -> vertex table of
:func:`jwalk.johnson.pair_vertex_table`, and subtract every slot from
twice its block's mean.  No pass gathers the state through a permutation,
and S is never applied: at odd t the state holds S·ψ_t, so ψ_t's tail
blocks are read along the x axis.

:func:`apply_oracle` and :func:`apply_coin` overwrite their input and
return it, and refuse a state that is not a C-contiguous float64 pair
state, since reshaping a strided view would silently update a copy.

Block reductions are evaluated by numpy in a fixed order, so repeated
runs produce identical bytes regardless of BLAS threading.

:class:`Series` is the sampled record both engines yield, a chunk of at
most CHUNK rows at a time as numpy columns, so a series costs the same
memory whatever its horizon.  ``jwalk.reduced`` takes its chunks of sample
times from here too (:func:`_chunk_times`), so the two engines record the
same rows in the same chunks and refuse the same impossible counts.
"""

from functools import lru_cache
from math import comb, fsum, prod, sqrt
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .errors import CapacityError
from .johnson import GraphParams, pair_vertex_table, unrank_vertex, vertex_pairs

__all__ = [
    "uniform_state",
    "state_norm",
    "apply_coin",
    "apply_oracle",
    "vertex_probability",
    "Series",
    "evolve_and_record",
]

# Where /proc/meminfo cannot be read, the same bytes are held against this
# many 8-byte words (64 MiB) instead.
_UNMEASURED_CAPACITY = 2 ** 23
# Rows per chunk of a series, and values per block of the reduced engine's
# spectral scan; a perfect square, since that scan stores its rotations as
# two factors of sqrt(CHUNK) rows.
CHUNK = 2 ** 12
# Chunks a series may have, and blocks a sweep point may evaluate: 2^32
# values, at about 0.3 ms a block of the reduced engine.
MAX_CHUNKS = 2 ** 20
# The coins sum a pair state over x or y, and the norm its squares over x, in
# ranges of this many slices, adding the partial sums in order.  Numpy sums
# over an axis outside the innermost one in a single accumulator per sum:
# with one range spanning the axis the norm drifted 2.0e-14 on J(100,2) and
# 1.8e-13 on J(200,2) over 2*t_run, against 5.7e-15 and 4.7e-15 in ranges of
# 7.  At k = 1 the a axis has one entry and a range is summed along
# contiguous memory, where numpy adds up to 7 terms in order and 8 or more
# pairwise; at 7 those ranges too are added in order, so every sum takes
# the same order at every k.  The width sets the bits of every full-engine
# output.
_SUM_WIDTH = 7
# 8-byte words per k·num_vertices = C(n,k-1)·m that a run holds besides the
# pair state.  The (x, a) -> vertex table's build peaks near 3.5 of them, and
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


def _require_bytes(needed: int, what: str, remedy: str) -> None:
    """Refuse ``what`` with CapacityError if its ``needed`` bytes exceed ``MemAvailable``.

    The one memory rule of every capacity refusal.  Where /proc/meminfo
    cannot be read, the same bytes are held against ``_UNMEASURED_CAPACITY``
    8-byte words.
    """
    available = _mem_available()
    limit = 8 * _UNMEASURED_CAPACITY if available is None else available
    if needed > limit:
        where = ("allowed where available memory cannot be read" if available is None
                 else "bytes of available memory")
        raise CapacityError(f"{what} needs {needed} bytes, above the {limit} {where}; {remedy}")


def _check_capacity(params: GraphParams) -> None:
    """Refuse a full-engine walk on ``params`` that cannot fit.

    The walk holds 8 bytes per slot of the pair state, that is 8·m/(m-1)
    per arc, and ``_TABLE_WORDS`` 8-byte words per k·num_vertices for the
    vertex table and the coin's row sums, against the one memory rule of
    :func:`_require_bytes`.  A series adds one chunk of CHUNK rows, whatever
    its length, and is not counted.
    """
    needed = 8 * (prod(_pair_shape(params)) + _TABLE_WORDS * params.k * params.num_vertices)
    _require_bytes(needed, f"the full engine on J({params.n},{params.k})",
                   "use the reduced engine instead")


class Series(NamedTuple):
    """A chunk of a sampled probability series as columns, one entry per recorded step."""

    t: np.ndarray                  # int64 step numbers, increasing
    p_succ: np.ndarray             # float64 success probability
    p_alt: Optional[np.ndarray]    # float64 tail-or-head diagnostic; None if not computed
    norm: np.ndarray               # float64 state norm


def _chunk_times(steps: int, stride: int) -> Iterator[np.ndarray]:
    """t = 0, stride, 2*stride, ... and ``steps`` itself, as int64 chunks.

    Each chunk holds at most CHUNK consecutive times of the grid, and a
    ``steps`` off the grid is a chunk of its own.  The checks run at the
    call, not at the first chunk: a series of more than MAX_CHUNKS chunks
    is refused with CapacityError naming its chunk count.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    last = steps - steps % stride
    rows = last // stride + 1 + (last != steps)
    chunks = last // (CHUNK * stride) + 1 + (last != steps)
    if chunks > MAX_CHUNKS:
        raise CapacityError(f"a series of {rows} rows needs {chunks} chunks of {CHUNK} rows, "
                            f"above the {MAX_CHUNKS} allowed; raise the stride")
    return _grid_chunks(last, steps, stride)


def _grid_chunks(last: int, steps: int, stride: int) -> Iterator[np.ndarray]:
    for start in range(0, last + 1, CHUNK * stride):
        yield np.arange(start, min(last, start + (CHUNK - 1) * stride) + 1, stride,
                        dtype=np.int64)
    if last != steps:
        yield np.array([steps], dtype=np.int64)


def _pair_shape(params: GraphParams) -> tuple:
    m = params.n - params.k + 1
    return (m, m, comb(params.n, params.k - 1))


def _check_state(params: GraphParams, state: np.ndarray, axis: int = 1) -> None:
    """Refuse a state the passes cannot update in place, or an axis with no blocks."""
    if not (isinstance(state, np.ndarray) and state.dtype == np.float64
            and state.shape == _pair_shape(params) and state.flags.c_contiguous):
        raise ValueError(
            f"state must be a C-contiguous float64 pair state of shape "
            f"{_pair_shape(params)} (passes update it in place)")
    if axis not in (0, 1):
        raise ValueError(f"blocks run along axis 1 (tails) or 0 (heads); got {axis}")


def uniform_state(params: GraphParams) -> np.ndarray:
    """Uniform superposition over all arcs as a pair state, amplitude (degree*N)**-0.5.

    Refuses first a walk that cannot fit (:func:`_check_capacity`).
    """
    _check_capacity(params)
    state = np.full(_pair_shape(params), 1.0 / np.sqrt(float(params.num_arcs)))
    _zero_diagonal(state)
    return state


def state_norm(state: np.ndarray) -> float:
    """2-norm of a pair state, summed over x in ranges of ``_SUM_WIDTH`` slabs.

    Each range's squares are added along x into one float per (y, a),
    in order, and those are summed pairwise; the range totals are added
    exactly (``math.fsum``).  The only temporary is the k·num_vertices
    floats of one range (BLAS nrm2's rescaling loses bits).  Dot products
    along rows bias the sum of a near-uniform state: in rows of the a axis,
    C(n, k-1) terms, J(40,3)'s uniform start read 1 + 4.4e-15, and in rows
    of m J(100,2)'s read 1 - 4.4e-16; here both are within 2.2e-16 of 1.
    """
    slabs = state.reshape(state.shape[0], -1)
    totals = []
    for lo in range(0, len(slabs), _SUM_WIDTH):
        part = slabs[lo:lo + _SUM_WIDTH]
        totals.append(np.sum(np.einsum("xj,xj->j", part, part)))
    return sqrt(fsum(totals))


def apply_coin(params: GraphParams, state: np.ndarray, vertices: np.ndarray,
               axis: int = 1) -> np.ndarray:
    """Grover coin on every block along ``axis``, in place: block = 2*mean(block) - block.

    ``vertices`` is the (x, a) table of :func:`jwalk.johnson.pair_vertex_table`.
    The blocks along axis 1 (y) are the tail blocks (C), those along axis
    0 (x) the head blocks (C_h = S·C·S).  The state is summed over
    ``axis`` (:func:`_row_sums`), each vertex's k sums are added through
    the table, and every slot gets twice its block's mean minus itself;
    the x = y slots are then set back to 0.  Every pass runs along the
    contiguous a axis.  Besides the state it allocates a few tables of
    k·num_vertices floats; returns ``state``.
    """
    _check_state(params, state, axis)
    means = np.bincount(vertices.ravel(), weights=_row_sums(state, axis).ravel(),
                        minlength=params.num_vertices)
    means /= params.degree
    means *= 2.0
    np.subtract(np.expand_dims(np.take(means, vertices), axis), state, out=state)
    _zero_diagonal(state)
    return state


def _row_sums(state: np.ndarray, axis: int) -> np.ndarray:
    """Sum of a pair state over ``axis``, x (0) or y (1), in ranges of ``_SUM_WIDTH``.

    Numpy adds a range's slices along the contiguous a axis, one
    accumulator per sum, in the order of the range; the partial sums are
    then added in order.  A last range of one slice is added as it is,
    since numpy copies a strided slice to sum over it.
    """
    lead = (slice(None),) * axis
    sums = np.sum(state[lead + (slice(0, _SUM_WIDTH),)], axis=axis)
    for lo in range(_SUM_WIDTH, state.shape[axis], _SUM_WIDTH):
        part = state[lead + (slice(lo, lo + _SUM_WIDTH),)]
        sums += np.sum(part, axis=axis) if part.shape[axis] > 1 else part[lead + (0,)]
    return sums


def _zero_diagonal(state: np.ndarray) -> None:
    """Set the x = y slots of a pair state to 0: m contiguous runs."""
    m = state.shape[0]
    state.reshape(m * m, -1)[::m + 1] = 0.0


def _blocks_along(state: np.ndarray, axis: int) -> np.ndarray:
    """A view in which the blocks along ``axis`` run along axis 1."""
    return state if axis == 1 else state.swapaxes(0, 1)


def apply_oracle(params: GraphParams, state: np.ndarray, marked: int,
                 axis: int = 1) -> np.ndarray:
    """Reflect through the uniform superposition of ``marked``'s block along ``axis``.

    At axis 1 the block is the arcs leaving ``marked`` (O), at 0 the arcs
    entering it (O_h = S·O·S).  In place, touching only the ``degree``
    amplitudes of the block, a (k, m) block strided across the state and
    gathered into a contiguous copy, whose k·m terms are summed pairwise;
    every other amplitude stays bitwise unchanged.  Returns ``state``.
    """
    _check_state(params, state, axis)
    index, diagonal = _pair_block(params, marked)
    view = _blocks_along(state, axis)
    block = view[index]
    block -= 2.0 * (block.reshape(-1).sum() / params.degree)
    block[diagonal] = 0.0
    view[index] = block
    return state


def vertex_probability(params: GraphParams, state: np.ndarray, v: int,
                       axis: int = 1) -> float:
    """Probability mass of ``v``'s block along ``axis`` of a pair state.

    At 1 it is the mass on the arcs whose tail is ``v``; at 0 the arcs
    whose head is ``v``, which is also the tail mass of the state's shift
    S·state, so the paired loop reads odd steps there.  The block is the
    (k, m) slots ``v``'s k pairs (x, a) select, gathered across the state.
    """
    _check_state(params, state, axis)
    block = _blocks_along(state, axis)[_pair_block(params, v)[0]].ravel()
    return float(np.dot(block, block))


@lru_cache(maxsize=64)
def _pair_block(params: GraphParams, v: int) -> tuple:
    """Index of ``v``'s (k, m) block of tail rows, and of its x = y slots in it.

    Cached, with read-only index arrays: the paired loop reads the marked
    vertex's blocks on every step, and unranking it is Python work.
    Unranking is also the engine's one range check of a vertex rank: a
    negative rank would wrap onto another block, and one past the end would
    read or reflect an empty slice.
    """
    a, x = vertex_pairs(params, v)
    rows = np.arange(params.k)
    for array in (a, x, rows):
        array.flags.writeable = False
    return (x, slice(None), a), (rows, x)


def evolve_and_record(params: GraphParams, marked: int, steps: int,
                      stride: int = 1) -> Iterator[Series]:
    """Run the search walk and yield the sampled probability series in chunks.

    Records every stride-th step (t = 0 always included, the final step
    always recorded), in the chunks of :func:`_chunk_times`: ``p_succ`` is
    the tail-block mass at the marked vertex, ``p_alt`` the tail-or-head
    diagnostic, ``norm`` the state 2-norm.  Steps run in pairs on a pair
    state without the shift (module docstring), so at odd t the state
    holds S·ψ_t: its tail and head blocks trade axes, and the norm is
    unchanged by the permutation.  Every refusal comes at the call, before
    the first chunk: a series of too many chunks, a marked rank out of
    range, and, before anything is allocated, a walk whose pair state and
    vertex tables exceed the available memory.  The walk is built at the
    call too, stepped as the chunks are drawn, and let go before the last
    chunk is yielded.
    """
    chunks = _chunk_times(steps, stride)
    # refuses a marked rank out of range; uncached, so a walk refused for
    # memory leaves _pair_block's cache as it was
    unrank_vertex(params, marked)
    state = uniform_state(params)
    return _record(params, marked, steps, state, pair_vertex_table(params), chunks)


def _record(params: GraphParams, marked: int, steps: int, state: np.ndarray,
            vertices: np.ndarray, chunks: Iterator[np.ndarray]) -> Iterator[Series]:
    t = 0
    for times in chunks:
        p_succ, p_alt, norm = (np.empty(len(times)) for _ in range(3))
        for row, sample in enumerate(times.tolist()):
            while t < sample:
                # even t: ψ_t -> S·ψ_{t+1} = C·O·ψ_t; odd t: S·ψ_t -> ψ_{t+1} = C_h·O_h·S·ψ_t
                axis = 0 if t % 2 else 1
                apply_coin(params, apply_oracle(params, state, marked, axis), vertices, axis)
                t += 1
            axis = 0 if t % 2 else 1  # where the tail blocks of ψ_t lie in the state
            p_succ[row] = vertex_probability(params, state, marked, axis)
            p_alt[row] = p_succ[row] + vertex_probability(params, state, marked, 1 - axis)
            norm[row] = state_norm(state)
        if t == steps:
            # the walk is done: the last chunk is written without it
            state = vertices = None
        yield Series(t=times, p_succ=p_succ, p_alt=p_alt, norm=norm)
