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
state that is not a 1-D C-contiguous float64 vector over all arcs, since
reshaping a strided view would silently update a copy.

:func:`evolve_and_record` never applies the shift S.  It steps the walk
U = S·C·O in pairs: S is an involution, so S·C·O·S = C_h·O_h, where C_h is
the Grover coin on *head* blocks (the arcs entering each vertex) and O_h the
reflection on the arcs entering the marked vertex.  From ψ_t at even t the
tail-side passes give φ = C·O·ψ_t = S·ψ_{t+1}, and the head-side passes
give ψ_{t+2} = C_h·O_h·φ.  The head coin sums each head block with
``np.bincount`` and gathers from that O(num_vertices) table, so no pass
reads the state in permuted order.  At odd t the state holds S·ψ_t, and
the marked vertex's tail mass sits on the reversed block
``opposite[marked block]``, the only part of the permutation the loop keeps;
:func:`step` and :func:`apply_shift` stay as the reference the paired loop
is certified against.

Block reductions are evaluated by numpy in a fixed order, so repeated
runs produce identical bytes regardless of BLAS threading.

:class:`Series` is the sampled record both engines return, as numpy
columns; ``jwalk.reduced`` takes its sample times from here too, so the
two engines record the same rows and refuse the same impossible counts.
"""

from typing import NamedTuple, Optional

import numpy as np

from .errors import CapacityError
from .johnson import GraphParams, opposite_permutation, permutation_scratch_bytes

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
# The head coin sums each head block over this many contiguous tail ranges
# and adds the partial sums.  One bincount adds a head's d terms left to
# right: on J(40,3) over 2*t_run its norm drift reached 2.9e-14, against
# 7.2e-15 with 16 ranges and 5.1e-15 for the shift-per-step loop.
_HEAD_SUM_PARTS = 16


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
    memory the system reports available: per arc, 8 for the state, 8 for
    the head coin's gather target (or the norm's float64 temporary) and 8
    for the int64 head ranks, plus the permutation build's scratch.
    """
    cap = min(capacity, HARD_CAPACITY)
    if params.num_arcs > cap:
        raise CapacityError(
            f"instance J({params.n},{params.k}) needs {params.num_arcs} amplitudes, "
            f"above the cap of {cap}; use the reduced engine instead")
    if capacity <= DEFAULT_CAPACITY:
        return
    available = _mem_available()
    needed = (8 + 8 + 8) * params.num_arcs + permutation_scratch_bytes(params)
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


def _check_state(params: GraphParams, state: np.ndarray) -> None:
    if not (isinstance(state, np.ndarray) and state.dtype == np.float64
            and state.shape == (params.num_arcs,) and state.flags.c_contiguous):
        raise ValueError(
            f"state must be a C-contiguous float64 vector of {params.num_arcs} "
            f"amplitudes (passes update it in place)")


def uniform_state(params: GraphParams, capacity: int = DEFAULT_CAPACITY) -> np.ndarray:
    """Uniform superposition over all arcs, amplitude (degree*N)**-0.5."""
    _check_capacity(params, capacity)
    amp = 1.0 / np.sqrt(float(params.num_arcs))
    return np.full(params.num_arcs, amp)


def state_norm(state: np.ndarray) -> float:
    """2-norm via pairwise summation (BLAS nrm2's rescaling loses bits).

    Holds one float64 temporary the length of the state.
    """
    return float(np.sqrt(np.sum(np.square(state))))


def apply_coin(params: GraphParams, state: np.ndarray,
               heads: Optional[np.ndarray] = None) -> np.ndarray:
    """Grover coin per tail block, in place: block = 2*mean(block) - block.

    Allocates only the O(num_vertices) block means; returns ``state``.
    Given ``heads``, the int64 head rank of every arc (``opposite // degree``),
    it is the coin on head blocks instead, C_h = S·C·S: every arc gets twice
    the mean over the arcs sharing its head, minus itself.  That form
    allocates one gather target the size of the state besides the means.
    """
    _check_state(params, state)
    d = params.degree
    if heads is None:
        blocks = state.reshape(params.num_vertices, d)
        means = np.mean(blocks, axis=1)
        means *= 2.0
        np.subtract(means[:, None], blocks, out=blocks)
        return state
    means = _head_sums(params, state, heads)
    means /= d
    means *= 2.0
    np.subtract(np.take(means, heads), state, out=state)  # take: faster than means[heads]
    return state


def _head_sums(params: GraphParams, state: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Sum of ``state`` over the arcs entering each vertex, in ``_HEAD_SUM_PARTS`` ranges."""
    sums = np.zeros(params.num_vertices)
    bounds = [params.num_arcs * part // _HEAD_SUM_PARTS
              for part in range(_HEAD_SUM_PARTS + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        sums += np.bincount(heads[lo:hi], weights=state[lo:hi],
                            minlength=params.num_vertices)
    return sums


def apply_shift(state: np.ndarray, opposite: np.ndarray) -> np.ndarray:
    """Flip-flop shift: the amplitude of every arc moves to its reverse.

    The one fancy-index gather into a new array (``np.take`` with ``out=``
    measured slower).
    """
    return state[opposite]


def apply_oracle(params: GraphParams, state: np.ndarray, marked: int,
                 arcs: Optional[np.ndarray] = None) -> np.ndarray:
    """Reflect through the uniform superposition of arcs leaving ``marked``.

    In place, touching only the ``degree`` marked amplitudes; every other
    amplitude stays bitwise unchanged.  Returns ``state``.  Given ``arcs``,
    the reversed block ``opposite[marked block]``, it reflects the arcs
    entering ``marked`` instead, O_h = S·O·S.
    """
    _check_state(params, state)
    _check_vertex(params, marked)
    if arcs is None:
        arcs = _tail_block(params, marked)
    block = state[arcs]
    block -= 2.0 * block.mean()
    state[arcs] = block  # the tail block is a view, already updated
    return state


def step(params: GraphParams,
         state: np.ndarray,
         opposite: np.ndarray,
         marked: Optional[int] = None) -> np.ndarray:
    """One walk step: shift∘coin, preceded by the oracle on ``marked``.

    ``marked=None`` is the unmarked walk.  Consumes ``state`` (the oracle
    and the coin run in place on it) and returns the next state, the one
    whole-state allocation of the step.
    """
    if marked is not None:
        apply_oracle(params, state, marked)
    return apply_shift(apply_coin(params, state), opposite)


def vertex_probability(params: GraphParams, state: np.ndarray, v: int,
                       arcs: Optional[np.ndarray] = None) -> float:
    """Probability mass on the arcs whose tail is ``v``.

    Given ``arcs``, the reversed block ``opposite[v's block]``, it is the
    mass on the arcs whose head is ``v``; that is also the tail mass of the
    state's shift S·state, which is how the paired loop reads odd steps.
    """
    _check_vertex(params, v)
    block = state[_tail_block(params, v) if arcs is None else arcs]
    return float(np.dot(block, block))


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
    2-norm.  Steps run in pairs without the shift (module docstring), so
    at odd t the state holds S·ψ_t: its tail and head masses at ``marked``
    trade places, and the norm is unchanged by the permutation.
    """
    times = _sample_times(steps, stride, columns=4)
    _check_vertex(params, marked)
    _check_capacity(params, capacity)
    opposite = opposite_permutation(params)
    reverse = opposite[_tail_block(params, marked)].copy()
    heads = opposite // params.degree
    del opposite  # the loop holds the head ranks in its place, 8 bytes per arc
    state = uniform_state(params, capacity)
    p_succ, p_alt, norm = (np.empty(len(times)) for _ in range(3))
    row = 0
    for t in range(steps + 1):
        shifted = t % 2 == 1
        if t == times[row]:
            tail_arcs, head_arcs = (reverse, None) if shifted else (None, reverse)
            p_succ[row] = vertex_probability(params, state, marked, tail_arcs)
            p_alt[row] = p_succ[row] + vertex_probability(params, state, marked, head_arcs)
            norm[row] = state_norm(state)
            row += 1
        if t == steps:
            break
        if shifted:  # S·ψ_t -> ψ_{t+1} = C_h·O_h·S·ψ_t
            apply_coin(params, apply_oracle(params, state, marked, reverse), heads)
        else:        # ψ_t -> S·ψ_{t+1} = C·O·ψ_t
            apply_coin(params, apply_oracle(params, state, marked))
    return Series(t=times, p_succ=p_succ, p_alt=p_alt, norm=norm)
