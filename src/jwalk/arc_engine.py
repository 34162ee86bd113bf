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

Block reductions are evaluated by numpy in a fixed slot order, so repeated
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
    the shift's gather target (or the norm's float64 temporary) and 8 for
    the int64 permutation, plus the permutation build's scratch.
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


def apply_coin(params: GraphParams, state: np.ndarray) -> np.ndarray:
    """Grover coin per tail block, in place: block = 2*mean(block) - block.

    Allocates only the O(num_vertices) block means; returns ``state``.
    """
    _check_state(params, state)
    blocks = state.reshape(params.num_vertices, params.degree)
    means = np.mean(blocks, axis=1)
    means *= 2.0
    np.subtract(means[:, None], blocks, out=blocks)
    return state


def apply_shift(state: np.ndarray, opposite: np.ndarray) -> np.ndarray:
    """Flip-flop shift: the amplitude of every arc moves to its reverse.

    The one fancy-index gather into a new array (``np.take`` with ``out=``
    measured slower).
    """
    return state[opposite]


def apply_oracle(params: GraphParams, state: np.ndarray, marked: int) -> np.ndarray:
    """Reflect through the uniform superposition of arcs leaving ``marked``.

    In place, touching only the ``degree`` marked amplitudes; every other
    amplitude stays bitwise unchanged.  Returns ``state``.
    """
    _check_state(params, state)
    if not 0 <= marked < params.num_vertices:
        raise ValueError(f"marked rank {marked} out of range")
    d = params.degree
    block = state[marked * d:(marked + 1) * d]
    block -= 2.0 * block.mean()
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


def vertex_probability(params: GraphParams, state: np.ndarray, v: int) -> float:
    """Probability mass on the arcs whose tail is ``v``."""
    block = state[v * params.degree:(v + 1) * params.degree]
    return float(np.dot(block, block))


def alt_vertex_probability(params: GraphParams, state: np.ndarray, v: int,
                           opposite: np.ndarray) -> float:
    """Mass on arcs with tail ``v`` or head ``v``.

    This double-counts every arc once over the vertex sum (it totals 2,
    not 1) and is not a valid measurement statistic; it is emitted as a
    diagnostic because published walk data has been reported this way.
    """
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
    2-norm.
    """
    times = _sample_times(steps, stride, columns=4)
    if not 0 <= marked < params.num_vertices:
        raise ValueError(f"marked rank {marked} out of range")
    _check_capacity(params, capacity)
    opposite = opposite_permutation(params)
    state = uniform_state(params, capacity)
    p_succ, p_alt, norm = (np.empty(len(times)) for _ in range(3))
    row = 0
    for t in range(steps + 1):
        if t == times[row]:
            p_succ[row] = vertex_probability(params, state, marked)
            p_alt[row] = alt_vertex_probability(params, state, marked, opposite)
            norm[row] = state_norm(state)
            row += 1
        if t < steps:
            state = step(params, state, opposite, marked)
    return Series(t=times, p_succ=p_succ, p_alt=p_alt, norm=norm)
