"""Exact matrix-free simulation of the search walk on the full arc space.

States are complex128 vectors over all arcs, tail-major and slot-minor, so
the outgoing arcs of one vertex occupy a contiguous block of length
``degree``.  One search step applies, in order, the marked-vertex
reflection, the Grover coin on every block, and the arc-reversal shift;
each pass is O(num_arcs) with no operator ever materialized.

Block reductions are evaluated by numpy in a fixed slot order, so repeated
runs produce identical bytes regardless of BLAS threading.
"""

from typing import Optional

import numpy as np

from .errors import CapacityError
from .johnson import GraphParams, opposite_permutation

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
    "evolve_and_record",
]

# Refuse allocations above this many amplitudes unless the caller raises the
# cap explicitly (128 MiB of complex128 per state buffer at the default).
DEFAULT_CAPACITY = 2 ** 23
# Absolute ceiling even when forced; keeps arc indices well inside int64
# and allocation failures predictable.
HARD_CAPACITY = 2 ** 31


def _check_capacity(params: GraphParams, capacity: int) -> None:
    cap = min(capacity, HARD_CAPACITY)
    if params.num_arcs > cap:
        raise CapacityError(
            f"instance J({params.n},{params.k}) needs {params.num_arcs} amplitudes, "
            f"above the cap of {cap}; use the reduced engine instead")


def uniform_state(params: GraphParams, capacity: int = DEFAULT_CAPACITY) -> np.ndarray:
    """Uniform superposition over all arcs, amplitude (degree*N)**-0.5."""
    _check_capacity(params, capacity)
    amp = 1.0 / np.sqrt(float(params.num_arcs))
    return np.full(params.num_arcs, amp, dtype=np.complex128)


def state_norm(state: np.ndarray) -> float:
    """2-norm via pairwise summation (BLAS nrm2's rescaling loses bits)."""
    return float(np.sqrt(np.sum(state.real ** 2 + state.imag ** 2)))


def apply_coin(params: GraphParams, state: np.ndarray) -> np.ndarray:
    """Grover coin per tail block: out = 2*mean(block) - in."""
    blocks = state.reshape(params.num_vertices, params.degree)
    means = blocks.mean(axis=1)
    return (2.0 * means[:, None] - blocks).reshape(-1)


def apply_shift(state: np.ndarray, opposite: np.ndarray) -> np.ndarray:
    """Flip-flop shift: the amplitude of every arc moves to its reverse."""
    return state[opposite]


def apply_oracle(params: GraphParams, state: np.ndarray, marked: int) -> np.ndarray:
    """Reflect through the uniform superposition of arcs leaving ``marked``.

    Only the marked block changes; every other amplitude is returned
    bitwise unchanged.
    """
    if not 0 <= marked < params.num_vertices:
        raise ValueError(f"marked rank {marked} out of range")
    d = params.degree
    out = state.copy()
    block = slice(marked * d, (marked + 1) * d)
    out[block] -= 2.0 * state[block].mean()
    return out


def step(params: GraphParams,
         state: np.ndarray,
         opposite: np.ndarray,
         marked: Optional[int] = None) -> np.ndarray:
    """One walk step: shift∘coin, preceded by the oracle on ``marked``.

    ``marked=None`` is the unmarked walk.
    """
    if marked is not None:
        state = apply_oracle(params, state, marked)
    return apply_shift(apply_coin(params, state), opposite)


def vertex_probability(params: GraphParams, state: np.ndarray, v: int) -> float:
    """Probability mass on the arcs whose tail is ``v``."""
    block = state[v * params.degree:(v + 1) * params.degree]
    return float(np.vdot(block, block).real)


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
    return float(np.vdot(tails, tails).real + np.vdot(heads, heads).real)


def evolve_and_record(params: GraphParams, marked: int, steps: int, stride: int = 1,
                      capacity: int = DEFAULT_CAPACITY) -> list:
    """Run the search walk and sample the probability series.

    Returns rows ``(t, p_succ, p_alt, norm)`` for every stride-th step
    (t = 0 always included, the final step always recorded).  ``p_succ``
    is the tail-block mass at the marked vertex, ``p_alt`` the tail-or-head
    diagnostic, ``norm`` the state 2-norm.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if not 0 <= marked < params.num_vertices:
        raise ValueError(f"marked rank {marked} out of range")
    _check_capacity(params, capacity)
    opposite = opposite_permutation(params)
    state = uniform_state(params, capacity)
    rows = []
    for t in range(steps + 1):
        if t % stride == 0 or t == steps:
            rows.append((
                t,
                vertex_probability(params, state, marked),
                alt_vertex_probability(params, state, marked, opposite),
                state_norm(state),
            ))
        if t < steps:
            state = step(params, state, opposite, marked)
    return rows
