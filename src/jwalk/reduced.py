"""Search dynamics inside the (2k+1)-dimensional invariant subspace.

Started from the uniform state, the whole walk lives in a subspace with an
orthonormal basis in which the unmarked step operator is diagonal, with
eigenvalues (1, e^{i w_1}, e^{-i w_1}, ..., e^{i w_k}, e^{-i w_k}), and the
marked-vertex reflection is the rank-1 real reflection I - 2 w w^T through
the target coordinates

    w = (p_0, p_1/sqrt(2), p_1/sqrt(2), ..., p_k/sqrt(2), p_k/sqrt(2)),

where p_l**2 is the level-l projector weight.  The step matrix is the
product of the two, so evolution for any n costs O(k^2) per step and is
exact for finite n, not an asymptotic approximation.  The initial state is
the first basis vector, and the success probability at any time is
|w . coords|**2.

There is one operator, ``ReducedWalk.matrix``, built and stored in numpy's
extended precision where the platform provides one (a double-rounded step
matrix has eigenvalue moduli off by a few 1e-18, which over 1e6 steps
inflates the norm by about 1e-11).  It is cast to double only where double
is all the consumer takes: ``np.linalg.eigvals`` in ``eigenphases`` and the
dense compression check in ``jwalk.validation``.  States and probabilities
are reported in double.

``states`` is the only loop that applies the operator; ``evolve_series``
and ``sweep_point`` consume it.  A step is one dense (2k+1)^2 matvec.  The
structured form D(x - 2 w (w . x)) is O(k) in arithmetic but takes three
numpy calls instead of one, and call overhead dominates at this size.  On
an x86-64 host (numpy 2.4.6, 80-bit longdouble; best of five runs of 5e4
steps) it took 6.1 us/step against 1.7 us/step for the dense matvec on
J(10^6, 2), and 6.8 against 2.0 us/step on J(4000, 3).
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import spectral
from .johnson import GraphParams

__all__ = [
    "ReducedWalk",
    "build_reduced",
    "states",
    "evolve_series",
    "sweep_point",
    "success_probability",
    "eigenphases",
]


@dataclass(frozen=True)
class ReducedWalk:
    """Immutable reduced step operator with its target and start vectors."""

    params: GraphParams
    matrix: np.ndarray      # (2k+1, 2k+1) clongdouble, diag(phases) @ (I - 2 w w^T)
    target: np.ndarray      # real coordinates of the marked-arc superposition
    initial: np.ndarray     # unit vector on the stationary coordinate

    @property
    def dim(self) -> int:
        return 2 * self.params.k + 1


def _longdouble_ratio(frac: Fraction) -> np.longdouble:
    # decimal-string parse keeps big integer operands exact in extended precision
    return np.longdouble(str(frac.numerator)) / np.longdouble(str(frac.denominator))


def _target_ext(params: GraphParams) -> np.ndarray:
    k = params.k
    w = np.empty(2 * k + 1, dtype=np.longdouble)
    w[0] = np.sqrt(_longdouble_ratio(spectral.projector_weight_exact(params, 0)))
    for l in range(1, k + 1):
        half = spectral.projector_weight_exact(params, l) / 2
        w[2 * l - 1] = w[2 * l] = np.sqrt(_longdouble_ratio(half))
    return w


def build_reduced(params: GraphParams) -> ReducedWalk:
    """Assemble the reduced step matrix diag(e^{±i w_l}) @ (I - 2 w w^T)."""
    k = params.k
    dim = 2 * k + 1
    angles = np.zeros(dim, dtype=np.longdouble)
    for l in range(1, k + 1):
        omega = np.arccos(np.longdouble(spectral.eigenvalue(params, l))
                          / np.longdouble(params.degree))
        angles[2 * l - 1] = omega
        angles[2 * l] = -omega
    phases = np.cos(angles) + 1j * np.sin(angles)
    w_ext = _target_ext(params)
    reflection = np.eye(dim, dtype=np.longdouble) - 2.0 * np.outer(w_ext, w_ext)
    matrix = phases[:, None] * reflection
    target = w_ext.astype(np.float64)
    initial = np.zeros(dim, dtype=np.complex128)
    initial[0] = 1.0
    for arr in (matrix, target, initial):
        arr.setflags(write=False)
    return ReducedWalk(params=params, matrix=matrix, target=target, initial=initial)


def states(walk: ReducedWalk, steps: int):
    """Yield the extended-precision state at t = 0, 1, ..., ``steps``.

    One matvec per step, no squaring; the state after the last yield is
    never computed.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    state = walk.initial.astype(np.clongdouble)
    yield state
    for _ in range(steps):
        state = walk.matrix @ state
        yield state


def success_probability(target: np.ndarray, state: np.ndarray) -> float:
    """|<target|state>|^2; the target coordinates are real."""
    return float(abs(np.dot(target, np.asarray(state, dtype=np.complex128))) ** 2)


def evolve_series(walk: ReducedWalk, steps: int, stride: int = 1) -> list:
    """Rows (t, p_succ, norm) from the start state, stride-sampled.

    t = 0 is always recorded and so is the final step.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    rows = []
    for t, state in enumerate(states(walk, steps)):
        if t % stride == 0 or t == steps:
            snapshot = state.astype(np.complex128)
            rows.append((
                t,
                success_probability(walk.target, snapshot),
                float(np.linalg.norm(snapshot)),
            ))
    return rows


def sweep_point(walk: ReducedWalk, t_run: int) -> tuple:
    """(p_run, t_opt, p_max) in one pass over t in [0, max(1, 2*t_run)].

    ``p_run`` is the success probability at ``t_run``; ``t_opt`` is the
    first t at which the window's maximum ``p_max`` is reached.
    """
    if t_run < 0:
        raise ValueError("t_run must be >= 0")
    p_run = t_opt = p_max = None
    for t, state in enumerate(states(walk, max(1, 2 * t_run))):
        p = success_probability(walk.target, state.astype(np.complex128))
        if t == t_run:
            p_run = p
        if p_max is None or p > p_max:
            t_opt, p_max = t, p
    return p_run, t_opt, p_max


def eigenphases(walk: ReducedWalk) -> np.ndarray:
    """Sorted principal arguments of the step-matrix eigenvalues."""
    eig = np.linalg.eigvals(walk.matrix.astype(np.complex128))
    return np.sort(np.angle(eig))
