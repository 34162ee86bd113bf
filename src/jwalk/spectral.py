"""Closed-form spectral data of J(n, k) and the search schedule.

The adjacency operator has k+1 distinct integer eigenvalues

    lambda_l = (k - l)(n - k - l) - l,       l = 0..k,

with multiplicity C(n, l) - C(n, l-1).  The squared overlap of any vertex
state with the eigenspace projector ("projector weight") is the exact
rational multiplicity / N.  The coin walk restricted to the search's
invariant subspace has eigenphases omega_l = arccos(lambda_l / degree).
They, the walk terms of :func:`walk_terms` and the schedule are derived
here only, at _MP_DPS (40) digits, and each float is rounded once.
"""

from fractions import Fraction
from math import comb
from typing import NamedTuple, Optional

import mpmath

from .errors import DegenerateInstanceError
from .johnson import GraphParams, _check_level, intersection_numbers, shell_size

__all__ = [
    "SpectralRow",
    "Schedule",
    "eigenvalue",
    "multiplicity",
    "projector_weight",
    "projector_weight_exact",
    "eigenphase",
    "spectral_table",
    "run_time",
    "walk_terms",
]

_MP_DPS = 40


class SpectralRow(NamedTuple):
    """Per-level spectral record of one instance."""

    level: int
    eigenvalue: int
    multiplicity: int
    weight_sq: float          # squared projection of a vertex state
    phase: Optional[float]    # arccos(eigenvalue/degree); None at level 0
    shell: int                # vertices at this distance
    a: int
    b: int
    c: int


class Schedule(NamedTuple):
    """Measurement schedule of the search walk."""

    t_run: int
    epsilon: float        # n ** -0.5
    target_phase: float   # sqrt(2 k!) * epsilon**k, the leading eigenphase


def eigenvalue(params: GraphParams, level: int) -> int:
    """Adjacency eigenvalue (k-l)(n-k-l) - l; strictly decreasing in l."""
    _check_level(params, level)
    n, k, l = params.n, params.k, level
    return (k - l) * (n - k - l) - l


def multiplicity(params: GraphParams, level: int) -> int:
    """Eigenspace dimension C(n, l) - C(n, l-1), with C(n, -1) = 0."""
    _check_level(params, level)
    n, l = params.n, level
    return comb(n, l) - (comb(n, l - 1) if l >= 1 else 0)


def projector_weight_exact(params: GraphParams, level: int) -> Fraction:
    """Squared norm of the eigenspace projection of a vertex state, exact: multiplicity / N.

    The tests hold it equal to the factorial ratio k!(n-k)!(n-2l+1) / (l!(n-l+1)!).
    """
    return Fraction(multiplicity(params, level), params.num_vertices)


def projector_weight(params: GraphParams, level: int) -> float:
    return float(projector_weight_exact(params, level))


def _omega(params: GraphParams, level: int):
    """acos(lambda_l / degree) at _MP_DPS digits, an mpf in (0, pi), for levels 1..k."""
    _check_level(params, level)
    if level == 0:
        raise ValueError("level 0 has walk eigenvalue 1 and no phase")
    lam = eigenvalue(params, level)
    if lam <= -params.degree:
        raise DegenerateInstanceError(
            f"eigenvalue {lam} at level {level} is not above -degree")
    with mpmath.workdps(_MP_DPS):
        return mpmath.acos(mpmath.mpf(lam) / params.degree)


def eigenphase(params: GraphParams, level: int) -> float:
    """arccos(lambda_l / degree) in (0, pi) for levels 1..k, rounded once from _MP_DPS digits."""
    return float(_omega(params, level))


def walk_terms(params: GraphParams) -> tuple:
    """The walk phases and the weights w_j**2 at _MP_DPS digits, as mpfs.

    Phases ascend, -omega_k..-omega_1, 0, omega_1..omega_k, each omega_l
    the value :func:`eigenphase` rounds; each of +-omega_l weighs half the
    level-l projector weight, and 0 the level-0 weight.
    """
    k = params.k
    omegas = [_omega(params, l) for l in range(1, k + 1)]
    with mpmath.workdps(_MP_DPS):
        exact = [projector_weight_exact(params, l) for l in range(k + 1)]
        squares = [mpmath.mpf(f.numerator) / f.denominator for f in exact]
        phases = [-omega for omega in reversed(omegas)] + [mpmath.mpf(0)] + omegas
        weights = [s / 2 for s in reversed(squares[1:])] + [squares[0]] \
            + [s / 2 for s in squares[1:]]
    return phases, weights


def spectral_table(params: GraphParams) -> list:
    """All per-level records, level 0 first."""
    rows = []
    for l in range(params.k + 1):
        inter = intersection_numbers(params, l)
        rows.append(SpectralRow(
            level=l,
            eigenvalue=eigenvalue(params, l),
            multiplicity=multiplicity(params, l),
            weight_sq=projector_weight(params, l),
            phase=None if l == 0 else eigenphase(params, l),
            shell=shell_size(params, l),
            a=inter.a,
            b=inter.b,
            c=inter.c,
        ))
    return rows


def run_time(params: GraphParams) -> Schedule:
    """Measurement step floor(x), x = pi * n**(k/2) / (2 sqrt(2 k!)).

    x is evaluated with _MP_DPS significant digits, so that double
    rounding near an integer boundary cannot flip the floor, and the
    leading phase pi / (2x) = sqrt(2 k!) n**(-k/2) and 1/sqrt(n) are
    rounded once from the same digits.
    """
    n, k = params.n, params.k
    with mpmath.workdps(_MP_DPS):
        x = mpmath.pi * mpmath.sqrt(mpmath.mpf(n) ** k)
        x /= 2 * mpmath.sqrt(2 * mpmath.factorial(k))
        return Schedule(
            t_run=int(mpmath.floor(x)),
            epsilon=float(1 / mpmath.sqrt(n)),
            target_phase=float(mpmath.pi / (2 * x)),
        )
