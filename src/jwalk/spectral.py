"""Closed-form spectral data of J(n, k) and the search schedule.

The adjacency operator has k+1 distinct integer eigenvalues

    lambda_l = (k - l)(n - k - l) - l,       l = 0..k,

with multiplicity C(n, l) - C(n, l-1).  The squared overlap of any vertex
state with the eigenspace projector ("projector weight") has two closed
forms, both exact rationals; they are computed with Fraction arithmetic
and must agree identically.  The coin walk restricted to the search's
invariant subspace has eigenphases omega_l = arccos(lambda_l / degree).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Optional

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
]

_MP_DPS = 40


@dataclass(frozen=True)
class SpectralRow:
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


@dataclass(frozen=True)
class Schedule:
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
    """Squared norm of the eigenspace projection of a vertex state, exact.

    Evaluates both closed forms, multiplicity/N and the factorial ratio
    k!(n-k)!(n-2l+1) / (l!(n-l+1)!), and insists they agree.
    """
    _check_level(params, level)
    n, k, l = params.n, params.k, level
    by_multiplicity = Fraction(multiplicity(params, level), params.num_vertices)
    # (n-k)!/(n-l+1)! telescoped to keep operands small at large n
    denominator = factorial(l)
    for j in range(n - k + 1, n - l + 2):
        denominator *= j
    by_factorials = Fraction(factorial(k) * (n - 2 * l + 1), denominator)
    if by_multiplicity != by_factorials:
        raise AssertionError(
            f"projector weight closed forms disagree at level {l}: "
            f"{by_multiplicity} vs {by_factorials}")
    return by_multiplicity


def projector_weight(params: GraphParams, level: int) -> float:
    return float(projector_weight_exact(params, level))


def eigenphase(params: GraphParams, level: int) -> float:
    """arccos(lambda_l / degree) in (0, pi) for levels 1..k."""
    _check_level(params, level)
    if level == 0:
        raise ValueError("level 0 has walk eigenvalue 1 and no phase")
    lam = eigenvalue(params, level)
    if lam <= -params.degree:
        raise DegenerateInstanceError(
            f"eigenvalue {lam} at level {level} is not above -degree")
    return math.acos(lam / params.degree)


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
    """Measurement step floor(pi * n**(k/2) / (2 sqrt(2 k!))).

    The floor argument is evaluated with 40 significant digits so that
    double rounding near an integer boundary cannot flip the result.
    """
    n, k = params.n, params.k
    with mpmath.workdps(_MP_DPS):
        x = mpmath.pi * mpmath.sqrt(mpmath.mpf(n) ** k)
        x /= 2 * mpmath.sqrt(2 * mpmath.factorial(k))
        t_run = int(mpmath.floor(x))
    eps = n ** -0.5
    return Schedule(
        t_run=t_run,
        epsilon=eps,
        target_phase=math.sqrt(2 * factorial(k)) * eps ** k,
    )
