"""Closed-form spectral data of J(n, k) and the search schedule.

The adjacency operator has k+1 distinct integer eigenvalues

    lambda_l = (k - l)(n - k - l) - l,       l = 0..k,

with multiplicity C(n, l) - C(n, l-1).  The squared overlap of any vertex
state with the eigenspace projector ("projector weight") is the exact
rational multiplicity / N.  The coin walk restricted to the search's
invariant subspace has eigenphases omega_l = arccos(lambda_l / degree).
They, the walk terms of :func:`walk_terms` and the schedule are derived
here only, and each float is rounded once.  The phases and walk terms are
computed at _MP_DPS (40) digits in mpmath, which the functions that use
it import when called; the schedule is exact, in Python integers
(:func:`run_time`), so a run that needs only the schedule, such as
``simulate --engine full``, never loads mpmath.
"""

from fractions import Fraction
from math import comb, factorial, isqrt
from typing import NamedTuple, Optional

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
    import mpmath
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
    import mpmath
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


def _pi_bracket(bits: int) -> tuple:
    """Integers (lo, hi) with lo < pi * 2**bits < hi, a few units apart.

    Machin's pi = 16 atan(1/5) - 4 atan(1/239), each series summed in
    integers 16 bits below 2**-bits.  Each term is floor divisions of the
    exact one, and the first term left out is below one unit, so every
    term counted and the tail add one unit each to the slack.
    """
    guard = 16
    one = 1 << (bits + guard)
    total = slack = 0
    for weight, x in ((16, 5), (-4, 239)):
        power, j = one // x, 1
        while power:
            total += (weight if j % 4 == 1 else -weight) * (power // j)
            slack += abs(weight)
            power //= x * x
            j += 2
        slack += abs(weight)
    return (total - slack) >> guard, ((total + slack) >> guard) + 1


def _sqrt_ratio(num: int, den: int) -> float:
    """sqrt(num / den) for positive integers, rounded once to double.

    r = floor(sqrt(num * 4**s / den)) has at least 64 bits, so no double
    and no midpoint of two doubles lies strictly between r and r + 1 over
    2**s; an inexact root lies strictly between them, and rounds as
    r + 1/2 does.
    """
    s = max(0, (den.bit_length() - num.bit_length()) // 2) + 64
    scaled, rest = divmod(num << 2 * s, den)
    r = isqrt(scaled)
    inexact = bool(rest) or r * r != scaled
    return (2 * r + inexact) / (1 << (s + 1))


def run_time(params: GraphParams) -> Schedule:
    """Measurement step floor(x), x = pi * n**(k/2) / (2 sqrt(2 k!)), exact.

    x = pi * sqrt(n**k / (8 k!)).  With pi between lo and hi over 2**bits
    (:func:`_pi_bracket`), floor(x) lies between the integer square roots
    of lo**2 and hi**2 times n**k / (8 k! 4**bits), and it is their common
    value; x is irrational, so raising bits brings the two together.  bits
    starts 32 above half the bit length of n**k, which leaves them apart
    only when x is within 2**-29 of an integer.  The leading phase
    pi / (2x) = sqrt(2 k!) n**(-k/2) and 1/sqrt(n) are each one integer
    square root, rounded once (:func:`_sqrt_ratio`).
    """
    n, k = params.n, params.k
    power, den = n ** k, 8 * factorial(k)
    bits = power.bit_length() // 2 + 32
    while True:
        lo, hi = _pi_bracket(bits)
        t_lo, t_hi = (isqrt(p * p * power // (den << 2 * bits)) for p in (lo, hi))
        if t_lo == t_hi:
            break
        bits *= 2
    return Schedule(t_run=t_lo, epsilon=_sqrt_ratio(1, n),
                    target_phase=_sqrt_ratio(2 * factorial(k), power))
