"""Search dynamics inside the (2k+1)-dimensional invariant subspace.

Started from the uniform state, the whole walk lives in a subspace with an
orthonormal basis in which the unmarked step operator is diagonal, with
eigenvalues (1, e^{i w_1}, e^{-i w_1}, ..., e^{i w_k}, e^{-i w_k}), and the
marked-vertex reflection is the rank-1 real reflection I - 2 w w^T through
the target coordinates

    w = (p_0, p_1/sqrt(2), p_1/sqrt(2), ..., p_k/sqrt(2), p_k/sqrt(2)),

where p_l**2 is the level-l projector weight.  The marked step is the
product of the two, exact for finite n, not an asymptotic approximation.
The initial state is the first basis vector, and the success probability
at any time is |w . coords|**2.

The walk phases and the weights w_j**2 are derived once, at
``spectral._MP_DPS`` (40) digits, from the integer eigenvalues and the
exact Fraction projector weights (``spectral.walk_terms``).  Every quantity below
comes from them, and nothing here forms or iterates a step matrix:
``jwalk.validation`` rounds the same terms once into the step matrix it
compares with the compression of the explicit step, and the tests certify
the spectrum against a walk iterated on the 3k arc classes
"shell i -> shell j", built from the intersection numbers alone.  The
work at 40 digits is mpmath's, imported by each function that does it
when it is called, so importing this module does not load mpmath.

The marked step is a rank-one change of the diagonal unitary
D = diag(e^{i phi_j}), so its eigenphases are the roots of the secular
equation (Golub 1973; Bunch, Nielsen and Sorensen 1978)

    f(theta) = sum_j w_j**2 cot((theta - phi_j) / 2) = 0.

f falls from +inf to -inf between consecutive walk phases, counting the
gap that wraps through pi, so each of the 2k+1 gaps holds exactly one
root.  ``spectrum`` finds it at the working digits, from the derived
phases and weights, by one safeguarded, pole-deflated Newton iteration
per gap (``_secular_root``); each iterate costs one evaluation of the
2k+1 cotangents, and a root takes at most 7 (5.0 per root on J(100, 2),
4.2 on J(1000, 8)).  The two roots beside the phase 0, about
+-sqrt(2 k!) n**(-k/2) from it, start from the leading term of f there.
A root that lies within 2**24 rounding units of its pole is refused with
PrecisionError (``sweep --k 4`` at n = 10**12, ``--k 8`` at n = 10**6,
``--k 20`` at n = 1000), as is one that does not settle within
_MAX_NEWTON iterations or leaves its gap.  The eigenvector
v_m = (e^{i theta_m} - D)^{-1} D w gives the start state's amplitudes in
closed form, and

    p(t) = |sum_m a_m e^{i theta_m t}|**2.

p is evaluated at t = 0, stride, 2*stride, ... in blocks of
``arc_engine.CHUNK`` values; the ``simulate`` series (``evolve_series``)
and ``sweep_point`` both read from the spectrum of a ``GraphParams``, so
neither depends on n, and a series costs O(steps/stride) evaluations
whatever its horizon.  The series is yielded one block at a time, so its
memory does not grow with the horizon either.
The series' norm column is the start state's norm in the eigen-expansion,
sqrt(sum_m |c_m|**2) with

    |c_m|**2 = (w_0**2 / (4 sin**2(theta_m/2)))
               / sum_j w_j**2 / (4 sin**2((theta_m - phi_j)/2)),

computed once at the working digits.  On the certified instances it is 1
within 5e-37, while no single |c_m|**2 is below 2e-18, so a root missing
or found twice shows in it.

``sweep_point`` needs only p at t_run and the first maximum over
[0, 2*t_run], and it evaluates only the blocks that can hold them.  The two
terms with the largest |a_m| form S(t), with
|S(t)|**2 = A + B cos(dtheta t + phi), and the others add at most
R = sum_rest |a_m| to sqrt(p(t)).  With p_best the largest value in the
blocks of t_run and of the maxima of |S|, any t where
(|S(t)| + R)**2 < p_best - 2**-40 cannot hold the maximum; the t that
remain form one interval per period of |S|, solved with acos in mpmath.
Each block is computed by the same evaluator as in a scan of every block,
so the result is that scan's, bit for bit: on J(10^6, 2) one block of 384,
and on J(10^12, 2) 331 of 383,495,197.  A window of more than 2^20
blocks (``arc_engine.MAX_CHUNKS``), such as J(10^12, 3)'s 190,107,929, is
refused with CapacityError.

Precision: a root good to 40 digits keeps theta*t good to about 1e-33 at
t = 10^6.  The block evaluator reads each root as the binary fraction it
is and reduces theta*t modulo 2 pi in Python integers, against 2 pi
rounded 64 bits below the product's last bit, before rounding the angle
to longdouble (``_rotations``).  The rotation is then that of the exact
product at any t, equal to a 150-digit reduction bit for bit, so the
error of p(t) does not grow with t; the 2k+1 terms are summed in
extended precision.  That error is absolute: the terms are up to about
1/2 in modulus, so the sum carries a few longdouble roundings of 1/2
whatever p is.  Near the peak that is below one double rounding of p;
where p is small the sum cancels, and p's relative error grows like 1/p.
Against a 60-digit evaluation of the same 40-digit spectrum, rows
t = 229,355-229,370 of J(4000, 3)'s default series are within 2.5e-23
absolute, and at t = 229,357, where p = 3.3e-12, the error of 2.5e-25 is
621 ulp.  The evaluator needs an extended longdouble: ``evolve_series``
and ``sweep_point`` refuse, with PrecisionError, a platform whose
longdouble has fewer than 63 significand bits after the point
(``_LONGDOUBLE_BITS``), where they would silently write other bytes.
On J(10^6, 2) the scan's p(t_run) equals a 60-digit evaluation to the
last bit, while the tests' arc-class walk, iterated in longdouble,
differs by 4.0e-15, its own drift over 785,398 steps.
"""

import math
from typing import Iterator, NamedTuple

import numpy as np

from . import arc_engine, spectral
from .arc_engine import CHUNK, MAX_CHUNKS, Series
from .errors import CapacityError, PrecisionError
from .johnson import GraphParams

__all__ = [
    "SecularSpectrum",
    "evolve_series",
    "spectrum",
    "sweep_point",
]

# iterations allowed per secular root; reaching the cap raises
_MAX_NEWTON = 20

# significand bits after the point of this platform's longdouble, read once:
# 63 for the x87 80-bit format, 52 where longdouble is plain double
_LONGDOUBLE_BITS = np.finfo(np.longdouble).nmant
_NEEDED_BITS = 63

# slack of the sweep's window: far above the one double rounding that
# separates a scanned p from a 60-digit value, and above the longdouble
# rounding of the amplitudes and rotations; a larger value only adds blocks
_MARGIN = 2.0 ** -40


class SecularSpectrum(NamedTuple):
    """Marked-step spectrum at ``spectral._MP_DPS`` digits (mpmath numbers)."""

    phases: tuple       # walk phases -omega_k..-omega_1, 0, omega_1..omega_k
    weights: tuple      # w_j**2 for each phase
    roots: tuple        # eigenphase theta_m in the gap above phases[m]
    amplitudes: tuple   # a_m, with p(t) = |sum_m a_m e^{i theta_m t}|**2
    norm: object        # start-state norm in the eigen-expansion, sqrt(sum_m |c_m|**2)


def evolve_series(params: GraphParams, steps: int, stride: int = 1) -> Iterator[Series]:
    """The series at t = 0, stride, 2*stride, ... and at ``steps``, from the spectrum.

    Yields the chunks of ``arc_engine._chunk_times``, each one block of
    p(t) from :func:`spectrum`, so the cost is O(steps/stride) whatever n
    and the memory one chunk whatever the horizon; ``norm`` is the
    spectrum's eigen-expansion norm on every row, a read-only broadcast of
    one double; ``p_alt`` is None.  The chunk count is checked and the
    spectrum solved at the call, so every refusal comes before the first
    chunk, and a longdouble without 63 significand bits is refused with
    PrecisionError before the spectrum is solved (:func:`_require_longdouble`).
    """
    chunks = arc_engine._chunk_times(steps, stride)
    _require_longdouble()
    spec = spectrum(params)
    return _series(spec, stride, chunks)


def _series(spec: SecularSpectrum, stride: int,
            chunks: Iterator[np.ndarray]) -> Iterator[Series]:
    tables = _tables(spec, stride)
    norm = float(spec.norm)
    for t in chunks:
        yield Series(t=t, p_succ=_block(spec, tables, int(t[0]), len(t)), p_alt=None,
                     norm=np.broadcast_to(norm, t.shape))


def _require_longdouble() -> None:
    """Refuse the block evaluator on a platform whose longdouble is not extended."""
    if _LONGDOUBLE_BITS < _NEEDED_BITS:
        raise PrecisionError(
            f"the reduced engine needs a longdouble with {_NEEDED_BITS} significand bits "
            f"after the point, and this platform's has {_LONGDOUBLE_BITS}; "
            "use simulate --engine full instead")


def _ld(values) -> np.ndarray:
    # mpfs as the sums of their two leading doubles, rounded once to longdouble
    hi = [float(x) for x in values]
    lo = [float(x - h) for x, h in zip(values, hi)]
    return np.array(hi, dtype=np.longdouble) + np.array(lo, dtype=np.longdouble)


def _rotations(roots: tuple, times) -> np.ndarray:
    """e^{i theta t} in clongdouble, one row per t, with theta*t mod 2 pi in integers.

    Every root is an integer over 2**scale, scale the largest of their
    negated binary exponents, so theta*t is exact.  It is reduced by one
    multiply and one % against 2 pi rounded to bit_length(max t) + 64 bits
    below that scale, which puts the reduction's error below 2**-64 of the
    roots' own last unit.  The residue's two nearest doubles come from int
    true division, and are rounded to longdouble as two arrays and one add.
    """
    import mpmath
    times = [int(t) for t in times]  # a numpy integer has no bit_length, and overflows
    exact = [(-man if sign else man, exp)
             for sign, man, exp, _ in (theta._mpf_ for theta in roots)]
    bits = max(0, -min(exp for _, exp in exact)) + max(times).bit_length() + 64
    turn = mpmath.libmp.pi_fixed(bits + 1)  # floor(2 pi * 2**bits)
    scaled = [man << (exp + bits) for man, exp in exact]
    one = 1 << bits
    hi, lo = [], []
    for t in times:
        for theta in scaled:
            residue = theta * t % turn
            lead = residue / one
            num, den = lead.as_integer_ratio()
            hi.append(lead)
            lo.append((residue - (num << bits) // den) / one)
    angles = np.array(hi, dtype=np.longdouble) + np.array(lo, dtype=np.longdouble)
    return np.exp(1j * angles.reshape(len(times), len(roots)))


def _closer_than_resolved(pole_lo, pole_hi) -> PrecisionError:
    import mpmath
    return PrecisionError(f"secular root in ({pole_lo}, {pole_hi}) is closer to a pole "
                          f"than {mpmath.mp.dps} digits resolve")


def _secular_root(phases: list, weights: list, m: int, start=None):
    """The one root of f(theta) = sum_j w_j**2 cot((theta - phi_j)/2) in gap m.

    Gap m runs from phases[m] to the next phase (phases[0] + 2 pi for the
    last), and f falls from +inf to -inf across it.  One safeguarded
    iteration from ``start`` (the gap's midpoint if ``start`` is None or
    outside the gap): each iterate evaluates the 2k+1 cotangents once, the
    sign of f moves the bracket, and the step is Newton on the
    pole-deflated h = f sin((theta - lo)/2) sin((hi - theta)/2), that is
    f / (f' + f (c_lo + c_hi)/2) with the two poles' cotangents in hand.
    An iterate thrown past an end of the bracket is replaced by the root
    of that end's pole term plus the rest of f held constant (the
    first-order root next to a pole of small weight) and, if that is
    outside too, by the bracket's midpoint.  The iteration stops once
    |f/f'| is down to the rounding of theta and of the sum, after one last
    step.  Raises PrecisionError, never returns a guess, if the root lies
    within 2**24 rounding units of a pole or the bracket can no longer be
    split, if it does not settle within _MAX_NEWTON iterations, or if it
    leaves the gap.
    """
    import mpmath
    dim = len(phases)
    up = (m + 1) % dim
    pole_lo = phases[m]
    pole_hi = phases[up] if up else phases[0] + 2 * mpmath.pi
    lo, hi = pole_lo, pole_hi
    theta = start if start is not None and lo < start < hi else (lo + hi) / 2
    for _ in range(_MAX_NEWTON):
        c = [1 / mpmath.tan((theta - phi) / 2) for phi in phases]
        terms = [w * x for w, x in zip(weights, c)]
        f = mpmath.fsum(terms)
        slope = -mpmath.fsum(w * (1 + x * x) for w, x in zip(weights, c)) / 2
        if f > 0:
            lo = theta
        else:
            hi = theta
        step = f / (slope + f * (c[m] + c[up]) / 2)
        # done once a Newton step is down to the rounding of theta and of the sum
        noise = abs(theta) + mpmath.fsum(terms, absolute=True) / abs(slope)
        settled = abs(f / slope) <= noise * mpmath.eps * 2 ** 8
        theta -= step
        if settled:
            break
        if not lo < theta < hi:
            # f near that pole: its own term, 2 w_j**2 / (theta - pole), plus the rest
            pole, j = (pole_hi, up) if theta >= hi else (pole_lo, m)
            theta = pole - 2 * weights[j] / (f - weights[j] * c[j])
        if not lo < theta < hi:
            theta = (lo + hi) / 2
            if not lo < theta < hi:
                raise _closer_than_resolved(pole_lo, pole_hi)
    else:
        raise PrecisionError(f"secular Newton in ({pole_lo}, {pole_hi}) did not converge")
    if not pole_lo < theta < pole_hi:
        raise PrecisionError(f"secular root {theta} left its gap ({pole_lo}, {pole_hi})")
    if min(theta - pole_lo, pole_hi - theta) <= abs(theta) * mpmath.eps * 2 ** 24:
        raise _closer_than_resolved(pole_lo, pole_hi)
    return theta


def _next_to_zero(phases: list, weights: list, k: int):
    """|theta| of the two roots beside the phase 0, to leading order in w_0**2.

    By the phases' symmetry the other terms of f vanish at 0 with slope
    -sum_{j != k} w_j**2 / (2 sin**2(phi_j/2)), so
    f(theta) ~ 2 w_0**2/theta + theta * slope there.
    """
    import mpmath
    rest = mpmath.fsum(2 * w / mpmath.sin(phi / 2) ** 2
                       for phi, w in zip(phases[k + 1:], weights[k + 1:]))
    return mpmath.sqrt(4 * weights[k] / rest)


def spectrum(params: GraphParams) -> SecularSpectrum:
    """Eigenphases and start-state amplitudes of the marked step, in mpmath.

    Solved at ``spectral._MP_DPS`` digits from :func:`jwalk.spectral.walk_terms`,
    never from a step matrix.  The two gaps beside the phase 0 start from
    :func:`_next_to_zero`, the others from their midpoints.
    """
    import mpmath
    phases, weights = spectral.walk_terms(params)
    k = params.k
    with mpmath.workdps(spectral._MP_DPS):
        near = _next_to_zero(phases, weights, k)
        starts = {k - 1: -near, k: near}
        roots = [_secular_root(phases, weights, m, starts.get(m))
                 for m in range(len(phases))]
        w0_sq = weights[k]
        w0 = mpmath.sqrt(w0_sq)
        amplitudes, overlaps = [], []
        for theta in roots:
            # |v_m|**2, and the start state's weight |c_m|**2 on v_m / |v_m|
            length_sq = mpmath.fsum(w / (4 * mpmath.sin((theta - phi) / 2) ** 2)
                                    for phi, w in zip(phases, weights))
            amplitudes.append(w0 / 4 * (1 - 1j * mpmath.cot(theta / 2)) / length_sq)
            overlaps.append(w0_sq / (4 * mpmath.sin(theta / 2) ** 2) / length_sq)
        norm = mpmath.sqrt(mpmath.fsum(overlaps))
    return SecularSpectrum(phases=tuple(phases), weights=tuple(weights),
                           roots=tuple(roots), amplitudes=tuple(amplitudes), norm=norm)


def _tables(spec: SecularSpectrum, stride: int) -> tuple:
    """The longdouble amplitudes and the coarse and fine rotation tables of a stride."""
    amplitudes = _ld([a.real for a in spec.amplitudes]) \
        + 1j * _ld([a.imag for a in spec.amplitudes])
    # e^{i theta t} for t = s + stride*(side*q + r) is e^{i theta s} coarse[q] fine[r]
    side = math.isqrt(CHUNK)
    coarse = _rotations(spec.roots, range(0, CHUNK * stride, side * stride))
    fine = _rotations(spec.roots, range(0, side * stride, stride)).T.copy()
    return amplitudes, coarse, fine


def _block(spec: SecularSpectrum, tables: tuple, start: int, count: int) -> np.ndarray:
    """p at t = start + j*stride for j below count and CHUNK.

    The one evaluator of every block: the same start gives the same bits
    whichever caller asks.
    """
    amplitudes, coarse, fine = tables
    coeffs = amplitudes * _rotations(spec.roots, [start])[0]
    z = np.dot(coarse * coeffs, fine).reshape(-1)[:count]
    return (z.real * z.real + z.imag * z.imag).astype(np.float64)


class _TwoTermBound(NamedTuple):
    """sqrt(p(t)) <= |S(t)| + rest, with |S(t)|**2 = mean + swing cos(beat t + phase).

    S(t) is the sum of the two terms with the largest |a_m|; ``rest`` is the
    sum of the other |a_m|.  All fields are mpmath numbers.
    """

    mean: object
    swing: object
    beat: object      # > 0
    phase: object
    rest: object


def _two_term_bound(spec: SecularSpectrum) -> _TwoTermBound:
    import mpmath
    with mpmath.workdps(spectral._MP_DPS):
        order = sorted(range(len(spec.roots)), key=lambda m: abs(spec.amplitudes[m]),
                       reverse=True)
        upper, lower = sorted(order[:2], key=lambda m: spec.roots[m], reverse=True)
        a, b = spec.amplitudes[upper], spec.amplitudes[lower]
        cross = a * mpmath.conj(b)
        return _TwoTermBound(
            mean=abs(a) ** 2 + abs(b) ** 2, swing=2 * abs(cross),
            beat=spec.roots[upper] - spec.roots[lower], phase=mpmath.arg(cross),
            rest=mpmath.fsum(abs(spec.amplitudes[m]) for m in order[2:]))


def _peak_times(bound: _TwoTermBound, steps: int) -> list:
    """The whole t below each maximum t = (2 pi j - phase)/beat of |S(t)| in [0, steps]."""
    import mpmath
    with mpmath.workdps(spectral._MP_DPS):
        turn = 2 * mpmath.pi
        first = int(mpmath.ceil(bound.phase / turn))
        last = int(mpmath.floor((bound.beat * steps + bound.phase) / turn))
        return [int(mpmath.floor((turn * j - bound.phase) / bound.beat))
                for j in range(first, last + 1)]


def _window(bound: _TwoTermBound, p_best: float, steps: int) -> list:
    """Whole-t intervals [lo, hi] of [0, steps] outside which p(t) < p_best - _MARGIN.

    (|S(t)| + rest)**2 >= p_best - _MARGIN holds where
    cos(beat t + phase) >= c = ((sqrt(p_best - _MARGIN) - rest)**2 - mean) / swing,
    which is one arc of half-width acos(c) around each maximum of |S|.  When
    the bound excludes nothing (sqrt(p_best - _MARGIN) <= rest, or c <= -1)
    the arcs are whole turns and the intervals cover [0, steps].
    """
    import mpmath
    with mpmath.workdps(spectral._MP_DPS):
        turn = 2 * mpmath.pi
        floor = mpmath.sqrt(max(mpmath.mpf(p_best) - _MARGIN, 0)) - bound.rest
        c = (floor ** 2 - bound.mean) / bound.swing if floor > 0 else mpmath.mpf(-1)
        half = mpmath.acos(min(max(c, -1), 1))
        first = int(mpmath.ceil((bound.phase - half) / turn))
        last = int(mpmath.floor((bound.beat * steps + bound.phase + half) / turn))
        intervals = []
        for j in range(first, last + 1):
            lo = max(0, int(mpmath.ceil((turn * j - half - bound.phase) / bound.beat)))
            hi = min(steps, int(mpmath.floor((turn * j + half - bound.phase) / bound.beat)))
            if lo <= hi:
                intervals.append((lo, hi))
    return intervals


def _merged(ranges: list) -> list:
    """Each index of the inclusive ranges once, in increasing order, as disjoint ranges."""
    following, spans = 0, []
    for lo, hi in sorted(ranges):
        spans.append(range(max(lo, following), hi + 1))
        following = max(following, hi + 1)
    return spans


def sweep_point(params: GraphParams, t_run: int) -> tuple:
    """(p_run, t_opt, p_max) over t in [0, max(1, 2*t_run)], from the blocks that matter.

    ``p_run`` is the success probability at ``t_run``; ``t_opt`` is the
    first t at which the range's maximum ``p_max`` is reached.  The values
    are those of a scan of every block of p(t) (``evolve_series``), bit for bit,
    but only some blocks are evaluated: the block holding ``t_run``, the
    blocks holding the maxima of the two dominant terms and, with
    ``p_best`` the largest value those hold, every block where the
    two-term bound lets p reach p_best - 2**-40 (``_window``).  Each block
    is evaluated once by the scan's own evaluator, and they are visited in
    increasing t with a strict comparison, so ``t_opt`` is the first maximum.
    A window of more than MAX_CHUNKS blocks is refused with CapacityError
    once the seed blocks are evaluated, before any other; a longdouble
    without 63 significand bits with PrecisionError, before the spectrum
    is solved.
    """
    if t_run < 0:
        raise ValueError("t_run must be >= 0")
    _require_longdouble()
    spec = spectrum(params)
    steps = max(1, 2 * t_run)
    tables = _tables(spec, 1)

    def evaluate(index):
        start = index * CHUNK
        return _block(spec, tables, start, steps - start + 1)

    bound = _two_term_bound(spec)
    seeds = sorted({t // CHUNK for t in [t_run, *_peak_times(bound, steps)]})
    done = {index: evaluate(index) for index in seeds}
    p_best = max(float(p.max()) for p in done.values())
    ranges = [(lo // CHUNK, hi // CHUNK) for lo, hi in _window(bound, p_best, steps)]
    spans = _merged(ranges + [(index, index) for index in seeds])
    blocks = sum(map(len, spans))
    if blocks > MAX_CHUNKS:
        raise CapacityError(f"sweep of J({params.n},{params.k}) needs {blocks} blocks of "
                            f"{CHUNK} values, above the {MAX_CHUNKS} allowed; "
                            "sweep a smaller n or k")
    p_run = t_opt = p_max = None
    for index in (index for span in spans for index in span):
        p = done.pop(index) if index in done else evaluate(index)
        start = index * CHUNK
        if start <= t_run < start + len(p):
            p_run = float(p[t_run - start])
        peak = int(np.argmax(p))
        if p_max is None or p[peak] > p_max:
            t_opt, p_max = start + peak, float(p[peak])
    return p_run, t_opt, p_max
