"""Reduced-subspace engine: structure, dynamics, eigenphases.

The iterated reference of every series here is the walk on the arc
classes (``orbit_walk``), which shares no closed form with the spectrum.
"""

import math

import mpmath
import numpy as np
import pytest

import orbit_walk
from chunked import gather
from eigenphases import eigenphases
from jwalk import arc_engine, reduced, spectral, validation
from jwalk.errors import CapacityError, PrecisionError
from jwalk.johnson import graph_params

# regression constants from the first run of this engine (extended-precision
# build, x86-64); the asymptotic claims they support are tested in acceptance
P_SUCC_AT_T_RUN_K2 = {
    100: 0.5054836274650057,
    400: 0.5012522380290787,
    1600: 0.5003127217348841,
    6400: 0.5000782178005411,
}
THETA_MIN_J100_2 = 0.020008182975302


def test_build_j42_structure():
    # the reduced step and target that certify compares with the explicit step
    p = graph_params(4, 2)
    step, w = validation._reduced_step(p)
    expected_w = [math.sqrt(1 / 6), 0.5, 0.5, math.sqrt(1 / 6), math.sqrt(1 / 6)]
    assert np.abs(w - expected_w).max() <= 1e-15
    # diagonal factor carries (1, e^{±i pi/2}, e^{±2i pi/3})
    diag = step @ np.linalg.inv(np.eye(5) - 2.0 * np.outer(w, w))
    expected_d = np.diag([1.0, 1j, -1j,
                          np.exp(2j * math.pi / 3), np.exp(-2j * math.pi / 3)])
    assert np.abs(diag - expected_d).max() <= 1e-14
    assert step.shape == (5, 5) and step.dtype == np.complex128


@pytest.mark.parametrize("n,k", [(100, 2), (5, 2), (16, 8), (10 ** 6, 4)])
def test_target_coords_unit_norm(n, k):
    _, w = validation._reduced_step(graph_params(n, k))
    assert abs(np.linalg.norm(w) - 1.0) <= 1e-14


@pytest.mark.parametrize("n,k", [(4, 2), (100, 2), (9, 3), (16, 8), (10 ** 6, 6)])
def test_step_matrix_unitary(n, k):
    # the iterated reference's step is real orthogonal
    matrix = orbit_walk.step_matrix(graph_params(n, k))
    gap = matrix @ matrix.T - np.eye(len(matrix))
    assert np.abs(gap).max() <= 1e-13


def test_evolve_identity_at_zero_and_stationary_diagonal():
    p = graph_params(8, 2)
    (only,) = orbit_walk.states(p, 0)
    assert np.array_equal(only, orbit_walk.start(p))
    # without the reflection the stationary coordinate never moves
    state = np.eye(5, dtype=complex)[0]
    phases = np.array([1.0] + [np.exp(s * 1j * spectral.eigenphase(p, l))
                               for l in (1, 2) for s in (+1, -1)])
    for t in range(50):
        assert (np.diag(phases) @ state)[0] == 1.0
        state = np.diag(phases) @ state
    with pytest.raises(ValueError):
        next(orbit_walk.states(p, -1))


def test_success_probability_endpoints():
    # p(0) is 1/N on both paths, and the target is a unit vector
    p = graph_params(100, 2)
    assert orbit_walk.probabilities(p, 0)[0] == pytest.approx(1.0 / p.num_vertices, rel=1e-13)
    assert gather(reduced.evolve_series(p, 0)).p_succ[0] == pytest.approx(
        1.0 / p.num_vertices, rel=1e-13)
    _, w = validation._reduced_step(p)
    assert float(np.dot(w, w)) ** 2 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", sorted(P_SUCC_AT_T_RUN_K2))
def test_success_probability_regression(n):
    p = graph_params(n, 2)
    t_run = spectral.run_time(p).t_run
    got = orbit_walk.probabilities(p, t_run)[-1]
    assert got == pytest.approx(P_SUCC_AT_T_RUN_K2[n], abs=1e-9)


def test_success_probability_band_at_n100():
    got = P_SUCC_AT_T_RUN_K2[100]
    p = graph_params(100, 2)
    assert gather(reduced.evolve_series(p, 78)).p_succ[-1] == pytest.approx(got, abs=1e-9)
    assert abs(got - 0.5) <= 0.1


def test_evolve_series_rows():
    p = graph_params(100, 2)
    rows = gather(reduced.evolve_series(p, 160))
    assert all(len(column) == 161 for column in (rows.t, rows.p_succ, rows.norm))
    assert rows.t[0] == 0 and rows.p_alt is None
    assert rows.p_succ[0] == pytest.approx(1.0 / p.num_vertices, rel=1e-13)
    strided = gather(reduced.evolve_series(p, 10, stride=3))
    assert strided.t.tolist() == [0, 3, 6, 9, 10]
    with pytest.raises(ValueError):
        reduced.evolve_series(p, -1)
    with pytest.raises(ValueError):
        reduced.evolve_series(p, 5, stride=0)


def test_eigenphases_unit_modulus_and_pairing():
    for n, k in [(100, 2), (50, 3), (12, 4)]:
        p = graph_params(n, k)
        eig = np.linalg.eigvals(validation._reduced_step(p)[0])
        assert np.abs(np.abs(eig) - 1.0).max() <= 1e-10
        phases = eigenphases(p)
        assert len(phases) == 2 * k + 1
        # conjugation symmetry: positive and negative phases mirror, with the
        # lone unpaired eigenvalue sitting at -1 (phase +-pi)
        interior_pos = np.sort([p for p in phases if 1e-9 < p < math.pi - 1e-9])
        interior_neg = np.sort([-p for p in phases if -math.pi + 1e-9 < p < -1e-9])
        assert len(interior_pos) == len(interior_neg) == k
        assert np.abs(interior_pos - interior_neg).max() <= 1e-10
        at_pi = [p for p in phases if abs(abs(p) - math.pi) <= 1e-9]
        assert len(at_pi) == 1


@pytest.mark.parametrize("n,k", [(100, 2), (50, 3), (12, 4)])
def test_eigenphases_are_the_secular_roots(n, k):
    # the roots, checked against the double-precision eig of the reduced step;
    # each is also an eigenvalue of the arc-class step, whose 3k classes hold
    # the 2k+1 dimensions the walk reaches
    p = graph_params(n, k)
    on_circle = np.exp(1j * eigenphases(p))
    eig = np.linalg.eigvals(validation._reduced_step(p)[0])
    gap = np.abs(on_circle[:, None] - eig[None, :])
    assert gap.min(axis=1).max() <= 1e-10 and gap.min(axis=0).max() <= 1e-10
    orbit_eig = np.linalg.eigvals(orbit_walk.step_matrix(p).astype(float))
    assert np.abs(on_circle[:, None] - orbit_eig[None, :]).min(axis=1).max() <= 1e-10
    assert np.all(np.diff(eigenphases(p)) > 0)


def test_smallest_phase_regression_j100():
    phases = eigenphases(graph_params(100, 2))
    theta = min(p for p in phases if p > 1e-9)
    assert theta == pytest.approx(THETA_MIN_J100_2, abs=1e-10)
    assert theta == pytest.approx(0.02, rel=0.5)  # leading-order prediction


def test_sweep_point_j100():
    p = graph_params(100, 2)
    t_run = spectral.run_time(p).t_run
    p_run, t_opt, p_max = reduced.sweep_point(p, t_run)
    assert abs(t_opt - t_run) <= 5
    assert p_max >= p_run
    with pytest.raises(ValueError):
        reduced.sweep_point(p, -1)


@pytest.mark.parametrize("n,k", [(100, 2), (400, 2), (20, 3)])
def test_sweep_point_matches_series(n, k):
    # the spectral sweep reads the iterated series' values to 1e-12
    p = graph_params(n, k)
    t_run = spectral.run_time(p).t_run
    series = orbit_walk.probabilities(p, 2 * t_run)
    p_run, t_opt, p_max = reduced.sweep_point(p, t_run)
    assert abs(p_run - series[t_run]) <= 1e-12
    assert abs(series[t_opt] - max(series)) <= 1e-12
    assert abs(p_max - max(series)) <= 1e-12


# k = 1..4: the smallest instance of each k (J(2k, k), or J(3, 1) since J(2, 1)
# is degenerate) and one with a long window (2*t_run from 1,632 to 28,678 steps)
CERTIFIED = [(3, 1), (10 ** 6, 1), (4, 2), (6400, 2), (6, 3), (1000, 3), (8, 4), (60, 4)]


def _spectral_series(params, steps, stride=1):
    """p(t) from every block of the spectral scan, the series ``evolve_series`` yields."""
    return gather(reduced.evolve_series(params, steps, stride)).p_succ


@pytest.mark.parametrize("n,k", CERTIFIED)
def test_spectral_scan_matches_iteration(n, k):
    p = graph_params(n, k)
    t_run = spectral.run_time(p).t_run
    steps = max(1, 2 * t_run)
    iterated = orbit_walk.probabilities(p, steps)
    scanned = _spectral_series(p, steps)
    assert scanned.shape == iterated.shape
    assert np.abs(scanned - iterated).max() <= 1e-12
    assert scanned[0] == pytest.approx(1.0 / p.num_vertices, rel=1e-13)
    p_run, t_opt, p_max = reduced.sweep_point(p, t_run)
    assert abs(p_run - iterated[t_run]) <= 1e-12
    assert abs(p_max - iterated.max()) <= 1e-12
    assert abs(iterated[t_opt] - iterated.max()) <= 1e-12
    assert p_run <= p_max
    assert t_opt == int(np.argmax(scanned)) and p_max == scanned[t_opt]


@pytest.mark.parametrize("n,k", CERTIFIED)
def test_secular_roots_bracketed_and_solved(n, k):
    spec = reduced.spectrum(graph_params(n, k))
    dim = 2 * k + 1
    assert len(spec.phases) == len(spec.weights) == len(spec.roots) == dim
    with mpmath.workdps(spectral._MP_DPS):
        assert abs(mpmath.fsum(spec.weights) - 1) <= 1e-35
        poles = list(spec.phases) + [spec.phases[0] + 2 * mpmath.pi]
        for m, theta in enumerate(spec.roots):
            assert poles[m] < theta < poles[m + 1]
            residual = mpmath.fsum(w / mpmath.tan((theta - phi) / 2)
                                   for phi, w in zip(spec.phases, spec.weights))
            assert abs(residual) <= 1e-30
        # the amplitudes resolve the start state: p(0) = w_0**2 = 1/N
        assert abs(abs(mpmath.fsum(spec.amplitudes)) ** 2 - spec.weights[k]) <= 1e-35
        # and so do the eigenvectors: a root missing or found twice breaks the sum
        assert abs(spec.norm - 1) <= 1e-30


@pytest.mark.parametrize("n,k", CERTIFIED)
def test_evolve_series_matches_iteration(n, k):
    # the simulate series, at stride 1, at stride 7 and with an off-grid last
    # step, reads the iterated values to 1e-12
    p = graph_params(n, k)
    steps = max(1, 2 * spectral.run_time(p).t_run)
    iterated = orbit_walk.probabilities(p, steps)
    off_grid = steps if steps % 7 else steps - 1
    for last, stride in [(steps, 1), (steps - steps % 7, 7), (off_grid, 7)]:
        series = gather(reduced.evolve_series(p, last, stride))
        on_grid = list(range(0, last + 1, stride))
        assert series.t.tolist() == on_grid + ([last] if last % stride else [])
        assert np.abs(series.p_succ - iterated[series.t]).max() <= 1e-12
        assert series.p_alt is None and len(series.norm) == len(series.t)


def test_sweep_at_t_run_j1e6_2_against_60_digits_and_iteration(monkeypatch):
    p = graph_params(10 ** 6, 2)
    t_run = spectral.run_time(p).t_run
    p_run, _, _ = reduced.sweep_point(p, t_run)
    monkeypatch.setattr(spectral, "_MP_DPS", 60)
    spec = reduced.spectrum(p)
    with mpmath.workdps(60):
        exact = abs(mpmath.fsum(a * mpmath.expj(theta * t_run)
                                for theta, a in zip(spec.roots, spec.amplitudes))) ** 2
    assert abs(p_run - float(exact)) <= 1e-15
    for state in orbit_walk.states(p, t_run):
        pass
    assert abs(p_run - float(state[0] * state[0])) <= 1e-12


def test_strided_series_to_1e9_steps_against_60_digits(monkeypatch):
    # 1,001 rows reaching 10^9 steps cost 1,001 evaluations, each as exact
    # as at small t
    p = graph_params(10 ** 6, 2)
    series = gather(reduced.evolve_series(p, 10 ** 9, stride=10 ** 6))
    assert series.t.tolist() == list(range(0, 10 ** 9 + 1, 10 ** 6))
    monkeypatch.setattr(spectral, "_MP_DPS", 60)
    spec = reduced.spectrum(p)
    with mpmath.workdps(60):
        for t, p in zip(series.t.tolist(), series.p_succ):
            exact = abs(mpmath.fsum(a * mpmath.expj(theta * t)
                                    for theta, a in zip(spec.roots, spec.amplitudes))) ** 2
            assert abs(p - float(exact)) <= 1e-15


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="the one-rounding bound needs an extended longdouble")
def test_scan_within_one_rounding_of_60_digits(monkeypatch):
    p = graph_params(10 ** 6, 2)
    steps = 2 * spectral.run_time(p).t_run
    scanned = _spectral_series(p, steps)
    monkeypatch.setattr(spectral, "_MP_DPS", 60)
    spec = reduced.spectrum(p)
    for t in np.linspace(0, steps, 41).astype(int):
        with mpmath.workdps(60):
            z = mpmath.fsum(a * mpmath.expj(theta * t)
                            for theta, a in zip(spec.roots, spec.amplitudes))
            exact = float(abs(z) ** 2)
        # one unit in the last place of p near its peak of 1/2
        assert abs(scanned[t] - exact) <= np.spacing(0.5)


def test_block_error_is_absolute_j4000_3():
    # rows t = 229,355-229,370 of J(4000,3)'s default series, read from the
    # series' own chunk, where p falls to 3.3e-12: each is within 1e-22
    # absolute of a 60-digit evaluation of the same 40-digit spectrum,
    # although at t = 229,357 its 2.5e-25 is 621 ulp of p
    p = graph_params(4000, 3)
    spec = reduced.spectrum(p)
    first = 229_355
    start = first - first % arc_engine.CHUNK
    block = reduced._block(spec, reduced._tables(spec, 1), start, arc_engine.CHUNK)
    with mpmath.workdps(60):
        for t in range(first, first + 16):
            exact = abs(mpmath.fsum(a * mpmath.expj(theta * t)
                                    for theta, a in zip(spec.roots, spec.amplitudes))) ** 2
            assert abs(block[t - start] - float(exact)) <= 1e-22


def test_rotation_angles_reduced_before_rounding():
    # theta*t is reduced mod 2 pi exactly, so e^{i theta t} at t = 10^15 is
    # as accurate as at t = 1
    roots = reduced.spectrum(graph_params(100, 2)).roots
    times = [1, 10 ** 15]
    got = reduced._rotations(roots, times)
    with mpmath.workdps(spectral._MP_DPS):
        for row, t in zip(got, times):
            for z, theta in zip(row, roots):
                assert abs(complex(z) - complex(mpmath.expj(theta * t))) <= 1e-15


def test_probability_blocks_layout():
    # the refusals of steps -1 and stride 0 are evolve_series' (test_evolve_series_rows)
    params = graph_params(100, 2)
    chunk = arc_engine.CHUNK
    blocks = list(reduced.evolve_series(params, chunk, 1))
    assert [(int(b.t[0]), len(b.t)) for b in blocks] == [(0, chunk), (chunk, 1)]
    assert [len(b.t) for b in reduced.evolve_series(params, 0, 1)] == [1]
    # strided: a block spans CHUNK samples, and an off-grid end is one more
    steps = 3 * chunk + 1
    strided = list(reduced.evolve_series(params, steps, 3))
    assert [(int(b.t[0]), len(b.t)) for b in strided] == [(0, chunk), (3 * chunk, 1),
                                                         (steps, 1)]
    assert all(len(b.p_succ) == len(b.norm) == len(b.t) for b in strided)
    dense = _spectral_series(params, steps)
    assert np.abs(gather(strided).p_succ
                  - dense[list(range(0, steps, 3)) + [steps]]).max() <= 1e-15


def test_unconverged_root_raises(monkeypatch):
    monkeypatch.setattr(reduced, "_MAX_NEWTON", 0)
    with pytest.raises(PrecisionError, match="did not converge"):
        reduced.spectrum(graph_params(100, 2))


def test_root_beyond_working_precision_raises():
    # level-1 weight ~ 24/n**3: its root sits ~1e-35 from the pole, below
    # what 40 digits resolve next to a phase of order 1
    with pytest.raises(PrecisionError, match="closer to a pole"):
        reduced.spectrum(graph_params(10 ** 12, 4))


@pytest.mark.parametrize("n,k,gap", [
    (1000, 20, "(-0.5600192265869749560643674845181632692443, "
               "-0.4554544438403261664068036142271546486188)"),
    (10 ** 6, 8, "(-0.7227368935819241801144178931986253417453, "
                 "-0.5053625758879443294871161164130041087356)"),
])
def test_refusal_names_the_first_unresolved_gap(n, k, gap):
    # the gaps below it solve; this one's root lies within 2**24 rounding
    # units of a phase of tiny weight
    with pytest.raises(PrecisionError) as refusal:
        reduced.spectrum(graph_params(n, k))
    assert str(refusal.value) == (f"secular root in {gap} is closer to a pole "
                                  f"than {spectral._MP_DPS} digits resolve")


def _roots_at(params, digits, monkeypatch):
    monkeypatch.setattr(spectral, "_MP_DPS", digits)
    return reduced.spectrum(params).roots


@pytest.mark.parametrize("n,k", [(100, 2), (10 ** 6, 2), (10 ** 12, 2), (4000, 3),
                                 (10 ** 5, 4), (1000, 8), (10 ** 6, 3), (100, 16)])
def test_roots_agree_with_80_digits(n, k, monkeypatch):
    # each root is good far beyond what theta*t needs over [0, 2*t_run]
    p = graph_params(n, k)
    roots, exact = (_roots_at(p, digits, monkeypatch) for digits in (40, 80))
    t_span = 2 * spectral.run_time(p).t_run
    with mpmath.workdps(80):
        assert max(abs(a - b) for a, b in zip(roots, exact)) * t_span <= 1e-25


@pytest.mark.parametrize("n,k", [(10 ** 12, 3), (10 ** 11, 4)])
def test_roots_beside_phases_of_tiny_weight(n, k, monkeypatch):
    # roots 3.5e-18 from the phase 0 and 5.4e-24 from -omega_2 (J(10^12, 3)),
    # 6.9e-22 from 0 and from -omega_2 and 2.7e-32 from -omega_1 (J(10^11, 4)):
    # without the start beside 0, or the restart from an iterate thrown past a
    # pole, Newton does not settle on them within the cap
    p = graph_params(n, k)
    roots, exact = (_roots_at(p, digits, monkeypatch) for digits in (40, 80))
    with mpmath.workdps(80):
        assert max(abs(a - b) for a, b in zip(roots, exact)) <= 1e-39


# evaluations of f per root: at most 16 (bisecting to a 2**-24 share of the
# pole distance before Newton takes 33-43 here); J(1000, 8) takes 4.2 with
# the poles deflated and 6.8 with plain Newton steps
@pytest.mark.parametrize("n,k,bound", [(100, 2, 16), (10 ** 4, 2, 16), (10 ** 6, 2, 16),
                                       (4000, 3, 16), (1000, 8, 5)])
def test_roots_cost_few_evaluations(n, k, bound, monkeypatch):
    # one evaluation of f is 2k+1 cotangents, each one mpmath.tan
    calls = []
    tan = mpmath.tan
    monkeypatch.setattr(mpmath, "tan", lambda x: calls.append(x) or tan(x))
    reduced.spectrum(graph_params(n, k))
    assert len(calls) / (2 * k + 1) ** 2 <= bound


def test_rotations_round_each_angle_once():
    # theta*t mod 2 pi to its two leading doubles, summed once in longdouble,
    # equals the exact reduction (150 digits hold theta*t exactly) bit for bit:
    # at a sweep's largest t on J(10^12, 2), on J(100, 16)'s 33 roots, tiny ones
    # among them, and at the 136-bit numbers beside pi, whose residues at even
    # t lie within t*1e-40 of 2 pi (below) or of 0 (above), where 2 pi rounded
    # without the 64-bit guard would show
    def ld(x):
        hi = float(x)
        return np.longdouble(hi) + np.longdouble(float(x - hi))

    cases = [(reduced.spectrum(graph_params(n, k)).roots, [0, 1, 4095, 10 ** 15])
             for n, k in [(4000, 3), (100, 16), (50, 1)]]
    p = graph_params(10 ** 12, 2)
    t_run = spectral.run_time(p).t_run
    cases.append((reduced.spectrum(p).roots, [2 * t_run - 1, 2 * t_run, 2 * t_run + 1]))
    with mpmath.workdps(spectral._MP_DPS):
        below = +mpmath.pi
    with mpmath.workdps(60):
        above = mpmath.ldexp(mpmath.ceil(mpmath.ldexp(mpmath.pi, 134)), -134)
    cases.append(((below, above), [10 ** 15, 10 ** 15 + 1, 2 * 10 ** 15]))
    for roots, times in cases:
        with mpmath.workdps(150):
            angles = [[ld(theta * t % (2 * mpmath.pi)) for theta in roots] for t in times]
        expected = np.exp(1j * np.array(angles))
        got = reduced._rotations(roots, times)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got.real, expected.real) and np.array_equal(got.imag, expected.imag)


def test_numpy_integer_times_match_python_ints():
    # a t from numpy arithmetic is reduced as the Python int it equals
    p = graph_params(100, 2)
    t_run = spectral.run_time(p).t_run
    assert reduced.sweep_point(p, np.int64(t_run)) == reduced.sweep_point(p, t_run)
    assert np.array_equal(_spectral_series(p, np.int64(1001), np.int64(7)),
                          _spectral_series(p, 1001, 7))


@pytest.mark.parametrize("n,k,stride", [(100, 2, 1), (100, 16, 1), (4000, 3, 1000)])
def test_tables_take_mpmath_work_per_root(n, k, stride, monkeypatch):
    # the 64 coarse and 64 fine rotations of a root are reduced in integers;
    # mpmath only rounds the amplitudes, a few operations per root
    spec = reduced.spectrum(graph_params(n, k))
    mpf = type(mpmath.mpf(1))
    calls = []
    for name in ("__add__", "__sub__", "__mul__", "__rmul__", "__mod__", "__float__"):
        method = getattr(mpf, name)
        monkeypatch.setattr(mpf, name, lambda *a, _m=method: calls.append(a) or _m(*a))
    reduced._tables(spec, stride)
    assert 0 < len(calls) <= 8 * len(spec.roots)


def test_norm_drift_over_one_million_steps():
    # the iterated reference keeps its norm over far more steps than it is run
    for state in orbit_walk.states(graph_params(100, 2), 10 ** 6):
        pass
    norm = float(np.sqrt(np.dot(state, state)))
    assert abs(norm - 1.0) <= 1e-12


# k = 1..8, from J(3, 1) (one block) to J(10^6, 2) (384 blocks of 4096 values)
WINDOWED = [(3, 1), (1000, 1), (10 ** 6, 1), (4, 2), (100, 2), (10 ** 4, 2), (10 ** 6, 2),
            (6, 3), (1000, 3), (10 ** 4, 3), (8, 4), (60, 4), (1000, 4), (100, 5),
            (50, 6), (100, 8)]


def _counting_blocks(monkeypatch):
    """Record the start of every block the shared evaluator computes."""
    starts = []
    evaluate = reduced._block

    def counted(spec, tables, start, count):
        starts.append(start)
        return evaluate(spec, tables, start, count)

    monkeypatch.setattr(reduced, "_block", counted)
    return starts


def _solve_once(monkeypatch, params):
    """Solve the instance's spectrum once for the whole test."""
    spec = reduced.spectrum(params)
    monkeypatch.setattr(reduced, "spectrum", lambda _: spec)
    return spec


def _two_term_bound_at(spec, t):
    """(|S(t)| + R)**2 from the amplitudes directly: S the two largest terms, R the rest."""
    ranked = sorted(zip(spec.amplitudes, spec.roots), key=lambda term: -abs(term[0]))
    head = abs(mpmath.fsum(a * mpmath.expj(theta * t) for a, theta in ranked[:2]))
    return (head + mpmath.fsum(abs(a) for a, _ in ranked[2:])) ** 2


@pytest.mark.parametrize("n,k", WINDOWED)
def test_sweep_window_equals_every_block(monkeypatch, n, k):
    # the window returns the bits of a scan of every block: p at t_run, the
    # first t of the maximum, and the maximum
    p = graph_params(n, k)
    t_run = spectral.run_time(p).t_run
    steps = max(1, 2 * t_run)
    _solve_once(monkeypatch, p)
    scanned = _spectral_series(p, steps)
    t_opt = int(np.argmax(scanned))
    expected = (float(scanned[t_run]), t_opt, float(scanned[t_opt]))
    assert reduced.sweep_point(p, t_run) == expected
    # a margin of 1 excludes nothing, so every block goes through the evaluator
    monkeypatch.setattr(reduced, "_MARGIN", 1)
    starts = _counting_blocks(monkeypatch)
    assert reduced.sweep_point(p, t_run) == expected
    assert sorted(starts) == list(range(0, steps + 1, arc_engine.CHUNK))


def test_sweep_window_evaluates_few_blocks(monkeypatch):
    # J(10^6, 2): its peak and t_run share one of 384 blocks
    p = graph_params(10 ** 6, 2)
    t_run = spectral.run_time(p).t_run
    starts = _counting_blocks(monkeypatch)
    reduced.sweep_point(p, t_run)
    assert 2 * t_run // arc_engine.CHUNK + 1 == 384
    assert 1 <= len(starts) <= 2 and len(set(starts)) == len(starts)


@pytest.mark.parametrize("n,k", [(10 ** 12, 2), (10 ** 6, 2), (10 ** 4, 3), (100, 8)])
def test_sweep_evaluates_every_block_of_the_window(monkeypatch, n, k):
    # each block that meets a window interval is evaluated, once and in order,
    # and besides those only the block of t_run and of the analytic peaks
    p = graph_params(n, k)
    t_run = spectral.run_time(p).t_run
    spec = _solve_once(monkeypatch, p)
    windows = []
    window = reduced._window

    def recorded(*args):
        windows.append(window(*args))
        return windows[-1]

    monkeypatch.setattr(reduced, "_window", recorded)
    starts = _counting_blocks(monkeypatch)
    reduced.sweep_point(p, t_run)
    (intervals,) = windows
    chunk = arc_engine.CHUNK
    met = {b for lo, hi in intervals for b in range(lo // chunk, hi // chunk + 1)}
    bound = reduced._two_term_bound(spec)
    seeds = {t // chunk for t in [t_run, *reduced._peak_times(bound, max(1, 2 * t_run))]}
    blocks = [s // chunk for s in starts]
    assert len(set(blocks)) == len(blocks)
    # the seeds are evaluated first, then every block in increasing order
    assert set(blocks) == met | seeds
    assert blocks[len(seeds):] == sorted(met - seeds)


def test_sweep_refuses_a_window_beyond_the_block_cap(monkeypatch):
    # J(10^12, 3)'s window spans 190,107,929 blocks, hours of evaluation: it is
    # refused once its seed blocks, t_run's and the analytic peaks', are
    # evaluated, and before any other
    p = graph_params(10 ** 12, 3)
    t_run = spectral.run_time(p).t_run
    spec = _solve_once(monkeypatch, p)
    bound = reduced._two_term_bound(spec)
    chunk = arc_engine.CHUNK
    seeds = {t // chunk for t in [t_run, *reduced._peak_times(bound, 2 * t_run)]}
    starts = _counting_blocks(monkeypatch)
    with pytest.raises(CapacityError, match=r"needs 190107929 blocks .* above the 1048576 allowed"):
        reduced.sweep_point(p, t_run)
    assert sorted(starts) == sorted(chunk * b for b in seeds)


@pytest.mark.parametrize("n,k", [(10 ** 12, 2), (10 ** 6, 2), (10 ** 4, 3), (1000, 4), (100, 8)])
def test_sweep_window_is_the_bound_level_set(monkeypatch, n, k):
    # the window's intervals are exactly the whole t at which the two-term
    # bound reaches p_best - 2**-40: it holds at both ends of each interval
    # and fails one step outside
    p = graph_params(n, k)
    t_run = spectral.run_time(p).t_run
    steps = 2 * t_run
    spec = _solve_once(monkeypatch, p)
    _, _, p_max = reduced.sweep_point(p, t_run)
    intervals = reduced._window(reduced._two_term_bound(spec), p_max, steps)
    assert intervals and all(lo <= hi for lo, hi in intervals)
    with mpmath.workdps(spectral._MP_DPS):
        level = mpmath.mpf(p_max) - mpmath.mpf(2) ** -40
        for lo, hi in intervals:
            assert _two_term_bound_at(spec, lo) >= level
            assert _two_term_bound_at(spec, hi) >= level
            if lo > 0:
                assert _two_term_bound_at(spec, lo - 1) < level
            if hi < steps:
                assert _two_term_bound_at(spec, hi + 1) < level


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2)])
def test_window_covers_every_t_when_the_bound_excludes_nothing(n, k):
    # J(3, 1) and J(4, 2), where R is about 0.2: with p_best at or below
    # R**2 + 2**-40, sqrt(p_best - margin) <= R and the window is every t,
    # in order, over many periods of |S|
    bound = reduced._two_term_bound(reduced.spectrum(graph_params(n, k)))
    assert bound.rest > 0.1
    steps = 10 ** 4
    with mpmath.workdps(spectral._MP_DPS):
        at_rest = float(bound.rest ** 2 + mpmath.mpf(2) ** -40)
    for p_best in (at_rest, at_rest / 2):
        intervals = reduced._window(bound, p_best, steps)
        assert len(intervals) > 1
        covered = [t for lo, hi in intervals for t in range(lo, hi + 1)]
        assert covered == list(range(steps + 1))


@pytest.mark.parametrize("n,k", [(10 ** 12, 2), (10 ** 5, 4)])
def test_sweep_window_beyond_the_scan_against_60_digits(monkeypatch, n, k):
    # J(10^12, 2) (383,495,197 blocks) and J(10^5, 4) (1,107,056 blocks): p at
    # t_run and at t_opt equal a 60-digit evaluation to 1e-15
    p = graph_params(n, k)
    t_run = spectral.run_time(p).t_run
    p_run, t_opt, p_max = reduced.sweep_point(p, t_run)
    assert abs(t_opt - t_run) <= t_run // 100 and p_run <= p_max
    monkeypatch.setattr(spectral, "_MP_DPS", 60)
    spec = reduced.spectrum(p)
    with mpmath.workdps(60):
        for t, got in [(t_run, p_run), (t_opt, p_max)]:
            exact = abs(mpmath.fsum(a * mpmath.expj(theta * t)
                                    for theta, a in zip(spec.roots, spec.amplitudes))) ** 2
            assert abs(got - float(exact)) <= 1e-15
