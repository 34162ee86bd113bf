"""Closed-form spectrum against brute-force eigendecomposition."""

import math
from fractions import Fraction
from itertools import combinations
from math import factorial

import mpmath
import numpy as np
import pytest

from eigenphases import eigenphases, verify_eigenphase_asymptotics
from jwalk import spectral
from jwalk.errors import DegenerateInstanceError
from jwalk.johnson import GraphParams, graph_params


def brute_adjacency(n, k):
    """Adjacency matrix built directly from subset arithmetic."""
    subsets = list(combinations(range(1, n + 1), k))
    size = len(subsets)
    adj = np.zeros((size, size))
    for i, u in enumerate(subsets):
        for j, v in enumerate(subsets):
            if i != j and len(set(u) & set(v)) == k - 1:
                adj[i, j] = 1.0
    return adj, subsets


def brute_spectrum(n, k, marked_index=0):
    """(eigenvalues, eigenvectors, subsets) grouped against the closed form."""
    adj, subsets = brute_adjacency(n, k)
    eigvals, eigvecs = np.linalg.eigh(adj)
    return eigvals, eigvecs, subsets


SMALL_INSTANCES = [(4, 2), (5, 2), (6, 2), (6, 3), (8, 4), (10, 3)]


@pytest.mark.parametrize("n,k", SMALL_INSTANCES)
def test_eigenvalues_and_multiplicities_vs_dense(n, k):
    p = graph_params(n, k)
    closed = np.array([spectral.eigenvalue(p, l) for l in range(k + 1)], dtype=float)
    eigvals, _, _ = brute_spectrum(n, k)
    assign = np.abs(eigvals[:, None] - closed[None, :]).argmin(axis=1)
    assert np.abs(eigvals - closed[assign]).max() <= 1e-8
    counts = np.bincount(assign, minlength=k + 1)
    expected = [spectral.multiplicity(p, l) for l in range(k + 1)]
    assert counts.tolist() == expected


def test_eigenvalue_examples():
    p = graph_params(4, 2)
    assert [spectral.eigenvalue(p, l) for l in range(3)] == [4, 0, -2]
    p = graph_params(6, 2)
    assert [spectral.eigenvalue(p, l) for l in range(3)] == [8, 2, -2]


@pytest.mark.parametrize("n,k", SMALL_INSTANCES + [(40, 5), (1000, 2)])
def test_eigenvalue_top_is_degree_and_decreasing(n, k):
    p = graph_params(n, k)
    values = [spectral.eigenvalue(p, l) for l in range(k + 1)]
    assert values[0] == p.degree
    assert all(values[l] > values[l + 1] for l in range(k))
    assert values[k] > -p.degree


def test_multiplicity_examples_and_sum():
    p = graph_params(6, 2)
    assert [spectral.multiplicity(p, l) for l in range(3)] == [1, 5, 9]
    p = graph_params(4, 2)
    assert [spectral.multiplicity(p, l) for l in range(3)] == [1, 3, 2]
    for n, k in SMALL_INSTANCES + [(30, 6)]:
        p = graph_params(n, k)
        assert sum(spectral.multiplicity(p, l) for l in range(k + 1)) == p.num_vertices
        assert spectral.multiplicity(p, 0) == 1


def test_level_range_errors():
    p = graph_params(6, 2)
    for fn in (spectral.eigenvalue, spectral.multiplicity,
               spectral.projector_weight, spectral.eigenphase):
        with pytest.raises(ValueError):
            fn(p, 3)
        with pytest.raises(ValueError):
            fn(p, -1)


def test_projector_weight_examples():
    p = graph_params(6, 2)
    exact = [spectral.projector_weight_exact(p, l) for l in range(3)]
    assert exact == [Fraction(1, 15), Fraction(1, 3), Fraction(3, 5)]
    p = graph_params(4, 2)
    exact = [spectral.projector_weight_exact(p, l) for l in range(3)]
    assert exact == [Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)]


@pytest.mark.parametrize("n,k", SMALL_INSTANCES)
def test_projector_weight_vs_dense(n, k):
    p = graph_params(n, k)
    closed = np.array([spectral.eigenvalue(p, l) for l in range(k + 1)], dtype=float)
    eigvals, eigvecs, _ = brute_spectrum(n, k)
    assign = np.abs(eigvals[:, None] - closed[None, :]).argmin(axis=1)
    marked_row = eigvecs[0, :]
    for l in range(k + 1):
        dense_weight = float(np.sum(marked_row[assign == l] ** 2))
        assert dense_weight == pytest.approx(spectral.projector_weight(p, l), abs=1e-9)


def test_projector_weight_closed_forms_agree_exactly():
    # multiplicity/N equals the factorial ratio k!(n-k)!(n-2l+1) / (l!(n-l+1)!)
    # identically, up to n = 1e6: literally where the factorials are small,
    # and everywhere with (n-k)!/(n-l+1)! telescoped to keep operands small
    for k in range(1, 7):
        for n in (2 * k, 2 * k + 1, 37, 104, 12345, 10 ** 6):
            if n < 2 * k or (n, k) == (2, 1):
                continue
            p = graph_params(n, k)
            for l in range(k + 1):
                got = spectral.projector_weight_exact(p, l)
                denominator = factorial(l)
                for j in range(n - k + 1, n - l + 2):
                    denominator *= j
                assert got == Fraction(factorial(k) * (n - 2 * l + 1), denominator)
                if n <= 200:
                    assert got == Fraction(
                        factorial(k) * factorial(n - k) * (n - 2 * l + 1),
                        factorial(l) * factorial(n - l + 1))


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("n", [13, 104, 12345, 10 ** 6])
def test_projector_weights_sum_to_one(k, n):
    if n < 2 * k:
        return
    p = graph_params(n, k)
    total = sum(spectral.projector_weight(p, l) for l in range(k + 1))
    assert abs(total - 1.0) <= 1e-14


def test_eigenphase_examples():
    p = graph_params(4, 2)
    assert spectral.eigenphase(p, 1) == pytest.approx(math.pi / 2, abs=1e-15)
    assert spectral.eigenphase(p, 2) == pytest.approx(2 * math.pi / 3, abs=1e-15)
    p = graph_params(6, 2)
    assert spectral.eigenphase(p, 1) == pytest.approx(math.acos(0.25), abs=1e-15)


@pytest.mark.parametrize("n,k", SMALL_INSTANCES + [(2000, 3)])
def test_eigenphase_in_open_interval(n, k):
    p = graph_params(n, k)
    for l in range(1, k + 1):
        assert 0.0 < spectral.eigenphase(p, l) < math.pi
        assert -1.0 < spectral.eigenvalue(p, l) / p.degree < 1.0


def test_eigenphase_degenerate_guard():
    # hand-built record of the refused K2 instance
    k2 = GraphParams(n=2, k=1, num_vertices=2, degree=1, num_arcs=2)
    with pytest.raises(DegenerateInstanceError):
        spectral.eigenphase(k2, 1)


@pytest.mark.parametrize("n,k,expected", [
    (100, 2, 78), (100, 3, 453), (4, 2, 3), (400, 2, 314), (1600, 2, 1256),
])
def test_run_time_examples(n, k, expected):
    assert spectral.run_time(graph_params(n, k)).t_run == expected


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_run_time_non_decreasing_in_n(k):
    last = -1
    for n in range(max(3, 2 * k), 2 * k + 60):
        t = spectral.run_time(graph_params(n, k)).t_run
        assert t >= last
        last = t


def test_schedule_fields():
    sched = spectral.run_time(graph_params(100, 2))
    assert sched.epsilon == pytest.approx(0.1, abs=1e-16)
    assert sched.target_phase == 0.02
    sched = spectral.run_time(graph_params(81, 3))
    assert sched.target_phase == pytest.approx(math.sqrt(12.0) * 81 ** -1.5, rel=1e-14)


def _grid():
    # every k = 1..16, n from 2k to 10^12: the smallest n, n = 2^i 3^j 7^q
    # spread over the range, and 1769, the smallest n whose n ** -0.5 is not
    # 1/sqrt(n) rounded once
    spread = sorted({2 ** i * 3 ** j * 7 ** q for i in range(0, 41, 5)
                     for j in range(0, 26, 5) for q in range(0, 15, 7)} | {1769})
    for k in range(1, 17):
        for n in [2 * k, 2 * k + 1] + [n for n in spread if 2 * k + 1 < n <= 10 ** 12]:
            if (n, k) != (2, 1):
                yield graph_params(n, k)


def test_spectral_floats_are_rounded_once():
    # each equals its 60-digit value rounded once to double, the leading
    # phase from sqrt(2 k!) n**(-k/2), not from the schedule's pi / (2 x)
    with mpmath.workdps(60):
        for p in _grid():
            for l in range(1, p.k + 1):
                want = float(mpmath.acos(mpmath.mpf(spectral.eigenvalue(p, l)) / p.degree))
                assert spectral.eigenphase(p, l) == want, (p.n, p.k, l)
            schedule = spectral.run_time(p)
            want = float(mpmath.sqrt(2 * mpmath.factorial(p.k) / mpmath.mpf(p.n) ** p.k))
            assert schedule.target_phase == want, (p.n, p.k)
            assert schedule.epsilon == float(1 / mpmath.sqrt(p.n)), p.n


def test_run_time_is_the_exact_floor():
    # floor(pi * sqrt(n**k / (8 k!))) at 60 digits beyond n**k's own, on the
    # grid and on instances whose schedule 40 digits floored wrongly
    extra = [graph_params(10 ** 12, 8), graph_params(10 ** 9, 10), graph_params(10 ** 12, 7)]
    for p in [*_grid(), *extra]:
        power = p.n ** p.k
        with mpmath.workdps(60 + 2 * len(str(power))):
            x = mpmath.pi * mpmath.sqrt(mpmath.mpf(power) / (8 * mpmath.factorial(p.k)))
            assert spectral.run_time(p).t_run == int(mpmath.floor(x)), (p.n, p.k)
    assert spectral.run_time(extra[0]).t_run == 5531521662094300946645282502236970939476829154


def test_pi_bracket_holds_pi():
    for bits in (0, 1, 53, 200, 3000):
        lo, hi = spectral._pi_bracket(bits)
        with mpmath.workdps(bits // 3 + 30):
            scaled = mpmath.pi * mpmath.mpf(2) ** bits
            assert lo < scaled < hi and hi - lo <= 4, bits


def test_run_time_raises_bits_until_the_floors_agree(monkeypatch):
    # a bracket too wide to decide the floor is refined, not taken
    p = graph_params(10 ** 12, 8)
    exact = spectral.run_time(p).t_run
    widths = []
    original = spectral._pi_bracket

    def wide_first(bits):
        lo, hi = original(bits)
        widths.append(bits)
        return (lo - (1 << bits), hi) if len(widths) == 1 else (lo, hi)

    monkeypatch.setattr(spectral, "_pi_bracket", wide_first)
    assert spectral.run_time(p).t_run == exact
    assert len(widths) == 2 and widths[1] > widths[0]


def test_verify_eigenphase_asymptotics_reports():
    p = graph_params(100, 2)
    report = verify_eigenphase_asymptotics(p, eigenphases(p))
    assert report.target_phase == pytest.approx(0.02, rel=1e-14)
    assert abs(report.theta_min - report.target_phase) <= 0.5 * report.target_phase
    assert report.relative_error == pytest.approx(
        abs(report.theta_min - 0.02) / 0.02, rel=1e-12)


def test_verify_eigenphase_error_decay():
    errors = {}
    for n in (400, 1600):
        p = graph_params(n, 2)
        errors[n] = verify_eigenphase_asymptotics(
            p, eigenphases(p)).relative_error
    assert errors[1600] <= 0.5 * errors[400]


def test_verify_eigenphase_cutoff_and_failure():
    p = graph_params(100, 2)
    report = verify_eigenphase_asymptotics(p, [1e-12, 0.5, -0.5])
    assert report.theta_min == 0.5  # numerically-zero phase excluded
    with pytest.raises(ValueError, match="no positive eigenphase"):
        verify_eigenphase_asymptotics(p, [-0.3, 1e-13])


def test_spectral_table_shape():
    p = graph_params(6, 2)
    rows = spectral.spectral_table(p)
    assert [r.eigenvalue for r in rows] == [8, 2, -2]
    assert [r.multiplicity for r in rows] == [1, 5, 9]
    assert [r.shell for r in rows] == [1, 8, 6]
    assert rows[0].phase is None and rows[1].phase is not None
    assert [(r.a, r.b, r.c) for r in rows] == [(0, 8, 0), (4, 3, 1), (4, 0, 4)]
