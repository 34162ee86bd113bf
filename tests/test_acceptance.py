"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not calibrated at runtime; regression
constants were pinned from the first computation of each derived value.
"""

import time

import numpy as np
import pytest

from chunked import gather
from eigenphases import eigenphases, verify_eigenphase_asymptotics
from jwalk import arc_engine, reduced, spectral, validation
from jwalk.johnson import graph_params, intersection_numbers, pair_vertex_table
from test_spectral import brute_adjacency

# pinned first-run values of the reduced engine (x86-64, extended precision)
P_SUCC_K2 = {
    100: 0.5054836274650057,
    400: 0.5012522380290787,
    1600: 0.5003127217348841,
    6400: 0.5000782178005411,
}

# pinned first-run peaks p_max of the windowed sweep over [0, 2*t_run],
# two instances per diameter k = 1..8, each solvable at 40 digits
P_MAX_BY_K = {
    1: {10 ** 5: 0.5022330879700623, 10 ** 7: 0.5002236309244632},
    2: {10 ** 9: 0.5000000005, 10 ** 12: 0.5000000000005},
    3: {10 ** 4: 0.4999767136496386, 10 ** 6: 0.4999997517301797},
    4: {10 ** 4: 0.4999833568653018, 10 ** 5: 0.4999983335686344},
    5: {1000: 0.4998743538009916, 10 ** 4: 0.49998749191387243},
    6: {200: 0.49948212980175444, 1000: 0.49989923268057046},
    7: {100: 0.49909328365686945, 1000: 0.49991594239294906},
    8: {100: 0.49921202382009816, 1000: 0.49992788465440086},
}


def _line(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_asymptotic_success_probability():
    # k=2: |p(t_run) - 1/2| decreasing across n = 100..6400, halving from
    # n=400 to n=6400, and small in absolute terms at n=6400
    start = time.perf_counter()
    deviation = {}
    for n, pinned in P_SUCC_K2.items():
        p = graph_params(n, 2)
        t_run = spectral.run_time(p).t_run
        p_succ = float(gather(reduced.evolve_series(p, t_run)).p_succ[-1])
        assert p_succ == pytest.approx(pinned, abs=1e-9), f"regression at n={n}"
        deviation[n] = abs(p_succ - 0.5)
    elapsed = time.perf_counter() - start

    monotone = (deviation[100] > deviation[400] > deviation[1600] > deviation[6400])
    halving = deviation[6400] <= 0.5 * deviation[400]
    small = deviation[6400] <= 0.05
    fast = elapsed < 1.0
    _line(1, monotone and halving and small and fast,
          f"|p-1/2| = {deviation[100]:.2e} > {deviation[400]:.2e} > "
          f"{deviation[1600]:.2e} > {deviation[6400]:.2e}; {elapsed:.2f}s")
    assert monotone and halving and small
    assert fast


def test_criterion_1_every_fixed_diameter():
    # k = 1..8: the peak success probability over [0, 2*t_run] nears 1/2,
    # |p_max - 1/2| shrinks from the smaller n to the larger and is at most
    # 1e-3 at the larger
    start = time.perf_counter()
    gaps = {}
    for k, pinned in P_MAX_BY_K.items():
        gaps[k] = []
        for n, p_pinned in pinned.items():
            p = graph_params(n, k)
            _, _, p_max = reduced.sweep_point(p, spectral.run_time(p).t_run)
            assert p_max == pytest.approx(p_pinned, abs=1e-9), f"regression at J({n},{k})"
            gaps[k].append(abs(p_max - 0.5))
    elapsed = time.perf_counter() - start

    shrinking = all(small > large for small, large in gaps.values())
    close = all(large <= 1e-3 for _, large in gaps.values())
    fast = elapsed < 5.0
    _line("1b", shrinking and close and fast,
          "|p_max-1/2| " + ", ".join(f"k={k}: {small:.1e} > {large:.1e}"
                                     for k, (small, large) in gaps.items())
          + f"; {elapsed:.2f}s")
    assert shrinking and close
    assert fast


def test_criterion_2_cross_engine_exactness():
    start = time.perf_counter()
    worst = 0.0
    for n, k in [(8, 2), (9, 3), (10, 4)]:
        p = graph_params(n, k)
        t_run = spectral.run_time(p).t_run
        steps = 2 * t_run
        full = gather(arc_engine.evolve_and_record(p, 0, steps))
        small = gather(reduced.evolve_series(p, steps))
        assert len(full.t) == len(small.t) == steps + 1
        worst = max(worst, float(np.abs(full.p_succ - small.p_succ).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    _line(2, ok, f"max pointwise |p_full - p_reduced| = {worst:.2e}; {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_3_eigenbasis_certification():
    start = time.perf_counter()
    worst = {"basis_gram": 0.0, "walk_eigenrelation": 0.0, "reduced_compression": 0.0}
    for n, k in [(4, 2), (5, 2), (6, 2)]:
        p = graph_params(n, k)
        basis = validation.build_invariant_basis(p, marked=0)
        blocks = validation._step_blocks(p.degree)
        res = validation.verify_eigenbasis(basis, (pair_vertex_table(p), basis.slots))
        image = validation._step_basis(basis, blocks)
        res.update(validation.verify_reduced_compression(
            basis.basis.conj().T @ image, validation._reduced_step(p)[0]))
        for key in worst:
            # np.max keeps a NaN residual, which Python's max drops after the first
            worst[key] = float(np.max([worst[key], res[key]]))
    elapsed = time.perf_counter() - start
    ok = all(v <= 1e-10 for v in worst.values()) and elapsed < 10.0
    _line(3, ok, f"gram {worst['basis_gram']:.2e}, eigenrelation "
                 f"{worst['walk_eigenrelation']:.2e}, compression "
                 f"{worst['reduced_compression']:.2e}; {elapsed:.2f}s")
    for key, value in worst.items():
        assert value <= 1e-10, key
    assert elapsed < 10.0


def test_criterion_4_spectral_closed_forms():
    worst_lambda, worst_weight = 0.0, 0.0
    for n, k in [(6, 2), (6, 3), (8, 4)]:
        p = graph_params(n, k)
        eigvals, eigvecs = np.linalg.eigh(brute_adjacency(n, k)[0])
        closed = np.array([spectral.eigenvalue(p, l) for l in range(k + 1)],
                          dtype=float)
        assign = np.abs(eigvals[:, None] - closed[None, :]).argmin(axis=1)
        worst_lambda = max(worst_lambda, np.abs(eigvals - closed[assign]).max())
        counts = np.bincount(assign, minlength=k + 1).tolist()
        assert counts == [spectral.multiplicity(p, l) for l in range(k + 1)]
        row = eigvecs[0, :]
        for l in range(k + 1):
            dense_weight = float(np.sum(row[assign == l] ** 2))
            by_multiplicity = spectral.multiplicity(p, l) / p.num_vertices
            exact = spectral.projector_weight(p, l)  # factorial form (checked equal)
            worst_weight = max(worst_weight,
                               abs(dense_weight - by_multiplicity),
                               abs(dense_weight - exact))
    ok = worst_lambda <= 1e-8 and worst_weight <= 1e-9
    _line(4, ok, f"eigenvalue residual {worst_lambda:.2e}, multiplicities exact, "
                 f"projector weight residual {worst_weight:.2e}")
    assert worst_lambda <= 1e-8
    assert worst_weight <= 1e-9


def test_criterion_5_eigenphase_asymptotics():
    start = time.perf_counter()
    errors = {}
    for n in (100, 400, 1600):
        p = graph_params(n, 2)
        phases = eigenphases(p)
        report = verify_eigenphase_asymptotics(p, phases)
        # target_phase = 2/n for k=2, so relative error is |theta*n/2 - 1|
        errors[n] = report.relative_error
    elapsed = time.perf_counter() - start
    near = errors[100] <= 0.35
    decay = errors[1600] <= 0.5 * errors[400]
    fast = elapsed < 1.0
    _line(5, near and decay and fast,
          f"|theta*n/2 - 1| = {errors[100]:.2e} (n=100), {errors[400]:.2e} (n=400), "
          f"{errors[1600]:.2e} (n=1600); {elapsed:.2f}s")
    assert near and decay
    assert fast


def test_criterion_6_conservation_and_symmetry():
    # norm drift on J(10,3) over 2*t_run
    p = graph_params(10, 3)
    steps = 2 * spectral.run_time(p).t_run
    rows = gather(arc_engine.evolve_and_record(p, 0, steps))
    drift = float(np.abs(rows.norm - 1.0).max())

    # marked-vertex invariance on J(8,2)
    p8 = graph_params(8, 2)
    series = []
    for marked in (0, 9, 27):
        got = gather(arc_engine.evolve_and_record(p8, marked, 80))
        series.append(got.p_succ)
    invariance = max(np.abs(s - series[0]).max() for s in series[1:])

    # projector weights sum to 1 and intersection rows sum to the degree
    weight_gap = 0.0
    for k in range(1, 7):
        for n in (2 * k, 2 * k + 1, 37, 104, 12345, 10 ** 6):
            if n < 2 * k or (n, k) == (2, 1):
                continue
            params = graph_params(n, k)
            total = sum(spectral.projector_weight(params, l) for l in range(k + 1))
            weight_gap = max(weight_gap, abs(total - 1.0))
            for l in range(k + 1):
                row = intersection_numbers(params, l)
                assert row.a + row.b + row.c == params.degree

    ok = drift <= 1e-10 and invariance <= 1e-12 and weight_gap <= 1e-14
    _line(6, ok, f"norm drift {drift:.2e}, marked invariance {invariance:.2e}, "
                 f"weight sum gap {weight_gap:.2e}, intersection sums exact")
    assert drift <= 1e-10
    assert invariance <= 1e-12
    assert weight_gap <= 1e-14


def test_criterion_7_probability_definition_diagnostic():
    # both probability series are emitted; the tail-or-head diagnostic
    # dominates pointwise and peaks near twice the proper success peak
    summary = []
    for n in (15, 21):
        p = graph_params(n, 3)
        steps = 2 * spectral.run_time(p).t_run
        rows = gather(arc_engine.evolve_and_record(p, 0, steps))
        assert rows.p_alt is not None
        assert np.all(rows.p_alt >= rows.p_succ)
        peak = float(rows.p_succ.max())
        peak_alt = float(rows.p_alt.max())
        summary.append(f"J({n},3): peak p_succ={peak:.4f}, peak p_alt={peak_alt:.4f} "
                       f"(ratio {peak_alt / peak:.2f})")
    _line(7, True, "; ".join(summary) + " [band reported, not asserted]")
