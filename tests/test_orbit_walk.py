"""The arc-class walk, certified against the full engine it stands in for."""

import numpy as np
import pytest

import flat_layout as flat
import orbit_walk
from jwalk import arc_engine, spectral, validation
from jwalk.johnson import graph_params, intersection_numbers, pair_vertex_table, shell_size


def _pair_loop(params, marked, steps):
    """Yield ψ_t in flat order for t = 0..steps, from the engine's paired loop.

    The passes are those of ``arc_engine.evolve_and_record``; at odd t the
    pair state holds S·ψ_t, so it is read back through the shift.
    """
    state = arc_engine.uniform_state(params)
    vertices = pair_vertex_table(params)
    for t in range(steps + 1):
        axis = 0 if t % 2 else 1
        yield flat.shifted_to_flat(params, state) if t % 2 else flat.to_flat(params, state)
        if t < steps:
            arc_engine.apply_coin(params, arc_engine.apply_oracle(params, state, marked, axis),
                                  vertices, axis)


def _class_vectors(params, marked):
    """The unit vector of each arc class, from the invariant basis's indicators."""
    basis = validation.build_invariant_basis(params, marked)
    tails = np.arange(params.num_arcs) // params.degree
    heads = basis.opposite // params.degree
    shells = basis.shell_indicators
    indicators = [shells[i][tails] * shells[j][heads] for i, j in orbit_walk.classes(params)]
    return np.array([v / np.sqrt(v.sum()) for v in indicators])


@pytest.mark.parametrize("n,k", [(7, 1), (8, 2), (9, 3), (10, 4), (10, 5)])
def test_orbit_walk_is_the_lumped_arc_engine(n, k):
    # the pair loop's state, lumped onto the classes, is the orbit walk's
    # state at every t over 2*t_run, and nothing of it lies outside their span
    p = graph_params(n, k)
    marked = p.num_vertices // 2
    steps = 2 * spectral.run_time(p).t_run
    vectors = _class_vectors(p, marked)
    worst = []
    for psi, state in zip(_pair_loop(p, marked, steps), orbit_walk.states(p, steps)):
        coords = vectors @ psi
        worst.append(np.abs(coords - state.astype(float)).max())
        worst.append(np.linalg.norm(psi - coords @ vectors))
    assert len(worst) == 2 * (steps + 1)
    assert np.max(worst) <= 1e-12


@pytest.mark.parametrize("n,k", [(3, 1), (7, 1), (4, 2), (8, 2), (9, 3), (10, 5), (16, 8),
                                 (10 ** 6, 6)])
def test_classes_and_start(n, k):
    # 3k classes, or 3k - 1 at n = 2k where a_k = 0; the shift pairs classes
    # of equal size; the start is a unit vector with p(0) = 1/N
    p = graph_params(n, k)
    classes = orbit_walk.classes(p)
    assert len(classes) == 3 * k - (n == 2 * k)
    assert classes[0] == (0, 1) and set(classes) == {(j, i) for i, j in classes}
    for i in range(k):
        assert shell_size(p, i) * intersection_numbers(p, i).b \
            == shell_size(p, i + 1) * intersection_numbers(p, i + 1).c
    start = orbit_walk.start(p)
    assert abs(float(np.dot(start, start)) - 1.0) <= 1e-15
    assert float(start[0] ** 2) == pytest.approx(1.0 / p.num_vertices, rel=1e-15)
