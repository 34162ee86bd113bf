"""Full arc-space engine: operator identities, closed form, cross-engine."""

import math
import tracemalloc
import weakref
from math import comb

import numpy as np
import pytest

import dense_step as dense
import flat_layout as flat
from chunked import gather
from jwalk import arc_engine, reduced, spectral, validation
from jwalk.errors import CapacityError
from jwalk.johnson import arc_pair_slots, graph_params, pair_vertex_table


def random_states(params, count, seed=7):
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((count, params.num_arcs))
    return states / np.linalg.norm(states, axis=1)[:, None]


def test_uniform_state_values():
    p = graph_params(4, 2)
    state = arc_engine.uniform_state(p)
    assert state.dtype == np.float64 and state.shape == flat.pair_shape(p)
    assert np.array_equal(flat.to_flat(p, state), np.full(24, 1.0 / np.sqrt(24)))
    assert not _diagonal_bits(state).any()  # the x = y slots are no arcs
    p = graph_params(10, 3)
    assert abs(arc_engine.state_norm(arc_engine.uniform_state(p)) - 1.0) <= 1e-15


def test_uniform_state_is_stationary_basis_vector():
    # overlap with the explicitly built stationary eigenvector
    p = graph_params(5, 2)
    basis = validation.build_invariant_basis(p, marked=0)
    overlap = np.vdot(basis.coords[basis.classes, 0],
                      flat.to_flat(p, arc_engine.uniform_state(p)))
    assert abs(overlap - 1.0) <= 1e-10


def test_capacity_refusal(monkeypatch):
    # one rule: the bytes against MemAvailable, and where that cannot be
    # read, against 2^23 words
    p = graph_params(40, 4)  # 13,160,160 amplitudes, about 126 MB
    needed = _capacity_model(p)
    for available in (needed - 1, 2 ** 20):
        monkeypatch.setattr(arc_engine, "_mem_available", lambda: available)
        with pytest.raises(CapacityError, match="available memory.*reduced engine"):
            arc_engine.uniform_state(p)
    monkeypatch.setattr(arc_engine, "_mem_available", lambda: None)  # unreadable
    assert p.num_arcs > 2 ** 23
    with pytest.raises(CapacityError, match="cannot be read.*reduced engine"):
        arc_engine.uniform_state(p)
    # J(60,6) has over 2^31 amplitudes, about 147 GB: the byte rule refuses it
    huge = graph_params(60, 6)
    assert huge.num_arcs > 2 ** 31
    monkeypatch.setattr(arc_engine, "_mem_available", lambda: 2 ** 36)  # 64 GiB
    with pytest.raises(CapacityError, match="available memory"):
        arc_engine.uniform_state(huge)
    with pytest.raises(CapacityError, match="available memory"):
        arc_engine.evolve_and_record(huge, 0, 0)


def _coin(params, state, axis=1):
    return arc_engine.apply_coin(params, state, pair_vertex_table(params), axis)


def _step(params, state, marked=None):
    """One step S·C·O of a pair state, in flat order: S is the swap of x and y."""
    if marked is not None:
        arc_engine.apply_oracle(params, state, marked)
    return flat.shifted_to_flat(params, _coin(params, state))


def test_coin_block_example():
    p = graph_params(4, 2)  # degree 4
    state = np.zeros(p.num_arcs)
    state[0] = 1.0
    out = flat.to_flat(p, _coin(p, flat.to_pair(p, state)))
    assert np.allclose(out[:4], [-0.5, 0.5, 0.5, 0.5], atol=1e-15)
    assert np.all(out[4:] == 0)


def test_coin_fixes_uniform():
    p = graph_params(6, 2)
    state = arc_engine.uniform_state(p)
    assert np.allclose(_coin(p, state.copy()), state, atol=1e-15)


def test_coin_involution_on_random_states():
    p = graph_params(6, 2)
    for state in flat.to_pair(p, random_states(p, 100)):
        twice = _coin(p, _coin(p, state.copy()))
        assert np.abs(twice - state).max() <= 1e-12


def test_shift_is_exact_permutation_involution():
    # S is the swap of x and y, which sends every arc to the slot of its
    # reverse: the permutation ``arc_pair_slots`` pairs the arcs with
    p = graph_params(6, 2)
    opp = arc_pair_slots(p)[1]
    assert np.array_equal(opp[opp], np.arange(p.num_arcs))
    state = random_states(p, 1)[0]
    pair = flat.to_pair(p, state)
    shifted = flat.shifted_to_flat(p, pair)
    assert np.array_equal(shifted, state[opp])
    assert np.array_equal(flat.shifted_to_flat(p, flat.to_pair(p, shifted)), state)
    uniform = arc_engine.uniform_state(p)
    assert np.array_equal(uniform.transpose(1, 0, 2), uniform)


def test_shift_single_arc():
    p = graph_params(4, 2)
    state = np.zeros(p.num_arcs)
    state[5] = 1.0
    out = flat.shifted_to_flat(p, flat.to_pair(p, state))
    expected = np.zeros(p.num_arcs)
    expected[flat.opposite(p)[5]] = 1.0
    assert np.array_equal(out, expected)


def test_oracle_reflects_marked_superposition():
    p = graph_params(6, 2)
    d = p.degree
    marked = 3
    target = np.zeros(p.num_arcs)
    target[marked * d:(marked + 1) * d] = 1.0 / np.sqrt(d)
    out = arc_engine.apply_oracle(p, flat.to_pair(p, target), marked)
    assert np.abs(flat.to_flat(p, out) + target).max() <= 1e-15


def test_oracle_fixes_orthogonal_states_bitwise():
    p = graph_params(6, 2)
    marked = 0
    state = random_states(p, 1)[0].copy()
    # make the marked block exactly zero-mean: pair +x with -x
    d = p.degree
    state[:d] = 0.0
    state[0], state[1] = 0.25, -0.25
    pair = flat.to_pair(p, state)
    out = arc_engine.apply_oracle(p, pair.copy(), marked)
    assert np.array_equal(out, pair)


def test_oracle_changes_only_marked_block():
    p = graph_params(6, 2)
    marked = 5
    state = random_states(p, 1)[0]
    out = flat.to_flat(p, arc_engine.apply_oracle(p, flat.to_pair(p, state), marked))
    d = p.degree
    mask = np.ones(p.num_arcs, dtype=bool)
    mask[marked * d:(marked + 1) * d] = False
    assert np.array_equal(out[mask], state[mask])
    assert not np.array_equal(out[~mask], state[~mask])


def _pair_slots(params):
    m = params.n - params.k + 1
    return comb(params.n, params.k - 1) * m * m


def test_unreadable_memory_counts_the_vertex_tables(monkeypatch):
    # where /proc/meminfo cannot be read, the same bytes are held against
    # 2^23 words: J(36,4)'s 7,539,840 amplitudes are within it, but its pair
    # state and six words per k·N, 9,189,180 words, are not; both calls
    # refuse before the walk is allocated
    p = graph_params(36, 4)
    assert p.num_arcs == 7539840 < arc_engine._UNMEASURED_CAPACITY
    assert _capacity_model(p) == 8 * 9189180 > 8 * arc_engine._UNMEASURED_CAPACITY
    monkeypatch.setattr(arc_engine, "_mem_available", lambda: None)

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before the capacity check")

    monkeypatch.setattr(arc_engine, "pair_vertex_table", no_allocation)
    for call in (lambda: arc_engine.uniform_state(p),
                 lambda: arc_engine.evolve_and_record(p, 0, 2)):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="cannot be read.*reduced engine"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20  # not the 62 MB of the pair state


def _capacity_model(params):
    """Bytes a run holds: 8 per pair-state slot, 6 words per k·N for the tables."""
    return 8 * _pair_slots(params) + 8 * 6 * params.k * params.num_vertices


def test_capacity_checks_available_memory(monkeypatch):
    # at every size the pair state and the O(k·N) vertex table with the
    # coin's row sums must fit in available memory; a series adds one chunk
    # whatever its length and is not counted; no permutation is built, so
    # the model is below the 24 bytes per arc it replaced
    p = graph_params(8, 2)
    needed = _capacity_model(p)
    assert needed < 24 * p.num_arcs
    monkeypatch.setattr(arc_engine, "_mem_available", lambda: needed - 1)
    with pytest.raises(CapacityError, match="available memory"):
        arc_engine.uniform_state(p)
    with pytest.raises(CapacityError, match="available memory"):
        arc_engine.evolve_and_record(p, 0, 2)
    monkeypatch.setattr(arc_engine, "_mem_available", lambda: needed)
    arc_engine.uniform_state(p)  # the state alone fits
    assert len(gather(arc_engine.evolve_and_record(p, 0, 2)).t) == 3
    monkeypatch.setattr(arc_engine, "_mem_available", lambda: None)  # unreadable
    assert len(gather(arc_engine.evolve_and_record(p, 0, 2)).t) == 3


def test_capacity_counts_the_walk_alone(monkeypatch):
    # J(12,3) over 2,640 steps holds 84,480 bytes of walk: it runs under a
    # budget of 85,536 bytes, whatever the length of its series, and a
    # budget one byte below the walk is refused before the vertex table or
    # the state is allocated
    p = graph_params(12, 3)
    walk = _capacity_model(p)
    assert walk == 84480
    monkeypatch.setattr(arc_engine, "_mem_available", lambda: 85536)
    series = gather(arc_engine.evolve_and_record(p, 0, 2640))
    assert series.t.tolist() == list(range(2641))
    monkeypatch.setattr(arc_engine, "_mem_available", lambda: walk - 1)

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before the capacity check")

    monkeypatch.setattr(arc_engine, "pair_vertex_table", no_allocation)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="available memory"):
            arc_engine.evolve_and_record(p, 0, 2640)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2641  # not even one column of the series


def test_series_beyond_the_chunk_cap():
    # a series of more than 2^20 chunks of 4096 rows is refused at the call,
    # naming its chunk count; an off-grid last step is a chunk of its own
    for steps, stride in [(2 ** 32 - 1, 1), (5 * (2 ** 32 - 1), 5)]:
        arc_engine._chunk_times(steps, stride)  # 2^32 rows in 2^20 chunks
    for steps, stride, chunks in [(2 ** 32, 1, 2 ** 20 + 1),
                                  (5 * (2 ** 32 - 1) + 3, 5, 2 ** 20 + 1),
                                  (10 ** 13, 1, 2441406251)]:
        with pytest.raises(CapacityError, match=f"needs {chunks} chunks of 4096 rows"):
            arc_engine._chunk_times(steps, stride)


def test_in_place_passes_refuse_other_layouts():
    # reshaping a strided view would copy it, and the update would be lost;
    # a flat vector over the arcs is no pair state
    p = graph_params(6, 2)
    vertices = pair_vertex_table(p)
    pair = arc_engine.uniform_state(p)
    bad = [pair[:, :, ::-1],                                 # strided view
           np.asfortranarray(pair),                          # F-ordered
           pair.astype(np.float32),                          # wrong dtype
           pair[:-1],                                        # wrong shape
           flat.uniform(p)]                                  # flat layout
    for state in bad:
        for axis in (1, 0):
            with pytest.raises(ValueError):
                arc_engine.apply_coin(p, state, vertices, axis)
            with pytest.raises(ValueError):
                arc_engine.apply_oracle(p, state, 0, axis)


def test_passes_refuse_complex_state():
    # the operators are real, so a complex state has no meaning here; it is
    # refused rather than silently stepped
    p = graph_params(6, 2)
    state = arc_engine.uniform_state(p).astype(np.complex128)
    with pytest.raises(ValueError):
        _coin(p, state)
    with pytest.raises(ValueError):
        arc_engine.apply_oracle(p, state, 0)
    with pytest.raises(ValueError):
        arc_engine.vertex_probability(p, state, 0)


def test_passes_update_in_place():
    p = graph_params(6, 2)
    vertices = pair_vertex_table(p)
    state = flat.to_pair(p, random_states(p, 1)[0])
    expected = _coin(p, arc_engine.apply_oracle(p, state.copy(), 3))
    assert arc_engine.apply_oracle(p, state, 3) is state
    assert arc_engine.apply_coin(p, state, vertices) is state
    assert np.array_equal(state, expected)
    assert np.array_equal(flat.shifted_to_flat(p, state),
                          flat.to_flat(p, expected)[flat.opposite(p)])


def _peak_bytes(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evolve_and_record_peak_memory():
    # the capacity model: 8 bytes per pair-state slot and 6 words per k·N,
    # which the vertex table's build fills most (k = n/2 has the longest
    # (k-1)-subsets); after the build, stepping and sampling hold the state,
    # the table and two more k·N tables; a complex128 state fails both bounds
    slack = 2 ** 16
    build = pair_vertex_table

    def build_then_reset_peak(params):
        nonlocal build_peak
        table = build(params)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        return table

    for p in (graph_params(20, 3), graph_params(12, 6)):
        steps = 2 * spectral.run_time(p).t_run
        build_peak = None
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(arc_engine, "pair_vertex_table", build_then_reset_peak)
            _, peak = _peak_bytes(lambda: gather(arc_engine.evolve_and_record(p, 0, steps)))
        tables = 8 * (3 * p.k + 1) * p.num_vertices
        assert max(build_peak, peak) <= _capacity_model(p) + slack
        assert peak <= 8 * _pair_slots(p) + tables + slack
        assert _capacity_model(p) < 16 * _pair_slots(p)


@pytest.mark.parametrize("marked", [-2, -1, 15])
def test_oracle_rejects_out_of_range_marked(monkeypatch, marked):
    # J(6,2) has 15 vertices: a negative rank would wrap onto another block,
    # and rank 15 would reflect an empty slice; the record refuses the rank
    # before the walk is built
    p = graph_params(6, 2)
    message = rf"vertex rank {marked} out of range \[0, 15\)"
    with pytest.raises(ValueError, match=message):
        arc_engine.apply_oracle(p, arc_engine.uniform_state(p), marked)

    def no_walk(*args):
        raise AssertionError("built the walk before the range check")

    monkeypatch.setattr(arc_engine, "uniform_state", no_walk)
    monkeypatch.setattr(arc_engine, "pair_vertex_table", no_walk)
    with pytest.raises(ValueError, match=message):
        arc_engine.evolve_and_record(p, marked, 5)


def test_oracle_involution_on_random_states():
    p = graph_params(6, 2)
    for state in flat.to_pair(p, random_states(p, 100, seed=11)):
        twice = arc_engine.apply_oracle(p, arc_engine.apply_oracle(p, state.copy(), 2), 2)
        assert np.abs(twice - state).max() <= 1e-12


def test_step_single_arc_closed_form():
    # one unmarked step of a basis state: 2/d on arcs b with head(b) = tail(a),
    # with the opposite arc getting 2/d - 1
    p = graph_params(4, 2)
    opp = flat.opposite(p)
    d = p.degree
    heads = opp // d
    for a in range(p.num_arcs):
        e = np.zeros(p.num_arcs)
        e[a] = 1.0
        out = _step(p, flat.to_pair(p, e))
        expected = np.where(heads == a // d, 2.0 / d, 0.0)
        expected[opp[a]] -= 1.0
        assert np.abs(out - expected).max() <= 1e-15


def test_step_preserves_uniform():
    p = graph_params(6, 2)
    out = _step(p, arc_engine.uniform_state(p))
    assert np.abs(out - flat.uniform(p)).max() <= 1e-14


def test_modified_coin_fusion_equivalent():
    # folding the oracle into the coin (negated identity on the marked
    # block) must reproduce oracle-then-coin
    p = graph_params(6, 2)
    marked = 4
    d = p.degree
    for state in random_states(p, 20, seed=3):
        fused = flat.to_flat(p, _coin(p, flat.to_pair(p, state)))
        fused[marked * d:(marked + 1) * d] = -state[marked * d:(marked + 1) * d]
        via_oracle = flat.to_flat(p, _coin(p, arc_engine.apply_oracle(
            p, flat.to_pair(p, state), marked)))
        assert np.abs(fused - via_oracle).max() <= 1e-13


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2)])
def test_step_matches_dense_operator_on_random_states(n, k):
    p = graph_params(n, k)
    marked = 1
    U = dense.step(p, marked)
    for state in random_states(p, 100, seed=5):
        direct = _step(p, flat.to_pair(p, state), marked)
        assert np.abs(U @ state - direct).max() <= 1e-12


def test_vertex_probability_uniform_and_total():
    p = graph_params(6, 2)
    state = arc_engine.uniform_state(p)
    for v in range(p.num_vertices):
        assert arc_engine.vertex_probability(p, state, v) == pytest.approx(
            1.0 / p.num_vertices, abs=1e-15)
    vertices = pair_vertex_table(p)
    for _ in range(10):  # twenty steps: the tail side, then the head side
        arc_engine.apply_coin(p, arc_engine.apply_oracle(p, state, 0), vertices)
        arc_engine.apply_coin(p, arc_engine.apply_oracle(p, state, 0, 0), vertices, 0)
    for axis in (1, 0):
        total = sum(arc_engine.vertex_probability(p, state, v, axis)
                    for v in range(p.num_vertices))
        assert abs(total - 1.0) <= 1e-12


def test_alt_probability_uniform_dominance_and_total():
    # the tail-or-head diagnostic p_alt is the mass of v's tail block plus
    # that of its head block, the blocks along axes 1 and 0
    p = graph_params(6, 2)

    def alt(state, v):
        return (arc_engine.vertex_probability(p, state, v, 1)
                + arc_engine.vertex_probability(p, state, v, 0))

    state = arc_engine.uniform_state(p)
    for v in range(p.num_vertices):
        assert alt(state, v) == pytest.approx(2.0 / p.num_vertices, abs=1e-15)
    for row in random_states(p, 10, seed=13):
        state = flat.to_pair(p, row)
        total = 0.0
        for v in range(p.num_vertices):
            p_alt = alt(state, v)
            assert p_alt >= arc_engine.vertex_probability(p, state, v)
            assert abs(p_alt - flat.alt_vertex_probability(p, row, v)) <= 1e-15
            total += p_alt
        assert abs(total - 2.0) <= 1e-12


def test_evolve_and_record_start_and_stride():
    p = graph_params(8, 2)
    rows = gather(arc_engine.evolve_and_record(p, 0, 10, stride=4))
    assert rows.t.tolist() == [0, 4, 8, 10]  # final step always recorded
    assert rows.p_succ[0] == pytest.approx(1.0 / p.num_vertices, abs=1e-15)
    assert np.all(np.diff(rows.t) > 0)
    assert all(len(column) == 4 for column in rows)


def test_evolve_and_record_deterministic():
    p = graph_params(8, 2)
    first = gather(arc_engine.evolve_and_record(p, 2, 40))
    second = gather(arc_engine.evolve_and_record(p, 2, 40))
    assert all(np.array_equal(a, b) for a, b in zip(first, second))


def test_evolve_and_record_validation():
    p = graph_params(8, 2)
    with pytest.raises(ValueError):
        arc_engine.evolve_and_record(p, 0, -1)
    with pytest.raises(ValueError):
        arc_engine.evolve_and_record(p, 0, 5, stride=0)
    with pytest.raises(ValueError):
        arc_engine.evolve_and_record(p, p.num_vertices, 5)


def test_evolve_and_record_lets_the_walk_go_before_the_last_chunk(monkeypatch):
    # the walk lives while chunks remain to be stepped, and is freed before
    # the last chunk reaches the writer, so writing it does not add to the
    # walk's peak; the chunks themselves hold no reference to it
    p = graph_params(8, 2)
    states = []
    build = arc_engine.uniform_state
    monkeypatch.setattr(arc_engine, "uniform_state",
                        lambda params: states.append(build(params)) or states[-1])
    chunks = arc_engine.evolve_and_record(p, 0, 2 * arc_engine.CHUNK + 5, stride=2)
    walk = weakref.ref(states.pop())
    assert len(next(chunks).t) == arc_engine.CHUNK and walk() is not None
    assert len(next(chunks).t) == 3 and walk() is not None
    assert next(chunks).t.tolist() == [2 * arc_engine.CHUNK + 5] and walk() is None
    with pytest.raises(StopIteration):
        next(chunks)


def test_marked_vertex_invariance():
    # vertex transitivity: the success series cannot depend on which vertex
    # is marked
    p = graph_params(8, 2)
    reference = None
    for marked in (0, 7, 19):
        series = gather(arc_engine.evolve_and_record(p, marked, 100)).p_succ
        if reference is None:
            reference = series
        else:
            assert np.abs(series - reference).max() <= 1e-12


def test_cross_engine_series_j82():
    p = graph_params(8, 2)
    full = gather(arc_engine.evolve_and_record(p, 0, 200))
    small = gather(reduced.evolve_series(p, 200))
    assert np.array_equal(full.t, small.t)
    assert np.abs(full.p_succ - small.p_succ).max() <= 1e-10


def test_norm_preserved_over_2_trun():
    p = graph_params(10, 3)
    t_run = spectral.run_time(p).t_run
    rows = gather(arc_engine.evolve_and_record(p, 0, 2 * t_run))
    assert np.abs(rows.norm - 1.0).max() <= 1e-10


def _complex_evolve_and_record(params, marked, steps):
    """The complex128 engine the float64 one replaced, step for step."""
    d = params.degree
    opp = flat.opposite(params)
    state = np.full(params.num_arcs, 1.0 / np.sqrt(float(params.num_arcs)),
                    dtype=np.complex128)
    lo, hi = marked * d, (marked + 1) * d
    tails = np.arange(lo, hi)
    p_succ, p_alt, norm = (np.empty(steps + 1) for _ in range(3))
    for t in range(steps + 1):
        block, heads = state[tails], state[opp[tails]]
        p_succ[t] = np.vdot(block, block).real
        p_alt[t] = np.vdot(block, block).real + np.vdot(heads, heads).real
        squares = np.square(state.real)
        squares += np.square(state.imag)
        norm[t] = np.sqrt(np.sum(squares))
        if t < steps:
            marked_block = state[lo:hi]
            marked_block -= 2.0 * marked_block.mean()
            blocks = state.reshape(params.num_vertices, d)
            means = np.mean(blocks, axis=1)
            means *= 2.0
            np.subtract(means[:, None], blocks, out=blocks)
            state = state[opp]
    return p_succ, p_alt, norm


@pytest.mark.parametrize("n,k", [(7, 1), (8, 2), (9, 3), (10, 4), (10, 5), (20, 3)])
def test_float64_engine_matches_complex_engine(n, k):
    p = graph_params(n, k)
    marked = p.num_vertices // 3
    steps = 2 * spectral.run_time(p).t_run
    series = gather(arc_engine.evolve_and_record(p, marked, steps))
    assert series.t.tolist() == list(range(steps + 1))
    for got, want in zip((series.p_succ, series.p_alt, series.norm),
                         _complex_evolve_and_record(p, marked, steps)):
        assert np.abs(got - want).max() <= 1e-13


def _diagonal_bits(pair):
    m = pair.shape[0]
    return pair.reshape(m * m, -1)[::m + 1].view(np.uint64)


@pytest.mark.parametrize("n,k", flat.PAIR_INSTANCES)
def test_pair_layout_holds_every_arc_once(n, k):
    # every arc has its own off-diagonal slot, and the x = y slots stay empty
    p = graph_params(n, k)
    m = n - k + 1
    slots = flat.pair_slots(p)
    held = np.zeros(comb(n, k - 1) * m * m, dtype=int)
    np.add.at(held, slots, 1)
    held = held.reshape(m, m, -1)
    assert np.array_equal(held, 1 - np.eye(m, dtype=int)[:, :, None].repeat(held.shape[-1], 2))
    # S is the swap of x and y
    opp = flat.opposite(p)
    assert np.array_equal(flat.to_pair(p, slots[opp].astype(float)),
                          flat.to_pair(p, slots.astype(float)).transpose(1, 0, 2))


@pytest.mark.parametrize("n,k", flat.PAIR_INSTANCES)
def test_pair_passes_match_flat_passes(n, k):
    # the coin along y is the flat coin and along x its shift conjugate
    # S·C·S; likewise the oracle and the block masses; the x = y slots
    # stay bitwise 0 through every pass
    p = graph_params(n, k)
    vertices = pair_vertex_table(p)

    def conjugate(flat_pass, state):
        return flat.shift(p, flat_pass(flat.shift(p, state)))

    count = min(p.num_vertices, 8)
    for v, state in zip(range(0, p.num_vertices, max(1, p.num_vertices // count)),
                        random_states(p, count, seed=17)):
        pair = flat.to_pair(p, state)
        want = {1: flat.coin(p, state.copy()),
                0: conjugate(lambda s: flat.coin(p, s), state)}
        for axis in (1, 0):
            got = arc_engine.apply_coin(p, pair.copy(), vertices, axis)
            assert np.abs(got - flat.to_pair(p, want[axis])).max() <= 1e-15
            assert not _diagonal_bits(got).any()
        want = {1: flat.oracle(p, state.copy(), v),
                0: conjugate(lambda s: flat.oracle(p, s, v), state)}
        for axis in (1, 0):
            got = arc_engine.apply_oracle(p, pair.copy(), v, axis)
            assert np.abs(got - flat.to_pair(p, want[axis])).max() <= 1e-15
            assert not _diagonal_bits(got).any()
            touched = (got != pair).reshape(-1, pair.shape[-1]).any(axis=0)
            assert touched.sum() <= p.k  # only v's k rows or columns change
        shifted = flat.shift(p, state)
        assert abs(arc_engine.vertex_probability(p, pair, v, 1)
                   - flat.vertex_probability(p, state, v)) <= 1e-15
        assert abs(arc_engine.vertex_probability(p, pair, v, 0)
                   - flat.vertex_probability(p, shifted, v)) <= 1e-15
        assert abs(arc_engine.state_norm(pair) - np.linalg.norm(state)) <= 1e-15


def test_pair_passes_refuse_bad_states_and_axes():
    p = graph_params(6, 2)
    vertices = pair_vertex_table(p)
    pair = np.zeros(flat.pair_shape(p))
    for bad in (pair.astype(np.float32), pair.transpose(1, 0, 2), pair[:-1]):
        with pytest.raises(ValueError):
            arc_engine.apply_coin(p, bad, vertices)
        with pytest.raises(ValueError):
            arc_engine.apply_oracle(p, bad, 0)
        with pytest.raises(ValueError):
            arc_engine.vertex_probability(p, bad, 0)
    for axis in (-1, 2):
        with pytest.raises(ValueError):
            arc_engine.apply_coin(p, pair, vertices, axis)
        with pytest.raises(ValueError):
            arc_engine.apply_oracle(p, pair, 0, axis)
        with pytest.raises(ValueError):
            arc_engine.vertex_probability(p, pair, 0, axis)


def test_pair_passes_allocate_row_tables_only():
    # the coin holds a few tables of one float per (x, a) pair, the norm one
    # such table, and the oracle touches only the marked vertex's k rows;
    # a temporary the size of the state fails every bound
    p = graph_params(20, 3)
    vertices = pair_vertex_table(p)
    pair = arc_engine.uniform_state(p)
    for axis in (1, 0):
        _, peak = _peak_bytes(lambda: arc_engine.apply_coin(p, pair, vertices, axis))
        assert peak <= 0.25 * pair.nbytes
        _, peak = _peak_bytes(lambda: arc_engine.apply_oracle(p, pair, 0, axis))
        assert peak <= 0.01 * pair.nbytes
    _, peak = _peak_bytes(lambda: arc_engine.state_norm(pair))
    assert peak <= 0.1 * pair.nbytes


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("length", [12, 15])
def test_row_sums_over_a_non_square_axis(axis, length):
    # the summed axis is longer than the other pair axis (5): every range of
    # _SUM_WIDTH slices is added, a last range of one slice (15 = 7 + 7 + 1)
    # included, in the order of an explicit loop
    shape = (length, 5, 3) if axis == 0 else (5, length, 3)
    state = np.random.default_rng(length).standard_normal(shape)
    slices = np.moveaxis(state, axis, 0)
    expected = None
    for lo in range(0, length, arc_engine._SUM_WIDTH):
        part = slices[lo]
        for j in range(lo + 1, min(lo + arc_engine._SUM_WIDTH, length)):
            part = part + slices[j]
        expected = part if expected is None else expected + part
    assert np.array_equal(arc_engine._row_sums(state, axis), expected)


def _stepwise_evolve_and_record(params, marked, steps, stride):
    """The walk stepped one shift at a time in the flat layout."""
    times = list(range(0, steps + 1, stride))
    if times[-1] != steps:
        times.append(steps)
    state = flat.uniform(params)
    rows = []
    for t in range(steps + 1):
        if t in times:
            rows.append((flat.vertex_probability(params, state, marked),
                         flat.alt_vertex_probability(params, state, marked),
                         np.linalg.norm(state)))
        if t < steps:
            state = flat.step(params, state, marked)
    return times, np.array(rows).T


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("n,k", [(7, 1), (8, 2), (9, 3), (10, 4), (10, 5), (20, 3)])
def test_paired_loop_matches_stepwise_engine(n, k, stride):
    # at stride 3 the step count is odd and off the stride grid, so the
    # final row is sampled from the shifted state of an odd step
    p = graph_params(n, k)
    marked = p.num_vertices // 2
    steps = 2 * spectral.run_time(p).t_run
    if stride == 3:
        steps += 1 if (steps + 1) % 3 else 3
        assert steps % 2 == 1 and steps % 3 != 0
    series = gather(arc_engine.evolve_and_record(p, marked, steps, stride=stride))
    times, want = _stepwise_evolve_and_record(p, marked, steps, stride)
    assert series.t.tolist() == times
    for got, expected in zip((series.p_succ, series.p_alt, series.norm), want):
        assert np.abs(got - expected).max() <= 1e-13


@pytest.mark.parametrize("n,k", [(40, 3), (100, 2), (10, 5)])
def test_uniform_state_norm_within_an_ulp(n, k):
    # dot products along rows of the a axis read J(40,3)'s start as
    # 1 + 4.4e-15, and along rows of m J(100,2)'s as 1 - 4.4e-16
    p = graph_params(n, k)
    assert abs(arc_engine.state_norm(arc_engine.uniform_state(p)) - 1.0) <= 2.2e-16


def test_norm_column_is_the_exact_norm(monkeypatch):
    # at t = 0, 1 and 2*t_run of J(40,3) the norm column is within 4.4e-16
    # of the square root of the exactly summed squares of the state
    p = graph_params(40, 3)
    steps = 2 * spectral.run_time(p).t_run
    exact = {}
    state_norm = arc_engine.state_norm

    def recording(state):
        t = len(exact)
        exact[t] = math.sqrt(math.fsum(np.square(state).ravel().tolist())) \
            if t in (0, 1, steps) else None
        return state_norm(state)

    monkeypatch.setattr(arc_engine, "state_norm", recording)
    rows = gather(arc_engine.evolve_and_record(p, 4000, steps))
    assert len(exact) == steps + 1
    for t in (0, 1, steps):
        assert abs(rows.norm[t] - exact[t]) <= 4.4e-16, t


@pytest.mark.parametrize("marked", [0, 4000, 9879])
def test_norm_drift_j403_over_2_trun(marked):
    p = graph_params(40, 3)
    rows = gather(arc_engine.evolve_and_record(p, marked, 2 * spectral.run_time(p).t_run))
    assert np.abs(rows.norm - 1.0).max() <= 1e-14


def test_norm_drift_j1002_over_2_trun():
    # the head coin sums over x in contiguous ranges; one sum over the 99
    # values of x, in a single accumulator, drifts 1.5e-14 here
    p = graph_params(100, 2)
    rows = gather(arc_engine.evolve_and_record(p, 0, 2 * spectral.run_time(p).t_run))
    assert np.abs(rows.norm - 1.0).max() <= 1e-14


@pytest.mark.parametrize("v", [-2, -1, 15])
def test_vertex_probabilities_reject_out_of_range_vertex(v):
    # J(6,2) has 15 vertices: a negative rank would wrap onto another
    # block, and rank 15 would read an empty slice
    p = graph_params(6, 2)
    state = arc_engine.uniform_state(p)
    for axis in (1, 0):
        with pytest.raises(ValueError, match=rf"vertex rank {v} out of range \[0, 15\)"):
            arc_engine.vertex_probability(p, state, v, axis)


def test_batched_passes_refuse_bad_batches():
    # the passes step one pair state at a time: any stack of states, pair or
    # flat, C- or F-ordered, is refused on either axis
    p = graph_params(6, 2)
    vertices = pair_vertex_table(p)
    shape = flat.pair_shape(p)
    bad = [np.ones(shape + (3,)),                           # a stack of pair states
           np.ones(shape + (3,))[:, :, ::-1],               # strided states
           np.asfortranarray(np.ones(shape + (3,))),        # F-ordered
           np.ones(shape[:-1] + (shape[-1] - 1, 3)),        # wrong state shape
           np.ones(shape + (3,), dtype=np.float32),         # wrong dtype
           np.ones(shape + (3,), dtype=np.complex128),
           np.ones((p.num_arcs, 3))]                        # a flat batch
    for batch in bad:
        for axis in (1, 0):
            with pytest.raises(ValueError):
                arc_engine.apply_coin(p, batch, vertices, axis)
            with pytest.raises(ValueError):
                arc_engine.apply_oracle(p, batch, 0, axis)
            with pytest.raises(ValueError):
                arc_engine.vertex_probability(p, batch, 0, axis)


def test_pair_block_is_cached_read_only():
    # the paired loop unranks its marked vertex once, and no pass can
    # write through the cached index
    p = graph_params(9, 3)
    index, diagonal = arc_engine._pair_block(p, 5)
    assert arc_engine._pair_block(p, 5)[0] is index
    arrays = [part for part in (*index, *diagonal) if isinstance(part, np.ndarray)]
    assert len(arrays) == 4
    assert not any(array.flags.writeable for array in arrays)
