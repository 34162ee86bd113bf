"""Combinatorics layer: ranking, arcs, shells, intersection numbers."""

import tracemalloc
from collections import Counter
from itertools import combinations
from math import comb

import numpy as np
import pytest

import flat_layout as flat
from jwalk import johnson
from jwalk.errors import DegenerateInstanceError


def all_subsets(n, k):
    return list(combinations(range(1, n + 1), k))


def test_graph_params_derived_sizes():
    p = johnson.graph_params(6, 2)
    assert (p.num_vertices, p.degree, p.num_arcs) == (15, 8, 120)
    p = johnson.graph_params(10, 4)
    assert p.num_vertices == comb(10, 4)
    assert p.degree == 4 * 6
    assert p.num_arcs == p.num_vertices * p.degree


@pytest.mark.parametrize("n,k", [(5, 3), (3, 2), (7, 4)])
def test_graph_params_rejects_small_n(n, k):
    with pytest.raises(ValueError, match="n >= 2k"):
        johnson.graph_params(n, k)


def test_graph_params_rejects_degenerate_and_bad_k():
    with pytest.raises(DegenerateInstanceError, match="degenerate"):
        johnson.graph_params(2, 1)
    with pytest.raises(ValueError, match="k >= 1"):
        johnson.graph_params(4, 0)


def test_unrank_first_subset():
    p = johnson.graph_params(4, 2)
    assert johnson.unrank_vertex(p, 0) == (1, 2)


def test_unrank_out_of_range():
    p = johnson.graph_params(4, 2)
    with pytest.raises(ValueError):
        johnson.unrank_vertex(p, 6)
    with pytest.raises(ValueError):
        johnson.unrank_vertex(p, -1)


@pytest.mark.parametrize("n,k", [(6, 2), (7, 3), (12, 2), (14, 7), (20, 4)])
def test_rank_unrank_bijection_exhaustive(n, k):
    p = johnson.graph_params(n, k)
    seen = set()
    for r in range(p.num_vertices):
        sub = johnson.unrank_vertex(p, r)
        assert len(sub) == k and all(sub[i] < sub[i + 1] for i in range(k - 1))
        assert 1 <= sub[0] and sub[-1] <= n
        assert johnson.rank_vertex(p, sub) == r
        seen.add(sub)
    assert seen == set(all_subsets(n, k))


@pytest.mark.parametrize("n,k", [(6, 2), (7, 3)])
def test_rank_is_colexicographic(n, k):
    p = johnson.graph_params(n, k)
    colex = sorted(all_subsets(n, k), key=lambda s: tuple(reversed(s)))
    for r, sub in enumerate(colex):
        assert johnson.rank_vertex(p, sub) == r


def test_rank_rejects_malformed():
    p = johnson.graph_params(6, 2)
    with pytest.raises(ValueError):
        johnson.rank_vertex(p, (1, 2, 3))
    with pytest.raises(ValueError):
        johnson.rank_vertex(p, (2, 2))
    with pytest.raises(ValueError):
        johnson.rank_vertex(p, (3, 1))
    with pytest.raises(ValueError):
        johnson.rank_vertex(p, (1, 7))


def test_arc_head_example():
    p = johnson.graph_params(4, 2)
    tail = johnson.rank_vertex(p, (1, 2))
    arc = tail * p.degree  # removes 1, inserts 3 (first complement element)
    assert flat.arc_components(p, arc) == (tail, 1, 3)
    assert johnson.unrank_vertex(p, flat.arc_head(p, arc)) == (2, 3)


@pytest.mark.parametrize("n,k", [(4, 2), (6, 2)])
def test_arc_head_adjacent_for_all_arcs(n, k):
    p = johnson.graph_params(n, k)
    for arc in range(p.num_arcs):
        tail, removed, inserted = flat.arc_components(p, arc)
        tail_set = set(johnson.unrank_vertex(p, tail))
        head_set = set(johnson.unrank_vertex(p, flat.arc_head(p, arc)))
        assert removed in tail_set and inserted not in tail_set
        assert head_set == (tail_set - {removed}) | {inserted}
        assert len(tail_set & head_set) == k - 1


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 2)])
def test_arc_opposite_fixed_point_free_involution(n, k):
    p = johnson.graph_params(n, k)
    for arc in range(p.num_arcs):
        opp = flat.arc_opposite(p, arc)
        assert opp != arc
        assert flat.arc_opposite(p, opp) == arc
        assert flat.arc_head(p, opp) == arc // p.degree
        assert flat.arc_head(p, arc) == opp // p.degree


def test_arc_opposite_example():
    p = johnson.graph_params(4, 2)
    arc = johnson.rank_vertex(p, (1, 2)) * p.degree  # {1,2}: 1 out, 3 in
    opp = flat.arc_opposite(p, arc)
    assert flat.arc_components(p, opp) == (johnson.rank_vertex(p, (2, 3)), 3, 1)


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 2), (6, 3), (7, 3), (8, 4),
                                 (9, 4), (12, 5)])
def test_opposite_permutation_matches_scalar(n, k):
    p = johnson.graph_params(n, k)
    table = johnson.arc_pair_slots(p)[1]
    assert table.dtype == np.int64
    assert not table.flags.writeable
    arcs = np.arange(p.num_arcs)
    assert np.array_equal(table[table], arcs)
    assert not np.any(table == arcs)
    for arc in range(p.num_arcs):
        assert table[arc] == flat.arc_opposite(p, arc)
        assert table[arc] // p.degree == flat.arc_head(p, arc)


@pytest.mark.parametrize("n,k", flat.PAIR_INSTANCES + [(10, 3)])
def test_arc_pair_slots_match_scalar(n, k):
    # every arc sits once, off the diagonal, in the slot the scalar decoders
    # give it; the flat arcs of a tail fill that vertex's k rows in order,
    # and the reversed arc sits at the transposed slot
    p = johnson.graph_params(n, k)
    m = n - k + 1
    slots, opposite = johnson.arc_pair_slots(p)
    assert slots.dtype == np.int64 and not slots.flags.writeable
    assert np.array_equal(slots, flat.pair_slots(p))
    assert np.array_equal(np.sort(slots), np.flatnonzero(
        ~np.eye(m, dtype=bool)[:, :, None].repeat(comb(n, k - 1), 2)))
    vertices = johnson.pair_vertex_table(p)
    rows, a = np.divmod(slots, comb(n, k - 1))
    x, y = np.divmod(rows, m)
    for v in range(p.num_vertices):
        block = slice(v * p.degree, (v + 1) * p.degree)
        pair_a, pair_x = johnson.vertex_pairs(p, v)
        assert np.array_equal(x[block] * comb(n, k - 1) + a[block],
                              np.repeat(pair_x * comb(n, k - 1) + pair_a, n - k))
    for arc in range(p.num_arcs):
        tail, _, _ = flat.arc_components(p, arc)
        assert vertices[x[arc], a[arc]] == tail
        assert vertices[y[arc], a[arc]] == flat.arc_head(p, arc)
        assert opposite[arc] == flat.arc_opposite(p, arc)
        assert slots[opposite[arc]] == (y[arc] * m + x[arc]) * comb(n, k - 1) + a[arc]


@pytest.mark.parametrize("n,k", [(6, 3), (40, 3), (130, 2), (600, 1), (20, 6)])
def test_permutation_scratch_bound(n, k):
    # besides its two outputs, building the arc table holds no more than
    # three int64 per pair slot, two (m, m) index tables and 64 KiB of
    # small tables; a temporary over arcs times n or m fails the bound
    p = johnson.graph_params(n, k)
    m = n - k + 1
    bound = 8 * (3 * comb(n, k - 1) * m * m + 2 * m * m) + 2 ** 16
    tracemalloc.start()
    try:
        slots, opposite = johnson.arc_pair_slots(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - slots.nbytes - opposite.nbytes <= bound


@pytest.mark.parametrize("n,k", [(40, 3), (100, 2)])
def test_arc_pair_slots_fill_their_tables_in_place(n, k):
    # each vertex's k (x, a) pairs are scattered once and the arcs filled in
    # place: besides its two outputs the build holds a boolean per arc and
    # tables of m·C(n, k-1) entries, 0.18-0.24 words per arc here; one more
    # int64 array over the arcs would take a whole word
    p = johnson.graph_params(n, k)
    tracemalloc.start()
    try:
        slots, opposite = johnson.arc_pair_slots(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - slots.nbytes - opposite.nbytes <= 8 * p.num_arcs


@pytest.mark.parametrize("n,k", [(3, 1), (7, 1), (9, 3), (8, 4), (10, 5)])
def test_pair_vertex_table_matches_scalar(n, k):
    # k = 1 has the empty (k-1)-subset only; n = 2k has the shortest
    # complements, so the largest share of x = y slots in the pair layout
    p = johnson.graph_params(n, k)
    table = johnson.pair_vertex_table(p)
    assert table.dtype == np.int64
    assert table.shape == (n - k + 1, comb(n, k - 1))
    shared = sorted(combinations(range(1, n + 1), k - 1), key=lambda s: s[::-1])
    for a, row in zip(shared, table.T):
        outside = [e for e in range(1, n + 1) if e not in a]
        assert row.tolist() == [johnson.rank_vertex(p, sorted(a + (x,))) for x in outside]
    # each vertex is a ∪ {x} for exactly its k pairs, listed as its
    # elements leave it, the order of its block of arcs
    assert np.array_equal(np.bincount(table.ravel(), minlength=p.num_vertices),
                          np.full(p.num_vertices, k))
    for v in range(p.num_vertices):
        a, x = johnson.vertex_pairs(p, v)
        assert np.all(table[x, a] == v)
        members = johnson.unrank_vertex(p, v)
        for i, removed in enumerate(members):
            rest = tuple(e for e in members if e != removed)
            outside = [e for e in range(1, n + 1) if e not in rest]
            assert a[i] == sum(comb(e - 1, j) for j, e in enumerate(rest, start=1))
            assert outside[x[i]] == removed
            # the i-th run of n - k of v's outgoing arcs removes members[i]
            assert flat.arc_components(p, v * p.degree + i * (n - k))[1] == removed


def test_distance_class():
    p = johnson.graph_params(4, 2)
    w = johnson.rank_vertex(p, (1, 2))
    assert flat.distance_class(p, w, w) == 0
    assert flat.distance_class(p, johnson.rank_vertex(p, (3, 4)), w) == 2

    p6 = johnson.graph_params(6, 2)
    w6 = johnson.rank_vertex(p6, (1, 2))
    counts = Counter(flat.distance_class(p6, v, w6)
                     for v in range(p6.num_vertices))
    assert [counts[l] for l in range(3)] == [1, 8, 6]


@pytest.mark.parametrize("n,k,expected", [(4, 2, [1, 4, 1]), (6, 2, [1, 8, 6])])
def test_shell_sizes_brute_force(n, k, expected):
    p = johnson.graph_params(n, k)
    w = set(range(1, k + 1))
    counts = Counter(k - len(w & set(sub)) for sub in all_subsets(n, k))
    assert [johnson.shell_size(p, l) for l in range(k + 1)] == expected
    assert [counts[l] for l in range(k + 1)] == expected


def test_shell_size_level_zero_and_range():
    for n, k in [(4, 2), (9, 3), (12, 6)]:
        p = johnson.graph_params(n, k)
        assert johnson.shell_size(p, 0) == 1
        with pytest.raises(ValueError):
            johnson.shell_size(p, k + 1)
        with pytest.raises(ValueError):
            johnson.shell_size(p, -1)


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("n_extra", [0, 1, 5, 20])
def test_shell_sizes_sum_to_vertex_count(k, n_extra):
    n = 2 * k + n_extra
    if (n, k) == (2, 1):
        return
    p = johnson.graph_params(n, k)
    assert sum(johnson.shell_size(p, l) for l in range(k + 1)) == p.num_vertices


@pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (7, 3)])
def test_intersection_numbers_exhaustive(n, k):
    # classify each vertex's neighbors by shell, from scratch
    p = johnson.graph_params(n, k)
    subsets = all_subsets(n, k)
    w = set(range(1, k + 1))
    shell = {sub: k - len(w & set(sub)) for sub in subsets}
    for v in subsets:
        neighbors = [u for u in subsets if len(set(u) & set(v)) == k - 1]
        assert len(neighbors) == p.degree
        row = johnson.intersection_numbers(p, shell[v])
        tally = Counter(shell[u] - shell[v] for u in neighbors)
        assert tally[0] == row.a
        assert tally[1] == row.b
        assert tally[-1] == row.c


def test_intersection_number_examples():
    p4 = johnson.graph_params(4, 2)
    rows = [johnson.intersection_numbers(p4, l) for l in range(3)]
    assert [r.a for r in rows] == [0, 2, 0]
    assert [r.b for r in rows] == [4, 1, 0]
    assert [r.c for r in rows] == [0, 1, 4]

    p6 = johnson.graph_params(6, 2)
    rows = [johnson.intersection_numbers(p6, l) for l in range(3)]
    assert [r.a for r in rows] == [0, 4, 4]
    assert [r.b for r in rows] == [8, 3, 0]
    assert [r.c for r in rows] == [0, 1, 4]
    assert all(r.a + r.b + r.c == 8 for r in rows)


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("n_extra", [0, 1, 7, 33])
def test_intersection_rows_sum_to_degree(k, n_extra):
    n = 2 * k + n_extra
    if (n, k) == (2, 1):
        return
    p = johnson.graph_params(n, k)
    for l in range(k + 1):
        row = johnson.intersection_numbers(p, l)
        assert row.a + row.b + row.c == p.degree
    assert johnson.intersection_numbers(p, 0).b == p.degree  # b_0 = d
    assert johnson.intersection_numbers(p, 0).a == 0
    assert johnson.intersection_numbers(p, 0).c == 0
    assert johnson.intersection_numbers(p, k).b == 0


def test_intersection_numbers_range_error():
    p = johnson.graph_params(6, 2)
    with pytest.raises(ValueError):
        johnson.intersection_numbers(p, 3)
