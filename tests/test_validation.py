"""The certification battery against dense oracles on small instances."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import arc_basis
import dense_step as dense
import flat_layout as flat
import orbit_walk
import jwalk
from jwalk import _arc_step, arc_engine, cli, johnson, spectral, validation
from jwalk.errors import CapacityError
from jwalk.johnson import (arc_pair_slots, graph_params, intersection_numbers,
                           pair_vertex_table, rank_vertex, shell_size)

# the report's rows, in the order certify runs its stages
ROWS = [
    "local_eigenvalues", "local_weights", "krylov_closure", "shell_action_identity",
    "step_closed_form_vs_engine", "step_unitarity", "marked_step_closed_form_vs_engine",
    "marked_step_unitarity", "marked_step_det_modulus",
    "basis_gram", "stationary_antisymmetric_lift", "walk_eigenrelation",
    "lift_norm_identities",
    "subspace_invariance", "oracle_action_identities",
    "target_coordinates", "initial_coordinates", "target_initial_overlap",
    "initial_in_subspace",
    "reduced_compression",
]


def _frame(params):
    """The pair frame certify hands its stages: the engine's vertex table and each arc's slot."""
    return pair_vertex_table(params), arc_pair_slots(params)[0]


def _marked(basis, blocks):
    """The marked step on the class coordinates, and its compression, as certify forms them."""
    step = validation._marked_class_step(basis, blocks)
    Y = basis.coords
    return step, (Y.conj().T * basis.class_sizes) @ step[0] @ Y


def _heads(params):
    """Each arc's head, as the (N, d) table the spectral stage reads the adjacency from."""
    N, d = params.num_vertices, params.degree
    return (arc_pair_slots(params)[1] // d).reshape(N, d)


def _adjacency(params):
    """The dense N x N 0/1 adjacency: a 1 at (tail, head) of every arc."""
    N, d = params.num_vertices, params.degree
    adj = np.zeros((N, N))
    adj[np.arange(params.num_arcs) // d, _heads(params).reshape(-1)] = 1.0
    return adj


def test_local_spectrum_octahedron():
    # J(4,2) is the octahedron: eigenvalues 4, 0 and -2 with multiplicities
    # 1, 3 and 2 of 6 vertices, so every vertex weighs 1/6, 1/2 and 1/3
    p = graph_params(4, 2)
    adj = _adjacency(p)
    assert np.array_equal(adj, adj.T) and np.all(adj.sum(axis=1) == 4)
    values, weights, closure, _ = validation._local_spectrum(_heads(p), 0, 3)
    assert np.abs(values - [4.0, 0.0, -2.0]).max() <= 1e-14
    assert np.abs(weights - [1 / 6, 1 / 2, 1 / 3]).max() <= 1e-15
    assert closure <= 1e-15


@pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (7, 1), (8, 4), (9, 3), (10, 5), (12, 6),
                                 (14, 7)])
def test_local_spectrum_matches_dense_eigh(n, k):
    # k+1 Lanczos steps from one vertex against the eigh of the dense
    # adjacency: every dense eigenvalue is a Lanczos one, the vertex's
    # weight on each eigenspace is the square of the Jacobi eigenvector's
    # first entry, the eigenspaces' dimensions are N w_l, as
    # walk-regularity makes them, and the projections the basis is built
    # from are the dense eigenspace projectors' columns at the vertex
    p = graph_params(n, k)
    marked = p.num_vertices // 3
    values, weights, closure, projections = validation._local_spectrum(
        _heads(p), marked, k + 1)
    eigvals, eigvecs = np.linalg.eigh(_adjacency(p))
    assign = np.abs(eigvals[:, None] - values[None, :]).argmin(axis=1)
    assert np.abs(eigvals - values[assign]).max() <= 1e-12
    dense_weights = np.bincount(assign, weights=eigvecs[marked] ** 2, minlength=k + 1)
    assert np.abs(dense_weights - weights).max() <= 1e-13
    dense_projections = np.stack([eigvecs[:, assign == l] @ eigvecs[marked, assign == l]
                                  for l in range(k + 1)])
    assert np.abs(dense_projections - projections).max() <= 1e-13
    counts = np.bincount(assign, minlength=k + 1).tolist()
    assert counts == np.rint(p.num_vertices * weights).astype(int).tolist()
    assert counts == [spectral.multiplicity(p, l) for l in range(k + 1)]
    assert closure <= 1e-13


def test_lanczos_breakdown_is_a_failed_row(monkeypatch):
    # with every arc its own reverse the adjacency is d I: the marked
    # vertex's Krylov space closes after one step, not k+1, so the basis
    # built from it is NaN, and certify fails the three Lanczos rows and
    # every row read from the basis, rather than raise; every arc then
    # stays in its shell, so the classes are (i, i) alone
    p = graph_params(6, 2)
    slots = arc_pair_slots(p)[0]
    monkeypatch.setattr(validation, "arc_pair_slots",
                        lambda params: (slots, np.arange(params.num_arcs)))
    basis = validation.build_invariant_basis(p, 0)
    assert np.isnan(basis.coords).all() and np.isnan(basis.proj_w).all()
    assert basis.class_shells.tolist() == [[0, 0], [1, 1], [2, 2]]
    report = validation.certify(p, 0)
    assert not report.passed
    assert [c.name for c in report.checks if math.isnan(c.residual)] == [
        "local_eigenvalues", "local_weights", "krylov_closure", "basis_gram",
        "stationary_antisymmetric_lift", "walk_eigenrelation", "lift_norm_identities",
        "subspace_invariance", "target_coordinates", "initial_coordinates",
        "initial_in_subspace", "reduced_compression"]


def test_certify_refuses_by_memory_alone(monkeypatch):
    # J(40,3), 9,880 vertices, is admitted when its counted words fit, and
    # refused one byte short of them
    p = graph_params(40, 3)
    needed = 8 * validation._battery_words(p)

    class Admitted(Exception):
        pass

    def admitted(params, marked):
        raise Admitted

    monkeypatch.setattr(validation, "build_invariant_basis", admitted)
    monkeypatch.setattr(arc_engine, "_mem_available", lambda: needed)
    with pytest.raises(Admitted):
        validation.certify(p)
    monkeypatch.setattr(arc_engine, "_mem_available", lambda: needed - 1)
    with pytest.raises(CapacityError, match="available memory"):
        validation.certify(p)


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2)])
def test_dense_step_unitary_and_det(n, k):
    p = graph_params(n, k)
    eye = np.eye(p.num_arcs)
    U = dense.step(p)
    assert np.abs(U.conj().T @ U - eye).max() <= 1e-13
    Um = dense.step(p, marked=0)
    assert np.abs(Um.conj().T @ Um - eye).max() <= 1e-13
    assert abs(abs(np.linalg.det(Um)) - 1.0) <= 1e-10


def test_dense_step_entries_closed_form_j42():
    p = graph_params(4, 2)
    U = dense.step(p)
    assert U.shape == (24, 24)
    # every column: 2/d on head-matching arcs (minus 1 on the reverse), 0 off
    values = sorted(set(np.round(U.real.reshape(-1), 12).tolist()))
    assert values == [-0.5, 0.0, 0.5]
    assert np.all(U.imag == 0)


def test_dense_step_matches_engine_columns():
    # the closed form, the engine's pair passes and the flat oracle agree;
    # the unmarked columns are stepped through the pair frame and the real
    # shift, as the eigenbasis stage steps them
    p = graph_params(4, 2)
    frame = _frame(p)
    eye = np.eye(p.num_arcs)
    stepped = np.column_stack([_arc_step.engine_step(p, frame, e) for e in eye])
    assert stepped.dtype == np.float64
    assert np.array_equal(stepped, _column_by_column(p))
    for marked, bound in ((None, 1e-15), (2, 1e-14)):
        engine = _column_by_column(p, marked)
        assert np.abs(dense.step(p, marked) - engine).max() <= bound
        oracle = flat.step(p, np.eye(p.num_arcs), marked).T
        assert np.abs(oracle - engine).max() <= bound


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 2)])
def test_invariant_basis_gram_identity(n, k):
    # B = C·Y, so B^H B = Y^H diag(sizes) Y, and the oracle's arc-space B agrees
    p = graph_params(n, k)
    basis = validation.build_invariant_basis(p, marked=0)
    Y = basis.coords
    gram = (Y.conj().T * basis.class_sizes) @ Y
    assert np.abs(gram - np.eye(2 * k + 1)).max() <= 1e-10
    B = Y[basis.classes]
    assert np.abs(B.conj().T @ B - np.eye(2 * k + 1)).max() <= 1e-10


def test_arc_class_vector_norms():
    # |within|^2 = a_l * shell, |outward|^2 = b_l * shell, |inward|^2 = c_l * shell,
    # and the basis's classes 0 and 1 are the marked vertex's outward and
    # inward arcs
    p = graph_params(6, 2)
    basis = validation.build_invariant_basis(p, marked=0)
    tails = np.arange(p.num_arcs) // p.degree
    heads = basis.opposite // p.degree
    zero = np.zeros(p.num_vertices, dtype=np.int64)
    shells = [zero] + basis.shell_indicators + [zero]  # shell l is shells[l + 1]
    for l in range(3):
        row = intersection_numbers(p, l)
        size = shell_size(p, l)
        shell = shells[l + 1][tails]
        within = shell * shells[l + 1][heads]
        outward = shell * shells[l + 2][heads]
        inward = shell * shells[l][heads]
        assert np.dot(within, within) == row.a * size
        assert np.dot(outward, outward) == row.b * size
        assert np.dot(inward, inward) == row.c * size
        if l == 0:
            assert np.array_equal(basis.classes == 0, outward.astype(bool))
        if l == 1:
            assert np.array_equal(basis.classes == 1, inward.astype(bool))


def test_stationary_projection_lifts():
    # the antisymmetric lift annihilates the stationary projection, in arc
    # space and on the classes, and the symmetric lift of it is the uniform
    # arc state up to scale
    p = graph_params(6, 2)
    basis = validation.build_invariant_basis(p, marked=0)
    assert np.linalg.norm(arc_basis.lifts(basis)[1][0]) <= 1e-12
    antisym = validation._class_lifts(basis.shell_proj, basis.class_shells)[1]
    assert validation._class_norm(basis.class_sizes, antisym[0]) <= 1e-12
    col0 = basis.coords[basis.classes, 0]
    uniform = flat.to_flat(p, arc_engine.uniform_state(p))
    assert np.abs(col0 - uniform).max() <= 1e-12


def test_lift_norm_identities_j62():
    # in arc space, from the projections, and on the classes, from their
    # shell averages weighted by the class and shell sizes
    p = graph_params(6, 2)
    basis = validation.build_invariant_basis(p, marked=0)
    sym, antisym = arc_basis.lifts(basis)
    class_sym, class_antisym = validation._class_lifts(basis.shell_proj, basis.class_shells)
    sizes = basis.class_sizes
    for l in range(3):
        lam = spectral.eigenvalue(p, l)
        p_sq = np.dot(basis.proj_w[l], basis.proj_w[l])
        assert np.dot(sym[l], sym[l]) == pytest.approx((p.degree + lam) * p_sq, abs=1e-10)
        assert np.dot(antisym[l], antisym[l]) == pytest.approx(
            (p.degree - lam) * p_sq, abs=1e-10)
        assert np.dot(basis.shell_sizes, basis.shell_proj[l] ** 2) == pytest.approx(
            p_sq, abs=1e-15)
        assert np.dot(sizes, class_sym[l] ** 2) == pytest.approx(
            (p.degree + lam) * p_sq, abs=1e-10)
        assert np.dot(sizes, class_antisym[l] ** 2) == pytest.approx(
            (p.degree - lam) * p_sq, abs=1e-10)


@pytest.mark.parametrize("n,k,bound", [(4, 2, 1e-12), (6, 2, 1e-11)])
def test_subspace_invariance_residual(n, k, bound):
    p = graph_params(n, k)
    basis = validation.build_invariant_basis(p, marked=0)
    residuals = validation.verify_subspace_invariance(
        basis, *_marked(basis, _arc_step.step_blocks(p.degree)))
    assert residuals["subspace_invariance"] <= bound
    assert residuals["oracle_action_identities"] == 0.0  # exact reflection


def test_target_and_initial_j42():
    p = graph_params(4, 2)
    basis = validation.build_invariant_basis(p, marked=0)
    target_arc = (basis.classes == 0) / np.sqrt(p.degree)  # class (0, 1)
    coords = basis.coords[basis.classes].conj().T @ target_arc
    expected = [math.sqrt(1 / 6), 0.5, 0.5, math.sqrt(1 / 6), math.sqrt(1 / 6)]
    assert np.abs(coords - expected).max() <= 1e-10
    residuals = validation.verify_target_and_initial(basis, validation._reduced_step(p)[1])
    assert residuals["target_initial_overlap"] <= 1e-12
    assert residuals["initial_in_subspace"] <= 1e-12


@pytest.mark.parametrize("n,k", [(4, 2), (6, 2)])
def test_reduced_compression_is_reduced_matrix(n, k):
    p = graph_params(n, k)
    basis = validation.build_invariant_basis(p, marked=0)
    residuals = validation.verify_reduced_compression(
        _marked(basis, _arc_step.step_blocks(p.degree))[1], validation._reduced_step(p)[0])
    assert residuals["reduced_compression"] <= 1e-10


def test_lift_norm_identities_relative_at_large_degree():
    # J(100,2), d = 196: |S x|^2 and (d + lambda)|x|^2 are up to 2d |x|^2,
    # and their absolute difference, 1.2e-10 to 2.6e-10 by the BLAS thread
    # count, failed the default tolerance; relative to its own size each
    # term is about 1e-12
    p = graph_params(100, 2)
    residuals = validation.verify_eigenbasis(validation.build_invariant_basis(p, 0), _frame(p))
    assert residuals["lift_norm_identities"] <= 1e-11
    assert max(residuals.values()) <= 1e-10


def test_eigenbasis_eigenrelation():
    p = graph_params(6, 2)
    basis = validation.build_invariant_basis(p, marked=0)
    residuals = validation.verify_eigenbasis(basis, _frame(p))
    assert residuals["walk_eigenrelation"] <= 1e-10
    assert residuals["basis_gram"] <= 1e-10
    assert residuals["lift_norm_identities"] <= 1e-10
    # the engine's shift is checked against the basis's reversal: with each
    # arc placed at its reverse's slot the engine steps C·S, not S·C
    vertices, slots = _frame(p)
    swapped = validation.verify_eigenbasis(basis, (vertices, slots[basis.opposite]))
    assert swapped["walk_eigenrelation"] >= 1.0


def test_shell_action_identity_integer_exact():
    p = graph_params(6, 2)
    residuals = validation.verify_spectral_closed_forms(
        validation.build_invariant_basis(p, marked=0))
    assert residuals["shell_action_identity"] == 0.0
    # so N w_l rounds to the multiplicity m_l
    assert residuals["local_weights"] * p.num_vertices <= 1e-12


def test_marked_choice_does_not_matter():
    p = graph_params(5, 2)
    marked = rank_vertex(p, (2, 4))
    report = validation.certify(p, marked=marked, tol=1e-10)
    assert report.passed


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 2), (6, 3), (8, 4), (12, 4)])
def test_certify_passes_default_tolerance(n, k):
    report = validation.certify(graph_params(n, k), marked=0, tol=1e-10)
    assert report.passed
    assert all(c.residual <= 1e-10 for c in report.checks)


def test_certify_rows_in_order():
    # one row per residual, named and ordered as the report is read
    report = validation.certify(graph_params(6, 2), marked=0)
    assert [c.name for c in report.checks] == ROWS


def test_certify_runs_lanczos_once(monkeypatch):
    # the marked vertex's one Lanczos run builds the basis and feeds the
    # spectral stage, and the basis reads no intersection number or shell
    # size: those enter certify through the shell action alone
    runs = []
    original = validation._local_spectrum

    def counting(heads, start, steps):
        runs.append((start, steps))
        return original(heads, start, steps)

    def refused(*args):
        raise AssertionError("the basis read a closed form of the shells")

    monkeypatch.setattr(validation, "_local_spectrum", counting)
    p = graph_params(9, 3)
    marked = rank_vertex(p, (2, 5, 9))
    assert validation.certify(p, marked=marked).passed
    assert runs == [(marked, 4)]
    with monkeypatch.context() as m:
        for name in ("intersection_numbers", "shell_size"):
            for module in (johnson, spectral, validation):
                if hasattr(module, name):
                    m.setattr(module, name, refused)
        validation.build_invariant_basis(p, marked)


def test_certify_builds_each_dense_step_once(monkeypatch):
    # certify builds the step's two coin blocks once, and hands them, its
    # one invariant basis and its one reduced step to every stage that
    # needs them, and derives the walk terms once
    built = []
    bases = []
    walks = []
    original = _arc_step.step_blocks
    original_basis = validation.build_invariant_basis
    original_terms = spectral.walk_terms

    def counting(degree):
        built.append(degree)
        return original(degree)

    def counting_basis(params, marked):
        bases.append(marked)
        return original_basis(params, marked)

    def counting_terms(params):
        walks.append(params)
        return original_terms(params)

    monkeypatch.setattr(_arc_step, "step_blocks", counting)
    monkeypatch.setattr(validation, "build_invariant_basis", counting_basis)
    monkeypatch.setattr(spectral, "walk_terms", counting_terms)
    p = graph_params(6, 3)
    marked = rank_vertex(p, (1, 3, 5))
    report = validation.certify(p, marked=marked)
    assert report.passed
    assert built == [p.degree]
    assert bases == [marked]
    assert walks == [p]


def test_certify_builds_each_arc_table_once(monkeypatch):
    # one pair frame per certify: arc_pair_slots is built once, and the
    # pair layout twice, once inside arc_pair_slots and once for the
    # engine's coin, through pair_vertex_table
    built = {"arc_pair_slots": 0, "pair_vertex_table": 0, "_pair_layout": 0}
    for name in built:
        original = getattr(johnson, name)

        def counting(params, _name=name, _original=original):
            built[_name] += 1
            return _original(params)

        for module in (johnson, validation, arc_engine):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    p = graph_params(10, 3)
    assert validation.certify(p, marked=rank_vertex(p, (1, 4, 7))).passed
    assert built == {"arc_pair_slots": 1, "pair_vertex_table": 1, "_pair_layout": 2}


def _complex_dense_step(params, marked=None):
    """The complex128 per-column construction the float64 build replaced."""
    d, A = params.degree, params.num_arcs
    opp = flat.opposite(params)
    U = np.zeros((A, A), dtype=np.complex128)
    for a in range(A):
        U[opp[(a // d) * d:(a // d + 1) * d], a] = 2.0 / d
        U[opp[a], a] -= 1.0
    if marked is None:
        return U
    target = np.zeros(A)
    target[marked * d:(marked + 1) * d] = 1.0 / np.sqrt(d)
    return U - 2.0 * np.outer(U @ target, target)


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 3), (7, 3), (8, 4)])
def test_dense_step_matches_complex_loop(n, k):
    p = graph_params(n, k)
    oracle = _complex_dense_step(p)
    assert np.all(oracle.imag == 0)
    U = dense.step(p)
    assert U.dtype == np.float64
    assert np.array_equal(U, oracle.real)
    marked = p.num_vertices // 2
    Um = dense.step(p, marked)
    assert Um.dtype == np.float64
    assert np.abs(Um - _complex_dense_step(p, marked)).max() <= 1e-15
    # updating only the marked block's columns is bit-equal to the full
    # rank-1 update in float64
    d = p.degree
    target = np.zeros(p.num_arcs)
    target[marked * d:(marked + 1) * d] = 1.0 / np.sqrt(d)
    assert np.array_equal(Um, U - 2.0 * np.outer(U @ target, target))


# the instances on which the blocks are compared with the A x A step
BLOCK_INSTANCES = [(4, 2), (6, 3), (7, 1), (9, 3), (10, 5)]


def _dense_unitarity(U):
    """max |U^T U - I| as one full product, the A x A Gram formed whole."""
    gram = U.T @ U
    gram[np.diag_indices_from(gram)] -= 1.0
    return float(np.abs(gram, out=gram).max())


@pytest.mark.parametrize("n,k", BLOCK_INSTANCES)
def test_step_blocks_are_the_dense_oracles_blocks(n, k):
    # the blocks gathered from the A x A step built column by column are
    # the per-vertex blocks built from the definition: bitwise unmarked;
    # marked within 1e-16, since the oracle rounds its rank-1 update through
    # an A-long matvec; and the oracle has no nonzero outside them
    p = graph_params(n, k)
    opp = arc_pair_slots(p)[1]
    for marked, bound in ((None, 0.0), (p.num_vertices - 1, 1e-16)):
        U = dense.step(p, marked, opp)
        gathered = dense.blocks(p, U, opp)
        blocks = dense.vertex_blocks(p, marked)
        assert float(np.abs(gathered - blocks).max()) <= bound
        if marked is None:
            assert np.array_equal(gathered, blocks)
        assert np.count_nonzero(U) == np.count_nonzero(gathered)
        del U


@pytest.mark.parametrize("n,k", BLOCK_INSTANCES)
def test_vertex_blocks_are_grover_and_marked(n, k):
    # the step holds two blocks, not N: every unmarked vertex's block built
    # from the definition is G bitwise, and the marked vertex's is B_marked
    p = graph_params(n, k)
    grover, marked_block = _arc_step.step_blocks(p.degree)
    assert grover.shape == marked_block.shape == (p.degree, p.degree)
    assert grover.dtype == marked_block.dtype == np.float64
    for marked in (None, 0, p.num_vertices - 1):
        blocks = dense.vertex_blocks(p, marked)
        unmarked = np.arange(p.num_vertices) != marked
        assert np.array_equal(blocks[unmarked], np.broadcast_to(grover, blocks[unmarked].shape))
        if marked is not None:
            assert np.array_equal(blocks[marked], marked_block)


@pytest.mark.parametrize("n,k", BLOCK_INSTANCES)
def test_block_residuals_match_dense(n, k):
    # each check read from the blocks against the same check on the A x A
    # matrix P blockdiag(B_v) that holds them.  Unitarity is bitwise that
    # of R = P^T U = blockdiag(B_v), U's rows taken in the order opposite,
    # which sums each Gram entry over a block's rows in the block's order;
    # U's own rows, in another order, round within two ulps of 1 (not run
    # on J(10,5), where one more A x A product takes seconds).  The marked
    # step's class coordinates give the dense step's residuals on B = C·Y
    # within 1e-15.
    p = graph_params(n, k)
    marked = p.num_vertices - 1
    opp = arc_pair_slots(p)[1]
    blocks = _arc_step.step_blocks(p.degree)
    for m, held in ((None, blocks[:1]), (marked, blocks)):
        per_vertex = dense.vertex_blocks(p, m)
        residual = _arc_step.unitarity_residual(*held)
        R = dense.from_blocks(p, per_vertex, np.arange(p.num_arcs))
        assert residual == _dense_unitarity(R)
        del R
    U = dense.from_blocks(p, per_vertex, opp)
    if p.num_arcs < 2000:
        assert abs(residual - _dense_unitarity(U)) <= 4.5e-16
    basis = validation.build_invariant_basis(p, marked)
    B = basis.coords[basis.classes]
    image = U @ B.real + 1j * (U @ B.imag)
    want = float(np.abs(image - B @ (B.conj().T @ image)).max())
    got = validation.verify_subspace_invariance(basis, *_marked(basis, blocks))
    assert abs(got["subspace_invariance"] - want) <= 1e-15
    # B^H (U B), each entry's A terms summed exactly: two BLAS products
    # added them one after another, 1.7e-15 from the class compression on
    # J(6,3)
    terms = B.conj()[:, :, None] * image[:, None, :]
    compressed = np.array([[complex(math.fsum(terms[:, r, c].real), math.fsum(terms[:, r, c].imag))
                            for c in range(B.shape[1])] for r in range(B.shape[1])])
    step = validation._reduced_step(p)[0]
    want = float(np.abs(compressed - step).max())
    got = validation.verify_reduced_compression(_marked(basis, blocks)[1], step)
    assert abs(got["reduced_compression"] - want) <= 1e-15


@pytest.mark.parametrize("n,k,marked", [(5, 2, None), (5, 2, 4), (6, 3, 7)])
def test_unitarity_residual_in_place(n, k, marked):
    # bitwise the full Gram of blockdiag(B_v), and the blocks are left as they were
    p = graph_params(n, k)
    blocks = _arc_step.step_blocks(p.degree)
    held = blocks[:1] if marked is None else blocks
    before = [block.copy() for block in held]
    per_vertex = dense.vertex_blocks(p, marked)
    want = _dense_unitarity(dense.from_blocks(p, per_vertex, np.arange(p.num_arcs)))
    assert _arc_step.unitarity_residual(*held) == want
    assert all(np.array_equal(block, copy) for block, copy in zip(held, before))


def _column_by_column(params, marked=None):
    """One pair state per column, stepped by the engine's single-state passes."""
    vertices = pair_vertex_table(params)
    A = params.num_arcs
    U = np.empty((A, A))
    for a in range(A):
        e = np.zeros(A)
        e[a] = 1.0
        state = flat.to_pair(params, e)
        if marked is not None:
            arc_engine.apply_oracle(params, state, marked)
        U[:, a] = flat.shifted_to_flat(params, arc_engine.apply_coin(params, state, vertices))
    return U


@pytest.mark.parametrize("n,k", BLOCK_INSTANCES)
def test_dense_step_from_engine_matches_column_loop(n, k):
    # the degree probe states, compared with the blocks, give bitwise the
    # residual of stepping every unit column apart and comparing it with
    # the A x A step that holds the blocks; at most two arc-space matrices
    # are held
    p = graph_params(n, k)
    frame = _frame(p)
    opp = arc_pair_slots(p)[1]
    blocks = _arc_step.step_blocks(p.degree)
    for marked in (None, p.num_vertices - 1):
        residual = _arc_step.engine_residual(p, frame, blocks, marked)
        U = dense.from_blocks(p, dense.vertex_blocks(p, marked), opp)
        columns = _column_by_column(p, marked)
        np.subtract(U, columns, out=columns)
        assert residual == float(np.abs(columns, out=columns).max())
        del U, columns


@pytest.mark.parametrize("marked", [None, 101])
def test_engine_residual_holds_no_arc_space_matrix(marked):
    # each probe is placed in its own pair state and read at the arcs'
    # slots: besides the blocks and the frame passed in, the residual holds
    # one pair state and 2 N d floats at most, where an A x d probe matrix
    # and its step would hold 2 A d and more
    p = graph_params(12, 4)
    frame = _frame(p)
    blocks = _arc_step.step_blocks(p.degree)
    tracemalloc.start()
    try:
        residual = _arc_step.engine_residual(p, frame, blocks, marked)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert residual <= 1e-15
    assert peak <= 8 * (math.prod(flat.pair_shape(p)) + 2 * p.num_vertices * p.degree)


@pytest.mark.parametrize("marked", [None, 7])
def test_engine_residual_sees_a_swapped_vertex_table(monkeypatch, marked):
    # two (x, a) entries of different vertices swap their rows' vertex
    # bins, so a coin mean of 2/d lands on the wrong rows; certify's frame
    # takes the table from pair_vertex_table, and fails the engine checks
    p = graph_params(6, 3)
    blocks = _arc_step.step_blocks(p.degree)
    table = pair_vertex_table(p).copy()
    first = (0, 0)
    second = tuple(np.argwhere(table != table[first])[0])
    table[first], table[second] = table[second], table[first]
    frame = (table, arc_pair_slots(p)[0])
    assert _arc_step.engine_residual(p, frame, blocks, marked) >= 2.0 / p.degree
    monkeypatch.setattr(validation, "pair_vertex_table", lambda params: table)
    report = validation.certify(p, marked=7 if marked is None else marked)
    failed = {c.name for c in report.checks if not c.passed}
    assert {"step_closed_form_vs_engine", "marked_step_closed_form_vs_engine"} <= failed


@pytest.mark.parametrize("marked", [None, 7])
def test_engine_residual_sees_stray_entry(monkeypatch, marked):
    # the engine's step of the first arc leaving vertex 0 leaks 1e-3 onto
    # the slot of the first arc leaving vertex 1, outside its coin block,
    # where C·O has an exact zero; probe 0 carries the leak onto block 1's
    # entry
    p = graph_params(6, 3)
    frame = _frame(p)
    slots = frame[1]
    blocks = _arc_step.step_blocks(p.degree)
    assert _arc_step.engine_residual(p, frame, blocks, marked) <= 1e-15
    original = arc_engine.apply_coin

    def leaking(params, state, *args):
        source = state.reshape(-1)[slots[0]]
        out = original(params, state, *args)
        out.reshape(-1)[slots[p.degree]] += 1e-3 * source
        return out

    monkeypatch.setattr(arc_engine, "apply_coin", leaking)
    assert _arc_step.engine_residual(p, frame, blocks, marked) >= 1e-3 - 1e-15


def test_certify_steps_the_engine_pair_passes(monkeypatch):
    # the engine side of the battery runs the coin that simulate runs, on
    # pair states through the (x, a) -> vertex table
    p = graph_params(6, 3)
    vertices = pair_vertex_table(p)
    calls = []
    original = arc_engine.apply_coin

    def recording(params, state, *args, **kwargs):
        calls.append((state.shape[:3], args[0] if args else kwargs.get("vertices")))
        return original(params, state, *args, **kwargs)

    monkeypatch.setattr(arc_engine, "apply_coin", recording)
    assert validation.certify(p, marked=7).passed
    assert calls
    for shape, table in calls:
        assert shape == flat.pair_shape(p)
        assert np.array_equal(table, vertices)


@pytest.mark.parametrize("size", [60, 300])
def test_unitarity_residual_dense_orthogonal(size):
    # a block with no zeros, one block or a stack of them: every entry is
    # multiplied, the full product
    q, _ = np.linalg.qr(np.random.default_rng(size).standard_normal((size, size)))
    assert abs(_arc_step.unitarity_residual(q) - _dense_unitarity(q)) <= 1e-15
    want = max(_dense_unitarity(q[:30, :30]), _dense_unitarity(q[-30:, -30:]))
    assert _arc_step.unitarity_residual(q[:30, :30], q[-30:, -30:]) == want


def test_unitarity_residual_sees_stray_entry():
    # a 1e-3 perturbation of one entry of G, so of every unmarked vertex's
    # block, shows in unitarity and in the engine comparison
    p = graph_params(6, 3)
    grover, marked_block = _arc_step.step_blocks(p.degree)
    grover[2, 3] += 1e-3
    residual = _arc_step.unitarity_residual(grover, marked_block)
    per_vertex = dense.vertex_blocks(p, 7)
    per_vertex[np.arange(p.num_vertices) != 7, 2, 3] += 1e-3
    assert residual == _dense_unitarity(dense.from_blocks(p, per_vertex, np.arange(p.num_arcs)))
    assert residual >= 7e-4  # Gram entry (3, 2) moves by 1e-3 * |G[2, 2]| = 7/9 * 1e-3
    blocks = (grover, marked_block)
    assert _arc_step.engine_residual(p, _frame(p), blocks, 7) >= 1e-3 - 1e-15


def test_unitarity_residual_zero_column():
    grover, marked_block = _arc_step.step_blocks(graph_params(6, 3).degree)
    grover[:, 6] = 0.0
    assert _arc_step.unitarity_residual(grover, marked_block) == 1.0


def test_unitarity_residual_zero_last_column():
    grover, marked_block = _arc_step.step_blocks(graph_params(6, 3).degree)
    marked_block[:, -1] = 0.0
    assert _arc_step.unitarity_residual(grover, marked_block) == 1.0


@pytest.mark.parametrize("where", ["structural zero", "nonzero", "last"])
def test_unitarity_residual_nan_is_refused(where):
    # block 0 is G and block 1 B_marked; "structural zero" is an
    # off-diagonal entry of B_marked, which the rank-1 update sets to
    # exactly 0, and "nonzero" an entry of G
    p = graph_params(6, 3)
    blocks = _arc_step.step_blocks(p.degree)
    which, *entry = {"structural zero": (1, 0, 1), "nonzero": (0, 4, 2),
                     "last": (1, -1, -1)}[where]
    assert (blocks[which][tuple(entry)] == 0) == (where == "structural zero")
    blocks[which][tuple(entry)] = np.nan
    assert math.isnan(_arc_step.unitarity_residual(*blocks))
    assert math.isnan(_arc_step.engine_residual(p, _frame(p), blocks, 7))
    assert math.isnan(_arc_step.det_residual(*blocks))


def test_row_blocks_refuse_a_non_permutation():
    # an arc reversal that sends two arcs onto one row cannot place the
    # blocks, so the marked step on the classes, which both stages that read
    # the step through it take, is refused
    p = graph_params(6, 3)
    basis = validation.build_invariant_basis(p, 7)
    clash = basis.opposite.copy()
    clash[1] = clash[0]
    blocks = _arc_step.step_blocks(p.degree)
    bad = basis._replace(opposite=clash)
    with pytest.raises(ValueError, match="not a permutation"):
        validation._marked_class_step(bad, blocks)


@pytest.mark.parametrize("position", ["first", "last"])
def test_certify_is_the_one_judge(monkeypatch, capsys, position):
    # one stage returns a NaN as its first or its last residual and a finite
    # residual above tol; certify fails exactly those two checks, and
    # validate exits 1
    original = validation.verify_eigenbasis

    def corrupted(*args):
        residuals = original(*args)
        names = list(residuals)
        nan_name = names[0] if position == "first" else names[-1]
        high_name = names[1] if position == "first" else names[0]
        residuals[nan_name] = math.nan
        residuals[high_name] = 1e-3
        failing.update({nan_name, high_name})
        return residuals

    failing = set()
    monkeypatch.setattr(validation, "verify_eigenbasis", corrupted)
    report = validation.certify(graph_params(6, 2), marked=0, tol=1e-10)
    assert len(failing) == 2
    assert {c.name for c in report.checks if not c.passed} == failing
    assert not report.passed
    assert cli.main(["validate", "--n", "6", "--k", "2"]) == 1
    assert "certification failed" in capsys.readouterr().err


def _guard_full_det(monkeypatch, size):
    """Record the matrix shapes np.linalg.det and slogdet see; refuse size x size."""
    shapes = []
    for name in ("det", "slogdet"):
        original = getattr(np.linalg, name)

        def guarded(a, _original=original):
            shapes.append(np.shape(a))
            assert np.shape(a)[-2:] != (size, size), "full LU"
            return _original(a)

        monkeypatch.setattr(np.linalg, name, guarded)
    return shapes


@pytest.mark.parametrize("n,k", [(7, 1), (6, 2), (8, 4), (9, 3), (10, 3)])
def test_det_modulus_matches_full_lu(monkeypatch, n, k):
    # |det U| = |det G|^(N-1) |det B_marked| against one LU of the A x A
    # step built column by column (the LU rounds otherwise, so not
    # bitwise), and the row is the larger distance of the two from 1
    p = graph_params(n, k)
    opp = arc_pair_slots(p)[1]
    blocks = _arc_step.step_blocks(p.degree)
    with monkeypatch.context() as m:
        shapes = _guard_full_det(m, p.num_arcs)
        residual = _arc_step.det_residual(*blocks)
    assert shapes == [(2, p.degree, p.degree)]
    grover, marked_block = (abs(np.linalg.det(block)) for block in blocks)
    assert residual == max(abs(grover - 1.0), abs(marked_block - 1.0)) <= 1e-14
    for marked in (0, p.num_vertices - 1):
        full = abs(np.linalg.det(dense.step(p, marked, opp)))
        assert abs(grover ** (p.num_vertices - 1) * marked_block - full) <= 1e-13


@pytest.mark.parametrize("n,k,marked,where", [(6, 3, 7, "in a block"), (10, 3, 5, "in a block")])
def test_det_modulus_nan_is_refused(n, k, marked, where):
    # at the last row of G and then of B_marked; LAPACK's LU can take a NaN
    # for a zero pivot and return det 0
    p = graph_params(n, k)
    for which in (0, 1):
        blocks = _arc_step.step_blocks(p.degree)
        blocks[which][p.degree - 1, 0] = np.nan
        residuals = validation.verify_dense_step(p, marked, _frame(p), blocks)
        assert math.isnan(residuals["marked_step_det_modulus"])


def test_det_modulus_sees_scaled_block_column():
    p = graph_params(6, 3)
    for which in (0, 1):
        blocks = _arc_step.step_blocks(p.degree)
        blocks[which][:, 1] *= 0.5  # one column of G or of B_marked, so its |det| = 0.5
        residuals = validation.verify_dense_step(p, 7, _frame(p), blocks)
        assert abs(residuals["marked_step_det_modulus"] - 0.5) <= 1e-13


def test_certify_takes_no_full_lu(monkeypatch):
    p = graph_params(10, 3)
    shapes = _guard_full_det(monkeypatch, p.num_arcs)
    assert validation.certify(p, marked=rank_vertex(p, (1, 4, 7))).passed
    assert shapes == [(2, p.degree, p.degree)]


def _nan_at_second_call(original):
    calls = []

    def patched(*args):
        calls.append(None)
        out = original(*args)
        return out * np.nan if len(calls) == 2 else out
    return patched


@pytest.mark.parametrize("stage,module,name,check", [
    ("verify_eigenbasis", spectral, "eigenphase", "walk_eigenrelation"),
    ("verify_eigenbasis", spectral, "eigenvalue", "lift_norm_identities"),
    ("verify_spectral_closed_forms", spectral, "eigenvalue", "local_eigenvalues"),
    ("verify_spectral_closed_forms", spectral, "projector_weight", "local_weights"),
    ("verify_subspace_invariance", arc_engine, "apply_oracle", "oracle_action_identities"),
])
def test_nan_after_first_residual_term_is_refused(monkeypatch, stage, module, name, check):
    # a term after the first of each fold is NaN (level 2 of J(6,2), the
    # second oracle call); Python's max keeps a NaN only as its first term
    p = graph_params(6, 2)
    basis = validation.build_invariant_basis(p, 0)
    args = {"verify_eigenbasis": (basis, _frame(p)),
            "verify_spectral_closed_forms": (basis,),
            "verify_subspace_invariance": (
                basis, *_marked(basis, _arc_step.step_blocks(p.degree)))}[stage]
    original = getattr(module, name)
    if module is spectral:
        def patched(params, level):
            return math.nan if level == 2 else original(params, level)
    else:
        patched = _nan_at_second_call(original)
    monkeypatch.setattr(module, name, patched)
    assert math.isnan(getattr(validation, stage)(*args)[check])


def test_certify_checks_available_memory(monkeypatch):
    p = graph_params(5, 2)
    needed = 8 * validation._battery_words(p)
    monkeypatch.setattr(arc_engine, "_mem_available", lambda: needed - 1)
    with pytest.raises(CapacityError, match="available memory"):
        validation.certify(p)
    monkeypatch.setattr(arc_engine, "_mem_available", lambda: needed)
    assert validation.certify(p).passed
    monkeypatch.setattr(arc_engine, "_mem_available", lambda: None)  # unreadable
    assert validation.certify(p).passed
    # where memory cannot be read, the words are counted against the cap
    big = graph_params(40, 4)
    assert validation._battery_words(big) > arc_engine._UNMEASURED_CAPACITY
    with pytest.raises(CapacityError, match="cannot be read"):
        validation.certify(big)


def _certify_peak(n, k, marked):
    """certify's traced peak and stage growth on its first run in a fresh interpreter."""
    path = [str(Path(jwalk.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    script = Path(__file__).with_name("certify_peak.py")
    done = subprocess.run([sys.executable, str(script), str(n), str(k), str(marked)],
                          env=env, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout)


def test_certify_peak_memory_matches_model():
    # the byte check's count bounds the traced peak of certify's first run in
    # a fresh interpreter, as validate runs it; on J(10,3), J(12,4) and
    # J(20,3) the count is within two words per arc of that peak.  The
    # stages that read the basis, and the marked step on the classes, each
    # hold at most four arc vectors besides what certify holds, where one
    # arc-space basis column is two
    for n, k, marked, tight in ((10, 3, 5, True), (8, 4, 3, False), (12, 4, 7, True),
                                (20, 3, 11, True), (10, 5, 100, False)):
        run = _certify_peak(n, k, marked)
        A, peak, counted = run["arcs"], run["peak"], run["counted"]
        assert run["passed"], (n, k)
        assert peak <= counted, (n, k, peak / (8 * A), counted / (8 * A))
        if tight:
            assert counted - 2 * 8 * A <= peak, (n, k, peak / (8 * A), counted / (8 * A))
        assert len(run["growth"]) == 4 and max(run["growth"].values()) <= 8 * 4 * A, (n, k)


def test_certify_fails_impossible_tolerance():
    report = validation.certify(graph_params(6, 2), marked=0, tol=1e-30)
    assert not report.passed
    assert any(not c.passed for c in report.checks)
    # the exact integer identities still pass even at zero tolerance
    exact = {c.name: c.passed for c in report.checks}
    assert exact["shell_action_identity"]
    assert exact["oracle_action_identities"]


def test_certify_capacity_error():
    # J(200,3) counts about 37 GB, refused by the memory rule before
    # anything is allocated
    with pytest.raises(CapacityError, match="available memory"):
        validation.certify(graph_params(200, 3))


def _basis_fields(basis):
    """Every field of an invariant basis, with the lists' arrays stacked."""
    return {name: np.asarray(getattr(basis, name)) for name in basis._fields
            if name != "params"}


def test_intersection_mismatch_fails_shell_action_alone(monkeypatch):
    # intersection numbers patched to a_l + 1 leave the basis, which reads
    # none, bitwise as it was; the shell action alone sees them, and
    # certify reports it rather than raise
    p = graph_params(4, 2)
    basis = validation.build_invariant_basis(p, 0)
    original = validation.intersection_numbers

    def shifted(params, level):
        row = original(params, level)
        return row._replace(a=row.a + 1)

    monkeypatch.setattr(validation, "intersection_numbers", shifted)
    before, after = _basis_fields(basis), _basis_fields(validation.build_invariant_basis(p, 0))
    for name, value in before.items():
        assert np.array_equal(value, after[name]), name
    report = validation.certify(p, 0)
    assert [c.name for c in report.checks if not c.passed] == ["shell_action_identity"]
    assert not report.passed


def _quotient_eigenvalues(params):
    """Eigenvalues, in level order, of the adjacency on unit shell sums.

    That quotient is symmetric tridiagonal: diagonal a_l, off-diagonal
    sqrt(b_l * c_{l+1}), from the intersection numbers alone.
    """
    k = params.k
    rows = [intersection_numbers(params, l) for l in range(k + 1)]
    diagonal = [row.a for row in rows]
    off = [math.sqrt(rows[l].b * rows[l + 1].c) for l in range(k)]
    quotient = np.diag(diagonal).astype(float) + np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.eigvalsh(quotient)[::-1]


def test_quotient_residual_small_on_every_admitted_instance():
    # the Lanczos eigenvalues the basis is built from, on every J(n,k) with
    # n <= 40 and at most 5,000 vertices; the shell quotient, from the
    # intersection numbers alone, cross-checks them against lambda_l there
    # and at n = 1,000 and 5,000, where no graph is built
    def closed(p):
        return np.array([spectral.eigenvalue(p, l) for l in range(p.k + 1)], dtype=float)

    worst = quotient_worst = 0.0
    for n in range(3, 41):
        for k in range(1, n // 2 + 1):
            p = graph_params(n, k)
            if p.num_vertices > 5000:
                break
            values = validation._local_spectrum(_heads(p), 0, k + 1)[0]
            worst = float(np.max([worst, np.abs(values - closed(p)).max()]))
            quotient = np.abs(_quotient_eigenvalues(p) - closed(p)).max()
            quotient_worst = float(np.max([quotient_worst, quotient]))
    assert worst <= 1e-12
    assert quotient_worst <= 1e-12
    for n in (1000, 5000):
        for k in range(1, 9):
            p = graph_params(n, k)
            assert np.abs(_quotient_eigenvalues(p) - closed(p)).max() <= 1e-14 * p.degree


def test_start_coordinates_summed_pairwise():
    # the start's A = 58,140 equal terms per coordinate, summed one after
    # another by a BLAS product, gave 2.7e-13 on J(20,3); the class means
    # are corrected once for np.bincount's sums
    p = graph_params(20, 3)
    basis = validation.build_invariant_basis(p, 0)
    residuals = validation.verify_target_and_initial(basis, validation._reduced_step(p)[1])
    assert residuals["initial_coordinates"] <= 1e-15
    assert residuals["initial_in_subspace"] <= 1e-15


@pytest.mark.parametrize("n,k,marked", [(6, 3, (1, 2, 3)), (9, 3, (2, 5, 9)),
                                         (12, 4, (1, 2, 3, 4))])
def test_distance_shells_match_distance_class(n, k, marked):
    p = graph_params(n, k)
    w = rank_vertex(p, marked)
    want = [flat.distance_class(p, v, w) for v in range(p.num_vertices)]
    basis = validation.build_invariant_basis(p, w)
    got = sum(l * shell for l, shell in enumerate(basis.shell_indicators))
    assert got.tolist() == want
    assert all(shell.dtype == np.int64 for shell in basis.shell_indicators)


# CI's validate instances up to J(20,3), with the marked vertex CI uses
CI_INSTANCES = [(6, 2, None), (10, 3, None), (7, 1, None), (8, 4, None), (9, 3, (2, 5, 9)),
                (10, 5, None), (20, 1, None), (20, 3, None), (12, 4, None)]


@pytest.mark.parametrize("n,k,marked", CI_INSTANCES)
def test_arc_classes_match_orbit_walk(n, k, marked):
    # each arc's class is the pair of shells of its tail and head, read with
    # the scalar decoders, numbered as orbit_walk.classes numbers them; each
    # class holds |S_i| n_ij arcs, n_ij = c_i, a_i or b_i, exactly in integers
    p = graph_params(n, k)
    w = rank_vertex(p, marked or tuple(range(1, k + 1)))
    basis = validation.build_invariant_basis(p, w)
    classes = orbit_walk.classes(p)
    assert [tuple(pair) for pair in basis.class_shells.tolist()] == classes
    dist = np.array([flat.distance_class(p, v, w) for v in range(p.num_vertices)])
    tails = np.arange(p.num_arcs) // p.degree
    heads = flat.opposite(p) // p.degree
    index = {pair: c for c, pair in enumerate(classes)}
    want = [index[pair] for pair in zip(dist[tails].tolist(), dist[heads].tolist())]
    assert basis.classes.tolist() == want
    assert basis.classes.dtype.itemsize == 1
    for (i, j), size in zip(classes, basis.class_sizes.tolist()):
        row = intersection_numbers(p, i)
        count = {i - 1: row.c, i: row.a, i + 1: row.b}[j]
        assert type(size) is int and size == shell_size(p, i) * count
    assert basis.shell_sizes.tolist() == [shell_size(p, i) for i in range(k + 1)]


def test_invariant_basis_repr_names_the_arc_tables_by_shape():
    # the arc reversal, slots and class ids enter the repr by dtype and shape
    # alone, so it does not grow with the arcs: 23 times the arcs from
    # J(10,3) to J(20,3), and a repr of the same order
    lengths = []
    for n, k in ((10, 3), (20, 3)):
        basis = validation.build_invariant_basis(graph_params(n, k), 0)
        A = basis.params.num_arcs
        text = repr(basis)
        assert text.startswith("InvariantBasis(params=GraphParams(")
        for name in ("classes", "opposite", "slots"):
            table = getattr(basis, name)
            assert f"{name}=<{table.dtype} array of shape ({A},)>" in text
            assert repr(basis._replace(**{name: table[::-1].copy()})) == text
        lengths.append(len(text))
    assert max(lengths) < 10 * min(lengths), lengths


@pytest.mark.parametrize("n,k,marked", [(7, 1, None), (9, 3, (2, 5, 9)), (10, 5, None),
                                         (12, 4, None)])
def test_arc_basis_is_the_class_basis(n, k, marked):
    # the A x (2k+1) basis built arc by arc from the Lanczos projections
    # (tests/arc_basis.py) is C·Y, and every row read from it, stepping its
    # columns through the engine and the coin blocks, is the row certify
    # reads on the classes
    p = graph_params(n, k)
    w = rank_vertex(p, marked or tuple(range(1, k + 1)))
    basis = validation.build_invariant_basis(p, w)
    assert np.abs(arc_basis.matrix(basis) - basis.coords[basis.classes]).max() <= 1e-13
    blocks = _arc_step.step_blocks(p.degree)
    step, target = validation._reduced_step(p)
    oracle = arc_basis.rows(basis, _frame(p), blocks, target, step)
    report = {c.name: c.residual for c in validation.certify(p, marked=w).checks}
    assert len(oracle) == 10
    for name, value in oracle.items():
        assert value <= 1e-13 and abs(value - report[name]) <= 1e-13, name


def test_certify_steps_the_basis_once(monkeypatch):
    # the marked step on the classes is formed once and read by both stages
    # that need it; each step, unmarked and marked, steps each class
    # indicator once
    calls, indicators = [], []
    original, original_step = validation._marked_class_step, _arc_step.class_step

    def counting(basis, blocks):
        calls.append(basis.marked)
        return original(basis, blocks)

    def counting_step(classes, sizes, step):
        def recording(vector):
            indicators.append(np.flatnonzero(np.bincount(classes[vector])).tolist())
            return step(vector)
        return original_step(classes, sizes, recording)

    monkeypatch.setattr(validation, "_marked_class_step", counting)
    monkeypatch.setattr(_arc_step, "class_step", counting_step)
    p = graph_params(6, 3)
    assert validation.certify(p, marked=7).passed
    assert calls == [7]
    classes = len(orbit_walk.classes(p))
    assert indicators == [[c] for c in range(classes)] * 2


def test_cross_engine_probability_identity():
    # the compressed dynamics reproduces the dense one step by step
    p = graph_params(5, 2)
    basis = validation.build_invariant_basis(p, marked=0)
    B = basis.coords[basis.classes]
    step, target = validation._reduced_step(p)
    U = dense.step(p, 0, opposite=basis.opposite)
    psi = flat.to_flat(p, arc_engine.uniform_state(p))
    coords = np.eye(2 * p.k + 1, dtype=complex)[0]
    for _ in range(30):
        psi = U @ psi
        coords = step @ coords
        assert np.abs(B.conj().T @ psi - coords).max() <= 1e-11
        p_full = arc_engine.vertex_probability(p, flat.to_pair(p, psi), 0)
        p_red = abs(np.dot(target, coords)) ** 2
        assert abs(p_full - p_red) <= 1e-11


def test_lift_norms_summed_pairwise():
    # |S x|^2, |T x|^2 and |x|^2 over J(20,3)'s A = 58,140 arcs, summed one
    # after another by np.dot, gave 1.1e-14 with the default BLAS threads and
    # 3.4e-14 with one; on the classes they are sums of 3k and k+1 terms
    p = graph_params(20, 3)
    residuals = validation.verify_eigenbasis(validation.build_invariant_basis(p, 0), _frame(p))
    assert residuals["lift_norm_identities"] <= 2e-15
