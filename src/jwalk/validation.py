"""Dense brute-force oracles certifying every closed form on small instances.

Everything here trades memory for directness: the adjacency operator, the
walk step, and the invariant-subspace basis are materialized explicitly so
that the combinatorial and spectral formulas, the matrix-free engine, and
the reduced step matrix can each be checked against a computation that
shares none of their shortcuts.

The basis construction follows the lifting route: the marked vertex's
eigenspace projections are found from the (k+1)-dimensional symmetric
tridiagonal quotient of the adjacency action on distance shells, then
mapped into arc space by the symmetric lift

    (S x)[arc] = (x[tail] + x[head]) / sqrt(2)

and the antisymmetric lift with a minus sign.  These lifts satisfy
S^T S = degree*I + A and T^T T = degree*I - A, and combining them with the
walk eigenphases yields the orthonormal eigenbasis of the invariant
subspace that the reduced engine works in.

``certify`` builds the basis (which carries the closed form's arc
reversal), the marked dense step, and the reduced step matrix and target
once, and runs six stages on them.  The reduced step is rounded entry by
entry, once, from the 40-digit walk terms that the spectrum is solved
from (``reduced._walk_terms``); it is built here only, to be compared.
Each ``verify_*`` stage takes what it reads as required arguments and
returns its residuals by name; ``certify`` alone compares them with the
tolerance, so a stage never raises on a residual.  The only
check that raises is the quotient eigenvalue test inside
``build_invariant_basis``, without which no basis can be built.

The step matrices are real float64: the Grover coin, the flip-flop shift
and the oracle's reflection through a real vector have no imaginary part,
and the matrix-free engine they certify steps real float64 states too.
The invariant basis is complex128, since its columns carry the walk
eigenphases.  A dense matrix or an engine step only ever meets the basis
through its real and imaginary parts separately, so no A x A matrix is
upcast to complex.

Arc space here is numbered tail-major, as in ``jwalk.johnson``, and the
arc reversal of the closed forms comes from
:func:`jwalk.johnson.arc_pair_slots`.  The engine holds the walk as a pair
state ψ[x, y, a] instead (``jwalk.arc_engine``).  To step an arc vector,
it is placed at its pair slots in one pair state and run through the
passes that ``simulate`` runs, the oracle and then the coin through the
(x, a) -> vertex table.  S is the swap of x and y, so the step is read
back at each arc's transposed slot.

The step battery is O(A^2) work besides N d x d determinants, with d the
degree and N the number of vertices.  The engine is compared with a step
matrix through d probe states, not A unit columns: the step sends the arcs
leaving a vertex into a block of rows of their own, so probe c, the c-th
arc leaving every vertex, gives every column v*d + c at once, as
Curtis, Powell & Reid (1974) group the columns of a sparse Jacobian.  The
unitarity residual forms the Gram DENSE_BLOCK rows at a time from only the
rows of U that the block's columns touch, and only the columns that those
rows touch.  The marked step's |det| is the product of its N coin blocks'
d x d determinants, after one count of nonzeros shows that no entry lies
outside them.  On J(10,3) (A = 2,520, one pinned CPU of a 2-core x86-64,
one BLAS thread) ``verify_dense_step`` takes about 0.12 s: each Gram
0.035 s, each engine comparison 0.012 s, ``det`` 0.009 s (0.37 s as one
A x A LU).
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import mpmath
import numpy as np

from . import arc_engine, reduced, spectral
from .errors import CapacityError, CertificationError
from .johnson import (GraphParams, arc_pair_slots, distance_class,
                      intersection_numbers, pair_vertex_table, shell_size)

__all__ = [
    "DENSE_VERTEX_CAPACITY",
    "DENSE_ARC_CAPACITY",
    "DENSE_PEAK_MATRICES",
    "InvariantBasis",
    "CheckResult",
    "CertificationReport",
    "dense_adjacency",
    "dense_step",
    "build_invariant_basis",
    "verify_spectral_closed_forms",
    "verify_dense_step",
    "verify_eigenbasis",
    "verify_subspace_invariance",
    "verify_target_and_initial",
    "verify_reduced_compression",
    "certify",
]

DENSE_VERTEX_CAPACITY = 5000
DENSE_ARC_CAPACITY = 20000
# arc-space float64 matrices certify holds at its peak: the marked step,
# which it builds first, and the unmarked step
DENSE_PEAK_MATRICES = 2
# Gram rows the unitarity residual forms per block
DENSE_BLOCK = 128


def _require_dense(params: GraphParams) -> None:
    if params.num_vertices > DENSE_VERTEX_CAPACITY or params.num_arcs > DENSE_ARC_CAPACITY:
        raise CapacityError(
            f"dense oracles refuse J({params.n},{params.k}): "
            f"{params.num_vertices} vertices / {params.num_arcs} arcs exceed "
            f"caps {DENSE_VERTEX_CAPACITY} / {DENSE_ARC_CAPACITY}")


def _require_memory(params: GraphParams) -> None:
    arc_engine._require_bytes(
        DENSE_PEAK_MATRICES * params.num_arcs ** 2 * 8,
        f"dense oracles refuse J({params.n},{params.k}): the certification battery",
        "certify a smaller instance")


def dense_adjacency(params: GraphParams) -> np.ndarray:
    """Explicit 0/1 adjacency matrix, int64, built arc by arc."""
    _require_dense(params)
    opp = arc_pair_slots(params)[1]
    tails = np.arange(params.num_arcs) // params.degree
    heads = opp // params.degree
    adj = np.zeros((params.num_vertices, params.num_vertices), dtype=np.int64)
    adj[tails, heads] = 1
    return adj


def dense_step(params: GraphParams,
               marked: Optional[int] = None,
               opposite: Optional[np.ndarray] = None) -> np.ndarray:
    """Walk step as an explicit arc-space matrix, from the closed form.

    Column a carries 2/degree on every arc whose head equals tail(a),
    minus 1 on the reverse of a; float64.  With a ``marked`` vertex the
    oracle's reflection is folded in as the rank-1 update
    U - 2 (U t) t^T on the right, where t is the uniform superposition of
    the marked out-arcs; only the marked block's columns change, so only
    they are updated.  ``None`` is the unmarked walk.
    """
    _require_dense(params)
    d = params.degree
    A = params.num_arcs
    opp = arc_pair_slots(params)[1] if opposite is None else opposite
    cols = np.arange(A)
    U = np.zeros((A, A))
    U[opp.reshape(-1, d)[cols // d], cols[:, None]] = 2.0 / d
    U[opp, cols] -= 1.0
    if marked is None:
        return U
    block = slice(marked * d, (marked + 1) * d)
    target = np.zeros(A)
    target[block] = 1.0 / np.sqrt(d)
    U[:, block] -= 2.0 * np.outer(U @ target, target[block])
    return U


def _pair_layout(params: GraphParams) -> tuple:
    """The engine's vertex table, the pair-state shape, and each arc's slot and transposed slot."""
    vertices = pair_vertex_table(params)
    slots, opposite = arc_pair_slots(params)
    return vertices, vertices.shape[:1] + vertices.shape, slots, slots[opposite]


def _pair_state(vector: np.ndarray, slots: np.ndarray, shape: tuple) -> np.ndarray:
    """The arc-order ``vector`` placed in a zeroed pair state of ``shape``."""
    state = np.zeros(math.prod(shape))
    state[slots] = vector
    return state.reshape(shape)


def _engine_step(params: GraphParams, columns: np.ndarray, layout: tuple,
                 marked: Optional[int] = None) -> np.ndarray:
    """One engine step of each arc-order column of ``columns``, one pair state at a time.

    ``layout`` is :func:`_pair_layout`.  Runs the passes of
    :func:`jwalk.arc_engine.evolve_and_record` on the tail side, O then C,
    on each column's pair state.  S is the swap of x and y in the pair
    layout, so S·C·O·ψ at an arc is C·O·ψ at the arc's transposed slot.
    """
    vertices, shape, slots, transposed = layout
    stepped = np.empty(columns.shape)
    for j in range(columns.shape[1]):
        state = _pair_state(columns[:, j], slots, shape)
        if marked is not None:
            arc_engine.apply_oracle(params, state, marked)
        stepped[:, j] = arc_engine.apply_coin(params, state, vertices).reshape(-1)[transposed]
    return stepped


@dataclass(frozen=True)
class InvariantBasis:
    """Explicit arc-space basis of the search's invariant subspace.

    ``basis`` columns are ordered (stationary, level-1 plus, level-1
    minus, ..., level-k plus, level-k minus).  The shell indicators, lifts,
    marked vertex's arcs and arc reversal used to build it are kept for
    certification.
    """

    params: GraphParams
    marked: int
    shell_indicators: list           # (N,) int64 indicator of each shell
    marked_out: np.ndarray           # arcs from shell 0 to 1, leaving the marked vertex
    marked_in: np.ndarray            # arcs from shell 1 to 0, entering it
    proj_w: list                     # eigenspace projections of the marked state
    sym_lifts: list                  # symmetric lifts of proj_w
    antisym_lifts: list              # antisymmetric lifts of proj_w
    basis: np.ndarray                # (num_arcs, 2k+1) complex columns
    target_arc: np.ndarray           # uniform superposition of marked out-arcs
    opposite: np.ndarray = field(repr=False)  # each arc's reverse, tail-major


def build_invariant_basis(params: GraphParams, marked: int) -> InvariantBasis:
    """Construct the orthonormal eigenbasis explicitly in arc space."""
    _require_dense(params)
    n, k, d = params.n, params.k, params.degree
    N, A = params.num_vertices, params.num_arcs

    dist = np.array([distance_class(params, v, marked) for v in range(N)])
    shell_indicators = [(dist == l).astype(np.int64) for l in range(k + 1)]

    opp = arc_pair_slots(params)[1]
    tails = np.arange(A) // d
    heads = opp // d
    dist_t, dist_h = dist[tails], dist[heads]
    marked_out = ((dist_t == 0) & (dist_h == 1)).astype(float)
    marked_in = ((dist_t == 1) & (dist_h == 0)).astype(float)

    # adjacency restricted to shell sums, in the unit-shell basis: symmetric
    # tridiagonal with diagonal a_l and off-diagonal sqrt(b_l * c_{l+1})
    rows = [intersection_numbers(params, l) for l in range(k + 1)]
    quot = np.zeros((k + 1, k + 1))
    for l in range(k + 1):
        quot[l, l] = rows[l].a
        if l < k:
            quot[l, l + 1] = quot[l + 1, l] = np.sqrt(rows[l].b * rows[l + 1].c)
    eigvals, eigvecs = np.linalg.eigh(quot)

    closed = [spectral.eigenvalue(params, l) for l in range(k + 1)]
    sizes = np.array([shell_size(params, l) for l in range(k + 1)], dtype=float)
    proj_w = []
    for l in range(k + 1):
        col = k - l  # eigh sorts ascending, closed-form values descend with l
        if abs(eigvals[col] - closed[l]) > 1e-9 * max(1.0, abs(closed[l])):
            raise CertificationError("tridiagonal quotient eigenvalues",
                                     abs(eigvals[col] - closed[l]), 1e-9)
        u = eigvecs[:, col]
        shell_coeff = u * u[0] / np.sqrt(sizes)
        vec = np.zeros(N)
        for m in range(k + 1):
            vec[dist == m] = shell_coeff[m]
        proj_w.append(vec)

    sym_lifts = [(v[tails] + v[heads]) / np.sqrt(2.0) for v in proj_w]
    antisym_lifts = [(v[tails] - v[heads]) / np.sqrt(2.0) for v in proj_w]

    basis = np.zeros((A, 2 * k + 1), dtype=np.complex128)
    p0 = np.linalg.norm(proj_w[0])
    basis[:, 0] = sym_lifts[0] / (np.sqrt(2.0 * d) * p0)
    for l in range(1, k + 1):
        lam = closed[l]
        omega = spectral.eigenphase(params, l)
        p_l = np.linalg.norm(proj_w[l])
        scale = np.sqrt(d) / (2.0 * np.sqrt(float(d * d - lam * lam)) * p_l)
        for sign, col in ((+1, 2 * l - 1), (-1, 2 * l)):
            phase = np.exp(-1j * sign * omega)
            basis[:, col] = (sign * 1j * scale) * (
                (phase - 1.0) * sym_lifts[l] + (phase + 1.0) * antisym_lifts[l])

    target_arc = marked_out.astype(np.complex128) / np.sqrt(d)

    return InvariantBasis(
        params=params, marked=marked,
        shell_indicators=shell_indicators,
        marked_out=marked_out, marked_in=marked_in,
        proj_w=proj_w, sym_lifts=sym_lifts, antisym_lifts=antisym_lifts,
        basis=basis, target_arc=target_arc, opposite=opp,
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class CertificationReport:
    params: GraphParams
    marked: int
    tol: float
    checks: list
    passed: bool


def _engine_residual(params: GraphParams, U: np.ndarray,
                     marked: Optional[int] = None) -> float:
    """max |U - engine step|, read from ``degree`` probe states.

    Probe c holds the c-th arc leaving every vertex, so it stands for U's
    columns v*d + c.  A step sends the arcs leaving v into rows
    opposite[v*d:(v+1)*d] alone, and the probe's vertices share no row
    sum, vertex bin or oracle block, so its step is bitwise the sum of
    those unit columns' steps, each on rows of its own.  It is compared
    with the sum of U's columns v*d + c, which on a step matrix adds only
    exact zeros; so on a correct engine the residual is bitwise the
    column-by-column one.  A column's image that leaks out of its rows, in
    U or in the engine, lands in the sum and shows unless the leaks of one
    probe cancel in a row.  A NaN anywhere gives NaN.
    """
    N, d, A = params.num_vertices, params.degree, params.num_arcs
    stepped = _engine_step(params, np.tile(np.eye(d), (N, 1)), _pair_layout(params), marked)
    return float(np.max(np.abs(stepped - U.reshape(A, N, d).sum(axis=1))))


def _unitarity_residual(U: np.ndarray) -> float:
    """max |U^T U - I| of a real matrix, formed DENSE_BLOCK Gram rows at a time.

    Gram rows J are U[:, J]^T U.  A row of U where U[:, J] is zero adds
    exact zeros to them, and so does a column that is zero on the rows
    left, so only the rows in U[:, J]'s support, and the columns in
    theirs or in J, are multiplied.  On a step matrix both number about
    |J|, a coin block maps onto one row block, so the work is O(A^2) reads
    of U; on a dense matrix it is the full product.  Keeping J keeps the
    identity's entries and a zero column in view, and a NaN puts its row
    and its column in the support, so the residual is NaN.  The A x A Gram
    is never allocated.
    """
    A = U.shape[1]
    block_max = []
    for start in range(0, A, DENSE_BLOCK):
        stop = min(start + DENSE_BLOCK, A)
        cols = np.arange(start, stop)
        rows = U[np.flatnonzero(np.any(U[:, start:stop], axis=1))]
        support = np.union1d(cols, np.flatnonzero(np.any(rows, axis=0)))
        gram = rows[:, start:stop].T @ rows[:, support]
        gram[np.arange(len(cols)), np.searchsorted(support, cols)] -= 1.0
        block_max.append(np.abs(gram, out=gram).max())
    return float(np.max(block_max))


def _det_modulus(params: GraphParams, U: np.ndarray, opposite: np.ndarray) -> float:
    """|det U| from the step's N coin blocks, or from a full LU where that is not exact.

    Column block v (the arcs leaving vertex v) of a step has its nonzeros
    in rows opposite[v*d:(v+1)*d] alone: the coin mixes the block and the
    flip-flop shift sends it there, and the marked step's rank-1 update
    combines the marked block's own columns.  With ``opposite`` a
    permutation these row sets partition the rows, so U = P B with P a
    permutation matrix, |det P| = 1, and B block-diagonal with blocks
    B_v = U[opposite[v*d:(v+1)*d], v*d:(v+1)*d]; |det U| is the product
    of the |det B_v|, O(N d^3) work.  That holds exactly when every
    nonzero of U lies in a block, which one count of nonzeros shows (a
    NaN counts as nonzero); otherwise the A x A LU decides, so the check
    is never weaker.  A NaN gives NaN: LAPACK's LU can take it for a zero
    pivot and return 0.
    """
    N, d, A = params.num_vertices, params.degree, params.num_arcs
    if np.array_equal(np.sort(opposite), np.arange(A)):
        blocks = U[opposite.reshape(N, d, 1), np.arange(A).reshape(N, 1, d)]
        if np.count_nonzero(U) == np.count_nonzero(blocks):
            U = blocks
    if np.isnan(U).any():
        return math.nan
    return float(np.prod(np.abs(np.linalg.det(U))))


def verify_spectral_closed_forms(params: GraphParams, marked: int,
                                 basis: InvariantBasis) -> dict:
    """Dense adjacency eigendecomposition against every closed form.

    Checks eigenvalues, their multiplicities (exact after nearest-value
    assignment), the marked vertex's projector weights, and the exact
    integer three-term action of the adjacency matrix on shell sums.
    """
    adj = dense_adjacency(params)
    k = params.k
    closed = np.array([spectral.eigenvalue(params, l) for l in range(k + 1)], dtype=float)
    eigvals, eigvecs = np.linalg.eigh(adj.astype(float))

    assign = np.abs(eigvals[:, None] - closed[None, :]).argmin(axis=1)
    lambda_residual = np.abs(eigvals - closed[assign]).max()
    counts = np.bincount(assign, minlength=k + 1)
    expected = np.array([spectral.multiplicity(params, l) for l in range(k + 1)])
    multiplicity_residual = float(np.abs(counts - expected).max())

    row = eigvecs[marked, :]
    # folded with np.max, not Python's max, which drops a NaN after the first
    weight_residual = float(np.max([
        abs(float(np.sum(row[assign == l] ** 2)) - spectral.projector_weight(params, l))
        for l in range(k + 1)]))

    action_residual = 0
    zero = np.zeros(params.num_vertices, dtype=np.int64)
    for l in range(k + 1):
        r = intersection_numbers(params, l)
        above = basis.shell_indicators[l + 1] if l < k else zero
        below = basis.shell_indicators[l - 1] if l > 0 else zero
        got = adj @ basis.shell_indicators[l]
        want = (intersection_numbers(params, l + 1).c if l < k else 0) * above \
            + r.a * basis.shell_indicators[l] \
            + (intersection_numbers(params, l - 1).b if l > 0 else 0) * below
        action_residual = max(action_residual, int(np.abs(got - want).max()))

    return {
        "adjacency_eigenvalues": float(lambda_residual),
        "adjacency_multiplicities": multiplicity_residual,
        "projector_weights": weight_residual,
        "shell_action_identity": float(action_residual),
    }


def verify_dense_step(params: GraphParams, marked: int, opposite: np.ndarray,
                      dense_marked_step: np.ndarray) -> dict:
    """Closed-form step matrix versus the engine, plus unitarity.

    The engine steps ``degree`` probe states (:func:`_engine_residual`),
    the Gram is formed a block of rows at a time from the rows it touches,
    and the unmarked step is dropped before the marked checks.  So at most
    DENSE_PEAK_MATRICES arc-space matrices are alive at once, the caller's
    ``dense_marked_step`` included.  The marked step's |det| comes from its
    d x d coin blocks (:func:`_det_modulus`), with a full LU only for a
    matrix that has an entry outside them.  The engine side runs the pair
    passes that ``simulate`` runs; ``opposite`` is the closed form's arc
    reversal, and the blocks are read through it.
    """
    residuals = {}
    U = dense_step(params, opposite=opposite)
    residuals["step_closed_form_vs_engine"] = _engine_residual(params, U)
    residuals["step_unitarity"] = _unitarity_residual(U)
    del U
    Um = dense_marked_step
    residuals["marked_step_closed_form_vs_engine"] = _engine_residual(params, Um, marked)
    residuals["marked_step_unitarity"] = _unitarity_residual(Um)
    residuals["marked_step_det_modulus"] = abs(_det_modulus(params, Um, opposite) - 1.0)
    return residuals


def verify_eigenbasis(params: GraphParams, basis: InvariantBasis) -> dict:
    """Orthonormality and eigenrelations of the explicit basis.

    Also certifies the lift norm identities |S x|^2 = (d+lambda)|x|^2,
    |T x|^2 = (d-lambda)|x|^2 on the eigenspace projections, and that the
    antisymmetric lift kills the stationary projection.
    """
    k, d = params.k, params.degree
    B = basis.basis
    residuals = {
        "basis_gram": float(np.abs(B.conj().T @ B - np.eye(2 * k + 1)).max()),
        "stationary_antisymmetric_lift": float(np.linalg.norm(basis.antisym_lifts[0])),
    }

    # the step is real-linear: step the real and imaginary parts of every
    # column apart
    parts = _engine_step(params, np.hstack([B.real, B.imag]), _pair_layout(params))
    stepped = parts[:, :2 * k + 1] + 1j * parts[:, 2 * k + 1:]
    eig_terms = [np.linalg.norm(stepped[:, 0] - B[:, 0])]
    for l in range(1, k + 1):
        omega = spectral.eigenphase(params, l)
        for sign, col in ((+1, 2 * l - 1), (-1, 2 * l)):
            eig_terms.append(np.linalg.norm(
                stepped[:, col] - np.exp(sign * 1j * omega) * B[:, col]))
    # folded with np.max, not Python's max, which drops a NaN after the first
    residuals["walk_eigenrelation"] = float(np.max(eig_terms))

    lift_terms = []
    for l in range(k + 1):
        lam = spectral.eigenvalue(params, l)
        p_sq = float(np.dot(basis.proj_w[l], basis.proj_w[l]))
        lift_terms += [
            abs(np.dot(basis.sym_lifts[l], basis.sym_lifts[l]) - (d + lam) * p_sq),
            abs(np.dot(basis.antisym_lifts[l], basis.antisym_lifts[l]) - (d - lam) * p_sq)]
    residuals["lift_norm_identities"] = float(np.max(lift_terms))
    return residuals


def verify_subspace_invariance(params: GraphParams, marked: int, basis: InvariantBasis,
                               dense_marked_step: np.ndarray) -> dict:
    """The subspace is closed under the marked walk; oracle action is exact.

    The oracle identities hold bitwise: reflecting the all-ones marked
    block sends ``marked_out`` to its negative and fixes ``marked_in``.
    """
    Um = dense_marked_step
    B = basis.basis
    image = Um @ B.real + 1j * (Um @ B.imag)
    residuals = {
        "subspace_invariance": float(np.abs(image - B @ (B.conj().T @ image)).max()),
    }

    _, shape, slots, _ = _pair_layout(params)

    def oracle(vector):
        state = arc_engine.apply_oracle(params, _pair_state(vector, slots, shape), marked)
        return state.reshape(-1)[slots]

    b0, c1 = basis.marked_out, basis.marked_in
    oracle_b0 = oracle(b0)
    oracle_mix = oracle(b0 - c1)
    exact = float(np.max([np.abs(oracle_b0 + b0).max(),
                          np.abs(oracle_mix + b0 + c1).max()]))
    residuals["oracle_action_identities"] = exact
    return residuals


def _reduced_step(params: GraphParams) -> tuple:
    """The reduced step diag(e^{i phi}) (I - 2 w w^T) and the target w, in double.

    Built from :func:`jwalk.reduced._walk_terms` in basis order (0,
    +omega_1, -omega_1, ..., +omega_k, -omega_k); every entry is computed
    at ``spectral._MP_DPS`` digits and rounded once, to complex128 and
    float64.
    """
    k = params.k
    phases, weights = reduced._walk_terms(params)
    order = [k] + [j for l in range(1, k + 1) for j in (k + l, k - l)]
    with mpmath.workdps(spectral._MP_DPS):
        rotations = [mpmath.expj(phases[j]) for j in order]
        w = [mpmath.sqrt(weights[j]) for j in order]
        step = np.array([[complex(z * ((r == c) - 2 * w[r] * w[c])) for c in range(len(w))]
                         for r, z in enumerate(rotations)])
        target = np.array([float(x) for x in w])
    return step, target


def verify_target_and_initial(params: GraphParams, basis: InvariantBasis,
                              target: np.ndarray) -> dict:
    """Target and start vectors have the predicted basis coordinates.

    ``target`` is the reduced walk's target w (:func:`_reduced_step`); the
    start is the first basis vector.
    """
    B = basis.basis
    coords_target = B.conj().T @ basis.target_arc
    psi0 = arc_engine.uniform_state(params).reshape(-1)[arc_pair_slots(params)[0]]
    coords_initial = B.conj().T @ psi0
    e0 = np.zeros(2 * params.k + 1)
    e0[0] = 1.0
    return {
        "target_coordinates": float(np.abs(coords_target - target).max()),
        "initial_coordinates": float(np.abs(coords_initial - e0).max()),
        "target_initial_overlap": abs(
            np.vdot(basis.target_arc, psi0) - 1.0 / np.sqrt(params.num_vertices)),
        "initial_in_subspace": float(np.linalg.norm(psi0 - B @ coords_initial)),
    }


def verify_reduced_compression(basis: InvariantBasis, dense_marked_step: np.ndarray,
                               reduced_step: np.ndarray) -> dict:
    """The reduced step (:func:`_reduced_step`) is the basis compression of the dense one."""
    Bh = basis.basis.conj().T
    Um = dense_marked_step
    compressed = (Bh.real @ Um + 1j * (Bh.imag @ Um)) @ basis.basis
    return {
        "reduced_compression": float(np.abs(compressed - reduced_step).max()),
    }


def certify(params: GraphParams, marked: int = 0, tol: float = 1e-10) -> CertificationReport:
    """Run the whole certification battery; never raises on check failure.

    Builds the invariant basis, the marked dense step, and the reduced step
    and target once, and hands them to every stage that reads them.  Each
    stage returns its residuals; this is the one place they are judged, and a
    check passes when its residual is within ``tol``, so a NaN fails.
    Refuses with CapacityError, before allocating, an instance whose
    DENSE_PEAK_MATRICES arc-space float64 matrices exceed ``MemAvailable``
    (skipped where /proc/meminfo cannot be read).
    """
    _require_dense(params)
    _require_memory(params)
    basis = build_invariant_basis(params, marked)
    dense_marked = dense_step(params, marked, opposite=basis.opposite)
    reduced_step, target = _reduced_step(params)
    stages = [
        verify_spectral_closed_forms(params, marked, basis),
        verify_dense_step(params, marked, basis.opposite, dense_marked),
        verify_eigenbasis(params, basis),
        verify_subspace_invariance(params, marked, basis, dense_marked),
        verify_target_and_initial(params, basis, target),
        verify_reduced_compression(basis, dense_marked, reduced_step),
    ]
    checks = [CheckResult(name=name, residual=float(value), tol=tol, passed=bool(value <= tol))
              for residuals in stages for name, value in residuals.items()]
    return CertificationReport(
        params=params, marked=marked, tol=tol, checks=checks,
        passed=all(c.passed for c in checks),
    )
