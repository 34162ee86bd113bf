"""Brute-force oracles certifying every closed form, with no dense object.

Each quantity is computed here directly from the graph or the walk,
sharing none of the shortcuts of the formulas, the matrix-free engine or
the reduced step matrix it checks.  The adjacency is read from the arc
reversal; the walk step is U = P blockdiag(B_v), the arc reversal P and
two distinct d x d coin blocks (:func:`_step_blocks`); the
invariant-subspace basis is materialized explicitly.

The basis construction follows the lifting route: the marked vertex's
eigenspace projections are read from k+1 Lanczos steps (Lanczos 1950)
from it, whose Krylov space in the distance-regular J(n,k) is the span of
its k+1 distance shells (Brouwer, Cohen & Neumaier, *Distance-Regular
Graphs*); with Q the Lanczos vectors and y_l the Jacobi matrix's
eigenvectors, the projection on eigenspace l is y_l[0] Q^T y_l.  They are
mapped into arc space by the symmetric lift

    (S x)[arc] = (x[tail] + x[head]) / sqrt(2)

and the antisymmetric lift with a minus sign.  These lifts satisfy
S^T S = degree*I + A and T^T T = degree*I - A, and combining them with the
walk eigenphases yields the orthonormal eigenbasis of the invariant
subspace that the reduced engine works in.

The basis keeps the Lanczos eigenvalues, projector weights and closing
beta it is built from, and the spectral stage compares them with the
closed forms; nothing in the basis reads the intersection numbers, which
that stage checks exactly, in integers.  J(n,k) is vertex-transitive,
hence walk-regular, so the weights read from the Jacobi matrix are m_l / N
and certify the multiplicities too.  A Lanczos breakdown leaves the basis
NaN, so the battery fails rather than raises.

``certify`` builds the basis (which carries the closed form's arc
reversal), the step's two coin blocks, their image U B of the basis and
its compression B^H (U B), and the reduced step matrix and target once,
and runs six stages on them.  The reduced step is rounded entry by entry,
once, from the 40-digit walk terms that the spectrum is solved from
(``spectral.walk_terms``); it is built here only, to be compared.
Each ``verify_*`` stage takes what it reads as required arguments, the
instance and marked vertex from the basis where it takes one, and
returns its residuals by name; ``certify`` alone compares them with the
tolerance, so no check raises.

The report is byte-identical across runs at one BLAS thread count, but
not across thread counts: the matrix products split their sums by
thread, which moves the residuals' last bits.

The coin blocks are real float64: the Grover coin, the flip-flop shift
and the oracle's reflection through a real vector have no imaginary part,
and the matrix-free engine they certify steps real float64 states too.
The invariant basis is complex128, since its columns carry the walk
eigenphases.  The blocks or an engine step only ever meet the basis
through its real and imaginary parts separately, so no block is upcast
to complex.

Arc space here is numbered tail-major, as in ``jwalk.johnson``.  The
basis keeps the arc reversal and each arc's slot in the engine's pair
state ψ[x, y, a], both from :func:`jwalk.johnson.arc_pair_slots`; with the
engine's (x, a) -> vertex table the slots are the *pair frame*, built once
by ``certify``.  The passes that ``simulate`` runs, the oracle and then
the coin, are C·O = blockdiag(B_v) read at the slots, and S is the swap of
x and y, so a whole step is read from the swapped state at the slots.

Cost, with A = N d the arcs, d the degree and N the number of vertices:
the battery holds the basis, its lifts and its products, O(A k) words,
and arc tables of O(A); nothing is N x N, A x A or N x d x d.  The engine
is compared with the blocks through d probe states, not A unit columns,
as Curtis, Powell & Reid (1974) group the columns of a sparse Jacobian
(:func:`_engine_residual`).  In-process, on one pinned CPU of a 2-core
x86-64 with one BLAS thread (the host's speed varied), ``certify`` takes
0.007-0.010 s on J(10,3) (A = 2,520), 0.027-0.035 s on J(10,5),
0.037-0.056 s on J(12,4) (A = 15,840) and 0.13 s on J(20,3)
(A = 58,140), where an N x N adjacency ``eigh`` and N copies of the coin
block took it to 0.51-0.64 s; and 4.2-5.1 s on J(40,3) (A = 1,096,680),
about half of it the two engine comparisons, whose 111 probes each
step a whole pair state, and about 0.01 s each the Lanczos run in the
basis build and the spectral stage.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import mpmath
import numpy as np

from . import arc_engine, spectral
from .johnson import (GraphParams, _colex_subsets, arc_pair_slots, intersection_numbers,
                      pair_vertex_table, unrank_vertex)

__all__ = [
    "InvariantBasis",
    "CheckResult",
    "CertificationReport",
    "build_invariant_basis",
    "verify_spectral_closed_forms",
    "verify_dense_step",
    "verify_eigenbasis",
    "verify_subspace_invariance",
    "verify_target_and_initial",
    "verify_reduced_compression",
    "certify",
]

# 8-byte words that certify holds at most (:func:`_battery_words`): per arc
# and basis column, the basis with the lifts it is built from and the
# stages' complex products with it; per arc, the arc tables (reversal,
# slots, heads, the marked vertex's arcs) and the engine's pair state
_BASIS_WORDS = 8
_ARC_WORDS = 8


def _battery_words(params: GraphParams) -> int:
    """An upper bound on the 8-byte words certify holds at once."""
    return params.num_arcs * (_BASIS_WORDS * (2 * params.k + 1) + _ARC_WORDS)


def _require_memory(params: GraphParams) -> None:
    words = _battery_words(params)
    arc_engine._require_bytes(
        8 * words, f"certify refuses J({params.n},{params.k}): the certification battery",
        "certify a smaller instance", words=words)


def _step_blocks(degree: int) -> tuple:
    """The step's two coin blocks (G, B_marked), (d, d) float64 each, from the closed form.

    Every unmarked vertex's block is the Grover block G = (2/d) J - I.  The
    marked vertex's takes the oracle as the rank-1 update
    B_marked = G - 2 (G t) t^T, with t the uniform unit vector, not as the
    -I it equals in exact arithmetic, so it shares nothing with the
    engine's oracle.  The step is U = P blockdiag(B_v), with P the arc
    reversal: column v*d + c is B_v's column c on rows opposite[v*d:(v+1)*d].
    """
    grover = np.full((degree, degree), 2.0 / degree)
    grover[np.arange(degree), np.arange(degree)] -= 1.0
    t = np.full(degree, 1.0 / np.sqrt(degree))
    return grover, grover - 2.0 * np.outer(grover @ t, t)


def _pair_state(params: GraphParams, slots: np.ndarray, values) -> np.ndarray:
    """A zeroed pair state holding ``values`` at the flat pair ``slots``."""
    state = np.zeros(arc_engine._pair_shape(params))
    state.reshape(-1)[slots] = values
    return state


def _engine_step(params: GraphParams, frame: tuple, vector: np.ndarray) -> np.ndarray:
    """The unmarked step S·C of the arc-order ``vector`` through the pair ``frame``.

    The coin runs on the vector's pair state, and S is applied as the swap
    of x and y: the step is the swapped state read at the slots.
    """
    vertices, slots = frame
    state = arc_engine.apply_coin(params, _pair_state(params, slots, vector), vertices)
    return state.swapaxes(0, 1).reshape(-1)[slots]


def _local_spectrum(heads: np.ndarray, start: int, steps: int) -> tuple:
    """Vertex ``start``'s spectrum from ``steps`` Lanczos steps.

    Returns (eigenvalues, weights, closure, projections).  The adjacency
    acts as one gather and sum, (A x)[v] = sum_c x[heads[v, c]], and each
    Lanczos vector is orthogonalised against all the earlier ones by
    classical Gram-Schmidt, twice.  The Jacobi matrix's eigenvalues come in
    decreasing order, each weighted by the square of its eigenvector y_l's
    first entry; the closure is the beta after the last step; and row l of
    the (steps, N) projections is y_l[0] Q^T y_l, with Q the Lanczos
    vectors, the projection of ``start``'s unit vector on eigenspace l,
    which lies in the Krylov space once it closes.  A breakdown, a beta of
    0 before the last step, gives NaN for all four.
    """
    lanczos = np.zeros((steps + 1, len(heads)))
    lanczos[0, start] = 1.0
    alpha, beta = np.full(steps, math.nan), np.full(steps, math.nan)
    for j in range(steps):
        q, w = lanczos[:j + 1], lanczos[j][heads].sum(axis=1)
        alpha[j] = lanczos[j] @ w
        for _ in range(2):
            w -= q.T @ (q @ w)
        beta[j] = np.linalg.norm(w)
        if not beta[j] > 0:
            break
        lanczos[j + 1] = w / beta[j]
    if np.isnan(beta).any():
        return (np.full(steps, math.nan), np.full(steps, math.nan), math.nan,
                np.full((steps, len(heads)), math.nan))
    values, vectors = np.linalg.eigh(
        np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1))
    vectors = vectors[:, ::-1]
    return (values[::-1], vectors[0] ** 2, float(beta[-1]),
            (vectors[0] * vectors).T @ lanczos[:steps])


@dataclass(frozen=True)
class InvariantBasis:
    """Explicit arc-space basis of the search's invariant subspace.

    ``basis`` columns are ordered (stationary, level-1 plus, level-1
    minus, ..., level-k plus, level-k minus).  The marked vertex's
    Lanczos spectrum (:func:`_local_spectrum`), shell indicators, lifts,
    marked vertex's arcs and arc reversal used to build it are kept for
    certification, and so are the arcs' pair slots.
    """

    params: GraphParams
    marked: int
    local_eigenvalues: np.ndarray    # (k+1,) Lanczos eigenvalues, in level order
    local_weights: np.ndarray        # (k+1,) the marked vertex's projector weights
    krylov_closure: float            # the beta after the last Lanczos step
    shell_indicators: list           # (N,) int64 indicator of each shell
    marked_out: np.ndarray           # arcs from shell 0 to 1, leaving the marked vertex
    marked_in: np.ndarray            # arcs from shell 1 to 0, entering it
    proj_w: np.ndarray               # (k+1, N) eigenspace projections of the marked state
    sym_lifts: list                  # symmetric lifts of proj_w
    antisym_lifts: list              # antisymmetric lifts of proj_w
    basis: np.ndarray                # (num_arcs, 2k+1) complex columns
    target_arc: np.ndarray           # uniform superposition of marked out-arcs
    opposite: np.ndarray = field(repr=False)  # each arc's reverse, tail-major
    slots: np.ndarray = field(repr=False)     # each arc's slot in a flat pair state


def build_invariant_basis(params: GraphParams, marked: int) -> InvariantBasis:
    """Construct the orthonormal eigenbasis explicitly in arc space."""
    n, k, d = params.n, params.k, params.degree
    N, A = params.num_vertices, params.num_arcs

    # distance k - |v ∩ marked| of every vertex, from the colex k-subsets
    dist = k - np.isin(_colex_subsets(n, k), unrank_vertex(params, marked)).sum(axis=1)
    shell_indicators = [(dist == l).astype(np.int64) for l in range(k + 1)]

    slots, opp = arc_pair_slots(params)
    tails = np.arange(A) // d
    heads = opp // d
    dist_t, dist_h = dist[tails], dist[heads]
    marked_out = ((dist_t == 0) & (dist_h == 1)).astype(float)
    marked_in = ((dist_t == 1) & (dist_h == 0)).astype(float)

    local_eigenvalues, local_weights, krylov_closure, proj_w = _local_spectrum(
        heads.reshape(N, d), marked, k + 1)
    sym_lifts = [(v[tails] + v[heads]) / np.sqrt(2.0) for v in proj_w]
    antisym_lifts = [(v[tails] - v[heads]) / np.sqrt(2.0) for v in proj_w]

    basis = np.zeros((A, 2 * k + 1), dtype=np.complex128)
    p0 = np.linalg.norm(proj_w[0])
    basis[:, 0] = sym_lifts[0] / (np.sqrt(2.0 * d) * p0)
    for l in range(1, k + 1):
        lam = spectral.eigenvalue(params, l)
        omega = spectral.eigenphase(params, l)
        p_l = np.linalg.norm(proj_w[l])
        scale = np.sqrt(d) / (2.0 * np.sqrt(float(d * d - lam * lam)) * p_l)
        for sign, col in ((+1, 2 * l - 1), (-1, 2 * l)):
            phase = np.exp(-1j * sign * omega)
            basis[:, col] = (sign * 1j * scale) * (
                (phase - 1.0) * sym_lifts[l] + (phase + 1.0) * antisym_lifts[l])

    target_arc = marked_out.astype(np.complex128) / np.sqrt(d)

    return InvariantBasis(
        params=params, marked=marked, local_eigenvalues=local_eigenvalues,
        local_weights=local_weights, krylov_closure=krylov_closure,
        shell_indicators=shell_indicators,
        marked_out=marked_out, marked_in=marked_in,
        proj_w=proj_w, sym_lifts=sym_lifts, antisym_lifts=antisym_lifts,
        basis=basis, target_arc=target_arc, opposite=opp, slots=slots,
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


def _engine_residual(params: GraphParams, frame: tuple, blocks: tuple,
                     marked: Optional[int] = None) -> float:
    """max |blockdiag(B_v) - C·O| over the coin blocks, from ``degree`` probe states.

    ``blocks`` is (G, B_marked) (:func:`_step_blocks`): every vertex's
    block is G, except the ``marked`` vertex's, which is B_marked.
    ``frame`` is the pair frame (vertex table, slots).  U = S·C·O is
    P blockdiag(B_v), so C·O is blockdiag(B_v) on the arcs' slots, where
    ``leaving[v]`` holds the arcs leaving v.  Probe c, a zeroed pair state
    with a 1 at the c-th arc leaving every vertex, stands for the columns
    v*d + c: their vertices share no row sum, vertex bin or oracle block,
    so its step at ``leaving[v, r]`` is bitwise B_v[r, c].  Every arc of
    every probe is compared, so an image that leaks out of its block shows
    unless the leaks of one probe cancel at an arc.  Besides the blocks it
    holds one pair state and N d floats.  A NaN anywhere gives NaN.
    """
    vertices, slots = frame
    grover, marked_block = blocks
    leaving = slots.reshape(params.num_vertices, params.degree)

    def probe(c):
        state = _pair_state(params, leaving[:, c], 1.0)
        if marked is not None:
            arc_engine.apply_oracle(params, state, marked)
        stepped = arc_engine.apply_coin(params, state, vertices).reshape(-1)[leaving]
        own = None if marked is None else stepped[marked] - marked_block[:, c]
        stepped -= grover[:, c]
        if own is not None:
            stepped[marked] = own
        return np.abs(stepped, out=stepped).max()

    # folded with np.max, not Python's max, which drops a NaN after the first
    return float(np.max([probe(c) for c in range(params.degree)]))


def _unitarity_residual(*blocks: np.ndarray) -> float:
    """max |U^T U - I| of a step U = P blockdiag(B_v) whose blocks are ``blocks``.

    P is a permutation, so U^T U = blockdiag(B_v^T B_v): the Gram is
    block-diagonal by vertex, its entries off the blocks are exact zeros,
    and a block held at many vertices has one Gram.  A NaN in a block
    gives NaN.
    """
    stack = np.stack(blocks)
    gram = stack.transpose(0, 2, 1) @ stack
    diagonal = np.arange(stack.shape[1])
    gram[:, diagonal, diagonal] -= 1.0
    return float(np.abs(gram, out=gram).max())


def _det_residual(*blocks: np.ndarray) -> float:
    """max | |det B| - 1 | over the distinct coin ``blocks`` of a step U = P blockdiag(B_v).

    |det P| = 1, and each distinct block is read once, where the product
    of N - 1 equal determinants would multiply their rounding by N - 1.  A
    NaN gives NaN: LAPACK's LU can take it for a zero pivot and return 0.
    """
    stack = np.stack(blocks)
    if np.isnan(stack).any():
        return math.nan
    return float(np.abs(np.abs(np.linalg.det(stack)) - 1.0).max())


def verify_spectral_closed_forms(basis: InvariantBasis) -> dict:
    """The marked vertex's Lanczos spectrum and the intersection numbers against the closed forms.

    Checks the eigenvalues and weights of the k+1 Lanczos steps from the
    marked vertex that the basis was built from (:func:`_local_spectrum`)
    against lambda_l and m_l / N, and the beta after them, 0 when the
    Krylov space closes; and the exact integer three-term action of the
    adjacency on shell indicators.  The adjacency is read from the basis's
    arc reversal alone.
    """
    params, k = basis.params, basis.params.k
    heads = (basis.opposite // params.degree).reshape(params.num_vertices, params.degree)
    closed = np.array([spectral.eigenvalue(params, l) for l in range(k + 1)], dtype=float)
    weights = np.array([spectral.projector_weight(params, l) for l in range(k + 1)])

    action_terms = []
    zero = np.zeros(params.num_vertices, dtype=np.int64)
    for l in range(k + 1):
        r = intersection_numbers(params, l)
        above = basis.shell_indicators[l + 1] if l < k else zero
        below = basis.shell_indicators[l - 1] if l > 0 else zero
        got = basis.shell_indicators[l][heads].sum(axis=1)
        want = (intersection_numbers(params, l + 1).c if l < k else 0) * above \
            + r.a * basis.shell_indicators[l] \
            + (intersection_numbers(params, l - 1).b if l > 0 else 0) * below
        action_terms.append(np.abs(got - want).max())

    return {
        "local_eigenvalues": float(np.abs(basis.local_eigenvalues - closed).max()),
        "local_weights": float(np.abs(basis.local_weights - weights).max()),
        "krylov_closure": basis.krylov_closure,
        "shell_action_identity": float(np.max(action_terms)),
    }


def verify_dense_step(params: GraphParams, marked: int, frame: tuple, blocks: tuple) -> dict:
    """Closed-form step versus the engine, plus unitarity and |det|.

    Each step is read from the coin ``blocks`` (G, B_marked)
    (:func:`_step_blocks`): the engine steps ``degree`` probe states
    through the pair ``frame`` (:func:`_engine_residual`), unitarity is
    max |B^T B - I| over the blocks a step holds, G alone unmarked, and the
    marked step's |det| is read from G and B_marked apart
    (:func:`_det_residual`).  The engine side runs the pair passes that
    ``simulate`` runs.
    """
    return {
        "step_closed_form_vs_engine": _engine_residual(params, frame, blocks),
        "step_unitarity": _unitarity_residual(blocks[0]),
        "marked_step_closed_form_vs_engine": _engine_residual(params, frame, blocks, marked),
        "marked_step_unitarity": _unitarity_residual(*blocks),
        "marked_step_det_modulus": _det_residual(*blocks),
    }


def verify_eigenbasis(basis: InvariantBasis, frame: tuple) -> dict:
    """Orthonormality and eigenrelations of the explicit basis.

    The engine steps each column through the pair ``frame`` and the shift,
    the swap of x and y (:func:`_engine_step`), so the eigenrelation also
    checks the shift against the arc reversal the basis is built from.
    Also certifies the lift norm identities |S x|^2 = (d+lambda)|x|^2,
    |T x|^2 = (d-lambda)|x|^2 on the eigenspace projections, each term
    relative to its own (d +- lambda)|x|^2, and that the antisymmetric lift
    kills the stationary projection.
    """
    params, B = basis.params, basis.basis
    k, d = params.k, params.degree
    residuals = {
        "basis_gram": float(np.abs(B.conj().T @ B - np.eye(2 * k + 1)).max()),
        "stationary_antisymmetric_lift": float(np.linalg.norm(basis.antisym_lifts[0])),
    }

    # the step is real-linear: step the real and imaginary parts of every
    # column apart
    stepped = [_engine_step(params, frame, B.real[:, j])
               + 1j * _engine_step(params, frame, B.imag[:, j]) for j in range(2 * k + 1)]
    eig_terms = [np.linalg.norm(stepped[0] - B[:, 0])]
    for l in range(1, k + 1):
        omega = spectral.eigenphase(params, l)
        for sign, col in ((+1, 2 * l - 1), (-1, 2 * l)):
            eig_terms.append(np.linalg.norm(
                stepped[col] - np.exp(sign * 1j * omega) * B[:, col]))
    # folded with np.max, not Python's max, which drops a NaN after the first
    residuals["walk_eigenrelation"] = float(np.max(eig_terms))

    lift_terms = []
    for l in range(k + 1):
        lam = spectral.eigenvalue(params, l)
        # summed pairwise: np.dot adds the terms one after another with one
        # BLAS thread, and its error grows with A
        p_sq = float(np.sum(basis.proj_w[l] * basis.proj_w[l]))
        for lift, scale in ((basis.sym_lifts[l], d + lam), (basis.antisym_lifts[l], d - lam)):
            # the terms grow with d; at d - lambda_0 = 0, level 0's antisymmetric
            # lift, the term stays absolute: stationary_antisymmetric_lift squared
            error = abs(np.sum(lift * lift) - scale * p_sq)
            lift_terms.append(error / (scale * p_sq) if scale else error)
    residuals["lift_norm_identities"] = float(np.max(lift_terms))
    return residuals


def _step_basis(basis: InvariantBasis, blocks: tuple) -> np.ndarray:
    """The marked step's image U B of the complex basis B, real and imaginary parts apart.

    ``blocks`` is (G, B_marked) (:func:`_step_blocks`).  G multiplies all N
    of B's d-row blocks in one broadcast product, and the marked vertex's
    rows are then overwritten by B_marked's product; vertex v's lands on
    the rows opposite[v*d:(v+1)*d].  ValueError unless the arc reversal is
    a permutation.
    """
    grover, marked_block = blocks
    N, d = basis.params.num_vertices, basis.params.degree
    if not np.array_equal(np.sort(basis.opposite), np.arange(N * d)):
        raise ValueError("the arc reversal is not a permutation of the arcs")
    rows = basis.opposite.reshape(N, d)
    image = np.empty(basis.basis.shape, dtype=np.complex128)
    for part, source in ((image.real, basis.basis.real), (image.imag, basis.basis.imag)):
        source = source.reshape(N, d, -1)
        part[rows] = grover @ source
        part[rows[basis.marked]] = marked_block @ source[basis.marked]
    return image


def verify_subspace_invariance(basis: InvariantBasis, image: np.ndarray,
                               compressed: np.ndarray) -> dict:
    """The subspace is closed under the marked walk; oracle action is exact.

    ``image`` is the marked step's image U B of the basis
    (:func:`_step_basis`), and ``compressed`` its compression B^H (U B).
    B (B^H U B) is subtracted from ``image`` in place, so ``image`` is
    overwritten by the residual; ``certify`` drops it right after.  The
    oracle identities hold bitwise: reflecting the all-ones marked block
    sends ``marked_out`` to its negative and fixes ``marked_in``.
    """
    params, B = basis.params, basis.basis
    image -= B @ compressed
    residuals = {"subspace_invariance": float(np.abs(image).max())}

    def oracle(vector):
        state = arc_engine.apply_oracle(params, _pair_state(params, basis.slots, vector),
                                        basis.marked)
        return state.reshape(-1)[basis.slots]

    b0, c1 = basis.marked_out, basis.marked_in
    oracle_b0 = oracle(b0)
    oracle_mix = oracle(b0 - c1)
    exact = float(np.max([np.abs(oracle_b0 + b0).max(),
                          np.abs(oracle_mix + b0 + c1).max()]))
    residuals["oracle_action_identities"] = exact
    return residuals


def _reduced_step(params: GraphParams) -> tuple:
    """The reduced step diag(e^{i phi}) (I - 2 w w^T) and the target w, in double.

    Built from :func:`jwalk.spectral.walk_terms` in basis order (0,
    +omega_1, -omega_1, ..., +omega_k, -omega_k); every entry is computed
    at ``spectral._MP_DPS`` digits and rounded once, to complex128 and
    float64.
    """
    k = params.k
    phases, weights = spectral.walk_terms(params)
    order = [k] + [j for l in range(1, k + 1) for j in (k + l, k - l)]
    with mpmath.workdps(spectral._MP_DPS):
        rotations = [mpmath.expj(phases[j]) for j in order]
        w = [mpmath.sqrt(weights[j]) for j in order]
        step = np.array([[complex(z * ((r == c) - 2 * w[r] * w[c])) for c in range(len(w))]
                         for r, z in enumerate(rotations)])
        target = np.array([float(x) for x in w])
    return step, target


def verify_target_and_initial(basis: InvariantBasis, target: np.ndarray) -> dict:
    """Target and start vectors have the predicted basis coordinates.

    ``target`` is the reduced walk's target w (:func:`_reduced_step`); the
    start is the first basis vector.  The start's coordinates are summed
    column by column with numpy's pairwise sum: the start has A equal
    nonzero terms, which a BLAS product adds one after another, with an
    error that grows linearly in A.
    """
    params, B = basis.params, basis.basis
    coords_target = B.conj().T @ basis.target_arc
    psi0 = arc_engine.uniform_state(params).reshape(-1)[basis.slots]
    coords_initial = np.array([np.sum(B[:, j].conj() * psi0) for j in range(B.shape[1])])
    e0 = np.zeros(2 * params.k + 1)
    e0[0] = 1.0
    return {
        "target_coordinates": float(np.abs(coords_target - target).max()),
        "initial_coordinates": float(np.abs(coords_initial - e0).max()),
        "target_initial_overlap": abs(
            np.vdot(basis.target_arc, psi0) - 1.0 / np.sqrt(params.num_vertices)),
        "initial_in_subspace": float(np.linalg.norm(psi0 - B @ coords_initial)),
    }


def verify_reduced_compression(compressed: np.ndarray, reduced_step: np.ndarray) -> dict:
    """The reduced step (:func:`_reduced_step`) is the basis compression B^H (U B) of the marked one.

    ``compressed`` is B^H (U B), with U B from :func:`_step_basis`.
    """
    return {"reduced_compression": float(np.abs(compressed - reduced_step).max())}


def certify(params: GraphParams, marked: int = 0, tol: float = 1e-10) -> CertificationReport:
    """Run the whole certification battery; never raises on check failure.

    Builds what the stages read once, as the module docstring lists, and
    hands it to every stage that reads it.  Each stage returns its
    residuals; this is the one place they are judged, and a check passes
    when its residual is within ``tol``, so a NaN fails.
    Refuses with CapacityError, before allocating, an instance whose words
    (:func:`_battery_words`) exceed ``MemAvailable``.  Its tracemalloc
    peak is 0.90 of the words counted on J(10,3) (1.29 MB), and 0.88 on
    J(40,3) and J(100,2).
    """
    _require_memory(params)
    basis = build_invariant_basis(params, marked)
    frame = (pair_vertex_table(params), basis.slots)
    blocks = _step_blocks(params.degree)
    reduced_step, target = _reduced_step(params)
    stages = [
        verify_spectral_closed_forms(basis),
        verify_dense_step(params, marked, frame, blocks),
        verify_eigenbasis(basis, frame),
    ]
    image = _step_basis(basis, blocks)
    compressed = basis.basis.conj().T @ image
    stages.append(verify_subspace_invariance(basis, image, compressed))
    # now the subspace residual; dropped before the target stage, which would
    # otherwise raise the peak with it
    del image
    stages += [verify_target_and_initial(basis, target),
               verify_reduced_compression(compressed, reduced_step)]
    checks = [CheckResult(name=name, residual=float(value), tol=tol, passed=bool(value <= tol))
              for residuals in stages for name, value in residuals.items()]
    return CertificationReport(
        params=params, marked=marked, tol=tol, checks=checks,
        passed=all(c.passed for c in checks),
    )
