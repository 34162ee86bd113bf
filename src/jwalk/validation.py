"""Brute-force oracles certifying every closed form, with no dense object.

Each quantity is computed here directly from the graph or the walk,
sharing none of the shortcuts of the formulas, the matrix-free engine or
the reduced step matrix it checks.  The adjacency is read from the arc
reversal; the walk step is U = P blockdiag(B_v), the arc reversal P and
two distinct d x d coin blocks (``jwalk._arc_step``); the
invariant-subspace basis is held in arc-class coordinates.

The basis construction follows the lifting route: the marked vertex's
eigenspace projections are read from k+1 Lanczos steps (Lanczos 1950)
from it, whose Krylov space in the distance-regular J(n,k) is the span of
its k+1 distance shells (Brouwer, Cohen & Neumaier, *Distance-Regular
Graphs*); with Q the Lanczos vectors and y_l the Jacobi matrix's
eigenvectors, the projection on eigenspace l is y_l[0] Q^T y_l.  A
projection x is constant on each shell, and it is mapped into arc space by
the symmetric lift

    (S x)[arc] = (x[tail] + x[head]) / sqrt(2)

and the antisymmetric lift with a minus sign.  These lifts satisfy
S^T S = degree*I + A and T^T T = degree*I - A, and combining them with the
walk eigenphases yields the orthonormal eigenbasis of the invariant
subspace that the reduced engine works in.

A lift of a shell-constant x is constant on each *arc class*: the arcs
from shell i to shell j, with j = i - 1, i or i + 1, 3k classes (3k - 1
at n = 2k), which partition the arcs equitably for the walk (Godsil &
Royle, *Algebraic Graph Theory* ch. 9).  So the basis is B = C·Y, with C
the A x K class indicators, held as one small-integer class id per arc,
and Y the K x (2k+1) values of the basis on the classes, read from the
shell averages of the projections.  Every row that reads the basis is
algebra on Y weighted by the class sizes: B^H B = Y^H diag(sizes) Y, and
the norm of C y is that of y weighted by the sizes.  The arc side is the
walk's step of one class indicator at a time, through the engine's pair
passes and through the coin blocks and the arc reversal: each image's
class means make the step on the classes, M with U C = C M, and its
largest deviation from them, 0 in exact arithmetic, is a term of the row
that reads M (``_arc_step.class_step``).

The basis keeps the Lanczos eigenvalues, projector weights and closing
beta it is built from, and the spectral stage compares them with the
closed forms; nothing in the basis reads the intersection numbers or the
shell sizes, which that stage checks exactly, in integers, and which the
class sizes are counted from.  J(n,k) is vertex-transitive, hence
walk-regular, so the weights read from the Jacobi matrix are m_l / N and
certify the multiplicities too.  A Lanczos breakdown leaves the basis
NaN, so the battery fails rather than raises.

``certify`` builds the basis (which carries the closed form's arc
reversal and the arcs' classes), the step's two coin blocks, the marked
step on the classes and its compression Y^H diag(sizes) M Y, and the
reduced step matrix and target once, and runs six stages on them.  The
reduced step is rounded entry by entry, once, from the 40-digit walk
terms that the spectrum is solved from (``spectral.walk_terms``); it is
built here only, to be compared.  Each ``verify_*`` stage takes what it
reads as required arguments, the instance and marked vertex from the
basis where it takes one, and returns its residuals by name; ``certify``
alone compares them with the tolerance, so no check raises.

The report is byte-identical across runs, and on CI's instances with one
BLAS thread as with two, except J(100,2)'s ``marked_step_det_modulus``:
the LU of its 196 x 196 blocks splits its work by thread.  The class
coordinates Y are complex128, since the basis carries the walk
eigenphases; the arc-level steps act on real class indicators, and only
the K x K step on the classes meets Y.

Arc space here is numbered tail-major, as in ``jwalk.johnson``.  The
basis keeps the arc reversal and each arc's slot in the engine's pair
state, both from :func:`jwalk.johnson.arc_pair_slots`; with the engine's
(x, a) -> vertex table the slots are the pair frame that ``_arc_step``
steps the engine through, built once by ``certify``.

Cost, with A = N d the arcs, d the degree and N the number of vertices:
the battery holds the arc tables (reversal, slots, class ids) and a few
arc vectors and pair states at a time, about five words per arc, and
nothing of size A x k, N x N, A x A or N x d x d
(:func:`_battery_words`).  The engine is compared with the blocks through
d probe states (``_arc_step.engine_residual``), and the basis through 2K
class indicators.  In-process, on a 2-core x86-64 with one BLAS thread
(the host's speed varied), ``certify`` takes about 0.01 s on J(10,3)
(A = 2,520), 0.03 s on J(12,4) (A = 15,840) and 0.1-0.17 s on J(20,3)
(A = 58,140); 2.1-2.8 s on J(40,3) (A = 1,096,680), more than half of it
the step stage, whose 222 probes each step a whole pair state, and
0.4-0.6 s each the 9 unmarked and the 9 marked class-indicator steps; and
60-68 s on J(40,4) (A = 13,160,160), about 41 s of it the 288 probes.
"""

import math
from typing import NamedTuple

import numpy as np

from . import _arc_step, arc_engine, spectral
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

# 8-byte words that certify holds at most (:func:`_battery_words`): per arc,
# the arc tables (reversal, slots, class ids), the engine's pair state, and
# the arc vectors a class indicator is stepped and averaged through; per
# entry of a d x d coin block, the two blocks and the stacks the step stage
# reads them through; and a fixed 32 KiB for the vertex tables and the
# interpreter's own objects, which outweigh the arcs below about 10^4 of them
_ARC_WORDS = 6
_BLOCK_WORDS = 4
_FIXED_WORDS = 2 ** 12


def _battery_words(params: GraphParams) -> int:
    """An upper bound on the 8-byte words certify holds at once."""
    return (_ARC_WORDS * params.num_arcs + _BLOCK_WORDS * params.degree ** 2
            + _FIXED_WORDS)


def _require_memory(params: GraphParams) -> None:
    words = _battery_words(params)
    arc_engine._require_bytes(
        8 * words, f"certify refuses J({params.n},{params.k}): the certification battery",
        "certify a smaller instance", words=words)


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


class InvariantBasis(NamedTuple):
    """The invariant subspace's eigenbasis in arc-class coordinates, B = C·Y.

    C is the A x K indicator matrix of the arc classes, held as one class
    id per arc, and Y = ``coords`` holds the basis's value on each class,
    one column per basis vector, ordered (stationary, level-1 plus,
    level-1 minus, ..., level-k plus, level-k minus).  Class c holds the
    arcs from shell ``class_shells[c, 0]`` to shell ``class_shells[c, 1]``,
    classes numbered in that (tail, head) order.  Shell 0 reaches shell 1
    alone, and shell 1 reaches shell 0 first, so class 0 is (0, 1), the
    marked vertex's out-arcs, and class 1 is (1, 0), its in-arcs.  The
    marked vertex's Lanczos spectrum (:func:`_local_spectrum`), its
    projections and their shell averages, and the shell indicators and
    sizes they were averaged with are kept for certification, and so are
    the arc reversal and the arcs' pair slots.
    """

    params: GraphParams
    marked: int
    local_eigenvalues: np.ndarray    # (k+1,) Lanczos eigenvalues, in level order
    local_weights: np.ndarray        # (k+1,) the marked vertex's projector weights
    krylov_closure: float            # the beta after the last Lanczos step
    shell_indicators: list           # (N,) int64 indicator of each shell
    shell_sizes: np.ndarray          # (k+1,) int64 vertices in each shell
    proj_w: np.ndarray               # (k+1, N) eigenspace projections of the marked state
    shell_proj: np.ndarray           # (k+1, k+1) proj_w's average on each shell
    class_shells: np.ndarray         # (K, 2) int64 shells of each class's tails and heads
    class_sizes: np.ndarray          # (K,) int64 arcs in each class
    coords: np.ndarray               # (K, 2k+1) complex Y
    classes: np.ndarray              # (A,) each arc's class id, tail-major
    opposite: np.ndarray             # (A,) each arc's reverse, tail-major
    slots: np.ndarray                # (A,) each arc's slot in a flat pair state

    def __repr__(self) -> str:
        # the three arc tables by dtype and shape, not by their A entries each
        shown = [f"{name}={value!r}" for name, value in zip(self._fields[:-3], self)]
        shown += [f"{name}=<{value.dtype} array of shape {value.shape}>"
                  for name, value in zip(self._fields[-3:], self[-3:])]
        return f"InvariantBasis({', '.join(shown)})"


def _class_lifts(shell_proj: np.ndarray, class_shells: np.ndarray) -> tuple:
    """The symmetric and antisymmetric lifts of the shell projections, (k+1, K) class values each.

    (S x)[arc] = (x[tail] + x[head]) / sqrt(2), and T with a minus sign, for
    an x constant on each shell.
    """
    tail, head = shell_proj[:, class_shells[:, 0]], shell_proj[:, class_shells[:, 1]]
    return (tail + head) / np.sqrt(2.0), (tail - head) / np.sqrt(2.0)


def build_invariant_basis(params: GraphParams, marked: int) -> InvariantBasis:
    """Class each arc by its ends' shells, and construct the eigenbasis on the classes."""
    n, k, d = params.n, params.k, params.degree
    N = params.num_vertices

    # distance k - |v ∩ marked| of every vertex, from the colex k-subsets
    dist = k - np.isin(_colex_subsets(n, k), unrank_vertex(params, marked)).sum(axis=1)
    shell_indicators = [(dist == l).astype(np.int64) for l in range(k + 1)]
    shell_sizes = np.array([shell.sum() for shell in shell_indicators])

    slots, opp = arc_pair_slots(params)
    heads = (opp // d).reshape(N, d)
    local_eigenvalues, local_weights, krylov_closure, proj_w = _local_spectrum(
        heads, marked, k + 1)

    # an arc's pair of shells (i, j) as i (k+1) + j; the pairs that occur,
    # in increasing order, are the class ids
    pairs = dist[heads]
    del heads
    pairs += (dist * (k + 1))[:, None]
    pairs = pairs.ravel()
    counts = np.bincount(pairs, minlength=(k + 1) ** 2)
    present = np.flatnonzero(counts)
    ids = (np.cumsum(counts > 0) - 1).astype(np.min_scalar_type(len(present) - 1))
    classes = ids[pairs]
    del pairs
    class_shells = np.column_stack(divmod(present, k + 1))

    # summed pairwise, shell by shell
    shell_proj = np.array([[np.sum(v[dist == i]) for i in range(k + 1)]
                           for v in proj_w]) / shell_sizes
    sym, antisym = _class_lifts(shell_proj, class_shells)
    norms = np.sqrt(shell_proj ** 2 @ shell_sizes)

    coords = np.zeros((len(present), 2 * k + 1), dtype=np.complex128)
    coords[:, 0] = sym[0] / (np.sqrt(2.0 * d) * norms[0])
    for l in range(1, k + 1):
        lam = spectral.eigenvalue(params, l)
        omega = spectral.eigenphase(params, l)
        scale = np.sqrt(d) / (2.0 * np.sqrt(float(d * d - lam * lam)) * norms[l])
        for sign, col in ((+1, 2 * l - 1), (-1, 2 * l)):
            phase = np.exp(-1j * sign * omega)
            coords[:, col] = (sign * 1j * scale) * (
                (phase - 1.0) * sym[l] + (phase + 1.0) * antisym[l])

    return InvariantBasis(
        params=params, marked=marked, local_eigenvalues=local_eigenvalues,
        local_weights=local_weights, krylov_closure=krylov_closure,
        shell_indicators=shell_indicators, shell_sizes=shell_sizes, proj_w=proj_w,
        shell_proj=shell_proj, class_shells=class_shells, class_sizes=counts[present],
        coords=coords, classes=classes, opposite=opp, slots=slots,
    )


def _class_norm(sizes: np.ndarray, values: np.ndarray) -> float:
    """The 2-norm of the arc vector that takes ``values`` on classes of ``sizes`` arcs."""
    return float(np.sqrt(np.sum(sizes * np.abs(values) ** 2)))


class CheckResult(NamedTuple):
    name: str
    residual: float
    tol: float
    passed: bool


class CertificationReport(NamedTuple):
    params: GraphParams
    marked: int
    tol: float
    checks: list
    passed: bool


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
    (``_arc_step.step_blocks``): the engine steps ``degree`` probe
    states through the pair ``frame`` (``_arc_step.engine_residual``),
    unitarity is
    max |B^T B - I| over the blocks a step holds, G alone unmarked, and the
    marked step's |det| is read from G and B_marked apart
    (``_arc_step.det_residual``).  The engine side runs the pair passes that
    ``simulate`` runs.
    """
    return {
        "step_closed_form_vs_engine": _arc_step.engine_residual(params, frame, blocks),
        "step_unitarity": _arc_step.unitarity_residual(blocks[0]),
        "marked_step_closed_form_vs_engine":
            _arc_step.engine_residual(params, frame, blocks, marked),
        "marked_step_unitarity": _arc_step.unitarity_residual(*blocks),
        "marked_step_det_modulus": _arc_step.det_residual(*blocks),
    }


def verify_eigenbasis(basis: InvariantBasis, frame: tuple) -> dict:
    """Orthonormality and eigenrelations of the basis, on the class coordinates.

    The Gram is Y^H diag(sizes) Y.  The engine steps each class indicator
    through the pair ``frame`` and the shift, the swap of x and y
    (``_arc_step.engine_step``), and the images' class means are the unmarked
    step M on the classes (``_arc_step.class_step``).  Each eigenrelation is the
    norm of C (M - e^{i phi}) y, and the images' largest deviation from
    their class means is a term of the same row, so the row also checks
    the shift against the arc reversal the classes are read from.  Also
    certifies the lift norm identities |S x|^2 = (d+lambda)|x|^2,
    |T x|^2 = (d-lambda)|x|^2 on the shell averages x of the eigenspace
    projections, each term relative to its own (d +- lambda)|x|^2, and that
    the antisymmetric lift kills the stationary projection.
    """
    params, Y, sizes = basis.params, basis.coords, basis.class_sizes
    k, d = params.k, params.degree
    sym, antisym = _class_lifts(basis.shell_proj, basis.class_shells)
    residuals = {
        "basis_gram": float(np.abs((Y.conj().T * sizes) @ Y - np.eye(2 * k + 1)).max()),
        "stationary_antisymmetric_lift": _class_norm(sizes, antisym[0]),
    }

    step, deviation = _arc_step.class_step(
        basis.classes, sizes, lambda vector: _arc_step.engine_step(params, frame, vector))
    stepped = step @ Y
    eig_terms = [deviation, _class_norm(sizes, stepped[:, 0] - Y[:, 0])]
    for l in range(1, k + 1):
        omega = spectral.eigenphase(params, l)
        for sign, col in ((+1, 2 * l - 1), (-1, 2 * l)):
            eig_terms.append(_class_norm(
                sizes, stepped[:, col] - np.exp(sign * 1j * omega) * Y[:, col]))
    # folded with np.max, not Python's max, which drops a NaN after the first
    residuals["walk_eigenrelation"] = float(np.max(eig_terms))

    lift_terms = []
    for l in range(k + 1):
        lam = spectral.eigenvalue(params, l)
        p_sq = float(np.sum(basis.shell_sizes * basis.shell_proj[l] ** 2))
        for lift, scale in ((sym[l], d + lam), (antisym[l], d - lam)):
            # the terms grow with d; at d - lambda_0 = 0, level 0's antisymmetric
            # lift, the term stays absolute: stationary_antisymmetric_lift squared
            error = abs(np.sum(sizes * lift * lift) - scale * p_sq)
            lift_terms.append(error / (scale * p_sq) if scale else error)
    residuals["lift_norm_identities"] = float(np.max(lift_terms))
    return residuals


def _marked_class_step(basis: InvariantBasis, blocks: tuple) -> tuple:
    """The marked step on the class coordinates, and its images' largest deviation from them.

    Each class indicator is stepped through the coin ``blocks`` and the
    arc reversal (``_arc_step.marked_step``) and read on the classes
    (``_arc_step.class_step``).  ValueError unless the arc reversal is a
    permutation.
    """
    if not np.array_equal(np.sort(basis.opposite), np.arange(basis.params.num_arcs)):
        raise ValueError("the arc reversal is not a permutation of the arcs")
    return _arc_step.class_step(
        basis.classes, basis.class_sizes,
        lambda vector: _arc_step.marked_step(basis.opposite, basis.marked, blocks, vector))


def verify_subspace_invariance(basis: InvariantBasis, step: tuple,
                               compressed: np.ndarray) -> dict:
    """The subspace is closed under the marked walk; oracle action is exact.

    ``step`` is the marked step M on the class coordinates with its images'
    largest deviation from them (:func:`_marked_class_step`), and
    ``compressed`` its compression Y^H diag(sizes) M Y.  The residual is
    max |M Y - Y (Y^H diag(sizes) M Y)|, which is U B - B (B^H U B) on
    every arc of a class, with the deviation as a term of the same row.
    The oracle identities hold bitwise: reflecting the all-ones marked
    block sends the marked vertex's out-arcs, class 0, to their negative,
    and fixes its in-arcs, class 1.
    """
    params, Y = basis.params, basis.coords
    matrix, deviation = step
    residuals = {"subspace_invariance": float(np.max(
        [np.abs(matrix @ Y - Y @ compressed).max(), deviation]))}

    # O b0 = -b0 and O (b0 - c1) = -b0 - c1, the images added in place
    b0, c1 = basis.classes == 0, basis.classes == 1
    terms = []
    for vector, images in ((b0, (b0,)), (np.subtract(b0, c1, dtype=np.int8), (b0, c1))):
        state = arc_engine.apply_oracle(
            params, _arc_step.pair_state(params, basis.slots, vector), basis.marked)
        reflected = state.reshape(-1)[basis.slots]
        del state
        for image in images:
            reflected += image
        terms.append(np.abs(reflected, out=reflected).max())
        del reflected
    residuals["oracle_action_identities"] = float(np.max(terms))
    return residuals


def _reduced_step(params: GraphParams) -> tuple:
    """The reduced step diag(e^{i phi}) (I - 2 w w^T) and the target w, in double.

    Built from :func:`jwalk.spectral.walk_terms` in basis order (0,
    +omega_1, -omega_1, ..., +omega_k, -omega_k); every entry is computed
    at ``spectral._MP_DPS`` digits and rounded once, to complex128 and
    float64.
    """
    import mpmath
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
    start is the first basis vector.  The arc target is uniform on the
    marked vertex's out-arcs, 1/sqrt(d) on class 0; the start is the
    engine's uniform state, read at the slots and averaged on the classes
    (``_arc_step.class_means``), whose largest deviation from its class means is
    a term of ``initial_in_subspace``.  A vector C x has basis coordinates
    Y^H diag(sizes) x.
    """
    params, Y, sizes = basis.params, basis.coords, basis.class_sizes
    target_arc = (np.arange(len(sizes)) == 0) / np.sqrt(params.degree)
    start, deviation = _arc_step.class_means(
        basis.classes, sizes, arc_engine.uniform_state(params).reshape(-1)[basis.slots])
    coords_initial = Y.conj().T @ (sizes * start)
    e0 = np.zeros(2 * params.k + 1)
    e0[0] = 1.0
    return {
        "target_coordinates": float(np.abs(Y.conj().T @ (sizes * target_arc) - target).max()),
        "initial_coordinates": float(np.abs(coords_initial - e0).max()),
        "target_initial_overlap": abs(
            float(np.sum(sizes * target_arc * start)) - 1.0 / np.sqrt(params.num_vertices)),
        "initial_in_subspace": float(np.max(
            [_class_norm(sizes, start - Y @ coords_initial), deviation])),
    }


def verify_reduced_compression(compressed: np.ndarray, reduced_step: np.ndarray) -> dict:
    """The reduced step (:func:`_reduced_step`) is the basis compression B^H (U B) of the marked one.

    ``compressed`` is Y^H diag(sizes) M Y, with M the marked step on the
    class coordinates (:func:`_marked_class_step`).
    """
    return {"reduced_compression": float(np.abs(compressed - reduced_step).max())}


def certify(params: GraphParams, marked: int = 0, tol: float = 1e-10) -> CertificationReport:
    """Run the whole certification battery; never raises on check failure.

    Builds what the stages read once, as the module docstring lists, and
    hands it to every stage that reads it: the basis in class coordinates,
    and the marked step on the classes with its compression, which the
    subspace and compression stages both read.  Each stage returns its
    residuals; this is the one place they are judged, and a check passes
    when its residual is within ``tol``, so a NaN fails.
    Refuses with CapacityError, before allocating, an instance whose words
    (:func:`_battery_words`) exceed ``MemAvailable``.  The count bounds the
    tracemalloc peak within one and a half words per arc: the peak is 7.5,
    5.6, 4.9 and 4.7 words per arc on J(10,3), J(12,4), J(20,3) and
    J(40,3), against 8.3, 6.5, 6.2 and 6.0 counted.
    """
    _require_memory(params)
    basis = build_invariant_basis(params, marked)
    frame = (pair_vertex_table(params), basis.slots)
    blocks = _arc_step.step_blocks(params.degree)
    reduced_step, target = _reduced_step(params)
    stages = [
        verify_spectral_closed_forms(basis),
        verify_dense_step(params, marked, frame, blocks),
        verify_eigenbasis(basis, frame),
    ]
    step = _marked_class_step(basis, blocks)
    Y = basis.coords
    compressed = (Y.conj().T * basis.class_sizes) @ step[0] @ Y
    stages += [verify_subspace_invariance(basis, step, compressed),
               verify_target_and_initial(basis, target),
               verify_reduced_compression(compressed, reduced_step)]
    checks = [CheckResult(name=name, residual=float(value), tol=tol, passed=bool(value <= tol))
              for residuals in stages for name, value in residuals.items()]
    return CertificationReport(
        params=params, marked=marked, tol=tol, checks=checks,
        passed=all(c.passed for c in checks),
    )
