"""The invariant basis as an explicit A x (2k+1) arc-space matrix, kept as the tests' oracle.

``jwalk.validation`` holds the basis in arc-class coordinates, B = C·Y,
with C the arcs' class indicators and Y the basis's value on each class,
built from the shell averages of the marked vertex's Lanczos projections.
Here it is built arc by arc instead, from the projections themselves: each
is lifted into arc space by

    (S x)[arc] = (x[tail] + x[head]) / sqrt(2)

and by the antisymmetric lift T with a minus sign, and the lifts are
combined with the walk eigenphases into the columns (stationary, level-1
plus, level-1 minus, ..., level-k plus, level-k minus).  :func:`rows` then
reads every certification row that reads the basis from the A x (2k+1)
matrix, stepping each column, real and imaginary parts apart, through the
engine or the coin blocks.  It holds about eight words per arc and basis
column, so it is meant for small instances.
"""

import numpy as np

from jwalk import _arc_step, arc_engine, spectral


def lifts(basis):
    """The symmetric and antisymmetric arc-space lifts of the projections, (k+1, A) each."""
    params = basis.params
    tails = np.arange(params.num_arcs) // params.degree
    heads = basis.opposite // params.degree
    proj = basis.proj_w
    return ((proj[:, tails] + proj[:, heads]) / np.sqrt(2.0),
            (proj[:, tails] - proj[:, heads]) / np.sqrt(2.0))


def matrix(basis):
    """The orthonormal eigenbasis B, (A, 2k+1) complex128, built in arc space."""
    params = basis.params
    k, d = params.k, params.degree
    sym, antisym = lifts(basis)
    norms = np.linalg.norm(basis.proj_w, axis=1)
    B = np.zeros((params.num_arcs, 2 * k + 1), dtype=np.complex128)
    B[:, 0] = sym[0] / (np.sqrt(2.0 * d) * norms[0])
    for l in range(1, k + 1):
        lam = spectral.eigenvalue(params, l)
        omega = spectral.eigenphase(params, l)
        scale = np.sqrt(d) / (2.0 * np.sqrt(float(d * d - lam * lam)) * norms[l])
        for sign, col in ((+1, 2 * l - 1), (-1, 2 * l)):
            phase = np.exp(-1j * sign * omega)
            B[:, col] = (sign * 1j * scale) * ((phase - 1.0) * sym[l] + (phase + 1.0) * antisym[l])
    return B


def marked_image(basis, blocks, B):
    """The marked step's image U B, real and imaginary parts apart, from the coin ``blocks``."""
    grover, marked_block = blocks
    N, d = basis.params.num_vertices, basis.params.degree
    rows = basis.opposite.reshape(N, d)
    image = np.empty(B.shape, dtype=np.complex128)
    for part, source in ((image.real, B.real), (image.imag, B.imag)):
        source = source.reshape(N, d, -1)
        part[rows] = grover @ source
        part[rows[basis.marked]] = marked_block @ source[basis.marked]
    return image


def rows(basis, frame, blocks, target, reduced_step):
    """Every row of the battery that reads the basis, read from the arc-space B."""
    params = basis.params
    k, d = params.k, params.degree
    B = matrix(basis)
    sym, antisym = lifts(basis)
    out = {
        "basis_gram": float(np.abs(B.conj().T @ B - np.eye(2 * k + 1)).max()),
        "stationary_antisymmetric_lift": float(np.linalg.norm(antisym[0])),
    }

    stepped = [_arc_step.engine_step(params, frame, B.real[:, j])
               + 1j * _arc_step.engine_step(params, frame, B.imag[:, j])
               for j in range(2 * k + 1)]
    terms = [np.linalg.norm(stepped[0] - B[:, 0])]
    for l in range(1, k + 1):
        omega = spectral.eigenphase(params, l)
        for sign, col in ((+1, 2 * l - 1), (-1, 2 * l)):
            terms.append(np.linalg.norm(stepped[col] - np.exp(sign * 1j * omega) * B[:, col]))
    out["walk_eigenrelation"] = float(np.max(terms))

    terms = []
    for l in range(k + 1):
        lam = spectral.eigenvalue(params, l)
        p_sq = float(np.sum(basis.proj_w[l] * basis.proj_w[l]))
        for lift, scale in ((sym[l], d + lam), (antisym[l], d - lam)):
            error = abs(np.sum(lift * lift) - scale * p_sq)
            terms.append(error / (scale * p_sq) if scale else error)
    out["lift_norm_identities"] = float(np.max(terms))

    image = marked_image(basis, blocks, B)
    compressed = B.conj().T @ image
    out["subspace_invariance"] = float(np.abs(image - B @ compressed).max())
    del image

    target_arc = (basis.classes == 0) / np.sqrt(d)  # the marked vertex's out-arcs
    psi0 = arc_engine.uniform_state(params).reshape(-1)[basis.slots]
    coords_initial = np.array([np.sum(B[:, j].conj() * psi0) for j in range(2 * k + 1)])
    e0 = np.eye(2 * k + 1)[0]
    out.update({
        "target_coordinates": float(np.abs(B.conj().T @ target_arc - target).max()),
        "initial_coordinates": float(np.abs(coords_initial - e0).max()),
        "target_initial_overlap": abs(
            float(np.sum(target_arc * psi0)) - 1.0 / np.sqrt(params.num_vertices)),
        "initial_in_subspace": float(np.linalg.norm(psi0 - B @ coords_initial)),
        "reduced_compression": float(np.abs(compressed - reduced_step).max()),
    })
    return out
