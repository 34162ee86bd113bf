"""The walk step as an explicit A x A matrix and as N coin blocks, kept as the tests' oracles.

``jwalk.validation`` holds the step U = S·C·O as its arc reversal and its
two distinct coin blocks, U = P blockdiag(B_v) with B_v the Grover block G
at every unmarked vertex and B_marked at the marked one.  Here it is built
from the definition instead, in two ways.  :func:`step` builds it column
by column: column a, an arc leaving vertex v, carries 2/degree on every
arc whose tail is v, read through the reversal, and minus 1 on the
reverse of a; the marked vertex's reflection is the rank-1 update
U - 2 (U t) t^T on the right, rounded through the A-long matvec U t.
:func:`vertex_blocks` builds one d x d block per vertex, the marked one
reflected as B - 2 (B t) t^T.  Arcs are numbered tail-major, as in
``jwalk.johnson``; the reversal defaults to the scalar decoders of
``flat_layout``.
"""

import numpy as np

import flat_layout as flat


def step(params, marked=None, opposite=None):
    """The step U as a float64 A x A matrix; ``None`` is the unmarked walk."""
    d = params.degree
    A = params.num_arcs
    opp = flat.opposite(params) if opposite is None else opposite
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


def blocks(params, U, opposite):
    """The (N, d, d) coin blocks of ``U``: block v is U's rows opposite[v*d:(v+1)*d] of columns v*d:(v+1)*d."""
    N, d, A = params.num_vertices, params.degree, params.num_arcs
    return U[opposite.reshape(N, d, 1), np.arange(A).reshape(N, 1, d)]


def from_blocks(params, blocks, opposite):
    """The A x A matrix P blockdiag(blocks): block v on rows opposite[v*d:(v+1)*d] of columns v*d:(v+1)*d."""
    N, d, A = params.num_vertices, params.degree, params.num_arcs
    U = np.zeros((A, A))
    U[opposite.reshape(N, d, 1), np.arange(A).reshape(N, 1, d)] = blocks
    return U


def vertex_blocks(params, marked=None):
    """The (N, d, d) float64 coin blocks, one per vertex: (2/d) J - I, the ``marked`` one reflected.

    The marked block takes the oracle as the rank-1 update B - 2 (B t) t^T,
    with t the uniform unit vector.
    """
    N, d = params.num_vertices, params.degree
    blocks = np.full((N, d, d), 2.0 / d)
    blocks[:, np.arange(d), np.arange(d)] -= 1.0
    if marked is not None:
        block = blocks[marked]
        t = np.full(d, 1.0 / np.sqrt(d))
        block -= 2.0 * np.outer(block @ t, t)
    return blocks
