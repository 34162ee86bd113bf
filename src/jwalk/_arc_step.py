"""The walk step on arc vectors, for the certification battery, and its step on the arc classes.

The certification battery (``jwalk.validation``) holds the search step
U = S·C·O as U = P blockdiag(B_v): P the arc reversal and the d x d coin
block B_v of every vertex, which is the Grover block G = (2/d) J - I at
every unmarked vertex and B_marked at the marked one (:func:`step_blocks`).
Column v*d + c of U is B_v's column c on the rows opposite[v*d:(v+1)*d].
Since P is a permutation, U's unitarity and |det| are read from the two
blocks (:func:`unitarity_residual`, :func:`det_residual`), and its action
on an arc vector is one small product per vertex (:func:`marked_step`).

The engine is stepped through the *pair frame*: its (x, a) -> vertex
table and each arc's slot in a pair state ψ[x, y, a], both tail-major
(``jwalk.johnson``).  The passes that ``simulate`` runs, the oracle and
then the coin, are C·O = blockdiag(B_v) read at the slots, and S is the
swap of x and y (:func:`engine_step`); the engine is compared with the
blocks through d probe states, not A unit columns, as Curtis, Powell &
Reid (1974) group the columns of a sparse Jacobian
(:func:`engine_residual`).

A step of either kind is read on the arc classes (the arcs from one
distance shell of the marked vertex to another, one small-integer id per
arc) by stepping each class's indicator and averaging the image on every
class (:func:`class_step`, :func:`class_means`).

The blocks are real float64: the Grover coin, the flip-flop shift and the
oracle's reflection through a real vector have no imaginary part, and the
matrix-free engine they certify steps real float64 states too.  Nothing
here is N x N, A x A or N x d x d: a step holds the blocks, one pair state
and a few arc vectors.

This module is internal to ``jwalk.validation``, not public API.
"""

import math
from typing import Optional

import numpy as np

from . import arc_engine
from .johnson import GraphParams


def step_blocks(degree: int) -> tuple:
    """The step's two coin blocks (G, B_marked), (d, d) float64 each, from the closed form.

    Every unmarked vertex's block is the Grover block G = (2/d) J - I.  The
    marked vertex's takes the oracle as the rank-1 update
    B_marked = G - 2 (G t) t^T, with t the uniform unit vector, not as the
    -I it equals in exact arithmetic, so it shares nothing with the
    engine's oracle.
    """
    grover = np.full((degree, degree), 2.0 / degree)
    grover[np.arange(degree), np.arange(degree)] -= 1.0
    t = np.full(degree, 1.0 / np.sqrt(degree))
    return grover, grover - 2.0 * np.outer(grover @ t, t)


def pair_state(params: GraphParams, slots: np.ndarray, values) -> np.ndarray:
    """A zeroed pair state holding ``values`` at the flat pair ``slots``."""
    state = np.zeros(arc_engine._pair_shape(params))
    state.reshape(-1)[slots] = values
    return state


def engine_step(params: GraphParams, frame: tuple, vector: np.ndarray) -> np.ndarray:
    """The unmarked step S·C of the arc-order ``vector`` through the pair ``frame``.

    The coin runs on the vector's pair state, and S is applied as the swap
    of x and y: the step is the swapped state read at the slots, through
    ``flat``, which reads the swapped view without copying it.
    """
    vertices, slots = frame
    state = arc_engine.apply_coin(params, pair_state(params, slots, vector), vertices)
    return state.swapaxes(0, 1).flat[slots]


def marked_step(opposite: np.ndarray, marked: int, blocks: tuple,
                vector: np.ndarray) -> np.ndarray:
    """The marked step U = P blockdiag(B_v) of an arc-order ``vector``, from the coin ``blocks``.

    ``blocks`` is (G, B_marked) (:func:`step_blocks`).  G multiplies all N
    of the vector's d-entry blocks in one broadcast product, one small
    product per vertex, which no BLAS thread splits, and the ``marked``
    vertex's entries are then overwritten by B_marked's product; vertex v's
    lands on the rows opposite[v*d:(v+1)*d].
    """
    grover, marked_block = blocks
    rows = opposite.reshape(-1, len(grover))
    source = np.asarray(vector, dtype=np.float64).reshape(*rows.shape, 1)
    product = grover @ source
    product[marked] = marked_block @ source[marked]
    del source
    image = np.empty(rows.size)
    image[rows] = product.reshape(rows.shape)
    return image


def engine_residual(params: GraphParams, frame: tuple, blocks: tuple,
                    marked: Optional[int] = None) -> float:
    """max |blockdiag(B_v) - C·O| over the coin blocks, from ``degree`` probe states.

    ``blocks`` is (G, B_marked) (:func:`step_blocks`): every vertex's
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
        state = pair_state(params, leaving[:, c], 1.0)
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


def unitarity_residual(*blocks: np.ndarray) -> float:
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


def det_residual(*blocks: np.ndarray) -> float:
    """max | |det B| - 1 | over the distinct coin ``blocks`` of a step U = P blockdiag(B_v).

    |det P| = 1, and each distinct block is read once, where the product
    of N - 1 equal determinants would multiply their rounding by N - 1.  A
    NaN gives NaN: LAPACK's LU can take it for a zero pivot and return 0.
    """
    stack = np.stack(blocks)
    if np.isnan(stack).any():
        return math.nan
    return float(np.abs(np.abs(np.linalg.det(stack)) - 1.0).max())


def class_means(classes: np.ndarray, sizes: np.ndarray, vector: np.ndarray) -> tuple:
    """The mean of an arc-order float64 ``vector`` on each class, and its largest deviation.

    ``classes`` holds each arc's class id and ``sizes`` each class's arc
    count.  ``vector`` is overwritten by its deviation.  np.bincount adds a
    class's terms one after another, with an error that grows with the
    class, so the means are corrected once by the sum of the deviations
    from them, which leaves them within about one rounding.  Holds one arc
    vector besides ``vector``.  A NaN gives NaN.
    """
    means = np.zeros(len(sizes))
    for _ in range(2):
        correction = np.bincount(classes, weights=vector, minlength=len(sizes)) / sizes
        vector -= correction[classes]
        means += correction
    return means, float(np.abs(vector, out=vector).max())


def class_step(classes: np.ndarray, sizes: np.ndarray, step) -> tuple:
    """An arc-level ``step`` on the classes, and its images' largest deviation from them.

    ``step`` maps an arc-order vector to a new float64 image, and is given
    each class's boolean indicator in turn; column c of the (K, K) matrix M
    is the class means of the image of class c (:func:`class_means`).
    Where the classes partition the arcs equitably for the step, each image
    is constant on every class in exact arithmetic, the deviation is 0, and
    the step of a vector C y constant on the classes is C (M y).  One
    indicator and its image are held at a time, and M and the deviations
    are filled in place.
    """
    matrix, deviations = np.empty((len(sizes), len(sizes))), np.empty(len(sizes))
    for c in range(len(sizes)):
        matrix[:, c], deviations[c] = class_means(classes, sizes, step(classes == c))
    # folded with ndarray.max, not Python's max, which drops a NaN after the first
    return matrix, float(deviations.max())
