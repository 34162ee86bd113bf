"""The search walk on its arc classes, kept as the tests' iterated oracle of the reduced engine.

The marked vertex's stabilizer fixes the uniform start and the oracle, and
J(n, k) is distance-transitive, so the walk keeps to the span of the arc
classes (i, j): all arcs from a vertex at distance i of the marked vertex
to one at distance j, with j = i - 1, i or i + 1 (an equitable partition,
Godsil & Royle, *Algebraic Graph Theory* ch. 9).  Class (i, j) holds
|S_i|·n_ij arcs, where |S_i| is the shell size and n_ij the intersection
number c_i, a_i or b_i (Brouwer, Cohen & Neumaier, *Distance-Regular
Graphs*), and its unit vector spreads 1/sqrt(|S_i|·n_ij) over them.  There
are 3k classes, since a_0 = 0 and b_k = 0, or 3k - 1 at n = 2k, where also
a_k = 0.  In these coordinates, with d the degree and A = N·d the arcs:

- the Grover coin is 2 s_i s_i^T - I on the classes leaving shell i, with
  s_i = (sqrt(n_ij / d))_j;
- the flip-flop shift sends class (i, j) to (j, i), which holds as many
  arcs, since |S_i|·b_i = |S_{i+1}|·c_{i+1};
- the oracle flips the sign of class (0, 1), the marked vertex's out-arcs;
- the uniform start has coordinate sqrt(|S_i|·n_ij / A) on class (i, j);
- the success probability is the squared coordinate of class (0, 1).

Nothing here reads an eigenvalue, a projector weight or a secular root:
of jwalk it uses the intersection numbers and the shell sizes alone.  The
step S·C·O is a real longdouble matrix whose entries are computed at 40
digits and rounded once, and it is applied one matvec per step.
"""

import mpmath
import numpy as np

from jwalk.johnson import intersection_numbers, shell_size

_DPS = 40


def _ld(x):
    # an mpf as the sum of its two leading doubles, rounded once to longdouble
    hi = float(x)
    return np.longdouble(hi) + np.longdouble(float(x - hi))


def _counts(params, i):
    """{j: n_ij} for the shells j next to shell i that its vertices reach."""
    row = intersection_numbers(params, i)
    return {j: n for j, n in ((i - 1, row.c), (i, row.a), (i + 1, row.b)) if n > 0}


def classes(params):
    """The arc classes (i, j), grouped by shell i; (0, 1) comes first."""
    return [(i, j) for i in range(params.k + 1) for j in _counts(params, i)]


def step_matrix(params):
    """S·C·O on the class coordinates, real longdouble."""
    order = classes(params)
    index = {c: r for r, c in enumerate(order)}
    d = params.degree
    matrix = np.zeros((len(order), len(order)), dtype=np.longdouble)
    with mpmath.workdps(_DPS):
        for i in range(params.k + 1):
            counts = _counts(params, i)
            for j, n_j in counts.items():
                # C maps class (i, j') into (i, j); S then moves it to (j, i)
                row = index[(j, i)]
                for j2, n_j2 in counts.items():
                    entry = 2 * mpmath.sqrt(mpmath.mpf(n_j * n_j2)) / d - (j == j2)
                    matrix[row, index[(i, j2)]] = _ld(entry)
    matrix[:, index[(0, 1)]] *= -1  # O, applied first
    return matrix


def start(params):
    """The uniform state's class coordinates, sqrt(|S_i|·n_ij / A)."""
    with mpmath.workdps(_DPS):
        return np.array([_ld(mpmath.sqrt(mpmath.mpf(shell_size(params, i) * n)
                                         / params.num_arcs))
                         for i in range(params.k + 1)
                         for n in _counts(params, i).values()])


def states(params, steps):
    """Yield the class coordinates at t = 0, 1, ..., ``steps``."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    matrix = step_matrix(params)
    state = start(params)
    yield state
    for _ in range(steps):
        state = matrix @ state
        yield state


def probabilities(params, steps):
    """p(t), the squared (0, 1) coordinate, at t = 0, 1, ..., ``steps``, in double."""
    return np.array([float(state[0] * state[0]) for state in states(params, steps)])
