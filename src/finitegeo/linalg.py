"""Exact linear algebra over the rationals.

Matrices are lists of lists of Fraction, row major.  solve_differences
solves the systems of two-variable equations x_u - x_v = c by
union-find; matmul and identity_matrix serve the transport matrices of
a connection.
"""

from fractions import Fraction

from .errors import Infeasible

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return []
    ncols = len(b[0])
    bt = [[b[k][j] for k in range(len(b))] for j in range(ncols)]
    return [
        [sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt]
        for row in a
    ]


def identity_matrix(n: int) -> Matrix:
    return [
        [Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)
    ]


def solve_differences(nvars, equations) -> tuple[Vector, list[list[int]]]:
    """Solve the equations x_u - x_v = c, given as triples (u, v, c).

    Union-find with potentials, pot[i] = x_i - x_parent(i), rooting each
    connected set of variables at its largest index.  Returns a particular
    solution, the potentials relative to the roots (roots read 0), and
    the sets ordered by root, each as its ascending variable indices (so
    the root comes last).  The sets' indicator vectors span the solutions
    of the homogeneous system.  Raises Infeasible on an inconsistent
    cycle or self-loop.
    """
    parent = list(range(nvars))
    pot = [0] * nvars

    def find(i):
        path = []
        while parent[i] != i:
            path.append(i)
            i = parent[i]
        for j in reversed(path):  # nearest the root first
            if parent[j] != i:
                pot[j] += pot[parent[j]]
                parent[j] = i
        return i

    for u, v, c in equations:
        ru, rv = find(u), find(v)
        if ru == rv:
            if pot[u] - pot[v] != c:
                raise Infeasible("inconsistent linear system")
        elif ru > rv:
            parent[rv], pot[rv] = ru, pot[u] - pot[v] - c
        else:
            parent[ru], pot[ru] = rv, c - pot[u] + pot[v]
    for i in range(nvars):
        find(i)
    sets = {r: [] for r in range(nvars) if parent[r] == r}
    for i in range(nvars):
        sets[parent[i]].append(i)
    return [Fraction(p) for p in pot], list(sets.values())
