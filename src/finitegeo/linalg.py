"""Exact linear algebra over the rationals.

solve_differences solves the systems of two-variable equations
x_u - x_v = c by union-find.  The package builds no dense matrix; the
dense elimination it replaced is kept in tests/elimination.py.
"""

from .errors import Infeasible
from .funcs import _exact


def solve_differences(nvars, equations):
    """Solve the equations x_u - x_v = c, given as triples (u, v, c).

    Union-find with potentials, pot[i] = x_i - x_parent(i), rooting each
    connected set of variables at its largest index.  Returns a particular
    solution, the potentials relative to the roots (roots read 0) as
    exact scalars (funcs._exact), and the sets ordered by root, each as
    its ascending variable indices (so the root comes last).  The sets'
    indicator vectors span the solutions of the homogeneous system.
    Raises Infeasible on an inconsistent cycle or self-loop.
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
    return [_exact(p) for p in pot], list(sets.values())
