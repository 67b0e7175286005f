"""Exact linear algebra over the rationals.

Matrices are lists of lists of Fraction, row major.  Everything here is
plain dense Gaussian elimination, except solve_differences, which solves
the systems of two-variable equations x_u - x_v = c by union-find, and
SubspaceReducer, which keeps its rows sparse and its entries as ints
where they are integral (values are divided only through Fraction).
"""

from fractions import Fraction

from .errors import Infeasible
from .funcs import _exact

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def _as_fraction_rows(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows) -> tuple[Matrix, list[int], int]:
    """Reduced row echelon form.

    Returns (R, pivots, rank) where pivots[i] is the column of the
    leading 1 in row i of R.
    """
    m = _as_fraction_rows(rows)
    if not m:
        return [], [], 0
    nrows = len(m)
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots, r


def kernel_basis(rows) -> list[Vector]:
    """Basis of the right null space of the matrix, one vector per free column."""
    if not rows:
        return []
    ncols = len(rows[0])
    R, pivots, rank = rref(rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -R[i][fc]
        basis.append(v)
    return basis


def span_basis(vectors) -> list[Vector]:
    """Canonical basis for the span of the given vectors.

    The nonzero rows of the RREF of the matrix whose rows are the vectors.
    Independent of input order and scaling, so subspace equality reduces
    to a plain list comparison.
    """
    R, _, rank = rref(vectors)
    return [row[:] for row in R[:rank]]


def transpose(rows) -> Matrix:
    if not rows:
        return []
    return [[Fraction(rows[i][j]) for i in range(len(rows))] for j in range(len(rows[0]))]


def image_basis(rows) -> list[Vector]:
    """Canonical basis of the column space (the image of the matrix)."""
    return span_basis(transpose(rows))


def matvec(rows: Matrix, v: Vector) -> Vector:
    return [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in rows]


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


def solve_affine(rows, rhs) -> tuple[Vector, list[Vector]]:
    """Solve A x = b exactly.

    Returns (particular_solution, kernel_basis_of_A).  Raises Infeasible
    when the system has no solution.  With an empty kernel the particular
    solution is the unique one.
    """
    a = _as_fraction_rows(rows)
    b = [Fraction(x) for x in rhs]
    if not a:
        if any(x != 0 for x in b):
            raise Infeasible("no columns but nonzero right-hand side")
        return [], []
    ncols = len(a[0])
    aug = [row + [bv] for row, bv in zip(a, b)]
    R, pivots, rank = rref(aug)
    if ncols in pivots:
        raise Infeasible("inconsistent linear system")
    x = [Fraction(0)] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = R[i][ncols]
    return x, kernel_basis(a)


def solve_differences(nvars, equations) -> tuple[Vector, list[Vector]]:
    """Solve the equations x_u - x_v = c, given as triples (u, v, c).

    Union-find with potentials, pot[i] = x_i - x_parent(i), rooting each
    connected set of variables at its largest index.  Returns exactly what
    solve_affine returns for the same system: potentials relative to the
    roots (roots read 0), and the indicators of the sets ordered by root.
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
    basis = {r: [Fraction(0)] * nvars for r in range(nvars) if parent[r] == r}
    for i in range(nvars):
        basis[parent[i]][i] = Fraction(1)
    return [Fraction(p) for p in pot], list(basis.values())


class SubspaceReducer:
    """Incremental echelon form for membership tests against a growing span.

    add(v) reduces v against the rows collected so far and absorbs any
    nonzero remainder; contains(v) checks membership without absorbing.
    Each row is kept sparse, as the (index, value) pairs of its nonzeros,
    scaled to 1 at its leading index.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[list[tuple[int, Fraction]]] = []
        self.lead: list[int] = []

    def _reduce(self, v) -> Vector:
        v = list(map(_exact, v))
        for row, lc in zip(self.rows, self.lead):
            factor = v[lc]
            if factor:
                for i, y in row:
                    v[i] -= factor * y
        return v

    def add(self, v) -> bool:
        """Absorb v into the span.  Returns True if the rank grew."""
        row = [(i, y) for i, y in enumerate(self._reduce(v)) if y]
        if not row:
            return False
        lc, x = row[0]
        self.rows.append([(i, _exact(Fraction(y) / x)) for i, y in row])
        self.lead.append(lc)
        return True

    def contains(self, v) -> bool:
        return not any(self._reduce(v))

    @property
    def rank(self) -> int:
        return len(self.rows)
