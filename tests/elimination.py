"""Dense Gaussian elimination, kept as the reference oracle for the tests.

The package tests membership by each space's defining condition: σ-cycle
sums for im A and im S, the kind's condition for a solution space, the
union-find roots for a torsion-free family and A₃ for the degree-3 ideal.
The elimination routines those tests replaced live here, unchanged, so
the tests can compare the two answers.  pytest does not collect this
module; test modules import it by name from the tests directory.
"""

from fractions import Fraction

from finitegeo.braid import d_rep, tensor_from_vector
from finitegeo.errors import Infeasible
from finitegeo.funcs import _exact
from finitegeo.linalg import Matrix, Vector, _as_fraction_rows, rref


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


class DegreeThreeIdeal:
    """Membership test for the degree-3 slice of the ideal generated by ker A.

    Fiberwise: right multiplication by delta functions masks a constant
    generator by the level sets of the reversed product w*v*u, so the
    fiber space is spanned by those masked pieces of
      ker A (x) theta^w,  theta^u (x) ker A,  and  d(ker A).
    An A-valued rank-3 array lies in the ideal iff each of its fibers
    lies in that span.
    """

    def __init__(self, calculus, sigma):
        self.calculus = calculus
        grp = calculus.group
        hatG = calculus.hatG
        pairs = calculus.pairs()
        triples = [(u, v, w) for u in hatG for v in hatG for w in hatG]
        index = {t: i for i, t in enumerate(triples)}
        dim = len(triples)
        generators = []
        ker_a = sigma.decompose().ker_a
        for kvec in ker_a:
            kmap = dict(zip(pairs, kvec))
            for w in hatG:
                vec = [Fraction(0)] * dim
                for (u, v), val in kmap.items():
                    vec[index[(u, v, w)]] = val
                generators.append(vec)
            for u in hatG:
                vec = [Fraction(0)] * dim
                for (v, w), val in kmap.items():
                    vec[index[(u, v, w)]] = val
                generators.append(vec)
            kt = tensor_from_vector(self.calculus, kvec)
            dk = d_rep(kt)
            generators.append([c.values[0] for c in dk.coeffs.values()])
        self.reducer = SubspaceReducer(dim)
        self.triples = triples
        for gen in generators:
            by_product = {}
            for i, t in enumerate(triples):
                if gen[i] == 0:
                    continue
                u, v, w = t
                q = grp.mul(grp.mul(w, v), u)
                by_product.setdefault(q, [Fraction(0)] * dim)[i] = gen[i]
            for piece in by_product.values():
                self.reducer.add(piece)

    def contains(self, r3):
        grp = self.calculus.group
        order = list(r3.coeffs.values())
        for h in range(grp.order):
            if not self.reducer.contains([c(h) for c in order]):
                return False
        return True
