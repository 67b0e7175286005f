"""The braid operator sigma on Omega^1 (x) Omega^1 and the 2-form quotient.

For a bicovariant calculus sigma permutes basis tensors,
sigma(theta^g (x) theta^g') = theta^{ad(g^-1)g'} (x) theta^g, and left
coefficients ride along unchanged.  Powers, order and symmetrizers follow
from the permutation, and so does the decomposition of the fiber under
A = (1 - sigma)/2 and S = (1 + sigma)/2.  Index the pairs
lexicographically; for a cycle C of sigma with largest index top,

  ker A: the indicator of C;
  im A:  e_a - e_top for each a in C other than top;
  ker S: for even |C|, the vector alternating along C, 1 at top;
  im S:  for odd |C|, e_a for each a in C; for even |C|,
         e_a - (-1)^k e_top for each a other than top, k steps from it.

Sorted by top, resp. a, these are the reduced echelon bases of dense
elimination: a cycle's only relation among the columns of A or S uses
all of them, so top is the free column.  2-forms are tensors projected
by pi = A.
"""

from fractions import Fraction
from math import gcd, lcm

from . import funcs
from .calculus import StructureConstants, Tensor
from .errors import CalculusMismatch, InternalInconsistency
from .linalg import SubspaceReducer


class TensorField(Tensor):
    """alpha = alpha_{g,g'} theta^g (x) theta^{g'} with left coefficients."""

    rank = 2


def tensor_from_vector(calculus, vector):
    pairs = calculus.pairs()
    return TensorField(calculus, dict(zip(pairs, vector)))


def basis_tensor(calculus, g, gp):
    return TensorField(calculus, {(g, gp): 1})


def tensor_of_one_forms(phi, psi):
    """phi (x)_A psi; psi's coefficient moves left across theta^g."""
    if phi.calculus != psi.calculus:
        raise CalculusMismatch("forms live on different calculi")
    grp = phi.calculus.group
    out = TensorField(phi.calculus)
    for g, c in phi.terms.items():
        ginv = grp.inverse(g)
        for gp, d in psi.terms.items():
            out.accumulate((g, gp), c * funcs.right_translate(ginv, d))
    return out


class SigmaOperator:
    def __init__(self, calculus):
        calculus.require_bicovariant()
        self.calculus = calculus
        grp = calculus.group
        self.perm = {}
        for g, gp in calculus.pairs():
            self.perm[(g, gp)] = (grp.adjoint(grp.inverse(g), gp), g)
        self.inv_perm = {v: k for k, v in self.perm.items()}
        self._order = None
        self._decomposition = None
        self._w_sym_reducer = None
        self._w_antisym_reducer = None

    def map_pair(self, pair, power=1):
        table = self.perm if power >= 0 else self.inv_perm
        for _ in range(abs(power)):
            pair = table[pair]
        return pair

    def apply(self, t, power=1):
        """sigma^power on a tensor; coefficients ride with their basis pair."""
        out = TensorField(self.calculus)
        for pair, c in t.terms.items():
            out.accumulate(self.map_pair(pair, power), c)
        return out

    def order(self):
        if self._order is None:
            self._order = _permutation_order(self.perm)
            ad_order = self.calculus.group.ad_order()
            if (2 * ad_order) % self._order != 0:
                raise InternalInconsistency(
                    f"sigma order {self._order} does not divide 2|ad(G)| = {2 * ad_order}"
                )
        return self._order

    def cycle_lengths(self):
        return _cycle_lengths(self.perm)

    def matrix(self):
        """Permutation matrix on coefficient vectors in lexicographic pair order."""
        pairs = self.calculus.pairs()
        index = {p: i for i, p in enumerate(pairs)}
        m = len(pairs)
        rows = [[Fraction(0)] * m for _ in range(m)]
        for p in pairs:
            rows[index[self.perm[p]]][index[p]] = Fraction(1)
        return rows

    def decompose(self):
        if self._decomposition is None:
            pairs = self.calculus.pairs()
            m = len(pairs)
            index = {p: i for i, p in enumerate(pairs)}
            one = Fraction(1)

            def vector(entries):
                vec = [Fraction(0)] * m
                for a, x in entries:
                    vec[a] = x
                return vec

            ker_a, im_a, ker_s, im_s = {}, {}, {}, {}
            for cycle in _cycles(self.perm):
                cycle = [index[p] for p in cycle]
                top = max(cycle)
                t = cycle.index(top)
                even = len(cycle) % 2 == 0
                sign = {a: (-one) ** (k - t) for k, a in enumerate(cycle)}
                ker_a[top] = vector((a, one) for a in cycle)
                if even:
                    ker_s[top] = vector(sign.items())
                else:
                    im_s[top] = vector([(top, one)])
                for a in cycle:
                    if a != top:
                        im_a[a] = vector([(a, one), (top, -one)])
                        tail = [(top, -sign[a])] if even else []
                        im_s[a] = vector([(a, one)] + tail)
            self._decomposition = DecompositionReport(
                pairs, *([d[k] for k in sorted(d)] for d in (ker_a, im_a, ker_s, im_s))
            )
        return self._decomposition

    def _reducer(self, basis):
        red = SubspaceReducer(len(self.calculus.pairs()))
        for v in basis:
            red.add(v)
        return red

    def w_symmetric_reducer(self):
        if self._w_sym_reducer is None:
            self._w_sym_reducer = self._reducer(self.decompose().im_s)
        return self._w_sym_reducer

    def w_antisymmetric_reducer(self):
        if self._w_antisym_reducer is None:
            self._w_antisym_reducer = self._reducer(self.decompose().im_a)
        return self._w_antisym_reducer


class DecompositionReport:
    def __init__(self, pairs, ker_a, im_a, ker_s, im_s):
        self.pairs = pairs
        self.ker_a = ker_a
        self.im_a = im_a
        self.ker_s = ker_s
        self.im_s = im_s

    @property
    def dims(self):
        return (len(self.ker_a), len(self.im_a), len(self.ker_s), len(self.im_s))


def _cycles(perm):
    """The cycles of a permutation given as a dict, each in cycle order."""
    seen = set()
    cycles = []
    for start in perm:
        if start in seen:
            continue
        cycle = []
        x = start
        while x not in seen:
            seen.add(x)
            cycle.append(x)
            x = perm[x]
        cycles.append(cycle)
    return cycles


def _cycle_lengths(perm):
    return [len(c) for c in _cycles(perm)]


def _permutation_order(perm):
    return lcm(*_cycle_lengths(perm)) if perm else 1


def sigma_build(calculus):
    return SigmaOperator(calculus)


def sigma_for(calculus):
    """Cached braid operator of a bicovariant calculus."""
    got = getattr(calculus, "_sigma_cache", None)
    if got is None:
        got = sigma_build(calculus)
        calculus._sigma_cache = got
    return got


def symmetric_universal_sigma_order(n):
    """Order of sigma on the universal calculus of the symmetric group S_n.

    Closed form for n >= 3: twice the smallest positive exponent that kills
    every element of S_n, built as an incremental product

        2 * n * prod_{k=1}^{n-2} (n-k) / gcd(n (n-1) ... (n-k+1), n-k).

    Each factor enlarges the running product just enough to absorb the
    cycle length n-k, so the result equals 2 * lcm(2, ..., n).
    """
    if n < 3:
        raise ValueError("closed form requires n >= 3")
    order = n
    running = n
    for k in range(1, n - 1):
        order = order * (n - k) // gcd(running, n - k)
        running *= n - k
    return 2 * order


def braid_check(sigma):
    """(sigma x id)(id x sigma)(sigma x id) = (id x sigma)(sigma x id)(id x sigma)."""
    hatG = sigma.calculus.hatG

    def t12(tr):
        a, b = sigma.perm[(tr[0], tr[1])]
        return (a, b, tr[2])

    def t23(tr):
        b, c = sigma.perm[(tr[1], tr[2])]
        return (tr[0], b, c)

    for a in hatG:
        for b in hatG:
            for c in hatG:
                tr = (a, b, c)
                if t12(t23(t12(tr))) != t23(t12(t23(tr))):
                    return False
    return True


def symmetrize(t, sigma):
    return (t + sigma.apply(t)).scale(Fraction(1, 2))


def antisymmetrize(t, sigma):
    return (t - sigma.apply(t)).scale(Fraction(1, 2))


def classify(t, sigma):
    """Strong and weak (anti)symmetry flags for a tensor."""
    s_symmetric = antisymmetrize(t, sigma).is_zero()
    s_antisymmetric = symmetrize(t, sigma).is_zero()
    grp = sigma.calculus.group
    sym_red = sigma.w_symmetric_reducer()
    antisym_red = sigma.w_antisymmetric_reducer()
    w_symmetric = all(sym_red.contains(t.fiber(h)) for h in range(grp.order))
    w_antisymmetric = all(antisym_red.contains(t.fiber(h)) for h in range(grp.order))
    return {
        "s_symmetric": s_symmetric,
        "s_antisymmetric": s_antisymmetric,
        "w_symmetric": w_symmetric,
        "w_antisymmetric": w_antisymmetric,
    }


class TwoForm:
    """A 2-form, represented by its image under the projection pi = A."""

    def __init__(self, calculus, rep):
        self.calculus = calculus
        self.rep = rep

    def __add__(self, other):
        return TwoForm(self.calculus, self.rep + other.rep)

    def __sub__(self, other):
        return TwoForm(self.calculus, self.rep - other.rep)

    def __neg__(self):
        return TwoForm(self.calculus, -self.rep)

    def scale(self, a):
        return TwoForm(self.calculus, self.rep.scale(a))

    def left_mul(self, f):
        return TwoForm(self.calculus, self.rep.left_mul(f))

    def right_mul(self, f):
        return TwoForm(self.calculus, self.rep.right_mul(f))

    def is_zero(self):
        return self.rep.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, TwoForm)
            and self.calculus == other.calculus
            and self.rep == other.rep
        )

    def coordinates(self, sigma):
        """Coefficients in the canonical (echelonized) im A basis.

        The basis is in reduced echelon form, so the coordinate along
        basis vector j can be read off at its pivot position.
        """
        basis = sigma.decompose().im_a
        pairs = self.calculus.pairs()
        pivots = [next(i for i, x in enumerate(row) if x != 0) for row in basis]
        return [self.rep.coeff(*pairs[p]) for p in pivots]


def project_two_form(t, sigma):
    """pi = A: the 2-form class of a tensor."""
    return TwoForm(t.calculus, antisymmetrize(t, sigma))


def wedge(phi, psi, sigma):
    return project_two_form(tensor_of_one_forms(phi, psi), sigma)


def zero_two_form(calculus):
    return TwoForm(calculus, TensorField(calculus))


def d_theta(calculus, sigma, h):
    """Maurer-Cartan: d theta^h = -C^h_{g,g'} theta^{g'} theta^g."""
    sc = StructureConstants(calculus)
    coeffs = {}
    for u, v in calculus.pairs():
        coeffs[(u, v)] = -sc.C(h, v, u)
    return project_two_form(TensorField(calculus, coeffs), sigma)


def d_one_form_rep(phi):
    """Representative tensor of d(f theta^g) = df (x) theta^g + f d theta^g."""
    calculus = phi.calculus
    if phi.basis != "theta":
        raise ValueError("differential implemented in the theta basis")
    sc = StructureConstants(calculus)
    out = TensorField(calculus)
    for g, f in phi.terms.items():
        for h in calculus.hatG:
            out.accumulate((h, g), funcs.ell(h, f))
        for u, v in calculus.pairs():
            cval = sc.C(g, v, u)
            if cval:
                out.accumulate((u, v), -cval * f)
    return out


def d_one_form(phi, sigma):
    """d(f theta^g) = df ^ theta^g + f d theta^g, summed over the basis."""
    return project_two_form(d_one_form_rep(phi), sigma)


# ---------------------------------------------------------------------------
# Degree-3 support.  Rank-3 coefficient arrays are only needed to state the
# Bianchi identity; they are compared modulo the degree-3 slice of the
# differential ideal generated by the s-symmetric tensors.


class Rank3Field(Tensor):
    """Coefficients over hatG^3, theta^u (x) theta^v (x) theta^w, left placed."""

    rank = 3

    def triples(self):
        return self._keys()


def one_form_times_two_rep(phi, t):
    """(f theta^k) * (T_{u,v} theta^u theta^v) at rank 3."""
    grp = phi.calculus.group
    out = Rank3Field(phi.calculus)
    for k, f in phi.terms.items():
        kinv = grp.inverse(k)
        for (u, v), c in t.terms.items():
            out.accumulate((k, u, v), f * funcs.right_translate(kinv, c))
    return out


def two_rep_times_one_form(t, psi):
    """(T_{u,v} theta^u theta^v) * (c_w theta^w) at rank 3."""
    grp = t.calculus.group
    out = Rank3Field(t.calculus)
    for (u, v), c in t.terms.items():
        vu_inv = grp.inverse(grp.mul(v, u))
        for w, cw in psi.terms.items():
            out.accumulate((u, v, w), c * funcs.right_translate(vu_inv, cw))
    return out


def d_two_rep(t):
    """d of a represented 2-form, as a rank-3 coefficient array."""
    calculus = t.calculus
    sc = StructureConstants(calculus)
    out = Rank3Field(calculus)
    for (g, gp), c in t.terms.items():
        for h in calculus.hatG:
            out.accumulate((h, g, gp), funcs.ell(h, c))
        for u in calculus.hatG:
            for v in calculus.hatG:
                c1 = sc.C(g, u, v)
                if c1:
                    out.accumulate((v, u, gp), c * (-c1))
                c2 = sc.C(gp, u, v)
                if c2:
                    out.accumulate((g, v, u), c * c2)
    return out


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
            dk = d_two_rep(kt)
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
