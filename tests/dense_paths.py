"""Dense and rank-specific loops, kept as test oracles.

The package reads C^h_{g,g'} through StructureConstants.nonzero and the
connection coefficients Gamma through their stored entries.  The loops
they replaced, which visit every pair or triple of hatG and evaluate
C^h_{g,g'} by its formula (structure_constant) or probe gamma per key,
live here unchanged (methods written as functions of the connection), so
the tests can compare the two answers.  braid_check and apply_a3 reach
sigma_12 and sigma_23 through the triple maps on_first and on_last,
which SigmaOperator had; braid.braid_check is compared with the first,
and braid.antisymmetrize_k at rank 3 with the second, the hand-written
A_3 the package had.  antisymmetrizer sums sgn(pi) sigma_pi over all of
S_k, each sigma_pi along the reduced word that bubble sort gives, through
the leg map on_leg: the oracle for antisymmetrize_k at any rank.
perm_table is the composition of every pair of permutations that the
tables built from generator words are compared with, is_associative the
triple loop that groups' associativity check is compared with,
respects_product the one that gset.GSet's product-rule check is
compared with.  EdgeRoundTripCalculus is the calculus constructor that
expanded hatG into edges and rebuilt hatG and the covariance flags from
them, with equality and hash on the edge set.
The next section keeps the loops that groups.orbits, calculus.unions and
groups.cycles replaced: the class, centre and abelian sweeps over the
Cayley table, the cycle-name walk, the inversion-count parity, the mask
loops of the three enumerations, the two-sided permutation closure and
sigma's inverse table.  The next keeps the storage that held every
tensor and connection coefficient as a GroupFunction.  The next keeps
the braid transposes of the dual module as they were written before
they were read off sigma: sigma' by the adjoint formula, the order of
sigma_X by counting its own cycles, and the sigma'-connection as
ell_g (x) dX^g.  The next keeps braid.classify as it was before it read
sigma's cycles on the coefficients: the strong flags from comparing t
with sigma(t), the weak ones from every fiber of t, read by fiber, which
with constant_vector was a Tensor method.  The next keeps the
dense parts of sigma and the solution spaces as they were built before
braid.echelon_rows: decompose's dense vectors, solve_bi_invariant's
orbit indicators and pattern_matrix by rref; and echelon_rows written
part by part, as decompose gathered its rows before it read all four
parts off one rotation of each cycle.  The next keeps the adjoint
orbits by the per-element groups.orbits call and the torsion equation at
every triple, before the conjugation table, and the dense indicator
vectors of a torsion-free family.  The next keeps two connection
checks: the transport-matrix test over all |G|^2 pairs
with dense matrices, before it ran over the generators only on sparse
rows, without its curvature cross-check; and the square of the
two-sided connection through d and the Maurer-Cartan forms d theta^v,
before it was read off rho.  The next keeps the read helpers
that left the package because only tests called them: the edge-basis
conversions of 1-forms, C^h_{g,g'} by its formula, one connection
coefficient as a group function, an element's order, the adjoint
orbit classes of a bi-invariant solution space, the closed-form order
of sigma on the universal calculus of S_n and the covariance test of an
edge set on a G-set.  The last keeps the
character scanner of cycle notation that cli.parse_permutation
replaced, as scan_permutation.  pytest does not collect
this module; test modules import it by name from the tests directory.
"""

import contextlib
from fractions import Fraction
from itertools import permutations, product
from math import lcm
from unittest import mock

from finitegeo import funcs
from finitegeo.braid import (
    PARTS,
    TensorField,
    antisymmetrize,
    d_one_form,
    project_two_form,
    sigma_for,
    symmetrize,
    tensor_product,
    wedge,
)
from finitegeo.calculus import OneForm, StructureConstants, Tensor, differential, theta_form
from finitegeo.connection import Connection, extensibility_analysis
from finitegeo.dual import sigma_x
from finitegeo.errors import (
    CalculusMismatch,
    NotExtensible,
    NotInHatG,
    NotUniversal,
    UsageError,
)
from finitegeo.funcs import constant, ell, right_translate
from finitegeo.groups import cycles, orbits
from finitegeo.linalg import solve_differences

from elimination import identity_matrix, matmul, rref


def nabla_theta(conn, h):
    """nabla theta^h as a tensor field."""
    cal = conn.calculus
    if h not in set(cal.hatG):
        raise NotInHatG(f"{h} not in the reduced set")
    gamma = conn.gamma
    out = TensorField(cal)
    for g in cal.hatG:
        for gp in cal.hatG:
            f = gamma.get((h, g, gp))
            if f is not None:
                out.accumulate((gp, g), -f)
    return out


def apply(conn, phi):
    """Covariant derivative of a 1-form in the theta basis.

    The coefficient of the result at (g, g') is
    R_{g^-1} phi_{g'} - phi_{g'} - sum_h phi_h Gamma^h_{g',g}.
    """
    cal = conn.calculus
    if phi.calculus != cal:
        raise CalculusMismatch("form lives on a different calculus")
    group = cal.group
    gamma = conn.gamma
    out = TensorField(cal)
    for g in cal.hatG:
        ginv = group.inverse(g)
        for gp in cal.hatG:
            acc = right_translate(ginv, phi.coeff(gp)) - phi.coeff(gp)
            for h in cal.hatG:
                f = gamma.get((h, gp, g))
                if f is not None:
                    acc = acc - phi.coeff(h) * f
            out.accumulate((g, gp), acc)
    return out


def torsion_raw_theta(conn, h):
    cal = conn.calculus
    group = cal.group
    out = TensorField(cal)
    for u in cal.hatG:
        for v in cal.hatG:
            acc = gamma_value(conn, h, v, u)
            c = structure_constant(group, h, v, u)
            if c:
                acc = acc - constant(group, Fraction(c))
            out.accumulate((u, v), acc)
    return out


def curvature_raw(conn, h, gp):
    """Representative tensor of the curvature 2-form Omega^h_{gp},
    computed as d omega^h_{gp} + omega^h_k (x) omega^k_{gp} before
    projection."""
    cal = conn.calculus
    group = cal.group
    gamma = conn.gamma
    rep = TensorField(cal)
    for u in cal.hatG:
        uinv = group.inverse(u)
        for v in cal.hatG:
            acc = constant(group, 0)
            gam = gamma.get((h, gp, v))
            if gam is not None:
                acc = acc + right_translate(uinv, gam) - gam
            for k in cal.hatG:
                a = gamma.get((h, k, u))
                b = gamma.get((k, gp, v))
                if a is not None and b is not None:
                    acc = acc + a * right_translate(uinv, b)
                c = structure_constant(group, k, v, u)
                if c:
                    gk = gamma.get((h, gp, k))
                    if gk is not None:
                        acc = acc - c * gk
            rep.accumulate((u, v), acc)
    return rep


def c_connection(calculus):
    """The connection whose coefficients are the structure constants."""
    calculus.require_left_covariant()
    gamma = {}
    for h in calculus.hatG:
        for g in calculus.hatG:
            for gp in calculus.hatG:
                c = structure_constant(calculus.group, h, g, gp)
                if c:
                    gamma[(h, g, gp)] = c
    return Connection(calculus, gamma)


def d_theta(calculus, sigma, h):
    """Maurer-Cartan: d theta^h = -C^h_{g,g'} theta^{g'} theta^g."""
    coeffs = {}
    for u, v in calculus.pairs():
        coeffs[(u, v)] = -structure_constant(calculus.group, h, v, u)
    return project_two_form(TensorField(calculus, coeffs), sigma)


def d_one_form_rep(phi):
    """Representative tensor of d(f theta^g) = df (x) theta^g + f d theta^g."""
    calculus = phi.calculus
    out = TensorField(calculus)
    for g, f in phi.terms.items():
        for h in calculus.hatG:
            out.accumulate((h, g), funcs.ell(h, f))
        for u, v in calculus.pairs():
            cval = structure_constant(calculus.group, g, v, u)
            if cval:
                out.accumulate((u, v), -cval * f)
    return out


def d_two_rep(t):
    """d of a represented 2-form, as a rank-3 coefficient array."""
    calculus = t.calculus
    out = TensorField(calculus, rank=3)
    for (g, gp), c in t.terms.items():
        for h in calculus.hatG:
            out.accumulate((h, g, gp), funcs.ell(h, c))
        for u in calculus.hatG:
            for v in calculus.hatG:
                c1 = structure_constant(calculus.group, g, u, v)
                if c1:
                    out.accumulate((v, u, gp), c * (-c1))
                c2 = structure_constant(calculus.group, gp, u, v)
                if c2:
                    out.accumulate((g, v, u), c * c2)
    return out


def dual_apply(dual, x):
    """nabla* X as a dict (h, k) -> coefficient of ell_h (x) theta^k."""
    cal = dual.calculus
    if x.calculus != cal:
        raise CalculusMismatch("field lives on a different calculus")
    group = cal.group
    gamma = dual.source.gamma
    out = {}
    for h in cal.hatG:
        for k in cal.hatG:
            acc = ell(k, x.coeff(h))
            for g in cal.hatG:
                gam = gamma.get((h, g, k))
                if gam is not None:
                    xg = x.terms.get(g)
                    if xg is not None:
                        acc = acc + gam * right_translate(
                            group.inverse(k), xg
                        )
            if not acc.is_zero():
                out[(h, k)] = acc
    return out


# ---------------------------------------------------------------------------
# Rank-specific products, differentials, twists and contractions.  The
# package now says each once on the sparse Tensor (braid.tensor_product,
# braid.d_rep, the two-leg SigmaOperator.apply and
# ExtensibilityReport.psi_apply, dual.pair); the per-rank routines they
# replaced follow unchanged, methods written as functions of their
# object, the sparse d_one_form_rep and d_two_rep renamed with a sparse_
# prefix beside the dense loops above.  psi_apply spells out the rank-2
# sigma action it used, so no oracle here calls a replaced routine.


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


def one_form_times_two_rep(phi, t):
    """(f theta^k) * (T_{u,v} theta^u theta^v) at rank 3."""
    grp = phi.calculus.group
    out = TensorField(phi.calculus, rank=3)
    for k, f in phi.terms.items():
        kinv = grp.inverse(k)
        for (u, v), c in t.terms.items():
            out.accumulate((k, u, v), f * funcs.right_translate(kinv, c))
    return out


def two_rep_times_one_form(t, psi):
    """(T_{u,v} theta^u theta^v) * (c_w theta^w) at rank 3."""
    grp = t.calculus.group
    out = TensorField(t.calculus, rank=3)
    for (u, v), c in t.terms.items():
        vu_inv = grp.inverse(grp.mul(v, u))
        for w, cw in psi.terms.items():
            out.accumulate((u, v, w), c * funcs.right_translate(vu_inv, cw))
    return out


def sparse_d_one_form_rep(phi):
    """Representative tensor of d(f theta^g) = df (x) theta^g + f d theta^g."""
    calculus = phi.calculus
    sc = StructureConstants(calculus)
    out = TensorField(calculus)
    for g, f in phi.terms.items():
        for h in calculus.hatG:
            out.accumulate((h, g), funcs.ell(h, f))
        for v, u, c in sc.nonzero(g):
            out.accumulate((u, v), -c * f)
    return out


def sparse_d_two_rep(t):
    """d of a represented 2-form, as a rank-3 coefficient array."""
    calculus = t.calculus
    sc = StructureConstants(calculus)
    out = TensorField(calculus, rank=3)
    for (g, gp), c in t.terms.items():
        for h in calculus.hatG:
            out.accumulate((h, g, gp), funcs.ell(h, c))
        for u, v, c1 in sc.nonzero(g):
            out.accumulate((v, u, gp), c * (-c1))
        for u, v, c2 in sc.nonzero(gp):
            out.accumulate((g, v, u), c * c2)
    return out


def v_apply(report, t):
    """Apply the bimodule map V to a tensor field."""
    cal = report.connection.calculus
    group = cal.group
    out = TensorField(cal)
    for (g, gp), f in t.terms.items():
        prod = group.mul(gp, g)
        for h in cal.hatG:
            hp = group.mul(group.inverse(h), prod)
            val = report.v_map.get((g, gp, h, hp))
            if val is not None:
                out.accumulate((hp, h), f * val)
    return out


def psi_apply(report, t):
    """Apply the twist Psi = sigma - V to a tensor field."""
    if not report.extensible:
        raise NotExtensible(
            "connection does not satisfy the two-argument Leibniz rule"
        )
    sig = sigma_for(report.connection.calculus)
    out = TensorField(sig.calculus)
    for pair, c in t.terms.items():
        out.accumulate(sig.map_pair(pair), c)
    return out - v_apply(report, t)


def extend_pair(report, phi, nabla_phi, psi, nabla_psi, out):
    """Add nabla(phi (x) psi) into out, a rank-3 TensorField, given
    nabla phi and nabla psi.

    (nabla phi) (x) psi transports psi's coefficients across both legs;
    (Psi (x) id)(phi (x) nabla psi) twists the first two slots.
    """
    cal = report.connection.calculus
    group = cal.group
    for (u, v), f in nabla_phi.terms.items():
        trans = group.inverse(group.mul(v, u))
        for w, c in psi.terms.items():
            out.accumulate((u, v, w), f * right_translate(trans, c))
    for g, c in phi.terms.items():
        ginv = group.inverse(g)
        for (u, v), f in nabla_psi.terms.items():
            piece = TensorField(cal)
            piece.accumulate((g, u), c * right_translate(ginv, f))
            for (p, q), val in psi_apply(report, piece).terms.items():
                out.accumulate((p, q, v), val)
    return out


def extend_to_tensor(conn, t):
    """nabla on the tensor square, applied to a tensor field, through
    extend_pair."""
    report = extensibility_analysis(conn)
    if not report.extensible:
        raise NotExtensible("connection does not extend to tensor products")
    cal = conn.calculus
    out = TensorField(cal, rank=3)
    for g in cal.hatG:
        psi = OneForm(cal, {})
        for gp in cal.hatG:
            c = t.terms.get((g, gp))
            if c is not None:
                psi.accumulate(gp, right_translate(g, c))
        if not psi.is_zero():
            theta = theta_form(cal, g)
            extend_pair(report, theta, conn.apply(theta), psi, conn.apply(psi), out)
    return out


def pair(phi, x):
    """Duality contraction <phi, X> = phi_g X^g."""
    if phi.calculus != x.calculus:
        raise CalculusMismatch("form and field on different calculi")
    acc = constant(phi.calculus.group, 0)
    for g, c in phi.terms.items():
        xg = x.terms.get(g)
        if xg is not None:
            acc = acc + c * xg
    return acc


def pair_tensor_field(t, x):
    """Contract the inner slot of a tensor field with a vector field.

    <t_{u,v} theta^u (x) theta^v, X> = t_{u,v} theta^u X^v is the 1-form
    with coefficient sum_v t_{u,v} R_{u^-1} X^v at u.
    """
    cal = t.calculus
    if cal != x.calculus:
        raise CalculusMismatch("tensor and field on different calculi")
    group = cal.group
    out = OneForm(cal, {})
    for (u, v), f in t.terms.items():
        xv = x.terms.get(v)
        if xv is not None:
            out.accumulate(u, f * right_translate(group.inverse(u), xv))
    return out


def pair_rank3_metric(r, m):
    """Contract the last two slots of a rank 3 field with a metric.

    The result is the 1-form with coefficient
    sum_{v,w} c_{u,v,w} R_{u^-1} g^{w,v} at u.
    """
    cal = r.calculus
    if cal != m.calculus:
        raise CalculusMismatch("tensor and metric on different calculi")
    group = cal.group
    out = OneForm(cal, {})
    for (u, v, w), f in r.terms.items():
        mwv = m.terms.get((w, v))
        if mwv is not None:
            out.accumulate(u, f * right_translate(group.inverse(u), mwv))
    return out


def apply_to_function(x, f):
    """X f = <df, X> = (ell_g f) X^g."""
    group = x.calculus.group
    acc = constant(group, 0)
    for g, c in x.terms.items():
        acc = acc + ell(g, f) * c
    return acc


def sparse_dual_apply(dual, x):
    """nabla* X as a dict (h, k) -> coefficient of ell_h (x) theta^k,
    in sorted key order.

    The coefficient is ell_k X^h + sum_g Gamma^h_{g,k} R_{k^-1} X^g.
    """
    cal = dual.calculus
    if x.calculus != cal:
        raise CalculusMismatch("field lives on a different calculus")
    group = cal.group
    out = TensorField(cal)
    for h, c in x.terms.items():
        for k in cal.hatG:
            out.accumulate((h, k), ell(k, c))
    for (h, g, k), gam in dual.source.gamma.items():
        xg = x.terms.get(g)
        if xg is not None:
            out.accumulate((h, k), gam * right_translate(group.inverse(k), xg))
    return dict(sorted(out.terms.items()))


def on_first(sigma, triple):
    """sigma_12: (u, v, w) -> (sigma(u, v), w)."""
    u, v, w = triple
    return sigma.perm[u, v] + (w,)


def on_last(sigma, triple):
    """sigma_23: (u, v, w) -> (u, sigma(v, w))."""
    u, v, w = triple
    return (u,) + sigma.perm[v, w]


def braid_check(sigma):
    """The braid relation on every triple by sigma_12 and sigma_23 as
    triple maps: (sigma x id)(id x sigma)(sigma x id) = (id x sigma)
    (sigma x id)(id x sigma)."""
    def s12(tr):
        return on_first(sigma, tr)

    def s23(tr):
        return on_last(sigma, tr)

    hatG = sigma.calculus.hatG
    for tr in product(hatG, repeat=3):
        if s12(s23(s12(tr))) != s23(s12(s23(tr))):
            return False
    return True


def apply_a3(r3, sigma):
    """A_3 of a rank-3 field through the triple maps on_first and on_last:
    1 - sigma_12 - sigma_23 + sigma_12 sigma_23 + sigma_23 sigma_12
    - sigma_12 sigma_23 sigma_12."""
    def s12(tr):
        return on_first(sigma, tr)

    def s23(tr):
        return on_last(sigma, tr)

    out = TensorField(r3.calculus, rank=3)
    for t, c in r3.terms.items():
        x, y = s12(t), s23(t)
        z = s23(x)
        for img, f in ((t, c), (x, -c), (y, -c), (s12(y), c), (z, c), (s12(z), -c)):
            out.accumulate(img, f)
    return out


def on_leg(sigma, key, i):
    """sigma on legs i and i + 1 of a key, counted from 0."""
    return key[:i] + sigma.perm[key[i], key[i + 1]] + key[i + 2:]


def antisymmetrizer(t, sigma):
    """A_k = sum over pi in S_k of sgn(pi) sigma_pi on a left tensor of
    rank k, term by term.  sigma_pi follows the adjacent swaps that bubble
    sort makes on pi's one-line form, a reduced word, so its length is
    the sign's exponent."""
    k = t.rank
    words = []
    for pi in permutations(range(k)):
        seq, word = list(pi), []
        for end in range(k - 1, 0, -1):
            for i in range(end):
                if seq[i] > seq[i + 1]:
                    seq[i], seq[i + 1] = seq[i + 1], seq[i]
                    word.append(i)
        words.append(word)
    out = TensorField(t.calculus, rank=k)
    for key, c in t.terms.items():
        for word in words:
            image = key
            for i in word:
                image = on_leg(sigma, image, i)
            out.accumulate(image, -c if len(word) % 2 else c)
    return out


def perm_table(perms):
    """The Cayley table of a list of permutations by composing every
    pair, (x*y)(i) = x(y(i))."""
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(x[i] for i in y)] for y in perms] for x in perms]


def is_associative(table):
    """(a*b)*c == a*(b*c) for every triple of a Cayley table."""
    n = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def respects_product(group, size, table):
    """(ab).x == a.(b.x) for every triple (a, b, x) of an action table."""
    return all(
        table[(group.mul(a, b), x)] == table[(a, table[(b, x)])]
        for a in range(group.order)
        for b in range(group.order)
        for x in range(size)
    )


def hatG_edges(group, hatG):
    """The edges (hg, h) of the left-covariant calculus of hatG."""
    return {(group.mul(h, g), h) for h in range(group.order) for g in hatG}


def is_class_union(group, subset):
    """Every conjugate of every element of subset lies in subset."""
    sset = set(subset)
    if 0 in sset:
        return False
    return all(
        group.adjoint(h, g) in sset for g in sset for h in range(group.order)
    )


class EdgeRoundTripCalculus:
    """A calculus known by its edges: hatG and the covariance flags are
    read back from the left and right difference sets of the edges."""

    def __init__(self, group, edges):
        self.group = group
        edges = frozenset((int(x), int(y)) for x, y in edges)
        for x, y in edges:
            if x == y:
                raise ValueError(f"loop edge at element {x}")
            if not (0 <= x < group.order and 0 <= y < group.order):
                raise ValueError(f"edge ({x},{y}) out of range")
        self.edges = edges
        left_set = sorted({group.mul(group.inverse(y), x) for x, y in edges})
        right_set = sorted({group.mul(x, group.inverse(y)) for x, y in edges})
        self.left_covariant = len(edges) == group.order * len(left_set)
        self.right_covariant = len(edges) == group.order * len(right_set)
        self.hatG = tuple(left_set) if self.left_covariant else None
        self.bicovariant = self.left_covariant and is_class_union(group, left_set)

    def __eq__(self, other):
        return (
            isinstance(other, EdgeRoundTripCalculus)
            and self.group is other.group
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((id(self.group), self.edges))


# -- orbits, unions and cycles, before they shared one routine each ------


def conjugacy_classes(group):
    """Classes by one conjugation sweep per unseen element, sorted by
    their least element."""
    seen = [False] * group.order
    classes = []
    for x in range(group.order):
        if seen[x]:
            continue
        cls = {group.adjoint(h, x) for h in range(group.order)}
        for y in cls:
            seen[y] = True
        classes.append(tuple(sorted(cls)))
    return sorted(classes, key=lambda c: c[0])


def center(group):
    """The elements that commute with every element, by the table."""
    return [
        x
        for x in range(group.order)
        if all(group.table[x][y] == group.table[y][x] for y in range(group.order))
    ]


def is_abelian(group):
    return all(
        group.table[x][y] == group.table[y][x]
        for x in range(group.order)
        for y in range(x + 1, group.order)
    )


def cycle_name(perm):
    """Cycle notation with 1-based entries by a walk over seen flags."""
    n = len(perm)
    seen = [False] * n
    parts = []
    for start in range(n):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = perm[i]
        parts.append("(" + "".join(str(j + 1) for j in cyc) + ")")
    return "".join(parts) if parts else "e"


def parity(perm):
    """The number of inversions mod 2."""
    flips = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                flips += 1
    return flips % 2


def two_sided_closure(perms):
    """The permutations generated, closing under left and right products."""
    perms = [tuple(p) for p in perms]
    identity = tuple(range(len(perms[0])))
    closure = {identity}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for gen in perms:
            for y in (tuple(x[i] for i in gen), tuple(gen[i] for i in x)):
                if y not in closure:
                    closure.add(y)
                    frontier.append(y)
    return sorted(closure)


def left_covariant_subsets(group):
    """hatG of every left-covariant calculus by a mask over G - {e}."""
    k = group.order - 1
    subsets = []
    for mask in range(2**k):
        subsets.append([g for g in range(1, group.order) if mask & (1 << (g - 1))])
    subsets.sort(key=lambda s: (len(s), s))
    return subsets


def bicovariant_subsets(group):
    """hatG of every bicovariant calculus by a mask over the nontrivial
    classes."""
    classes = [c for c in conjugacy_classes(group) if c != (0,)]
    subsets = []
    for mask in range(2 ** len(classes)):
        chosen = []
        for i, cls in enumerate(classes):
            if mask & (1 << i):
                chosen.extend(cls)
        subsets.append(sorted(chosen))
    subsets.sort(key=lambda s: (len(s), s))
    return subsets


def pair_orbits(gs):
    """Orbits of the diagonal action on off-diagonal pairs, each found by
    acting with every group element."""
    found = set()
    for x in range(gs.size):
        for y in range(gs.size):
            if x != y:
                orbit = {(gs.act(a, x), gs.act(a, y)) for a in range(gs.group.order)}
                found.add(tuple(sorted(orbit)))
    return sorted(found)


def covariant_calculi(gs):
    """Every union of pair orbits by a mask, as sorted edge tuples."""
    orbs = pair_orbits(gs)
    out = []
    for mask in range(2 ** len(orbs)):
        edges = []
        for i, orb in enumerate(orbs):
            if mask >> i & 1:
                edges.extend(orb)
        out.append(tuple(sorted(edges)))
    out.sort(key=lambda e: (len(e), e))
    return out


def irreducible_calculi(gs):
    """The universal calculus less one pair orbit, per orbit."""
    orbs = pair_orbits(gs)
    universe = {p for orb in orbs for p in orb}
    return [tuple(sorted(universe - set(orb))) for orb in orbs]


def sigma_map_pair(sig, pair, power=1):
    """sigma^power of a pair through sigma's table or its inverse table."""
    table = sig.perm if power >= 0 else {v: k for k, v in sig.perm.items()}
    for _ in range(abs(power)):
        pair = table[pair]
    return pair


def sigma_order(sig):
    """The least n >= 1 with sigma^n the identity, by composing."""
    power, n = dict(sig.perm), 1
    while any(p != q for p, q in power.items()):
        power = {p: sig.perm[q] for p, q in power.items()}
        n += 1
    return n


def sigma_cycle_lengths(sig):
    """The length of sigma's orbit of each pair that comes first in it,
    in lexicographic pair order."""
    pairs = sig.calculus.pairs()
    rank = {p: i for i, p in enumerate(pairs)}
    lengths = []
    for p in pairs:
        orbit, q = [p], sig.perm[p]
        while q != p:
            orbit.append(q)
            q = sig.perm[q]
        if min(orbit, key=rank.get) == p:
            lengths.append(len(orbit))
    return lengths


# ---------------------------------------------------------------------------
# Function-valued coefficients.  Tensors and connections store a constant
# coefficient as a scalar (funcs.canonical).  The storage they replaced
# keeps every coefficient as a GroupFunction: the accumulate, the
# Connection constructor and the per-label torsion loop below.  function_valued()
# installs them, so the package's own routines run on |G|-tuples again
# and their answers can be compared through coeffs.


def function_accumulate(self, key, f):
    """Tensor.accumulate storing every coefficient as a GroupFunction."""
    f = funcs.as_function(self.calculus.group, f)
    got = self.terms.get(key)
    if got is not None:
        f = got + f
    if f.is_zero():
        self.terms.pop(key, None)
    else:
        self.terms[key] = f


def function_connection_init(self, calculus, gamma):
    """Connection.__init__ storing every coefficient as a GroupFunction."""
    calculus.require_left_covariant()
    self.calculus = calculus
    hset = set(calculus.hatG)
    self.terms = {}
    for key, value in gamma.items():
        if not set(key) <= hset:
            raise NotInHatG(f"gamma key {key} outside the reduced set")
        f = funcs.as_function(calculus.group, value)
        if not f.is_zero():
            self.terms[key] = f
    self._omega = None


def function_torsion_raw(self):
    """Connection._torsion_raw adding the constant function -C^h_{v,u},
    one label h at a time."""
    cal = self.calculus
    sc = StructureConstants(cal)
    out = {}
    for h in cal.hatG:
        rep = out[h] = TensorField(cal)
        for (k, v, u), f in self.terms.items():
            if k == h:
                rep.accumulate((u, v), f)
        for v, u, c in sc.nonzero(h):
            rep.accumulate((u, v), constant(cal.group, -c))
    return out


@contextlib.contextmanager
def function_valued():
    """Run the package with every coefficient stored as a GroupFunction."""
    with mock.patch.object(Tensor, "accumulate", function_accumulate), \
            mock.patch.object(Connection, "__init__", function_connection_init), \
            mock.patch.object(Connection, "_torsion_raw", function_torsion_raw):
        yield


# ---------------------------------------------------------------------------
# Braid transposes written out.  dual.sigma_prime reads sigma's table,
# sigma_X has sigma's order and the sigma'-connection is the dual of
# the braid connection; these are the formulas they replaced.


def sigma_prime(calculus, h, g):
    """sigma'(theta^h (x) ell_g) = ell_g (x) theta^{g^-1 h g}, as the
    index pair (g, g^-1 h g)."""
    calculus.require_bicovariant()
    group = calculus.group
    if h not in set(calculus.hatG) or g not in set(calculus.hatG):
        raise NotInHatG("mixed basis labels must lie in the reduced set")
    return (g, group.adjoint(group.inverse(g), h))


def sigma_x_order(calculus):
    """Order of sigma_X from the cycles of its own permutation."""
    calculus.require_bicovariant()
    perm = {p: sigma_x(calculus, *p) for p in calculus.pairs()}
    return lcm(*(len(c) for c in cycles(perm)))


def sigma_prime_connection_apply(calculus, x):
    """The sigma'-connection on a field X = ell_g X^g: ell_g (x) dX^g, as
    a dict (g, k) -> coefficient of ell_g (x) theta^k."""
    calculus.require_bicovariant()
    return {
        (g, k): val
        for g, c in x.terms.items()
        for k, val in differential(calculus, c).terms.items()
    }


# ---------------------------------------------------------------------------
# Fiber-wise classification.  braid.classify tests the cycle conditions on
# a tensor's canonical coefficients; this is the classify it replaced,
# with SigmaOperator.in_part as it was on scalar fiber vectors.


def fiber_in_part(sigma, part, vec):
    """Whether a scalar fiber vector lies in "im_a" or "im_s", by sums
    over sigma's cycles."""
    for cycle in sigma.cycles():
        vals = [vec[a] for a in cycle]
        if part == "im_a":
            ok = sum(vals) == 0
        elif part == "im_s":
            ok = len(vals) % 2 or sum(vals[0::2]) == sum(vals[1::2])
        else:
            raise ValueError(f"unknown part {part!r}")
        if not ok:
            return False
    return True


def classify(t, sigma):
    """Strong and weak (anti)symmetry flags for a tensor."""
    s_symmetric = antisymmetrize(t, sigma).is_zero()
    s_antisymmetric = symmetrize(t, sigma).is_zero()
    fibers = [fiber(t, h) for h in range(sigma.calculus.group.order)]
    w_symmetric = all(fiber_in_part(sigma, "im_s", f) for f in fibers)
    w_antisymmetric = all(fiber_in_part(sigma, "im_a", f) for f in fibers)
    return {
        "s_symmetric": s_symmetric,
        "s_antisymmetric": s_antisymmetric,
        "w_symmetric": w_symmetric,
        "w_antisymmetric": w_antisymmetric,
    }


def fiber(t, h):
    """A tensor's coefficient vector at group point h, lexicographic key order."""
    return [c(h) for c in t.coeffs.values()]


def constant_vector(t):
    """A constant tensor's coefficients over every key, lexicographic order."""
    if not t.is_constant():
        raise ValueError("tensor has non-constant coefficients")
    return [t.terms.get(k, 0) for k in t._keys()]


# ---------------------------------------------------------------------------
# Dense sigma parts and solution spaces.  decompose, solve_bi_invariant and
# pattern_matrix read braid.echelon_rows; these built every vector densely
# and echelonized the pattern by Gaussian elimination.


def dense_decompose(sigma):
    """(ker_a, im_a, ker_s, im_s) as the dense Fraction vectors of the
    module docstring of braid, sorted by top, resp. a."""
    m = len(sigma.perm)
    one = Fraction(1)

    def vector(entries):
        vec = [Fraction(0)] * m
        for a, x in entries:
            vec[a] = x
        return vec

    ker_a, im_a, ker_s, im_s = {}, {}, {}, {}
    for cycle in sigma.cycles():
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
    return tuple([d[k] for k in sorted(d)] for d in (ker_a, im_a, ker_s, im_s))


def one_part_echelon_rows(part, block):
    """braid.echelon_rows as it was written part by part, each call
    finding the block's top and rotating it again."""
    t = block.index(max(block))
    ring = block[t:] + block[:t]
    top, even, (one, minus) = ring[0], len(ring) % 2 == 0, (Fraction(1), Fraction(-1))
    if part == "ker_a":
        return [[(a, one) for a in ring]]
    if part == "ker_s":
        return [[(a, (one, minus)[k % 2]) for k, a in enumerate(ring)]] if even else []
    if part == "im_a":
        return [[(a, one), (top, minus)] for a in ring[1:]]
    if even:
        return [[(a, one), (top, (one, minus)[1 - k % 2])] for k, a in enumerate(ring) if k]
    return [[(a, one)] for a in ring]


def per_part_echelon_rows(sigma):
    """decompose's sorted rows of each part, one one_part_echelon_rows
    call per part and cycle."""
    return tuple(
        sorted([r for c in sigma.cycles() for r in one_part_echelon_rows(p, c)]) for p in PARTS
    )


def dense_bi_invariant_vectors(calculus):
    """The indicator vector of each adjoint orbit on pairs, in orbit order."""
    pairs = calculus.pairs()
    index = {p: i for i, p in enumerate(pairs)}
    vectors = []
    for orb in adjoint_orbits(calculus.group, calculus.hatG, 2):
        vec = [Fraction(0)] * len(pairs)
        for p in orb:
            vec[index[p]] = Fraction(1)
        vectors.append(vec)
    return vectors


def dense_pattern_matrix(space, order=None):
    """pattern_matrix by rref of the space's dense vectors, columns in order."""
    cal = space.calculus
    if order is None:
        order = list(cal.hatG)
    pairs = cal.pairs()
    index = {p: i for i, p in enumerate(pairs)}
    cells = [(g, gp) for g in order for gp in order]
    cols = [index[c] for c in cells]
    rows = [[v[j] for j in cols] for v in space.vectors]
    if rows:
        reduced, _, rank = rref(rows)
        reduced = reduced[:rank]
    else:
        reduced = []
    n = len(order)
    coeff_cells = {}
    strings = [["0"] * n for _ in range(n)]
    for ci, cell in enumerate(cells):
        coeffs = tuple(row[ci] for row in reduced)
        coeff_cells[cell] = coeffs
        terms = []
        for k, c in enumerate(coeffs):
            if c == 0:
                continue
            name = f"p{k}"
            if c == 1:
                terms.append(f"+{name}" if terms else name)
            elif c == -1:
                terms.append(f"-{name}")
            else:
                sign = "+" if c > 0 and terms else ""
                terms.append(f"{sign}{c}*{name}")
        text = "".join(terms) if terms else "0"
        strings[ci // n][ci % n] = text
    return {"order": list(order), "cells": coeff_cells, "strings": strings}


# ---------------------------------------------------------------------------
# Adjoint orbits and torsion equations before the conjugation table.
# groups.adjoint_orbits zips rows of group.conjugates and solve_torsion_free
# writes one equation per orbit; these called groups.orbits with one adjoint
# call per leg for every group element, and wrote the equation at every
# triple.  family_basis is TorsionFreeFamily.basis, read only by tests.


def adjoint_orbits(group, hatG, k):
    """Orbits of the diagonal adjoint action on hatG^k by groups.orbits."""
    points = list(product(hatG, repeat=k))
    return orbits(points, lambda a, p: tuple(group.adjoint(a, x) for x in p), group)


def torsion_free_all_triples(calculus, orbs):
    """solve_torsion_free's particular solution and supports over the
    given orbits of triples, with the equation at every triple."""
    hatG = calculus.hatG
    var_of = {t: i for i, orb in enumerate(orbs) for t in orb}
    group = calculus.group
    equations = []
    for h in hatG:
        for g in hatG:
            for gp in hatG:
                adg = group.adjoint(g, gp)
                b = (h == adg) - (h == gp)
                equations.append((var_of[(h, g, gp)], var_of[(h, adg, g)], b))
    return solve_differences(len(orbs), equations)


def family_basis(family):
    """A TorsionFreeFamily's homogeneous solutions: the dense indicator
    vector of each union-find set."""
    n = len(family.orbits)
    return [[Fraction(int(i in s)) for i in range(n)] for s in map(set, family.supports)]


# ---------------------------------------------------------------------------
# Connection checks before they were shortened.


def transport_is_representation(conn):
    """Test U_g U_g' = U_gg' for every pair of group elements, with dense
    Fraction matrices."""
    cal = conn.calculus
    group = cal.group
    if len(cal.hatG) != group.order - 1:
        raise NotUniversal(
            "transport matrices need the universal calculus"
        )
    if not conn.is_left_invariant():
        raise UsageError("transport matrices need constant coefficients")
    idx = {g: i for i, g in enumerate(cal.hatG)}
    mats = {g: identity_matrix(len(cal.hatG)) for g in (0,) + cal.hatG}
    for (h, hp, g), c in conn.terms.items():
        mats[g][idx[hp]][idx[h]] += c
    return all(
        matmul(mats[g], mats[gp]) == mats[group.mul(g, gp)]
        for g in mats
        for gp in mats
    )


def two_sided_square(ts, phi):
    """The square of a two-sided connection: the left components as
    d col - col ^ rho, the right ones from d theta^v - rho ^ theta^v."""
    cal = ts.calculus
    sig = sigma_for(cal)
    r = ts.rho
    left_part, right_part = ts.apply(phi)
    two_left = {}
    for v in cal.hatG:
        col = OneForm(cal, {u: c for (u, w), c in left_part.terms.items() if w == v})
        if col.is_zero():
            continue
        tf = d_one_form(col, sig) - wedge(col, r, sig)
        if not tf.is_zero():
            two_left[v] = tf
    mixed_field = tensor_product(left_part, r) + tensor_product(r, right_part)
    two_right = {}
    for u in cal.hatG:
        acc = None
        for v in cal.hatG:
            c = right_part.terms.get((u, v))
            if c is None:
                continue
            base = d_theta(cal, sig, v) - wedge(r, theta_form(cal, v), sig)
            piece = base.left_mul(right_translate(u, c))
            acc = piece if acc is None else acc + piece
        if acc is not None and not acc.is_zero():
            two_right[u] = acc
    return two_left, mixed_field, two_right


# ---------------------------------------------------------------------------
# Read helpers that only tests called, as the package had them:
# calculus.to_edge_coeffs and from_edge_coeffs, StructureConstants.C,
# Connection.gamma_value, FiniteGroup.element_order,
# SolutionSpace.orbit_classes, braid.symmetric_universal_sigma_order and
# gset.is_covariant, each written as a function of its object.


def to_edge_coeffs(form):
    """theta-basis 1-form -> per-edge scalars via e_{x,y} = e_x theta^{y^-1 x}."""
    grp = form.calculus.group
    out = {}
    for g, c in form.terms.items():
        ginv = grp.inverse(g)
        for x, v in enumerate(funcs.as_function(grp, c).values):
            if v != 0:
                out[(x, grp.mul(x, ginv))] = v
    return out


def from_edge_coeffs(calculus, edge_coeffs):
    """Per-edge scalars -> theta-basis 1-form."""
    calculus.require_left_covariant()
    grp = calculus.group
    values = {g: [0] * grp.order for g in calculus.hatG}
    for (x, y), v in edge_coeffs.items():
        if (x, y) not in calculus.edges:
            raise ValueError(f"({x},{y}) is not an edge of the calculus")
        g = grp.mul(grp.inverse(y), x)
        values[g][x] += Fraction(v)
    return OneForm(
        calculus, {g: funcs.from_values(grp, vals) for g, vals in values.items()}
    )


def structure_constant(group, h, g, gp):
    """C^h_{g,g'} = -delta^h_g - delta^h_{g'} + delta^h_{g g'}."""
    val = 0
    if h == g:
        val -= 1
    if h == gp:
        val -= 1
    if h == group.mul(g, gp):
        val += 1
    return val


def gamma_value(conn, h, g, gp):
    """Coefficient Gamma^h_{g,g'} as a group function."""
    return funcs.as_function(conn.calculus.group, conn.terms.get((h, g, gp), 0))


def element_order(group, x):
    acc, k = x, 1
    while acc != 0:
        acc = group.table[acc][x]
        k += 1
    return k


def orbit_classes(space):
    """bi_invariant's adjoint orbits on pairs, as lists of pairs."""
    pairs = space.calculus.pairs()
    return [[pairs[a] for a in b] for b in space.blocks] if space.kind == "bi_invariant" else None


def symmetric_universal_sigma_order(n):
    """Order of sigma on the universal calculus of the symmetric group S_n.

    Closed form for n >= 3: twice the smallest positive exponent that kills
    every element of S_n, which is 2 * lcm(2, ..., n).
    """
    if n < 3:
        raise ValueError("closed form requires n >= 3")
    return 2 * lcm(*range(2, n + 1))


def is_covariant(gs, edges):
    """Whether an edge set is stable under the diagonal action."""
    edges = set(edges)
    return all(
        (gs.act(a, x), gs.act(a, y)) in edges for x, y in edges for a in range(gs.group.order)
    )


# ---------------------------------------------------------------------------
# Cycle notation read character by character.  cli.parse_permutation reads
# it with one cycle pattern and refuses overlapping cycles and commas
# inside a cycle; this is the scanner it replaced, which took both.


def scan_permutation(text, set_size=None):
    """Parse cycle notation like (12) or (1 2 3)(4 5) into one-line form.

    Points are 1-based in the notation.  With set_size the permutation
    acts on that many points, and a larger point is refused before the
    one-line list is built.
    """
    text = text.strip()
    if not text:
        raise UsageError("empty permutation")
    cycles = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            if depth:
                raise UsageError(f"nested cycle in {text!r}")
            depth = 1
            current = []
        elif ch == ")":
            if not depth:
                raise UsageError(f"unbalanced cycle in {text!r}")
            depth = 0
            cycles.append(current)
            current = []
        elif depth:
            current.append(ch)
        elif not ch.isspace():
            raise UsageError(f"unexpected character {ch!r} in {text!r}")
    if depth:
        raise UsageError(f"unbalanced cycle in {text!r}")
    parsed = []
    for raw in cycles:
        joined = "".join(raw)
        if "," in joined or " " in joined:
            points = [p for p in joined.replace(",", " ").split() if p]
        else:
            points = list(joined)
        try:
            cyc = [int(p) - 1 for p in points]
        except ValueError:
            raise UsageError(f"cannot parse cycle points in {text!r}")
        if len(set(cyc)) != len(cyc) or any(p < 0 for p in cyc):
            raise UsageError(f"bad cycle {joined!r}")
        parsed.append(cyc)
    top = max((max(c) for c in parsed if c), default=-1) + 1
    if set_size is not None and top > set_size:
        raise UsageError(f"permutation moves point {top} beyond the set size {set_size}")
    degree = max(top, set_size or 0)
    if degree == 0:
        raise UsageError(f"empty permutation {text!r}")
    onel = list(range(degree))
    for cyc in parsed:
        for i, p in enumerate(cyc):
            onel[p] = cyc[(i + 1) % len(cyc)]
    return tuple(onel)
