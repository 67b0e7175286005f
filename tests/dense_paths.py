"""Dense and rank-specific loops, kept as test oracles.

The package reads C^h_{g,g'} through StructureConstants.nonzero and the
connection coefficients Gamma through their stored entries.  The loops
they replaced, which visit every pair or triple of hatG and call
StructureConstants.C or probe gamma per key, live here unchanged (methods
written as functions of the connection), so the tests can compare the two
answers.  is_associative is the triple loop that groups' associativity
check is compared with, respects_product the one that gset.GSet's
product-rule check is compared with.  EdgeRoundTripCalculus is the
calculus constructor that expanded hatG into edges and rebuilt hatG and
the covariance flags from them, with equality and hash on the edge set.
The next section keeps the loops that groups.orbits, calculus.unions and
groups.cycles replaced: the class, centre and abelian sweeps over the
Cayley table, the cycle-name walk, the inversion-count parity, the mask
loops of the three enumerations, the two-sided permutation closure and
sigma's inverse table.  The last keeps the storage that held every
tensor and connection coefficient as a GroupFunction.  pytest does not
collect this module; test modules import it by name from the tests
directory.
"""

import contextlib
from fractions import Fraction
from unittest import mock

from finitegeo import funcs
from finitegeo.braid import Rank3Field, TensorField, project_two_form
from finitegeo.calculus import OneForm, StructureConstants, Tensor, theta_form
from finitegeo.connection import Connection, extensibility_analysis
from finitegeo.errors import CalculusMismatch, NotExtensible, NotInHatG
from finitegeo.funcs import constant, ell, right_translate, zero


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
    if phi.basis != "theta":
        raise CalculusMismatch("covariant derivative expects theta basis")
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
    sc = StructureConstants(cal)
    out = TensorField(cal)
    for u in cal.hatG:
        for v in cal.hatG:
            acc = conn.gamma_value(h, v, u)
            c = sc.C(h, v, u)
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
    sc = StructureConstants(cal)
    gamma = conn.gamma
    rep = TensorField(cal)
    for u in cal.hatG:
        uinv = group.inverse(u)
        for v in cal.hatG:
            acc = zero(group)
            gam = gamma.get((h, gp, v))
            if gam is not None:
                acc = acc + right_translate(uinv, gam) - gam
            for k in cal.hatG:
                a = gamma.get((h, k, u))
                b = gamma.get((k, gp, v))
                if a is not None and b is not None:
                    acc = acc + a * right_translate(uinv, b)
                c = sc.C(k, v, u)
                if c:
                    gk = gamma.get((h, gp, k))
                    if gk is not None:
                        acc = acc - c * gk
            rep.accumulate((u, v), acc)
    return rep


def c_connection(calculus):
    """The connection whose coefficients are the structure constants."""
    calculus.require_left_covariant()
    sc = StructureConstants(calculus)
    gamma = {}
    for h in calculus.hatG:
        for g in calculus.hatG:
            for gp in calculus.hatG:
                c = sc.C(h, g, gp)
                if c:
                    gamma[(h, g, gp)] = c
    return Connection(calculus, gamma)


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


def sparse_d_one_form_rep(phi):
    """Representative tensor of d(f theta^g) = df (x) theta^g + f d theta^g."""
    calculus = phi.calculus
    if phi.basis != "theta":
        raise ValueError("differential implemented in the theta basis")
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
    out = Rank3Field(calculus)
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
    sig = report.connection.sigma()
    out = TensorField(sig.calculus)
    for pair, c in t.terms.items():
        out.accumulate(sig.map_pair(pair), c)
    return out - v_apply(report, t)


def extend_pair(report, phi, nabla_phi, psi, nabla_psi, out):
    """Add nabla(phi (x) psi) into out, a Rank3Field, given nabla phi and
    nabla psi.

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
    out = Rank3Field(cal)
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
    if phi.basis != "theta":
        raise CalculusMismatch("pairing expects the theta basis")
    acc = zero(phi.calculus.group)
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
    acc = zero(group)
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
# Connection constructor and _torsion_raw_theta below.  function_valued()
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


def function_torsion_raw_theta(self, h):
    """_torsion_raw_theta adding the constant function -C^h_{v,u}."""
    cal = self.calculus
    out = TensorField(cal)
    for (k, v, u), f in self.terms.items():
        if k == h:
            out.accumulate((u, v), f)
    for v, u, c in StructureConstants(cal).nonzero(h):
        out.accumulate((u, v), constant(cal.group, -c))
    return out


@contextlib.contextmanager
def function_valued():
    """Run the package with every coefficient stored as a GroupFunction."""
    with mock.patch.object(Tensor, "accumulate", function_accumulate), \
            mock.patch.object(Connection, "__init__", function_connection_init), \
            mock.patch.object(Connection, "_torsion_raw_theta", function_torsion_raw_theta):
        yield
