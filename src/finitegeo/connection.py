"""Linear connections on first order differential calculi over finite groups.

A left connection on the bimodule of 1-forms is determined, relative to the
left-invariant basis, by coefficient functions Gamma^h_{g,g'} indexed by
triples of elements of the reduced set.  This module builds the named
connections (the C-connection, the braid family, the flat transport
connection), computes covariant derivatives, torsion and curvature,
solves linear invariance and torsion-freeness conditions, analyzes
extensibility to a two-argument Leibniz rule, and extends connections to
tensor products and to the two-sided setting.
"""

from .braid import TensorField, d_rep, project_two_form, sigma_for, tensor_product, wedge
from .calculus import (
    OneForm,
    differential,
    rho,
    theta_form,
)
from .errors import (
    BadLambdaLength,
    CalculusMismatch,
    InternalInconsistency,
    NotExtensible,
    NotUniversal,
    UsageError,
)
from .funcs import GroupFunction, _exact, as_function, right_translate
from .groups import adjoint_orbits, generators
from .linalg import solve_differences


class Connection:
    """A left connection nabla: Omega^1 -> Omega^1 (x) Omega^1.

    The connection is stored through its coefficients Gamma^h_{g,g'}:
    terms holds them as TensorField(calculus, gamma, rank=3) stores them:
    the nonzero ones in canonical form (funcs.canonical), a scalar when
    constant, keyed (h, g, g'); gamma reads them back as GroupFunctions.
    The action on a basis form is

        nabla theta^h = -Gamma^h_{g,g'} theta^{g'} (x) theta^g,

    summed over g, g' in the reduced set.
    """

    def __init__(self, calculus, gamma):
        self.calculus = calculus
        self.terms = TensorField(calculus, gamma, rank=3).terms
        self._omega = None

    @property
    def gamma(self):
        """The nonzero coefficients as GroupFunctions, keyed (h, g, g')."""
        group = self.calculus.group
        return {key: as_function(group, c) for key, c in self.terms.items()}

    def is_left_invariant(self):
        return not any(isinstance(c, GroupFunction) for c in self.terms.values())

    def __eq__(self, other):
        if not isinstance(other, Connection):
            return NotImplemented
        return self.calculus == other.calculus and self.terms == other.terms

    def __repr__(self):
        n = len(self.terms)
        return f"Connection({self.calculus!r}, {n} nonzero coefficients)"

    def connection_one_forms(self):
        """Matrix of 1-forms omega^i_j = Gamma^i_{j,k} theta^k with
        nabla theta^i = -omega^i_j (x) theta^j."""
        cal = self.calculus
        out = {(i, j): OneForm(cal, {}) for i in cal.hatG for j in cal.hatG}
        for (i, j, k), f in self.terms.items():
            out[(i, j)].terms[k] = f
        return out

    def apply(self, phi):
        """Covariant derivative of a 1-form.

        The coefficient of the result at (g, g') is
        R_{g^-1} phi_{g'} - phi_{g'} - sum_h phi_h Gamma^h_{g',g}.
        """
        cal = self.calculus
        if phi.calculus != cal:
            raise CalculusMismatch("form lives on a different calculus")
        out = TensorField(cal)
        for gp, f in phi.terms.items():
            for g, e in differential(cal, f).terms.items():
                out.accumulate((g, gp), e)
        for (h, gp, g), gam in self.terms.items():
            f = phi.terms.get(h)
            if f is not None:
                out.accumulate((g, gp), -(f * gam))
        return out

    def _torsion_raw(self):
        """Representatives of the torsion of every theta^h, keyed by h:
        Gamma^h_{v,u} - C^h_{v,u} at (u, v), from one pass over Gamma."""
        cal = self.calculus
        out = {h: TensorField(cal) for h in cal.hatG}
        for (h, v, u), f in self.terms.items():
            out[h].terms[(u, v)] = f
        for h, rep in out.items():
            for v, u, c in cal.structure_constants.nonzero(h):
                rep.accumulate((u, v), -c)
        return out

    def torsion(self, phi=None):
        """Torsion T = nabla - d applied to a 1-form.

        With phi given, returns the torsion 2-form of that 1-form.
        Without phi, returns a dict mapping each basis label h to the
        torsion of theta^h.
        """
        sig = sigma_for(self.calculus)
        if phi is not None:
            return project_two_form(d_rep(phi) - self.apply(phi), sig)
        return {h: project_two_form(rep, sig) for h, rep in self._torsion_raw().items()}

    def is_torsion_free(self):
        """True when every torsion 2-form vanishes: each representative is
        fixed by sigma, so A kills it."""
        sig = sigma_for(self.calculus)
        return all(t == sig.apply(t) for t in self._torsion_raw().values())

    def _curvature_raw(self, h, gp):
        """Representative tensor of the curvature 2-form Omega^h_{gp},
        computed as d omega^h_{gp} + omega^h_k (x) omega^k_{gp} before
        projection."""
        if self._omega is None:
            self._omega = self.connection_one_forms()
        omega = self._omega
        rep = d_rep(omega[(h, gp)])
        for k in self.calculus.hatG:
            a, b = omega[(h, k)], omega[(k, gp)]
            if a.terms and b.terms:
                tensor_product(a, b, rep)
        return rep

    def curvature(self, h=None):
        """Curvature 2-forms with nabla^2 theta^h = -Omega^h_{g'} (x) theta^{g'}.

        For a basis label h, returns a dict mapping g' to the 2-form
        Omega^h_{g'}.  Without h, returns a dict over all basis labels.
        """
        if h is None:
            return {g: self.curvature(g) for g in self.calculus.hatG}
        sig = sigma_for(self.calculus)
        return {
            gp: project_two_form(self._curvature_raw(h, gp), sig)
            for gp in self.calculus.hatG
        }

    def curvature_is_zero(self):
        """True when every curvature 2-form vanishes."""
        sig = sigma_for(self.calculus)
        return all(
            t == sig.apply(t)
            for t in (self._curvature_raw(h, gp) for h, gp in self.calculus.pairs())
        )


def c_connection(calculus):
    """The connection whose coefficients are the structure constants."""
    calculus.require_left_covariant()
    sc = calculus.structure_constants
    gamma = {(h, g, gp): c for h in calculus.hatG for g, gp, c in sc.nonzero(h)}
    return Connection(calculus, gamma)


def canonical_connection(calculus):
    """The connection nabla phi = rho (x) phi.

    All its coefficients are Gamma^g_{g,g'} = -1; its twist map vanishes,
    so the tensor extension is nabla (x) id.
    """
    calculus.require_left_covariant()
    return Connection(calculus, {(g, g, gp): -1 for g, gp in calculus.pairs()})


def sigma_family(calculus, lambdas):
    """Member of the braid family of connections.

    The family is parametrized by one scalar per power of the braid
    operator: nabla phi = rho (x) phi - sum_n lambda_n sigma^n(phi (x) rho),
    with n running from 0 to one below the braid operator order.
    """
    sig = sigma_for(calculus)
    order = sig.order()
    lams = [_exact(x) for x in lambdas]
    if len(lams) != order:
        raise BadLambdaLength(
            f"expected {order} parameters (the braid operator order), "
            f"got {len(lams)}"
        )
    gamma = {(g, g, u): -1 for g, u in calculus.pairs()}
    for n, lam in enumerate(lams):
        if lam:
            for g, h in calculus.pairs():
                u, v = sig.map_pair((g, h), n)
                gamma[(g, v, u)] = gamma.get((g, v, u), 0) + lam
    return Connection(calculus, gamma)


def nabla_sigma(calculus):
    """The braid connection nabla phi = rho (x) phi - sigma(phi (x) rho).

    Every basis form theta^g is covariantly constant for it.
    """
    order = sigma_for(calculus).order()
    return sigma_family(calculus, [int(n == 1 % order) for n in range(order)])


def nabla_sigma_inverse(calculus):
    """The braid connection built from the inverse power of sigma."""
    order = sigma_for(calculus).order()
    return sigma_family(calculus, [int(n == order - 1) for n in range(order)])


def flatness_representation_check(conn):
    """Test U_g U_g' = U_gg' for the transport matrices of a connection
    on the universal calculus.

    The matrices are U_g[h'][h] = delta^h_h' + Gamma^h_{h',g} for g in
    the reduced set, extended by U_e = id, held as sparse rows read off
    the stored coefficients.  Returns True when they form a
    representation of the group.  U_g U_s = U_gs is checked for every
    g but only for the generators s (groups.generators).  That implies it
    for all pairs, by induction on the length of a word h = h's in them:
    U_g U_h = U_g U_h' U_s = U_gh' U_s = U_gh, from U_e = id; the argument
    behind Light's test.  A representation gives a flat connection, so
    a representation whose curvature is not zero raises
    InternalInconsistency.  The converse fails for 2-forms taken modulo
    ker A: canonical_connection has U_g = 0 for g != e, yet its
    curvature -rho ^ rho vanishes because rho (x) rho is sigma-invariant.
    """
    cal = conn.calculus
    group = cal.group
    if len(cal.hatG) != group.order - 1:
        raise NotUniversal(
            "transport matrices need the universal calculus"
        )
    if not conn.is_left_invariant():
        raise UsageError("transport matrices need constant coefficients")
    rows = {g: {h: {h: 1} for h in cal.hatG} for g in (0,) + cal.hatG}
    for (h, hp, g), c in conn.terms.items():
        row = rows[g][hp]
        c += row.pop(h, 0)
        if c:
            row[h] = c
    gens = generators(group.table)
    is_rep = all(_times(rows[g], rows[s]) == rows[group.mul(g, s)] for g in rows for s in gens)
    if is_rep and not conn.curvature_is_zero():
        raise InternalInconsistency("the transport is a representation, "
                                    "but the curvature is not zero")
    return is_rep


def _times(a, b):
    """The product of two matrices held as sparse rows, zeros dropped."""
    out = {}
    for i, row in a.items():
        acc = {}
        for k, x in row.items():
            for j, y in b[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out[i] = {j: c for j, c in acc.items() if c}
    return out


def invariance_constraints(calculus, mode="bi"):
    """Orbit structure of invariant connection coefficients.

    Left invariance forces the coefficients to be constants; in mode
    "left" each coefficient triple is then a free parameter.  Mode "bi"
    adds right covariance, identifying coefficients along the orbits of
    the diagonal adjoint action on triples, read off the group's one
    conjugation table by groups.adjoint_orbits.  Returns a dict with the
    orbit list and a predicate testing a given connection.
    """
    calculus.require_left_covariant()
    hatG = calculus.hatG
    if mode == "left":
        orbits = [((h, g, gp),) for h in hatG for g in hatG for gp in hatG]
    elif mode == "bi":
        calculus.require_bicovariant()
        orbits = adjoint_orbits(calculus.group, hatG, 3)
    else:
        raise ValueError(f"unknown invariance mode {mode!r}")

    def satisfies(conn):
        if conn.calculus != calculus:
            raise CalculusMismatch("connection lives on a different calculus")
        return _orbit_values(conn, orbits) is not None

    return {"mode": mode, "orbits": orbits, "satisfies": satisfies}


def _orbit_values(conn, orbits):
    """The connection's constant value on each orbit of coefficient
    triples, or None when a coefficient is not constant or an orbit
    carries more than one value."""
    if not conn.is_left_invariant():
        return None
    out = []
    for orb in orbits:
        vals = {conn.terms.get(t, 0) for t in orb}
        if len(vals) > 1:
            return None
        out.append(vals.pop())
    return out


class TorsionFreeFamily:
    """Affine family of invariant torsion-free connections.

    Members are parametrized by the free orbit variables; the family
    records a particular solution and, per free parameter, the support
    of one union-find set of orbits (its orbit indices, ascending, so the
    set's root comes last), at whose root the particular solution reads 0.
    """

    def __init__(self, calculus, mode, orbits, particular, supports):
        self.calculus = calculus
        self.mode = mode
        self.orbits = orbits
        self.particular = particular
        self.supports = supports

    @property
    def dimension(self):
        return len(self.supports)

    def _vector(self, params):
        """particular + sum_j params[j] * (indicator of set j), one value
        per orbit."""
        vec = list(self.particular)
        for p, support in zip(params, self.supports):
            for i in support:
                vec[i] += p
        return vec

    def member(self, params=None):
        params = [0] * self.dimension if params is None else [_exact(p) for p in params]
        if len(params) != self.dimension:
            raise UsageError(
                f"expected {self.dimension} parameters, got {len(params)}"
            )
        gamma = {}
        for val, orb in zip(self._vector(params), self.orbits):
            if val:
                for t in orb:
                    gamma[t] = val
        return Connection(self.calculus, gamma)

    def contains(self, conn):
        """Parameters reproducing the connection, or None.

        The parameter of each union-find set is the connection's value
        at the set's root; the member with these parameters must then
        match every orbit value.
        """
        if conn.calculus != self.calculus:
            return None
        target = _orbit_values(conn, self.orbits)
        if target is None:
            return None
        params = [target[support[-1]] for support in self.supports]
        return params if self._vector(params) == target else None


def solve_torsion_free(calculus, mode="bi"):
    """Solve the torsion-free condition over invariant connections.

    On constant coefficients the condition reads

        Gamma^h_{g,g'} - Gamma^h_{ad(g)g',g}
            = -delta^h_{g'} + delta^h_{ad(g)g'}

    for all h, g, g' in the reduced set: a difference of two orbit
    variables.  At ad(a)(h, g, g') it ties the same two orbits with the
    same right side, so it is written once per orbit, at its first triple.
    Union-find with potentials (linalg.solve_differences) solves it: the
    potential of each orbit relative to the largest orbit it is tied to
    is the particular solution, and each tied set gives one free
    parameter.  Returns a TorsionFreeFamily.  Torsion is a 2-form, and
    2-forms are built through sigma, so the calculus must be bicovariant
    in either mode (NotBicovariant otherwise); on such a calculus ad(g)g'
    stays in the reduced set.
    """
    calculus.require_bicovariant()
    orbits = invariance_constraints(calculus, mode)["orbits"]
    var_of = {t: i for i, orb in enumerate(orbits) for t in orb}
    conj = calculus.group.conjugates
    equations = []
    for i, (h, g, gp) in enumerate(orb[0] for orb in orbits):
        adg = conj[gp][g]
        equations.append((i, var_of[(h, adg, g)], (h == adg) - (h == gp)))
    particular, supports = solve_differences(len(orbits), equations)
    return TorsionFreeFamily(calculus, mode, orbits, particular, supports)


class ExtensibilityReport:
    """Outcome of testing a connection for the two-argument Leibniz rule.

    A connection is extensible when nabla(phi f) = (nabla phi) f
    + Psi(phi (x) df) holds with Psi = sigma - V for a bimodule map V.
    The attributes also record the stricter pointwise form, which in
    addition forbids coefficients on the diagonal slots.
    """

    def __init__(self, connection, extensible, violations,
                 psi_representable, psi_violations, v_map):
        self.connection = connection
        self.extensible = extensible
        self.violations = violations
        self.psi_representable = psi_representable
        self.psi_violations = psi_violations
        self.v_map = v_map

    def v_apply(self, t):
        """Apply the bimodule map V to the first two legs of a tensor of
        rank at least 2; further legs ride along."""
        cal = self.connection.calculus
        group = cal.group
        out = t._like()
        for (g, gp, *rest), f in t.terms.items():
            prod = group.mul(gp, g)
            for h in cal.hatG:
                hp = group.mul(group.inverse(h), prod)
                val = self.v_map.get((g, gp, h, hp))
                if val is not None:
                    out.accumulate((hp, h, *rest), f * val)
        return out

    def psi_apply(self, t):
        """Apply the twist Psi = sigma - V to the first two legs of a
        tensor of rank at least 2."""
        if not self.extensible:
            raise NotExtensible(
                "connection does not satisfy the two-argument Leibniz rule"
            )
        sig = sigma_for(self.connection.calculus)
        return sig.apply(t) - self.v_apply(t)


def _extensible_report(conn):
    """The connection's ExtensibilityReport; raises NotExtensible when the
    connection has no twist map."""
    report = extensibility_analysis(conn)
    if not report.extensible:
        raise NotExtensible("connection does not extend to tensor products")
    return report


def extensibility_analysis(conn):
    """Test a connection for extensibility and extract its twist map.

    nabla(phi f) = (nabla phi) f + Psi(phi (x) df) holds with a bimodule
    map Psi = sigma - V exactly when Gamma^g_{h,h'} vanishes whenever
    h h' g^-1 lies outside the reduced set and differs from the
    identity.  The stricter pointwise form additionally requires the
    coefficients with h h' = g to vanish.  Both verdicts are reported,
    together with the extracted map V.
    """
    cal = conn.calculus
    group = cal.group
    hset = set(cal.hatG)
    violations = []
    psi_violations = []
    v_map = {}
    for (g, h, hp), f in conn.terms.items():
        t = group.mul(group.mul(h, hp), group.inverse(g))
        if t in hset:
            v_map[(g, t, h, hp)] = -f
        elif t == 0:
            psi_violations.append((g, h, hp))
        else:
            violations.append((g, h, hp))
            psi_violations.append((g, h, hp))
    violations.sort()
    psi_violations.sort()
    return ExtensibilityReport(
        conn,
        extensible=not violations,
        violations=violations,
        psi_representable=not psi_violations,
        psi_violations=psi_violations,
        v_map=v_map,
    )


def bimodule_hom_space(calculus, kind="V"):
    """Free coefficient slots of bimodule maps on tensor squares.

    Kind "V" lists the slots (g, g', h, h') with h h' = g' g available
    to maps Omega^1 (x) Omega^1 -> Omega^1 (x) Omega^1; kind "W" lists
    the slots (g, h, h') with h h' = g available to maps of the diagonal
    product type.  Entries may carry arbitrary function values.
    """
    calculus.require_left_covariant()
    group = calculus.group
    hatg = calculus.hatG
    hset = set(hatg)
    slots = []
    if kind == "V":
        for g in hatg:
            for gp in hatg:
                target = group.mul(gp, g)
                for h in hatg:
                    hp = group.mul(group.inverse(h), target)
                    if hp in hset:
                        slots.append((g, gp, h, hp))
    elif kind == "W":
        for g in hatg:
            for h in hatg:
                hp = group.mul(group.inverse(h), g)
                if hp in hset:
                    slots.append((g, h, hp))
    else:
        raise ValueError(f"unknown bimodule map kind {kind!r}")
    return slots


def _extend_pair(report, phi, nabla_phi, psi, nabla_psi, out):
    """Add nabla(phi (x) psi) = (nabla phi) (x) psi + (Psi (x) id)(phi (x)
    nabla psi) into out, a rank-3 TensorField, given nabla phi and nabla psi."""
    tensor_product(nabla_phi, psi, out)
    out += report.psi_apply(tensor_product(phi, nabla_psi))
    return out


def extend_on_basis_pairs(report):
    """Yield ((v, w), nabla(theta^v (x) theta^w)) for every pair of labels.

    Takes the connection's ExtensibilityReport and computes each
    nabla theta^g once.  Raises NotExtensible, through psi_apply, when the
    connection has no twist map.
    """
    conn = report.connection
    cal = conn.calculus
    theta = {g: theta_form(cal, g) for g in cal.hatG}
    nabla = {g: conn.apply(form) for g, form in theta.items()}
    for v in cal.hatG:
        for w in cal.hatG:
            out = TensorField(cal, rank=3)
            yield (v, w), _extend_pair(report, theta[v], nabla[v], theta[w], nabla[w], out)


def extend_to_tensor(conn, t):
    """nabla on the tensor square, applied to a tensor field.

    The field is decomposed along theta^g (x) (column forms) and each
    pair is extended; returns a rank 3 field.  Raises NotExtensible
    when the connection has no twist map.
    """
    report = _extensible_report(conn)
    cal = conn.calculus
    out = TensorField(cal, rank=3)
    for g in cal.hatG:
        psi = OneForm(cal, {gp: right_translate(g, c) for (u, gp), c in t.terms.items() if u == g})
        if not psi.is_zero():
            theta = theta_form(cal, g)
            _extend_pair(report, theta, conn.apply(theta), psi, conn.apply(psi), out)
    return out


class TwoSidedConnection:
    """The basic connection on 1-forms with values in
    (Omega^1 (x) Gamma) + (Gamma (x) Omega^1),
    phi -> (rho (x) phi, -phi (x) rho), obeying the two-sided Leibniz
    rule nabla(f phi f') = df (x) phi f' + f phi (x) df' + f (nabla phi) f'.
    """

    def __init__(self, calculus):
        calculus.require_left_covariant()
        self.calculus = calculus
        self.rho = rho(calculus)

    def apply(self, phi):
        return tensor_product(self.rho, phi), -tensor_product(phi, self.rho)


def two_sided_space(calculus):
    """Describe the affine space of two-sided connections.

    The difference of two of them is a pair of bimodule maps from
    1-forms into tensor squares; each such map is supported on the
    diagonal slots listed by bimodule_hom_space(..., "W").  Returns a
    dict with the base connection, the slot lists for the two value
    factors, and the uniqueness verdict.
    """
    calculus.require_left_covariant()
    slots = bimodule_hom_space(calculus, "W")
    return {
        "base": TwoSidedConnection(calculus),
        "left_slots": list(slots),
        "right_slots": list(slots),
        "dimension": 2 * len(slots),
        "unique": not slots,
    }


def two_sided_square(ts, phi):
    """Square of a two-sided connection on a 1-form.

    Returns the three graded components of nabla(nabla phi): a dict
    mapping the middle label to a 2-form (forms on the left), a rank 3
    field (the mixed component), and a dict mapping the middle label to
    a 2-form (forms on the right).  Zero components are omitted from
    the dicts.  The calculus is inner, d = [rho, .}, so the left one of
    column col_v is d col_v - col_v ^ rho = rho ^ col_v, and the right
    one of row_u = sum_v R_u(c_uv) theta^v is row_u ^ rho, as
    d theta^v - rho ^ theta^v = theta^v ^ rho.
    """
    cal = ts.calculus
    sig = sigma_for(cal)
    r = ts.rho
    left_part, right_part = ts.apply(phi)
    two_left, two_right = {}, {}
    for g in cal.hatG:
        col = OneForm(cal, {u: c for (u, w), c in left_part.terms.items() if w == g})
        row = OneForm(cal, {v: right_translate(g, c) for (u, v), c in right_part.terms.items()
                            if u == g})
        for out, form in ((two_left, wedge(r, col, sig)), (two_right, wedge(row, r, sig))):
            if not form.is_zero():
                out[g] = form
    mixed_field = tensor_product(left_part, r) + tensor_product(r, right_part)
    return two_left, mixed_field, two_right
