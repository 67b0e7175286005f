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

from fractions import Fraction

from .braid import (
    Rank3Field,
    TensorField,
    basis_tensor,
    d_one_form,
    d_rep,
    d_theta,
    project_two_form,
    sigma_for,
    tensor_product,
    wedge,
)
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
    NotInHatG,
    NotUniversal,
    UsageError,
)
from .funcs import GroupFunction, as_function, canonical, right_translate
from .groups import orbits as group_orbits
from .linalg import identity_matrix, matmul, solve_differences


class Connection:
    """A left connection nabla: Omega^1 -> Omega^1 (x) Omega^1.

    The connection is stored through its coefficients Gamma^h_{g,g'}:
    terms maps (h, g, g') to each nonzero one in canonical form
    (funcs.canonical), a scalar when constant; gamma and gamma_value
    read them back as GroupFunctions.  The action on a basis form is

        nabla theta^h = -Gamma^h_{g,g'} theta^{g'} (x) theta^g,

    summed over g, g' in the reduced set.
    """

    def __init__(self, calculus, gamma):
        calculus.require_left_covariant()
        self.calculus = calculus
        group = calculus.group
        hset = set(calculus.hatG)
        terms = {}
        for key, value in gamma.items():
            h, g, gp = key
            if h not in hset or g not in hset or gp not in hset:
                raise NotInHatG(f"gamma key {key} outside the reduced set")
            c = canonical(group, value)
            if isinstance(c, GroupFunction) or c:  # a canonical function is nonzero
                terms[(h, g, gp)] = c
        self.terms = terms
        self._omega = None

    @property
    def gamma(self):
        """The nonzero coefficients as GroupFunctions, keyed (h, g, g')."""
        group = self.calculus.group
        return {key: as_function(group, c) for key, c in self.terms.items()}

    def gamma_value(self, h, g, gp):
        """Coefficient Gamma^h_{g,g'} as a group function."""
        return as_function(self.calculus.group, self.terms.get((h, g, gp), 0))

    def is_left_invariant(self):
        return not any(isinstance(c, GroupFunction) for c in self.terms.values())

    def __eq__(self, other):
        if not isinstance(other, Connection):
            return NotImplemented
        return self.calculus == other.calculus and self.terms == other.terms

    def __repr__(self):
        n = len(self.terms)
        return f"Connection({self.calculus!r}, {n} nonzero coefficients)"

    def sigma(self):
        return sigma_for(self.calculus)

    def nabla_theta(self, h):
        """nabla theta^h as a tensor field."""
        return self.apply(theta_form(self.calculus, h))

    def connection_one_forms(self):
        """Matrix of 1-forms omega^i_j = Gamma^i_{j,k} theta^k with
        nabla theta^i = -omega^i_j (x) theta^j."""
        cal = self.calculus
        out = {(i, j): OneForm(cal, {}) for i in cal.hatG for j in cal.hatG}
        for (i, j, k), f in self.terms.items():
            out[(i, j)].terms[k] = f
        return out

    def apply(self, phi):
        """Covariant derivative of a 1-form in the theta basis.

        The coefficient of the result at (g, g') is
        R_{g^-1} phi_{g'} - phi_{g'} - sum_h phi_h Gamma^h_{g',g}.
        """
        cal = self.calculus
        if phi.calculus != cal:
            raise CalculusMismatch("form lives on a different calculus")
        if phi.basis != "theta":
            raise CalculusMismatch("covariant derivative expects theta basis")
        out = TensorField(cal)
        for gp, f in phi.terms.items():
            for g, e in differential(cal, f).terms.items():
                out.accumulate((g, gp), e)
        for (h, gp, g), gam in self.terms.items():
            f = phi.terms.get(h)
            if f is not None:
                out.accumulate((g, gp), -(f * gam))
        return out

    def _torsion_raw_theta(self, h):
        """Representative of the torsion of theta^h: Gamma^h_{v,u} - C^h_{v,u}
        at (u, v)."""
        cal = self.calculus
        out = TensorField(cal)
        for (k, v, u), f in self.terms.items():
            if k == h:
                out.accumulate((u, v), f)
        for v, u, c in cal.structure_constants.nonzero(h):
            out.accumulate((u, v), -c)
        return out

    def torsion(self, phi=None):
        """Torsion T = nabla - d applied to a 1-form.

        With phi given, returns the torsion 2-form of that 1-form.
        Without phi, returns a dict mapping each basis label h to the
        torsion of theta^h.
        """
        if phi is not None:
            return project_two_form(d_rep(phi) - self.apply(phi), self.sigma())
        return {
            h: project_two_form(self._torsion_raw_theta(h), self.sigma())
            for h in self.calculus.hatG
        }

    def is_torsion_free(self):
        """True when every torsion 2-form vanishes: each representative is
        fixed by sigma, so A kills it."""
        sig = self.sigma()
        return all(
            t == sig.apply(t) for t in map(self._torsion_raw_theta, self.calculus.hatG)
        )

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
        sig = self.sigma()
        return {
            gp: project_two_form(self._curvature_raw(h, gp), sig)
            for gp in self.calculus.hatG
        }

    def curvature_is_zero(self):
        """True when every curvature 2-form vanishes."""
        sig = self.sigma()
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
    lams = [Fraction(x) for x in lambdas]
    if len(lams) != order:
        raise BadLambdaLength(
            f"expected {order} parameters (the braid operator order), "
            f"got {len(lams)}"
        )
    gamma = {(g, g, u): Fraction(-1) for g, u in calculus.pairs()}
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
    sig = sigma_for(calculus)
    lams = [Fraction(0)] * sig.order()
    lams[1 % len(lams)] = Fraction(1)
    return sigma_family(calculus, lams)


def nabla_sigma_inverse(calculus):
    """The braid connection built from the inverse power of sigma."""
    sig = sigma_for(calculus)
    lams = [Fraction(0)] * sig.order()
    lams[-1] = Fraction(1)
    return sigma_family(calculus, lams)


def flatness_representation_check(conn):
    """Test U_g U_g' = U_gg' for the transport matrices of a connection
    on the universal calculus.

    The matrices are U_g[h'][h] = delta^h_h' + Gamma^h_{h',g} for g in
    the reduced set, extended by U_e = id.  Returns True when they form
    a representation of the group.  The outcome is compared against the
    direct curvature computation; a mismatch between the two notions is
    flagged by raising InternalInconsistency rather than silently preferring
    either answer.
    """
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
    is_rep = all(
        matmul(mats[g], mats[gp]) == mats[group.mul(g, gp)]
        for g in mats
        for gp in mats
    )
    flat = conn.curvature_is_zero()
    if is_rep != flat:
        raise InternalInconsistency(
            "transport representation property and zero curvature disagree "
            f"(representation={is_rep}, flat={flat})"
        )
    return is_rep


def invariance_constraints(calculus, mode="bi"):
    """Orbit structure of invariant connection coefficients.

    Left invariance forces the coefficients to be constants; in mode
    "left" each coefficient triple is then a free parameter.  Mode "bi"
    adds right covariance, identifying coefficients along the orbits of
    the diagonal adjoint action on triples.  Returns a dict with the
    orbit list and a predicate testing a given connection.
    """
    calculus.require_left_covariant()
    group, hatG = calculus.group, calculus.hatG
    triples = [(h, g, gp) for h in hatG for g in hatG for gp in hatG]
    if mode == "left":
        orbits = [(t,) for t in triples]
    elif mode == "bi":
        calculus.require_bicovariant()
        orbits = group_orbits(
            triples, lambda a, t: tuple(group.adjoint(a, x) for x in t), group
        )
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
    set's root comes last).  The particular solution reads 0 at each
    root.  basis gives the same sets as dense indicator vectors.
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

    @property
    def basis(self):
        """The homogeneous solutions: one indicator vector per set."""
        n = len(self.orbits)
        return [[Fraction(int(i in s)) for i in range(n)] for s in map(set, self.supports)]

    def _vector(self, params):
        """particular + sum_j params[j] * (indicator of set j), one value
        per orbit."""
        vec = list(self.particular)
        for p, support in zip(params, self.supports):
            for i in support:
                vec[i] += p
        return vec

    def member(self, params=None):
        if params is None:
            params = [Fraction(0)] * self.dimension
        params = [Fraction(p) for p in params]
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
        params = [Fraction(target[support[-1]]) for support in self.supports]
        return params if self._vector(params) == target else None


def solve_torsion_free(calculus, mode="bi"):
    """Solve the torsion-free condition over invariant connections.

    On constant coefficients the condition reads

        Gamma^h_{g,g'} - Gamma^h_{ad(g)g',g}
            = -delta^h_{g'} + delta^h_{ad(g)g'}

    for all h, g, g' in the reduced set: a difference of two orbit
    variables.  Union-find with potentials (linalg.solve_differences)
    solves it: the potential of each orbit relative to the largest orbit
    it is tied to is the particular solution, and each tied set gives one
    free parameter.  Returns a TorsionFreeFamily.
    """
    info = invariance_constraints(calculus, mode)
    orbits = info["orbits"]
    var_of = {t: i for i, orb in enumerate(orbits) for t in orb}
    group = calculus.group
    equations = []
    for h in calculus.hatG:
        for g in calculus.hatG:
            for gp in calculus.hatG:
                adg = group.adjoint(g, gp)
                b = (h == adg) - (h == gp)
                equations.append((var_of[(h, g, gp)], var_of[(h, adg, g)], b))
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
                 psi_representable, psi_violations, v_map, w_map):
        self.connection = connection
        self.extensible = extensible
        self.violations = violations
        self.psi_representable = psi_representable
        self.psi_violations = psi_violations
        self.v_map = v_map
        self.w_map = w_map

    def v_apply(self, t):
        """Apply the bimodule map V to the first two legs of a rank-2 or
        rank-3 tensor; a third leg rides along."""
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
        rank-2 or rank-3 tensor."""
        if not self.extensible:
            raise NotExtensible(
                "connection does not satisfy the two-argument Leibniz rule"
            )
        sig = self.connection.sigma()
        return sig.apply(t) - self.v_apply(t)


def extensibility_analysis(conn):
    """Test a connection for extensibility and extract its twist map.

    nabla(phi f) = (nabla phi) f + Psi(phi (x) df) holds with a bimodule
    map Psi = sigma - V exactly when Gamma^g_{h,h'} vanishes whenever
    h h' g^-1 lies outside the reduced set and differs from the
    identity.  The stricter pointwise form additionally requires the
    coefficients with h h' = g to vanish.  Both verdicts are reported,
    together with the extracted maps V (off-diagonal) and W (diagonal).
    """
    cal = conn.calculus
    group = cal.group
    hset = set(cal.hatG)
    violations = []
    psi_violations = []
    v_map = {}
    w_map = {}
    for (g, h, hp), f in conn.terms.items():
        t = group.mul(group.mul(h, hp), group.inverse(g))
        if t in hset:
            v_map[(g, t, h, hp)] = -f
        elif t == 0:
            w_map[(g, h, hp)] = -f
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
        w_map=w_map,
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
    nabla psi) into out, a Rank3Field, given nabla phi and nabla psi."""
    tensor_product(nabla_phi, psi, out)
    out += report.psi_apply(tensor_product(phi, nabla_psi))
    return out


def extend_on_pair(conn, phi, psi):
    """nabla on the tensor square, applied to phi (x) psi.

    Computes (nabla phi) (x) psi + (Psi (x) id)(phi (x) nabla psi).
    Raises NotExtensible when the connection has no twist map.
    """
    report = extensibility_analysis(conn)
    if not report.extensible:
        raise NotExtensible("connection does not extend to tensor products")
    return _extend_pair(
        report, phi, conn.apply(phi), psi, conn.apply(psi), Rank3Field(conn.calculus)
    )


def extend_on_basis_pairs(report):
    """Yield ((v, w), nabla(theta^v (x) theta^w)) for every pair of labels.

    Takes the connection's ExtensibilityReport and computes each
    nabla theta^g once.  Raises NotExtensible when the connection has no
    twist map.
    """
    if not report.extensible:
        raise NotExtensible("connection does not extend to tensor products")
    conn = report.connection
    cal = conn.calculus
    theta = {g: theta_form(cal, g) for g in cal.hatG}
    nabla = {g: conn.apply(form) for g, form in theta.items()}
    for v in cal.hatG:
        for w in cal.hatG:
            out = Rank3Field(cal)
            yield (v, w), _extend_pair(report, theta[v], nabla[v], theta[w], nabla[w], out)


def extend_to_tensor(conn, t):
    """nabla on the tensor square, applied to a tensor field.

    The field is decomposed along theta^g (x) (column forms) and each
    pair is extended; returns a rank 3 field.  Raises NotExtensible
    when the connection has no twist map.
    """
    report = extensibility_analysis(conn)
    if not report.extensible:
        raise NotExtensible("connection does not extend to tensor products")
    cal = conn.calculus
    out = Rank3Field(cal)
    for g in cal.hatG:
        psi = OneForm(cal, {gp: right_translate(g, c) for (u, gp), c in t.terms.items() if u == g})
        if not psi.is_zero():
            theta = theta_form(cal, g)
            _extend_pair(report, theta, conn.apply(theta), psi, conn.apply(psi), out)
    return out


class TwoSidedConnection:
    """A connection on 1-forms with values in
    (Omega^1 (x) Gamma) + (Gamma (x) Omega^1), obeying the two-sided
    Leibniz rule nabla(f phi f') = df (x) phi f' + f phi (x) df'
    + f (nabla phi) f'.

    Stored through its action on a 1-form as a pair of tensor fields.
    """

    def __init__(self, calculus, left_map, right_map):
        calculus.require_left_covariant()
        self.calculus = calculus
        self._left = left_map
        self._right = right_map

    def apply(self, phi):
        return self._left(phi), self._right(phi)

    def check_leibniz(self, f, phi, fp):
        """Verify the two-sided Leibniz rule on the triple (f, phi, f')."""
        cal = self.calculus
        middle = phi.left_mul(f).right_mul(fp)
        lhs_l, lhs_r = self.apply(middle)
        nl, nr = self.apply(phi)
        df = differential(cal, f)
        dfp = differential(cal, fp)
        left_expected = nl.left_mul(f).right_mul(fp) + tensor_product(
            df, phi.right_mul(fp)
        )
        right_expected = nr.left_mul(f).right_mul(fp) + tensor_product(
            phi.left_mul(f), dfp
        )
        return (lhs_l - left_expected).is_zero() and (
            lhs_r - right_expected
        ).is_zero()


def two_sided_connection(calculus):
    """The basic two-sided connection phi -> (rho (x) phi, -phi (x) rho)."""
    calculus.require_left_covariant()
    r = rho(calculus)

    def left_map(phi):
        return tensor_product(r, phi)

    def right_map(phi):
        return tensor_product(phi, r).scale(Fraction(-1))

    return TwoSidedConnection(calculus, left_map, right_map)


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
        "base": two_sided_connection(calculus),
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
    the dicts.
    """
    cal = ts.calculus
    sig = sigma_for(cal)
    r = rho(cal)
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


def verify_invariance_transport(conn):
    """Check that the twist, the tensor extension and the dual transport
    of a left-invariant extensible connection keep coefficients constant.

    Returns a dict of booleans.  Raises NotExtensible when the
    connection has no twist map.
    """
    report = extensibility_analysis(conn)
    if not report.extensible:
        raise NotExtensible("connection does not extend to tensor products")
    cal = conn.calculus
    ok_psi = all(
        report.psi_apply(basis_tensor(cal, g, gp)).is_constant()
        for g in cal.hatG
        for gp in cal.hatG
    )
    ok_tensor = all(r3.is_constant() for _, r3 in extend_on_basis_pairs(report))
    from .dual import dual_connection, vector_field_basis

    star = dual_connection(conn)
    ok_dual = not any(
        isinstance(c, GroupFunction)
        for g in cal.hatG
        for c in star.apply(vector_field_basis(cal, g)).values()
    )
    return {"psi": ok_psi, "tensor": ok_tensor, "dual": ok_dual}
