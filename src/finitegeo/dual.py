"""Vector fields, dual connections, braid transposes and metrics.

Vector fields on a finite group carry right coefficients with respect to
the basis dual to the left-invariant 1-forms: X = ell_g X^g, where ell_g
is the difference operator f -> R_{g^-1} f - f.  The duality contraction
is left A-linear in the form slot and right A-linear in the field slot.
pair(t, X) contracts the last legs of a left tensor t with the legs of
a right tensor X, innermost first: <theta^u theta^v theta^w, ell_a ell_b>
pairs w with a and v with b.  A remaining lead leg u stays, and X's
coefficient crosses it to the left as R_{u^-1}:

  <t_{u,v} theta^u theta^v, ell_a X^a> = t_{u,v} (R_{u^-1} X^v) theta^u.

This module implements the contraction, the dual of a left connection,
the braid transposes on mixed and doubled field tensors, metrics and
their compatibility, and the canonical field-valued form whose covariant
derivatives reproduce torsion and curvature.
"""

from math import lcm

from .braid import (
    TensorField,
    apply_a3,
    d_rep,
    project_two_form,
    sigma_for,
    tensor_product,
)
from .calculus import OneForm, Tensor, differential, theta_form
from .connection import extend_on_basis_pairs, extensibility_analysis
from .errors import CalculusMismatch, NotBicovariant, NotExtensible, NotInHatG
from .funcs import as_function, right_translate
from .groups import cycles


class VectorField(Tensor):
    """A vector field X = ell_g X^g with right coefficient functions."""

    side = "right"

    def __repr__(self):
        parts = ", ".join(
            f"{self.calculus.group.name(g)}: "
            f"{as_function(self.calculus.group, f).as_strings()}"
            for g, f in sorted(self.terms.items())
        )
        return f"VectorField({{{parts}}})"

    def apply_to_function(self, f):
        """X f = <df, X> = (ell_g f) X^g."""
        return pair(differential(self.calculus, f), self)


def vector_field_basis(calculus, g):
    """The basis field ell_g."""
    return VectorField(calculus, {g: 1})


def pair(t, x):
    """Contract the last x.rank legs of a left tensor t with the right
    tensor x, innermost first: a GroupFunction when no leg is left, else
    the 1-form on the lead leg (module docstring)."""
    cal = t.calculus
    if cal != x.calculus:
        raise CalculusMismatch("tensor and field on different calculi")
    if isinstance(t, OneForm) and t.basis != "theta":
        raise CalculusMismatch("pairing expects the theta basis")
    lead = t.rank - x.rank
    if t.side != "left" or x.side != "right" or lead not in (0, 1):
        raise ValueError("pair takes a left tensor with at most one leg more than the right one")
    group = cal.group
    acc = OneForm(cal, {}) if lead else 0
    for key, c in t.terms.items():
        legs = t._legs(key)
        inner = legs[lead:][::-1]
        xc = x.terms.get(inner if x.rank > 1 else inner[0])
        if xc is None:
            continue
        if lead:
            acc.accumulate(legs[0], c * right_translate(group.inverse(legs[0]), xc))
        else:
            acc = acc + c * xc
    return acc if lead else as_function(group, acc)


class DualConnection:
    """The dual of a left connection, acting on vector fields.

    nabla* ell_g = ell_h (x) omega^h_g with the connection 1-forms of
    the source; values are stored as dicts mapping (h, k) to the theta
    coefficient of the h-th field component.
    """

    def __init__(self, source):
        self.source = source
        self.calculus = source.calculus

    def apply(self, x):
        """nabla* X as a dict (h, k) -> coefficient of ell_h (x) theta^k,
        in sorted key order, each nonzero one in canonical form.

        The coefficient is ell_k X^h + sum_g Gamma^h_{g,k} R_{k^-1} X^g.
        """
        cal = self.calculus
        if x.calculus != cal:
            raise CalculusMismatch("field lives on a different calculus")
        group = cal.group
        out = TensorField(cal)
        for h, c in x.terms.items():
            for k, e in differential(cal, c).terms.items():
                out.accumulate((h, k), e)
        for (h, g, k), gam in self.source.terms.items():
            xg = x.terms.get(g)
            if xg is not None:
                out.accumulate((h, k), gam * right_translate(group.inverse(k), xg))
        return dict(sorted(out.terms.items()))

    def check_identity(self, gamma, x):
        """Verify <gamma, nabla* X> = d<gamma, X> - <nabla gamma, X>."""
        cal = self.calculus
        lhs_form = OneForm(cal, {})
        for (h, k), c in self.apply(x).items():
            a = gamma.terms.get(h)
            if a is not None:
                lhs_form.accumulate(k, a * c)
        rhs = differential(cal, pair(gamma, x)) - pair(self.source.apply(gamma), x)
        return lhs_form == rhs


def dual_connection(conn):
    """The dual right connection of a left connection."""
    return DualConnection(conn)


def sigma_prime(calculus, h, g):
    """Basis action of the mixed braid transpose.

    sigma'(theta^h (x) ell_g) = ell_g (x) theta^{g^-1 h g}; returns the
    resulting index pair (g, g^-1 h g).
    """
    calculus.require_bicovariant()
    group = calculus.group
    if h not in set(calculus.hatG) or g not in set(calculus.hatG):
        raise NotInHatG("mixed basis labels must lie in the reduced set")
    return (g, group.adjoint(group.inverse(g), h))


def sigma_prime_connection(calculus):
    """The right connection X -> sigma'(rho (x) X) - X (x) rho.

    It annihilates every basis field ell_g and acts on general fields as
    ell_g (x) dX^g; it coincides with the dual of the braid connection.
    """
    calculus.require_bicovariant()

    class _SigmaPrimeConnection:
        def __init__(self, cal):
            self.calculus = cal

        def apply(self, x):
            cal = self.calculus
            return {
                (g, k): val
                for g, c in x.terms.items()
                for k, val in differential(cal, c).terms.items()
            }

    return _SigmaPrimeConnection(calculus)


def sigma_x(calculus, g, gp):
    """Basis action of the doubled-field braid transpose.

    sigma_X(ell_g (x) ell_g') = ell_{ad(g)g'} (x) ell_g; returns the
    resulting index pair.
    """
    calculus.require_bicovariant()
    if g not in set(calculus.hatG) or gp not in set(calculus.hatG):
        raise NotInHatG("field labels must lie in the reduced set")
    return (calculus.group.adjoint(g, gp), g)


def sigma_x_order(calculus):
    """Order of the doubled-field braid transpose."""
    calculus.require_bicovariant()
    perm = {p: sigma_x(calculus, *p) for p in calculus.pairs()}
    return lcm(*(len(c) for c in cycles(perm)))


class Metric(Tensor):
    """A doubled vector field g = ell_g (x) ell_g' g^{g,g'}."""

    rank = 2
    side = "right"

    def is_left_invariant(self):
        return self.is_constant()


def sigma_x_apply(m):
    """Apply the doubled-field transpose to a metric; right coefficients
    ride unchanged."""
    cal = m.calculus
    out = Metric(cal, {})
    for (g, gp), f in m.terms.items():
        out.accumulate(sigma_x(cal, g, gp), f)
    return out


def metric_symmetry(m):
    """Symmetry flags of a metric: fixed under the doubled transpose,
    and constancy of coefficients."""
    flags = {"left_invariant": m.is_left_invariant()}
    try:
        flags["s_symmetric"] = sigma_x_apply(m) == m
    except NotBicovariant:
        flags["s_symmetric"] = None
    return flags


def _dual_twist_apply(report, h, g):
    """Value of the dual twist on theta^h (x) ell_g, as a dict mapping
    the field label q to the 1-form component."""
    cal = report.connection.calculus
    group = cal.group
    q0, k0 = sigma_prime(cal, h, g)
    out = {q0: theta_form(cal, k0)}
    for q in cal.hatG:
        kk = group.mul(group.mul(group.inverse(g), h), q)
        val = report.v_map.get((q, h, g, kk))
        if val is not None:
            out.setdefault(q, OneForm(cal, {})).accumulate(kk, -val)
    return {q: f for q, f in out.items() if not f.is_zero()}


def metric_compatibility(m, route="both", connection=None):
    """Covariant derivative of a metric along a connection's dual.

    Route "dual-extension" extends the dual connection to doubled
    fields using the dual twist; route "tensor-dual" dualizes the
    tensor-square extension of the source connection through the
    pairing.  Returns a dict with the residual components (a dict
    mapping (p, q) to the 1-form in ell_p (x) ell_q slot), the
    compatibility verdict, and, with route "both", whether the two
    routes agree.  The default connection is the braid connection,
    whose dual extension differentiates the coefficients.
    """
    cal = m.calculus
    if route not in ("dual-extension", "tensor-dual", "both"):
        raise ValueError(f"unknown route {route!r}")
    if connection is None:
        from .connection import nabla_sigma

        connection = nabla_sigma(cal)
    if connection.calculus != cal:
        raise CalculusMismatch("metric and connection on different calculi")
    report = extensibility_analysis(connection)
    if not report.extensible:
        raise NotExtensible("compatibility needs an extensible connection")
    group = cal.group
    results = {}
    if route in ("dual-extension", "both"):
        dual = dual_connection(connection)
        star = {x: dual.apply(vector_field_basis(cal, x)) for x in cal.hatG}
        out = {}

        def add(p, q, form):
            target = out.setdefault((p, q), OneForm(cal, {}))
            target += form

        for (g, gp), gv in m.terms.items():
            add(g, gp, differential(cal, gv))
            for (h, k), c in star[gp].items():
                add(g, h, OneForm(cal, {k: c}).right_mul(gv))
            for (h, k), c in star[g].items():
                for q, form in _dual_twist_apply(report, k, gp).items():
                    add(h, q, form.left_mul(right_translate(group.inverse(q), c)).right_mul(gv))
        results["dual-extension"] = {k: v for k, v in out.items() if not v.is_zero()}
    if route in ("tensor-dual", "both"):
        out = {}
        for (v, w), r3 in extend_on_basis_pairs(report):
            form = differential(cal, m.terms.get((w, v), 0)) - pair(r3, m)
            if not form.is_zero():
                out[(w, v)] = form
        results["tensor-dual"] = out
    report_out = {"routes": results}
    chosen = results.get("dual-extension", results.get("tensor-dual"))
    report_out["residual"] = chosen
    report_out["compatible"] = not chosen
    if route == "both":
        # Both routes store only the nonzero residual forms.
        report_out["routes_agree"] = results["dual-extension"] == results["tensor-dual"]
    return report_out


def canonical_form_and_torsion(conn):
    """Covariant derivatives of the canonical field-valued form.

    The canonical form is Xi = ell_g (x) theta^g.  Its first covariant
    derivative is ell_g (x) Theta^g with Theta^g = d theta^g
    + omega^g_h theta^h, the torsion 2-form of theta^g; the second is
    ell_g (x) D Theta^g, and D Theta^g must reproduce the contraction
    of the curvature 2-forms with the basis modulo the degree 3 part of
    the differential ideal.  The Bianchi identity holds for theta^g when
    Woronowicz's antisymmetrizer A_3 annihilates the difference of the
    two sides (braid.apply_a3).  Returns the 2-forms and, per basis
    label, the verdict and the difference.
    """
    cal = conn.calculus
    cal.require_bicovariant()
    sig = sigma_for(cal)
    omega = conn.connection_one_forms()
    theta_caps = {}
    theta_reps = {}
    for g in cal.hatG:
        rep = conn._torsion_raw_theta(g)
        theta_reps[g] = rep
        theta_caps[g] = project_two_form(rep, sig)
    bianchi = {}
    for g in cal.hatG:
        # lhs - rhs = d Theta^g + omega^g_{g'} Theta^{g'} - Omega^g_{g'} theta^{g'},
        # summed term by term in place.
        difference = d_rep(theta_reps[g])
        for gp in cal.hatG:
            form = omega[(g, gp)]
            if not form.is_zero():
                tensor_product(form, theta_reps[gp], difference)
            crep = conn._curvature_raw(g, gp)
            if not crep.is_zero():
                tensor_product(crep, theta_form(cal, gp, -1), difference)
        bianchi[g] = {"holds": apply_a3(difference, sig).is_zero(), "difference": difference}
    return {"Theta": theta_caps, "bianchi": bianchi}


def verify_dual_invariance(conn):
    """Check that the dual connection of a left-invariant connection has
    constant connection-form coefficients."""
    return all(form.is_constant() for form in conn.connection_one_forms().values())
