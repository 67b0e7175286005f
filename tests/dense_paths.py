"""Dense structure-constant and connection loops, kept as test oracles.

The package reads C^h_{g,g'} through StructureConstants.nonzero and the
connection coefficients Gamma through their stored entries.  The loops
they replaced, which visit every pair or triple of hatG and call
StructureConstants.C or probe gamma per key, live here unchanged (methods
written as functions of the connection), so the tests can compare the two
answers.  pytest does not collect this module; test modules import it by
name from the tests directory.
"""

from fractions import Fraction

from finitegeo import funcs
from finitegeo.braid import Rank3Field, TensorField, project_two_form
from finitegeo.calculus import StructureConstants
from finitegeo.connection import Connection
from finitegeo.errors import CalculusMismatch, NotInHatG
from finitegeo.funcs import constant, ell, right_translate, zero


def nabla_theta(conn, h):
    """nabla theta^h as a tensor field."""
    cal = conn.calculus
    if h not in set(cal.hatG):
        raise NotInHatG(f"{h} not in the reduced set")
    out = TensorField(cal)
    for g in cal.hatG:
        for gp in cal.hatG:
            f = conn.gamma.get((h, g, gp))
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
    out = TensorField(cal)
    for g in cal.hatG:
        ginv = group.inverse(g)
        for gp in cal.hatG:
            acc = right_translate(ginv, phi.coeff(gp)) - phi.coeff(gp)
            for h in cal.hatG:
                f = conn.gamma.get((h, gp, g))
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
    rep = TensorField(cal)
    for u in cal.hatG:
        uinv = group.inverse(u)
        for v in cal.hatG:
            acc = zero(group)
            gam = conn.gamma.get((h, gp, v))
            if gam is not None:
                acc = acc + right_translate(uinv, gam) - gam
            for k in cal.hatG:
                a = conn.gamma.get((h, k, u))
                b = conn.gamma.get((k, gp, v))
                if a is not None and b is not None:
                    acc = acc + a * right_translate(uinv, b)
                c = sc.C(k, v, u)
                if c:
                    gk = conn.gamma.get((h, gp, k))
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
    out = {}
    for h in cal.hatG:
        for k in cal.hatG:
            acc = ell(k, x.coeff(h))
            for g in cal.hatG:
                gam = dual.source.gamma.get((h, g, k))
                if gam is not None:
                    xg = x.terms.get(g)
                    if xg is not None:
                        acc = acc + gam * right_translate(
                            group.inverse(k), xg
                        )
            if not acc.is_zero():
                out[(h, k)] = acc
    return out
