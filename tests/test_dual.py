"""Vector fields, dual connections, transposed braidings and metrics."""

from fractions import Fraction

import pytest

from finitegeo import funcs
from finitegeo.braid import SigmaOperator
from finitegeo.calculus import differential, from_hatG, theta_form
from finitegeo.connection import (
    c_connection,
    nabla_sigma,
    sigma_family,
    solve_torsion_free,
)
from finitegeo.dual import (
    DualConnection,
    Metric,
    VectorField,
    canonical_form_and_torsion,
    metric_compatibility,
    metric_symmetry,
    pair,
    sigma_prime,
    sigma_x,
    sigma_x_apply,
)
from finitegeo.errors import NotBicovariant, NotInHatG

import dense_paths


def _delta_pair_form_field(cal, g, x):
    return pair(theta_form(cal, g), VectorField(cal, {x: 1}))


def test_basis_pairing_is_kronecker(s3_transposition_calculus):
    cal = s3_transposition_calculus
    for g in cal.hatG:
        for x in cal.hatG:
            val = _delta_pair_form_field(cal, g, x)
            if g == x:
                assert val == funcs.constant(cal.group, 1)
            else:
                assert val.is_zero()


def test_pairing_respects_function_coefficients(s3_transposition_calculus):
    cal = s3_transposition_calculus
    s3 = cal.group
    f = funcs.from_values(s3, [1, 2, 3, 4, 5, 6])
    g = cal.hatG[0]
    phi = theta_form(cal, g, coeff=f)
    x = VectorField(cal, {g: funcs.delta(s3, 0)})
    assert pair(phi, x) == f * funcs.delta(s3, 0)


def test_dual_defining_identity(s3_transposition_calculus):
    """<gamma, nabla* X> = d<gamma, X> - <nabla gamma, X> for samples."""
    cal = s3_transposition_calculus
    s3 = cal.group
    conn = c_connection(cal)
    dual = DualConnection(conn)
    gamma = theta_form(cal, cal.hatG[0], coeff=funcs.delta(s3, 1)) + theta_form(
        cal, cal.hatG[2], coeff=3
    )
    x = VectorField(
        cal,
        {
            cal.hatG[1]: funcs.from_values(s3, [1, 0, 2, 0, 0, 1]),
            cal.hatG[0]: funcs.constant(s3, Fraction(1, 2)),
        },
    )
    assert dual.check_identity(gamma, x)


def test_dual_of_braid_connection_differentiates_coefficients(
    s3_transposition_calculus,
):
    cal = s3_transposition_calculus
    s3 = cal.group
    dual = DualConnection(nabla_sigma(cal))
    f = funcs.from_values(s3, [0, 1, 1, 0, 2, 0])
    g = cal.hatG[1]
    out = dual.apply(VectorField(cal, {g: f}))
    for (h, k), c in out.items():
        assert h == g
        assert c == funcs.ell(k, f)


def test_sigma_prime_is_braid_transpose(s3_universal):
    """Pairing a basis form into the mixed transpose reproduces sigma.

    <theta^g', sigma'(theta^h (x) ell_g)> is the 1-form [g' = g]
    theta^k with (g, k) the image pair; <sigma(theta^g' (x) theta^h),
    ell_g> contracts the right slot of sigma's image.  Comparing the
    theta coefficients turns both sides into delta products.
    """
    cal = s3_universal
    sig = SigmaOperator(cal)
    for h in cal.hatG:
        for g in cal.hatG:
            q, k = sigma_prime(cal, h, g)
            assert q == g
            for gp in cal.hatG:
                u, v = sig.map_pair((gp, h))
                for w in cal.hatG:
                    lhs = 1 if (gp == g and k == w) else 0
                    rhs = 1 if (v == g and u == w) else 0
                    assert lhs == rhs


def test_sigma_x_is_braid_transpose(s3_universal):
    """The doubled-field transpose pairs against sigma on basis tensors.

    With nested contraction <theta^g (x) theta^g', ell_a (x) ell_b>
    = [g' = a][g = b], moving sigma across the pairing swaps which side
    carries it.
    """
    cal = s3_universal
    sig = SigmaOperator(cal)
    for h in cal.hatG:
        for hp in cal.hatG:
            a, b = sigma_x(cal, h, hp)
            for g in cal.hatG:
                for gp in cal.hatG:
                    u, v = sig.map_pair((g, gp))
                    lhs = (1 if gp == a else 0) * (1 if g == b else 0)
                    rhs = (1 if v == h else 0) * (1 if u == hp else 0)
                    assert lhs == rhs


def test_sigma_x_order_matches_braid_order(
    s3_universal, s3_cycle_calculus, s3_transposition_calculus
):
    for cal in (s3_universal, s3_cycle_calculus, s3_transposition_calculus):
        assert dense_paths.sigma_x_order(cal) == SigmaOperator(cal).order()


def test_sigma_x_rejects_labels_outside_hatg(s3, s3_cycle_calculus):
    """Either label outside hatG raises NotInHatG; a calculus that is not
    bicovariant raises NotBicovariant first."""
    for g, gp in [(1, 3), (3, 1), (0, 3), (3, 6)]:
        with pytest.raises(NotInHatG):
            sigma_x(s3_cycle_calculus, g, gp)
    with pytest.raises(NotBicovariant):
        sigma_x(from_hatG(s3, [1]), 0, 2)


def test_metric_coefficients_and_symmetry(s3_transposition_calculus):
    cal = s3_transposition_calculus
    a, b = cal.hatG[0], cal.hatG[1]
    m = Metric(cal, {(a, a): 2, (b, b): 2, (a, b): Fraction(1, 3)})
    assert m.coeff(a, b) == funcs.constant(cal.group, Fraction(1, 3))
    assert m.coeff(b, a).is_zero()
    flags = metric_symmetry(m)
    assert flags["left_invariant"]
    assert not flags["s_symmetric"]


def test_diagonal_metric_is_s_symmetric(s3_transposition_calculus):
    cal = s3_transposition_calculus
    m = Metric(cal, {(g, g): 1 for g in cal.hatG})
    assert sigma_x_apply(m) == m
    assert metric_symmetry(m)["s_symmetric"]


def test_left_invariant_metric_compatible_with_braid_connection(
    s3_transposition_calculus,
):
    cal = s3_transposition_calculus
    m = Metric(
        cal,
        {
            (cal.hatG[0], cal.hatG[0]): 2,
            (cal.hatG[1], cal.hatG[1]): 5,
            (cal.hatG[2], cal.hatG[2]): 1,
            (cal.hatG[0], cal.hatG[1]): Fraction(1, 2),
        },
    )
    report = metric_compatibility(m, route="both")
    assert report["compatible"]
    assert report["routes_agree"]


def test_non_invariant_metric_routes_agree_but_fail(s3_transposition_calculus):
    cal = s3_transposition_calculus
    s3 = cal.group
    m = Metric(cal, {(cal.hatG[0], cal.hatG[0]): funcs.delta(s3, 0) + 1})
    report = metric_compatibility(m, route="both")
    assert report["routes_agree"]
    assert not report["compatible"]


def test_compatibility_routes_agree_for_family_member(
    s3_transposition_calculus,
):
    cal = s3_transposition_calculus
    m = Metric(cal, {(g, g): 3 for g in cal.hatG})
    member = sigma_family(cal, [1, -2, 0])
    report = metric_compatibility(m, route="both", connection=member)
    assert report["routes_agree"]


def test_canonical_form_torsion_matches_connection_torsion(
    s3_transposition_calculus,
):
    cal = s3_transposition_calculus
    fam = solve_torsion_free(cal, mode="bi")
    conn = fam.member([1, 0, -1])
    report = canonical_form_and_torsion(conn)
    for g in cal.hatG:
        assert report["Theta"][g] == conn.torsion(theta_form(cal, g))
        assert report["bianchi"][g]["holds"]


def test_bianchi_for_c_connection(s3_transposition_calculus):
    report = canonical_form_and_torsion(c_connection(s3_transposition_calculus))
    for g in s3_transposition_calculus.hatG:
        assert report["bianchi"][g]["holds"]


def test_pair_tensor_field_contracts_inner_slot(s3_transposition_calculus):
    cal = s3_transposition_calculus
    conn = c_connection(cal)
    gamma = theta_form(cal, cal.hatG[0])
    x = VectorField(cal, {cal.hatG[1]: 1})
    contracted = pair(conn.apply(gamma), x)
    lhs = differential(cal, pair(gamma, x)) - contracted
    dual = DualConnection(conn)
    out = dual.apply(x)
    acc = {}
    for (h, k), c in out.items():
        if h == cal.hatG[0]:
            acc[k] = acc.get(k, funcs.constant(cal.group, 0)) + c
    from finitegeo.calculus import OneForm

    assert OneForm(cal, acc) == lhs
