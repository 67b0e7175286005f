"""First order differential calculi: graphs, 1-forms and the differential."""

import random
from fractions import Fraction

import pytest

from finitegeo import calculus, funcs
from finitegeo.calculus import (
    OneForm,
    StructureConstants,
    differential,
    from_hatG,
    omega_coefficients,
    omega_form,
    rho,
    theta_form,
)
from finitegeo.errors import IdentityInHatG, NotBicovariant, NotLeftCovariant, TooLarge
from finitegeo.groups import cyclic

import dense_paths
from test_connection_checks import _seeded_form
from test_echelon_rows import IDS, SAMPLE


def test_edges_encode_right_difference(s3):
    cal = calculus.universal(s3)
    for x, y in cal.edges:
        g = s3.mul(s3.inverse(y), x)
        assert g != 0
        assert g in cal.hatG


def test_universal_calculus_is_complete_digraph(z3):
    cal = calculus.universal(z3)
    assert len(cal.edges) == 3 * 2
    assert cal.left_covariant and cal.right_covariant and cal.bicovariant


def test_trivial_calculus_has_no_edges(s3):
    cal = calculus.trivial(s3)
    assert cal.edges == frozenset()
    assert cal.bicovariant


def test_identity_cannot_enter_hatg(s3):
    with pytest.raises(IdentityInHatG):
        from_hatG(s3, [0, 1])


def test_left_covariant_count_on_z3(z3):
    cals = calculus.enumerate_left_covariant(z3)
    assert len(cals) == 4
    sizes = sorted(len(c.edges) for c in cals)
    assert sizes == [0, 3, 3, 6]


def test_bicovariant_calculi_on_s3(s3):
    cals = calculus.enumerate_bicovariant(s3)
    assert len(cals) == 4
    hatgs = [tuple(s3.name(g) for g in c.hatG) for c in cals]
    assert ("ab", "ba") in hatgs
    assert ("b", "a", "c") in hatgs


@pytest.mark.parametrize(
    "enumerate_", [calculus.enumerate_left_covariant, calculus.enumerate_bicovariant]
)
def test_enumerations_past_the_limit_raise_too_large(enumerate_):
    """Z14 has 2^13 = 8192 > ENUM_LIMIT calculi of either kind."""
    with pytest.raises(TooLarge):
        enumerate_(cyclic(14))


def test_left_covariant_but_not_bicovariant_exists(s3):
    cal = from_hatG(s3, [s3.element_index("a")])
    assert cal.left_covariant
    assert not cal.bicovariant
    with pytest.raises(NotBicovariant):
        cal.require_bicovariant()


def test_single_edge_graph_is_not_left_covariant(s3):
    cal = calculus.DifferentialCalculus(s3, [(1, 0)])
    assert not cal.left_covariant
    with pytest.raises(NotLeftCovariant):
        cal.require_left_covariant()


def test_structure_constants_values(s3_universal):
    s3 = s3_universal.group
    sc = StructureConstants(s3_universal)
    const = {(h, g, gp): c for h in s3_universal.hatG for g, gp, c in sc.nonzero(h)}
    a = s3.element_index("a")
    b = s3.element_index("b")
    ab = s3.element_index("ab")
    c = s3.element_index("c")
    assert const[(a, a, b)] == -1
    assert const[(ab, a, b)] == 1
    assert const[(a, a, a)] == -2
    assert const[(b, a, ab)] == 1
    assert (c, a, b) not in const


def test_differential_coefficients_are_difference_quotients(s3_universal):
    s3 = s3_universal.group
    f = funcs.from_values(s3, [0, 1, 4, 9, 16, 25])
    df = differential(s3_universal, f)
    for g in s3_universal.hatG:
        assert df.coeff(g) == funcs.ell(g, f)


def test_differential_of_constant_vanishes(s3_universal):
    c = funcs.constant(s3_universal.group, Fraction(7, 2))
    assert differential(s3_universal, c).is_zero()


def test_differential_leibniz_rule(s3_universal):
    s3 = s3_universal.group
    f = funcs.from_values(s3, [1, 0, 2, 0, 1, 1])
    fp = funcs.from_values(s3, [0, 3, 0, 1, 0, 2])
    lhs = differential(s3_universal, f * fp)
    rhs = differential(s3_universal, f).right_mul(fp) + (
        differential(s3_universal, fp).left_mul(f)
    )
    assert lhs == rhs


def test_function_commutes_past_theta_by_translation(s3_universal):
    s3 = s3_universal.group
    f = funcs.from_values(s3, [2, 0, 1, 0, 0, 5])
    g = s3.element_index("ab")
    moved = funcs.right_translate(g, f)
    phi = theta_form(s3_universal, g).left_mul(f)
    psi = theta_form(s3_universal, g).right_mul(moved)
    assert phi == psi


def test_omega_forms_and_edge_coefficients_store_integers_as_int(s3_universal):
    s3 = s3_universal.group
    forms = [omega_form(s3_universal, g) for g in s3_universal.hatG]
    forms.append(dense_paths.from_edge_coeffs(s3_universal,
                                              {e: Fraction(2) for e in s3_universal.edges}))
    assert all(type(v) is int for phi in forms for c in phi.coeffs.values() for v in c.values)
    a = s3.element_index("a")
    half = dense_paths.from_edge_coeffs(s3_universal, {(a, 0): Fraction(1, 2)}).coeff(a).values[a]
    assert half == Fraction(1, 2) and type(half) is Fraction


def test_rho_restricted_to_an_edge_is_one(s3_universal):
    r = rho(s3_universal)
    ec = dense_paths.to_edge_coeffs(r)
    assert set(ec) == set(s3_universal.edges)
    assert all(v == 1 for v in ec.values())


def test_edge_coefficients_round_trip(s3_universal):
    s3 = s3_universal.group
    phi = theta_form(s3_universal, s3.element_index("c"), coeff=3) + theta_form(
        s3_universal, s3.element_index("a"), coeff=funcs.delta(s3, 2)
    )
    back = dense_paths.from_edge_coeffs(s3_universal, dense_paths.to_edge_coeffs(phi))
    assert back == phi


def _from_omega(cal, psi):
    """sum_k psi_k omega^k in the theta basis."""
    return sum((omega_form(cal, k).left_mul(f) for k, f in psi.items()), OneForm(cal, {}))


def test_omega_theta_conversion_round_trip(s3_cycle_calculus):
    s3 = s3_cycle_calculus.group
    phi = theta_form(s3_cycle_calculus, s3.element_index("ab"), coeff=2)
    assert _from_omega(s3_cycle_calculus, omega_coefficients(phi)) == phi


@pytest.mark.parametrize("label,cal", SAMPLE, ids=IDS)
def test_omega_coefficients_rebuild_the_form(label, cal):
    rng = random.Random(label)
    for _ in range(2):
        phi = _seeded_form(cal, rng)
        psi = omega_coefficients(phi)
        assert list(psi) == list(cal.hatG)
        assert _from_omega(cal, psi) == phi


def test_omega_form_of_central_free_group_twists(s3_transposition_calculus):
    s3 = s3_transposition_calculus.group
    a = s3.element_index("a")
    w = omega_form(s3_transposition_calculus, a)
    for h in s3.elements():
        expected = s3.adjoint(s3.inverse(h), a)
        for k in s3_transposition_calculus.hatG:
            assert w.coeff(k)(h) == (1 if k == expected else 0)


def test_rho_is_invariant_under_both_bases(s3_universal):
    psi = omega_coefficients(rho(s3_universal))
    assert list(psi) == list(s3_universal.hatG)
    assert all(c == funcs.constant(s3_universal.group, 1) for c in psi.values())


def test_dot_export_is_deterministic(s3_universal):
    one = calculus.export_dot(s3_universal)
    two = calculus.export_dot(s3_universal)
    assert one == two
    assert one.startswith("digraph calculus {")
    assert '"e"' in one


def test_edges_and_hatG_entries_are_checked(s3):
    with pytest.raises(ValueError, match=r"^loop edge at element 2$"):
        calculus.DifferentialCalculus(s3, [(0, 1), (2, 2)])
    for edge in ((0, 6), (-1, 0)):
        with pytest.raises(ValueError, match=rf"^edge \({edge[0]},{edge[1]}\) out of range$"):
            calculus.DifferentialCalculus(s3, [edge])
    for entry in (6, -1):
        with pytest.raises(ValueError, match=r"^hatG entry out of range$"):
            from_hatG(s3, [1, entry])
