"""Linear connections: named families, torsion, curvature, extensibility."""

from fractions import Fraction

import pytest

from finitegeo import calculus, funcs
from finitegeo.braid import TensorField, d_one_form, sigma_for
from finitegeo.calculus import omega_form, theta_form
from finitegeo.connection import (
    Connection,
    TwoSidedConnection,
    bimodule_hom_space,
    c_connection,
    canonical_connection,
    extend_on_basis_pairs,
    extend_to_tensor,
    extensibility_analysis,
    flatness_representation_check,
    invariance_constraints,
    nabla_sigma,
    nabla_sigma_inverse,
    sigma_family,
    solve_torsion_free,
    two_sided_space,
    two_sided_square,
)
from finitegeo.dual import Metric, metric_compatibility
from finitegeo.errors import (
    BadLambdaLength,
    NotBicovariant,
    NotExtensible,
    NotInHatG,
    NotUniversal,
    UsageError,
)

import dense_paths


def _sample_function(group, seed=1):
    return funcs.from_values(
        group, [Fraction((seed * (k + 2)) % 5, 3) for k in range(group.order)]
    )


def test_gamma_keys_must_lie_in_hatg(s3_cycle_calculus):
    with pytest.raises(NotInHatG):
        Connection(s3_cycle_calculus, {(1, 3, 3): 1})


def test_c_connection_coefficients(s3_transposition_calculus):
    s3 = s3_transposition_calculus.group
    conn = c_connection(s3_transposition_calculus)
    a, b, c = (s3.element_index(x) for x in ("a", "b", "c"))
    assert dense_paths.gamma_value(conn, a, a, a).values[0] == -2
    assert dense_paths.gamma_value(conn, a, a, b).values[0] == -1
    assert dense_paths.gamma_value(conn, a, b, b).is_zero()
    assert dense_paths.gamma_value(conn, a, b, c).is_zero()


def test_c_connection_is_torsion_free_and_bi_invariant(s3_transposition_calculus):
    conn = c_connection(s3_transposition_calculus)
    assert conn.is_torsion_free()
    cons = invariance_constraints(s3_transposition_calculus, "bi")
    assert cons["satisfies"](conn)
    assert not conn.curvature_is_zero()


def test_c_connection_torsion_free_on_noncovariant_reduced_sets(z4):
    cal = calculus.from_hatG(z4, [1])
    assert c_connection(cal).is_torsion_free()


def test_braid_connection_annihilates_theta(s3_transposition_calculus):
    conn = nabla_sigma(s3_transposition_calculus)
    for h in s3_transposition_calculus.hatG:
        assert conn.apply(theta_form(s3_transposition_calculus, h)).is_zero()
    assert conn.curvature_is_zero()


def test_braid_connection_torsion_is_d_theta(s3_transposition_calculus):
    cal = s3_transposition_calculus
    sig = sigma_for(cal)
    conn = nabla_sigma(cal)
    for h in cal.hatG:
        t = conn.torsion(theta_form(cal, h))
        assert t == d_one_form(theta_form(cal, h), sig)


def test_inverse_braid_connection_annihilates_omega(s3_transposition_calculus):
    cal = s3_transposition_calculus
    conn = nabla_sigma_inverse(cal)
    for g in cal.hatG:
        assert conn.apply(omega_form(cal, g)).is_zero()
    assert conn.curvature_is_zero()


def test_family_length_is_braid_order(s3_transposition_calculus):
    with pytest.raises(BadLambdaLength):
        sigma_family(s3_transposition_calculus, [1, 0])
    member = sigma_family(s3_transposition_calculus, [0, 1, 0])
    assert member == nabla_sigma(s3_transposition_calculus)


def test_leibniz_rule_for_family_members(s3_transposition_calculus):
    from finitegeo.braid import tensor_product
    from finitegeo.calculus import differential

    cal = s3_transposition_calculus
    s3 = cal.group
    f = _sample_function(s3, 1)
    phi = theta_form(cal, cal.hatG[0], coeff=funcs.delta(s3, 3))
    for lams in ([1, 0, 0], [0, 0, 1], [2, -1, Fraction(1, 2)]):
        member = sigma_family(cal, lams)
        lhs = member.apply(phi.left_mul(f))
        rhs = tensor_product(differential(cal, f), phi) + member.apply(
            phi
        ).left_mul(f)
        assert lhs == rhs


def test_invariance_orbit_counts(s3_universal, s3_transposition_calculus):
    assert len(invariance_constraints(s3_universal, "bi")["orbits"]) == 24
    assert len(invariance_constraints(s3_transposition_calculus, "bi")["orbits"]) == 5
    left = invariance_constraints(s3_transposition_calculus, "left")
    assert len(left["orbits"]) == 27


def test_torsion_free_bi_invariant_family(s3_transposition_calculus):
    cal = s3_transposition_calculus
    s3 = cal.group
    fam = solve_torsion_free(cal, mode="bi")
    assert fam.dimension == 3
    coords = fam.contains(c_connection(cal))
    assert coords == [Fraction(-2), Fraction(0), Fraction(0)]
    a, b, c = (s3.element_index(x) for x in ("a", "b", "c"))
    cons = invariance_constraints(cal, "bi")["satisfies"]
    for params in ([0, 0, 0], [1, -1, 2], [Fraction(1, 3), 0, 5]):
        member = fam.member(params)
        assert member.is_torsion_free()
        assert cons(member)
        for x in (a, b, c):
            for y in (a, b, c):
                for z in (a, b, c):
                    assert dense_paths.gamma_value(member, x, y, z) == dense_paths.gamma_value(
                        member, x, z, y
                    )
        lhs = dense_paths.gamma_value(member, a, b, a)
        assert lhs == dense_paths.gamma_value(member, a, a, b)
        assert lhs.values[0] == dense_paths.gamma_value(member, a, b, c).values[0] - 1


def test_torsion_solve_needs_a_bicovariant_calculus(s3):
    """On hatG {a, b} of S3, ad(a)b = c leaves hatG, so the torsion
    equations name triples no variable stands for; on hatG {a} they close,
    but a 2-form needs sigma.  Both modes refuse both calculi."""
    for names in (("a", "b"), ("a",)):
        cal = calculus.from_hatG(s3, [s3.element_index(n) for n in names])
        for mode in ("left", "bi"):
            with pytest.raises(NotBicovariant):
                solve_torsion_free(cal, mode)


def test_flatness_representation_for_structure_coefficients(s3_universal):
    conn = c_connection(s3_universal)
    assert flatness_representation_check(conn) is True
    assert conn.curvature_is_zero()


def test_flatness_representation_flags_projective_counterexample(s3_universal):
    """Flat, yet U_g = 0 for g != e: flatness does not imply a
    representation on 2-forms taken modulo ker A."""
    conn = canonical_connection(s3_universal)
    assert conn.curvature_is_zero()
    assert flatness_representation_check(conn) is False


def test_flatness_check_needs_universal_calculus(s3_transposition_calculus):
    with pytest.raises(NotUniversal):
        flatness_representation_check(nabla_sigma(s3_transposition_calculus))


def test_flatness_check_needs_constant_coefficients(z4):
    uni = calculus.universal(z4)
    gamma = {(1, 1, 1): funcs.delta(z4, 2)}
    with pytest.raises(UsageError):
        flatness_representation_check(Connection(uni, gamma))


def test_extensibility_slots_on_z4_pair(z4):
    cal = calculus.from_hatG(z4, [1, 2])
    assert len(bimodule_hom_space(cal, "V")) == 6
    assert bimodule_hom_space(cal, "W") == [(2, 1, 1)]
    conn = c_connection(cal)
    report = extensibility_analysis(conn)
    assert report.extensible
    assert not report.psi_representable
    assert report.psi_violations == [(2, 1, 1)]


def test_forced_zero_slot_on_z4_pair(z4):
    cal = calculus.from_hatG(z4, [1, 2])
    bad = Connection(cal, {(1, 2, 2): 1})
    report = extensibility_analysis(bad)
    assert not report.extensible
    assert report.violations == [(1, 2, 2)]


def test_everything_extensible_on_universal(z4):
    uni = calculus.universal(z4)
    gamma = {
        (h, g, gp): Fraction(h - g, 2)
        for h in uni.hatG
        for g in uni.hatG
        for gp in uni.hatG
    }
    report = extensibility_analysis(Connection(uni, gamma))
    assert report.extensible


def test_transposition_calculus_has_no_diagonal_maps(s3_transposition_calculus):
    cal = s3_transposition_calculus
    assert bimodule_hom_space(cal, "W") == []
    gamma = {
        (h, g, gp): Fraction(1, 7)
        for h in cal.hatG
        for g in cal.hatG
        for gp in cal.hatG
    }
    report = extensibility_analysis(Connection(cal, gamma))
    assert report.extensible and report.psi_representable


def test_canonical_connection_twist_vanishes(s3_transposition_calculus):
    cal = s3_transposition_calculus
    report = extensibility_analysis(canonical_connection(cal))
    assert report.extensible
    for g, gp in cal.pairs():
        t = TensorField(cal, {(g, gp): 1})
        assert report.psi_apply(t).is_zero()


def test_two_sided_connection_unique_without_diagonal_maps(
    s3_transposition_calculus, z4
):
    space = two_sided_space(s3_transposition_calculus)
    assert space["dimension"] == 0 and space["unique"]
    pair = calculus.from_hatG(z4, [1, 2])
    space4 = two_sided_space(pair)
    assert space4["dimension"] == 2 and not space4["unique"]


def test_two_sided_square_vanishes(s3_transposition_calculus):
    """The square of the basic two-sided connection vanishes on a basis
    form with a delta coefficient."""
    cal = s3_transposition_calculus
    s3 = cal.group
    ts = TwoSidedConnection(cal)
    phi = theta_form(cal, cal.hatG[1], coeff=funcs.delta(s3, 4))
    left, mixed, right = two_sided_square(ts, phi)
    assert not left
    assert mixed.is_zero()
    assert not right


def test_extension_entry_points_refuse_a_connection_without_twist(z4):
    """Gamma^a_{a2,a2} = 1 on Z4 with hatG {a, a2}: a2 a2 a^-1 = a3 is
    neither in hatG nor e, so there is no twist map, and every extension
    entry point raises on its first call or first iteration."""
    cal = calculus.from_hatG(z4, [1, 2])
    conn = Connection(cal, {(1, 2, 2): 1})
    report = extensibility_analysis(conn)
    assert not report.extensible
    theta, t, m = theta_form(cal, 1), TensorField(cal, {(1, 2): 1}), Metric(cal, {(1, 1): 1})
    calls = {
        "extend_to_tensor": lambda: extend_to_tensor(conn, t),
        "extend_to_tensor on zero": lambda: extend_to_tensor(conn, TensorField(cal)),
        "extend_on_basis_pairs": lambda: next(extend_on_basis_pairs(report)),
        "psi_apply": lambda: report.psi_apply(t),
    }
    for route in ("dual-extension", "tensor-dual", "both"):
        calls[route] = lambda route=route: metric_compatibility(m, route, conn)
    for call in calls.values():
        with pytest.raises(NotExtensible):
            call()
