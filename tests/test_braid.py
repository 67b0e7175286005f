"""The braid operator sigma, its decomposition, and 2-forms."""

from math import lcm

import pytest

from finitegeo import calculus, groups
from finitegeo.braid import (
    SigmaOperator,
    TensorField,
    TwoForm,
    antisymmetrize,
    braid_check,
    classify,
    d_one_form,
    project_two_form,
    sigma_for,
    symmetrize,
    tensor_product,
    wedge,
)
from finitegeo.calculus import rho, theta_form

from dense_paths import (
    constant_vector,
    d_theta,
    structure_constant,
    symmetric_universal_sigma_order,
)
from elimination import SubspaceReducer


def _pair(group, x, y):
    return (group.element_index(x), group.element_index(y))


def test_sigma_fixes_diagonal_pairs(s3_universal):
    sig = SigmaOperator(s3_universal)
    for g in s3_universal.hatG:
        assert sig.map_pair((g, g)) == (g, g)


def test_sigma_table_on_s3_universal(s3_universal):
    """The published action on basis pairs, one case per branch."""
    s3 = s3_universal.group
    sig = SigmaOperator(s3_universal)
    # two distinct transpositions: the third one appears on the left
    assert sig.map_pair(_pair(s3, "a", "b")) == _pair(s3, "c", "a")
    assert sig.map_pair(_pair(s3, "b", "c")) == _pair(s3, "a", "b")
    # the two 3-cycles swap
    assert sig.map_pair(_pair(s3, "ab", "ba")) == _pair(s3, "ba", "ab")
    assert sig.map_pair(_pair(s3, "ba", "ab")) == _pair(s3, "ab", "ba")
    # transposition followed by a 3-cycle: the other 3-cycle leads
    for x in ("a", "b", "c"):
        assert sig.map_pair(_pair(s3, x, "ab")) == _pair(s3, "ba", x)
        assert sig.map_pair(_pair(s3, x, "ba")) == _pair(s3, "ab", x)
    # 3-cycle followed by a transposition
    for x, y in (("a", "c"), ("b", "a"), ("c", "b")):
        assert sig.map_pair(_pair(s3, "ab", x)) == _pair(s3, y, "ab")
    for x, y in (("a", "b"), ("b", "c"), ("c", "a")):
        assert sig.map_pair(_pair(s3, "ba", x)) == _pair(s3, y, "ba")


def test_sigma_power_formulas(s3_universal):
    """Closed expressions for even and odd powers on basis pairs."""
    grp = s3_universal.group
    sig = SigmaOperator(s3_universal)
    for g in s3_universal.hatG:
        for h in s3_universal.hatG:
            k = grp.mul(grp.inverse(g), grp.inverse(h))
            for n in range(1, 5):
                kn = grp.power(k, n)
                knm1 = grp.power(k, n - 1)
                even = (grp.adjoint(kn, g), grp.adjoint(kn, h))
                odd = (grp.adjoint(kn, h), grp.adjoint(knm1, g))
                assert sig.map_pair((g, h), 2 * n) == even
                assert sig.map_pair((g, h), 2 * n - 1) == odd


def test_sigma_orders_on_s3(
    s3_universal, s3_cycle_calculus, s3_transposition_calculus
):
    assert SigmaOperator(s3_universal).order() == 12
    assert SigmaOperator(s3_cycle_calculus).order() == 2
    assert SigmaOperator(s3_transposition_calculus).order() == 3


def test_sigma_order_divides_twice_ad_order():
    for g in (groups.symmetric(3), groups.dihedral(4), groups.alternating(4)):
        bound = 2 * g.ad_order()
        for cal in calculus.enumerate_bicovariant(g):
            if not cal.hatG:
                continue
            assert bound % SigmaOperator(cal).order() == 0


def test_closed_form_universal_order_matches_brute_force():
    for n in (3, 4):
        uni = calculus.universal(groups.symmetric(n))
        assert symmetric_universal_sigma_order(n) == SigmaOperator(uni).order()


def test_closed_form_is_twice_lcm():
    for n in range(3, 21):
        assert symmetric_universal_sigma_order(n) == 2 * lcm(*range(2, n + 1))
    with pytest.raises(ValueError):
        symmetric_universal_sigma_order(2)


def test_mixed_pairs_have_sigma_order_four(s3_universal):
    s3 = s3_universal.group
    sig = SigmaOperator(s3_universal)
    transpositions = [s3.element_index(x) for x in ("a", "b", "c")]
    cycles = [s3.element_index(x) for x in ("ab", "ba")]
    mixed = [(x, y) for x in transpositions for y in cycles]
    mixed += [(y, x) for x in transpositions for y in cycles]
    for p in mixed:
        assert sig.map_pair(p, 4) == p
    assert any(sig.map_pair(p, 2) != p for p in mixed)


def test_braid_equation_on_small_calculi():
    for g in (groups.cyclic(4), groups.symmetric(3), groups.dicyclic(2)):
        for cal in calculus.enumerate_bicovariant(g):
            if cal.hatG:
                assert braid_check(SigmaOperator(cal))


def test_decomposition_dims_on_s3_universal(s3_universal):
    report = SigmaOperator(s3_universal).decompose()
    assert report.dims == (11, 14, 4, 21)


def test_decomposition_gives_direct_sums(s3_universal):
    report = SigmaOperator(s3_universal).decompose()
    n = len(report.pairs)
    for first, second in ((report.ker_a, report.im_a), (report.ker_s, report.im_s)):
        red = SubspaceReducer(n)
        for v in list(first) + list(second):
            assert red.add(v)
        assert red.rank == n


def test_transposition_kernel_generators(s3_transposition_calculus):
    """ker A is spanned by the three squares and the two cyclic sums."""
    cal = s3_transposition_calculus
    s3 = cal.group
    sig = SigmaOperator(cal)
    a, b, c = (s3.element_index(x) for x in ("a", "b", "c"))
    gens = [TensorField(cal, {(x, x): 1}) for x in (a, b, c)]
    gens.append(TensorField(cal, {(a, b): 1, (b, c): 1, (c, a): 1}))
    gens.append(TensorField(cal, {(b, a): 1, (a, c): 1, (c, b): 1}))
    red = SubspaceReducer(len(cal.pairs()))
    for t in gens:
        assert antisymmetrize(t, sig).is_zero()
        assert classify(t, sig)["s_symmetric"]
        red.add(constant_vector(t))
    assert red.rank == 5
    assert len(sig.decompose().ker_a) == 5


def test_transposition_image_generators(s3_transposition_calculus):
    """im A is spanned by four explicit differences of basis tensors."""
    cal = s3_transposition_calculus
    s3 = cal.group
    sig = SigmaOperator(cal)
    a, b, c = (s3.element_index(x) for x in ("a", "b", "c"))
    gens = [
        TensorField(cal, {(a, b): 1, (c, a): -1}),
        TensorField(cal, {(a, b): 1, (b, c): -1}),
        TensorField(cal, {(a, c): 1, (b, a): -1}),
        TensorField(cal, {(a, c): 1, (c, b): -1}),
    ]
    red = SubspaceReducer(len(cal.pairs()))
    for t in gens:
        assert classify(t, sig)["w_antisymmetric"]
        red.add(constant_vector(t))
    assert red.rank == 4
    assert len(sig.decompose().im_a) == 4


def test_everything_w_symmetric_when_order_is_odd(s3_transposition_calculus):
    sig = SigmaOperator(s3_transposition_calculus)
    assert sig.order() == 3
    assert len(sig.decompose().im_s) == len(s3_transposition_calculus.pairs())
    for g, gp in s3_transposition_calculus.pairs():
        t = TensorField(s3_transposition_calculus, {(g, gp): 1})
        assert classify(t, sig)["w_symmetric"]


def test_two_form_relations_on_transpositions(s3_transposition_calculus):
    cal = s3_transposition_calculus
    s3 = cal.group
    sig = sigma_for(cal)
    a, b, c = (s3.element_index(x) for x in ("a", "b", "c"))

    def ww(x, y):
        return wedge(theta_form(cal, x), theta_form(cal, y), sig)

    assert ww(c, a) == -ww(a, b) - ww(b, c)
    assert ww(c, b) == -ww(b, a) - ww(a, c)
    for x in (a, b, c):
        assert ww(x, x).is_zero()


def test_two_form_space_dimension_and_basis(s3_transposition_calculus):
    cal = s3_transposition_calculus
    s3 = cal.group
    sig = sigma_for(cal)
    a, b, c = (s3.element_index(x) for x in ("a", "b", "c"))
    red = SubspaceReducer(len(cal.pairs()))
    for x, y in ((a, b), (b, c), (a, c), (b, a)):
        w = wedge(theta_form(cal, x), theta_form(cal, y), sig)
        assert red.add(constant_vector(w.rep))
    assert red.rank == 4


def test_maurer_cartan_equation(s3_transposition_calculus):
    """d theta^h plus the structure constant double sum is zero."""
    cal = s3_transposition_calculus
    sig = sigma_for(cal)
    for h in cal.hatG:
        mc = TwoForm(cal)
        for g in cal.hatG:
            for gp in cal.hatG:
                cval = structure_constant(cal.group, h, g, gp)
                if cval:
                    term = wedge(theta_form(cal, gp), theta_form(cal, g), sig)
                    mc = mc - term.scale(cval)
        assert d_one_form(theta_form(cal, h), sig) == mc


def test_d_one_form_on_basis_matches_d_theta(s3_universal):
    sig = sigma_for(s3_universal)
    for h in s3_universal.hatG:
        lhs = d_one_form(theta_form(s3_universal, h), sig)
        assert lhs == d_theta(s3_universal, sig, h)


def test_rho_is_closed_and_squares_to_zero(
    s3_universal, s3_transposition_calculus
):
    for cal in (s3_universal, s3_transposition_calculus):
        sig = sigma_for(cal)
        r = rho(cal)
        assert d_one_form(r, sig).is_zero()
        assert wedge(r, r, sig).is_zero()


def test_symmetrized_tensor_is_s_symmetric_when_sigma_squares(s3_cycle_calculus):
    sig = sigma_for(s3_cycle_calculus)
    assert sig.order() == 2
    for g, gp in s3_cycle_calculus.pairs():
        t = TensorField(s3_cycle_calculus, {(g, gp): 1})
        assert classify(symmetrize(t, sig), sig)["s_symmetric"]
        anti = antisymmetrize(t, sig)
        assert classify(anti, sig)["s_antisymmetric"]


def test_tensor_of_one_forms_moves_middle_function(s3_universal):
    from finitegeo import funcs

    s3 = s3_universal.group
    f = funcs.from_values(s3, [1, 2, 0, 1, 0, 3])
    g = s3.element_index("a")
    gp = s3.element_index("ab")
    phi = theta_form(s3_universal, g)
    psi = theta_form(s3_universal, gp)
    lhs = tensor_product(phi.right_mul(f), psi)
    rhs = tensor_product(phi, psi.left_mul(f))
    assert lhs == rhs


def test_projection_kills_exactly_s_symmetric_part(s3_universal):
    sig = sigma_for(s3_universal)
    for g, gp in list(s3_universal.pairs())[:8]:
        t = TensorField(s3_universal, {(g, gp): 1})
        sym = symmetrize(t, sig)
        if classify(sym, sig)["s_symmetric"]:
            assert project_two_form(sym, sig).is_zero() == antisymmetrize(
                sym, sig
            ).is_zero()
