"""Functions on a group: pointwise algebra and translation operators."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import finitegeo
from finitegeo import funcs, groups
from finitegeo.braid import TensorField
from finitegeo.errors import CalculusMismatch
from finitegeo.funcs import GroupFunction


def test_delta_functions_form_a_basis(s3):
    total = funcs.constant(s3, 0)
    for g in s3.elements():
        total = total + funcs.delta(s3, g)
    assert total == funcs.constant(s3, 1)


def test_pointwise_product_is_diagonal_on_deltas(s3):
    a = s3.element_index("a")
    b = s3.element_index("b")
    da, db = funcs.delta(s3, a), funcs.delta(s3, b)
    assert (da * db).is_zero()
    assert da * da == da


def test_right_translate_composition_rule(s3):
    """Applying R_g then R_h shifts the argument by hg in total."""
    f = funcs.from_values(s3, [Fraction(k, 7) for k in range(6)])
    for g in s3.elements():
        for h in s3.elements():
            lhs = funcs.right_translate(h, funcs.right_translate(g, f))
            rhs = funcs.right_translate(s3.mul(h, g), f)
            assert lhs == rhs


def test_right_translate_shifts_argument(s3):
    f = funcs.from_values(s3, list(range(6)))
    g = s3.element_index("ab")
    rf = funcs.right_translate(g, f)
    for h in s3.elements():
        assert rf(h) == f(s3.mul(h, g))


def test_left_translate_shifts_other_side(s3):
    f = funcs.from_values(s3, list(range(6)))
    g = s3.element_index("a")
    lf = funcs.left_translate(g, f)
    for h in s3.elements():
        assert lf(h) == f(s3.mul(g, h))


def test_ell_operator_annihilates_constants(s3):
    c = funcs.constant(s3, Fraction(5, 3))
    for g in s3.elements():
        assert funcs.ell(g, c).is_zero()


def test_ell_is_translation_minus_identity(s3):
    f = funcs.from_values(s3, [1, 0, 2, 0, 0, 3])
    g = s3.element_index("ba")
    expect = funcs.right_translate(s3.inverse(g), f) - f
    assert funcs.ell(g, f) == expect


def test_constant_detection():
    z2 = groups.cyclic(2)
    assert funcs.constant(z2, 4).is_constant()
    assert not funcs.from_values(z2, [0, 1]).is_constant()


def test_scalar_and_function_arithmetic(s3):
    f = funcs.from_values(s3, [1, 2, 3, 4, 5, 6])
    g = 2 * f - f
    assert g == f
    assert (f - f).is_zero()
    assert (Fraction(1, 2) * f)(0) == Fraction(1, 2)


def test_int_and_fraction_values_compare_equal_and_hash_alike(s3):
    as_int = GroupFunction(s3, (0, 1, 2, 3, 4, 5))
    as_fraction = GroupFunction(s3, tuple(Fraction(v) for v in range(6)))
    assert as_int == as_fraction
    assert hash(as_int) == hash(as_fraction)
    assert len({as_int, as_fraction}) == 1


def test_functions_on_different_group_objects_are_unequal():
    a, b = groups.cyclic(3), groups.cyclic(3)
    assert funcs.constant(a, 1) != funcs.constant(b, 1)
    assert funcs.constant(a, 1) == funcs.constant(a, 1)


def test_group_function_is_immutable(s3):
    f = funcs.constant(s3, 1)
    with pytest.raises(AttributeError):
        f.values = (0,) * 6
    with pytest.raises(AttributeError):
        f.group = groups.cyclic(6)
    with pytest.raises(AttributeError):
        f.extra = 1
    with pytest.raises(AttributeError):
        del f.values
    assert f.values == (1,) * 6 and f.group is s3


def test_is_zero_on_fraction_values(s3):
    assert GroupFunction(s3, (Fraction(0),) * 6).is_zero()
    half = GroupFunction(s3, (Fraction(0),) * 5 + (Fraction(1, 2),))
    assert not half.is_zero()
    assert not funcs.constant(s3, Fraction(1, 2)).is_zero()


def test_cli_import_leaves_out_dataclasses_and_inspect():
    code = (
        "import sys, finitegeo.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    src = os.path.dirname(os.path.dirname(finitegeo.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# Cayley-table columns and one-pass linear combinations.


@pytest.mark.parametrize("group", [groups.symmetric(3), groups.dihedral(4), groups.cyclic(5)],
                         ids=["S3", "D4", "Z5"])
def test_columns_are_right_products(group):
    assert len(group.columns) == group.order
    for g in group.elements():
        assert list(group.columns[g]) == [group.mul(h, g) for h in group.elements()]
    assert group.columns is group.columns


def test_translations_and_ell_read_the_table(s3):
    f = funcs.from_values(s3, [Fraction(k, 3) for k in range(6)])
    for g in s3.elements():
        assert funcs.right_translate(g, f).values == tuple(f(s3.mul(h, g)) for h in s3.elements())
        assert funcs.left_translate(g, f).values == tuple(f(s3.mul(g, h)) for h in s3.elements())
        ginv = s3.inverse(g)
        assert funcs.ell(g, f).values == tuple(
            f(s3.mul(h, ginv)) - f(h) for h in s3.elements()
        )


def test_combination_of_scalars_is_a_scalar(s3):
    got = funcs.combination(s3, [(2, 3), (Fraction(1, 2), Fraction(1, 3)), (-1, 1)])
    assert got == Fraction(31, 6) and type(got) is Fraction
    assert funcs.combination(s3, []) == 0


def test_combination_sums_functions_and_scalars(s3):
    f = funcs.from_values(s3, range(6))
    g = funcs.from_values(s3, [Fraction(k, 2) for k in range(6)])
    got = funcs.combination(s3, [(1, f), (-2, g), (3, 1), (Fraction(1, 2), g)])
    assert got == f - 2 * g + 3 + g * Fraction(1, 2)
    assert isinstance(got, GroupFunction)


def test_combination_that_cancels_is_zero_and_accumulate_drops_it(s3_universal):
    cal = s3_universal
    group = cal.group
    f = funcs.from_values(group, range(6))
    zero = funcs.combination(group, [(1, f), (-1, f)])
    assert zero == 0 and type(zero) is int
    assert funcs.combination(group, [(2, f), (-1, f), (-1, f), (1, 4), (-2, 2)]) == 0
    t = TensorField(cal, {(1, 2): f})
    t.accumulate((1, 2), funcs.combination(group, [(-1, f)]))
    assert t.terms == {}


def test_combination_of_a_constant_is_an_int(s3):
    two = funcs.combination(s3, [(1, Fraction(4, 2))])
    assert two == 2 and type(two) is int
    half = funcs.from_values(s3, [Fraction(1, 2)] * 6)
    got = funcs.combination(s3, [(Fraction(4), half)])
    assert got == 2 and type(got) is int
    f = funcs.from_values(s3, range(6))
    got = funcs.combination(s3, [(1, f), (-1, f), (1, Fraction(4, 2))])
    assert got == 2 and type(got) is int


def test_combination_rejects_a_foreign_group(s3):
    other = groups.symmetric(3)
    with pytest.raises(CalculusMismatch):
        funcs.combination(
            s3, [(1, funcs.constant(s3, 1)), (1, funcs.from_values(other, range(6)))]
        )
    with pytest.raises(CalculusMismatch):
        funcs.combination(s3, [(1, funcs.from_values(other, range(6)))])


def test_a_value_list_must_match_the_group_order(s3):
    for values in ([1] * 5, [1] * 7):
        with pytest.raises(ValueError, match=r"^value list does not match the group order$"):
            funcs.from_values(s3, values)
