"""Functions on a group: pointwise algebra and translation operators."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import finitegeo
from finitegeo import funcs, groups
from finitegeo.funcs import GroupFunction


def test_delta_functions_form_a_basis(s3):
    total = funcs.zero(s3)
    for g in s3.elements():
        total = total + funcs.delta(s3, g)
    assert total == funcs.one(s3)


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
    assert funcs.one(a) != funcs.one(b)
    assert funcs.one(a) == funcs.one(a)


def test_group_function_is_immutable(s3):
    f = funcs.one(s3)
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
