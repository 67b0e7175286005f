"""One tensor type: 2-forms, connection coefficients and classify.

A TwoForm is a TensorField holding its representative in im A, and A is
a bimodule map, so sums, scalings and products by functions of projected
2-forms must equal the projections of the same operations.  braid.classify
reads all four flags off sigma's cycles on a tensor's canonical
coefficients; the fiber-wise classify it replaced (dense_paths.classify)
must agree on seeded function-valued tensors t, their images t + sigma(t)
and t - sigma(t), and their sums and alternating sums along sigma's
powers, on every calculus of the bicovariant catalog sample, with each
flag seen true and false on nonzero tensors.  SigmaOperator.in_part
refuses an unknown part even when sigma has no cycles.  Tensor checks each
key leg by leg against hatG, and Connection stores Gamma through a rank-3
TensorField.  Rank is part of a TensorField's identity: tensors of two
ranks are unequal, do not add, and tensor_product refuses an out of the
wrong rank; project_two_form refuses a tensor that is not of rank 2.
"""

import random
from fractions import Fraction
from functools import partial

import pytest

from finitegeo import calculus, funcs, groups
from finitegeo.braid import (
    TensorField,
    TwoForm,
    classify,
    d_one_form,
    project_two_form,
    sigma_for,
    tensor_product,
)
from finitegeo.calculus import OneForm
from finitegeo.connection import Connection
from finitegeo.errors import CalculusMismatch, NotInHatG

import dense_paths
from test_one_pass_sums import IDS, SAMPLE

FLAGS = ("s_symmetric", "s_antisymmetric", "w_symmetric", "w_antisymmetric")
RANK3 = partial(TensorField, rank=3)


def _seeded_tensor(cal, rng):
    """A rank-2 field on a seeded part of hatG x hatG: functions, with a
    scalar on every third key."""
    group = cal.group
    pairs = cal.pairs()
    coeffs = {}
    for k, p in enumerate(rng.sample(pairs, max(1, len(pairs) // 2))):
        if k % 3 == 2:
            coeffs[p] = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        else:
            coeffs[p] = funcs.from_values(
                group, [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in group.elements()]
            )
    return TensorField(cal, coeffs)


def _candidates(cal, seed):
    """Seeded tensors and their images under 1 + sigma, 1 - sigma, the sum
    of sigma's powers and, for an even order, their alternating sum."""
    rng = random.Random(seed)
    sig = sigma_for(cal)
    out = [TensorField(cal)]
    for _ in range(2):
        t = _seeded_tensor(cal, rng)
        powers = [t]
        for _ in range(sig.order() - 1):
            powers.append(sig.apply(powers[-1]))
        total, alternating = TensorField(cal), TensorField(cal)
        for k, p in enumerate(powers):
            total += p
            alternating += p if k % 2 == 0 else -p
        image = sig.apply(t)
        out += [t, t + image, t - image, total]
        if sig.order() % 2 == 0:
            out.append(alternating)
    return out


def _seed(name, cal):
    return f"{name}-{cal.hatG}"


@pytest.mark.parametrize("name,cal", SAMPLE, ids=IDS)
def test_classify_matches_the_fiberwise_flags(name, cal):
    sig = sigma_for(cal)
    for t in _candidates(cal, _seed(name, cal)):
        assert classify(t, sig) == dense_paths.classify(t, sig)


def test_every_flag_is_seen_true_and_false_on_nonzero_tensors():
    seen = {flag: set() for flag in FLAGS}
    for name, cal in SAMPLE:
        sig = sigma_for(cal)
        for t in _candidates(cal, _seed(name, cal)):
            if t.is_zero():
                continue
            for flag, value in classify(t, sig).items():
                seen[flag].add(value)
    assert seen == {flag: {True, False} for flag in FLAGS}


def test_in_part_refuses_an_unknown_part_without_cycles():
    sig = sigma_for(calculus.trivial(groups.symmetric(3)))
    assert sig.cycles() == [] and sig.in_part("im_a", [])
    with pytest.raises(ValueError, match="unknown part"):
        sig.in_part("im_b", [])


def test_classify_refuses_other_ranks_and_calculi(s3_universal, s3_cycle_calculus):
    sig = sigma_for(s3_universal)
    with pytest.raises(CalculusMismatch):
        classify(TensorField(s3_universal, rank=3), sig)
    with pytest.raises(CalculusMismatch):
        classify(TensorField(s3_cycle_calculus), sig)


@pytest.mark.parametrize("name,cal", SAMPLE, ids=IDS)
def test_two_form_operations_are_projections(name, cal):
    rng = random.Random(_seed(name, cal))
    sig = sigma_for(cal)
    a, b = _seeded_tensor(cal, rng), _seeded_tensor(cal, rng)
    f = funcs.from_values(cal.group, [rng.randint(-2, 2) for _ in cal.group.elements()])
    pa, pb = project_two_form(a, sig), project_two_form(b, sig)
    c = Fraction(-3, 2)
    pairs = [
        (pa + pb, a + b),
        (pa - pb, a - b),
        (-pa, -a),
        (pa.scale(c), a.scale(c)),
        (pa.left_mul(f), a.left_mul(f)),
        (pa.right_mul(f), a.right_mul(f)),
    ]
    for form, tensor in pairs:
        assert isinstance(form, TwoForm)
        assert form == project_two_form(tensor, sig)
        assert form.rep is form
        assert classify(form, sig)["w_antisymmetric"]


def test_a_two_form_is_a_tensor_field(s3_universal):
    cal = s3_universal
    sig = sigma_for(cal)
    zero = TwoForm(cal)
    assert isinstance(zero, TensorField) and zero.is_zero() and zero.rank == 2
    with pytest.raises(TypeError):
        TwoForm(cal, rank=3)
    assert zero != TensorField(cal)
    with pytest.raises(CalculusMismatch):
        zero + TensorField(cal)
    pair = cal.pairs()[1]
    form = project_two_form(TensorField(cal, {pair: 2}), sig)
    assert project_two_form(form, sig) is form
    assert form == TwoForm(cal, form.terms)
    with pytest.raises(AttributeError):
        form.rep = TensorField(cal)


@pytest.mark.parametrize("kind,key", [
    (OneForm, (1,)),
    (TensorField, 1),
    (TensorField, (1,)),
    (TensorField, (1, 2, 1)),
    (TwoForm, (1, 3)),
    (RANK3, (1, 2)),
    (RANK3, (1, 2, 0)),
])
def test_tensor_keys_are_checked_leg_by_leg(kind, key):
    cal = calculus.from_hatG(groups.symmetric(3), [1, 2])
    with pytest.raises(NotInHatG, match=f"is not in hatG\\^{kind(cal).rank}"):
        kind(cal, {key: 1})


def test_rank_is_part_of_a_tensor_field(s3_universal, s3_cycle_calculus):
    cal = s3_universal
    two, three = TensorField(cal), TensorField(cal, rank=3)
    assert two.rank == 2 and three.rank == 3
    with pytest.raises(ValueError, match="rank at least 1"):
        TensorField(cal, rank=0)
    assert two != three and three == TensorField(cal, rank=3)
    with pytest.raises(CalculusMismatch):
        two += three
    with pytest.raises(CalculusMismatch):
        three - two
    phi, t = OneForm(cal, {1: 1}), TensorField(cal, {(2, 3): 1})
    for out in (TensorField(cal), TensorField(cal, rank=4), TensorField(s3_cycle_calculus, rank=3)):
        with pytest.raises(CalculusMismatch):
            tensor_product(phi, t, out)
    out = TensorField(cal, rank=3)
    assert tensor_product(phi, t, out) is out
    assert out == TensorField(cal, {(1, 2, 3): 1}, rank=3)
    assert (-out).rank == out.scale(2).rank == out.left_mul(1).rank == 3


def test_two_forms_come_from_rank_2_tensors_only(s3_universal):
    """A TwoForm holding rank-3 keys was returned for a rank-3 tensor, and
    for d of a rank-2 tensor passed where a 1-form belongs."""
    sig = sigma_for(s3_universal)
    with pytest.raises(CalculusMismatch, match="rank-2 tensor, not rank 3"):
        project_two_form(TensorField(s3_universal, {(1, 2, 3): 1}, rank=3), sig)
    with pytest.raises(CalculusMismatch, match="rank-2 tensor, not rank 3"):
        d_one_form(TensorField(s3_universal, {(1, 2): 1}), sig)


def test_connection_stores_gamma_through_rank3_field(s3_universal):
    cal = s3_universal
    group = cal.group
    h, g, gp = cal.hatG[:3]
    gamma = {
        (h, g, gp): funcs.constant(group, Fraction(4, 2)),
        (g, g, g): 0,
        (gp, h, g): funcs.delta(group, 1),
        (g, h, h): Fraction(-1, 3),
    }
    conn = Connection(cal, gamma)
    assert conn.terms == TensorField(cal, gamma, rank=3).terms
    assert conn.terms == {(h, g, gp): 2, (gp, h, g): funcs.delta(group, 1), (g, h, h): Fraction(-1, 3)}
    assert type(conn.terms[(h, g, gp)]) is int
    for key in ((0, g, gp), (h, g)):
        with pytest.raises(NotInHatG, match="is not in hatG\\^3"):
            Connection(cal, {key: 1})
