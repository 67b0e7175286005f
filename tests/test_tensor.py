"""The one sparse Tensor type against per-key dense computations.

OneForm, VectorField and Metric are Tensor subclasses that only fix
rank and side; TensorField is the left tensor of any rank, here at
ranks 2 and 3.  Every operation is compared
with the same operation done key by key over all of hatG^rank, with a
missing key read as the zero function, and a factor multiplied on the
non-coefficient side moved across the basis legs one at a time.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from finitegeo import calculus, funcs
from finitegeo.braid import TensorField
from finitegeo.calculus import OneForm
from finitegeo.catalog import small_group_catalog
from finitegeo.dual import Metric, VectorField
from finitegeo.errors import CalculusMismatch, NotInHatG

from dense_paths import fiber

CATALOG = small_group_catalog()


class Kind:
    """A tensor class at one rank, called like the class, with its rank,
    side and a name."""

    def __init__(self, cls, rank, name=None):
        self.cls, self.rank, self.side = cls, rank, cls.side
        self.__name__ = name or cls.__name__

    def __call__(self, cal, coeffs):
        if self.cls is TensorField:
            return TensorField(cal, coeffs, rank=self.rank)
        return self.cls(cal, coeffs)


KINDS = [
    Kind(OneForm, 1),
    Kind(TensorField, 2),
    Kind(TensorField, 3, "TensorField-rank3"),
    Kind(VectorField, 1),
    Kind(Metric, 2),
]


def _class_union(name, reps):
    group = CATALOG[name]
    hatg = set()
    for rep in reps:
        x = group.element_index(rep)
        hatg.update(next(c for c in group.conjugacy_classes() if x in c))
    return calculus.from_hatG(group, sorted(hatg))


CALCULI = {
    "S3 universal": lambda: calculus.universal(CATALOG["S3"]),
    "D4 {r, r3, s, r2s}": lambda: _class_union("D4", ("r", "s")),
    "Z6 {a, a3}": lambda: _class_union("Z6", ("a", "a3")),
}


def _keys(kind, cal):
    if kind.rank == 1:
        return list(cal.hatG)
    return list(product(cal.hatG, repeat=kind.rank))


def _legs(kind, key):
    return (key,) if kind.rank == 1 else key


def _random_values(rng, n):
    """Integer or half-integer values, zero about a third of the time."""
    kind = rng.random()
    if kind < 0.3:
        return [0] * n
    if kind < 0.6:
        return [rng.randint(-2, 2) for _ in range(n)]
    return [Fraction(rng.randint(-3, 3), 2) for _ in range(n)]


def _random_dense(rng, kind, cal):
    """key -> value list over every key, about half of them left out."""
    n = cal.group.order
    return {
        k: _random_values(rng, n) for k in _keys(kind, cal) if rng.random() < 0.5
    }


def _build(kind, cal, dense):
    return kind(cal, {k: funcs.from_values(cal.group, v) for k, v in dense.items()})


def _dense(kind, cal, t):
    """Every key's values, a missing key reading as zero."""
    return {k: list(t.coeffs[k].values) for k in _keys(kind, cal)}


def _full(kind, cal, dense):
    zero = [0] * cal.group.order
    return {k: list(dense.get(k, zero)) for k in _keys(kind, cal)}


def _across(kind, cal, key, f):
    """f moved across the basis legs of key, nearest leg first.

    Left coefficients: theta^k f = (R_{k^-1} f) theta^k, crossing the
    last leg first.  Right coefficients: f ell_k = ell_k (R_{k^-1} f),
    crossing the first leg first.
    """
    group = cal.group
    legs = _legs(kind, key)
    order = reversed(legs) if kind.side == "left" else legs
    values = list(f)
    for k in order:
        kinv = group.inverse(k)
        values = [values[group.mul(h, kinv)] for h in range(group.order)]
    return values


def _stored_nonzero(t):
    return all(not c.is_zero() for c in t.terms.values())


@pytest.fixture(params=sorted(CALCULI), scope="module")
def cal(request):
    return CALCULI[request.param]()


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
@pytest.mark.parametrize("seed", [1, 2])
def test_operations_match_the_dense_per_key_computation(cal, kind, seed):
    rng = random.Random(seed)
    n = cal.group.order
    a_dense = _random_dense(rng, kind, cal)
    b_dense = _random_dense(rng, kind, cal)
    # Shared keys, so sums that cancel exercise dropping zeros.
    for k in list(a_dense)[:3]:
        b_dense[k] = [-v for v in a_dense[k]]
    a, b = _build(kind, cal, a_dense), _build(kind, cal, b_dense)
    A, B = _full(kind, cal, a_dense), _full(kind, cal, b_dense)
    f = _random_values(rng, n)
    f[0] = Fraction(1, 2)
    func = funcs.from_values(cal.group, f)
    scalar = rng.choice([Fraction(1, 2), -3, 0])

    expected = {
        "add": (a + b, {k: [x + y for x, y in zip(A[k], B[k])] for k in A}),
        "sub": (a - b, {k: [x - y for x, y in zip(A[k], B[k])] for k in A}),
        "neg": (-a, {k: [-x for x in A[k]] for k in A}),
        "scale": (a.scale(scalar), {k: [scalar * x for x in A[k]] for k in A}),
    }
    if kind.side == "left":
        left = {k: [x * y for x, y in zip(f, A[k])] for k in A}
        right = {k: [x * y for x, y in zip(A[k], _across(kind, cal, k, f))] for k in A}
    else:
        left = {k: [x * y for x, y in zip(_across(kind, cal, k, f), A[k])] for k in A}
        right = {k: [x * y for x, y in zip(A[k], f)] for k in A}
    expected["left_mul"] = (a.left_mul(func), left)
    expected["right_mul"] = (a.right_mul(func), right)
    for name, (got, want) in expected.items():
        assert type(got) is kind.cls and got.rank == kind.rank, name
        assert _dense(kind, cal, got) == want, name
        assert _stored_nonzero(got), name
        assert got.is_zero() == all(v == 0 for vals in want.values() for v in vals)
    for h in range(n):
        assert fiber(a, h) == [A[k][h] for k in _keys(kind, cal)]
    assert _stored_nonzero(a) and _stored_nonzero(b)
    assert a.is_constant() == all(len(set(v)) == 1 for v in A.values())
    assert (a == b) == (A == B)
    assert a == _build(kind, cal, dict(reversed(list(a_dense.items()))))
    assert (a + b == b + a) and (a - a).is_zero() and not (a - a).terms
    first = next(iter(A))
    assert a.coeff(*_legs(kind, first)).values == tuple(A[first])


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_accumulate_adds_in_place_and_drops_zeros(s3_universal, kind):
    cal = s3_universal
    key = _keys(kind, cal)[0]
    f = funcs.from_values(cal.group, [1, 0, 2, 0, Fraction(1, 2), 3])
    t = kind(cal, {})
    t.accumulate(key, f)
    t.accumulate(key, f)
    assert t.coeffs[key] == f + f
    t.accumulate(key, -(f + f))
    assert key not in t.terms and t.is_zero()
    t.accumulate(key, funcs.constant(cal.group, 0))
    assert not t.terms
    assert t.coeffs[key] == funcs.constant(cal.group, 0)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_coeffs_list_every_key_and_write_through(s3_universal, kind):
    cal = s3_universal
    keys = _keys(kind, cal)
    f = funcs.from_values(cal.group, [1, 0, 2, 0, Fraction(1, 2), 3])
    t = kind(cal, {keys[1]: f})
    zero = funcs.constant(cal.group, 0)
    assert list(t.coeffs) == keys
    assert list(t.coeffs.values()) == [f if k == keys[1] else zero for k in keys]
    t.coeffs[keys[0]] = f
    assert t.terms == {keys[0]: f, keys[1]: f}
    t.coeffs[keys[1]] = zero
    assert t.terms == {keys[0]: f}
    with pytest.raises(NotInHatG):
        t.coeffs[0 if kind.rank == 1 else (0,) * kind.rank] = f
    assert t.coeff(*_legs(kind, keys[2])) == zero


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_mixing_calculi_raises(s3_universal, s3_cycle_calculus, kind):
    key = _keys(kind, s3_cycle_calculus)[0]
    a = kind(s3_universal, {key: 1})
    b = kind(s3_cycle_calculus, {key: 1})
    with pytest.raises(CalculusMismatch):
        a + b
    with pytest.raises(CalculusMismatch):
        a - b
    assert a != b


def test_mixing_kinds_raises(s3_universal):
    pair = (1, 2)
    with pytest.raises(CalculusMismatch):
        TensorField(s3_universal, {pair: 1}) + Metric(s3_universal, {pair: 1})
    assert TensorField(s3_universal, {pair: 1}) != Metric(s3_universal, {pair: 1})


@pytest.mark.parametrize(
    "kind,bad",
    list(zip(KINDS, [{5: 1}, {(1, 5): 1}, {(1, 1): 2}, {3: 1}, {(1, 3): 1}])),
    ids=[k.__name__ for k in KINDS],
)
def test_keys_outside_hatg_raise_not_in_hatg(s3, kind, bad):
    cal = calculus.from_hatG(s3, [1, 2])
    with pytest.raises(NotInHatG):
        kind(cal, bad)


def test_rank3_field_refuses_the_keys_it_used_to_drop(s3):
    cal = calculus.from_hatG(s3, [1, 2])
    with pytest.raises(NotInHatG):
        TensorField(cal, {(5, 5, 5): 1, (1, 1): 2}, rank=3)
    with pytest.raises(NotInHatG):
        TensorField(cal, {(5, 5, 5): 1}, rank=3)
