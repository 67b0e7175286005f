"""The exact integer fast paths against the Fraction-only dense paths.

Group functions store integral values as ints, SubspaceReducer keeps
sparse rows, and the tensor extension and the Bianchi difference sum
into one coefficient dict.  The paths they replaced survive here as
oracles: Fraction arithmetic on the raw values, dense elimination, and
the repeated `out = out + Rank3Field(...)` accumulation.
"""

import random
from fractions import Fraction

import pytest

from finitegeo import calculus, connection, dual, funcs
from finitegeo.braid import (
    Rank3Field,
    TensorField,
    TwoForm,
    d_rep,
    tensor_product,
)
from finitegeo.calculus import OneForm, theta_form
from finitegeo.catalog import small_group_catalog
from finitegeo.errors import CalculusMismatch
from finitegeo.linalg import rref

from elimination import SubspaceReducer

CATALOG = small_group_catalog()

# (group, reduced set given by conjugacy-class representatives); the
# universal calculus of S3, SAMPLE[3], is the one with |hatG| = 5, and
# the metric test leaves it out to keep the suite quick.
SAMPLE = [
    ("Z4", ("a", "a3")),
    ("S3", ("b",)),
    ("S3", ("ab",)),
    ("S3", ("b", "ab")),
    ("D4", ("s",)),
    ("Q8", ("x",)),
    ("Z3xZ3", ("e.a", "e.a2")),
]


def _calculus(name, reps):
    group = CATALOG[name]
    hatg = set()
    for rep in reps:
        x = group.element_index(rep)
        hatg.update(next(c for c in group.conjugacy_classes() if x in c))
    return calculus.from_hatG(group, sorted(hatg))


def _seeded(group, rng):
    values = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in group.elements()]
    return funcs.from_values(group, values)


def _connections(cal):
    conns = [connection.nabla_sigma(cal), connection.c_connection(cal)]
    family = connection.solve_torsion_free(cal, mode="bi")
    conns.append(family.member([3] * family.dimension))
    return [c for c in conns if connection.extensibility_analysis(c).extensible]


def _values(obj):
    """Every coefficient value inside a result, however it is nested."""
    if isinstance(obj, funcs.GroupFunction):
        yield from obj.values
    elif isinstance(obj, TwoForm):
        yield from _values(obj.rep)
    elif isinstance(obj, (TensorField, Rank3Field, OneForm)):
        yield from _values(obj.coeffs)
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _values(v)


# ---------------------------------------------------------------------------
# The replaced paths, kept as oracles.


def _dense_extend_pair(report, phi, psi):
    conn = report.connection
    cal = conn.calculus
    group = cal.group
    out = {}
    for (u, v), f in conn.apply(phi).coeffs.items():
        trans = group.inverse(group.mul(v, u))
        for w in cal.hatG:
            c = psi.coeff(w)
            if c.is_zero():
                continue
            g = f * funcs.right_translate(trans, c)
            if not g.is_zero():
                out[(u, v, w)] = out.get((u, v, w), funcs.zero(group)) + g
    out = Rank3Field(cal, {k: v for k, v in out.items() if not v.is_zero()})
    nab_psi = conn.apply(psi)
    for g in cal.hatG:
        c = phi.coeff(g)
        if c.is_zero():
            continue
        ginv = group.inverse(g)
        for (u, v), f in nab_psi.coeffs.items():
            piece = TensorField(cal, {(g, u): c * funcs.right_translate(ginv, f)})
            twisted = report.psi_apply(piece)
            extra = {(p, q, v): val for (p, q), val in twisted.coeffs.items()}
            out = out + Rank3Field(cal, extra)
    return out


def _dense_extend_to_tensor(conn, t):
    report = connection.extensibility_analysis(conn)
    cal = conn.calculus
    out = Rank3Field(cal, {})
    for g in cal.hatG:
        col = {
            gp: funcs.right_translate(g, t.coeffs[(g, gp)]) for gp in cal.hatG
        }
        psi = OneForm(cal, col)
        if psi.is_zero():
            continue
        out = out + _dense_extend_pair(report, theta_form(cal, g), psi)
    return out


def _dense_bianchi_difference(conn, g):
    cal = conn.calculus
    omega = conn.connection_one_forms()
    lhs = d_rep(conn._torsion_raw_theta(g))
    for gp in cal.hatG:
        form = omega[(g, gp)]
        if not form.is_zero():
            lhs = lhs + tensor_product(form, conn._torsion_raw_theta(gp))
    rhs = Rank3Field(cal, {})
    for gp in cal.hatG:
        crep = conn._curvature_raw(g, gp)
        if not crep.is_zero():
            rhs = rhs + tensor_product(crep, theta_form(cal, gp))
    return lhs - rhs


def _fraction_rank(vectors):
    rows = [[Fraction(x) for x in v] for v in vectors]
    return rref(rows)[2] if rows else 0


# ---------------------------------------------------------------------------
# Group functions.


def test_integral_values_are_stored_as_int(s3):
    f = funcs.from_values(s3, [1, Fraction(2), Fraction(4, 2), "3/3", "-1/2", 0])
    assert [type(v) for v in f.values] == [int] * 4 + [Fraction, int]
    assert f.values == (1, 2, 2, 1, Fraction(-1, 2), 0)
    assert all(type(v) is int for v in funcs.constant(s3, Fraction(6, 3)).values)
    assert all(type(v) is int for v in funcs.delta(s3, 2).values)
    assert funcs.delta(s3, 2).values == (0, 0, 1, 0, 0, 0)


def test_fraction_sums_stay_exact(s3):
    half = funcs.constant(s3, Fraction(1, 2))
    assert all(type(v) is Fraction for v in half.values)
    total = half + half
    assert total == funcs.one(s3)
    assert hash(total) == hash(funcs.one(s3))
    assert all(v == 1 and not isinstance(v, float) for v in total.values)
    third = funcs.constant(s3, Fraction(1, 3))
    assert (third + third + third).values == (1,) * 6


def test_arithmetic_matches_fraction_arithmetic(s3):
    rng = random.Random(7)
    for _ in range(50):
        a, b = _seeded(s3, rng), _seeded(s3, rng)
        fa = [Fraction(x) for x in a.values]
        fb = [Fraction(x) for x in b.values]
        assert (a + b).values == tuple(x + y for x, y in zip(fa, fb))
        assert (a - b).values == tuple(x - y for x, y in zip(fa, fb))
        assert (a * b).values == tuple(x * y for x, y in zip(fa, fb))
        assert (-a).values == tuple(-x for x in fa)
        assert (2 - a).values == tuple(2 - x for x in fa)
        for f in (a + b, a - b, a * b, 3 * a, a + Fraction(1, 2)):
            assert all(type(v) in (int, Fraction) for v in f.values)


def test_coercion_helper_rejects_a_foreign_group(s3, z3):
    assert funcs.as_function(s3, 2) == funcs.constant(s3, 2)
    f = funcs.one(s3)
    assert funcs.as_function(s3, f) is f
    with pytest.raises(CalculusMismatch):
        funcs.as_function(z3, f)
    with pytest.raises(CalculusMismatch):
        funcs.canonical(z3, f)
    with pytest.raises(CalculusMismatch):
        f + funcs.one(z3)


# ---------------------------------------------------------------------------
# The sparse reducer against rref.


def _random_vectors(rng, dim, count, rational):
    vectors = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.15:
            vectors.append([0] * dim)
        elif kind < 0.3 and vectors:
            vectors.append(list(rng.choice(vectors)))
        elif kind < 0.45 and len(vectors) >= 2:
            a, b = rng.sample(vectors, 2)
            s = rng.randint(-2, 2)
            vectors.append([x + s * y for x, y in zip(a, b)])
        else:
            vec = [0] * dim
            for i in rng.sample(range(dim), rng.randint(1, dim)):
                n = rng.randint(-4, 4)
                vec[i] = Fraction(n, rng.randint(1, 4)) if rational else n
            vectors.append(vec)
    return vectors


@pytest.mark.parametrize("rational", [False, True])
@pytest.mark.parametrize("seed", range(20))
def test_sparse_reducer_agrees_with_rref(seed, rational):
    rng = random.Random(seed)
    dim = rng.randint(1, 9)
    vectors = _random_vectors(rng, dim, rng.randint(1, 12), rational)
    red = SubspaceReducer(dim)
    for k, v in enumerate(vectors):
        before = _fraction_rank(vectors[:k])
        grew = red.add(v)
        after = _fraction_rank(vectors[: k + 1])
        assert grew == (after > before)
        assert red.rank == after
    for w in _random_vectors(rng, dim, 10, rational) + vectors:
        inside = _fraction_rank(vectors + [w]) == red.rank
        assert red.contains(w) == inside
    for row in red.rows:
        assert row[0][1] == 1
        assert all(y != 0 and type(y) in (int, Fraction) for _, y in row)


def test_sparse_reducer_on_zero_and_repeated_vectors():
    red = SubspaceReducer(3)
    assert red.add([0, 0, 0]) is False
    assert red.add([0, 2, 4]) is True
    assert red.add([0, 2, 4]) is False
    assert red.add([Fraction(0), Fraction(1), Fraction(2)]) is False
    assert red.rank == 1
    assert red.rows == [[(1, 1), (2, 2)]]
    assert red.contains([0, 0, 0])
    assert red.contains([0, Fraction(-1, 3), Fraction(-2, 3)])
    assert not red.contains([1, 0, 0])


# ---------------------------------------------------------------------------
# Tensor extension, metric compatibility and Bianchi on catalog calculi.


@pytest.mark.parametrize("name,reps", SAMPLE)
def test_extend_to_tensor_matches_dense_accumulation(name, reps):
    cal = _calculus(name, reps)
    rng = random.Random(len(cal.hatG) * 31 + cal.group.order)
    t = TensorField(cal, {p: _seeded(cal.group, rng) for p in cal.pairs()})
    for conn in _connections(cal):
        got = connection.extend_to_tensor(conn, t)
        assert got == _dense_extend_to_tensor(conn, t)
        assert all(type(v) in (int, Fraction) for v in _values(got))
        phi, psi = theta_form(cal, cal.hatG[0]), theta_form(cal, cal.hatG[-1])
        pair = connection.extend_on_pair(conn, phi, psi)
        report = connection.extensibility_analysis(conn)
        assert pair == _dense_extend_pair(report, phi, psi)


@pytest.mark.parametrize("name,reps", SAMPLE)
def test_basis_pair_extension_matches_dense_pairs(name, reps):
    """Computing each nabla theta^g once gives every pair's dense extension,
    for constant connections and one with function coefficients."""
    cal = _calculus(name, reps)
    scale = _seeded(cal.group, random.Random(7))
    conns = _connections(cal)
    conns.append(connection.Connection(cal, {k: f * scale for k, f in conns[0].gamma.items()}))
    for conn in conns:
        report = connection.extensibility_analysis(conn)
        got = dict(connection.extend_on_basis_pairs(report))
        assert list(got) == cal.pairs()
        for (v, w), r3 in got.items():
            assert r3 == _dense_extend_pair(report, theta_form(cal, v), theta_form(cal, w))


@pytest.mark.parametrize("name,reps", SAMPLE[:3] + SAMPLE[4:])
def test_metric_compatibility_values_are_exact(name, reps):
    cal = _calculus(name, reps)
    rng = random.Random(5)
    metric = dual.Metric(cal, {p: _seeded(cal.group, rng) for p in cal.pairs()})
    for conn in _connections(cal):
        report = dual.metric_compatibility(metric, route="both", connection=conn)
        assert report["routes_agree"] is True
        values = list(_values(report["routes"]))
        assert values
        assert all(type(v) in (int, Fraction) for v in values)


@pytest.mark.parametrize("name,reps", SAMPLE)
def test_bianchi_difference_matches_dense_sums(name, reps):
    cal = _calculus(name, reps)
    for conn in _connections(cal)[1:]:
        result = dual.canonical_form_and_torsion(conn)
        for g, entry in result["bianchi"].items():
            assert entry["difference"] == _dense_bianchi_difference(conn, g)
            assert all(type(v) in (int, Fraction) for v in _values(entry["difference"]))
        assert all(type(v) in (int, Fraction) for v in _values(result["Theta"]))
