"""Canonical coefficients: a scalar when constant, a GroupFunction otherwise.

Tensors and connections store each constant coefficient as an exact
scalar.  The storage it replaced, every coefficient a GroupFunction, is
kept as the oracle (dense_paths.function_valued): torsion, curvature,
nabla theta, the tensor extension, metric compatibility residuals and
the Bianchi differences must read the same through coeffs either way,
on constant connections and on seeded function-valued ones.
"""

import random
from fractions import Fraction

import pytest

from finitegeo import calculus, connection, dual, funcs, invariants
from finitegeo.braid import TensorField
from finitegeo.calculus import OneForm, Tensor, theta_form
from finitegeo.catalog import small_group_catalog
from finitegeo.connection import Connection

import dense_paths

CATALOG = small_group_catalog()

SAMPLE = [
    ("Z4", ("a", "a3")),
    ("S3", ("b",)),
    ("S3", ("ab",)),
    ("S3", ("b", "ab")),
    ("D4", ("s",)),
    ("Q8", ("x",)),
    ("Z3xZ3", ("e.a", "e.a2")),
]
IDS = [f"{name}:{','.join(reps)}" for name, reps in SAMPLE]


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


def _inputs(cal, seed):
    """Seeded raw inputs: connection coefficient dicts, a tensor field and
    a metric, as plain dicts of scalars and GroupFunctions."""
    rng = random.Random(seed)
    group = cal.group
    c_gamma = dict(connection.c_connection(cal).gamma)
    varied = dict(c_gamma)
    for key in rng.sample(sorted(varied), min(3, len(varied))):
        varied[key] = _seeded(group, rng)
    family = connection.solve_torsion_free(cal, mode="bi")
    member = family.member([Fraction(3, 2)] * family.dimension)
    gammas = {
        "c": c_gamma,
        "sigma": connection.nabla_sigma(cal).gamma,
        "member": member.gamma,
        "varied": varied,
    }
    pairs = cal.pairs()
    tensor = {p: _seeded(group, rng) for p in rng.sample(pairs, min(4, len(pairs)))}
    metric = {(g, g): rng.choice((1, 2, Fraction(1, 2))) for g in cal.hatG}
    metric[pairs[-1]] = _seeded(group, rng)
    return gammas, tensor, metric


def _snapshot(obj):
    """A result with every tensor replaced by its coeffs."""
    if isinstance(obj, Tensor):
        return dict(obj.coeffs)
    if isinstance(obj, dict):
        return {k: _snapshot(v) for k, v in obj.items()}
    return obj


def _results(cal, gammas, tensor, metric):
    out = {}
    for name, gamma in gammas.items():
        conn = Connection(cal, gamma)
        got = {
            "torsion": conn.torsion(),
            "curvature": conn.curvature(),
            "nabla_theta": {h: conn.apply(theta_form(cal, h)) for h in cal.hatG},
            "bianchi": dual.canonical_form_and_torsion(conn),
        }
        if connection.extensibility_analysis(conn).extensible:
            got["extend"] = connection.extend_to_tensor(conn, TensorField(cal, tensor))
            report = dual.metric_compatibility(
                dual.Metric(cal, metric), route="both", connection=conn
            )
            got["metric"] = {
                "routes": report["routes"],
                "routes_agree": report["routes_agree"],
                "compatible": report["compatible"],
            }
        out[name] = _snapshot(got)
    return out


def _stored(obj):
    """Every stored coefficient inside a result, however it is nested."""
    if isinstance(obj, Tensor):
        yield from obj.terms.values()
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _stored(v)


def _is_canonical(c):
    if isinstance(c, funcs.GroupFunction):
        return not c.is_constant()
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


@pytest.mark.parametrize("name,reps", SAMPLE, ids=IDS)
def test_solver_results_hold_exact_scalars_in_one_form(name, reps):
    """Pattern cells, torsion-free particular solutions and the parameters
    contains recovers hold ints and non-integral Fractions only
    (funcs._exact), never an integral Fraction."""
    cal = _calculus(name, reps)
    spaces = [invariants.solve_symmetry(cal, kind)
              for kind in ("s_sym", "s_antisym", "w_sym", "w_antisym")]
    for space in spaces + [invariants.solve_bi_invariant(cal)]:
        cells = invariants.pattern_matrix(space)["cells"].values()
        assert all(_is_canonical(x) for cell in cells for x in cell)
    for mode in ("left", "bi"):
        family = connection.solve_torsion_free(cal, mode)
        assert all(_is_canonical(x) for x in family.particular)
        params = [Fraction(k - 1, 1 + k % 2) for k in range(family.dimension)]
        for given in (None, params):
            found = family.contains(family.member(given))
            assert found == (given or [0] * family.dimension)
            assert all(_is_canonical(x) for x in found)


@pytest.mark.parametrize("name,reps", SAMPLE, ids=IDS)
def test_geometry_matches_function_valued_storage(name, reps):
    cal = _calculus(name, reps)
    gammas, tensor, metric = _inputs(cal, seed=len(cal.hatG) * 31 + cal.group.order)
    got = _results(cal, gammas, tensor, metric)
    with dense_paths.function_valued():
        want = _results(cal, gammas, tensor, metric)
    assert got.keys() == want.keys()
    for key in got:
        assert got[key] == want[key], key
    assert "extend" in got["sigma"] and "metric" in got["sigma"]


@pytest.mark.parametrize("name,reps", SAMPLE, ids=IDS)
def test_results_are_stored_canonically(name, reps):
    cal = _calculus(name, reps)
    gammas, tensor, _ = _inputs(cal, seed=7)
    for gamma in gammas.values():
        conn = Connection(cal, gamma)
        assert all(map(_is_canonical, conn.terms.values()))
        parts = [conn.torsion(), conn.curvature(), dual.canonical_form_and_torsion(conn)]
        if connection.extensibility_analysis(conn).extensible:
            parts.append(connection.extend_to_tensor(conn, TensorField(cal, tensor)))
        assert all(_is_canonical(c) for part in parts for c in _stored(part))


def test_function_valued_oracle_stores_functions(s3_universal):
    cal = s3_universal
    with dense_paths.function_valued():
        conn = connection.c_connection(cal)
        torsion = conn._torsion_raw()[cal.hatG[0]]
    assert conn.terms and all(isinstance(c, funcs.GroupFunction) for c in conn.terms.values())
    assert all(isinstance(c, funcs.GroupFunction) for c in torsion.terms.values())


# ---------------------------------------------------------------------------
# The canonical form itself.


def test_constant_function_and_scalar_build_equal_objects(s3, s3_cycle_calculus):
    cal = s3_cycle_calculus
    g, gp = cal.hatG
    two = funcs.constant(s3, 2)
    a, b = OneForm(cal, {g: two}), OneForm(cal, {g: 2})
    assert a.terms == b.terms == {g: 2} and a == b
    a, b = TensorField(cal, {(g, gp): two}), TensorField(cal, {(g, gp): 2})
    assert a.terms == b.terms and a == b
    a, b = Connection(cal, {(g, g, gp): two}), Connection(cal, {(g, g, gp): 2})
    assert a.terms == b.terms == {(g, g, gp): 2} and a == b
    assert OneForm(cal, {g: funcs.constant(s3, 0)}).terms == {}


def test_read_surfaces_return_functions(s3, s3_cycle_calculus):
    cal = s3_cycle_calculus
    g, gp = cal.hatG
    form = OneForm(cal, {g: 2})
    assert all(isinstance(c, funcs.GroupFunction) for c in form.coeffs.values())
    assert form.coeffs[g] == funcs.constant(s3, 2)
    assert form.coeffs[gp] == funcs.constant(s3, 0)
    assert form.coeff(g) == funcs.constant(s3, 2)
    assert form.coeff(gp) == funcs.constant(s3, 0)
    f = funcs.from_values(s3, [0, 1, 2, 3, 4, 5])
    conn = Connection(cal, {(g, g, gp): 2, (g, gp, gp): f})
    assert conn.terms == {(g, g, gp): 2, (g, gp, gp): f}
    assert conn.gamma == {(g, g, gp): funcs.constant(s3, 2), (g, gp, gp): f}
    assert dense_paths.gamma_value(conn, g, g, gp) == funcs.constant(s3, 2)
    assert dense_paths.gamma_value(conn, g, g, g) == funcs.constant(s3, 0)


def test_integral_fraction_is_stored_as_int(s3_cycle_calculus):
    cal = s3_cycle_calculus
    g, gp = cal.hatG
    for stored in (
        OneForm(cal, {g: Fraction(4, 2)}).terms[g],
        Connection(cal, {(g, g, gp): Fraction(4, 2)}).terms[(g, g, gp)],
        OneForm(cal, {g: Fraction(1, 2)}).scale(4).terms[g],
    ):
        assert stored == 2 and type(stored) is int
    assert type(OneForm(cal, {g: Fraction(1, 2)}).terms[g]) is Fraction


def test_accumulate_turns_a_constant_sum_into_a_scalar(s3, s3_cycle_calculus):
    cal = s3_cycle_calculus
    g = cal.hatG[0]
    f = funcs.from_values(s3, [0, 1, 2, 3, 4, 5])
    form = OneForm(cal, {g: f})
    assert form.terms[g] is f
    form.accumulate(g, funcs.from_values(s3, [1, 0, -1, -2, -3, -4]))
    assert form.terms[g] == 1 and type(form.terms[g]) is int
    form.accumulate(g, -1)
    assert form.terms == {}


def test_scalar_operands_and_translations(s3, s3_universal):
    f = funcs.from_values(s3, [0, 1, 2, 3, 4, 5])
    assert (f + 2).values == (2, 3, 4, 5, 6, 7)
    assert (2 - f).values == (2, 1, 0, -1, -2, -3)
    assert (f * Fraction(1, 2)).values == tuple(Fraction(v, 2) for v in range(6))
    assert funcs.right_translate(1, Fraction(1, 3)) == Fraction(1, 3)
    assert funcs.left_translate(1, 5) == 5
    assert funcs.ell(1, 5) == 0
    assert funcs.canonical(s3, funcs.constant(s3, Fraction(6, 3))) == 2
    assert funcs.canonical(s3, f) is f
    assert calculus.differential(s3_universal, 3).is_zero()
    assert calculus.differential(s3_universal, funcs.constant(s3, 3)).is_zero()
    assert theta_form(s3_universal, 1, 3).right_mul(2) == theta_form(s3_universal, 1, 6)
