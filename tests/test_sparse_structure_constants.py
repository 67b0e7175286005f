"""The sparse structure-constant and connection paths against dense loops.

StructureConstants.nonzero lists the pairs with C^h_{g,g'} != 0; d of
1-forms and 2-forms, the C-connection, covariant derivatives, torsion,
curvature and the dual connection read C and Gamma by their nonzero
entries.  The loops they replaced (dense_paths) must give the same
tensors, for constant and for function-valued coefficients, on a sample
of catalog calculi with |hatG| <= 5.  A universal calculus with
|hatG| = 11 checks Bianchi and flatness beyond that sample.

The one tensor product, d, two-leg twist and contraction on the sparse
Tensor are checked the same way against the rank-specific routines they
replaced, on left-covariant calculi that are not bicovariant too
wherever sigma is not needed.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from finitegeo import calculus, connection, dual, funcs, groups
from finitegeo.braid import Rank3Field, TensorField, d_rep, d_theta, sigma_for, tensor_product
from finitegeo.calculus import OneForm, StructureConstants, theta_form
from finitegeo.catalog import small_group_catalog

import dense_paths


def _sample():
    """Up to two bicovariant calculi with 1 <= |hatG| <= 5 per catalog
    group, and one left-covariant calculus that is not bicovariant per
    nonabelian group, chosen by a seeded generator."""
    out = []
    for name, group in small_group_catalog().items():
        rng = random.Random(name)
        bico = [c for c in calculus.enumerate_bicovariant(group) if 1 <= len(c.hatG) <= 5]
        out += [(name, c) for c in rng.sample(bico, min(2, len(bico)))]
        if group.order > 3:
            tries = [calculus.from_hatG(group, rng.sample(range(1, group.order), 2))
                     for _ in range(20)]
            out += [(name, c) for c in tries if not c.bicovariant][:1]
    return out


SAMPLE = _sample()
IDS = [f"{name}-{'.'.join(map(str, cal.hatG))}" for name, cal in SAMPLE]


def _seeded(group, rng):
    values = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in group.elements()]
    return funcs.from_values(group, values)


def _function_connection(cal, rng):
    """A connection with function-valued and constant coefficients on a
    random third of the triples."""
    triples = list(product(cal.hatG, repeat=3))
    picked = rng.sample(triples, max(1, len(triples) // 3))
    return connection.Connection(
        cal, {t: _seeded(cal.group, rng) if k % 3 else k - 1 for k, t in enumerate(picked)}
    )


def _connections(cal, rng):
    conns = [connection.c_connection(cal), connection.canonical_connection(cal),
             _function_connection(cal, rng)]
    if cal.bicovariant:
        conns.append(connection.nabla_sigma(cal))
    return conns


def _forms(cal, rng):
    """Every basis form and a 1-form with function coefficients on some labels."""
    forms = [theta_form(cal, g) for g in cal.hatG]
    labels = rng.sample(cal.hatG, max(1, len(cal.hatG) - 1))
    forms.append(OneForm(cal, {g: _seeded(cal.group, rng) for g in labels}))
    return forms


@pytest.mark.parametrize("name,cal", SAMPLE, ids=IDS)
def test_nonzero_lists_the_nonzero_structure_constants(name, cal):
    sc = StructureConstants(cal)
    for h in range(cal.group.order):
        dense = [
            (g, gp, sc.C(h, g, gp))
            for g in cal.hatG
            for gp in cal.hatG
            if sc.C(h, g, gp)
        ]
        listed = sc.nonzero(h)
        assert listed == dense
        assert len(listed) <= 3 * len(cal.hatG)


@pytest.mark.parametrize("name,cal", SAMPLE, ids=IDS)
def test_c_connection_and_differentials_match_dense_loops(name, cal):
    rng = random.Random(len(cal.hatG) * 97 + cal.group.order)
    conn = connection.c_connection(cal)
    assert conn.gamma == dense_paths.c_connection(cal).gamma
    assert list(conn.gamma) == list(dense_paths.c_connection(cal).gamma)
    for phi in _forms(cal, rng):
        assert d_rep(phi) == dense_paths.d_one_form_rep(phi)
    t = TensorField(cal, {p: _seeded(cal.group, rng) for p in rng.sample(cal.pairs(), len(cal.hatG))})
    assert d_rep(t) == dense_paths.d_two_rep(t)
    if cal.bicovariant:
        sig = sigma_for(cal)
        for h in cal.hatG:
            assert d_theta(cal, sig, h) == dense_paths.d_theta(cal, sig, h)


@pytest.mark.parametrize("name,cal", SAMPLE, ids=IDS)
def test_connection_paths_match_dense_loops(name, cal):
    rng = random.Random(len(cal.hatG) * 31 + cal.group.order)
    forms = _forms(cal, rng)
    for conn in _connections(cal, rng):
        for phi in forms:
            assert conn.apply(phi) == dense_paths.apply(conn, phi)
        for h in cal.hatG:
            assert conn.nabla_theta(h) == dense_paths.nabla_theta(conn, h)
            assert conn._torsion_raw_theta(h) == dense_paths.torsion_raw_theta(conn, h)
            for gp in cal.hatG:
                assert conn._curvature_raw(h, gp) == dense_paths.curvature_raw(conn, h, gp)


@pytest.mark.parametrize("name,cal", SAMPLE, ids=IDS)
def test_dual_connection_matches_dense_loop(name, cal):
    rng = random.Random(len(cal.hatG) * 53 + cal.group.order)
    fields = [dual.vector_field_basis(cal, g) for g in cal.hatG]
    fields.append(dual.VectorField(cal, {g: _seeded(cal.group, rng) for g in cal.hatG}))
    for conn in _connections(cal, rng):
        star = dual.dual_connection(conn)
        for x in fields:
            got = star.apply(x)
            dense = dense_paths.dual_apply(star, x)
            assert got == {k: funcs.canonical(cal.group, f) for k, f in dense.items()}
            assert list(got) == sorted(got)


@pytest.fixture(scope="module")
def a4_universal():
    return calculus.universal(groups.alternating(4))


def test_bianchi_and_flatness_on_universal_a4(a4_universal):
    cal = a4_universal
    assert len(cal.hatG) == 11
    c_conn = connection.c_connection(cal)
    assert c_conn.curvature_is_zero() is True
    for conn in (c_conn, connection.nabla_sigma(cal)):
        result = dual.canonical_form_and_torsion(conn)
        assert all(entry["holds"] for entry in result["bianchi"].values())


def _tensor(kind, cal, rng, count):
    """A tensor with function-valued coefficients at count random keys."""
    keys = list(cal.hatG) if kind.rank == 1 else list(product(cal.hatG, repeat=kind.rank))
    return kind(cal, {k: _seeded(cal.group, rng) for k in rng.sample(keys, min(count, len(keys)))})


@pytest.mark.parametrize("name,cal", SAMPLE, ids=IDS)
def test_tensor_product_and_d_match_rank_specific_routines(name, cal):
    rng = random.Random(len(cal.hatG) * 71 + cal.group.order)
    forms = _forms(cal, rng)
    twos = [_tensor(TensorField, cal, rng, len(cal.hatG) + 1),
            connection.c_connection(cal)._torsion_raw_theta(cal.hatG[0])]
    for phi in forms:
        assert d_rep(phi) == dense_paths.sparse_d_one_form_rep(phi)
        for psi in forms:
            assert tensor_product(phi, psi) == dense_paths.tensor_of_one_forms(phi, psi)
        for t in twos:
            assert tensor_product(phi, t) == dense_paths.one_form_times_two_rep(phi, t)
            assert tensor_product(t, phi) == dense_paths.two_rep_times_one_form(t, phi)
    for t in twos:
        assert d_rep(t) == dense_paths.sparse_d_two_rep(t)


@pytest.mark.parametrize("name,cal", SAMPLE, ids=IDS)
def test_pair_and_vector_fields_match_rank_specific_routines(name, cal):
    rng = random.Random(len(cal.hatG) * 89 + cal.group.order)
    f = _seeded(cal.group, rng)
    fields = [dual.vector_field_basis(cal, cal.hatG[-1]), _tensor(dual.VectorField, cal, rng, 3)]
    metric = _tensor(dual.Metric, cal, rng, 2 * len(cal.hatG))
    for x in fields:
        assert x.apply_to_function(f) == dense_paths.apply_to_function(x, f)
        for phi in _forms(cal, rng):
            assert dual.pair(phi, x) == dense_paths.pair(phi, x)
        t = _tensor(TensorField, cal, rng, 2 * len(cal.hatG))
        assert dual.pair(t, x) == dense_paths.pair_tensor_field(t, x)
    r3 = _tensor(Rank3Field, cal, rng, 3 * len(cal.hatG))
    assert dual.pair(r3, metric) == dense_paths.pair_rank3_metric(r3, metric)
    for conn in _connections(cal, rng):
        star = dual.dual_connection(conn)
        for x in fields:
            got = star.apply(x)
            assert got == dense_paths.sparse_dual_apply(star, x)
            assert list(got) == list(dense_paths.sparse_dual_apply(star, x))


def _extensible(cal, rng):
    """The extensible sample connections, each also scaled by a function."""
    conns = [c for c in _connections(cal, rng) if connection.extensibility_analysis(c).extensible]
    scale = _seeded(cal.group, rng)
    return conns + [connection.Connection(cal, {k: f * scale for k, f in c.gamma.items()})
                    for c in conns]


BICOVARIANT = [(name, cal) for name, cal in SAMPLE if cal.bicovariant]
BICO_IDS = [f"{n}-{'.'.join(map(str, c.hatG))}" for n, c in BICOVARIANT]


@pytest.mark.parametrize("name,cal", BICOVARIANT, ids=BICO_IDS)
def test_twist_and_extension_match_rank_specific_routines(name, cal):
    rng = random.Random(len(cal.hatG) * 43 + cal.group.order)
    t = _tensor(TensorField, cal, rng, 2 * len(cal.hatG))
    r3 = _tensor(Rank3Field, cal, rng, 3 * len(cal.hatG))
    phi, psi = _forms(cal, rng)[-1], _forms(cal, rng)[-1]
    for conn in _extensible(cal, rng):
        report = connection.extensibility_analysis(conn)
        assert report.v_apply(t) == dense_paths.v_apply(report, t)
        assert report.psi_apply(t) == dense_paths.psi_apply(report, t)
        sliced = Rank3Field(cal)
        for w in cal.hatG:
            piece = TensorField(cal, {k[:2]: c for k, c in r3.terms.items() if k[2] == w})
            for k, c in dense_paths.psi_apply(report, piece).terms.items():
                sliced.accumulate(k + (w,), c)
        assert report.psi_apply(r3) == sliced
        for a, b in ((phi, psi), (theta_form(cal, cal.hatG[0]), psi), (phi, theta_form(cal, cal.hatG[-1]))):
            want = dense_paths.extend_pair(report, a, conn.apply(a), b, conn.apply(b), Rank3Field(cal))
            assert connection.extend_on_pair(conn, a, b) == want
        assert connection.extend_to_tensor(conn, t) == dense_paths.extend_to_tensor(conn, t)


def test_extend_pair_twists_once_per_pair(monkeypatch, s3_universal):
    calls = []
    original = connection.ExtensibilityReport.psi_apply

    def counting(self, t):
        calls.append(t.rank)
        return original(self, t)

    monkeypatch.setattr(connection.ExtensibilityReport, "psi_apply", counting)
    cal = s3_universal
    rng = random.Random(3)
    phi, psi = _forms(cal, rng)[-1], _forms(cal, rng)[-1]
    conn = connection.nabla_sigma(cal)
    assert not connection.extend_on_pair(conn, phi, psi).is_zero()
    assert calls == [3]


def test_differential_skips_constant_functions(monkeypatch, s3_universal):
    """Nothing evaluates ell_g on a constant function, where it is zero."""
    calls = {"constant": 0, "all": 0}
    original = funcs.ell

    def counting(g, f):
        calls["all"] += 1
        calls["constant"] += f.is_constant()
        return original(g, f)

    monkeypatch.setattr(funcs, "ell", counting)
    cal = s3_universal
    result = dual.canonical_form_and_torsion(connection.c_connection(cal))
    assert all(entry["holds"] for entry in result["bianchi"].values())
    rng = random.Random(11)
    metric = dual.Metric(cal, {p: 1 if k % 2 else _seeded(cal.group, rng)
                               for k, p in enumerate(cal.pairs())})
    report = dual.metric_compatibility(metric, route="both")
    assert report["routes_agree"] is True
    assert calls["constant"] == 0
    assert calls["all"] > 0


def test_products_do_not_translate_constants(monkeypatch, s3_universal):
    """R_g of a constant is the constant: crossing a basis leg leaves it
    untranslated."""
    calls = {"constant": 0}
    original = funcs.right_translate

    def counting(g, f):
        calls["constant"] += f.is_constant()
        return original(g, f)

    monkeypatch.setattr(funcs, "right_translate", counting)
    result = dual.canonical_form_and_torsion(connection.c_connection(s3_universal))
    assert all(entry["holds"] for entry in result["bianchi"].values())
    assert calls["constant"] == 0


@pytest.mark.parametrize("name,cal", BICOVARIANT, ids=BICO_IDS)
def test_torsion_and_curvature_without_arguments_match_their_verdicts(name, cal):
    """torsion() and curvature() list the 2-forms of every basis label;
    they all vanish exactly when the verdicts say so."""
    rng = random.Random(len(cal.hatG) * 61 + cal.group.order)
    for conn in _connections(cal, rng):
        torsion = conn.torsion()
        assert list(torsion) == list(cal.hatG)
        for h, t in torsion.items():
            assert t == conn.torsion(theta_form(cal, h))
        torsion_free = all(t.is_zero() for t in torsion.values())
        assert torsion_free == conn.is_torsion_free()
        curvature = conn.curvature()
        assert list(curvature) == list(cal.hatG)
        assert all(list(row) == list(cal.hatG) for row in curvature.values())
        flat = all(t.is_zero() for row in curvature.values() for t in row.values())
        assert flat == conn.curvature_is_zero()


def test_the_sample_connections_take_both_verdicts():
    """Both sides of each equivalence above are met on the sample."""
    verdicts = set()
    for _, cal in BICOVARIANT:
        rng = random.Random(len(cal.hatG) * 61 + cal.group.order)
        for conn in _connections(cal, rng):
            verdicts.add((conn.is_torsion_free(), conn.curvature_is_zero()))
    assert {v[0] for v in verdicts} == {v[1] for v in verdicts} == {True, False}
