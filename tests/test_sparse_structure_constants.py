"""The sparse structure-constant and connection paths against dense loops.

StructureConstants.nonzero lists the pairs with C^h_{g,g'} != 0; d of
1-forms and 2-forms, the C-connection, covariant derivatives, torsion,
curvature and the dual connection read C and Gamma by their nonzero
entries.  The loops they replaced (dense_paths) must give the same
tensors, for constant and for function-valued coefficients, on a sample
of catalog calculi with |hatG| <= 5.  A universal calculus with
|hatG| = 11 checks Bianchi and flatness beyond that sample.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from finitegeo import calculus, connection, dual, funcs, groups
from finitegeo.braid import TensorField, d_one_form_rep, d_theta, d_two_rep, sigma_for
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
        assert d_one_form_rep(phi) == dense_paths.d_one_form_rep(phi)
    t = TensorField(cal, {p: _seeded(cal.group, rng) for p in rng.sample(cal.pairs(), len(cal.hatG))})
    assert d_two_rep(t) == dense_paths.d_two_rep(t)
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
            assert got == dense_paths.dual_apply(star, x)
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
