"""Connection checks that take a shortcut, against the paths they replaced.

flatness_representation_check compares U_g U_s = U_gs for the
generators s only, on sparse rows; dense_paths.transport_is_representation
runs over every pair with dense matrices.  two_sided_square reads its
2-form components off rho, since the calculus is inner, d = [rho, .};
dense_paths.two_sided_square builds them with d and the Maurer-Cartan
forms.  The commutator form of d is checked on its own on seeded
function-valued 1-forms, and so is the form it gives every extensible
connection: nabla = rho (x) . - Psi(. (x) rho) + alpha with alpha a
bimodule map.  The flatness check runs on the universal calculus of
every catalog group, the others on test_echelon_rows' sample of up to
four bicovariant calculi a group.
"""

import random
from fractions import Fraction

import pytest

from finitegeo import calculus, connection, funcs
from finitegeo.braid import d_one_form, project_two_form, sigma_for, tensor_product
from finitegeo.calculus import OneForm, rho
from finitegeo.catalog import small_group_catalog
from finitegeo.errors import InternalInconsistency
from finitegeo.groups import generators

import dense_paths
from elimination import identity_matrix, matmul
from test_echelon_rows import IDS, SAMPLE

CATALOG = small_group_catalog()


def _seeded_function(group, rng):
    return funcs.from_values(group, [Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                                     for _ in group.elements()])


def _seeded_form(cal, rng):
    """A 1-form with seeded function coefficients on a seeded part of hatG."""
    legs = rng.sample(cal.hatG, max(1, len(cal.hatG) // 2))
    return OneForm(cal, {g: _seeded_function(cal.group, rng) for g in legs})


def _seeded_constant(cal, seed):
    """A connection with seeded constant coefficients on about a tenth of
    the triples: as a rule neither flat nor a representation."""
    rng = random.Random(seed)
    triples = [(h, g, gp) for h in cal.hatG for g, gp in cal.pairs()]
    picked = rng.sample(triples, min(len(triples), max(2, len(triples) // 10)))
    return connection.Connection(cal, {t: rng.choice((-2, -1, 1, 3)) for t in picked})


def _transport_along_one_generator(cal, seed):
    """A connection whose transport matrices satisfy U_g U_s = U_gs for
    every g, but as a rule only for the first generator s: U_s permutes
    the basis by conjugation with s, and U_rs^k = U_r U_s^k along each
    coset r<s>, from a U_r that differs from the identity in one seeded
    entry.  A check that stopped at the first generator would call it a
    representation."""
    group, hatg = cal.group, cal.hatG
    rng = random.Random(seed)
    s = generators(group.table)[0]
    u_s = [[int(group.adjoint(s, h) == hp) for hp in hatg] for h in hatg]
    mats = {}
    for r in range(group.order):
        u = identity_matrix(len(hatg))
        if r and r not in mats:
            u[rng.randrange(len(hatg))][rng.randrange(len(hatg))] += rng.choice((-1, 1, 2))
        while r not in mats:
            mats[r] = u
            u, r = matmul(u, u_s), group.mul(r, s)
    gamma = {(h, hp, g): mats[g][i][j] - (i == j) for g in hatg
             for i, hp in enumerate(hatg) for j, h in enumerate(hatg)}
    return connection.Connection(cal, {key: c for key, c in gamma.items() if c})


@pytest.mark.parametrize("name", list(CATALOG))
def test_flatness_on_generators_matches_all_pairs(name):
    cal = calculus.universal(CATALOG[name])
    conns = [connection.c_connection(cal), connection.nabla_sigma(cal),
             connection.canonical_connection(cal), _seeded_constant(cal, 1)]
    several = len(generators(cal.group.table)) > 1
    if several:
        conns.append(_transport_along_one_generator(cal, 2))
    outcomes = []
    for conn in conns:
        got = connection.flatness_representation_check(conn)
        assert got is dense_paths.transport_is_representation(conn)
        outcomes.append(got)
    if cal.group.order >= 5:
        assert outcomes[:4] == [True, True, False, False]
        assert conns[2].curvature_is_zero()  # flat, not a representation
    if several:
        assert outcomes[4] is False


def test_a_representation_that_is_not_flat_raises(monkeypatch):
    conn = connection.c_connection(calculus.universal(CATALOG["S3"]))
    assert connection.flatness_representation_check(conn) is True
    monkeypatch.setattr(conn, "curvature_is_zero", lambda: False)
    with pytest.raises(InternalInconsistency):
        connection.flatness_representation_check(conn)


@pytest.mark.parametrize("label,cal", SAMPLE, ids=IDS)
def test_two_sided_square_matches_maurer_cartan(label, cal):
    rng = random.Random(label)
    ts = connection.TwoSidedConnection(cal)
    for _ in range(2):
        phi = _seeded_form(cal, rng)
        assert connection.two_sided_square(ts, phi) == dense_paths.two_sided_square(ts, phi)


@pytest.mark.parametrize("label,cal", SAMPLE, ids=IDS)
def test_d_is_the_graded_commutator_with_rho(label, cal):
    rng = random.Random(label)
    sig, r = sigma_for(cal), rho(cal)
    for _ in range(2):
        phi = _seeded_form(cal, rng)
        commutator = tensor_product(r, phi) + tensor_product(phi, r)
        assert d_one_form(phi, sig) == project_two_form(commutator, sig)


def _seeded_extensible(cal, rng):
    """A connection with seeded function-valued Gamma^g_{h,h'} on a seeded
    part of the slots with h h' g^-1 in hatG or e, where an extensible
    connection may be nonzero."""
    group = cal.group
    allowed = set(cal.hatG) | {0}
    slots = [(g, h, hp) for g in cal.hatG for h, hp in cal.pairs()
             if group.mul(group.mul(h, hp), group.inverse(g)) in allowed]
    picked = rng.sample(slots, max(1, len(slots) // 4))
    return connection.Connection(cal, {t: _seeded_function(group, rng) for t in picked})


BIMODULE_SAMPLE = SAMPLE[::3] + [
    (f"{name}:universal", calculus.universal(group))
    for name, group in CATALOG.items() if 1 < group.order <= 8
]


@pytest.mark.parametrize("label,cal", BIMODULE_SAMPLE, ids=[label for label, _ in BIMODULE_SAMPLE])
def test_extensible_connections_are_bimodule_connections(label, cal):
    """alpha(phi) = nabla phi - rho (x) phi + Psi(phi (x) rho), with Psi
    from extensibility_analysis, is a bimodule map: alpha(f phi) =
    f alpha(phi) and alpha(phi f) = alpha(phi) f."""
    rng = random.Random(label)
    r = rho(cal)
    conns = [connection.c_connection(cal), connection.nabla_sigma(cal),
             connection.canonical_connection(cal), _seeded_extensible(cal, rng)]
    for conn in conns:
        report = connection.extensibility_analysis(conn)
        assert report.extensible

        def alpha(phi):
            return (conn.apply(phi) - tensor_product(r, phi)
                    + report.psi_apply(tensor_product(phi, r)))

        phi, f = _seeded_form(cal, rng), _seeded_function(cal.group, rng)
        a = alpha(phi)
        assert alpha(phi.left_mul(f)) == a.left_mul(f)
        assert alpha(phi.right_mul(f)) == a.right_mul(f)
