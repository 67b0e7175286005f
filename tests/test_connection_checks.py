"""Connection checks that take a shortcut, against the paths they replaced.

flatness_representation_check compares U_g U_s = U_gs for the
generators s only; dense_paths.flatness_representation_check runs over
every pair.  two_sided_square reads its 2-form components off rho, since
the calculus is inner, d = [rho, .}; dense_paths.two_sided_square builds
them with d and the Maurer-Cartan forms.  The commutator form of d is
checked on its own on seeded function-valued 1-forms.  The flatness
check runs on the universal calculus of every catalog group, the others
on test_echelon_rows' sample of up to four bicovariant calculi a group.
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
from finitegeo.linalg import identity_matrix, matmul

import dense_paths
from test_echelon_rows import IDS, SAMPLE

CATALOG = small_group_catalog()


def _seeded_form(cal, rng):
    """A 1-form with seeded function coefficients on a seeded part of hatG."""
    group = cal.group
    legs = rng.sample(cal.hatG, max(1, len(cal.hatG) // 2))
    return OneForm(cal, {
        g: funcs.from_values(group, [Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                                     for _ in group.elements()])
        for g in legs
    })


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


def _outcome(check, conn):
    try:
        return check(conn)
    except InternalInconsistency as exc:
        return str(exc)


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
        got = _outcome(connection.flatness_representation_check, conn)
        assert got == _outcome(dense_paths.flatness_representation_check, conn)
        outcomes.append(got)
    if cal.group.order >= 5:
        assert outcomes[:2] == [True, True]
        assert isinstance(outcomes[2], str)  # flat, not a representation
        assert outcomes[3] is False
    if several:
        assert outcomes[4] is not True


@pytest.mark.parametrize("label,cal", SAMPLE, ids=IDS)
def test_two_sided_square_matches_maurer_cartan(label, cal):
    rng = random.Random(label)
    ts = connection.two_sided_connection(cal)
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
