"""The one-pass sums of the sweep path against the loops they replaced.

braid.braid_check walks sigma's table with one lookup per sigma step;
the triple loop through SigmaOperator.on_first and on_last
(dense_paths.braid_check) must agree on every bicovariant calculus of a
catalog sample, and both must reject sigma tables with two entries
swapped.  braid.antisymmetrize_k reads the table the same way, one sweep
per leg; on seeded function-valued tensors it must give the triple maps'
A_3 at rank 3, the sum over all of S_4 (dense_paths.antisymmetrizer) at
rank 4, and twice braid.antisymmetrize at rank 2.  braid.d_rep stores
each output key once, summed by funcs.combination; it must give the
dense loops' d of 1-forms and 2-forms with function-valued
coefficients, and it must obey the graded Leibniz rule
d(a (x) b) = da (x) b + (-1)^rank(a) a (x) db on representatives up to
total rank 4.  Connection._torsion_raw builds every torsion
representative in one pass over Gamma and must give the per-label dense
loop.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from finitegeo import calculus, connection, funcs, groups
from finitegeo.braid import (
    SigmaOperator,
    TensorField,
    antisymmetrize,
    antisymmetrize_k,
    braid_check,
    d_rep,
    sigma_for,
    tensor_product,
)
from finitegeo.calculus import OneForm
from finitegeo.catalog import small_group_catalog

import dense_paths


def _sample():
    """The universal calculus and up to four seeded bicovariant calculi
    with a nonempty hatG of every catalog group."""
    out = []
    for name, group in small_group_catalog().items():
        rng = random.Random(name)
        bico = [c for c in calculus.enumerate_bicovariant(group) if c.hatG]
        out += [(name, c) for c in rng.sample(bico, min(4, len(bico)))]
        if group.order > 1:
            out.append((name, calculus.universal(group)))
    return out


SAMPLE = _sample()
IDS = [f"{name}-{'.'.join(map(str, cal.hatG))}" for name, cal in SAMPLE]


def _seeded(group, rng):
    values = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in group.elements()]
    return funcs.from_values(group, values)


@pytest.mark.parametrize("name,cal", SAMPLE, ids=IDS)
def test_braid_check_matches_the_triple_loop(name, cal):
    sig = sigma_for(cal)
    assert braid_check(sig) is True
    assert dense_paths.braid_check(sig) is True


@pytest.mark.parametrize("group", [groups.symmetric(3), groups.dihedral(4)], ids=["S3", "D4"])
def test_swapped_sigma_entries_fail_both_checks(group):
    cal = calculus.universal(group)
    pairs = cal.pairs()
    rng = random.Random(group.label)
    for _ in range(50):
        sig = SigmaOperator(cal)  # a fresh sigma, as the swap changes it
        p, q = rng.sample(pairs, 2)
        sig.perm[p], sig.perm[q] = sig.perm[q], sig.perm[p]
        assert braid_check(sig) is False, (p, q)
        assert dense_paths.braid_check(sig) is False, (p, q)


@pytest.mark.parametrize("images", [
    [(1, 1), (1, 2), (2, 2), (2, 1)],
    [(1, 2), (1, 1), (2, 1), (2, 2)],
])
def test_tables_that_fail_only_in_the_last_legs_are_rejected(images):
    """On these tables the two sides of the braid relation agree in the
    first leg of every triple and differ in the last two of some."""
    cal = calculus.universal(groups.cyclic(3))
    sig = SigmaOperator(cal)
    sig.perm = dict(zip(cal.pairs(), images))
    assert braid_check(sig) is False
    assert dense_paths.braid_check(sig) is False


def _seeded_tensor(cal, rank, rng, size=12):
    """A left tensor of the given rank on up to size seeded keys: functions,
    with an integer on every other key; a OneForm at rank 1."""
    keys = [tuple(rng.choice(cal.hatG) for _ in range(rank)) for _ in range(size)]
    coeffs = {k: _seeded(cal.group, rng) if i % 2 else i + 1 for i, k in enumerate(keys)}
    if rank == 1:
        return OneForm(cal, {k[0]: c for k, c in coeffs.items()})
    return TensorField(cal, coeffs, rank=rank)


@pytest.mark.parametrize("name,cal", SAMPLE, ids=IDS)
def test_a3_matches_the_triple_maps(name, cal):
    rng = random.Random(len(cal.hatG) * 29 + cal.group.order)
    sig = sigma_for(cal)
    triples = list(product(cal.hatG, repeat=3))
    keys = rng.sample(triples, min(12, len(triples)))
    coeffs = {k: _seeded(cal.group, rng) if i % 2 else i + 1 for i, k in enumerate(keys)}
    r3 = TensorField(cal, coeffs, rank=3)
    assert antisymmetrize_k(r3, sig) == dense_paths.apply_a3(r3, sig)
    d = d_rep(connection.canonical_connection(cal)._torsion_raw()[cal.hatG[0]])
    assert antisymmetrize_k(d, sig) == dense_paths.apply_a3(d, sig)


@pytest.mark.parametrize("name,cal", SAMPLE, ids=IDS)
def test_antisymmetrize_k_matches_the_sum_over_permutations(name, cal):
    rng = random.Random(len(cal.hatG) * 31 + cal.group.order)
    sig = sigma_for(cal)
    r4 = _seeded_tensor(cal, 4, rng)
    assert antisymmetrize_k(r4, sig) == dense_paths.antisymmetrizer(r4, sig)
    r2 = _seeded_tensor(cal, 2, rng)
    assert antisymmetrize_k(r2, sig) == antisymmetrize(r2, sig).scale(2)
    assert antisymmetrize_k(r2, sig) == dense_paths.antisymmetrizer(r2, sig)


@pytest.mark.parametrize("name,cal", SAMPLE, ids=IDS)
def test_d_rep_obeys_the_graded_leibniz_rule(name, cal):
    rng = random.Random(len(cal.hatG) * 37 + cal.group.order)
    for ra, rb in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3)):
        a, b = _seeded_tensor(cal, ra, rng, 4), _seeded_tensor(cal, rb, rng, 4)
        product_first = d_rep(tensor_product(a, b))
        assert product_first.rank == ra + rb + 1
        leibniz = tensor_product(d_rep(a), b) + tensor_product(a, d_rep(b)).scale((-1) ** ra)
        assert product_first == leibniz, (ra, rb)


@pytest.mark.parametrize("name,cal", SAMPLE, ids=IDS)
def test_d_rep_matches_the_dense_loops(name, cal):
    rng = random.Random(len(cal.hatG) * 17 + cal.group.order)
    group = cal.group
    labels = rng.sample(cal.hatG, max(1, len(cal.hatG) // 2))
    phi = OneForm(cal, {g: _seeded(group, rng) if k % 2 else k + 1 for k, g in enumerate(labels)})
    assert d_rep(phi) == dense_paths.d_one_form_rep(phi)
    keys = rng.sample(list(product(cal.hatG, repeat=2)), min(6, len(cal.hatG) ** 2))
    t = TensorField(cal, {k: _seeded(group, rng) if i % 3 else -i for i, k in enumerate(keys)})
    got = d_rep(t)
    assert type(got) is TensorField and got.rank == 3
    assert got == dense_paths.d_two_rep(t)
    assert d_rep(d_rep(OneForm(cal, {}))).is_zero()


@pytest.mark.parametrize("name,cal", SAMPLE, ids=IDS)
def test_one_pass_torsion_matches_the_per_label_loop(name, cal):
    rng = random.Random(len(cal.hatG) * 23 + cal.group.order)
    triples = list(product(cal.hatG, repeat=3))
    picked = rng.sample(triples, max(1, min(40, len(triples) // 3)))
    seeded = connection.Connection(
        cal, {t: _seeded(cal.group, rng) if k % 2 else k - 2 for k, t in enumerate(picked)}
    )
    for conn in (connection.c_connection(cal), connection.nabla_sigma(cal), seeded):
        torsion = conn._torsion_raw()
        assert list(torsion) == list(cal.hatG)
        for h in cal.hatG:
            assert torsion[h] == dense_paths.torsion_raw_theta(conn, h)


def test_sigma_family_keeps_integral_gamma_as_ints(s3_universal):
    cal = s3_universal
    order = connection.sigma_for(cal).order()
    conn = connection.sigma_family(cal, [3] + [Fraction(-1)] * (order - 1))
    assert conn.terms and all(type(c) is int for c in conn.terms.values())
    half = connection.sigma_family(cal, [Fraction(1, 2)] + [0] * (order - 1))
    assert {type(c) for c in half.terms.values()} <= {int, Fraction}
    assert all(type(c) is int or c.denominator != 1 for c in half.terms.values())
