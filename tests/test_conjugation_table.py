"""Adjoint orbits read off one conjugation table, and one torsion equation
per orbit, against the loops they replaced.

groups.adjoint_orbits zips the rows of FiniteGroup.conjugates, a table
built on first read; invariance_constraints and solve_bi_invariant read
their orbits from it, and solve_torsion_free writes its equation at each
orbit's first triple.  dense_paths keeps the per-element groups.orbits
call and the equation at every triple, and the answers must agree, in
the same order.  The orbit counts must also match Burnside's lemma,
computed from the Cayley table alone.
"""

from itertools import product

import pytest

import dense_paths
from finitegeo import calculus, groups
from finitegeo.catalog import small_group_catalog
from finitegeo.connection import solve_torsion_free
from finitegeo.invariants import solve_bi_invariant

CATALOG = small_group_catalog()
SMALL = {
    name: [c for c in calculus.enumerate_bicovariant(g) if len(c.hatG) <= 5]
    for name, g in CATALOG.items()
}
UNIVERSAL = {"S4": groups.symmetric(4), "A5": groups.alternating(5)}


def burnside(table, hatG, k):
    """(1/|G|) sum_a |C_G(a) cap hatG|^k, the orbit count on hatG^k."""
    n = len(table)
    total = sum(sum(table[a][x] == table[x][a] for x in hatG) ** k for a in range(n))
    assert total % n == 0
    return total // n


def test_conjugates_is_built_on_first_read():
    group = groups.symmetric(4)
    assert "conjugates" not in vars(group)
    conj = group.conjugates
    assert group.conjugates is conj
    assert conj == tuple(
        tuple(group.adjoint(a, x) for a in group.elements()) for x in group.elements()
    )


def _check_against_oracles(cal, modes):
    group, hatG = cal.group, cal.hatG
    pair_orbits = dense_paths.adjoint_orbits(group, hatG, 2)
    triple_orbits = dense_paths.adjoint_orbits(group, hatG, 3)
    assert groups.adjoint_orbits(group, hatG, 2) == pair_orbits
    assert groups.adjoint_orbits(group, hatG, 3) == triple_orbits
    pairs = cal.pairs()
    blocks = solve_bi_invariant(cal).blocks
    assert [tuple(pairs[i] for i in b) for b in blocks] == pair_orbits
    orbits = {"bi": triple_orbits, "left": [(t,) for t in product(hatG, repeat=3)]}
    for mode in modes:
        fam = solve_torsion_free(cal, mode)
        assert fam.orbits == orbits[mode]
        particular, supports = dense_paths.torsion_free_all_triples(cal, orbits[mode])
        assert (fam.particular, fam.supports) == (particular, supports), mode


@pytest.mark.parametrize("name", CATALOG)
def test_orbits_and_torsion_families_match_the_per_element_loops(name):
    """Every bicovariant catalog calculus with |hatG| <= 5; the left mode,
    whose orbits are single triples, on the last of each group."""
    for cal in SMALL[name][:-1]:
        _check_against_oracles(cal, ("bi",))
    _check_against_oracles(SMALL[name][-1], ("bi", "left"))


def test_universal_s4_matches_the_per_element_loops():
    _check_against_oracles(calculus.universal(UNIVERSAL["S4"]), ("bi", "left"))


@pytest.mark.parametrize("name", CATALOG)
def test_orbit_counts_follow_burnside(name):
    for cal in SMALL[name]:
        for k in (1, 2, 3):
            count = burnside(cal.group.table, cal.hatG, k)
            assert len(groups.adjoint_orbits(cal.group, cal.hatG, k)) == count


@pytest.mark.parametrize("name", UNIVERSAL)
def test_universal_orbit_counts_follow_burnside(name):
    group = UNIVERSAL[name]
    hatG = range(1, group.order)
    for k in (1, 2, 3):
        assert len(groups.adjoint_orbits(group, hatG, k)) == burnside(group.table, hatG, k)
