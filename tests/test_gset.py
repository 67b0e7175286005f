"""Tests for group actions on finite sets and their covariant calculi."""

import random
from itertools import product

import pytest

from finitegeo.calculus import enumerate_left_covariant
from finitegeo.catalog import small_group_catalog
from finitegeo.errors import NotAnAction, TooLarge
from finitegeo.groups import cyclic, generators, symmetric
from finitegeo.gset import (
    GSet,
    covariant_calculi,
    gset_dot,
    gset_from_permutations,
    irreducible_calculi,
    left_translation_gset,
    pair_orbits,
)

import dense_paths


def swap_action():
    """The order-two group generated by the transposition of points 0, 1."""
    return gset_from_permutations([(1, 0, 2)])


def cycle_action():
    """The order-three group generated by the cycle 0 -> 1 -> 2 -> 0."""
    return gset_from_permutations([(1, 2, 0)])


def test_from_permutations_builds_group_and_table():
    gs = swap_action()
    assert gs.group.order == 2
    assert gs.size == 3
    assert gs.act(0, 0) == 0
    assert gs.act(1, 0) == 1
    assert gs.act(1, 2) == 2


def test_rejects_non_permutation():
    with pytest.raises(NotAnAction):
        gset_from_permutations([(0, 0, 2)])
    with pytest.raises(NotAnAction):
        gset_from_permutations([])


def test_rejects_broken_table():
    grp = cyclic(2)
    table = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    with pytest.raises(NotAnAction):
        GSet(grp, 2, table)
    table = {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1}
    with pytest.raises(NotAnAction):
        GSet(grp, 2, table)


def test_swap_action_has_three_pair_orbits():
    orbs = pair_orbits(swap_action())
    assert orbs == [
        ((0, 1), (1, 0)),
        ((0, 2), (1, 2)),
        ((2, 0), (2, 1)),
    ]


def test_cycle_action_has_two_pair_orbits():
    orbs = pair_orbits(cycle_action())
    assert orbs == [
        ((0, 1), (1, 2), (2, 0)),
        ((0, 2), (1, 0), (2, 1)),
    ]


def test_covariant_calculi_are_orbit_unions():
    gs = swap_action()
    cals = covariant_calculi(gs)
    assert len(cals) == 8
    assert cals[0] == ()
    assert len(cals[-1]) == 6
    for edges in cals:
        assert dense_paths.is_covariant(gs, edges)


def test_raw_edge_set_can_fail_covariance():
    gs = swap_action()
    assert not dense_paths.is_covariant(gs, [(0, 1)])
    assert dense_paths.is_covariant(gs, [(0, 1), (1, 0)])


def test_irreducible_calculi_drop_one_orbit():
    gs = swap_action()
    cals = irreducible_calculi(gs)
    assert cals == [
        ((0, 2), (1, 2), (2, 0), (2, 1)),
        ((0, 1), (1, 0), (2, 0), (2, 1)),
        ((0, 1), (0, 2), (1, 0), (1, 2)),
    ]
    for edges in cals:
        assert dense_paths.is_covariant(gs, edges)


def test_irreducible_calculi_for_the_cycle_action():
    gs = cycle_action()
    cals = irreducible_calculi(gs)
    assert cals == [
        ((0, 2), (1, 0), (2, 1)),
        ((0, 1), (1, 2), (2, 0)),
    ]


def test_full_symmetric_action_admits_only_two_calculi():
    for n in (3, 4):
        perms = []
        swap = list(range(n))
        swap[0], swap[1] = swap[1], swap[0]
        perms.append(tuple(swap))
        perms.append(tuple(list(range(1, n)) + [0]))
        gs = gset_from_permutations(perms)
        assert gs.group.order == symmetric(n).order
        cals = covariant_calculi(gs)
        assert len(cals) == 2
        assert cals[0] == ()
        assert len(cals[1]) == n * (n - 1)


def test_covariant_calculi_past_the_limit_raise_too_large():
    """The trivial group on 5 points has 20 pair orbits, 2^20 unions."""
    with pytest.raises(TooLarge):
        covariant_calculi(gset_from_permutations([(0, 1, 2, 3, 4)]))


def test_left_translation_action_matches_group_calculi():
    grp = cyclic(3)
    gs = left_translation_gset(grp)
    assert len(pair_orbits(gs)) == grp.order - 1
    cals = covariant_calculi(gs)
    assert len(cals) == len(enumerate_left_covariant(grp)) == 4
    for cal in enumerate_left_covariant(grp):
        assert dense_paths.is_covariant(gs, cal.edges)


def test_dot_output_is_deterministic():
    gs = swap_action()
    edges = irreducible_calculi(gs)[0]
    first = gset_dot(gs, edges)
    second = gset_dot(gs, edges)
    assert first == second
    assert first.startswith("digraph")
    assert '"3"' in first


# ---------------------------------------------------------------------------
# The product rule is checked for a in a generating set only; the triple
# loop over every (a, b, x) is the oracle.


def _accepted(group, size, table):
    try:
        GSet(group, size, table)
    except NotAnAction:
        return False
    return True


def _failing_triples(group, size, table):
    return [
        (a, b, x)
        for a in range(group.order)
        for b in range(group.order)
        for x in range(size)
        if table[(group.mul(a, b), x)] != table[(a, table[(b, x)])]
    ]


@pytest.mark.parametrize("name,size", [("Z2xZ2", 2), ("S3", 2), ("Z2xZ2", 3)])
def test_product_rule_verdict_matches_the_triple_loop(name, size):
    """Every table of maps with the identity acting trivially gets the
    triple loop's verdict, among them tables whose failing triples all
    have a outside the subgroup of the first generator."""
    group = small_group_catalog()[name]
    first = generators(group.table)[0]
    first_subgroup = {group.power(first, k) for k in range(group.order)}
    cells = [(a, x) for a in range(1, group.order) for x in range(size)]
    verdicts = set()
    beyond_first = 0
    for values in product(range(size), repeat=len(cells)):
        table = {(0, x): x for x in range(size)}
        table.update(zip(cells, values))
        verdict = dense_paths.respects_product(group, size, table)
        assert _accepted(group, size, table) == verdict, table
        verdicts.add(verdict)
        bad = _failing_triples(group, size, table)
        beyond_first += bool(bad) and all(a not in first_subgroup for a, _, _ in bad)
    assert verdicts == {True, False}
    assert beyond_first > 0


@pytest.mark.parametrize(
    "perms",
    [[(1, 2, 3, 0), (0, 3, 2, 1)], [(1, 0, 2, 3), (1, 2, 3, 0)], [(1, 2, 0, 3, 4), (0, 1, 2, 4, 3)]],
    ids=["D4", "S4", "Z3xZ2"],
)
def test_one_changed_entry_beyond_the_first_generator_is_rejected(perms):
    """Changing one image a.x of a natural action, with a not the first
    generator, breaks the product rule, and the check finds it."""
    gs = gset_from_permutations(perms)
    group, size = gs.group, gs.size
    first = generators(group.table)[0]
    rng = random.Random(len(perms[0]) * 7 + group.order)
    for _ in range(12):
        a = rng.choice([a for a in range(1, group.order) if a != first])
        x = rng.randrange(size)
        table = dict(gs.table)
        table[(a, x)] = rng.choice([y for y in range(size) if y != table[(a, x)]])
        assert not dense_paths.respects_product(group, size, table)
        with pytest.raises(NotAnAction):
            GSet(group, size, table)


def test_an_action_table_that_misses_or_misplaces_a_pair_is_refused():
    z2 = cyclic(2)
    full = {(a, x): (a + x) % 2 for a in range(2) for x in range(2)}
    assert GSet(z2, 2, full).size == 2
    for key, value in (((1, 0), None), ((1, 1), 2), ((0, 1), -1)):
        table = dict(full)
        if value is None:
            del table[key]
        else:
            table[key] = value
        with pytest.raises(NotAnAction, match=rf"^action table misses or misplaces \({key[0]}, "
                                              rf"{key[1]}\)$"):
            GSet(z2, 2, table)
