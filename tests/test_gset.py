"""Tests for group actions on finite sets and their covariant calculi."""

import pytest

from finitegeo.calculus import enumerate_left_covariant
from finitegeo.errors import NotAnAction, TooLarge
from finitegeo.groups import cyclic, symmetric
from finitegeo.gset import (
    GSet,
    covariant_calculi,
    gset_dot,
    gset_from_permutations,
    irreducible_calculi,
    is_covariant,
    left_translation_gset,
    pair_orbits,
)


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
        assert is_covariant(gs, edges)


def test_raw_edge_set_can_fail_covariance():
    gs = swap_action()
    assert not is_covariant(gs, [(0, 1)])
    assert is_covariant(gs, [(0, 1), (1, 0)])


def test_irreducible_calculi_drop_one_orbit():
    gs = swap_action()
    cals = irreducible_calculi(gs)
    assert cals == [
        ((0, 2), (1, 2), (2, 0), (2, 1)),
        ((0, 1), (1, 0), (2, 0), (2, 1)),
        ((0, 1), (0, 2), (1, 0), (1, 2)),
    ]
    for edges in cals:
        assert is_covariant(gs, edges)


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
        assert is_covariant(gs, cal.edges)


def test_dot_output_is_deterministic():
    gs = swap_action()
    edges = irreducible_calculi(gs)[0]
    first = gset_dot(gs, edges)
    second = gset_dot(gs, edges)
    assert first == second
    assert first.startswith("digraph")
    assert '"3"' in first
