"""A calculus built from hatG against the edge round trip.

from_hatG stores hatG and derives its edges; dense_paths keeps the
constructor that expanded hatG into edges and read hatG and the
covariance flags back from them.  Both must agree on hatG, the three
covariance flags and the edges, and == and hash must single out the same
calculi.
"""

from itertools import combinations

import pytest

import dense_paths
from finitegeo import groups
from finitegeo.calculus import DifferentialCalculus, enumerate_bicovariant, from_hatG
from finitegeo.catalog import small_group_catalog

CATALOG = small_group_catalog()
SMALL = [name for name, g in CATALOG.items() if g.order <= 8]


def _left_covariant_subsets(group):
    nonidentity = range(1, group.order)
    return [s for k in range(group.order) for s in combinations(nonidentity, k)]


def _class_unions(group):
    classes = [c for c in group.conjugacy_classes() if c != (0,)]
    return [
        sorted(x for c in chosen for x in c)
        for k in range(len(classes) + 1)
        for chosen in combinations(classes, k)
    ]


def _flags(cal):
    return (cal.hatG, cal.left_covariant, cal.right_covariant, cal.bicovariant)


def _check(group, subsets, pairwise):
    cals = [from_hatG(group, s) for s in subsets]
    oracles = [
        dense_paths.EdgeRoundTripCalculus(group, dense_paths.hatG_edges(group, s))
        for s in subsets
    ]
    for cal, ora in zip(cals, oracles):
        hash(cal)
        assert cal._edges is None, "hashing built the edges"
        assert _flags(cal) == _flags(ora)
        assert cal.edges == ora.edges
        again = DifferentialCalculus(group, ora.edges)
        assert _flags(again) == _flags(ora)
        assert again == cal and hash(again) == hash(cal)
    assert len(set(cals)) == len(set(oracles)) == len(subsets)
    if pairwise:
        for a, oa in zip(cals, oracles):
            for b, ob in zip(cals, oracles):
                assert (a == b) == (oa == ob)


@pytest.mark.parametrize("name", SMALL)
def test_left_covariant_calculi_match_the_edge_round_trip(name):
    group = CATALOG[name]
    _check(group, _left_covariant_subsets(group), pairwise=True)


@pytest.mark.parametrize("name", list(CATALOG))
def test_bicovariant_calculi_match_the_edge_round_trip(name):
    group = CATALOG[name]
    subsets = _class_unions(group)
    _check(group, subsets, pairwise=len(subsets) <= 64)
    assert [c.hatG for c in enumerate_bicovariant(group)] == sorted(
        (tuple(s) for s in subsets), key=lambda s: (len(s), s)
    )


def test_from_hatG_ignores_order_and_repeats(s3):
    a = from_hatG(s3, [5, 1, 1])
    b = from_hatG(s3, (1, 5))
    assert a == b and hash(a) == hash(b)
    assert a.hatG == (1, 5)


def test_calculus_that_is_not_left_covariant_compares_by_edges():
    s3 = groups.symmetric(3)
    a = s3.element_index("a")
    # (g a, g) for every g: right-covariant, with left differences the
    # three transpositions, so not left-covariant.
    right_edges = [(s3.mul(a, g), g) for g in range(s3.order)]
    lone_edge = [(a, 0)]
    for edges in (right_edges, lone_edge):
        cal = DifferentialCalculus(s3, edges)
        ora = dense_paths.EdgeRoundTripCalculus(s3, edges)
        assert cal.hatG is None and not cal.left_covariant
        assert _flags(cal) == _flags(ora)
        assert cal.edges == ora.edges
        same = DifferentialCalculus(s3, reversed(edges))
        assert same == cal and hash(same) == hash(cal)
        assert cal != from_hatG(s3, [a])
    assert DifferentialCalculus(s3, right_edges).right_covariant
    assert not DifferentialCalculus(s3, lone_edge).right_covariant
    assert DifferentialCalculus(s3, right_edges) != DifferentialCalculus(s3, lone_edge)


def test_calculi_on_different_group_objects_are_unequal():
    a, b = groups.cyclic(4), groups.cyclic(4)
    assert from_hatG(a, [1, 3]) != from_hatG(b, [1, 3])
