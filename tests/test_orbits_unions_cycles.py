"""One orbit routine, one union enumerator and one cycle routine against
the loops they replaced.

Conjugacy classes are groups.orbits of the adjoint action, the centre is
the singleton classes and a group is abelian when every class is one.
calculus.unions enumerates left-covariant calculi (unions of
singletons), bicovariant ones (unions of nontrivial classes) and
covariant calculi on a G-set (unions of pair orbits).  groups.cycles
names permutations and gives sigma's cycles.  dense_paths keeps the
table sweeps, mask loops, cycle walk, inversion count (which picks the
even permutations of A_n) and two-sided closure, and every answer must
agree with them, in the same order.
"""

import sys
from itertools import permutations
from pathlib import Path

import pytest

import dense_paths
from finitegeo import calculus, groups, gset
from finitegeo.braid import SigmaOperator
from finitegeo.catalog import small_group_catalog
from finitegeo.errors import TooLarge

from test_sigma_permutation import SAMPLE as SIGMA_SAMPLE

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from cliwork import ACTIONS  # noqa: E402

CATALOG = small_group_catalog()
GROUPS = dict(
    CATALOG, S4=groups.symmetric(4), S5=groups.symmetric(5), A5=groups.alternating(5)
)


@pytest.mark.parametrize("name", GROUPS)
def test_classes_centre_and_abelian_flag_match_the_table_sweeps(name):
    group = GROUPS[name]
    classes = group.conjugacy_classes()
    assert classes == dense_paths.conjugacy_classes(group)
    assert [classes[group.class_of(x)] for x in group.elements()] == [
        next(c for c in classes if x in c) for x in group.elements()
    ]
    assert group.center() == dense_paths.center(group)
    assert group.is_abelian() == dense_paths.is_abelian(group)
    assert group.ad_order() == group.order // len(dense_paths.center(group))


def _perm_group_oracle(degree, even_only):
    perms = sorted(
        p for p in permutations(range(degree)) if not even_only or dense_paths.parity(p) == 0
    )
    if degree == 3 and not even_only:
        names = [groups._S3_NAMES[p] for p in perms]
        aliases = {dense_paths.cycle_name(p): i for i, p in enumerate(perms)}
        return names, {k: v for k, v in aliases.items() if k not in names}
    return [dense_paths.cycle_name(p) for p in perms], {}


@pytest.mark.parametrize(
    "group,degree,even_only",
    [(groups.symmetric(n), n, False) for n in (1, 2, 3, 4, 5)]
    + [(groups.alternating(n), n, True) for n in (1, 2, 3, 4, 5)],
    ids=[f"S{n}" for n in range(1, 6)] + [f"A{n}" for n in range(1, 6)],
)
def test_permutation_group_names_and_aliases_match_the_walk(group, degree, even_only):
    """The catalog's permutation groups, S3 and A4, are among these."""
    names, aliases = _perm_group_oracle(degree, even_only)
    assert group.names == names
    assert group.aliases == aliases


@pytest.mark.parametrize("degree", range(7))
def test_cycle_name_and_parity_on_every_permutation(degree):
    for perm in permutations(range(degree)):
        assert groups._cycle_name(perm) == dense_paths.cycle_name(perm)


def test_cycles_of_a_dict_permutation_follow_its_key_order():
    perm = {"c": "a", "a": "c", "b": "d", "d": "e", "e": "b", "f": "f"}
    assert groups.cycles(perm) == [["c", "a"], ["b", "d", "e"], ["f"]]
    assert groups.cycles({}) == []


GENERATORS = [perms for _, _, perms in ACTIONS] + [
    [(1, 0, 2, 3), (1, 2, 3, 0)],
    [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)],
    [(0, 1, 2)],
    [(2, 3, 0, 1), (1, 0, 3, 2)],
]


@pytest.mark.parametrize("perms", GENERATORS, ids=str)
def test_right_product_closure_matches_the_two_sided_closure(perms):
    group, elements = groups.from_permutations(perms, with_elements=True)
    closure = dense_paths.two_sided_closure(perms)
    assert elements == closure
    assert group.names == [dense_paths.cycle_name(p) for p in closure]
    if len(closure) > 1:
        with pytest.raises(TooLarge):
            groups.from_permutations(perms, max_order=len(closure) - 1)
    assert groups.from_permutations(perms, max_order=len(closure)).order == len(closure)


@pytest.mark.parametrize("name", CATALOG)
def test_enumerations_match_the_mask_loops_in_order(name):
    group = CATALOG[name]
    left = calculus.enumerate_left_covariant(group)
    assert [list(c.hatG) for c in left] == dense_paths.left_covariant_subsets(group)
    assert all(c.left_covariant for c in left)
    bico = calculus.enumerate_bicovariant(group)
    assert [list(c.hatG) for c in bico] == dense_paths.bicovariant_subsets(group)
    assert all(c.bicovariant for c in bico)
    assert [c for c in left if c.bicovariant] == sorted(
        bico, key=lambda c: (len(c.hatG), c.hatG)
    )


def test_unions_bound_and_order():
    assert calculus.unions([]) == [()]
    assert calculus.unions([(3, 1), (2,)]) == [(), (2,), (1, 3), (1, 2, 3)]
    with pytest.raises(TooLarge, match=r"^8192 unions of 13 blocks exceed the bound 4096$"):
        calculus.unions([(g,) for g in range(13)])
    assert len(calculus.unions([(g,) for g in range(12)])) == calculus.ENUM_LIMIT


def _gsets():
    out = [
        (f"set{size}:{gens}", gset.gset_from_permutations(perms, size))
        for size, gens, perms in ACTIONS
    ]
    for label, group in (("Z4", groups.cyclic(4)), ("S3", groups.symmetric(3)),
                         ("D4", groups.dihedral(4))):
        out.append((f"left:{label}", gset.left_translation_gset(group)))
    return out


GSETS = _gsets()


@pytest.mark.parametrize("label,gs", GSETS, ids=[label for label, _ in GSETS])
def test_covariant_and_irreducible_calculi_match_the_mask_loop(label, gs):
    assert gset.pair_orbits(gs) == dense_paths.pair_orbits(gs)
    assert gset.covariant_calculi(gs) == dense_paths.covariant_calculi(gs)
    assert gset.irreducible_calculi(gs) == dense_paths.irreducible_calculi(gs)


@pytest.mark.parametrize("label,cal", SIGMA_SAMPLE, ids=[label for label, _ in SIGMA_SAMPLE])
def test_sigma_order_cycle_lengths_and_powers_match_the_inverse_table(label, cal):
    sig = SigmaOperator(cal)
    assert sig.order() == dense_paths.sigma_order(sig)
    assert [len(c) for c in sig.cycles()] == dense_paths.sigma_cycle_lengths(sig)
    for pair in cal.pairs():
        for power in range(-3, 4):
            assert sig.map_pair(pair, power) == dense_paths.sigma_map_pair(sig, pair, power)
