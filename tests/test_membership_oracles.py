"""Membership by the defining condition against dense elimination.

The package decides membership without elimination: im A and im S by
sums over the cycles of sigma, a solution space by its kind's condition,
a torsion-free family by reading parameters at the union-find roots, and
the degree-3 ideal by Woronowicz's antisymmetrizer A_3.  The elimination
routines in tests/elimination.py are the oracles here, on a fixed sample
of catalog calculi; the negative cases check that each test also says no.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from finitegeo import calculus, funcs, groups
from finitegeo.braid import Rank3Field, apply_a3, sigma_for
from finitegeo.catalog import small_group_catalog
from finitegeo.connection import Connection, c_connection, nabla_sigma, solve_torsion_free
from finitegeo.dual import canonical_form_and_torsion
from finitegeo.errors import Infeasible
from finitegeo.invariants import solve_bi_invariant, solve_symmetry

from elimination import DegreeThreeIdeal, SubspaceReducer, kernel_basis, solve_affine

KINDS = ("s_sym", "s_antisym", "w_sym", "w_antisym", "bi_invariant")


def _sample():
    """The first and the last bicovariant calculus with 1 <= |hatG| <= 4
    of every catalog group, plus universal S3 and the transpositions of S4."""
    cases = []
    for name, group in small_group_catalog().items():
        small = [c for c in calculus.enumerate_bicovariant(group) if 1 <= len(c.hatG) <= 4]
        cases.extend((f"{name}:{c.hatG}", c) for c in small[:1] + small[1:][-1:])
    cases.append(("S3:universal", calculus.universal(groups.symmetric(3))))
    s4 = groups.symmetric(4)
    transpositions = next(c for c in s4.nontrivial_classes() if len(c) == 6 and 1 in c)
    cases.append(("S4:transpositions", calculus.from_hatG(s4, transpositions)))
    return cases


SAMPLE = _sample()
IDS = [label for label, _ in SAMPLE]


def _space(cal, kind):
    return solve_bi_invariant(cal) if kind == "bi_invariant" else solve_symmetry(cal, kind)


@pytest.mark.parametrize("label,cal", SAMPLE, ids=IDS)
def test_ker_a3_equals_the_eliminated_ideal(label, cal):
    sig = sigma_for(cal)
    ideal = DegreeThreeIdeal(cal, sig)
    triples = list(product(cal.hatG, repeat=3))
    # Column t of A_3 is A_3 applied to the basis triple t.
    a3 = [[0] * len(triples) for _ in triples]
    for j, t in enumerate(triples):
        column = apply_a3(Rank3Field(cal, {t: 1}), sig).constant_vector()
        for i, x in enumerate(column):
            a3[i][j] = x
    kernel = kernel_basis(a3)
    assert len(kernel) == ideal.reducer.rank
    assert all(ideal.reducer.contains(v) for v in kernel)
    for row in ideal.reducer.rows:
        vec = [0] * len(triples)
        for i, y in row:
            vec[i] = y
        assert apply_a3(Rank3Field(cal, dict(zip(triples, vec))), sig).is_zero()


@pytest.mark.parametrize("label,cal", SAMPLE, ids=IDS)
def test_contains_vector_matches_the_reducer(label, cal):
    rng = random.Random(label)
    n = len(cal.pairs())
    for kind in KINDS:
        space = _space(cal, kind)
        red = SubspaceReducer(n)
        for v in space.vectors:
            red.add(v)
        probes = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(4)]
        for _ in range(4):
            combo = [0] * n
            for v in space.vectors:
                c = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                combo = [x + c * y for x, y in zip(combo, v)]
            probes.append(combo)
            bumped = list(combo)
            bumped[rng.randrange(n)] += 1
            probes.append(bumped)
        answers = [space.contains_vector(p) for p in probes]
        assert answers == [red.contains(p) for p in probes], kind
        assert all(answers[4::2])


def _contains_by_elimination(fam, conn):
    """TorsionFreeFamily.contains as solve_affine answered it."""
    target = []
    for orb in fam.orbits:
        vals = {conn.gamma_value(*t).values[0] for t in orb}
        if len(vals) > 1:
            return None
        target.append(vals.pop())
    rows = [[b[i] for b in fam.basis] for i in range(len(fam.orbits))]
    rhs = [t - p for t, p in zip(target, fam.particular)]
    try:
        sol, _ = solve_affine(rows, rhs)
    except Infeasible:
        return None
    return sol


def _shifted(fam, params, k):
    """The member with these parameters, its orbit k's value raised by 1."""
    gamma = dict(fam.member(params).gamma)
    for t in fam.orbits[k]:
        gamma[t] = gamma.get(t, funcs.zero(fam.calculus.group)) + 1
    return Connection(fam.calculus, gamma)


@pytest.mark.parametrize("label,cal", SAMPLE, ids=IDS)
def test_family_contains_matches_solve_affine(label, cal):
    rng = random.Random(label)
    fam = solve_torsion_free(cal, mode="bi")
    params = [Fraction(rng.randint(-3, 3), rng.choice((1, 3))) for _ in range(fam.dimension)]
    member = fam.member(params)
    assert fam.contains(member) == params
    shifted = _shifted(fam, params, rng.randrange(len(fam.orbits)))
    for conn in (c_connection(cal), nabla_sigma(cal), shifted):
        assert fam.contains(conn) == _contains_by_elimination(fam, conn)


# ---------------------------------------------------------------------------
# Each test says no: a triple off the ideal, a shifted orbit, a bumped vector.


@pytest.mark.parametrize("name", ["c", "sigma"])
def test_a_triple_added_to_a_holding_bianchi_difference_is_rejected(
    s3_transposition_calculus, name
):
    cal = s3_transposition_calculus
    group = cal.group
    sig = sigma_for(cal)
    ideal = DegreeThreeIdeal(cal, sig)
    conn = c_connection(cal) if name == "c" else nabla_sigma(cal)
    a, b, c = (group.element_index(x) for x in ("a", "b", "c"))
    for entry in canonical_form_and_torsion(conn)["bianchi"].values():
        assert entry["holds"]
        difference = entry["difference"]
        assert ideal.contains(difference)
        # theta^a theta^b theta^c is not in the ideal, as a constant or at one point.
        for coeff in (1, funcs.delta(group, 4)):
            off = difference + Rank3Field(cal, {(a, b, c): coeff})
            assert not apply_a3(off, sig).is_zero()
            assert not ideal.contains(off)
        # theta^a theta^a theta^a is: ker A (x) theta^a holds theta^a theta^a.
        on = difference + Rank3Field(cal, {(a, a, a): funcs.delta(group, 4)})
        assert apply_a3(on, sig).is_zero()
        assert ideal.contains(on)


def test_a_shifted_orbit_leaves_the_torsion_free_family(s3_transposition_calculus):
    fam = solve_torsion_free(s3_transposition_calculus, mode="bi")
    params = [Fraction(1, 2), -1, 3]
    assert fam.contains(fam.member(params)) == params
    # Shifting an orbit alone in its union-find set only changes a parameter.
    tied = [k for b in fam.basis if sum(b) > 1 for k, x in enumerate(b) if x]
    assert tied
    for k in tied:
        shifted = _shifted(fam, params, k)
        assert fam.contains(shifted) is None
        assert _contains_by_elimination(fam, shifted) is None


@pytest.mark.parametrize("kind", KINDS)
def test_a_bumped_vector_fails_contains_vector(s3_universal, kind):
    cal = s3_universal
    space = _space(cal, kind)
    red = SubspaceReducer(len(cal.pairs()))
    for v in space.vectors:
        red.add(v)
    # A coordinate on an even sigma-cycle: bumping it breaks every sigma
    # condition, and its bi-invariant orbit has more than one pair.
    i = next(c[0] for c in sigma_for(cal).cycles() if len(c) % 2 == 0)
    for v in space.vectors:
        assert space.contains_vector([2 * x for x in v])
        bumped = list(v)
        bumped[i] += 1
        assert not space.contains_vector(bumped)
        assert not red.contains(bumped)
