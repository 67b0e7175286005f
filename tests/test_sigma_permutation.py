"""The permutation-algebra fast paths against dense elimination.

SigmaOperator.decompose reads its four bases off the cycles of sigma and
solve_torsion_free solves its difference equations by union-find.  The
dense routines they replaced survive here as oracles: both must give the
same lists, entry for entry.
"""

import random
from fractions import Fraction

import pytest

from finitegeo import calculus, groups
from finitegeo.braid import SigmaOperator
from finitegeo.catalog import small_group_catalog
from finitegeo.connection import invariance_constraints, solve_torsion_free
from finitegeo.errors import Infeasible
from finitegeo.linalg import solve_differences

from dense_paths import family_basis
from elimination import image_basis, kernel_basis, solve_affine


def _sigma_matrix(sig):
    """sigma's permutation matrix on coefficient vectors, lexicographic
    pair order."""
    pairs = sig.calculus.pairs()
    index = {p: i for i, p in enumerate(pairs)}
    m = len(pairs)
    rows = [[Fraction(0)] * m for _ in range(m)]
    for p in pairs:
        rows[index[sig.perm[p]]][index[p]] = Fraction(1)
    return rows


def _dense_decomposition(sig):
    P = _sigma_matrix(sig)
    m = len(P)
    half = Fraction(1, 2)
    A = [[half * ((i == j) - P[i][j]) for j in range(m)] for i in range(m)]
    S = [[half * ((i == j) + P[i][j]) for j in range(m)] for i in range(m)]
    return kernel_basis(A), image_basis(A), kernel_basis(S), image_basis(S)


def _indicators(nvars, sets):
    """The dense indicator vector of each set of variable indices."""
    return [[Fraction(int(i in s)) for i in range(nvars)] for s in sets]


def _difference_rows(nvars, equations):
    rows, rhs = [], []
    for u, v, c in equations:
        row = [Fraction(0)] * nvars
        row[u] += 1
        row[v] -= 1
        rows.append(row)
        rhs.append(c)
    return rows, rhs


def _dense_torsion(cal, mode):
    orbits = invariance_constraints(cal, mode)["orbits"]
    var_of = {t: i for i, orb in enumerate(orbits) for t in orb}
    group = cal.group
    equations = []
    for h in cal.hatG:
        for g in cal.hatG:
            for gp in cal.hatG:
                adg = group.adjoint(g, gp)
                b = Fraction(int(h == adg) - int(h == gp))
                equations.append((var_of[(h, g, gp)], var_of[(h, adg, g)], b))
    rows, rhs = _difference_rows(len(orbits), equations)
    if not rows:
        return orbits, [], []
    particular, basis = solve_affine(rows, rhs)
    return orbits, particular, basis


def _sample():
    """Three bicovariant calculi with 1 <= |hatG| <= 4 from every catalog group.

    Z1 has only the empty calculus, which stands in for its group.
    """
    cases = []
    for name, group in small_group_catalog().items():
        found = calculus.enumerate_bicovariant(group)
        small = [c for c in found if 1 <= len(c.hatG) <= 4] or found
        step = max(1, len(small) // 3)
        cases.extend((f"{name}:{c.hatG}", c) for c in small[::step][:3])
    return cases


SAMPLE = _sample()


@pytest.mark.parametrize("label,cal", SAMPLE, ids=[label for label, _ in SAMPLE])
def test_decomposition_matches_dense_elimination(label, cal):
    report = SigmaOperator(cal).decompose()
    ker_a, im_a, ker_s, im_s = _dense_decomposition(SigmaOperator(cal))
    assert list(report.ker_a) == ker_a
    assert list(report.im_a) == im_a
    assert list(report.ker_s) == ker_s
    assert list(report.im_s) == im_s


@pytest.mark.parametrize("mode", ["bi", "left"])
@pytest.mark.parametrize("label,cal", SAMPLE, ids=[label for label, _ in SAMPLE])
def test_torsion_family_matches_dense_solve(label, cal, mode):
    family = solve_torsion_free(cal, mode)
    orbits, particular, basis = _dense_torsion(cal, mode)
    assert family.orbits == orbits
    assert family.particular == particular
    assert family_basis(family) == basis


@pytest.mark.parametrize("seed", range(40))
def test_difference_solver_matches_solve_affine(seed):
    rng = random.Random(seed)
    nvars = rng.randint(1, 9)
    hidden = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(nvars)]
    equations = []
    for _ in range(rng.randint(1, 2 * nvars)):
        u, v = rng.randrange(nvars), rng.randrange(nvars)
        c = hidden[u] - hidden[v]
        if rng.random() < 0.15:
            c += rng.choice([-1, 1])
        equations.append((u, v, c))
    rows, rhs = _difference_rows(nvars, equations)
    try:
        expected = solve_affine(rows, rhs)
    except Infeasible:
        with pytest.raises(Infeasible):
            solve_differences(nvars, equations)
    else:
        particular, sets = solve_differences(nvars, equations)
        assert all(s == sorted(s) for s in sets)
        assert (particular, _indicators(nvars, sets)) == expected


@pytest.mark.parametrize(
    "nvars,equations",
    [
        (3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)]),
        (2, [(0, 1, 2), (1, 1, Fraction(1, 3))]),
    ],
    ids=["inconsistent-cycle", "nonzero-self-loop"],
)
def test_both_solvers_reject_infeasible_systems(nvars, equations):
    rows, rhs = _difference_rows(nvars, equations)
    with pytest.raises(Infeasible):
        solve_affine(rows, rhs)
    with pytest.raises(Infeasible):
        solve_differences(nvars, equations)


def test_s4_universal_dims_count_cycles():
    sig = SigmaOperator(calculus.universal(groups.symmetric(4)))
    lengths = [len(c) for c in sig.cycles()]
    m = len(sig.perm)
    cycles = len(lengths)
    even = sum(1 for n in lengths if n % 2 == 0)
    assert sig.decompose().dims == (cycles, m - cycles, even, m - even)
    assert sig.decompose().dims == (148, 381, 101, 428)
