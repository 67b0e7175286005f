"""Invariant tensor spaces and their coefficient patterns."""

from fractions import Fraction

import pytest

from finitegeo.braid import SigmaOperator, antisymmetrize, symmetrize
from finitegeo.invariants import (
    pattern_matrix,
    solve_bi_invariant,
    solve_symmetry,
)

from dense_paths import constant_vector, orbit_classes
from elimination import SubspaceReducer


def _paper_order(s3):
    return [s3.element_index(x) for x in ("a", "b", "c", "ab", "ba")]


def _position_cells(pat):
    """Re-key the coefficient cells by (row, column) in the given order."""
    order = pat["order"]
    pos = {g: i for i, g in enumerate(order)}
    return {
        (pos[g], pos[gp]): coeffs for (g, gp), coeffs in pat["cells"].items()
    }


def _equality_classes(cells):
    groups = {}
    for cell, coeffs in cells.items():
        groups.setdefault(coeffs, []).append(cell)
    return {frozenset(v) for k, v in groups.items() if any(c != 0 for c in k)}


def test_symmetry_space_dimensions(s3_universal):
    dims = {
        kind: solve_symmetry(s3_universal, kind).dimension
        for kind in ("s_sym", "s_antisym", "w_sym", "w_antisym")
    }
    assert dims == {"s_sym": 11, "s_antisym": 4, "w_sym": 21, "w_antisym": 14}


def test_all_solution_spaces_verify(s3_universal):
    kinds = ("s_sym", "s_antisym", "w_sym", "w_antisym")
    spaces = [solve_symmetry(s3_universal, kind) for kind in kinds]
    for space in spaces + [solve_bi_invariant(s3_universal)]:
        assert all(space.contains_vector(v) for v in space.vectors)


def test_unknown_kind_rejected(s3_universal):
    with pytest.raises(ValueError):
        solve_symmetry(s3_universal, "diagonal")


def test_s_symmetric_pattern_equality_classes(s3_universal):
    s3 = s3_universal.group
    space = solve_symmetry(s3_universal, "s_sym")
    pat = pattern_matrix(space, order=_paper_order(s3))
    classes = _equality_classes(_position_cells(pat))
    expected = {
        frozenset({(0, 0)}),
        frozenset({(1, 1)}),
        frozenset({(2, 2)}),
        frozenset({(3, 3)}),
        frozenset({(4, 4)}),
        frozenset({(0, 1), (1, 2), (2, 0)}),
        frozenset({(0, 2), (1, 0), (2, 1)}),
        frozenset({(0, 3), (1, 4), (3, 1), (4, 0)}),
        frozenset({(0, 4), (2, 3), (3, 0), (4, 2)}),
        frozenset({(1, 3), (2, 4), (3, 2), (4, 1)}),
        frozenset({(3, 4), (4, 3)}),
    }
    assert classes == expected


def test_s_antisymmetric_pattern_structure(s3_universal):
    s3 = s3_universal.group
    space = solve_symmetry(s3_universal, "s_antisym")
    pat = pattern_matrix(space, order=_paper_order(s3))
    cells = _position_cells(pat)
    zero = tuple([Fraction(0)] * space.dimension)
    for i in range(3):
        for j in range(3):
            assert cells[(i, j)] == zero
    for i in range(5):
        assert cells[(i, i)] == zero
    neg = lambda v: tuple(-x for x in v)
    assert cells[(3, 4)] == neg(cells[(4, 3)])
    assert cells[(3, 1)] == neg(cells[(0, 3)])
    assert cells[(4, 0)] == neg(cells[(1, 4)])
    assert cells[(3, 0)] == neg(cells[(0, 4)])
    assert cells[(4, 2)] == neg(cells[(2, 3)])
    assert cells[(3, 2)] == neg(cells[(1, 3)])
    assert cells[(4, 1)] == neg(cells[(2, 4)])
    assert cells[(0, 3)] == cells[(1, 4)]
    assert cells[(0, 4)] == cells[(2, 3)]
    assert cells[(1, 3)] == cells[(2, 4)]


def test_w_symmetric_pattern_relations(s3_universal):
    s3 = s3_universal.group
    space = solve_symmetry(s3_universal, "w_sym")
    pat = pattern_matrix(space, order=_paper_order(s3))
    cells = _position_cells(pat)

    def combo(*terms):
        acc = [Fraction(0)] * space.dimension
        for sign, cell in terms:
            acc = [a + sign * x for a, x in zip(acc, cells[cell])]
        return tuple(acc)

    assert cells[(3, 0)] == combo((1, (0, 4)), (-1, (4, 2)), (1, (2, 3)))
    assert cells[(4, 0)] == combo((1, (0, 3)), (-1, (3, 1)), (1, (1, 4)))
    assert cells[(4, 1)] == combo((1, (1, 3)), (-1, (3, 2)), (1, (2, 4)))


def test_w_antisymmetric_pattern_relations(s3_universal):
    s3 = s3_universal.group
    space = solve_symmetry(s3_universal, "w_antisym")
    pat = pattern_matrix(space, order=_paper_order(s3))
    cells = _position_cells(pat)
    zero = tuple([Fraction(0)] * space.dimension)
    for i in range(5):
        assert cells[(i, i)] == zero

    def combo(*terms):
        acc = [Fraction(0)] * space.dimension
        for sign, cell in terms:
            acc = [a + sign * x for a, x in zip(acc, cells[cell])]
        return tuple(acc)

    assert cells[(0, 2)] == combo((-1, (1, 0)), (-1, (2, 1)))
    assert cells[(2, 0)] == combo((-1, (0, 1)), (-1, (1, 2)))
    assert cells[(3, 0)] == combo((-1, (0, 4)), (-1, (4, 2)), (-1, (2, 3)))
    assert cells[(4, 0)] == combo((-1, (0, 3)), (-1, (3, 1)), (-1, (1, 4)))
    assert cells[(4, 1)] == combo((-1, (1, 3)), (-1, (3, 2)), (-1, (2, 4)))
    assert cells[(4, 3)] == combo((-1, (3, 4)))


def test_bi_invariant_space_on_universal(s3_universal):
    space = solve_bi_invariant(s3_universal)
    assert space.dimension == 6
    sizes = sorted(len(orb) for orb in orbit_classes(space))
    assert sizes == [2, 2, 3, 6, 6, 6]
    for t in space.basis:
        assert t.is_constant()


def test_bi_invariant_splits_under_symmetrization(s3_universal):
    """The bi-invariant space is five s-symmetric plus one s-antisymmetric
    dimensions."""
    space = solve_bi_invariant(s3_universal)
    sig = SigmaOperator(s3_universal)
    n = len(s3_universal.pairs())
    sym_red = SubspaceReducer(n)
    antisym_red = SubspaceReducer(n)
    for t in space.basis:
        sym_red.add(constant_vector(symmetrize(t, sig)))
        antisym_red.add(constant_vector(antisymmetrize(t, sig)))
    assert sym_red.rank == 5
    assert antisym_red.rank == 1
    # both projections stay inside the bi-invariant space
    for t in space.basis:
        assert space.contains_vector(constant_vector(symmetrize(t, sig)))


def test_transposition_bi_invariant_matches_orbits(s3_transposition_calculus):
    space = solve_bi_invariant(s3_transposition_calculus)
    assert space.dimension == 2
    assert all(space.contains_vector(v) for v in space.vectors)
