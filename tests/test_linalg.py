"""Exact linear algebra over the rationals."""

from fractions import Fraction

from elimination import (
    rref,
    SubspaceReducer,
    identity_matrix,
    image_basis,
    kernel_basis,
    matmul,
    matvec,
    solve_affine,
    span_basis,
    transpose,
)


def test_rref_of_identity_is_identity():
    rows = identity_matrix(3)
    reduced, pivots, rank = rref(rows)
    assert reduced == identity_matrix(3)
    assert pivots == [0, 1, 2]
    assert rank == 3


def test_rref_handles_fractions_exactly():
    rows = [[Fraction(1, 3), Fraction(1, 6)], [Fraction(2), Fraction(1)]]
    reduced, pivots, rank = rref(rows)
    assert rank == 1
    assert pivots == [0]
    assert reduced[0] == [Fraction(1), Fraction(1, 2)]


def test_kernel_vectors_are_annihilated():
    rows = [
        [1, 2, 3, 4],
        [2, 4, 6, 8],
        [0, 1, 1, 0],
    ]
    basis = kernel_basis(rows)
    assert len(basis) == 2
    for v in basis:
        assert matvec(rows, v) == [0, 0, 0]


def test_rank_nullity_adds_up():
    rows = [
        [1, 0, 2, 0, 1],
        [0, 1, 0, 0, 3],
        [1, 1, 2, 0, 4],
    ]
    ker = kernel_basis(rows)
    img = image_basis(rows)
    assert len(ker) + len(img) == 5


def test_span_basis_removes_dependent_vectors():
    vecs = [
        [1, 0, 1],
        [0, 1, 1],
        [1, 1, 2],
        [2, 0, 2],
    ]
    basis = span_basis(vecs)
    assert len(basis) == 2


def test_transpose_involution():
    rows = [[1, 2, 3], [4, 5, 6]]
    assert transpose(transpose(rows)) == [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(4), Fraction(5), Fraction(6)],
    ]


def test_matmul_matches_matvec_columns():
    a = [[1, 2], [3, 4]]
    b = [[5, 6], [7, 8]]
    prod = matmul(a, b)
    cols = transpose(b)
    for j, col in enumerate(cols):
        image = matvec(a, col)
        assert [prod[i][j] for i in range(2)] == image


def test_solve_affine_particular_plus_kernel():
    rows = [[1, 1, 0], [0, 1, 1]]
    rhs = [3, 5]
    particular, kernel = solve_affine(rows, rhs)
    assert matvec(rows, particular) == [Fraction(3), Fraction(5)]
    assert len(kernel) == 1
    shifted = [p + k for p, k in zip(particular, kernel[0])]
    assert matvec(rows, shifted) == [Fraction(3), Fraction(5)]


def test_solve_affine_reports_infeasible():
    rows = [[1, 1], [2, 2]]
    rhs = [1, 3]
    try:
        solve_affine(rows, rhs)
    except Exception as exc:
        assert "no solution" in str(exc) or type(exc).__name__ == "Infeasible"
    else:
        raise AssertionError("inconsistent system should not solve")


def test_subspace_reducer_tracks_rank_and_membership():
    red = SubspaceReducer(3)
    assert red.add([1, 0, 0])
    assert red.add([1, 1, 0])
    assert not red.add([2, 1, 0])
    assert red.rank == 2
    assert red.contains([5, -7, 0])
    assert not red.contains([0, 0, 1])
