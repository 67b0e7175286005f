"""Solution spaces of symmetric, antisymmetric and bi-invariant tensors.

The braid operator of a bicovariant calculus acts on the constant fiber
of tensor squares.  Strong (anti)symmetry is a kernel condition, weak
(anti)symmetry an image condition, and bi-invariance identifies
coefficients along the orbits of the diagonal adjoint action.  Solutions
with function coefficients are spanned by the constant fiber solutions
with free function multipliers, so the spaces below store constant
basis tensors.
"""

from fractions import Fraction
from functools import cached_property

from .braid import sigma_for, tensor_from_vector
from .groups import orbits as group_orbits


class SolutionSpace:
    """An exact solution space of constant tensor fields.

    The basis is echelonized over the fiber coordinates; every member of
    the space with function coefficients is a combination of the basis
    with arbitrary function multipliers.
    """

    def __init__(self, calculus, kind, vectors, orbit_classes=None):
        self.calculus = calculus
        self.kind = kind
        self.vectors = [list(v) for v in vectors]
        self.orbit_classes = orbit_classes

    @cached_property
    def basis(self):
        """The basis vectors as constant tensor fields, built on first use."""
        return [tensor_from_vector(self.calculus, v) for v in self.vectors]

    @property
    def dimension(self):
        return len(self.vectors)

    def verify(self):
        """Re-test the defining condition on every basis vector."""
        return all(self.contains_vector(v) for v in self.vectors)

    def contains_vector(self, vec):
        """Whether a constant fiber vector (lexicographic pairs) meets the
        kind's defining condition: constant on each orbit class for
        bi_invariant, the sigma-cycle condition of its part otherwise."""
        if self.kind == "bi_invariant":
            index = {p: i for i, p in enumerate(self.calculus.pairs())}
            return all(
                len({vec[index[p]] for p in orb}) == 1 for orb in self.orbit_classes
            )
        if self.kind not in _KIND_TO_PART:
            raise ValueError(f"unknown kind {self.kind!r}")
        return sigma_for(self.calculus).in_part(_KIND_TO_PART[self.kind], vec)

    def __repr__(self):
        return (
            f"SolutionSpace({self.kind}, dim {self.dimension} on "
            f"{self.calculus!r})"
        )


_KIND_TO_PART = {
    "s_sym": "ker_a",
    "s_antisym": "ker_s",
    "w_sym": "im_s",
    "w_antisym": "im_a",
}


def solve_symmetry(calculus, kind):
    """Solve a braid symmetry condition on the constant tensor fiber.

    Strong kinds are kernels of the (anti)symmetrization operators,
    weak kinds their images.
    """
    if kind not in _KIND_TO_PART:
        raise ValueError(
            f"kind must be one of {sorted(_KIND_TO_PART)}, got {kind!r}"
        )
    sig = sigma_for(calculus)
    report = sig.decompose()
    vectors = getattr(report, _KIND_TO_PART[kind])
    return SolutionSpace(calculus, kind, vectors)


def solve_bi_invariant(calculus):
    """Solve the bi-invariance condition on the constant tensor fiber.

    Constant coefficients must agree along the orbits of the diagonal
    adjoint action on pairs; the space has one free constant per orbit.
    """
    calculus.require_bicovariant()
    group = calculus.group
    pairs = calculus.pairs()
    index = {p: i for i, p in enumerate(pairs)}

    def act(a, p):
        return (group.adjoint(a, p[0]), group.adjoint(a, p[1]))

    orbs = group_orbits(pairs, act, group)
    vectors = []
    for orb in orbs:
        vec = [Fraction(0)] * len(pairs)
        for p in orb:
            vec[index[p]] = Fraction(1)
        vectors.append(vec)
    return SolutionSpace(calculus, "bi_invariant", vectors, orbit_classes=orbs)


def pattern_matrix(space, order=None):
    """Express a solution space as a symbolic coefficient matrix.

    Returns a dict with the element order, one coefficient vector over
    the canonical free parameters for each matrix cell, and a rendered
    string matrix.  Parameters are canonicalized by first occurrence in
    row-major order, so comparisons should use the equality classes and
    linear relations rather than parameter names.
    """
    from .linalg import rref

    cal = space.calculus
    if order is None:
        order = list(cal.hatG)
    pairs = cal.pairs()
    index = {p: i for i, p in enumerate(pairs)}
    cells = [(g, gp) for g in order for gp in order]
    cols = [index[c] for c in cells]
    rows = [[v[j] for j in cols] for v in space.vectors]
    if rows:
        reduced, _, rank = rref(rows)
        reduced = reduced[:rank]
    else:
        reduced = []
    n = len(order)
    coeff_cells = {}
    strings = [["0"] * n for _ in range(n)]
    for ci, cell in enumerate(cells):
        coeffs = tuple(row[ci] for row in reduced)
        coeff_cells[cell] = coeffs
        terms = []
        for k, c in enumerate(coeffs):
            if c == 0:
                continue
            name = f"p{k}"
            if c == 1:
                terms.append(f"+{name}" if terms else name)
            elif c == -1:
                terms.append(f"-{name}")
            else:
                sign = "+" if c > 0 and terms else ""
                terms.append(f"{sign}{c}*{name}")
        text = "".join(terms) if terms else "0"
        strings[ci // n][ci % n] = text
    return {"order": list(order), "cells": coeff_cells, "strings": strings}
