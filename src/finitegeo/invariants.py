"""Solution spaces of symmetric, antisymmetric and bi-invariant tensors.

The braid operator of a bicovariant calculus acts on the constant fiber
of tensor squares.  Strong (anti)symmetry is a kernel condition, weak
(anti)symmetry an image condition, and bi-invariance identifies
coefficients along the orbits of the diagonal adjoint action.  Solutions
with function coefficients are spanned by the constant fiber solutions
with free function multipliers, so the spaces below store constant
basis tensors, block by block from braid.echelon_rows.
"""

from itertools import product

from .braid import Part, TensorField, echelon_rows, sigma_for
from .funcs import _exact
from .groups import adjoint_orbits


class SolutionSpace:
    """An exact solution space of constant tensor fields.

    kind names the condition and part the braid part it reads, "ker_a"
    for bi_invariant; blocks are the pair-index lists (calculus.pairs()
    order) that the part's condition runs along: sigma's cycles, or the
    adjoint orbits for bi_invariant.  vectors is the echelon basis over
    the fiber coordinates, a braid.Part that builds each dense vector
    when it is read, and basis yields the same vectors as constant
    tensor fields.  Every member of the space with function coefficients
    is a combination of the basis with arbitrary function multipliers.
    """

    def __init__(self, calculus, kind, blocks, vectors):
        self.calculus = calculus
        self.kind = kind
        # bi_invariant asks for a constant on each orbit, as ker A on each cycle
        self.part = _KIND_TO_PART.get(kind, "ker_a")
        self.blocks = blocks
        self.vectors = vectors

    @property
    def basis(self):
        """The basis vectors as constant tensor fields, built as iterated."""
        pairs = self.calculus.pairs()
        return (TensorField(self.calculus, dict(zip(pairs, v))) for v in self.vectors)

    @property
    def dimension(self):
        return len(self.vectors)

    def contains_vector(self, vec):
        """Whether a constant fiber vector (lexicographic pairs) meets the
        kind's defining condition on every block (SigmaOperator.in_part)."""
        return sigma_for(self.calculus).in_part(self.part, vec, self.blocks)

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
    vectors = getattr(sig.decompose(), _KIND_TO_PART[kind])
    return SolutionSpace(calculus, kind, sig.cycles(), vectors)


def solve_bi_invariant(calculus):
    """Solve the bi-invariance condition on the constant tensor fiber.

    Constant coefficients must agree along the orbits of the diagonal
    adjoint action on pairs, read off the group's one conjugation table
    by groups.adjoint_orbits; the space has one free constant per orbit,
    its indicator, in the order the orbits are found.
    """
    calculus.require_bicovariant()
    pairs = calculus.pairs()
    index = {p: i for i, p in enumerate(pairs)}
    blocks = [[index[p] for p in orb] for orb in adjoint_orbits(calculus.group, calculus.hatG, 2)]
    rows = [row for block in blocks for row in echelon_rows("ker_a", block)]
    return SolutionSpace(calculus, "bi_invariant", blocks, Part(rows, len(pairs)))


def pattern_matrix(space, order=None):
    """Express a solution space as a symbolic coefficient matrix.

    Returns a dict with the element order, one coefficient vector over
    the canonical free parameters for each matrix cell, and a rendered
    string matrix.  Parameters are canonicalized by first occurrence in
    row-major order, so comparisons should use the equality classes and
    linear relations rather than parameter names.

    The parameters are the reduced echelon basis over the cells: each
    block's braid.echelon_rows, sorted by pivot and scaled to 1 there, so
    every entry is 1 or -1.  Raises ValueError unless order lists each
    element of hatG once.
    """
    cal = space.calculus
    order = list(cal.hatG) if order is None else list(order)
    if sorted(order) != sorted(cal.hatG):
        missing = [g for g in cal.hatG if g not in order]
        extra = [g for g in dict.fromkeys(order) if order.count(g) > (g in cal.hatG)]
        found = [label + " " + ", ".join(map(cal.group.name, gs))
                 for label, gs in (("missing", missing), ("extra", extra)) if gs]
        raise ValueError("order must list each element of hatG once: " + "; ".join(found))
    n = len(order)
    where = {g: i for i, g in enumerate(order)}
    cell = [where[g] * n + where[gp] for g, gp in cal.pairs()]
    rows = []
    for block in space.blocks:
        for row in echelon_rows(space.part, block, cell.__getitem__):
            row = sorted((cell[a], x) for a, x in row)
            # 1 at the pivot: x * p = x / p, as the pivot entry p is 1 or -1
            rows.append([(c, _exact(x * row[0][1])) for c, x in row])
    rows.sort()
    by_cell = [[] for _ in range(n * n)]
    for k, row in enumerate(rows):
        for c, x in row:
            by_cell[c].append((k, x))
    coeff_cells, strings = {}, [[] for _ in order]
    for c, ((g, gp), entries) in enumerate(zip(product(order, order), by_cell)):
        coeffs = [0] * len(rows)
        for k, x in entries:
            coeffs[k] = x
        coeff_cells[(g, gp)] = tuple(coeffs)
        terms = [("-" if x < 0 else "+" if j else "") + f"p{k}" for j, (k, x) in enumerate(entries)]
        strings[c // n].append("".join(terms) or "0")
    return {"order": order, "cells": coeff_cells, "strings": strings}
