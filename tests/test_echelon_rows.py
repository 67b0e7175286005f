"""sigma's parts and the invariant-tensor patterns read off the blocks.

decompose, solve_bi_invariant and pattern_matrix take their vectors from
braid.echelon_rows, one sigma-cycle or adjoint orbit at a time, and
build no dense vector until one is read.  tests/dense_paths.py keeps
the dense versions they replaced; they are compared here part by part,
vector by vector and cell by cell, on a sample of the catalog's
bicovariant calculi, for the lexicographic order of hatG and seeded
shuffled orders.
"""

import random

import pytest

from finitegeo import calculus
from finitegeo.braid import SigmaOperator
from finitegeo.catalog import small_group_catalog
from finitegeo.invariants import pattern_matrix, solve_bi_invariant, solve_symmetry

from dense_paths import dense_bi_invariant_vectors, dense_decompose, dense_pattern_matrix

PARTS = ("ker_a", "im_a", "ker_s", "im_s")
KINDS = ("s_sym", "s_antisym", "w_sym", "w_antisym")


def _sample():
    """Up to four non-empty bicovariant calculi per catalog group, spread
    over the enumeration (which runs by size)."""
    cases = []
    for name, group in small_group_catalog().items():
        found = [c for c in calculus.enumerate_bicovariant(group) if c.hatG]
        step = max(1, len(found) // 4)
        cases.extend((f"{name}:{c.hatG}", c) for c in found[::step][:4])
    return cases


SAMPLE = _sample()
IDS = [label for label, _ in SAMPLE]


def _spaces(cal):
    return [solve_symmetry(cal, kind) for kind in KINDS] + [solve_bi_invariant(cal)]


@pytest.mark.parametrize("label,cal", SAMPLE, ids=IDS)
def test_parts_match_the_dense_vectors(label, cal):
    sig = SigmaOperator(cal)
    report = sig.decompose()
    for part, dense in zip(PARTS, dense_decompose(sig)):
        got = getattr(report, part)
        assert len(got) == len(dense), part
        assert [got[i] for i in range(len(got))] == dense, part
        assert list(got) == dense, part
        assert list(got[:-1]) == dense[:-1] and len(got[:-1]) == len(dense[:-1]), part
    assert report.dims == tuple(len(d) for d in dense_decompose(sig))


@pytest.mark.parametrize("label,cal", SAMPLE, ids=IDS)
def test_solution_spaces_match_the_dense_vectors(label, cal):
    report = SigmaOperator(cal).decompose()
    for space in _spaces(cal):
        if space.kind == "bi_invariant":
            want = dense_bi_invariant_vectors(cal)
        else:
            want = list(getattr(report, space.part))
        assert list(space.vectors) == want, space.kind
        assert space.dimension == len(want)
        assert [t.terms for t in space.basis] == [
            {p: x for p, x in zip(cal.pairs(), v) if x} for v in want
        ]
        assert all(space.contains_vector(v) for v in space.vectors)


@pytest.mark.parametrize("label,cal", SAMPLE, ids=IDS)
def test_patterns_match_elimination_in_any_order(label, cal):
    rng = random.Random(label)
    orders = [None]
    for _ in range(2):
        order = list(cal.hatG)
        rng.shuffle(order)
        orders.append(order)
    for space in _spaces(cal):
        for order in orders:
            got = pattern_matrix(space, order)
            want = dense_pattern_matrix(space, order)
            assert got["order"] == want["order"]
            assert list(got["cells"]) == list(want["cells"])
            for cell, coeffs in want["cells"].items():
                assert got["cells"][cell] == coeffs, (space.kind, order, cell)
            assert got["strings"] == want["strings"], (space.kind, order)


def test_pattern_order_must_be_a_permutation_of_hatg(s3_universal):
    space = solve_symmetry(s3_universal, "s_sym")
    index = s3_universal.group.element_index
    hatg = list(s3_universal.hatG)
    cases = [
        (hatg[:2], "missing ab, ba, c"),
        (hatg[:1] + hatg[:-1], "missing c; extra b"),
        ([index("e")] + hatg[1:], "missing b; extra e"),
    ]
    for order, message in cases:
        with pytest.raises(ValueError, match=f"each element of hatG once: {message}$"):
            pattern_matrix(space, order)
