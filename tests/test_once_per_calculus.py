"""sigma and its parts are built once per calculus through sigma_for.

braid.sigma_for keeps sigma on its calculus, with its cycles and its
decomposition; sigma_build and SigmaOperator build a fresh sigma on each
call.  decompose rotates each cycle to its top once and reads all four
parts off it; its rows, and echelon_rows on each cycle and adjoint
orbit, must be the rows of echelon_rows written part by part, which
tests/dense_paths.py keeps as the oracle.
"""

import pytest

from finitegeo import calculus, groups, invariants
from finitegeo.braid import PARTS, SigmaOperator, echelon_rows, sigma_build, sigma_for

import dense_paths
from test_echelon_rows import IDS, SAMPLE


@pytest.mark.parametrize("label,cal", SAMPLE, ids=IDS)
def test_sigma_and_its_parts_are_built_once_per_calculus(label, cal):
    cal = calculus.from_hatG(cal.group, cal.hatG)
    sig = sigma_for(cal)
    assert sigma_for(cal) is sig
    report = sig.decompose()
    assert sig.decompose() is report and sig.cycles() is sig.cycles()
    for kind, part in (("s_sym", "ker_a"), ("w_antisym", "im_a"),
                       ("s_antisym", "ker_s"), ("w_sym", "im_s")):
        assert invariants.solve_symmetry(cal, kind).vectors is getattr(report, part)
    rows = dense_paths.per_part_echelon_rows(sig)
    assert tuple(getattr(report, part).rows for part in PARTS) == rows
    for fresh in (SigmaOperator(cal), sigma_build(cal)):
        assert fresh is not sig and fresh.perm == sig.perm and sigma_for(cal) is sig
        assert fresh.decompose() is not report
        assert tuple(getattr(fresh.decompose(), part).rows for part in PARTS) == rows
    assert sigma_build(cal) is not sigma_build(cal)


@pytest.mark.parametrize("label,cal", SAMPLE, ids=IDS)
def test_echelon_rows_of_each_part_match_the_part_by_part_rows(label, cal):
    index = {p: i for i, p in enumerate(cal.pairs())}
    for c in sigma_for(cal).cycles():
        for part in PARTS:
            assert echelon_rows(part, c) == dense_paths.one_part_echelon_rows(part, c)
    for orb in groups.adjoint_orbits(cal.group, cal.hatG, 2):
        block = [index[p] for p in orb]
        assert echelon_rows("ker_a", block) == dense_paths.one_part_echelon_rows("ker_a", block)
    with pytest.raises(ValueError, match="unknown part 'im'"):
        echelon_rows("im", [0])
