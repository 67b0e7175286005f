"""Cycle notation: cli.parse_permutation against the scanner it replaced.

dense_paths.scan_permutation read the text character by character and
took overlapping cycles and commas inside a cycle.  The parser reads the
text as cycles of single digits or of spaced integers, with no point
twice.  On a seeded corpus of disjoint cycles in both forms, written
with and without a set size, and on corruptions of them, the two return
the same tuples and refuse the same texts; overlapping cycles and commas
are the only texts the scanner takes and the parser refuses.
"""

import random
import re

import pytest

from finitegeo import cli
from finitegeo.errors import UsageError

import dense_paths

FORM = "expected disjoint cycles like (123) or (10 11)"


def _outcome(parse, text, set_size):
    try:
        return parse(text, set_size)
    except UsageError:
        return "refused"


def _render(cycle, rng):
    """One cycle of 0-based points, as single digits when every point is
    below 10 and a coin says so, else spaced with a space at least."""
    points = [str(p + 1) for p in cycle]
    if max(cycle) < 9 and rng.random() < 0.5:
        return "(" + "".join(points) + ")"
    gaps = [" " * rng.randint(1, 2) for _ in points[1:]]
    body = points[0] + "".join(gap + p for gap, p in zip(gaps, points[1:]))
    lead, tail = rng.choice([("", ""), (" ", ""), ("", " "), ("  ", " ")])
    if len(points) == 1 and not lead + tail:
        lead = " "
    return f"({lead}{body}{tail})"


def _corpus(seed, count):
    """Texts of disjoint cycles on up to 14 points, each with a set size
    that is absent, exact, larger or smaller than the largest point."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 14)
        points = rng.sample(range(n), rng.randint(0, n))
        cycles, i = [], 0
        while i < len(points):
            k = rng.randint(1, len(points) - i)
            cycles.append(points[i:i + k])
            i += k
        text = rng.choice(["", " ", "\t"]).join(_render(c, rng) for c in cycles) or "()"
        text = rng.choice(["", " "]) + text + rng.choice(["", "\n"])
        top = max(points, default=-1) + 1
        yield text, rng.choice([None, n, n + 3, max(top - 1, 1)])


def _corrupt(text, rng):
    """The text with one character inserted, deleted or replaced."""
    i = rng.randrange(len(text) + 1)
    op = rng.choice(["insert", "delete", "replace"])
    char = rng.choice("()0x-\t ")
    if op == "insert":
        return text[:i] + char + text[i:]
    j = min(i, len(text) - 1)
    return text[:j] + ("" if op == "delete" else char) + text[j + 1:]


def test_parser_matches_the_scanner_on_disjoint_cycles():
    results = set()
    for text, size in _corpus(30, 4000):
        outcome = _outcome(cli.parse_permutation, text, size)
        assert outcome == _outcome(dense_paths.scan_permutation, text, size), (text, size)
        results.add(outcome == "refused")
    assert results == {True, False}


def _overlaps(text):
    bodies = re.findall(r"\(([^()]*)\)", text)
    points = [p for body in bodies for p in (body.split() if " " in body else body)]
    return len(set(points)) != len(points)


def test_parser_refuses_what_the_scanner_refuses_on_corrupted_cycles():
    """Single-character corruptions: whatever the scanner refuses, the
    parser refuses; whatever it takes, the parser takes alike, unless the
    corruption made two cycles share a point."""
    rng = random.Random(31)
    refused = taken = 0
    for text, size in _corpus(32, 3000):
        bad = _corrupt(text, rng)
        old = _outcome(dense_paths.scan_permutation, bad, size)
        new = _outcome(cli.parse_permutation, bad, size)
        if old == "refused":
            refused += 1
            assert new == "refused", (bad, size)
        elif not _overlaps(bad):
            taken += 1
            assert new == old, (bad, size)
    assert refused > 500 and taken > 500


@pytest.mark.parametrize("text,scanned", [
    ("(12)(12)", (1, 0, 2)),
    ("(12)(23)", (1, 2, 1)),
    ("(1)(1)", (0, 1, 2)),
    ("(1 2)(2 3)", (1, 2, 1)),
])
def test_overlapping_cycles_are_usage_errors(text, scanned):
    """The scanner composed the cycles as if they were disjoint: Z2 for
    the identity, a list that is no permutation for (12)(23)."""
    assert dense_paths.scan_permutation(text, 3) == scanned
    error = f"repeated or non-positive point in {text!r}: {FORM}"
    for command in ("orbits", "calculi"):
        result = cli.run(["action", command, "--set", "3", "--group-generators", text, "--json"])
        assert (result.status, result.payload) == (2, {"error": error})


def test_commas_inside_a_cycle_are_refused():
    assert dense_paths.scan_permutation("(1,2)(3, 4)", 4) == (1, 0, 3, 2)
    with pytest.raises(UsageError, match=re.escape(f"points in '(1,2)(3, 4)': {FORM}")):
        cli.parse_permutation("(1,2)(3, 4)", 4)
    # The CLI splits the generators at every comma before it parses one.
    result = cli.run(["action", "orbits", "--set", "3", "--group-generators", "(1,2),(2,3)",
                      "--json"])
    error = f"cannot parse permutation '(1': {FORM}"
    assert (result.status, result.payload) == (2, {"error": error})


@pytest.mark.parametrize("text,error", [
    ("", "cannot parse permutation ''"),
    ("  ", "cannot parse permutation '  '"),
    ("(12", "cannot parse permutation '(12'"),
    ("((12))", "cannot parse permutation '((12))'"),
    ("(12)3", "cannot parse permutation '(12)3'"),
    ("(1a)", "cannot parse cycle points in '(1a)'"),
    ("(1\t2)", "cannot parse cycle points in '(1\\t2)'"),
    ("(10)", "repeated or non-positive point in '(10)'"),
    ("(1 -2)", "repeated or non-positive point in '(1 -2)'"),
    ("(11)", "repeated or non-positive point in '(11)'"),
    ("()", "empty permutation '()'"),
])
def test_every_refusal_names_the_form(text, error):
    with pytest.raises(UsageError) as caught:
        cli.parse_permutation(text)
    message = str(caught.value)
    assert message.startswith(error) and message.endswith(FORM)


def test_both_point_forms_and_whitespace_between_cycles():
    assert cli.parse_permutation("(10 11 12) (1 2)") == (1, 0, *range(2, 9), 10, 11, 9)
    assert cli.parse_permutation("\t(123)\n(45)", 6) == (1, 2, 0, 4, 3, 5)
    assert cli.parse_permutation("( 12 )", 12) == (*range(12),)
    assert cli.parse_permutation("()", 2) == (0, 1)
    result = cli.run(["action", "orbits", "--set", "12", "--group-generators",
                      "(10 11 12),(1 2)", "--json"])
    assert result.status == 0 and result.payload["group_order"] == 6
