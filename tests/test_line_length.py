"""No line of the package is longer than 100 columns.

Each line of every module under src/finitegeo/ is measured in
characters, with no tool beyond the standard library.
"""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "finitegeo"
LIMIT = 100


def test_no_package_line_is_longer_than_100_columns():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    long_lines = [
        f"{path.relative_to(PACKAGE)}:{number} has {len(line)} columns"
        for path in modules
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > LIMIT
    ]
    assert long_lines == []
