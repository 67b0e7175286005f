"""No module imports a name that it never reads.

Each module under src/finitegeo/ and tests/ is parsed with ast.  A name
bound by an import statement at module level must be read somewhere in
the module, as a bare name or as the head of an attribute chain, or be
listed in __all__.  Package __init__.py files are exempt: their imports
are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in ("src/finitegeo", "tests")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source):
    """The module-level imported names of source that it never reads,
    with their line numbers, in source order."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [(name, line) for name, line in bound if name not in read]


def test_the_scan_finds_an_unused_import():
    source = (
        "import os\nimport os.path as osp\nfrom a import b, c as d\nimport e.f\n"
        "__all__ = ['c']\nb(); e.f.g()\n"
    )
    assert unused_imports(source) == [("os", 1), ("osp", 2), ("d", 3)]
    assert unused_imports("from __future__ import annotations\nfrom x import *\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
