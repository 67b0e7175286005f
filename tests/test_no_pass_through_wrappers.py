"""No public function of the package only renames another call.

Each module under src/finitegeo/ is parsed with ast.  A public function
or method without decorators is a pass-through wrapper when its body,
after an optional docstring, is one return of a call that receives
exactly its own parameters, each passed on unchanged as a bare name.
Callers write that call instead, so each object is built one way.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "finitegeo"
MODULES = sorted(PACKAGE.rglob("*.py"))

ALLOWED = {
    # perfbench/ times a fresh sigma build, one per call, through this name.
    "braid.sigma_build",
}


def _parameters(fn):
    a = fn.args
    names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    return sorted(names + [p.arg for p in (a.vararg, a.kwarg) if p is not None])


def _passes_through(fn):
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    call = body[0].value
    if not isinstance(call, ast.Call):
        return False
    passed = [a.value if isinstance(a, ast.Starred) else a for a in call.args]
    passed += [k.value for k in call.keywords]
    if not all(isinstance(a, ast.Name) for a in passed):
        return False
    return sorted(a.id for a in passed) == _parameters(fn)


def pass_through_wrappers(source):
    """The qualified names of source's public, undecorated module-level
    functions and class methods that only pass their parameters on."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            owned = [(node.name, node)]
        elif isinstance(node, ast.ClassDef):
            owned = [(f"{node.name}.{fn.name}", fn) for fn in node.body
                     if isinstance(fn, ast.FunctionDef)]
        else:
            continue
        found += [name for name, fn in owned if not fn.name.startswith("_")
                  and not fn.decorator_list and _passes_through(fn)]
    return found


def test_the_scan_finds_a_pass_through_wrapper():
    source = '''
def plain(a, b):
    """Doc."""
    return make(a, b)

def reordered(a, b):
    return make(b, key=a)

def starred(*args, **kwargs):
    return make(*args, **kwargs)

def changed(a, b):
    return make(a, b + 1)

def extra(a):
    return make(a, 0)

def partial(a, b):
    return make(a)

def longer(a):
    a = a + 1
    return make(a)

def _private(a):
    return make(a)

@decorated
def wrapped(a):
    return make(a)

class Thing:
    def method(self, x):
        return make(self, x)

    def reads(self):
        return make(self.x)
'''
    assert pass_through_wrappers(source) == ["plain", "reordered", "starred", "Thing.method"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_public_function_only_passes_its_parameters_on(path):
    module = path.stem
    found = [f"{module}.{name}" for name in pass_through_wrappers(path.read_text())]
    assert [name for name in found if name not in ALLOWED] == []


def test_every_allowed_name_is_still_a_wrapper():
    found = {f"{p.stem}.{name}" for p in MODULES for name in pass_through_wrappers(p.read_text())}
    assert ALLOWED <= found
