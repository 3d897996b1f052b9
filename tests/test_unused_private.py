"""Every private helper of the library is read somewhere in it.

The companion of test_unused_imports.py: each module of src/crossedprod
is parsed with ast, and a module-level function, class or constant whose
name starts with one underscore, or such a method of a class, must be
read somewhere in src/crossedprod, as a name, as an attribute or by an
import.  Dunder names are the language's, not helpers.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "crossedprod"
MODULES = sorted(SRC.glob("*.py"))


def is_private(name):
    return name.startswith("_") and not name.endswith("__")


def private_definitions(tree):
    """{name: line} of the private module-level functions, classes and
    constants, and of the private methods of module-level classes."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            names = []
        if isinstance(node, ast.ClassDef):
            names += [
                f.name
                for f in node.body
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
        out.update((name, node.lineno) for name in names if is_private(name))
    return out


def read_names(tree):
    """Every name the tree reads as a name or an attribute, or imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


TREES = {path: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
READ = set().union(*map(read_names, TREES.values()))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_private_helper_is_read(path):
    unread = {
        name: line
        for name, line in private_definitions(TREES[path]).items()
        if name not in READ
    }
    assert not unread, f"{path.name}: unread private helpers " + ", ".join(
        f"{name} (line {line})" for name, line in sorted(unread.items())
    )


def test_the_scan_sees_an_unread_helper():
    tree = ast.parse(
        "from .other import _imported\n"
        "_LIMIT = 3\n"
        "_SPARE: int = 4\n"
        "def _used(): return _LIMIT\n"
        "def _stray(): pass\n"
        "class _Box:\n"
        "    def __init__(self): self._size = 0\n"
        "    def _grow(self): return self._shrink()\n"
        "    def _shrink(self): pass\n"
        "_used(); _Box()._grow\n"
    )
    defined = private_definitions(tree)
    assert defined.keys() == {"_LIMIT", "_SPARE", "_used", "_stray", "_Box", "_grow", "_shrink"}
    read = read_names(tree)
    assert "_imported" in read
    assert sorted(n for n in defined if n not in read) == ["_SPARE", "_stray"]
