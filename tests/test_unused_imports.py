"""Every top-level import of the library is used.

A stdlib-only stand-in for a linter's unused-import rule: each module of
src/crossedprod is parsed with ast, and a name bound by a top-level import
must be read somewhere in the module, as a name or as the base of an
attribute, or be listed in __all__.  Annotations count, string ones
included.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "crossedprod"
MODULES = sorted(SRC.glob("*.py"))


def imported_names(tree):
    """{bound name: line} of the module-level imports, __future__ aside."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def string_annotations(tree):
    """The string annotations of the module, such as -> "CoeffAlgebra"."""
    for node in ast.walk(tree):
        # an argument's or an annotated assignment's annotation, a return's
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for sub in ast.walk(note) if note is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield sub.value


def used_names(tree):
    """Every name the module reads: each Name, which covers the base of
    every attribute chain and every expression annotation, and the names
    in its string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for text in string_annotations(tree):
        parsed = ast.parse(text, mode="eval")
        used |= {node.id for node in ast.walk(parsed) if isinstance(node, ast.Name)}
    return used


def exported(tree):
    """The strings of a module-level __all__ list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = used_names(tree) | exported(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in read}
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for name, line in sorted(unused.items())
    )


def test_the_scan_sees_an_unused_import():
    tree = ast.parse(
        "import math\n"
        "import os.path\n"
        "from typing import Optional, Sequence\n"
        "from . import kept\n"
        "__all__ = ['kept']\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return os.path.join(x)\n"
    )
    names = imported_names(tree)
    assert names.keys() == {"math", "os", "Optional", "Sequence", "kept"}
    read = used_names(tree) | exported(tree)
    assert sorted(n for n in names if n not in read) == ["Sequence", "math"]
