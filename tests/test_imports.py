"""No file imports a name that it never reads.

Every ``.py`` file under src/, tests/, demos/ and .github/ is parsed.  A
name bound by an import (``import a.b`` binds ``a``, ``from m import x as
y`` binds ``y``) that no name in the file loads fails the test.  Imports
from ``__future__`` are exempt: they switch compiler features and bind
nothing that is read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "demos", ".github") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str):
    """(line, name) of every imported name that the source never loads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "from m import a, b as c\n"
        "os.sep, c\n"
    )
    assert unused_imports(source) == [(2, "json"), (3, "a")]


def test_every_imported_name_is_read():
    assert FILES
    unused = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in FILES
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not unused, "imported but never read:\n" + "\n".join(unused)
