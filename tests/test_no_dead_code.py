"""Every function, class and method defined in the package is used somewhere.

A definition counts as used when its name appears as an AST ``Name`` or
``Attribute`` in the package, the tests or the demos.  Imports and
``__all__`` strings do not count.  Dunder methods are exempt: Python calls
them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tglab"


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_definition_is_referenced():
    defined = {}
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{path.relative_to(ROOT)}:{node.lineno}")
    used = set()
    for _, tree in _trees(PACKAGE, ROOT / "tests", ROOT / "demos"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dead = sorted(f"{where} {name}" for name, where in defined.items() if name not in used)
    assert not dead, "defined but never referenced:\n" + "\n".join(dead)
