"""Every function, class and method of the library is used somewhere.

A name counts as used when it appears in ``src/``, ``tests/`` or ``bench/`` as
a variable, an attribute, an imported name or a string constant (the
benchmark names what it wraps by string).  The package ``__init__`` is not
scanned: re-exporting a name does not make it used.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "skewcat"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions():
    """(qualified name, bare name) of each top-level function and class and
    each non-dunder method."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def _references() -> set[str]:
    names: set[str] = set()
    for top in ("src", "tests", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == PACKAGE / "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    return names


def test_no_unreferenced_definitions():
    used = _references()
    dead = [qualified for qualified, name in _definitions() if name not in used]
    assert dead == []
