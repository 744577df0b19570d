"""Every function, class and method of the library is used somewhere.

A function or class counts as used when its name appears in ``src/``,
``tests/`` or ``bench/`` as a variable, an attribute, an imported name or a
string constant (the benchmark names what it wraps by string).  A method
counts as used only as an attribute or a string constant: a local variable
that happens to share its name does not call it.  The package ``__init__`` is
not scanned: re-exporting a name does not make it used.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "skewcat"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions():
    """(qualified name, bare name, is a method) of each top-level function and
    class and each non-dunder method."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield f"{path.stem}.{node.name}", node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name, True


def _references() -> tuple[set[str], set[str]]:
    """(every referenced name, the names referenced as attributes or strings)."""
    names: set[str] = set()
    members: set[str] = set()
    for top in ("src", "tests", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == PACKAGE / "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
                elif isinstance(node, ast.Attribute):
                    members.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    members.add(node.value)
    return names | members, members


def test_no_unreferenced_definitions():
    used, members = _references()
    dead = [qualified for qualified, name, method in _definitions()
            if name not in (members if method else used)]
    assert dead == []
