"""Every function, class and method of the library has a caller or a reason.

A definition counts as used when something in ``src/`` outside its own body,
or anything in ``bench/``, refers to it: a function or class by its name as a
variable, an attribute, an imported name or a string constant (the benchmark
names what it wraps by string); a method only as an attribute or a string
constant, since a local variable that happens to share its name does not call
it.  The package ``__init__`` is not scanned: re-exporting a name does not
make it used.  A use from ``tests/`` does not count either; a definition that
only tests reach needs an entry in ``ALLOWED``, naming the acceptance
criterion, paper statement or oracle role it backs.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "skewcat"

ALLOWED = {
    "colaxalg.has_strict_left_bracketing":
        "acceptance criterion 6: the translated algebra is strictly left "
        "bracketed exactly when the multicategory is left representable",
    "correspondence.check_loose_classifier_adjunction":
        "acceptance criterion 7: tensoring with the unit is left adjoint to "
        "viewing tight unary maps as loose, with the left unit map as counit",
    "correspondence.classify":
        "acceptance criterion 7: left normality, epi left unit and closedness "
        "agree on both sides of the correspondence",
    "representability.check_left_representability_equivalences":
        "acceptance criterion 4: the four characterizations of left representability",
    "representability.check_closed_representability_equivalences":
        "acceptance criterion 5: the four characterizations that coincide when closed",
    "skewmon.lambda_all_epi":
        "the epi left unit property of the classification: left normality "
        "implies it, and the parallel-pair structure shows the converse fails",
    "tmulticat.terminal_multicat":
        "oracle role: the multicategory whose every law instance is forced, the "
        "known-lawful input of the checker, colax and round-trip tests",
    "tmulticat.all_tight":
        "paper statement: an ordinary multicategory is the skew multicategory "
        "with every map tight, and its skew monoidal category is left normal",
    "tmulticat.loose_part":
        "acceptance criteria 4 and 8: the loose multicategory that the "
        "non-representable instance refines and the naive oracle checks",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _references(tree: ast.AST) -> tuple[Counter, Counter]:
    """(references as a variable or imported name, references as an
    attribute or string constant), counted, in one syntax tree."""
    names: Counter = Counter()
    members: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
        elif isinstance(node, ast.Attribute):
            members[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            members[node.value] += 1
    return names, members


def _definitions():
    """(qualified name, bare name, is a method, syntax tree of the body) of
    each top-level function and class and each non-dunder method."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield f"{path.stem}.{node.name}", node.name, False, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name, True, item


def _totals(top: str) -> tuple[Counter, Counter]:
    names: Counter = Counter()
    members: Counter = Counter()
    for path in sorted((ROOT / top).rglob("*.py")):
        if path == PACKAGE / "__init__.py":
            continue
        n, m = _references(ast.parse(path.read_text(encoding="utf-8")))
        names += n
        members += m
    return names, members


def _unused() -> list[str]:
    src_names, src_members = _totals("src")
    bench_names, bench_members = _totals("bench")
    out = []
    for qualified, name, method, body in _definitions():
        own_names, own_members = _references(body)
        from_src = src_members[name] - own_members[name]
        from_bench = bench_members[name]
        if not method:
            from_src += src_names[name] - own_names[name]
            from_bench += bench_names[name]
        if from_src <= 0 and from_bench == 0:
            out.append(qualified)
    return out


def test_no_unreferenced_definitions():
    assert [q for q in _unused() if q not in ALLOWED] == []


def test_every_allowed_definition_exists_and_still_needs_its_reason():
    assert sorted(q for q in _unused() if q in ALLOWED) == sorted(ALLOWED)
    assert all(reason.strip() for reason in ALLOWED.values())
