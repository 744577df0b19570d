"""Batch front end.

Every command prints a JSON document on standard output and a short
human-readable explanation on standard error.  Exit codes: 0 when the input
passes / the property holds, 1 for law or property failures, 2 for unreadable
or structurally invalid input.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from collections import Counter

from .correspondence import (
    _Uncertified, monoidal_to_multicat, multicat_to_monoidal, roundtrip_monoidal,
    roundtrip_multicat,
)
from .fincat import _CAT_KEYS, StructureError, category_from_json, check_category, report_to_json
from .representability import NotLeftRepresentable, analyze
from .search import enumerate_skew_structures
from .skewmon import _SM_KEYS, check_skew_monoidal, skewmon_from_json, skewmon_to_json
from .tmulticat import (
    _MC_KEYS, arity_bound, check_tmulticat, multicat_from_json, multicat_to_json,
)


_encode_str = json.encoder.encode_basestring_ascii


def _write_json(obj, write, depth: int = 0, memo: dict | None = None) -> None:
    """Write ``json.dumps(obj, sort_keys=True, indent=2)`` for JSON data with
    string keys through ``write``: the top-level container and each one in
    it member by member, each deeper member (a ``subst`` row) as one string
    from ``_dump``, whose memo keeps, on (id, depth), only the text of dicts
    that hold no dict, such as the multimap references shared between rows.
    The document stays alive, so no two of its dicts share an id."""
    memo = {} if memo is None else memo
    if not obj or not isinstance(obj, (dict, list, tuple)):
        write(_dump(obj, depth, memo))
        return
    is_dict = isinstance(obj, dict)
    pad = "\n" + "  " * (depth + 1)
    write("{" if is_dict else "[")
    for i, (k, v) in enumerate(sorted(obj.items()) if is_dict else enumerate(obj)):
        head = ("," + pad if i else pad) + (_encode_str(k) + ": " if is_dict else "")
        if depth:
            write(head + _dump(v, depth + 1, memo))
        else:
            write(head)
            _write_json(v, write, 1, memo)
    write("\n" + "  " * depth + ("}" if is_dict else "]"))


def _dump(obj, depth: int, memo: dict[tuple[int, int], str]) -> str:
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        pad = "\n" + "  " * (depth + 1)
        body = ("," + pad).join([_dump(v, depth + 1, memo) for v in obj])
        return "[" + pad + body + "\n" + "  " * depth + "]"
    if isinstance(obj, dict):
        key = (id(obj), depth)
        text = memo.get(key)
        if text is None:
            if not obj:
                return "{}"
            pad = "\n" + "  " * (depth + 1)
            body = ("," + pad).join([_encode_str(k) + ": " + _dump(v, depth + 1, memo)
                                     for k, v in sorted(obj.items())])
            text = "{" + pad + body + "\n" + "  " * depth + "}"
            if "{" not in body:  # no dict inside (a "{" in a string only loses sharing)
                memo[key] = text
        return text
    return json.dumps(obj)


def _emit(data: dict | list, message: str) -> None:
    _write_json(data, sys.stdout.write)
    sys.stdout.write("\n")
    print(message, file=sys.stderr)


def _fail_input(message: str) -> int:
    _emit({"error": message}, f"input error: {message}")
    return 2


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        repeated = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise StructureError(f"repeated key {repeated!r} in a JSON object")
    return obj


def _read_json(path: str):
    """Parse a JSON file, rejecting any object that repeats a key.  Bytes
    that are no UTF-8, nesting deeper than the parser recurses and integer
    literals longer than the interpreter converts are malformed input too."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, StructureError):
        raise
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise StructureError(f"unreadable JSON: {exc}") from exc


def _load(path: str):
    """Returns ("category" | "monoidal" | "multicat", parsed structure)."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise StructureError("top-level JSON must be an object")
    keys = set(data)
    if keys == _CAT_KEYS:
        return "category", category_from_json(data)
    if keys == _SM_KEYS:
        return "monoidal", skewmon_from_json(data)
    if keys == _MC_KEYS:
        return "multicat", multicat_from_json(data)
    raise StructureError(f"unrecognized schema with keys {sorted(keys)}")


def _applied_arity(value: int) -> int:
    """--max-arity where it applies, to a skew monoidal input (a
    multicategory file is read at its own max_arity), with a cost warning."""
    if value >= 5:
        print(f"warning: --max-arity {value} is combinatorially expensive",
              file=sys.stderr)
    return value


def _fails_own_laws(kind: str, report: list, verb: str) -> bool:
    """Emit the violations of an input that fails its own laws, if any."""
    if report:
        _emit({"kind": kind, "violations": report_to_json(report)},
              f"input fails its own laws; fix before {verb}")
    return bool(report)


def cmd_check(path: str) -> int:
    kind, value = _load(path)
    checker = {"category": check_category, "monoidal": check_skew_monoidal,
               "multicat": check_tmulticat}[kind]
    report = checker(value)
    _emit({"kind": kind, "violations": report_to_json(report)},
          f"{kind}: {'all laws hold' if not report else f'{len(report)} violations'}")
    return 0 if not report else 1


def cmd_analyze(path: str, max_arity: int) -> int:
    arity_bound(max_arity, "--max-arity")
    kind, value = _load(path)
    if kind == "category":
        raise StructureError("analyze expects a skew multicategory or skew monoidal category")
    if kind == "monoidal":
        if _fails_own_laws(kind, check_skew_monoidal(value), "analyzing"):
            return 1
        value = monoidal_to_multicat(value, _applied_arity(max_arity))
    elif value.operad.name != "R":
        raise StructureError("analyze requires tight/loose typing (operad R)")
    elif _fails_own_laws(kind, check_tmulticat(value), "analyzing"):
        return 1
    result = analyze(value)
    _emit(result, "analyzed up to arity "
          f"{result['checked_up_to_arity']}: left_representable={result['left_representable']}")
    return 0


def cmd_convert(path: str, to: str, max_arity: int) -> int:
    arity_bound(max_arity, "--max-arity")
    kind, value = _load(path)
    if to == "multicat":
        if kind != "monoidal":
            raise StructureError("convert --to multicat expects a skew monoidal input")
        if _fails_own_laws(kind, check_skew_monoidal(value), "converting"):
            return 1
        out = multicat_to_json(monoidal_to_multicat(value, _applied_arity(max_arity)),
                               full=False)
        _emit(out, f"converted to a skew multicategory at arity {max_arity}")
        return 0
    if kind != "multicat":
        raise StructureError("convert --to monoidal expects a skew multicategory input")
    if value.operad.name != "R":
        raise StructureError("convert --to monoidal requires tight/loose typing")
    try:
        monoidal = multicat_to_monoidal(value)
    except NotLeftRepresentable as exc:
        _emit({"error": "not left representable", "missing": str(exc.missing)},
              f"cannot convert: {exc}")
        return 1
    _emit(skewmon_to_json(monoidal), "converted to a skew monoidal category")
    return 0


def cmd_roundtrip(path: str, max_arity: int) -> int:
    arity_bound(max_arity, "--max-arity")
    kind, value = _load(path)
    if kind == "monoidal":
        if _fails_own_laws(kind, check_skew_monoidal(value), "converting"):
            return 1
        verdict = roundtrip_monoidal(value, _applied_arity(max_arity))
    elif kind == "multicat" and value.operad.name == "R":
        try:
            verdict = roundtrip_multicat(value)
        except _Uncertified as exc:
            _emit({"error": "uncertified isomorphism",
                   "violations": report_to_json(exc.violations)}, f"round trip FAILED: {exc}")
            return 1
    else:
        raise StructureError("roundtrip expects a skew monoidal category or skew multicategory")
    _emit(verdict.to_json(),
          "round trip " + ("isomorphic" if verdict.isomorphic else "FAILED"))
    return 0 if verdict.isomorphic else 1


def cmd_search(objects_path: str, emit_dir: str) -> int:
    base = category_from_json(_read_json(objects_path))
    report = check_category(base)
    if report:
        _emit({"kind": "category", "violations": report_to_json(report)},
              "search base category fails its laws")
        return 1
    os.makedirs(emit_dir, exist_ok=True)
    found = enumerate_skew_structures(base)
    files = []
    for idx, structure in enumerate(found):
        name = f"structure_{idx:03d}.json"
        with open(os.path.join(emit_dir, name), "w", encoding="utf-8") as fh:
            _write_json(skewmon_to_json(structure), fh.write)
            fh.write("\n")
        files.append(name)
    _emit({"count": len(found), "files": files},
          f"found {len(found)} skew monoidal structures")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and a process may call ``main`` many times."""
    parser = argparse.ArgumentParser(
        prog="skewcat",
        description="check, analyze, convert and search finite skew monoidal "
                    "categories and skew multicategories")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a structure file against its laws")
    p.add_argument("path")

    p = sub.add_parser("analyze", help="representability and closedness report")
    p.add_argument("path")
    p.add_argument("--max-arity", type=int, default=4)

    p = sub.add_parser("convert", help="translate between the two presentations")
    p.add_argument("path")
    p.add_argument("--to", choices=("multicat", "monoidal"), required=True)
    p.add_argument("--max-arity", type=int, default=4)

    p = sub.add_parser("roundtrip", help="convert there and back, then search for an isomorphism")
    p.add_argument("path")
    p.add_argument("--max-arity", type=int, default=4)

    p = sub.add_parser("search", help="enumerate all skew monoidal structures on a category")
    p.add_argument("--objects", required=True, metavar="FILE")
    p.add_argument("--emit", required=True, metavar="DIR")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # A command allocates millions of acyclic rows and keys, and each full
    # pass of the cyclic collector would walk all of them again.  A command
    # leaves a few hundred cyclic objects whatever the input size, so the
    # pause costs no memory; the caller's collector state comes back on
    # return.
    enabled = gc.isenabled()
    gc.disable()
    try:
        if args.command == "check":
            return cmd_check(args.path)
        if args.command == "analyze":
            return cmd_analyze(args.path, args.max_arity)
        if args.command == "convert":
            return cmd_convert(args.path, args.to, args.max_arity)
        if args.command == "roundtrip":
            return cmd_roundtrip(args.path, args.max_arity)
        return cmd_search(args.objects, args.emit)
    except (OSError, json.JSONDecodeError, StructureError) as exc:
        return _fail_input(str(exc))
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
