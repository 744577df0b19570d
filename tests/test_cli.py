import contextlib
import copy
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewcat
from skewcat import correspondence, representability
from skewcat.cli import _write_json, main
from skewcat.fincat import category_to_json
from skewcat.skewmon import skewmon_from_json, skewmon_to_json
from skewcat.catoperad import make_R_operad
from skewcat.tmulticat import (
    MultiMap, TMulticategory, from_tight_subsets, loose_part, multicat_from_json, multicat_to_json,
    terminal_multicat,
)
from skewcat.correspondence import monoidal_to_multicat, multicat_to_monoidal
from skewcat.search import enumerate_skew_structures
from conftest import (
    chain_category, initial_projection, parallel_pair_category, product_monoidal, renamed,
    two_chain_fst, two_chain_snd, z2_category, z2_monoidal,
)
from naive_oracles import naive_closed_pair_ok, naive_skew_monoidal_ok, naive_tails_bijective


def write(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def only_identities_tight(s):
    """The loose part of s with only the identities tight: not left
    representable, since no binary map is tight."""
    lp = loose_part(s)
    return from_tight_subsets(
        lp, {((a,), a): frozenset([lp.identities[a]]) for a in lp.objects})


def test_check_category(tmp_path, capsys):
    path = write(tmp_path, "cat.json", category_to_json(chain_category(2)))
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    assert out == {"kind": "category", "violations": []}


def test_check_valid_monoidal(tmp_path, capsys):
    path = write(tmp_path, "mon.json", skewmon_to_json(two_chain_fst()))
    code, out, _ = run(capsys, "check", path)
    assert code == 0 and out["violations"] == []


def test_check_pentagon_mutant_names_axiom(tmp_path, capsys):
    path = write(tmp_path, "bad.json", skewmon_to_json(z2_monoidal(alpha=1)))
    code, out, _ = run(capsys, "check", path)
    assert code == 1
    a1 = [v for v in out["violations"] if v["law"] == "A1"]
    assert a1 and set(a1[0]["details"]) >= {"a", "b", "c", "d"}


def test_check_multicat(tmp_path, capsys):
    data = multicat_to_json(monoidal_to_multicat(two_chain_fst(), 2))
    path = write(tmp_path, "mc.json", data)
    code, out, _ = run(capsys, "check", path)
    assert code == 0 and out["kind"] == "multicat"


def test_check_multicat_at_the_default_arity(tmp_path, capsys):
    src = write(tmp_path, "z2.json", skewmon_to_json(z2_monoidal()))
    code, out, _ = run(capsys, "convert", src, "--to", "multicat")
    assert code == 0 and out["max_arity"] == 4
    code, out, _ = run(capsys, "check", write(tmp_path, "z2_4.json", out))
    assert code == 0 and out == {"kind": "multicat", "violations": []}


def test_check_swapped_multicat_names_associativity(tmp_path, capsys):
    # the tight binary generator of Z/2 with the generator in both slots gets
    # the other member of its two-element hom as its result
    data = multicat_to_json(monoidal_to_multicat(z2_monoidal(), 3))
    row = next(r for r in data["subst"]
               if (r["outer"]["x"], r["outer"]["id"], len(r["outer"]["inputs"])) == ("t", "e1", 2)
               and all((f["x"], f["id"], len(f["inputs"])) == ("t", "e1", 1)
                       for f in r["inners"]))
    row["result"] = "e0" if row["result"] == "e1" else "e1"
    code, out, _ = run(capsys, "check", write(tmp_path, "swapped.json", data))
    assert code == 1
    assert [(v["law"], v["details"]["family"]) for v in out["violations"]] == \
        [("subst-associativity", "fold")]


def test_unlawful_multicat_with_no_preimage_is_not_left_representable(tmp_path, capsys):
    # the identity of x with the loose e0 substituted into it gives e1, so
    # the left-bracketed loose classifier of x represents no morphism onto
    # e0 (convert --to monoidal and roundtrip do not check laws first)
    data = multicat_to_json(monoidal_to_multicat(z2_monoidal(), 3))
    row = next(r for r in data["subst"]
               if (r["outer"]["x"], r["outer"]["id"], len(r["outer"]["inputs"])) == ("t", "e0", 1)
               and [(f["x"], f["id"], len(f["inputs"])) for f in r["inners"]] == [("l", "e0", 1)])
    row["result"] = "e1"
    path = write(tmp_path, "unlawful.json", data)
    code, out, _ = run(capsys, "convert", path, "--to", "monoidal")
    assert code == 1
    assert out == {"error": "not left representable", "missing": "(('l', ('x',), 'x'), 'x')"}
    code, out, _ = run(capsys, "roundtrip", path)
    assert code == 1
    assert out == {"isomorphic": False, "left_representable": False, "witness": None}


def test_out_of_hom_result_in_a_row_convert_skips_is_exit_2(tmp_path, capsys, monkeypatch):
    # convert --to monoidal decides hom bijections of at most one element by
    # their sizes, so once the reader has returned it no longer reads some
    # rows that evaluating every substitution read; the reader evaluates
    # every ∘ᵢ row, so every command exits 2 on such a row with check's error
    data = multicat_to_json(monoidal_to_multicat(two_chain_fst(), 3))

    def rows_read_by_convert():
        read = set()
        substitute = TMulticategory.substitute
        m = multicat_from_json(data)

        def recorded(self, g, fs):
            if fs:
                read.add((g, fs))
            return substitute(self, g, fs)

        with monkeypatch.context() as mp:
            mp.setattr(TMulticategory, "substitute", recorded)
            multicat_to_monoidal(m)
        return read

    read = rows_read_by_convert()
    with monkeypatch.context() as mp:
        mp.setattr(representability, "_tails_bijective", naive_tails_bijective)
        mp.setattr(representability, "_closed_pair_ok", naive_closed_pair_ok)
        skipped = min(rows_read_by_convert() - read)

    def ref(f):
        return MultiMap(f["x"], tuple(f["inputs"]), f["output"], f["id"])

    row = next(r for r in data["subst"]
               if (ref(r["outer"]), tuple(ref(f) for f in r["inners"])) == skipped)
    row["result"] = "planted"
    path = write(tmp_path, "planted.json", data)
    _, check_out, _ = run(capsys, "check", path)
    for argv in (["check", path], ["analyze", path], ["convert", path, "--to", "monoidal"],
                 ["roundtrip", path]):
        code, out, _ = run(capsys, *argv)
        assert code == 2 and "'planted'" in out["error"] and out == check_out


def test_translations_reject_pentagon_mutant(tmp_path, capsys):
    path = write(tmp_path, "bad.json", skewmon_to_json(z2_monoidal(alpha=1)))
    for argv in (["convert", path, "--to", "multicat"], ["roundtrip", path]):
        code, out, _ = run(capsys, *argv)
        assert code == 1 and out["kind"] == "monoidal"
        assert "A1" in {v["law"] for v in out["violations"]}


def test_malformed_json_is_exit_2(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{nope")
    code, out, _ = run(capsys, "check", str(p))
    assert code == 2 and "error" in out


UNREADABLE_JSON = {
    "invalid-utf8": b"\xff\xfe{",
    "nested-100000": b"[" * 100_000,
    "integer-5000-digits": b'{"objects": ' + b"7" * 5000 + b"}",
}
READING_COMMANDS = [["check"], ["analyze"], ["convert", "--to", "multicat"],
                    ["convert", "--to", "monoidal"], ["roundtrip"], ["search", "--objects"]]


@pytest.mark.parametrize("command", READING_COMMANDS,
                         ids=lambda c: "-".join(w.lstrip("-") for w in c))
@pytest.mark.parametrize("content", UNREADABLE_JSON.values(), ids=UNREADABLE_JSON)
def test_unreadable_json_is_exit_2(tmp_path, capsys, content, command):
    # each of these made json.load raise something other than JSONDecodeError
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    argv = [*command, str(path)]
    if command[0] == "search":
        argv += ["--emit", str(tmp_path / "out")]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out["error"].startswith("unreadable JSON: ")
    assert err.startswith("input error: unreadable JSON: ") and "Traceback" not in err


def test_unknown_schema_is_exit_2(tmp_path, capsys):
    path = write(tmp_path, "odd.json", {"surprise": 1})
    code, out, _ = run(capsys, "check", path)
    assert code == 2


def test_analyze_monoidal(tmp_path, capsys):
    path = write(tmp_path, "mon.json", skewmon_to_json(two_chain_fst()))
    code, out, _ = run(capsys, "analyze", path, "--max-arity", "3")
    assert code == 0
    assert out["weakly_representable"] and out["left_representable"]
    assert out["closed"] and out["closed_with_unit"]
    assert out["checked_up_to_arity"] == 3


@pytest.mark.parametrize("command", [["analyze"], ["convert", "--to", "monoidal"],
                                     ["roundtrip"]], ids=lambda c: c[0])
def test_max_arity_is_not_applied_to_a_multicategory_file(tmp_path, capsys, command):
    # the file is read at its own max_arity: the flag is validated, neither
    # applied nor warned about
    path = write(tmp_path, "z2_3.json", multicat_to_json(monoidal_to_multicat(z2_monoidal(), 3)))
    outs = []
    for flag in ("2", "3", "6"):
        code, out, err = run(capsys, command[0], path, *command[1:], "--max-arity", flag)
        assert code == 0 and "warning" not in err
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    if command == ["analyze"]:
        assert outs[0]["checked_up_to_arity"] == 3
    code, out, _ = run(capsys, command[0], path, *command[1:], "--max-arity", "7")
    assert code == 2 and "from 1 to 6" in out["error"]


@pytest.mark.parametrize("command", [["analyze"], ["convert", "--to", "multicat"],
                                     ["roundtrip"]], ids=lambda c: c[0])
def test_max_arity_cost_warning_on_a_monoidal_input(tmp_path, capsys, command):
    # the one-object, one-morphism category's one structure: cheap at arity 5
    path = write(tmp_path, "one.json", skewmon_to_json(enumerate_skew_structures(
        chain_category(1))[0]))
    code, _, err = run(capsys, command[0], path, *command[1:], "--max-arity", "5")
    assert code == 0 and "warning: --max-arity 5 is combinatorially expensive" in err
    code, _, err = run(capsys, command[0], path, *command[1:], "--max-arity", "4")
    assert code == 0 and "warning" not in err


def test_analyze_rejects_plain_category(tmp_path, capsys):
    path = write(tmp_path, "cat.json", category_to_json(chain_category(2)))
    code, out, _ = run(capsys, "analyze", path)
    assert code == 2


@pytest.mark.parametrize("structure, as_multicat", [
    (z2_monoidal, False), (two_chain_fst, False), (two_chain_snd, False), (z2_monoidal, True)])
def test_analyze_needs_binary_homs(tmp_path, capsys, structure, as_multicat):
    # at arity 1 the tensor's binary homs are not stored, so analyze cannot
    # decide representability or closedness
    if as_multicat:
        data = multicat_to_json(monoidal_to_multicat(structure(), 1))
        assert data["max_arity"] == 1
    else:
        data = skewmon_to_json(structure())
    code, out, _ = run(capsys, "analyze", write(tmp_path, "in.json", data), "--max-arity", "1")
    assert code == 2
    assert "at least 2" in out["error"]


def test_repeated_json_key_is_exit_2(tmp_path, capsys):
    data = multicat_to_json(monoidal_to_multicat(z2_monoidal(), 2))
    text = json.dumps(data).replace('"identities": {"x": "e0"}',
                                    '"identities": {"x": "e1", "x": "e0"}')
    assert text.count('"x": "e1", "x": "e0"') == 1
    path = tmp_path / "mc.json"
    path.write_text(text)
    code, out, _ = run(capsys, "check", str(path))
    assert code == 2
    assert "repeated key 'x'" in out["error"]


def test_search_rejects_repeated_json_key(tmp_path, capsys):
    text = json.dumps(category_to_json(chain_category(2))).replace(
        '"identities": {"0": "m00"', '"identities": {"0": "m00", "0": "m00"')
    assert text.count('"0": "m00", "0": "m00"') == 1
    path = tmp_path / "cat.json"
    path.write_text(text)
    code, out, _ = run(capsys, "search", "--objects", str(path), "--emit", str(tmp_path / "x"))
    assert code == 2
    assert "repeated key '0'" in out["error"]
    assert not (tmp_path / "x").exists()


def test_analyze_rejects_lawless_input(tmp_path, capsys):
    path = write(tmp_path, "bad.json", skewmon_to_json(z2_monoidal(alpha=1)))
    code, out, _ = run(capsys, "analyze", path)
    assert code == 1
    assert out["violations"]


def test_roundtrip_not_left_representable_is_exit_1(tmp_path, capsys):
    only_id = only_identities_tight(monoidal_to_multicat(two_chain_fst(), 3))
    path = write(tmp_path, "mc.json", multicat_to_json(only_id))
    code, out, _ = run(capsys, "roundtrip", path)
    assert code == 1
    assert out == {"isomorphic": False, "left_representable": False, "witness": None}


def test_analyze_arity_cap(tmp_path, capsys):
    path = write(tmp_path, "mon.json", skewmon_to_json(two_chain_fst()))
    code, out, _ = run(capsys, "analyze", path, "--max-arity", "7")
    assert code == 2


def test_convert_round_trip_through_files(tmp_path, capsys):
    src = write(tmp_path, "mon.json", skewmon_to_json(two_chain_fst()))
    code, out, _ = run(capsys, "convert", src, "--to", "multicat", "--max-arity", "3")
    assert code == 0
    mc_path = write(tmp_path, "mc.json", out)
    code, out, _ = run(capsys, "check", mc_path)
    assert code == 0
    code, out, _ = run(capsys, "convert", mc_path, "--to", "monoidal")
    assert code == 0
    back = skewmon_from_json(out)
    code2, out2, _ = run(capsys, "check", write(tmp_path, "back.json", out))
    assert code2 == 0


def test_convert_round_trip_for_every_two_chain_structure(tmp_path, capsys):
    from skewcat.search import enumerate_skew_structures
    for idx, c in enumerate(enumerate_skew_structures(chain_category(2))):
        src = write(tmp_path, f"mon{idx}.json", skewmon_to_json(c))
        code, out, _ = run(capsys, "convert", src, "--to", "multicat",
                           "--max-arity", "3")
        assert code == 0
        mc = write(tmp_path, f"mc{idx}.json", out)
        code, out, _ = run(capsys, "convert", mc, "--to", "monoidal")
        assert code == 0
        back = write(tmp_path, f"back{idx}.json", out)
        code, out, _ = run(capsys, "check", back)
        assert code == 0


def test_analyze_multicat_input(tmp_path, capsys):
    data = multicat_to_json(monoidal_to_multicat(two_chain_fst(), 3))
    path = write(tmp_path, "mc.json", data)
    code, out, _ = run(capsys, "analyze", path, "--max-arity", "3")
    assert code == 0
    assert out["left_representable"] and out["closed_with_unit"]


def test_convert_non_left_representable_is_exit_1(tmp_path, capsys):
    only_id = only_identities_tight(monoidal_to_multicat(two_chain_fst(), 3))
    path = write(tmp_path, "mc.json", multicat_to_json(only_id))
    code, out, _ = run(capsys, "convert", path, "--to", "monoidal")
    assert code == 1
    assert out["error"] == "not left representable"
    assert "missing" in out


def test_convert_to_monoidal_needs_ternary_homs(tmp_path, capsys):
    data = multicat_to_json(monoidal_to_multicat(two_chain_fst(), 2))
    path = write(tmp_path, "mc2.json", data)
    code, out, _ = run(capsys, "convert", path, "--to", "monoidal")
    assert code == 2
    assert "ternary" in out["error"]


def test_roundtrip_monoidal(tmp_path, capsys):
    path = write(tmp_path, "mon.json", skewmon_to_json(two_chain_fst()))
    code, out, _ = run(capsys, "roundtrip", path, "--max-arity", "3")
    assert code == 0
    assert out["isomorphic"] and out["left_representable"]
    assert out["witness"]["objects"] == {"0": "0", "1": "1"}


def test_roundtrip_multicat_file(tmp_path, capsys):
    data = multicat_to_json(monoidal_to_multicat(z2_monoidal(), 3))
    path = write(tmp_path, "mc.json", data)
    code, out, _ = run(capsys, "roundtrip", path)
    assert code == 0 and out["isomorphic"]


def test_roundtrip_rejects_an_isomorphism_that_fails_its_certificate(tmp_path, capsys,
                                                                     monkeypatch):
    """A search that returns a well-shaped pair with two ids swapped in one
    hom of two multimaps gets no "isomorphic": the round trip exits 1 and
    names the broken equation."""
    search = correspondence.iso_search

    def swapped_search(s, again):
        fwd = search(s, again)
        table = next(t for _, t in sorted(fwd.hom_maps.items()) if len(t) == 2)
        first, second = table
        table[first], table[second] = table[second], table[first]
        return fwd

    data = multicat_to_json(monoidal_to_multicat(z2_monoidal(), 3))
    path = write(tmp_path, "mc.json", data)
    with monkeypatch.context() as mp:
        mp.setattr(correspondence, "iso_search", swapped_search)
        code, out, err = run(capsys, "roundtrip", path)
    assert code == 1
    assert out["error"] == "uncertified isomorphism" and out["violations"]
    assert out["violations"][0]["law"] in err


def test_search_two_chain(tmp_path, capsys):
    base = write(tmp_path, "cat.json", category_to_json(chain_category(2)))
    emit = tmp_path / "found"
    code, out, _ = run(capsys, "search", "--objects", base, "--emit", str(emit))
    assert code == 0
    assert out["count"] == 4
    assert out["files"] == [f"structure_{k:03d}.json" for k in range(4)]
    # everything emitted passes check with exit 0
    for name in out["files"]:
        code, rep, _ = run(capsys, "check", str(emit / name))
        assert code == 0
    # byte determinism
    first = [(emit / name).read_bytes() for name in out["files"]]
    emit2 = tmp_path / "again"
    run(capsys, "search", "--objects", base, "--emit", str(emit2))
    second = [(emit2 / name).read_bytes() for name in out["files"]]
    assert first == second


def test_search_rejects_invalid_category(tmp_path, capsys):
    bad = {"objects": ["a"], "morphisms": [{"id": "f", "src": "a", "tgt": "a"}],
           "identities": {"a": "f"}, "compose": []}
    path = write(tmp_path, "cat.json", bad)
    code, out, _ = run(capsys, "search", "--objects", path, "--emit", str(tmp_path / "x"))
    assert code == 1
    assert out["violations"]


@pytest.mark.parametrize("flag, file_value", [("0", 2), ("-1", 2), ("3", "abc"), ("3", 7)])
def test_max_arity_bound_for_flag_and_file(tmp_path, capsys, flag, file_value):
    data = multicat_to_json(monoidal_to_multicat(two_chain_fst(), 2))
    data["max_arity"] = file_value
    path = write(tmp_path, "mc.json", data)
    code, out, _ = run(capsys, "analyze", path, "--max-arity", flag)
    assert code == 2
    assert "from 1 to 6" in out["error"]


@pytest.mark.parametrize("left_representable", [True, False])
def test_roundtrip_below_arity_3_is_exit_2(tmp_path, capsys, left_representable):
    # the associator is read off ternary homs, so a round trip of an arity-2
    # file cannot be decided, whether or not it is left representable
    s = monoidal_to_multicat(two_chain_fst(), 2)
    if not left_representable:
        s = only_identities_tight(s)
    code, out, _ = run(capsys, "roundtrip", write(tmp_path, "mc2.json", multicat_to_json(s)))
    assert code == 2
    assert "ternary" in out["error"]


@pytest.mark.parametrize("kind", ["category", "monoidal", "multicat"])
def test_identities_not_an_object_is_exit_2(tmp_path, capsys, kind):
    data = {"category": lambda: category_to_json(chain_category(2)),
            "monoidal": lambda: skewmon_to_json(two_chain_fst()),
            "multicat": lambda: multicat_to_json(monoidal_to_multicat(two_chain_fst(), 2)),
            }[kind]()
    (data["category"] if kind == "monoidal" else data)["identities"] = []
    code, out, _ = run(capsys, "check", write(tmp_path, "in.json", data))
    assert code == 2
    assert out["error"] == "identities must be a JSON object"


def _ghost_identity(data):
    data["identities"]["ghost"] = data["identities"][data["objects"][0]]


def _repeated_map_id(data):
    maps = next(h["maps"] for h in data["homs"] if h["maps"])
    maps.append(maps[0])


@pytest.mark.parametrize("command", [["check"], ["roundtrip"], ["convert", "--to", "monoidal"]],
                         ids=["check", "roundtrip", "convert"])
@pytest.mark.parametrize("edit, message", [
    (_ghost_identity, "identity given for 'ghost', which is not an object"),
    (_repeated_map_id, "duplicate multimap ids in")], ids=["ghost", "repeated"])
def test_multicat_load_rejects_ghost_identity_and_repeated_map_id(
        tmp_path, capsys, command, edit, message):
    # rejected when the file is read, so also by the commands that run no check
    data = multicat_to_json(monoidal_to_multicat(z2_monoidal(), 3))
    edit(data)
    code, out, _ = run(capsys, command[0], write(tmp_path, "mc.json", data), *command[1:])
    assert code == 2
    assert message in out["error"]


@pytest.mark.parametrize("command", [["check"], ["analyze"], ["roundtrip"],
                                     ["convert", "--to", "monoidal"]],
                         ids=["check", "analyze", "roundtrip", "convert"])
def test_multicat_load_rejects_a_repeated_object(tmp_path, capsys, command):
    data = multicat_to_json(monoidal_to_multicat(two_chain_fst(), 2))
    data["objects"].append(data["objects"][0])
    code, out, _ = run(capsys, command[0], write(tmp_path, "mc.json", data), *command[1:])
    assert code == 2
    assert out["error"] == f"duplicate object id {data['objects'][0]!r}"


def _edited(data, edit):
    edit(data)
    return data


@pytest.mark.parametrize("data, message", [
    (_edited(category_to_json(chain_category(2)), lambda d: d.update(objects="01")),
     "objects must be a JSON array"),
    ({"objects": [0], "morphisms": [{"id": 1, "src": 0, "tgt": 0}],
      "identities": {"0": 1}, "compose": [{"g": 1, "f": 1, "gf": 1}]},
     "object must be a string id, got 0"),
    (_edited(category_to_json(chain_category(2)),
             lambda d: d["compose"][0].update(gf=0)),
     "compose gf must be a string id, got 0"),
    (_edited(skewmon_to_json(z2_monoidal()), lambda d: d.update(unit=["x"])),
     "unit must be a string id, got ['x']"),
    (_edited(skewmon_to_json(z2_monoidal()), lambda d: d.update({"lambda": [["x", 0]]})),
     "lambda entry must be a string id, got 0"),
    (_edited(multicat_to_json(monoidal_to_multicat(z2_monoidal(), 2)),
             lambda d: d.update(objects="x")),
     "objects must be a JSON array"),
    (_edited(multicat_to_json(monoidal_to_multicat(z2_monoidal(), 2)),
             lambda d: d.update(objects=["x", 0])),
     "object must be a string id, got 0"),
    (_edited(multicat_to_json(monoidal_to_multicat(z2_monoidal(), 2)),
             lambda d: d["homs"][0].update(maps=[0])),
     "hom maps must be a string id, got 0"),
    (_edited(multicat_to_json(monoidal_to_multicat(z2_monoidal(), 2)),
             lambda d: d["identities"].update(x=0)),
     "identity of 'x' must be a string id, got 0"),
    (_edited(multicat_to_json(monoidal_to_multicat(z2_monoidal(), 2)),
             lambda d: d["subst"][-1].update(outer=dict(d["subst"][-1]["outer"], id=1))),
     "subst outer id must be a string id, got 1"),
    (_edited(multicat_to_json(monoidal_to_multicat(z2_monoidal(), 2)),
             lambda d: d["subst"][-1].update(result=1)),
     "subst result must be a string id, got 1"),
], ids=["objects-string", "integer-ids", "compose-integer", "unit-list", "lambda-integer",
        "multicat-objects-string", "multicat-object-integer", "multicat-hom-integer",
        "multicat-identity-integer", "multicat-subst-integer", "multicat-result-integer"])
def test_ids_must_be_strings(tmp_path, capsys, data, message):
    code, out, _ = run(capsys, "check", write(tmp_path, "in.json", data))
    assert code == 2
    assert out["error"] == message


@pytest.mark.parametrize("table, value", [
    ("compose", None), ("tensor.objects", None), ("tensor.morphisms", None),
    ("lambda", None), ("rho", None),
    ("alpha", "e1"),  # read last-wins, this row would be reported as an A1 failure
])
def test_repeated_row_is_exit_2(tmp_path, capsys, table, value):
    if table == "compose":
        data = category_to_json(chain_category(2))
        rows = data["compose"]
    else:
        data = skewmon_to_json(z2_monoidal())
        rows = data["tensor"][table[7:]] if table.startswith("tensor.") else data[table]
    row = copy.deepcopy(rows[0])
    if value is not None:
        row[-1] = value
    rows.append(row)
    code, out, _ = run(capsys, "check", write(tmp_path, "in.json", data))
    assert code == 2
    assert out["error"].startswith(f"duplicate {table.replace('.', ' ')} row for ")


@pytest.mark.parametrize("table, row", [
    ("tensor.objects", ["y", "x", "x"]), ("tensor.morphisms", ["zz", "e1", "e1"]),
    ("lambda", ["y", "e1"]), ("rho", ["y", "e1"]),
], ids=["tensor.objects", "tensor.morphisms", "lambda", "rho"])
def test_extra_monoidal_row_is_exit_2(tmp_path, capsys, table, row):
    data = skewmon_to_json(z2_monoidal())
    (data["tensor"][table[7:]] if table.startswith("tensor.") else data[table]).append(row)
    code, out, _ = run(capsys, "check", write(tmp_path, "in.json", data))
    assert code == 2
    assert out["error"].startswith(f"extra {table.replace('.', ' ')} row for ")


@pytest.mark.parametrize("table", ["objects", "morphisms"])
def test_missing_tensor_row_is_exit_2(tmp_path, capsys, table):
    data = skewmon_to_json(z2_monoidal())
    data["tensor"][table].pop()
    code, out, _ = run(capsys, "check", write(tmp_path, "in.json", data))
    assert code == 2
    assert out["error"].startswith("tensor table misses ")


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["category"].update(identities={}), "object 'x' has no identity"),
    (lambda d: d.update({"lambda": [["x", "zz"]]}),
     "left unit component 'zz' at 'x' is not a morphism"),
    (lambda d: d["alpha"].append(["y", "x", "x", "e0"]),
     "associativity component at ('y', 'x', 'x') names an unknown object"),
], ids=["base-without-identity", "lambda-not-a-morphism", "alpha-unknown-object"])
def test_monoidal_tables_naming_unknown_ids_are_exit_2(tmp_path, capsys, edit, message):
    data = skewmon_to_json(z2_monoidal())
    edit(data)
    code, out, _ = run(capsys, "check", write(tmp_path, "in.json", data))
    assert code == 2
    assert out["error"] == message


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["subst"][0]["inners"][0].update(output="1"),
     "subst inner outputs ['1'] differ from the inputs of outer ('l', ('0',), '0')"),
    (lambda d: d["subst"][0]["outer"].update(colour="red"),
     "subst outer entries must have keys x/inputs/output/id"),
    (lambda d: d["action"][0].update(n=99), "action row n=99 is not the length 1 of its inputs"),
    (lambda d: d["action"][0].update(map_t=["m00", "m00"], map_l=["m00", "m00"]),
     "action row at ('t', ('0',), '0') repeats a map_t id"),
], ids=["inner-output", "outer-unknown-key", "action-n", "action-repeated-map"])
def test_malformed_multicat_rows_are_exit_2(tmp_path, capsys, edit, message):
    # a parsed copy, in which no two rows share a reference dict
    data = json.loads(json.dumps(multicat_to_json(monoidal_to_multicat(two_chain_fst(), 2))))
    edit(data)
    code, out, _ = run(capsys, "check", write(tmp_path, "in.json", data))
    assert code == 2
    assert out["error"] == message


MULTICAT_COMMANDS = [["check"], ["analyze"], ["convert", "--to", "monoidal"], ["roundtrip"]]


@pytest.mark.parametrize("command", MULTICAT_COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("inputs, named", [
    (["ghost"], "('t', ('ghost',), '0')"),
    (["0"] * 4, "('t', ('0', '0', '0', '0'), '0')"),
], ids=["unknown-object", "past-max-arity"])
def test_action_row_outside_the_signatures_is_exit_2(tmp_path, capsys, command, inputs,
                                                      named):
    # an empty row maps its (absent) tight hom into any loose hom, so only
    # its key can tell that no such signature exists at max_arity 3
    data = json.loads(json.dumps(multicat_to_json(monoidal_to_multicat(two_chain_fst(), 3))))
    data["action"].append({"n": len(inputs), "inputs": inputs, "output": "0",
                           "map_t": [], "map_l": []})
    code, out, _ = run(capsys, *command, write(tmp_path, "in.json", data))
    assert code == 2
    assert named in out["error"]


def _hom_ref(data, x, inputs, output):
    """A reference to the first multimap of a hom of a multicategory document."""
    hom = next(h for h in data["homs"]
               if (h["x"], h["inputs"], h["output"]) == (x, inputs, output))
    return {"x": x, "inputs": inputs, "output": output, "id": hom["maps"][0]}


def _overfull_row(data):
    """A subst row of binary inners into a binary outer: result arity 4 > 3."""
    outer = _hom_ref(data, "t", ["0", "0"], "0")
    inner = _hom_ref(data, "t", ["0", "0"], "0")
    data["subst"].append({"outer": outer, "inners": [inner, dict(inner)],
                          "result": outer["id"]})


def _nullary_row(data):
    outer = _hom_ref(data, "l", [], "0")
    data["subst"].append({"outer": outer, "inners": [], "result": outer["id"]})


def _short_map_t(data):
    row = next(r for r in data["action"] if r["map_t"])
    del row["map_t"][0], row["map_l"][0]


@pytest.mark.parametrize("edit, on_read", [
    (lambda d: d["subst"].pop(), True),
    (lambda d: d["subst"][0]["inners"][0].update(id="ghost"), True),
    (_overfull_row, True),
    (_nullary_row, True),
    (lambda d: d["action"].pop(0), True),
    (_short_map_t, True),
    (lambda d: d["action"][0]["map_l"].__setitem__(0, "ghost"), True),
], ids=["dropped-subst", "inner-outside-hom", "inner-arities-over-bound",
        "nullary-outer-without-inners", "dropped-action", "map_t-misses-an-id",
        "map_l-outside-loose-hom"])
def test_malformed_stored_tables_are_exit_2(tmp_path, capsys, edit, on_read):
    # the reader counts the stored subst rows, so every command sees a
    # dropped one, here a row with three non-identity inners
    data = json.loads(json.dumps(multicat_to_json(monoidal_to_multicat(two_chain_fst(), 3))))
    edit(data)
    path = write(tmp_path, "in.json", data)
    code, out, _ = run(capsys, "check", path)
    assert code == 2 and out["error"]
    if on_read:
        for command in (["analyze"], ["convert", "--to", "monoidal"], ["roundtrip"]):
            assert run(capsys, *command, path)[:2] == (2, out)


@pytest.mark.parametrize("command", MULTICAT_COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("edit", ["extra-full-row", "dropped-circ-row"])
def test_circ_only_table_with_a_row_more_or_less_is_exit_2(tmp_path, capsys, command, edit):
    # a table is read only if it holds exactly the ∘ᵢ rows or a row for
    # every substitution; the message names the first key it misses
    m = monoidal_to_multicat(two_chain_fst(), 3)
    data = json.loads(json.dumps(multicat_to_json(m, full=False)))
    if edit == "extra-full-row":  # the last full row has three non-identity inners
        data["subst"].append(multicat_to_json(m)["subst"][-1])
        named = "(('l', ('0', '0'), '0'), 'm00', (('l', (), 'm00'), ('l', (), 'm00')))"
    else:
        row = data["subst"].pop(1)
        outer, (inner,) = row["outer"], row["inners"]
        named = repr(((outer["x"], tuple(outer["inputs"]), outer["output"]), outer["id"],
                      ((inner["x"], tuple(inner["inputs"]), inner["id"]),)))
    code, out, _ = run(capsys, *command, write(tmp_path, "in.json", data))
    assert (code, out) == (2, {"error": f"no substitution entry for {named}"})


VALID_DOCUMENTS = [category_to_json(z2_category()), skewmon_to_json(z2_monoidal()),
                   multicat_to_json(monoidal_to_multicat(z2_monoidal(), 2))]

# Strings are mostly drawn from the letters of the ids and keys of the valid
# documents, so that a replaced field often names something that exists.
JSON_STRINGS = st.text("xe01lt", max_size=3) | st.text(max_size=3)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | JSON_STRINGS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(JSON_STRINGS, inner, max_size=4),
    max_leaves=8)


def _positions(value, path=()):
    """Every path of keys and indices into a JSON value, the root included."""
    yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _positions(child, path + (key,))


@st.composite
def one_field_replaced(draw):
    # A JSON round trip, not deepcopy: multicat_to_json shares one dict per
    # multimap reference between subst rows, and deepcopy would keep that
    # sharing, so one edit would change every row that names the reference.
    doc = json.loads(json.dumps(draw(st.sampled_from(VALID_DOCUMENTS))))
    path = draw(st.sampled_from(list(_positions(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(JSON_VALUES)
    return doc


COMMANDS = [["check"], ["analyze", "--max-arity", "2"],
            ["convert", "--to", "multicat", "--max-arity", "2"],
            ["convert", "--to", "monoidal", "--max-arity", "2"],
            ["roundtrip", "--max-arity", "2"]]


@given(doc=JSON_VALUES | one_field_replaced(), command=st.sampled_from(COMMANDS))
@settings(max_examples=200, deadline=None)
def test_arbitrary_json_never_escapes_as_an_exception(tmp_path_factory, doc, command):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    assert main([command[0], str(path), *command[1:]]) in (0, 1, 2)


# Strings include quotes, backslashes, control characters and non-ASCII text.
TEXT = st.text("ab\"\\\n\t\x00\x7fé☃𝄞", max_size=4) | st.text(max_size=4)
JSON_LIKE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=12)


@st.composite
def with_shared_containers(draw):
    """A document in which one dict object and one list object each appear
    at several depths, and more than once at some depth."""
    shared_dict = draw(st.dictionaries(TEXT, JSON_LIKE, max_size=3))
    shared_list = draw(st.lists(JSON_LIKE, max_size=3))
    doc = draw(JSON_LIKE)
    for shape in draw(st.lists(st.integers(0, 2), min_size=1, max_size=4)):
        doc = ([shared_dict, doc, shared_list],
               {"d": shared_dict, "doc": doc},
               {"l": [shared_list, shared_dict], "doc": [doc, shared_dict]})[shape]
    return doc


@given(value=JSON_LIKE | with_shared_containers())
@settings(max_examples=300, deadline=None)
def test_write_json_matches_the_stdlib_encoder(value):
    pieces = []
    _write_json(value, pieces.append)
    assert "".join(pieces) == json.dumps(value, sort_keys=True, indent=2)


def test_write_json_streams_a_multicategory():
    """Writing a stored Z/2@3 multicategory (1.45 MB of text) to a sink that
    only counts allocates well under the bytes written: no piece is the
    whole document, and no row's text stays in the memo."""
    doc = multicat_to_json(monoidal_to_multicat(z2_monoidal(), 3))
    written = 0

    def count(piece):
        nonlocal written
        written += len(piece)

    tracemalloc.start()
    try:
        _write_json(doc, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written == len(json.dumps(doc, sort_keys=True, indent=2))
    assert peak < written / 4


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_collector_state(tmp_path, capsys, enabled):
    good = write(tmp_path, "good.json", skewmon_to_json(z2_monoidal()))
    lawless = write(tmp_path, "lawless.json", skewmon_to_json(z2_monoidal(alpha=1)))
    unreadable = write(tmp_path, "unreadable.json", {"objects": 1})
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for path, code in ((good, 0), (lawless, 1), (unreadable, 2)):
            assert main(["check", path]) == code
            assert gc.isenabled() is enabled
        with pytest.raises(SystemExit):
            main(["check", good, "--no-such-flag"])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def test_a_command_leaves_little_cyclic_garbage(tmp_path, capsys):
    # the collector is paused for each command because what a command
    # allocates is acyclic: a few hundred cyclic objects remain, whatever
    # the input size
    src = write(tmp_path, "z2.json", skewmon_to_json(z2_monoidal()))
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert main(["convert", src, "--to", "multicat", "--max-arity", "3"]) == 0
        assert gc.collect() < 1000
    finally:
        if was:
            gc.enable()
    capsys.readouterr()


# sha256 of "<exit code>\n<stdout>" for each command of _golden_digests.  They
# pin the output bytes: a refactor leaves them as they are, and an intended
# change of output updates them and says so in CHANGES.md.  The "emit" entries
# are the sha256 of each file that the search writes.
GOLDEN = {
    "search 2-chain":
        "873dbcff3fc3708ca399dcd60c64a8d5ac1d3af7fc4dc974afd7a63cfdbc7a42",
    "emit structure_000.json":
        "2e664631e29a30d4a1c2dfec5ef05af6c7e8c9a318da972b50431e8b4739d8e7",
    "emit structure_001.json":
        "ee4532c96a395e4e5c7ef35b47b99bd4235caa4c7ef75c94b44f5ed2d2943da7",
    "emit structure_002.json":
        "a1a793ba2e920d67a613297c2688b205a58fac7dfee16e142e20a690801339f5",
    "emit structure_003.json":
        "f2f77ded6086ee10b63c3f6c4f1c313f4cc31ae7215bd0a5bfb57e48cfe0145a",
    "check structure_000.json":
        "00098728eb5a97ebe07b59e6e4fadc635414d342bb6cebd25991e83d83ebaa83",
    "analyze structure_000.json":
        "0ed07571d3200f81c9dcad3b2df067741b65f032f1e1beee676dd3fbefb93666",
    "roundtrip structure_000.json":
        "09bae4d637b94dd314d20c8cb95d90463dc724ed202488066a6a81ab7a9f70a0",
    "analyze structure_000.json @4":
        "8990595f7fabd2af694410fdcca10e3c46416e87330bb2484f7d7d26ada1fcb7",
    "roundtrip structure_000.json @4":
        "09bae4d637b94dd314d20c8cb95d90463dc724ed202488066a6a81ab7a9f70a0",
    "check structure_001.json":
        "00098728eb5a97ebe07b59e6e4fadc635414d342bb6cebd25991e83d83ebaa83",
    "analyze structure_001.json":
        "3a67752b87d152e94664f5f60555ccb998b9dba923fa593bef43a9b958182c41",
    "roundtrip structure_001.json":
        "b9d611916301c749b007d12502d8805da6e49cb4d2d25540bbfef01f6c1fe4f2",
    "analyze structure_001.json @4":
        "f2bd398193c8eeaa6eacf5c61b2cb30e8d6f498619d51b5bb9d4a50ef0d3ab1d",
    "roundtrip structure_001.json @4":
        "b9d611916301c749b007d12502d8805da6e49cb4d2d25540bbfef01f6c1fe4f2",
    "check structure_002.json":
        "00098728eb5a97ebe07b59e6e4fadc635414d342bb6cebd25991e83d83ebaa83",
    "analyze structure_002.json":
        "f30f307e0e02d65198b2ff5274e11de8c287dd584d1a19ce09f08e6c40e1bc3c",
    "roundtrip structure_002.json":
        "d9457e45cce69378da799b0e9a1cbe2075b6e3192992050117cb1082b83f326d",
    "analyze structure_002.json @4":
        "4a3068d720a0586569dc8bb999716ad296f1cc85665f0f977f99f3726dab1054",
    "roundtrip structure_002.json @4":
        "d9457e45cce69378da799b0e9a1cbe2075b6e3192992050117cb1082b83f326d",
    "check structure_003.json":
        "00098728eb5a97ebe07b59e6e4fadc635414d342bb6cebd25991e83d83ebaa83",
    "analyze structure_003.json":
        "50db6d5084f6cbb2b5d4daab66805da49266bc877ac4b89a2ce3720ae39e6a9d",
    "roundtrip structure_003.json":
        "4293139d760350fd06147d0d46b6608e90d561e7bb24bfb37cb6ab9124233410",
    "analyze structure_003.json @4":
        "9128c4d6ccdb029ad8a2966e6eb31746e41bd91329ee274791becea5197dead5",
    "roundtrip structure_003.json @4":
        "4293139d760350fd06147d0d46b6608e90d561e7bb24bfb37cb6ab9124233410",
    "convert z2 --to multicat @3":
        "bcb1339dc606370959d7c23ff4f6f3c5ff18bf89b1038c6b5c24a70f6a20f44b",
    "convert z2 --to multicat @2":
        "92ddf26880464a40364e7730038837d6e450bbbcafecd522043d73e34c2ad87d",
    "convert z2@3 --to monoidal":
        "704b419d484fa3266b8b2a76844fefcd39769bebacd2f685699e6fde7baeda72",
    "roundtrip z2@3":
        "468ac7993cad84b9da4f3f58637862e745e6e5281819d4e9f97e1afe7ccb0191",
    "check z2@2":
        "17f9c8e3c76dcba62dd1b3a9ee88b57c13bbf985642ce938a8ec814b3d7e4ca2",
    "analyze z2@2":
        "461aeec4d809d3bc6e840a10ecf3906cfccfa8afffc24892784441113d0b1ff1",
    "convert fst --to multicat @3":
        "42540dd0840b3bce9fa3205e80912ceea8ebe8cbe1b11feb3659636514814f85",
    "convert fst --to multicat @2":
        "9b2ee33daa8eb2dc44ae9332bf05cc6ccdedf26c740cc3e3e6bee7e934c17e51",
    "convert fst@3 --to monoidal":
        "02d20ce0b717d50b804f8c808949050f79f9508ac81b33aeef0c6af94c5358ea",
    "roundtrip fst@3":
        "52601bd151bece4d1ac9736bb9af671d01449a159d6be5c9556f27a687592a3c",
    "check fst@2":
        "17f9c8e3c76dcba62dd1b3a9ee88b57c13bbf985642ce938a8ec814b3d7e4ca2",
    "analyze fst@2":
        "e00713251620d13275d7ec7e1ca7360f9d8343ae6ed33d0dcbe4b995c12da15f",
    "convert structure_000.json --to multicat @3":
        "42540dd0840b3bce9fa3205e80912ceea8ebe8cbe1b11feb3659636514814f85",
    "convert structure_000.json@3 --to monoidal":
        "02d20ce0b717d50b804f8c808949050f79f9508ac81b33aeef0c6af94c5358ea",
    "convert structure_001.json --to multicat @3":
        "a48f03138918d9ca8d7e2e47c8f30f3cf525184a6764a3e0886164e2badbcc1c",
    "convert structure_001.json@3 --to monoidal":
        "0389f2adb10da4ea98832bd090091d81e5767f8ef93fd3ea26622408c7723b1e",
    "convert structure_002.json --to multicat @3":
        "fe0cb331a5e806baf451721d6b7c597f6ec391732c900090bac1712b2916d9fc",
    "convert structure_002.json@3 --to monoidal":
        "b464b499b05edcc062dc55d5650e1e0ac4489fb1ac3c402d50322d413e7e72e3",
    "convert structure_003.json --to multicat @3":
        "db87e33d209b32ada4676b07c9de4ad7133b4b20a3c915b6b36b005323260dd3",
    "convert structure_003.json@3 --to monoidal":
        "4338f35a3ca741d654bd1c4a494ee61c8d078e17063d68b6d9e272c82cbeb85d",
    "convert fst@3 only-identities-tight --to monoidal":
        "ba3ef3ae7b4bf14f224630f95061bd8106ead22342b6ca282e5eaf0037d307d4",
}


def _golden_digests(tmp_path, capsys) -> dict[str, str]:
    digests = {}

    def go(label, *argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        digests[label] = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
        return out

    def save(name, text):
        (tmp_path / name).write_text(text)
        return str(tmp_path / name)

    base = write(tmp_path, "chain2.json", category_to_json(chain_category(2)))
    emit = tmp_path / "found"
    found = json.loads(go("search 2-chain", "search", "--objects", base, "--emit", str(emit)))
    for name in found["files"]:
        path = str(emit / name)
        digests[f"emit {name}"] = hashlib.sha256((emit / name).read_bytes()).hexdigest()
        go(f"check {name}", "check", path)
        go(f"analyze {name}", "analyze", path, "--max-arity", "3")
        go(f"roundtrip {name}", "roundtrip", path, "--max-arity", "3")
        go(f"analyze {name} @4", "analyze", path)
        go(f"roundtrip {name} @4", "roundtrip", path)
        mc = save(f"{name}@3", go(f"convert {name} --to multicat @3", "convert", path,
                                   "--to", "multicat", "--max-arity", "3"))
        go(f"convert {name}@3 --to monoidal", "convert", mc, "--to", "monoidal")
    for label, structure in (("z2", z2_monoidal()), ("fst", two_chain_fst())):
        src = write(tmp_path, f"{label}.json", skewmon_to_json(structure))
        mc3 = save(f"{label}3.json", go(f"convert {label} --to multicat @3", "convert", src,
                                        "--to", "multicat", "--max-arity", "3"))
        mc2 = save(f"{label}2.json", go(f"convert {label} --to multicat @2", "convert", src,
                                        "--to", "multicat", "--max-arity", "2"))
        go(f"convert {label}@3 --to monoidal", "convert", mc3, "--to", "monoidal")
        go(f"roundtrip {label}@3", "roundtrip", mc3)
        go(f"check {label}@2", "check", mc2)
        go(f"analyze {label}@2", "analyze", mc2)
    only_id = write(tmp_path, "fst3_only_id.json", multicat_to_json(
        only_identities_tight(monoidal_to_multicat(two_chain_fst(), 3))))
    go("convert fst@3 only-identities-tight --to monoidal", "convert", only_id,
       "--to", "monoidal")
    return digests


def test_outputs_match_golden_digests(tmp_path, capsys):
    assert _golden_digests(tmp_path, capsys) == GOLDEN


# sha256 over "<exit code>\n<stdout>" of every command that
# test_classifier_reading_outputs_match_digest runs, in order.  It pins the
# outputs that read classifiers on structures beyond the 2-chain: the 3-chain
# and Z/2 search output, three products and the first projection on the
# parallel pair, and the failure witness of a multicategory that is not
# representable.
CLASSIFIER_RUNS_DIGEST = "0abb7419e77f6d6d5ce9b444f50282643d917f0c644380932156dc9530dc03a5"


def test_classifier_reading_outputs_match_digest(tmp_path, capsys):
    digest = hashlib.sha256()

    def go(name, *argv):
        """Run a command with its stdout in the file ``name``, which
        ``convert --to multicat`` of fst×snd fills with 7.9 MB."""
        out = tmp_path / name
        with open(out, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            code = main(list(argv))
        capsys.readouterr()
        digest.update(f"{code}\n".encode())
        with open(out, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        return str(out)

    z2, fst, snd = z2_monoidal(), two_chain_fst(), two_chain_snd()
    structures = [*enumerate_skew_structures(chain_category(3)),
                  *enumerate_skew_structures(z2_category()),
                  product_monoidal(z2, z2), product_monoidal(z2, fst),
                  product_monoidal(fst, snd), initial_projection(parallel_pair_category(), "x")]
    assert len(structures) == 35
    for c in structures:
        path = write(tmp_path, "monoidal.json", skewmon_to_json(c))
        go("out.json", "analyze", path, "--max-arity", "3")
        go("out.json", "analyze", path)
        go("out.json", "roundtrip", path)
        mc = go("multicat.json", "convert", path, "--to", "multicat", "--max-arity", "3")
        go("out.json", "convert", mc, "--to", "monoidal")
    for s in (monoidal_to_multicat(z2, 3), monoidal_to_multicat(fst, 3),
              only_identities_tight(monoidal_to_multicat(fst, 3))):
        path = write(tmp_path, "multicat.json", multicat_to_json(s))
        go("out.json", "analyze", path)
        go("out.json", "roundtrip", path)
        go("out.json", "convert", path, "--to", "monoidal")
    assert digest.hexdigest() == CLASSIFIER_RUNS_DIGEST


# sha256 over "<exit code>\n<stdout>" of `skewcat check` on every one-cell
# mutant of the tensor tables of fst, snd and Z/2, in the order of
# _tensor_cell_mutants.  It pins the tensor's functor-law report byte for byte.
TENSOR_MUTANTS_DIGEST = "3eca2d780fb9e83118f0b6a6880958e8a3ca9f95a51de1cf81131db86701a73f"


def _tensor_cell_mutants():
    """(label, document) for each cell of the tensor object and morphism
    tables set to every other object or morphism of the base."""
    for label, structure in (("fst", two_chain_fst()), ("snd", two_chain_snd()),
                             ("z2", z2_monoidal())):
        doc = skewmon_to_json(structure)
        values = {"objects": doc["category"]["objects"],
                  "morphisms": [m["id"] for m in doc["category"]["morphisms"]]}
        for table, ids in values.items():
            for row, cell in enumerate(doc["tensor"][table]):
                for value in ids:
                    if value != cell[2]:
                        mutant = copy.deepcopy(doc)
                        mutant["tensor"][table][row][2] = value
                        yield f"{label} {table} {row} {value}", mutant


def test_tensor_cell_mutants_match_digest_and_naive_oracle(tmp_path, capsys):
    digest = hashlib.sha256()
    verdicts = []
    for label, doc in _tensor_cell_mutants():
        code = main(["check", write(tmp_path, "mutant.json", doc)])
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
        if code != 2:
            verdicts.append((label, code == 0, naive_skew_monoidal_ok(skewmon_from_json(doc))))
    assert [v for v in verdicts if v[1] != v[2]] == []
    assert len(verdicts) == 48
    assert digest.hexdigest() == TENSOR_MUTANTS_DIGEST


# A structure under two spellings of its ids: plain, and with the characters
# "(", ")" and ",".  Both spellings sort alike, so every output of the second
# is the output of the first with the ids respelled.
SPELLINGS = {
    "z2": (z2_monoidal, {"x": ("AX", "a,b")}, {"e0": ("E0", "e(0)"), "e1": ("E1", "e(1)")}),
    "fst": (two_chain_fst, {"0": ("P", "a,("), "1": ("Q", "b)")},
            {"m00": ("mPP", "f(a,a)"), "m01": ("mPQ", "f(a,b)"), "m11": ("mQQ", "f(b,b)")}),
}


def _spelled(name, which):
    make, obj, mor = SPELLINGS[name]
    return renamed(make(), {k: v[which] for k, v in obj.items()},
                   {k: v[which] for k, v in mor.items()})


def _respell(name, text):
    _, obj, mor = SPELLINGS[name]
    table = dict((*obj.values(), *mor.values()))
    pattern = "|".join(sorted(table, key=len, reverse=True))
    return re.sub(rf"\b(?:{pattern})\b", lambda m: table[m.group()], text)


@pytest.mark.parametrize("name", sorted(SPELLINGS))
def test_ids_with_parentheses_and_commas_behave_like_plain_ids(tmp_path, capsys, name):
    outputs = []
    for which in (0, 1):
        out = {}

        def go(label, *argv):
            out[label] = (main(list(argv)), capsys.readouterr().out)
            return out[label][1]

        structure = _spelled(name, which)
        d = tmp_path / str(which)
        d.mkdir()
        mon = write(d, "mon.json", skewmon_to_json(structure))
        go("check", "check", mon)
        go("analyze", "analyze", mon, "--max-arity", "3")
        go("roundtrip", "roundtrip", mon, "--max-arity", "3")
        (d / "multi.json").write_text(
            go("convert", "convert", mon, "--to", "multicat", "--max-arity", "3"))
        multi = str(d / "multi.json")
        go("convert back", "convert", multi, "--to", "monoidal")
        go("check multicat", "check", multi)
        go("analyze multicat", "analyze", multi)
        go("roundtrip multicat", "roundtrip", multi)
        base = write(d, "base.json", category_to_json(structure.base))
        go("search", "search", "--objects", base, "--emit", str(d / "found"))
        for f in sorted((d / "found").iterdir()):
            out[f"emit {f.name}"] = (None, f.read_text())
        outputs.append(out)
    plain, spelled = outputs
    assert all(code == 0 for code, _ in spelled.values() if code is not None)
    assert {k: (code, _respell(name, text)) for k, (code, text) in plain.items()} == spelled


def test_object_ids_with_separators_name_distinct_underlying_morphisms(tmp_path, capsys):
    # map ids repeat across homs, so underlying morphisms are named "a>b:m";
    # unescaped, "a" -> "a>a" and "a>a" -> "a" would both be "a>a>a:m"
    path = write(tmp_path, "t.json",
                 multicat_to_json(terminal_multicat(make_R_operad(), 3, ("a", "a>a"))))
    for command in ("check", "analyze", "roundtrip"):
        assert run(capsys, command, path)[0] == 0
    code, out, _ = run(capsys, "convert", path, "--to", "monoidal")
    assert code == 0
    assert sorted(m["id"] for m in out["category"]["morphisms"]) == [
        "a>a:m", "a>a\\>a:m", "a\\>a>a:m", "a\\>a>a\\>a:m"]


def test_parser_reused_across_calls_gives_the_output_of_separate_runs(tmp_path, capsys):
    # main builds its parser once per process; a call that argparse rejects
    # leaves it as it was, so each call answers as a fresh process would
    good = write(tmp_path, "z2.json", skewmon_to_json(z2_monoidal()))
    calls = [["check"], ["convert", good, "--to", "sideways"], ["analyze", "--help"],
             ["check", good], ["convert", good, "--to", "multicat", "--max-arity", "2"]]
    runner = "import sys; from skewcat.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(skewcat.__file__)), os.environ.get("PYTHONPATH", "")])}
    codes = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        alone = subprocess.run([sys.executable, "-c", runner, *argv], env=env,
                               capture_output=True, text=True)
        assert (code, captured.out, captured.err) == (alone.returncode, alone.stdout, alone.stderr)
        codes.append(code)
    assert codes == [2, 2, 0, 0, 0]


# sha256 of "<exit code>\n<stdout>" of the writer at the CLI's default
# arity 4, and of check and analyze reading its snd@4 file back.
GOLDEN_AT_4 = {
    "convert z2 --to multicat @4":
        "515c672e7ab4882a60d94a6396be8a6f563294540b226a38f6c333ec81282755",
    "convert snd --to multicat @4":
        "2be5794dd60023318c72e78bb6886e44640179bb3ffd7e2da9b999bd17fdd613",
    "check snd@4":
        "17f9c8e3c76dcba62dd1b3a9ee88b57c13bbf985642ce938a8ec814b3d7e4ca2",
    "analyze snd@4":
        "9128c4d6ccdb029ad8a2966e6eb31746e41bd91329ee274791becea5197dead5",
}


def test_writer_at_arity_4_matches_digests(tmp_path, capsys):
    digests = {}

    def go(label, name, *argv):
        """Run a command with its stdout in the file ``name``."""
        out = tmp_path / name
        with open(out, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            code = main(list(argv))
        capsys.readouterr()
        digests[label] = hashlib.sha256(f"{code}\n".encode() + out.read_bytes()).hexdigest()
        return str(out)

    z2 = write(tmp_path, "z2.json", skewmon_to_json(z2_monoidal()))
    snd = write(tmp_path, "snd.json", skewmon_to_json(two_chain_snd()))
    go("convert z2 --to multicat @4", "out.json", "convert", z2, "--to", "multicat")
    snd4 = go("convert snd --to multicat @4", "snd4.json", "convert", snd, "--to", "multicat")
    go("check snd@4", "out.json", "check", snd4)
    go("analyze snd@4", "out.json", "analyze", snd4)
    assert digests == GOLDEN_AT_4


def test_substitution_table_errors_keep_their_text(tmp_path, capsys):
    # the messages name a row as (outer hom key, outer id, ((x, inputs, id)
    # of each inner)), whatever key the tables use inside
    data = multicat_to_json(monoidal_to_multicat(two_chain_fst(), 2))
    rows = data["subst"]

    def is_identity(f):
        return f["x"] == "t" and f["inputs"] == [f["output"]] and \
            f["id"] == data["identities"][f["output"]]

    def error(subst):
        path = write(tmp_path, "bad.json", {**data, "subst": subst})
        code, out, _ = run(capsys, "check", path)
        assert code == 2
        return out["error"]

    def moved(r):
        return sum(not is_identity(f) for f in r["inners"])

    circ = next(i for i, r in enumerate(rows) if moved(r) == 1 and len(r["inners"]) == 2)
    full = next(i for i, r in enumerate(rows) if moved(r) == 2)
    mixed = next(i for i, r in enumerate(rows) if len(set(r["outer"]["inputs"])) == 2)
    swapped = copy.deepcopy(rows)
    swapped[mixed]["inners"].reverse()
    assert error(rows[:circ] + rows[circ + 1:]) == (
        "no substitution entry for (('l', ('0', '0'), '0'), 'm00', "
        "(('l', (), 'm00'), ('t', ('0',), 'm00')))")
    assert error(rows[:full] + rows[full + 1:]) == (
        "no substitution entry for (('l', ('0', '0'), '0'), 'm00', "
        "(('l', (), 'm00'), ('l', (), 'm00')))")
    assert error(swapped) == (
        "subst inner outputs ['1', '0'] differ from the inputs of outer ('l', ('0', '1'), '0')")
    assert error(rows + [rows[circ]]) == (
        "duplicate subst row for (('l', ('0', '0'), '0'), 'm00', "
        "(('l', (), 'm00'), ('t', ('0',), 'm00')))")
