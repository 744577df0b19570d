"""The three workloads: set-up, operation lists and hand-written answers.

A workload's set-up writes its input files; its pass is a generator that
yields operations one at a time and receives each outcome, so later
operations can run on files that earlier ones wrote.  Every operation
reloads its input from a file, so no per-instance cache of the library
survives from one operation to the next.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import corpus
# Library functions are looked up on their module at call time, so that the
# traced run's wrappers, which replace module attributes, see these calls.
from skewcat import catoperad, colaxalg, correspondence, skewmon, tmulticat


@dataclass
class Op:
    """One operation: a CLI call ``skewcat <argv>`` or a library call.

    ``kind`` names the end-to-end metric the operation's time is summed into;
    ``save`` keeps its standard output as a file for later operations."""

    name: str
    kind: str
    expect: Callable[["Outcome"], str | None]
    argv: list[str] | None = None
    call: Callable[[], list] | None = None
    label: list[str] = field(default_factory=list)
    save: str | None = None


@dataclass
class Outcome:
    exit: int
    stdout_path: str | None = None
    value: dict | None = None

    def doc(self) -> dict:
        if self.value is None:
            with open(self.stdout_path, encoding="utf-8") as fh:
                self.value = json.load(fh)
        return self.value


# Operations known to answer wrongly: `convert` and `roundtrip` translate a
# law-failing input and exit 0 instead of 1.  They still count as failed; they
# do not make the run incorrect, so the defect stays visible until it is fixed
# and any other wrong answer still makes the run incorrect.
KNOWN_DEFECTS = {"roundtrip pentagon", "convert pentagon --to multicat",
                 "convert swapped --to monoidal", "roundtrip swapped"}


# -- expected answers ------------------------------------------------------------

def expect(code: int, *verdicts: Callable[[dict], str | None]):
    def check(out: Outcome) -> str | None:
        if out.exit != code:
            return f"exit {out.exit}, expected {code}"
        for verdict in verdicts:
            problem = verdict(out.doc())
            if problem:
                return problem
        return None
    return check


def no_violations(doc):
    n = len(doc["violations"])
    return f"{n} violations, expected none" if n else None


def law_reported(law):
    def verdict(doc):
        laws = {v["law"] for v in doc["violations"]}
        return None if law in laws else f"laws {sorted(laws)} do not include {law}"
    return verdict


def fields(**want):
    def verdict(doc):
        got = {k: doc.get(k) for k in want}
        return None if got == want else f"{got}, expected {want}"
    return verdict


def multimaps(total):
    def verdict(doc):
        n = sum(len(h["maps"]) for h in doc["homs"])
        return None if n == total else f"{n} multimaps, expected {total}"
    return verdict


def monoidal_on(objects):
    def verdict(doc):
        n = len(doc["category"]["objects"])
        return None if n == objects else f"{n} objects, expected {objects}"
    return verdict


# -- shared helpers ----------------------------------------------------------------

class Context:
    """Paths of one workload's inputs and outputs, under its work directory."""

    def __init__(self, work: str, seed: int):
        self.work = work
        self.seed = seed
        os.makedirs(work, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def write(self, name: str, doc: dict) -> None:
        """Writes a document the way the CLI prints one."""
        with open(self.path(name), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _stored_multicat(monoidal: dict, arity: int) -> dict:
    """The skew multicategory of a skew monoidal document, as ``skewcat
    convert --to multicat`` writes it."""
    return tmulticat.multicat_to_json(correspondence.monoidal_to_multicat(
        skewmon.skewmon_from_json(monoidal), arity))


def _colax_check(path: str, arity: int):
    def call():
        with open(path, encoding="utf-8") as fh:
            c = skewmon.skewmon_from_json(json.load(fh))
        return colaxalg.check_colax_algebra(correspondence.monoidal_to_colax(c, arity))
    return call


def _operad_check(name: str):
    def call():
        return catoperad.check_operad_axioms(catoperad.operad_by_name(name))
    return call


# -- laws --------------------------------------------------------------------------

def setup_laws(ctx: Context) -> None:
    docs, _ = corpus.build(ctx.seed)
    for name in ("z2", "fst", "snd", "pentagon"):
        ctx.write(f"{name}.json", docs[name])
    ctx.write("z2_3.json", _stored_multicat(docs["z2"], 3))
    ctx.write("snd_4.json", _stored_multicat(docs["snd"], 4))
    ctx.write("fst_3.json", _stored_multicat(docs["fst"], 3))


def pass_laws(ctx: Context):
    p = ctx.path
    representable = dict(weakly_representable=True, left_representable=True)
    yield Op("check z2@3", "check", expect(0, no_violations), ["check", p("z2_3.json")])
    yield Op("check snd@4", "check", expect(0, no_violations), ["check", p("snd_4.json")])
    yield Op("analyze snd@4", "analyze", expect(0, fields(**representable, closed=False)),
             ["analyze", p("snd_4.json")])
    yield Op("check fst@3", "check", expect(0, no_violations), ["check", p("fst_3.json")])
    yield Op("analyze fst@3", "analyze", expect(0, fields(**representable, closed=True)),
             ["analyze", p("fst_3.json")])
    for name in ("z2", "fst"):
        yield Op(f"analyze {name} monoidal", "analyze",
                 expect(0, fields(**representable, closed=True)),
                 ["analyze", p(f"{name}.json"), "--max-arity", "4"])
    for name in ("z2", "fst", "snd"):
        yield Op(f"check {name} monoidal", "check", expect(0, no_violations),
                 ["check", p(f"{name}.json")])
    yield Op("check pentagon", "check", expect(1, law_reported("A1")),
             ["check", p("pentagon.json")])
    for name in ("z2", "fst", "snd"):
        yield Op(f"check_colax_algebra {name}@3", "colax_check", expect(0, no_violations),
                 call=_colax_check(p(f"{name}.json"), 3),
                 label=["check_colax_algebra", f"monoidal_to_colax({name}.json, 3)"])
    for name in ("N", "R", "L"):
        yield Op(f"check_operad_axioms {name}", "operad_check", expect(0, no_violations),
                 call=_operad_check(name), label=["check_operad_axioms", name])


# -- convert -----------------------------------------------------------------------

def setup_convert(ctx: Context) -> None:
    docs, z2_name = corpus.build(ctx.seed)
    for name in ("z2", "fst", "snd", "pentagon"):
        ctx.write(f"{name}.json", docs[name])
    swapped = _stored_multicat(docs["z2"], 3)
    corpus.swap_one_subst(swapped, z2_name)
    ctx.write("swapped.json", swapped)


# fst stays at arity 3: at arity 4 its output is 142 MB and the writer peaks
# near 1.5 GB of resident memory, too much for one benchmark run.
CONVERT_ARITY = {"z2": 4, "snd": 4, "fst": 3}


def pass_convert(ctx: Context):
    p = ctx.path
    docs, _ = corpus.build(ctx.seed)
    for name, arity in CONVERT_ARITY.items():
        yield Op(f"convert {name} --to multicat", "convert_multicat",
                 expect(0, multimaps(corpus.naive_multimap_total(docs[name], arity))),
                 ["convert", p(f"{name}.json"), "--to", "multicat", "--max-arity", str(arity)],
                 save=p(f"{name}_{arity}.json"))
    for name in ("fst_3", "snd_4"):
        yield Op(f"convert {name} --to monoidal", "convert_monoidal", expect(0, monoidal_on(2)),
                 ["convert", p(f"{name}.json"), "--to", "monoidal"])
    for name in ("z2_4", "snd_4"):
        yield Op(f"roundtrip {name}", "roundtrip", expect(0, fields(isomorphic=True)),
                 ["roundtrip", p(f"{name}.json")])
    # Both mutants fail their own laws, so every translation of them must
    # exit 1 (the exit-code contract in the README).
    yield Op("roundtrip pentagon", "roundtrip", expect(1),
             ["roundtrip", p("pentagon.json"), "--max-arity", "4"])
    yield Op("convert pentagon --to multicat", "convert_multicat", expect(1),
             ["convert", p("pentagon.json"), "--to", "multicat", "--max-arity", "4"])
    yield Op("convert swapped --to monoidal", "convert_monoidal", expect(1),
             ["convert", p("swapped.json"), "--to", "monoidal"])
    yield Op("roundtrip swapped", "roundtrip", expect(1), ["roundtrip", p("swapped.json")])


# -- session -----------------------------------------------------------------------

SEARCH_COUNTS = {"chain1": 1, "chain2": 4, "chain3": 29, "z2cat": 2}


def setup_session(ctx: Context) -> None:
    docs, _ = corpus.build(ctx.seed)
    for name in SEARCH_COUNTS:
        ctx.write(f"{name}.json", docs[name])


def pass_session(ctx: Context):
    emitted = []
    for name, count in SEARCH_COUNTS.items():
        out_dir = ctx.path(f"found_{name}")
        out = yield Op(f"search {name}", "search", expect(0, fields(count=count)),
                       ["search", "--objects", ctx.path(f"{name}.json"), "--emit", out_dir])
        if out.exit == 0:
            emitted += [(f"{name}/{f}", os.path.join(out_dir, f)) for f in out.doc()["files"]]
    for label, path in emitted:
        yield Op(f"check {label}", "check", expect(0, no_violations), ["check", path])
        yield Op(f"analyze {label}", "analyze", expect(0, fields(checked_up_to_arity=4)),
                 ["analyze", path, "--max-arity", "4"])
        yield Op(f"roundtrip {label}", "roundtrip", expect(0, fields(isomorphic=True)),
                 ["roundtrip", path, "--max-arity", "4"])


WORKLOADS = {
    "laws": (setup_laws, pass_laws),
    "convert": (setup_convert, pass_convert),
    "session": (setup_session, pass_session),
}
