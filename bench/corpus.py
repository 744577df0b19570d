"""The benchmark corpus, written as plain JSON documents.

Every structure is built here from its definition, independently of the
library and of the test suite.  A seeded bijection renames every object and
morphism id (the operad ids ``t``/``l`` are not corpus ids and stay fixed), so
no code path can key on a literal id while every expected answer, which is
invariant under renaming, stays valid.
"""

from __future__ import annotations

import random


def _category(objects, morphisms, identities, compose, name) -> dict:
    """Category JSON; ``morphisms`` are (id, src, tgt) and ``compose`` maps
    (g, f) to g after f, all in canonical ids."""
    return {
        "objects": [name(a) for a in objects],
        "morphisms": [{"id": name(m), "src": name(s), "tgt": name(t)}
                      for m, s, t in morphisms],
        "identities": {name(a): name(identities[a]) for a in objects},
        "compose": [{"g": name(g), "f": name(f), "gf": name(gf)}
                    for (g, f), gf in sorted(compose.items())],
    }


def chain_tables(size: int):
    """The poset 0 < 1 < ... < size-1; the morphism a <= b is ``m{a}{b}``."""
    objs = [str(k) for k in range(size)]
    mors = [(f"m{a}{b}", a, b) for a in objs for b in objs if int(a) <= int(b)]
    ids = {a: f"m{a}{a}" for a in objs}
    compose = {(f"m{b}{c}", f"m{a}{b}"): f"m{a}{c}"
               for a in objs for b in objs for c in objs if int(a) <= int(b) <= int(c)}
    return objs, mors, ids, compose


def z2_tables():
    """The group of order two as a one-object category; ``e0`` is the identity."""
    compose = {(f"e{a}", f"e{b}"): f"e{(a + b) % 2}" for a in (0, 1) for b in (0, 1)}
    return ["x"], [("e0", "x", "x"), ("e1", "x", "x")], {"x": "e0"}, compose


def _monoidal(tables, t_obj, t_mor, unit, alpha, lam, rho, name) -> dict:
    objs, mors, ids, compose = tables
    return {
        "category": _category(objs, mors, ids, compose, name),
        "tensor": {
            "objects": [[name(a), name(b), name(t_obj(a, b))] for a in objs for b in objs],
            "morphisms": [[name(f), name(g), name(t_mor(f, g))]
                          for f, _, _ in mors for g, _, _ in mors],
        },
        "unit": name(unit),
        "alpha": [[name(a), name(b), name(c), name(alpha(a, b, c))]
                  for a in objs for b in objs for c in objs],
        "lambda": [[name(a), name(lam(a))] for a in objs],
        "rho": [[name(a), name(rho(a))] for a in objs],
    }


def z2_monoidal(name, alpha: str = "e0") -> dict:
    """Addition on Z/2; ``alpha="e1"`` gives the pentagon (A1) mutant."""
    return _monoidal(z2_tables(), lambda a, b: "x",
                     lambda f, g: f"e{(int(f[1]) + int(g[1])) % 2}", "x",
                     lambda a, b, c: alpha, lambda a: "e0", lambda a: "e0", name)


def fst_monoidal(name) -> dict:
    """First projection on the 2-chain, unit at the bottom."""
    return _monoidal(chain_tables(2), lambda a, b: a, lambda f, g: f, "0",
                     lambda a, b, c: f"m{a}{a}", lambda a: f"m0{a}",
                     lambda a: f"m{a}{a}", name)


def snd_monoidal(name) -> dict:
    """Second projection on the 2-chain, unit at the top."""
    return _monoidal(chain_tables(2), lambda a, b: b, lambda f, g: g, "1",
                     lambda a, b, c: f"m{c}{c}", lambda a: f"m{a}{a}",
                     lambda a: f"m{a}1", name)


def relabel_for(rng: random.Random, tables):
    """A seeded bijection from the canonical ids of one structure to fresh
    ids, as a function.  Fresh ids are drawn without replacement from
    two-digit numbers, so their lexicographic order is an arbitrary
    permutation of the canonical order."""
    objs, mors, _, _ = tables
    names = {a: f"o{k}" for a, k in zip(objs, rng.sample(range(10, 100), len(objs)))}
    names.update({m: f"f{k}" for (m, _, _), k in zip(mors, rng.sample(range(10, 100), len(mors)))})
    return names.__getitem__


def category_doc(rng: random.Random, tables) -> dict:
    return _category(*tables, relabel_for(rng, tables))


def swap_one_subst(doc: dict, name) -> None:
    """Turn a Z/2 multicategory document into a law-failing mutant: the
    substitution of two copies of the generator into the tight binary
    generator gets the other map of its (two-element) hom as its result."""
    gen = name("e1")
    for row in doc["subst"]:
        outer, inners = row["outer"], row["inners"]
        if (outer["x"], outer["id"], len(outer["inputs"])) == ("t", gen, 2) and \
                all((f["x"], f["id"], len(f["inputs"])) == ("t", gen, 1) for f in inners):
            row["result"] = name("e0") if row["result"] == gen else gen
            return
    raise ValueError("no tight binary generator row to mutate")


def naive_multimap_total(doc: dict, max_arity: int) -> int:
    """Multimaps of the skew multicategory of a skew monoidal document, by
    direct count: a tight n-ary hom out of a1..an into b is the base hom out
    of the left-bracketed tensor ((a1 a2) ...) an, a loose one the same with
    the unit prepended, and the nullary (loose) hom is the hom out of the unit."""
    cat = doc["category"]
    objs = cat["objects"]
    hom_size: dict[tuple[str, str], int] = {}
    for m in cat["morphisms"]:
        hom_size[(m["src"], m["tgt"])] = hom_size.get((m["src"], m["tgt"]), 0) + 1
    tensor = {(a, b): ab for a, b, ab in doc["tensor"]["objects"]}
    unit = doc["unit"]

    def out_of(word: str) -> int:
        return sum(hom_size.get((word, b), 0) for b in objs)

    total = out_of(unit)
    words = {"t": list(objs), "l": [tensor[(unit, a)] for a in objs]}
    for _ in range(1, max_arity + 1):
        total += sum(out_of(w) for ws in words.values() for w in ws)
        words = {x: [tensor[(w, a)] for w in ws for a in objs] for x, ws in words.items()}
    return total


def build(seed: int):
    """All corpus documents for one seed, and the Z/2 renaming (the mutants
    are defined in terms of its generator)."""
    rng = random.Random(seed)
    z2 = relabel_for(rng, z2_tables())
    chain2 = chain_tables(2)
    docs = {
        "z2": z2_monoidal(z2),
        "pentagon": z2_monoidal(z2, alpha="e1"),
        "fst": fst_monoidal(relabel_for(rng, chain2)),
        "snd": snd_monoidal(relabel_for(rng, chain2)),
        "chain1": category_doc(rng, chain_tables(1)),
        "chain2": category_doc(rng, chain2),
        "chain3": category_doc(rng, chain_tables(3)),
        "z2cat": category_doc(rng, z2_tables()),
    }
    return docs, z2
