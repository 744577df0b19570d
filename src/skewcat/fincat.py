"""Explicit finite categories given by composition tables, with total law checkers.

Objects and morphisms are identified by strings; equality of morphisms is
equality of ids.  All structures are immutable after construction and every
operation here is a pure function, so values can be shared freely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


class StructureError(ValueError):
    """A table is malformed (dangling ids, missing entries, bad keys).

    Distinct from a law violation: a structure that raises this cannot even
    be asked whether it satisfies the category laws.
    """


@dataclass(frozen=True)
class Violation:
    """One failed law instance, naming the offending cells."""

    law: str
    details: tuple[tuple[str, str], ...]

    @staticmethod
    def of(law: str, **details: str) -> "Violation":
        return Violation(law, tuple(sorted(details.items())))

    def to_dict(self) -> dict:
        return {"law": self.law, "details": dict(self.details)}


def report_to_json(violations: list[Violation]) -> list[dict]:
    return [v.to_dict() for v in violations]


@dataclass(frozen=True)
class FinCategory:
    """A finite category: objects, morphisms with endpoints, identities, and a
    composition table keyed by composable pairs (g, f) with tgt(f) = src(g)."""

    objects: tuple[str, ...]
    morphisms: tuple[tuple[str, str, str], ...]  # (id, src, tgt)
    identity: dict[str, str]                     # object -> morphism id
    compose: dict[tuple[str, str], str]          # (g, f) -> g after f

    def __post_init__(self):
        object.__setattr__(self, "_src", {m: s for m, s, _ in self.morphisms})
        object.__setattr__(self, "_tgt", {m: t for m, _, t in self.morphisms})
        homs: dict[tuple[str, str], list[str]] = {}
        for m, s, t in self.morphisms:
            homs.setdefault((s, t), []).append(m)
        object.__setattr__(self, "_hom", {k: tuple(v) for k, v in homs.items()})
        if len(set(self.objects)) != len(self.objects):
            raise StructureError("duplicate object ids")
        if len(self._src) != len(self.morphisms):
            raise StructureError("duplicate morphism ids")

    # -- lookups ---------------------------------------------------------

    def src(self, m: str) -> str:
        return self._src[m]

    def tgt(self, m: str) -> str:
        return self._tgt[m]

    def has_morphism(self, m: str) -> bool:
        return m in self._src

    def id_of(self, obj: str) -> str:
        return self.identity[obj]

    def comp(self, g: str, f: str) -> str:
        """g after f."""
        return self.compose[(g, f)]

    def comp_seq(self, *ms: str | None) -> str | None:
        """Composite of a path listed source-to-target: comp_seq(f, g) = g after f.
        None when a step is None or a pair has no composition entry."""
        acc = ms[0]
        for m in ms[1:]:
            if acc is None or m is None:
                return None
            acc = self.compose.get((m, acc))
        return acc

    def hom(self, a: str, b: str) -> tuple[str, ...]:
        return self._hom.get((a, b), ())

    def is_identity(self, m: str) -> bool:
        return self.identity.get(self._src[m]) == m

    def inverse(self, m: str) -> str | None:
        a, b = self._src[m], self._tgt[m]
        for g in self.hom(b, a):
            if self.compose.get((g, m)) == self.identity.get(a) and \
               self.compose.get((m, g)) == self.identity.get(b):
                return g
        return None

    def is_iso(self, m: str) -> bool:
        return self.inverse(m) is not None

    def canonical(self) -> "FinCategory":
        """Copy with objects and morphisms sorted; used for table comparison."""
        return FinCategory(
            tuple(sorted(self.objects)),
            tuple(sorted(self.morphisms)),
            dict(sorted(self.identity.items())),
            dict(sorted(self.compose.items())),
        )


def check_category(cat: FinCategory) -> list[Violation]:
    """All category-law violations; empty iff the table is a category.

    Referential problems (ids that do not resolve, composition entries on
    non-composable pairs) raise StructureError instead of being reported.
    """
    objset = set(cat.objects)
    for m, s, t in cat.morphisms:
        if s not in objset or t not in objset:
            raise StructureError(f"morphism {m!r} has dangling endpoint")
    for obj in cat.objects:
        if obj not in cat.identity:
            raise StructureError(f"object {obj!r} has no identity")
        i = cat.identity[obj]
        if not cat.has_morphism(i):
            raise StructureError(f"identity {i!r} of {obj!r} is not a morphism")
        if cat.src(i) != obj or cat.tgt(i) != obj:
            raise StructureError(f"identity {i!r} of {obj!r} has wrong endpoints")
    for obj in cat.identity:
        if obj not in objset:
            raise StructureError(f"identity table names unknown object {obj!r}")
    for (g, f), gf in cat.compose.items():
        if not (cat.has_morphism(g) and cat.has_morphism(f) and cat.has_morphism(gf)):
            raise StructureError(f"composition entry ({g!r},{f!r}) has dangling id")
        if cat.tgt(f) != cat.src(g):
            raise StructureError(f"composition entry ({g!r},{f!r}) is not composable")

    out: list[Violation] = []
    mors = [m for m, _, _ in cat.morphisms]
    for f in mors:
        for g in mors:
            if cat.tgt(f) != cat.src(g):
                continue
            gf = cat.compose.get((g, f))
            if gf is None:
                out.append(Violation.of("composition-total", g=g, f=f))
                continue
            if cat.src(gf) != cat.src(f) or cat.tgt(gf) != cat.tgt(g):
                out.append(Violation.of("composition-endpoints", g=g, f=f, gf=gf))
    for f in mors:
        i_t = cat.identity.get(cat.tgt(f))
        i_s = cat.identity.get(cat.src(f))
        if i_t is not None and cat.compose.get((i_t, f)) != f:
            out.append(Violation.of("identity-left", f=f))
        if i_s is not None and cat.compose.get((f, i_s)) != f:
            out.append(Violation.of("identity-right", f=f))
    for f in mors:
        for g in mors:
            if cat.tgt(f) != cat.src(g) or (g, f) not in cat.compose:
                continue
            for h in mors:
                if cat.tgt(g) != cat.src(h) or (h, g) not in cat.compose:
                    continue
                left = cat.compose.get((h, cat.compose[(g, f)]))
                right = cat.compose.get((cat.compose[(h, g)], f))
                if left != right:
                    out.append(Violation.of("associativity", h=h, g=g, f=f,
                                            left=str(left), right=str(right)))
    return out


@dataclass(frozen=True)
class Functor:
    source: FinCategory
    target: FinCategory
    obj_map: dict[str, str]
    mor_map: dict[str, str]


def check_functor(fun: Functor) -> list[Violation]:
    src, tgt = fun.source, fun.target
    for a in src.objects:
        if a not in fun.obj_map:
            raise StructureError(f"object {a!r} not mapped")
        if fun.obj_map[a] not in set(tgt.objects):
            raise StructureError(f"object {a!r} maps outside the target")
    for m, _, _ in src.morphisms:
        if m not in fun.mor_map:
            raise StructureError(f"morphism {m!r} not mapped")
        if not tgt.has_morphism(fun.mor_map[m]):
            raise StructureError(f"morphism {m!r} maps outside the target")

    out: list[Violation] = []
    for m, s, t in src.morphisms:
        fm = fun.mor_map[m]
        if tgt.src(fm) != fun.obj_map[s] or tgt.tgt(fm) != fun.obj_map[t]:
            out.append(Violation.of("functor-endpoints", f=m, image=fm))
    for a in src.objects:
        if fun.mor_map[src.id_of(a)] != tgt.id_of(fun.obj_map[a]):
            out.append(Violation.of("functor-identity", obj=a))
    for (g, f), gf in src.compose.items():
        pair = (fun.mor_map[g], fun.mor_map[f])
        if pair in tgt.compose:
            if tgt.compose[pair] != fun.mor_map[gf]:
                out.append(Violation.of("functor-composition", g=g, f=f))
        else:
            out.append(Violation.of("functor-composition", g=g, f=f))
    return out


# -- opposite ----------------------------------------------------------------

def opposite_category(c: FinCategory) -> FinCategory:
    morphisms = tuple((m, t, s) for m, s, t in c.morphisms)
    compose = {(f, g): gf for (g, f), gf in c.compose.items()}
    return FinCategory(c.objects, morphisms, dict(c.identity), compose)


def is_bijection_onto(images: list, target: tuple) -> bool:
    """The listed images are distinct and are exactly the members of target."""
    return (len(images) == len(target)
            and len(set(images)) == len(images)
            and set(images) == set(target))


def _object_bijections(src_objects, tgt_objects, sizes: dict, image_size):
    """Each bijection sigma of the sorted src_objects onto a permutation of
    the sorted tgt_objects, in ``itertools.permutations`` order, with
    image_size(key, sigma) == n for each hom key and size n in sizes."""
    if len(src_objects) != len(tgt_objects):
        return
    src = sorted(src_objects)
    for perm in itertools.permutations(sorted(tgt_objects)):
        sigma = dict(zip(src, perm))
        if all(image_size(key, sigma) == n for key, n in sizes.items()):
            yield sigma


def _hom_bijections(src_ids, tgt_ids, forced: dict[str, str]):
    """Each bijection of src_ids onto tgt_ids that extends the forced pairs,
    as a dict, in the ``itertools.permutations`` order of tgt_ids: a forced
    pair never decides a lexicographic comparison."""
    images = set(forced.values())
    src_rest = [x for x in src_ids if x not in forced]
    tgt_rest = [y for y in tgt_ids if y not in images]
    for perm in itertools.permutations(tgt_rest):
        table = dict(forced)
        table.update(zip(src_rest, perm))
        yield table


def preimage(candidates, image, target):
    """The first candidate that image sends to target, or None: one value of
    the inverse of a bijection given by its forward map."""
    for c in candidates:
        if image(c) == target:
            return c
    return None


def is_epimorphism(cat: FinCategory, f: str) -> bool:
    """Right-cancellable: g∘f = h∘f forces g = h, over all parallel pairs."""
    if not cat.has_morphism(f):
        raise StructureError(f"no morphism {f!r}")
    b = cat.tgt(f)
    outgoing = [m for m, s, _ in cat.morphisms if s == b]
    for g in outgoing:
        for h in outgoing:
            if cat.tgt(g) != cat.tgt(h):
                continue
            if cat.compose.get((g, f)) == cat.compose.get((h, f)) and g != h:
                return False
    return True


# -- JSON --------------------------------------------------------------------

_CAT_KEYS = {"objects", "morphisms", "identities", "compose"}


def category_to_json(cat: FinCategory) -> dict:
    return {
        "objects": list(cat.objects),
        "morphisms": [{"id": m, "src": s, "tgt": t} for m, s, t in cat.morphisms],
        "identities": dict(cat.identity),
        "compose": [{"g": g, "f": f, "gf": gf}
                    for (g, f), gf in sorted(cat.compose.items())],
    }


def _no_repeat(rows: dict, key, kind: str) -> None:
    if key in rows:
        raise StructureError(f"duplicate {kind} row for {key!r}")


def _json_array(value, what: str) -> list:
    if not isinstance(value, list):
        raise StructureError(f"{what} must be a JSON array")
    return value


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise StructureError(f"{what} must be a JSON object")
    return value


def _str_id(value, what: str) -> str:
    if not isinstance(value, str):
        raise StructureError(f"{what} must be a string id, got {value!r}")
    return value


def _entry(row, keys: tuple[str, ...], kind: str) -> tuple[str, ...]:
    """The string ids of a JSON object row with exactly the given keys."""
    if not isinstance(row, dict) or set(row) != set(keys):
        raise StructureError(f"{kind} entries must have keys {'/'.join(keys)}")
    return tuple(_str_id(row[k], f"{kind} {k}") for k in keys)


def category_from_json(data: dict) -> FinCategory:
    """Read a category, requiring string ids and at most one row per
    composable pair."""
    if not isinstance(data, dict) or set(data) != _CAT_KEYS:
        raise StructureError(f"category object must have exactly the keys {sorted(_CAT_KEYS)}")
    objects = tuple(_str_id(x, "object") for x in _json_array(data["objects"], "objects"))
    morphisms = tuple(_entry(m, ("id", "src", "tgt"), "morphism")
                      for m in _json_array(data["morphisms"], "morphisms"))
    identity = {k: _str_id(v, f"identity of {k!r}")
                for k, v in _json_object(data["identities"], "identities").items()}
    compose = {}
    for e in _json_array(data["compose"], "compose"):
        g, f, gf = _entry(e, ("g", "f", "gf"), "compose")
        _no_repeat(compose, (g, f), "compose")
        compose[(g, f)] = gf
    return FinCategory(objects, morphisms, identity, compose)
