"""Skew monoidal categories on explicit finite categories.

The tensor is a pair of tables, on pairs of objects and on pairs of
morphisms, checked to be a functor C × C → C; the associativity and unit
constraints are component tables that need not be invertible.  The checker
enforces naturality plus the five coherence axioms

    A1  (1_a ⊗ α_{b,c,d}) ∘ α_{a,b⊗c,d} ∘ (α_{a,b,c} ⊗ 1_d)
          = α_{a,b,c⊗d} ∘ α_{a⊗b,c,d}
    A2  λ_{a⊗b} ∘ α_{i,a,b} = λ_a ⊗ 1_b
    A3  α_{a,b,i} ∘ ρ_{a⊗b} = 1_a ⊗ ρ_b
    A4  (1_a ⊗ λ_b) ∘ α_{a,i,b} ∘ (ρ_a ⊗ 1_b) = 1_{a⊗b}
    A5  λ_i ∘ ρ_i = 1_i

at every object tuple.  A malformed table is a structural error, raised when
the structure is built, rather than an axiom failure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fincat import (
    FinCategory, Functor, StructureError, Violation, _hom_bijections, _json_array,
    _no_repeat, _object_bijections, _str_id, category_from_json, category_to_json,
    check_category, check_functor, is_bijection_onto, is_epimorphism,
)


@dataclass(frozen=True)
class SkewMonoidalCategory:
    """Tables of a skew monoidal category.  Every instance is built by
    ``make_skew_monoidal``: each table is total on the base, has no other
    key and takes values in the base, and the unit is an object."""

    base: FinCategory
    tensor_obj: dict[tuple[str, str], str]  # (a, b) -> a ⊗ b
    tensor_mor: dict[tuple[str, str], str]  # (f, g) -> f ⊗ g
    unit: str
    alpha: dict[tuple[str, str, str], str]
    lambda_: dict[str, str]
    rho: dict[str, str]

    def t_obj(self, a: str, b: str) -> str:
        return self.tensor_obj[(a, b)]

    def t_mor(self, f: str, g: str) -> str:
        return self.tensor_mor[(f, g)]

    def t_mor_left(self, f: str, b: str) -> str:
        """f ⊗ 1_b."""
        return self.t_mor(f, self.base.id_of(b))

    def t_mor_right(self, a: str, g: str) -> str:
        """1_a ⊗ g."""
        return self.t_mor(self.base.id_of(a), g)


def _cell(x: str, y: str) -> str:
    """A pair of ids as reports and messages name it."""
    return f"({x},{y})"


def make_skew_monoidal(base: FinCategory,
                       tensor_obj: dict[tuple[str, str], str],
                       tensor_mor: dict[tuple[str, str], str],
                       unit: str,
                       alpha: dict[tuple[str, str, str], str],
                       lambda_: dict[str, str],
                       rho: dict[str, str]) -> SkewMonoidalCategory:
    """The structure with these tables, or a StructureError for the first of:
    a tensor, λ or ρ key outside the base; an object without an identity; a
    missing tensor cell; a tensor value outside the base; a unit that is not
    an object; a missing λ, ρ or α component; a component that is not a
    morphism; an α key naming an unknown object."""
    objs = base.objects
    objset = set(objs)
    mors = [m for m, _, _ in base.morphisms]
    for kind, table, required in (
            ("tensor objects", tensor_obj, set(itertools.product(objs, repeat=2))),
            ("tensor morphisms", tensor_mor, set(itertools.product(mors, repeat=2))),
            ("lambda", lambda_, objset), ("rho", rho, objset)):
        extra = set(table) - required
        if extra:
            raise StructureError(f"extra {kind} row for {min(extra)!r}")
    for a in objs:
        if a not in base.identity:
            raise StructureError(f"object {a!r} has no identity")
    try:
        obj_table = {ab: tensor_obj[ab] for ab in itertools.product(objs, repeat=2)}
        mor_table = {fg: tensor_mor[fg] for fg in itertools.product(mors, repeat=2)}
    except KeyError as exc:
        raise StructureError(f"tensor table misses {exc.args[0]!r}") from exc
    for (a, b), ab in obj_table.items():
        if ab not in objset:
            raise StructureError(f"object {_cell(a, b)!r} maps outside the target")
    for (f, g), fg in mor_table.items():
        if not base.has_morphism(fg):
            raise StructureError(f"morphism {_cell(f, g)!r} maps outside the target")
    if unit not in objset:
        raise StructureError(f"unit {unit!r} is not an object")
    for a in objs:
        if a not in lambda_ or a not in rho:
            raise StructureError(f"missing unit component at {a!r}")
        for b, d in itertools.product(objs, repeat=2):
            if (a, b, d) not in alpha:
                raise StructureError(f"missing associativity component at {(a, b, d)!r}")
    for name, table in (("associativity", alpha), ("left unit", lambda_), ("right unit", rho)):
        for key, m in table.items():
            if not base.has_morphism(m):
                raise StructureError(f"{name} component {m!r} at {key!r} is not a morphism")
    for key in alpha:
        if not set(key) <= objset:
            raise StructureError(f"associativity component at {key!r} names an unknown object")
    return SkewMonoidalCategory(base, obj_table, mor_table, unit,
                                dict(alpha), dict(lambda_), dict(rho))


def tensor_composition_failures(base: FinCategory, tensor_mor: dict[tuple[str, str], str]):
    """The pairs of composable pairs (g1, f1, g2, f2), in composition-table
    order, at which (g1 ⊗ g2)(f1 ⊗ f2) is not (g1 f1) ⊗ (g2 f2)."""
    compose = base.compose
    for (g1, f1), h1 in compose.items():
        for (g2, f2), h2 in compose.items():
            if compose.get((tensor_mor[(g1, g2)], tensor_mor[(f1, f2)])) != tensor_mor[(h1, h2)]:
                yield g1, f1, g2, f2


def _check_tensor(c: SkewMonoidalCategory) -> list[Violation]:
    """The functor laws of the tensor C × C → C, pair by pair, on tables
    whose values ``make_skew_monoidal`` has found in the base."""
    base, t_obj, t_mor = c.base, c.tensor_obj, c.tensor_mor
    out: list[Violation] = []
    for (f, fs, ft), (g, gs, gt) in itertools.product(base.morphisms, repeat=2):
        fg = t_mor[(f, g)]
        if base.src(fg) != t_obj[(fs, gs)] or base.tgt(fg) != t_obj[(ft, gt)]:
            out.append(Violation.of("functor-endpoints", f=_cell(f, g), image=fg))
    ident = base.identity
    for a, b in itertools.product(base.objects, repeat=2):
        if t_mor[(ident[a], ident[b])] != ident[t_obj[(a, b)]]:
            out.append(Violation.of("functor-identity", obj=_cell(a, b)))
    for g1, f1, g2, f2 in tensor_composition_failures(base, t_mor):
        out.append(Violation.of("functor-composition", g=_cell(g1, g2), f=_cell(f1, f2)))
    return out


def check_skew_monoidal(c: SkewMonoidalCategory) -> list[Violation]:
    """The law violations of c, which is well-formed by construction: the
    base's category laws, the tensor's functor laws, the endpoints of λ, ρ
    and α, then naturality and A1–A5.  Each stage runs only if those before
    it found nothing, so every composite a law names is in the tables."""
    base = c.base
    out = check_category(base) or _check_tensor(c)
    if out:
        return out
    objs, src, tgt, comp, ident = base.objects, base.src, base.tgt, base.compose, base.identity
    o, tm, alpha, lam, rho, i = c.tensor_obj, c.tensor_mor, c.alpha, c.lambda_, c.rho, c.unit
    for a in objs:
        la, ra = lam[a], rho[a]
        if src(la) != o[i, a] or tgt(la) != a:
            out.append(Violation.of("lambda-endpoints", a=a, component=la))
        if src(ra) != a or tgt(ra) != o[a, i]:
            out.append(Violation.of("rho-endpoints", a=a, component=ra))
    for (a, b, d), al in alpha.items():
        if src(al) != o[o[a, b], d] or tgt(al) != o[a, o[b, d]]:
            out.append(Violation.of("alpha-endpoints", a=a, b=b, c=d, component=al))
    if out:
        return out

    def path(*ms: str) -> str:
        """The composite of a path listed source to target."""
        acc = ms[0]
        for m in ms[1:]:
            acc = comp[m, acc]
        return acc

    ends = [(f, src(f), tgt(f)) for f, _, _ in base.morphisms]
    for f, a, b in ends:
        if path(tm[ident[i], f], lam[b]) != path(lam[a], f):
            out.append(Violation.of("lambda-naturality", f=f))
        if path(f, rho[b]) != path(rho[a], tm[f, ident[i]]):
            out.append(Violation.of("rho-naturality", f=f))
    for (f, a1, a2), (g, b1, b2) in itertools.product(ends, repeat=2):
        fg = tm[f, g]
        for h, c1, c2 in ends:
            if comp[alpha[a2, b2, c2], tm[fg, h]] != comp[tm[f, tm[g, h]], alpha[a1, b1, c1]]:
                out.append(Violation.of("alpha-naturality", f=f, g=g, h=h))

    for a, b, d, e in itertools.product(objs, repeat=4):
        lhs = path(tm[alpha[a, b, d], ident[e]], alpha[a, o[b, d], e],
                   tm[ident[a], alpha[b, d, e]])
        rhs = path(alpha[o[a, b], d, e], alpha[a, b, o[d, e]])
        if lhs != rhs:
            out.append(Violation.of("A1", a=a, b=b, c=d, d=e, left=lhs, right=rhs))
    for a, b in itertools.product(objs, repeat=2):
        if path(alpha[i, a, b], lam[o[a, b]]) != tm[lam[a], ident[b]]:
            out.append(Violation.of("A2", a=a, b=b))
        if path(rho[o[a, b]], alpha[a, b, i]) != tm[ident[a], rho[b]]:
            out.append(Violation.of("A3", a=a, b=b))
        if path(tm[rho[a], ident[b]], alpha[a, i, b], tm[ident[a], lam[b]]) != ident[o[a, b]]:
            out.append(Violation.of("A4", a=a, b=b))
    if path(rho[i], lam[i]) != ident[i]:
        out.append(Violation.of("A5"))
    return out


def is_left_normal(c: SkewMonoidalCategory) -> bool:
    """Every left unit component is invertible."""
    return all(c.base.is_iso(c.lambda_[a]) for a in c.base.objects)


def lambda_all_epi(c: SkewMonoidalCategory) -> bool:
    return all(is_epimorphism(c.base, c.lambda_[a]) for a in c.base.objects)


def left_bracketed_tensor(c: SkewMonoidalCategory, objs: tuple[str, ...],
                          leading_unit: bool = False) -> str:
    """a1...an bracketed to the left; optionally with the unit prepended."""
    if not objs and not leading_unit:
        raise StructureError("empty tensor word")
    parts = ((c.unit,) if leading_unit else ()) + tuple(objs)
    acc = parts[0]
    for a in parts[1:]:
        acc = c.t_obj(acc, a)
    return acc


def left_bracketed_tensor_mor(c: SkewMonoidalCategory, mors: tuple[str, ...],
                              leading_unit: bool = False) -> str:
    if not mors and not leading_unit:
        raise StructureError("empty tensor word")
    parts = ((c.base.id_of(c.unit),) if leading_unit else ()) + tuple(mors)
    acc = parts[0]
    for f in parts[1:]:
        acc = c.t_mor(acc, f)
    return acc


def _whiskered(c: SkewMonoidalCategory, f: str, objs: tuple[str, ...]) -> str:
    """f tensored on the right with the identities of objs, one at a time,
    up the left-bracketed spine: (f ⊗ 1_a1) ⊗ ... ⊗ 1_an."""
    for a in objs:
        f = c.t_mor_left(f, a)
    return f


def unit_absorption(c: SkewMonoidalCategory, objs: tuple[str, ...]) -> str:
    """The comparison i·a1...an -> a1...an: the left unit map at a1,
    whiskered up the spine."""
    if not objs:
        raise StructureError("need at least one object")
    return _whiskered(c, c.lambda_[objs[0]], objs[1:])


@dataclass(frozen=True)
class ClosedMonoidalStructure:
    hom_obj: dict[tuple[str, str], str]   # (b, c) -> [b, c]
    evaluation: dict[tuple[str, str], str]  # (b, c) -> e: [b,c] ⊗ b -> c


def is_closed_skew_monoidal(c: SkewMonoidalCategory) -> ClosedMonoidalStructure | None:
    """Search (in lexicographic object order) for internal homs [b, c] with an
    evaluation morphism inducing bijections C(a, [b,c]) -> C(a⊗b, c)."""
    base = c.base
    hom_obj, evaluation = {}, {}
    for b in sorted(base.objects):
        for d in sorted(base.objects):
            found = None
            for h in sorted(base.objects):
                for e in base.hom(c.t_obj(h, b), d):
                    if all(_closed_bijection(c, h, b, d, e, a) for a in base.objects):
                        found = (h, e)
                        break
                if found:
                    break
            if not found:
                return None
            hom_obj[(b, d)] = found[0]
            evaluation[(b, d)] = found[1]
    return ClosedMonoidalStructure(hom_obj, evaluation)


def _closed_bijection(c, h, b, d, e, a):
    base = c.base
    image = [base.compose.get((e, c.t_mor_left(f, b))) for f in base.hom(a, h)]
    return is_bijection_onto(image, base.hom(c.t_obj(a, b), d))


# -- lax monoidal functors ----------------------------------------------------

@dataclass(frozen=True)
class LaxMonoidalFunctor:
    source: SkewMonoidalCategory
    target: SkewMonoidalCategory
    functor: Functor
    binary: dict[tuple[str, str], str]  # (a, b) -> F2: Fa ⊗ Fb -> F(a⊗b)
    unit: str                           # F0: i -> Fi


def check_lax_monoidal(f: LaxMonoidalFunctor) -> list[Violation]:
    src, tgt = f.source, f.target
    out = list(check_functor(f.functor))
    if out:
        return out
    base = tgt.base
    fo, fm = f.functor.obj_map, f.functor.mor_map
    seq = base.comp_seq

    for a in src.base.objects:
        for b in src.base.objects:
            f2 = f.binary.get((a, b))
            if f2 is None:
                raise StructureError(f"missing binary component at {(a, b)!r}")
            if base.src(f2) != tgt.t_obj(fo[a], fo[b]) or base.tgt(f2) != fo[src.t_obj(a, b)]:
                out.append(Violation.of("lax-binary-endpoints", a=a, b=b))
    if base.src(f.unit) != tgt.unit or base.tgt(f.unit) != fo[src.unit]:
        out.append(Violation.of("lax-unit-endpoints"))
    if out:
        return out

    for m1, a1, a2 in src.base.morphisms:
        for m2, b1, b2 in src.base.morphisms:
            lhs = seq(tgt.t_mor(fm[m1], fm[m2]), f.binary[(a2, b2)])
            rhs = seq(f.binary[(a1, b1)], fm[src.t_mor(m1, m2)])
            if lhs != rhs:
                out.append(Violation.of("lax-binary-naturality", f=m1, g=m2))
    for a in src.base.objects:
        for b in src.base.objects:
            for d in src.base.objects:
                lhs = seq(tgt.t_mor_left(f.binary[(a, b)], fo[d]),
                          f.binary[(src.t_obj(a, b), d)],
                          fm[src.alpha[(a, b, d)]])
                rhs = seq(tgt.alpha[(fo[a], fo[b], fo[d])],
                          tgt.t_mor_right(fo[a], f.binary[(b, d)]),
                          f.binary[(a, src.t_obj(b, d))])
                if lhs != rhs:
                    out.append(Violation.of("lax-hexagon", a=a, b=b, c=d))
    for a in src.base.objects:
        lhs = seq(tgt.t_mor_left(f.unit, fo[a]), f.binary[(src.unit, a)],
                  fm[src.lambda_[a]])
        if lhs != tgt.lambda_[fo[a]]:
            out.append(Violation.of("lax-left-unit", a=a))
        rhs = seq(tgt.rho[fo[a]], tgt.t_mor_right(fo[a], f.unit), f.binary[(a, src.unit)])
        if fm[src.rho[a]] != rhs:
            out.append(Violation.of("lax-right-unit", a=a))
    return out


def _functor_isos(c: FinCategory, d: FinCategory):
    """Invertible functors c -> d, in canonical order: per object bijection
    that keeps every hom's size, the product over sorted hom pairs of the
    hom bijections that fix identities, kept where composition is."""
    objs = sorted(c.objects)
    sizes = {(a, b): len(c.hom(a, b)) for a in objs for b in objs}
    for sigma in _object_bijections(c.objects, d.objects, sizes,
                                    lambda ab, s: len(d.hom(s[ab[0]], s[ab[1]]))):
        per_hom = [list(_hom_bijections(c.hom(a, b), d.hom(sigma[a], sigma[b]),
                                        {c.id_of(a): d.id_of(sigma[a])} if a == b else {}))
                   for a, b in sizes]
        for choice in itertools.product(*per_hom):
            mor_map = {}
            for table in choice:
                mor_map.update(table)
            fun = Functor(c, d, sigma, mor_map)
            if not check_functor(fun):
                yield fun


def monoidal_iso_search(c: SkewMonoidalCategory, d: SkewMonoidalCategory
                        ) -> LaxMonoidalFunctor | None:
    """A lax monoidal functor c -> d that is an isomorphism of categories
    with invertible structure maps, or None; the first in canonical order.
    Only the forward functor is returned: its inverse, with the inverted
    structure maps, is lax monoidal too, each of its axioms being F's own
    with F₂ and F₀ moved across."""
    for fun in _functor_isos(c.base, d.base):
        f0_candidates = [m for m in d.base.hom(d.unit, fun.obj_map[c.unit])
                         if d.base.is_iso(m)]
        pair_opts = []
        pairs = [(a, b) for a in sorted(c.base.objects) for b in sorted(c.base.objects)]
        for a, b in pairs:
            opts = [m for m in d.base.hom(d.t_obj(fun.obj_map[a], fun.obj_map[b]),
                                          fun.obj_map[c.t_obj(a, b)])
                    if d.base.is_iso(m)]
            pair_opts.append(opts)
        for f0 in f0_candidates:
            for combo in itertools.product(*pair_opts):
                binary = dict(zip(pairs, combo))
                lax = LaxMonoidalFunctor(c, d, fun, binary, f0)
                if not check_lax_monoidal(lax):
                    return lax
    return None


# -- JSON --------------------------------------------------------------------

_SM_KEYS = {"category", "tensor", "unit", "alpha", "lambda", "rho"}


def skewmon_to_json(c: SkewMonoidalCategory) -> dict:
    base = c.base
    return {
        "category": category_to_json(base),
        "tensor": {
            "objects": [[a, b, c.t_obj(a, b)]
                        for a in base.objects for b in base.objects],
            "morphisms": [[f, g, c.t_mor(f, g)]
                          for f, _, _ in base.morphisms for g, _, _ in base.morphisms],
        },
        "unit": c.unit,
        "alpha": [[a, b, d, m] for (a, b, d), m in sorted(c.alpha.items())],
        "lambda": [[a, m] for a, m in sorted(c.lambda_.items())],
        "rho": [[a, m] for a, m in sorted(c.rho.items())],
    }


def _table(rows, width: int, kind: str) -> dict[tuple[str, ...], str]:
    """Rows of width string ids, keyed by all but the last, each key once."""
    out: dict[tuple[str, ...], str] = {}
    for row in _json_array(rows, kind):
        if not isinstance(row, list) or len(row) != width:
            raise StructureError(f"{kind} rows must have {width} entries, got {row!r}")
        *key, value = (_str_id(v, f"{kind} entry") for v in row)
        _no_repeat(out, tuple(key), kind)
        out[tuple(key)] = value
    return out


def skewmon_from_json(data: dict) -> SkewMonoidalCategory:
    """Read a skew monoidal category, requiring string ids and at most one
    row per key in every table; ``make_skew_monoidal`` decides the rest of
    well-formedness."""
    if not isinstance(data, dict) or set(data) != _SM_KEYS:
        raise StructureError(f"skew monoidal object must have exactly the keys {sorted(_SM_KEYS)}")
    base = category_from_json(data["category"])
    tensor = data["tensor"]
    if not isinstance(tensor, dict) or set(tensor) != {"objects", "morphisms"}:
        raise StructureError("tensor must have keys objects/morphisms")
    tensor_obj = _table(tensor["objects"], 3, "tensor objects")
    tensor_mor = _table(tensor["morphisms"], 3, "tensor morphisms")
    alpha = _table(data["alpha"], 4, "alpha")
    lambda_ = {a: m for (a,), m in _table(data["lambda"], 2, "lambda").items()}
    rho = {a: m for (a,), m in _table(data["rho"], 2, "rho").items()}
    unit = _str_id(data["unit"], "unit")
    return make_skew_monoidal(base, tensor_obj, tensor_mor, unit, alpha, lambda_, rho)
