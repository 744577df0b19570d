"""Arity-indexed operads of thin finite categories, with axiom checking up to a bound.

Three operads ship built in, named "N", "R" and "L":

* N: every component is the one-object category on "t"; ordinary
  multicategories are the multicategories typed over it.
* R: component 0 is the point "l"; positive components are the arrow
  category with objects "t" (tight) and "l" (loose) and one morphism
  "lam": t -> l.  Substitution yields "t" exactly when the outer object and
  the first inner object are both "t".  Skew multicategories are typed over R.
* L: the dual of R: same components with morphism direction reversed,
  so "lam": l -> t.  Colax algebras are typed over L.

Every component is thin: it has at most one morphism between any two objects.
An operad therefore gives substitution on objects only; substitution of
morphisms is derived as the unique morphism between the substituted
endpoints, and it exists exactly when the object rule is monotone.

Components are produced by an arity-indexed rule, because arities are
unbounded; every checker therefore takes an explicit arity bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from .fincat import FinCategory, StructureError, Violation, check_category, opposite_category

TIGHT = "t"
LOOSE = "l"
LAM = "lam"


@dataclass(frozen=True)
class CatOperad:
    """Operad with thin finite components: a component category per arity, a
    unit object in component 1, and a substitution rule on objects.

    ``subst_obj(x, xs, ks)`` takes an object x of component(len(xs)), inner
    objects xs with xs[i] in component(ks[i]), and returns an object of
    component(sum(ks)).  ``subst_mor`` is the same shape on morphism ids and
    is derived from it.  ``component(n)`` raises ``StructureError`` when the
    rule's category for arity n is not thin.

    ``arity_uniform`` declares that every positive-arity component is the same
    category and that the substitution rule never reads the arity vector; the
    axiom checker then collapses shapes that differ only by inflating positive
    arities.  All three built-ins qualify.
    """

    name: str
    component_rule: Callable[[int], FinCategory]
    unit: str
    subst_obj: Callable[[str, tuple[str, ...], tuple[int, ...]], str]
    arity_uniform: bool = False
    _cache: dict = field(default_factory=dict, compare=False, repr=False)
    _mor_cache: dict = field(default_factory=dict, compare=False, repr=False)

    def component(self, n: int) -> FinCategory:
        cat = self._cache.get(n)
        if cat is None:
            cat = self.component_rule(n)
            if len({(s, t) for _, s, t in cat.morphisms}) < len(cat.morphisms):
                raise StructureError(f"component {n} of operad {self.name!r} is not thin")
            self._cache[n] = cat
        return cat

    def subst_mor(self, f: str, fs: tuple[str, ...], ks: tuple[int, ...]) -> str:
        """The morphism of component(sum(ks)) from the substitution of the
        sources of f and fs to that of their targets; ``StructureError`` when
        there is none."""
        key = (f, fs, ks)
        hit = self._mor_cache.get(key)
        if hit is None:
            comp_n = self.component(len(fs))
            inner = [self.component(k) for k in ks]
            src = self.subst_obj(comp_n.src(f), tuple(c.src(g) for c, g in zip(inner, fs)), ks)
            tgt = self.subst_obj(comp_n.tgt(f), tuple(c.tgt(g) for c, g in zip(inner, fs)), ks)
            hom = self.component(sum(ks)).hom(src, tgt)
            if not hom:
                raise StructureError(f"no morphism {src!r} -> {tgt!r} for substitution")
            hit = self._mor_cache[key] = hom[0]
        return hit


def _point_category(obj: str) -> FinCategory:
    ident = f"id_{obj}"
    return FinCategory((obj,), ((ident, obj, obj),), {obj: ident},
                       {(ident, ident): ident})


def _arrow_category(src: str, tgt: str, arrow: str) -> FinCategory:
    i_s, i_t = f"id_{src}", f"id_{tgt}"
    return FinCategory(
        (src, tgt),
        ((i_s, src, src), (i_t, tgt, tgt), (arrow, src, tgt)),
        {src: i_s, tgt: i_t},
        {(i_s, i_s): i_s, (i_t, i_t): i_t,
         (arrow, i_s): arrow, (i_t, arrow): arrow},
    )


def make_terminal_operad() -> CatOperad:
    """The operad whose every component is a single object; substitution is forced."""
    comp = _point_category(TIGHT)
    return CatOperad("N", lambda n: comp, TIGHT, lambda x, xs, ks: TIGHT,
                     arity_uniform=True)


def _r_subst_obj(x: str, xs: tuple[str, ...], ks: tuple[int, ...]) -> str:
    if not xs:
        return x
    return TIGHT if x == TIGHT and xs[0] == TIGHT else LOOSE


def make_R_operad() -> CatOperad:
    """Tight/loose typing operad: arrow components t -> l, unit "t"."""
    point = _point_category(LOOSE)
    arrow = _arrow_category(TIGHT, LOOSE, LAM)

    def component(n: int) -> FinCategory:
        return point if n == 0 else arrow

    return CatOperad("R", component, TIGHT, _r_subst_obj, arity_uniform=True)


def dual_operad(op: CatOperad) -> CatOperad:
    """Reverse every component; objects, unit and the object rule are
    unchanged, and morphism ids are preserved.  The opposite of a thin
    category is thin, and the derived morphism rule reverses with the
    components."""

    def component(n: int) -> FinCategory:
        return opposite_category(op.component(n))

    name = {"R": "L", "L": "R"}.get(op.name, f"{op.name}*")
    return CatOperad(name, component, op.unit, op.subst_obj,
                     arity_uniform=op.arity_uniform)


def make_L_operad() -> CatOperad:
    return dual_operad(make_R_operad())


def operad_by_name(name: str) -> CatOperad:
    try:
        return {"N": make_terminal_operad, "R": make_R_operad, "L": make_L_operad}[name]()
    except KeyError:
        raise StructureError(f"unknown operad {name!r}; expected N, R or L") from None


def _compositions(total_max: int, parts: int):
    """All tuples of `parts` nonnegative ints with sum <= total_max."""
    if parts == 0:
        yield ()
        return
    for first in range(total_max + 1):
        for rest in _compositions(total_max - first, parts - 1):
            yield (first,) + rest


def check_operad_axioms(op: CatOperad, bound: int = 5) -> list[Violation]:
    """The operad laws for every arity combination with total arity <= bound.

    Checked: each component is a category, the unit is an object of
    component 1, substitution of objects is total (``subst-object``, also
    where a unit or associativity instance raises), each substituted
    morphism exists (``subst-morphism``: the object rule is monotone), and
    the unit and associativity laws hold on objects.
    Thinness settles the rest: the endpoints, functoriality and the unit and
    associativity laws of a substituted morphism each compare two members of
    one hom.

    For ``arity_uniform`` operads whose positive components coincide, shapes
    that differ only by inflating a positive arity are collapsed to a single
    representative.
    """
    out: list[Violation] = []
    comps = {n: op.component(n) for n in range(bound + 1)}
    for n, cat in comps.items():
        for v in check_category(cat):
            out.append(Violation.of("component-category", arity=str(n), law=v.law))
    if out:
        return out
    if op.unit not in comps[1].objects:
        return [Violation.of("unit-missing", unit=op.unit)]

    canon1 = comps[1].canonical()
    collapse = op.arity_uniform and all(
        comps[n].canonical() == canon1 for n in range(2, bound + 1))

    def ks_space(parts: int):
        if collapse:
            return itertools.product((0, 1), repeat=parts)
        return _compositions(bound, parts)

    def shapes():
        for n in range(bound + 1):
            for ks in ks_space(n):
                if sum(ks) <= bound:
                    yield n, ks

    def objs(n):
        return comps[n].objects

    # Totality on objects and existence of each substituted morphism.
    for n, ks in shapes():
        cod_objs = set(objs(sum(ks)))
        for x in objs(n):
            for xs in itertools.product(*(objs(k) for k in ks)):
                try:
                    r = op.subst_obj(x, xs, ks)
                except Exception:
                    r = None
                if r not in cod_objs:
                    out.append(Violation.of("subst-object", x=x, xs=str(xs), ks=str(ks)))
        inner_mors = [[m for m, _, _ in comps[k].morphisms] for k in ks]
        for f, _, _ in comps[n].morphisms:
            for fs in itertools.product(*inner_mors):
                try:
                    op.subst_mor(f, fs, ks)
                except Exception:
                    out.append(Violation.of("subst-morphism", f=f, fs=str(fs), ks=str(ks)))

    # Unit laws on objects.
    for n in range(bound + 1):
        units = (op.unit,) * n
        for x in objs(n):
            try:
                if op.subst_obj(x, units, (1,) * n) != x:
                    out.append(Violation.of("unit-right-object", x=x, arity=str(n)))
                if op.subst_obj(op.unit, (x,), (n,)) != x:
                    out.append(Violation.of("unit-left-object", x=x, arity=str(n)))
            except Exception:
                out.append(Violation.of("subst-object", x=x, arity=str(n)))

    # Associativity of double substitution on objects.  Per shape, the inner
    # choices and their flattenings are built once; per (x, xs), each slot's
    # inner substitutions are evaluated once.  A group in which the rule
    # raises is walked again instance by instance, for the report of
    # ``_associativity_walk``.
    for n, ks in shapes():
        inner_shape_opts = [[ms for ms in ks_space(k)] for k in ks]
        for mss in itertools.product(*inner_shape_opts):
            flat_ms = tuple(m for ms in mss for m in ms)
            if sum(flat_ms) > bound:
                continue
            sums = tuple(sum(ms) for ms in mss)
            inner_opts = [list(itertools.product(*(objs(m) for m in ms))) for ms in mss]
            choices = list(itertools.product(*inner_opts))
            flats = [tuple(y for ys in yss for y in ys) for yss in choices]
            shape = f"{n}{ks}{mss}"
            for x in objs(n):
                for xs in itertools.product(*(objs(k) for k in ks)):
                    try:
                        mid = op.subst_obj(x, xs, ks)
                        vals = [[op.subst_obj(xi, ys, ms) for ys in opts]
                                for xi, opts, ms in zip(xs, inner_opts, mss)]
                        broken = [yss for yss, flat_ys, inner
                                  in zip(choices, flats, itertools.product(*vals))
                                  if op.subst_obj(mid, flat_ys, flat_ms)
                                  != op.subst_obj(x, inner, sums)]
                    except Exception:
                        _associativity_walk(op, x, xs, ks, mss, choices, out)
                        continue
                    out.extend(Violation.of("subst-associativity", x=x, xs=str(xs),
                                            ys=str(yss), shape=shape) for yss in broken)
    return out


def _associativity_walk(op: CatOperad, x: str, xs: tuple[str, ...], ks: tuple[int, ...],
                        mss: tuple, choices: list, out: list[Violation]) -> None:
    """Check associativity at (x, xs) one inner choice at a time: each
    failing instance in order, then one ``subst-object`` report where the
    rule first raises, and nothing after it."""
    shape = f"{len(xs)}{ks}{mss}"
    flat_ms = tuple(m for ms in mss for m in ms)
    sums = tuple(sum(ms) for ms in mss)
    try:
        mid = op.subst_obj(x, xs, ks)
        for yss in choices:
            flat_ys = tuple(y for ys in yss for y in ys)
            lhs = op.subst_obj(mid, flat_ys, flat_ms)
            inner = tuple(op.subst_obj(xi, ys, ms) for xi, ys, ms in zip(xs, yss, mss))
            rhs = op.subst_obj(x, inner, sums)
            if lhs != rhs:
                out.append(Violation.of("subst-associativity", x=x, xs=str(xs),
                                        ys=str(yss), shape=shape))
    except Exception:
        out.append(Violation.of("subst-object", x=x, xs=str(xs), shape=shape))
