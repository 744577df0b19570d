"""Arity-truncated multicategories typed over a finite-component operad.

Hom sets are stored for every signature (operad object x at arity n, an input
tuple, an output) with n up to a truncation bound ``max_arity``; substitution
entries exist whenever the concatenated arity stays within the bound.

A multicategory is given by its partial compositions g ∘ᵢ f with units
(Markl, *Operads and PROPs*, arXiv:math/0601129, §1): the substitution rule is
evaluated only on ∘ᵢ keys, those with at most one non-identity inner, and
every other substitution is their memoised fold, in the order that
``_last_step`` states.  One table, ``_table``, holds every ∘ᵢ composition
and the action on indices.  ``check_tmulticat`` reads only it to check the
identity laws on every multimap, and naturality and the sequential and
parallel associativity of ∘ᵢ wherever every stage stays within the bound;
``check_morphism`` and ``iso_search`` decide the action and ∘ᵢ equations
of a morphism on the tables of both endpoints.
For unital multicategories this is equivalent to associativity of full
substitution: each ∘ᵢ law is full associativity with identity inners, and
full substitution is a fold of ∘ᵢ.

Multimap ids are strings unique within their own hom set; distinct hom sets
may reuse ids (a multimap is always addressed together with its signature).
The operad action and substitution are rules evaluated on demand; the file
reader wraps its stored tables as rules.  A file stores either exactly the ∘ᵢ
rows, as ``skewcat convert --to multicat`` writes it, or every substitution;
the rows of a full file with two or more non-identity inners are data that
``check_tmulticat`` compares with the fold, and ``substitute`` never reads
them.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Iterator

from .catoperad import LAM, LOOSE, TIGHT, CatOperad, operad_by_name
from .fincat import (
    FinCategory, StructureError, Violation, _hom_bijections, _json_array, _json_object,
    _no_repeat, _object_bijections, _str_id, check_category,
)

HomKey = tuple[str, tuple[str, ...], str]  # (x, inputs, output)


class MultiMap(namedtuple("MultiMap", "x inputs output mid")):
    """A multimap addressed by its full signature plus its id.  A tuple, so
    that hashing and comparing one run in C; it hashes as the tuple
    (x, inputs, output, mid)."""

    __slots__ = ()

    @property
    def arity(self) -> int:
        return len(self.inputs)

    @property
    def key(self) -> HomKey:
        return (self.x, self.inputs, self.output)


_Table = namedtuple("_Table", "maps index units comp act")  # see TMulticategory._table


class TMulticategory:
    def __init__(self, operad: CatOperad, objects: tuple[str, ...], max_arity: int,
                 homs: dict[HomKey, tuple[str, ...]],
                 identities: dict[str, str],
                 action_rule: Callable[[str, MultiMap], str],
                 subst_rule: Callable[[MultiMap, tuple[MultiMap, ...]], str],
                 stored_subst: dict | None = None):
        """``subst_rule`` is asked only for ∘ᵢ keys.  ``stored_subst`` is a
        file's substitution table in the format of ``materialize``, keyed by
        (g, fs): data for ``check_tmulticat`` to check, never read by
        ``substitute``."""
        self.operad = operad
        self.objects = tuple(objects)
        self.max_arity = max_arity
        self.homs = homs
        self.identities = identities
        self.action_rule = action_rule
        self.subst_rule = subst_rule
        self.stored_subst = stored_subst
        self._subst_cache: dict = {}
        self._units = {a: MultiMap(operad.unit, (a,), a, identities[a]) for a in self.objects}

    # -- signatures ------------------------------------------------------

    def hom(self, x: str, inputs: tuple[str, ...], output: str) -> tuple[str, ...]:
        return self.homs.get((x, inputs, output), ())

    def maps(self, key: HomKey) -> Iterator[MultiMap]:
        for mid in self.homs.get(key, ()):
            yield MultiMap(key[0], key[1], key[2], mid)

    def all_maps(self) -> Iterator[MultiMap]:
        for key in sorted(self.homs):
            yield from self.maps(key)

    def mm(self, x: str, inputs: tuple[str, ...], output: str, mid: str) -> MultiMap:
        if mid not in self.homs.get((x, inputs, output), ()):
            raise StructureError(f"no multimap {mid!r} in hom {(x, inputs, output)!r}")
        return MultiMap(x, tuple(inputs), output, mid)

    def identity(self, a: str) -> MultiMap:
        return self._units[a]

    # -- structure -------------------------------------------------------

    def act(self, fmor: str, m: MultiMap) -> MultiMap:
        """Apply a morphism of the operad component at m's arity."""
        comp = self.operad.component(m.arity)
        if not comp.has_morphism(fmor):
            raise StructureError(f"{fmor!r} is not a morphism of component {m.arity}")
        if comp.src(fmor) != m.x:
            raise StructureError(f"{fmor!r} does not start at {m.x!r}")
        if comp.is_identity(fmor):
            return m
        return self.mm(comp.tgt(fmor), m.inputs, m.output, self.action_rule(fmor, m))

    def substitute(self, g: MultiMap, fs: tuple[MultiMap, ...]) -> MultiMap:
        """g(f1..fn): the rule on a ∘ᵢ key, the ∘ᵢ fold on any other."""
        if not fs:
            if g.arity != 0:
                raise StructureError("wrong number of inner multimaps")
            return g
        return self._substitute(g, fs)

    def _substitute(self, g: MultiMap, fs: tuple[MultiMap, ...]) -> MultiMap:
        """``substitute`` at non-empty inners, memoised per key.  With two
        or more non-identity inners it folds: the step of ``_last_step``,
        into the fold of the same key with an identity there."""
        key = (g, fs)
        hit = self._subst_cache.get(key)
        if hit is not None:
            return hit
        if len(fs) != len(g.inputs):
            raise StructureError("wrong number of inner multimaps")
        units = self._units
        moved = []
        for i, (f, b) in enumerate(zip(fs, g.inputs)):
            if f.output != b:
                raise StructureError(f"inner output {f.output!r} does not match slot {b!r}")
            if f != units[b]:
                moved.append(i)
        arities = [len(f.inputs) for f in fs]
        total = sum(arities)
        if total > self.max_arity:
            raise StructureError(f"substitution result arity {total} exceeds bound")
        if len(moved) < 2:
            x = self.operad.subst_obj(g.x, tuple([f.x for f in fs]), tuple(arities))
            inputs = tuple([a for f in fs for a in f.inputs])
            result = self.mm(x, inputs, g.output, self.subst_rule(g, fs))
        else:
            i, slot = _last_step(moved, arities)
            rest = self._substitute(g, fs[:i] + (units[g.inputs[i]],) + fs[i + 1:])
            result = self._substitute(rest, tuple([fs[i] if j == slot else units[a]
                                                   for j, a in enumerate(rest.inputs)]))
        self._subst_cache[key] = result
        return result

    def subst_after(self, g: MultiMap, i: int, f: MultiMap) -> MultiMap:
        """The partial composition g ∘ᵢ f: substitute f into position i
        (1-based), identities elsewhere."""
        return self.substitute(g, self._inners(g, i - 1, f))

    def _inners(self, g: MultiMap, i: int, f: MultiMap) -> tuple[MultiMap, ...]:
        """The inners of g ∘ᵢ f, with i 0-based."""
        return tuple([f if j == i else self._units[b] for j, b in enumerate(g.inputs)])

    @functools.cached_property
    def fitting(self) -> dict[str, list[tuple[MultiMap, ...]]]:
        """fitting[b][k]: the multimaps into b of arity at most k, in
        ``all_maps`` order, for k up to the bound.  Built on first use in one
        pass; homs do not change after construction."""
        buckets = {b: [[] for _ in range(self.max_arity + 1)] for b in self.objects}
        for m in self.all_maps():
            for bucket in buckets[m.output][m.arity:]:
                bucket.append(m)
        return {b: [tuple(ms) for ms in into] for b, into in buckets.items()}

    def subst_keys(self) -> Iterator[tuple[MultiMap, tuple[MultiMap, ...]]]:
        """Every substitution instance stored in the truncated fragment."""
        fitting = self.fitting
        for g in self.all_maps():
            if g.inputs:
                for fs in _slot_choices(g.inputs, self.max_arity, fitting):
                    yield g, fs

    def _keys(self) -> Iterator[tuple[int, int, int]]:
        """(g, i, f) for each ∘ᵢ key, indices into ``_table``'s maps and the
        0-based slot, in the order of ``comp``: the all-identity key once,
        at i = 0."""
        maps, _, units, comp, _ = self._table
        for g, rows in enumerate(comp):
            for i, (b, row) in enumerate(zip(maps[g].inputs, rows)):
                yield from ((g, i, f) for f in row if not i or f != units[b])

    @functools.cached_property
    def _table(self) -> _Table:
        """The ∘ᵢ compositions and the action on integers: maps in
        ``all_maps`` order; index, each multimap's position there; units[b],
        the index of b's identity; comp[g][i], from the index of each f in
        g's bucket of ``fitting`` at slot i (0-based), in bucket order, to
        that of g ∘ᵢ f; act[k], from each non-identity operad morphism phi
        out of the type of maps[k] to the index of phi acting on it.  Built
        on first use, evaluating every ∘ᵢ key in ``_keys`` order (an
        all-identity key at i > 0 is a memo hit), so that the first absent
        or out-of-hom entry raises its ``StructureError``; then the action."""
        maps = list(self.all_maps())
        index = {f: k for k, f in enumerate(maps)}
        comp = [[{index[f]: index[self.subst_after(g, i, f)]
                  for f in self.fitting[b][self.max_arity - g.arity + 1]}
                 for i, b in enumerate(g.inputs, 1)] for g in maps]
        act: list[dict[str, int]] = [{} for _ in maps]
        for phi, key in _action_sites(self.operad, self.max_arity, sorted(self.homs)):
            for k in self.maps(key):
                act[index[k]][phi] = index[self.act(phi, k)]
        return _Table(maps, index, {b: index[u] for b, u in self._units.items()}, comp, act)

    def materialize(self, *, full: bool = True) -> tuple[dict, dict]:
        """The action table, (phi, hom key) -> {id: image id} at each action
        site, and the substitution table, (g, fs) -> result id at each of
        ``subst_keys``, or with ``full=False`` at each ∘ᵢ key of ``_keys``."""
        action = {(fmor, key): {m.mid: self.act(fmor, m).mid for m in self.maps(key)}
                  for fmor, key in _action_sites(self.operad, self.max_arity, sorted(self.homs))}
        if full:
            subst = {key: self.substitute(*key).mid for key in self.subst_keys()}
        else:
            maps, _, _, comp, _ = self._table
            subst = {(maps[g], self._inners(maps[g], i, maps[f])): maps[comp[g][i][f]].mid
                     for g, i, f in self._keys()}
        return action, subst


def _last_step(moved: list[int], arities) -> tuple[int, int]:
    """The one statement of the fold order: the ∘ᵢ step (i, slot) that the
    fold of a substitution takes last, given the slots of its non-identity
    inners, at least two, in order, and the arity of the inner at each slot.
    The fold substitutes the nullary inners first, then the others, each
    group right to left, so that every stage stays within the bound.  Last
    it substitutes the leftmost moved inner i of positive arity, or else the
    leftmost moved one, into the fold with an identity at i; the inners
    left of i are identities or nullary, so that step is at slot i less the
    nullary ones."""
    for i in moved:
        if arities[i]:
            return i, i - moved.index(i)
    return moved[0], moved[0]


def signatures(operad: CatOperad, items, max_arity: int
               ) -> Iterator[tuple[str, tuple]]:
    """Every (x, tuple) up to the bound: arity, then operad object x of that
    arity, then the tuple of items in ``itertools.product`` order."""
    for n in range(max_arity + 1):
        for x in operad.component(n).objects:
            for tup in itertools.product(items, repeat=n):
                yield x, tup


def _action_sites(operad: CatOperad, max_arity: int, keys) -> Iterator[tuple[str, HomKey]]:
    """(phi, key) for each non-identity operad morphism phi, arity by arity
    up to max_arity, and each hom key among keys at the source of phi."""
    for n in range(max_arity + 1):
        comp = operad.component(n)
        for phi, s, _ in comp.morphisms:
            if comp.is_identity(phi):
                continue
            for key in keys:
                if len(key[1]) == n and key[0] == s:
                    yield phi, key


def arity_bound(value, name: str) -> int:
    """A truncation bound given from outside: an integer from 1 to 6."""
    if type(value) is not int or not 1 <= value <= 6:
        raise StructureError(f"{name} must be an integer from 1 to 6, got {value!r}")
    return value


def make_multicat(operad, objects, max_arity, homs, identities, **kw) -> TMulticategory:
    """A multicategory with a hom, empty unless given, at every signature;
    rejects homs off the signatures and identities off their unit homs."""
    full_homs = {(x, inputs, b): tuple(homs.get((x, inputs, b), ()))
                 for x, inputs in signatures(operad, objects, max_arity) for b in objects}
    for key, mids in homs.items():
        if key not in full_homs:
            raise StructureError(f"hom signature {key!r} out of range")
        if len(set(mids)) != len(mids):
            raise StructureError(f"duplicate multimap ids in {key!r}")
    for a in identities:
        if a not in objects:
            raise StructureError(f"identity given for {a!r}, which is not an object")
    for a in objects:
        if a not in identities:
            raise StructureError(f"object {a!r} has no identity multimap")
        if identities[a] not in full_homs.get((operad.unit, (a,), a), ()):
            raise StructureError(f"identity of {a!r} is not in its unit hom")
    return TMulticategory(operad, tuple(objects), max_arity, full_homs, identities, **kw)


def terminal_multicat(operad: CatOperad, max_arity: int = 4,
                      objects: tuple[str, ...] = ("*",)) -> TMulticategory:
    """Singleton hom at every signature; all structure is forced."""
    homs = {(x, inputs, b): ("m",)
            for x, inputs in signatures(operad, objects, max_arity) for b in objects}
    return make_multicat(operad, objects, max_arity, homs,
                         {a: "m" for a in objects},
                         action_rule=lambda fmor, m: "m",
                         subst_rule=lambda g, fs: "m")


# -- checking ----------------------------------------------------------------

def check_tmulticat(m: TMulticategory) -> list[Violation]:
    """Identity laws and action functoriality on every stored multimap;
    naturality and associativity on the ∘ᵢ fragment; and the rows of a
    file's substitution table against the ∘ᵢ fold.

    Every law reads the ∘ᵢ compositions and the action off ``m._table``.
    Naturality is checked one operad variable at a time on the ∘ᵢ keys; the
    joint squares follow together with functoriality, and those of a full
    substitution from its ∘ᵢ fold.  Components are thin, so each square
    compares its image with r acted on by the one morphism from r's type to
    the image's (``StructureError`` if none).  An image with two
    non-identity inners is read as two ∘ᵢ steps in ``comp``, in the order
    of ``_last_step``, the one statement of the fold order.  Associativity,
    reported as ``subst-associativity`` with a ``family`` detail, is
    checked as sequential (g ∘ᵢ f) ∘_{i+j-1} h = g ∘ᵢ (f ∘ⱼ h) and parallel
    (g ∘ᵢ f) ∘_{j+k-1} h = (g ∘ⱼ h) ∘ᵢ f for i < j and f of arity k, on
    every instance whose stages stay within the bound.  Each of these is an instance of full
    associativity with identity inners, so a lawful multicategory passes;
    conversely full substitution is the fold of ∘ᵢ steps, which the two laws
    rearrange (Markl, arXiv:math/0601129, §1).

    Only ∘ᵢ keys are evaluated.  A multicategory read from a full file also
    stores a row for every other substitution (the reader has checked that
    none is missing): each row's result must lie in the hom of its signature
    (else ``StructureError``), and a row with two or more non-identity
    inners into a hom of two or more elements that differs from the fold is
    family ``fold``; those rows are the only ones compared with
    ``substitute``.  A file of exactly the ∘ᵢ rows has no other row to
    check.  The test suite cross-checks the verdict against nested full
    quantification (``tests/naive_oracles.py``)."""
    off_fold = _validate_structure(m)
    maps, _, units, comp, act = m._table
    out: list[Violation] = []

    # action functoriality: composites of non-identity morphisms
    for n in range(m.max_arity + 1):
        comp_n = m.operad.component(n)
        for (g, f), gf in comp_n.compose.items():
            if comp_n.is_identity(g) or comp_n.is_identity(f):
                continue
            for k, mm_ in enumerate(maps):
                if mm_.arity == n and f in act[k] and act[k].get(gf, k) != act[act[k][f]][g]:
                    out.append(Violation.of("action-composition", g=g, f=f, m=mm_.mid))

    # identity laws
    for k, mm_ in enumerate(maps):
        if comp[units[mm_.output]][0][k] != k:
            out.append(Violation.of("identity-left", m=mm_.mid, key=str(mm_.key)))
        if mm_.arity > 0 and comp[k][0][units[mm_.inputs[0]]] != k:
            out.append(Violation.of("identity-right", m=mm_.mid, key=str(mm_.key)))

    def moved(r: int, x: str) -> int:
        """r acted on by the one morphism from its type to x."""
        for phi in m.operad.component(maps[r].arity).hom(maps[r].x, x):
            return act[r].get(phi, r)
        raise StructureError(f"no morphism {maps[r].x!r} -> {x!r} for substitution")

    # single-variable naturality of substitution in the operad variables
    for g, i, f in m._keys():
        gm, r, rows = maps[g], comp[g][i][f], comp[g]
        for phi, gphi in act[g].items():
            image = comp[gphi][i][f]
            if moved(r, maps[image].x) != image:
                out.append(Violation.of("subst-naturality", slot="outer",
                                        phi=phi, g=gm.mid, key=str(gm.key)))
        all_units = f == units[gm.inputs[i]]
        # the image with phi acting on a unit at j != i has two non-identity
        # inners, f at i and a unary one at j: the fold's two ∘ᵢ steps
        arities = [1] * gm.arity
        arities[i] = maps[f].arity
        for j, b in enumerate(gm.inputs):
            fj = f if j == i else units[b]
            if j != i and not all_units:
                last, slot = _last_step([i, j] if i < j else [j, i], arities)
            for phi, fphi in act[fj].items():
                if j == i or all_units:
                    image = rows[j][fphi]
                elif last == i:
                    image = comp[rows[j][fphi]][i][f]
                else:
                    image = comp[r][slot][fphi]
                if moved(r, maps[image].x) != image:
                    out.append(Violation.of("subst-naturality", slot=str(j + 1),
                                            phi=phi, g=gm.mid, f=maps[fj].mid))

    # sequential and parallel associativity of ∘ᵢ: f and h come from the rows
    # of comp that keep every stage within the bound; instances with an
    # identity for f or h follow from the identity laws
    def fail(family: str, g: MultiMap, i: int, f: int, j: int, h: int) -> None:
        out.append(Violation.of("subst-associativity", family=family, g=g.mid, key=str(g.key),
                                i=str(i + 1), f=maps[f].mid, j=str(j + 1), h=maps[h].mid))

    for g, g_rows in zip(maps, comp):
        for i, (b, g_row) in enumerate(zip(g.inputs, g_rows)):
            for f in g_row:
                if f == units[b]:
                    continue
                f_inputs = maps[f].inputs
                kf = len(f_inputs)
                gf_rows = comp[g_row[f]]
                # sequential: (g ∘ᵢ f) ∘_{i+j-1} h = g ∘ᵢ (f ∘ⱼ h)
                for j, (c, f_row) in enumerate(zip(f_inputs, comp[f])):
                    gf_row = gf_rows[i + j]
                    for h in gf_row:
                        if h != units[c] and gf_row[h] != g_row[f_row[h]]:
                            fail("sequential", g, i, f, j, h)
                # parallel, i < j: (g ∘ᵢ f) ∘_{j+k_f-1} h = (g ∘ⱼ h) ∘ᵢ f; h runs
                # over the smaller of the two rows it needs, g's when f is nullary
                for j in range(i + 1, g.arity):
                    c, gf_row, gh_row = g.inputs[j], gf_rows[j + kf - 1], g_rows[j]
                    for h in gf_row if kf else gh_row:
                        if h != units[c] and gf_row[h] != comp[gh_row[h]][i][f]:
                            fail("parallel", g, i, f, j, h)

    for g, fs in off_fold:
        out.append(Violation.of("subst-associativity", family="fold", g=g.mid,
                                key=str(g.key), fs=str([f.mid for f in fs])))
    return out


def _slot_choices(slots, budget, fitting):
    """Tuples of multimaps into the non-empty slots, in ``all_maps`` order
    slot by slot, whose arities sum to at most budget.  fitting[b][k] holds
    the multimaps into b of arity at most k, in ``all_maps`` order."""
    b, rest = slots[0], slots[1:]
    if not rest:
        for h in fitting[b][budget]:
            yield (h,)
        return
    for h in fitting[b][budget]:
        for tail in _slot_choices(rest, budget - h.arity, fitting):
            yield (h,) + tail


def _subst_key_count(m: TMulticategory) -> int:
    """The number of ``subst_keys``, counted by arity slot by slot."""
    into: dict[tuple[str, int], int] = {}  # (output, arity) -> multimaps
    for (_, inputs, b), mids in m.homs.items():
        into[b, len(inputs)] = into.get((b, len(inputs)), 0) + len(mids)

    @functools.cache
    def choices(slots: tuple[str, ...], budget: int) -> int:
        if not slots:
            return 1
        return sum(into.get((slots[0], k), 0) * choices(slots[1:], budget - k)
                   for k in range(budget + 1))

    return sum(len(mids) * choices(inputs, m.max_arity)
               for (_, inputs, _), mids in m.homs.items() if inputs)


def _partial_key_count(m: TMulticategory) -> int:
    """The number of ∘ᵢ keys, those of ``_keys``: every entry of ``comp``,
    less the all-identity key of each slot past the first, whose row always
    holds the identity."""
    comp = m._table.comp
    entries = sum([len(row) for rows in comp for row in rows])
    return entries - sum([len(rows) - 1 for rows in comp if rows])


def _validate_structure(m: TMulticategory) -> list[tuple[MultiMap, tuple[MultiMap, ...]]]:
    """Check the operad components, evaluate every ∘ᵢ key, and check the
    rows of a full file; ``make_multicat`` has already checked the
    signatures, the map ids and the identities, and the file reader the key
    of every stored row and that a file holds either exactly the ∘ᵢ rows
    (it keeps no ``stored_subst`` then) or a row for every key.  Returns the
    stored keys with two or more non-identity inners, into a hom of two or
    more elements, whose row differs from the fold, in ``subst_keys``
    order."""
    for n in range(m.max_arity + 1):
        if check_category(m.operad.component(n)):
            raise StructureError(f"operad component {n} is not a category")
    m._table  # evaluates every ∘ᵢ key: raises if an entry is absent or lands outside its hom
    rows = m.stored_subst
    if rows is None:
        return []
    subst_obj, homs, units = m.operad.subst_obj, m.homs, m._units
    off_fold = set()
    for (g, fs), rid in rows.items():
        sig = (subst_obj(g.x, tuple([f.x for f in fs]), tuple([len(f.inputs) for f in fs])),
               tuple([a for f in fs for a in f.inputs]), g.output)
        hom = homs.get(sig, ())
        if rid not in hom:
            raise StructureError(f"no multimap {rid!r} in hom {sig!r}")
        if len(hom) > 1 and sum([f != units[b] for f, b in zip(fs, g.inputs)]) > 1 \
                and m.substitute(g, fs).mid != rid:
            off_fold.add((g, fs))
    return [key for key in m.subst_keys() if key in off_fold] if off_fold else []


def _row_name(g: MultiMap, fs: tuple[MultiMap, ...]) -> tuple:
    """A substitution key as error messages print it: (outer hom key, outer
    id, ((x, inputs, id) of each inner))."""
    return (g.key, g.mid, tuple([(x, inputs, mid) for x, inputs, _, mid in fs]))


# -- underlying category -----------------------------------------------------

def underlying_with_maps(m: TMulticategory):
    """The category of unit-typed unary multimaps, plus id translations.  A
    morphism is named by its map id, or, when map ids repeat across homs, by
    "a>b:mid" with \\, > and : backslash-escaped in a and b."""
    e = m.operad.unit
    mids = []
    for a in m.objects:
        for b in m.objects:
            mids.extend(m.hom(e, (a,), b))
    plain = len(set(mids)) == len(mids)
    esc = {a: a.replace("\\", "\\\\").replace(">", "\\>").replace(":", "\\:")
           for a in m.objects}

    def name(a, b, mid):
        return mid if plain else f"{esc[a]}>{esc[b]}:{mid}"

    morphisms = []
    to_mm: dict[str, MultiMap] = {}
    for a in m.objects:
        for b in m.objects:
            for mid in m.hom(e, (a,), b):
                mor = name(a, b, mid)
                morphisms.append((mor, a, b))
                to_mm[mor] = MultiMap(e, (a,), b, mid)
    identity = {a: name(a, a, m.identities[a]) for a in m.objects}
    compose = {}
    for gmor, gmm in to_mm.items():
        for fmor, fmm in to_mm.items():
            if fmm.output != gmm.inputs[0]:
                continue
            r = m.substitute(gmm, (fmm,))
            compose[(gmor, fmor)] = name(r.inputs[0], r.output, r.mid)
    cat = FinCategory(m.objects, tuple(morphisms), identity, compose)
    return cat, to_mm


# -- tight subsets ------------------------------------------------------------

def from_tight_subsets(m: TMulticategory, tight: dict[tuple[tuple[str, ...], str], frozenset]
                       ) -> TMulticategory:
    """Refine an ordinary multicategory by a class of tight multimaps closed
    under substitution in the first position.  Closure is checked on the ∘ᵢ
    keys with a tight outer map and a tight first inner; the identities are
    tight, so that covers g ∘ᵢ f for i > 1, and every other substitution
    with both tight is a fold of those steps."""
    if m.operad.name != "N":
        raise StructureError("input must be typed over the terminal operad")
    r = operad_by_name("R")
    for (inputs, output), mids in tight.items():
        if not inputs:
            raise StructureError("tight sets exist only at positive arity")
        if not set(mids) <= set(m.hom(TIGHT, inputs, output)):
            raise StructureError(f"tight set at {(inputs, output)!r} is not a subset")
    for a in m.objects:
        if m.identities[a] not in tight.get(((a,), a), frozenset()):
            raise StructureError(f"identity of {a!r} must be tight")

    def is_tight(mm_: MultiMap) -> bool:
        return mm_.arity > 0 and mm_.mid in tight.get((mm_.inputs, mm_.output), frozenset())

    maps, comp = m._table.maps, m._table.comp
    for g, i, f in m._keys():
        gm, res = maps[g], maps[comp[g][i][f]]
        if is_tight(gm) and (i or is_tight(maps[f])) and not is_tight(res):
            fs = m._inners(gm, i, maps[f])
            raise StructureError(
                f"tight class not closed: {gm.mid}({[h.mid for h in fs]}) = {res.mid} "
                f"at {res.key!r} is not tight")

    homs: dict[HomKey, tuple[str, ...]] = {}
    for (x0, inputs, output), mids in m.homs.items():
        homs[(LOOSE, inputs, output)] = mids
        if inputs:
            homs[(TIGHT, inputs, output)] = tuple(
                mid for mid in mids if mid in tight.get((inputs, output), frozenset()))

    return make_multicat(r, m.objects, m.max_arity, homs, dict(m.identities),
                         action_rule=_same_id, subst_rule=_retyped_subst(m, TIGHT))


def all_tight(m: TMulticategory) -> TMulticategory:
    tight = {}
    for (x, inputs, output), mids in m.homs.items():
        if inputs and mids:
            tight[(inputs, output)] = frozenset(mids)
    return from_tight_subsets(m, tight)


def loose_part(s: TMulticategory) -> TMulticategory:
    """The ordinary multicategory of loose multimaps."""
    n_op = operad_by_name("N")
    homs = {}
    for (x, inputs, output), mids in s.homs.items():
        if x == LOOSE:
            homs[(TIGHT, inputs, output)] = mids
    identities = {a: s.act(LAM, s.identity(a)).mid for a in s.objects}
    return make_multicat(n_op, s.objects, s.max_arity, homs, identities,
                         action_rule=_same_id, subst_rule=_retyped_subst(s, LOOSE))


def _same_id(fmor: str, m: MultiMap) -> str:
    """The action rule that keeps every id: tight maps are a subset of the
    loose ones, and the comparison is the inclusion."""
    return m.mid


def _retyped_subst(m: TMulticategory, x: str) -> Callable:
    """The substitution rule that substitutes in m with every map retyped
    to x."""
    def subst_rule(g: MultiMap, fs: tuple[MultiMap, ...]) -> str:
        return m.substitute(MultiMap(x, g.inputs, g.output, g.mid),
                            tuple(MultiMap(x, f.inputs, f.output, f.mid) for f in fs)).mid

    return subst_rule


# -- morphisms and isomorphism search -----------------------------------------

@dataclass
class MulticatMorphism:
    source: TMulticategory
    target: TMulticategory
    obj_map: dict[str, str]
    hom_maps: dict[HomKey, dict[str, str]]  # source hom key -> per-id assignment

    def on_map(self, m: MultiMap) -> MultiMap:
        return self.target.mm(*_image_key(m.key, self.obj_map), self.hom_maps[m.key][m.mid])


def _image_key(key: HomKey, obj_map: dict[str, str]) -> HomKey:
    """The hom key that an object map sends key to."""
    x, inputs, output = key
    return x, tuple([obj_map[a] for a in inputs]), obj_map[output]


def check_morphism(f: MulticatMorphism) -> list[Violation]:
    """The identity, action and ∘ᵢ substitution equations that f breaks.

    The action and ∘ᵢ equations are read off both endpoints' ``_table`` by
    ``_broken_equations``.  Every other substitution is the fold of ∘ᵢ
    steps within the bound (Markl, arXiv:math/0601129, §1), and on lawful
    endpoints f preserves it step by step.  Rows that a file stores for
    those substitutions are checked against the fold by ``check_tmulticat``,
    not here; the tests' full sweep (``tests/naive_oracles.py``) is the
    reference."""
    src, tgt = f.source, f.target
    if src.operad.name != tgt.operad.name or src.max_arity != tgt.max_arity:
        raise StructureError("morphism endpoints do not share operad and bound")
    for a in src.objects:
        if f.obj_map.get(a) not in set(tgt.objects):
            raise StructureError(f"object {a!r} not mapped into the target")
    for key, mids in src.homs.items():
        table = f.hom_maps.get(key)
        if table is None or set(table) != set(mids):
            raise StructureError(f"hom map at {key!r} missing or not total")
        if not set(table.values()) <= set(tgt.homs.get(_image_key(key, f.obj_map), ())):
            raise StructureError(f"hom map at {key!r} escapes the target hom")

    out = []
    for a in src.objects:
        if f.on_map(src.identity(a)) != tgt.identity(f.obj_map[a]):
            out.append(Violation.of("morphism-identity", obj=a))
    s, t = src._table, tgt._table
    img = [t.index[f.on_map(mm_)] for mm_ in s.maps]
    sites = ((s.index[mm_], phi)
             for phi, key in _action_sites(src.operad, src.max_arity, src.homs)
             for mm_ in src.maps(key))
    out.extend(_broken_equations(src, tgt, img, sites, src._keys()))
    return out


def _broken_equations(src: TMulticategory, tgt: TMulticategory, img: list,
                      action_sites, keys) -> Iterator[Violation]:
    """The action equations at the (k, phi) sites and the ∘ᵢ equations at
    the (g, i, f) keys, indices into src's ``_table``, that img breaks: it
    sends each index of src's maps to one of tgt's, and must be set at
    every index that an equation reads.  A ∘ᵢ equation has tgt's identities
    in the slots other than i."""
    s, t = src._table, tgt._table
    for k, phi in action_sites:
        if img[s.act[k][phi]] != t.act[img[k]][phi]:
            yield Violation.of("morphism-action", phi=phi, m=s.maps[k].mid)
    for g, i, f in keys:
        if img[s.comp[g][i][f]] != t.comp[img[g]][i][img[f]]:
            fs = src._inners(s.maps[g], i, s.maps[f])
            yield Violation.of("morphism-substitution", g=s.maps[g].mid,
                               fs=str([x.mid for x in fs]))


def iso_search(m: TMulticategory, n: TMulticategory) -> MulticatMorphism | None:
    """First isomorphism in canonical order, or None: per object bijection
    that keeps every hom's size, the first hom assignment of ``_assign_homs``.

    Substitution preservation is verified on single-position substitutions,
    decided on both tables by ``_broken_equations`` as in ``check_morphism``;
    for inputs satisfying the multicategory laws this forces preservation
    of all substitutions, since every substitution factors through them.
    Only the forward map is returned: the inverse of a bijective morphism
    is a morphism too.
    """
    if m.operad.name != n.operad.name or m.max_arity != n.max_arity:
        return None

    hom_keys = sorted(k for k in m.homs if m.homs[k])
    key_index = {k: i for i, k in enumerate(hom_keys)}

    # Constraints, (k, phi) and (g, i, f) indices, listed under the last hom
    # (in assignment order) they mention, so that every multimap one reads
    # is assigned when it is decided.  Both sides of one lie in one hom; if
    # m's has at most one multimap, so has its image under every
    # size-respecting sigma, and it holds.
    act_constraints: list[list] = [[] for _ in hom_keys]
    sub_constraints: list[list] = [[] for _ in hom_keys]
    t = m._table
    for k, acts in enumerate(t.act):
        for phi, r in acts.items():
            okey = t.maps[r].key
            if len(m.homs[okey]) > 1:
                act_constraints[max(key_index[t.maps[k].key], key_index[okey])].append((k, phi))
    for g, i, f in m._keys():
        gm, rkey = t.maps[g], t.maps[t.comp[g][i][f]].key
        if len(m.homs[rkey]) > 1:
            fs = m._inners(gm, i, t.maps[f])
            involved = {key_index[gm.key], key_index[rkey], *(key_index[x.key] for x in fs)}
            sub_constraints[max(involved)].append((g, i, f))

    sizes = {key: len(mids) for key, mids in m.homs.items()}
    for sigma in _object_bijections(m.objects, n.objects, sizes,
                                    lambda key, s: len(n.homs.get(_image_key(key, s), ()))):
        found = _assign_homs(m, n, sigma, hom_keys, act_constraints, sub_constraints)
        if found is not None:
            return MulticatMorphism(m, n, sigma, {k: found.get(k, {}) for k in m.homs})
    return None


def _assign_homs(m, n, sigma, keys, act_constraints, sub_constraints):
    """A bijection per hom key, in order, that fixes identities and breaks
    none of the constraints indexed by its key, found depth first; or None.
    The walk keeps one iterator of candidate tables per assigned key instead
    of recursing, so its depth is the number of keys, not the interpreter's
    stack.  A constraint reads no key past its own, so what a backtracked
    key leaves in assigned and img is overwritten before it is read."""
    assigned: dict[HomKey, dict[str, str]] = {}
    s_index, t_index = m._table.index, n._table.index
    img: list[int | None] = [None] * len(s_index)

    def candidates(idx: int) -> Iterator[bool]:
        """Sets assigned and img to each table for keys[idx] that breaks no
        constraint of its own, while the walk goes deeper."""
        key = keys[idx]
        tgt_key = _image_key(key, sigma)
        forced = {}
        if key[0] == m.operad.unit and len(key[1]) == 1 and key[1][0] == key[2]:
            forced[m.identities[key[2]]] = n.identities[sigma[key[2]]]
            if forced[m.identities[key[2]]] not in n.homs[tgt_key]:
                return
        for table in _hom_bijections(m.homs[key], n.homs[tgt_key], forced):
            assigned[key] = table
            for mm_ in m.maps(key):
                img[s_index[mm_]] = t_index[MultiMap(*tgt_key, table[mm_.mid])]
            broken = _broken_equations(m, n, img, act_constraints[idx], sub_constraints[idx])
            if next(broken, None) is None:
                yield True

    stack: list[Iterator[bool]] = []
    while len(stack) < len(keys):
        stack.append(candidates(len(stack)))
        while not next(stack[-1], False):
            stack.pop()
            if not stack:
                return None
    return assigned


# -- JSON ----------------------------------------------------------------------

_MC_KEYS = {"operad", "max_arity", "objects", "homs", "identities", "action", "subst"}


def multicat_to_json(m: TMulticategory, *, full: bool = True) -> dict:
    """The JSON document of ``m``: its action table, and a ``subst`` row for
    every substitution, or with ``full=False`` for each ∘ᵢ key only (the
    rows with at most one non-identity inner), sorted by key either way.

    The ``outer`` and inner dicts of the ``subst`` rows are shared: one dict
    per distinct (x, inputs, output, id) reference, so that the CLI writer
    renders each once.  A caller that edits an ``outer`` or inner in place
    must copy it first; replacing a row's ``result`` is safe."""
    images, results = m.materialize(full=full)
    homs = [{"x": x, "inputs": list(inputs), "output": output, "maps": list(mids)}
            for (x, inputs, output), mids in sorted(m.homs.items()) if mids]
    action = []
    for (fmor, (x, inputs, output)), table in sorted(images.items()):
        src_ids = list(m.homs[(x, inputs, output)])
        action.append({"n": len(inputs), "inputs": list(inputs), "output": output,
                       "map_t": src_ids, "map_l": [table[i] for i in src_ids]})
    refs: dict[MultiMap, dict] = {}

    def ref(f: MultiMap) -> dict:
        obj = refs.get(f)
        if obj is None:
            obj = refs[f] = {"x": f.x, "inputs": list(f.inputs), "output": f.output, "id": f.mid}
        return obj

    subst = [{"outer": ref(g), "inners": [ref(f) for f in fs], "result": rid}
             for (g, fs), rid in sorted(results.items())]
    return {
        "operad": m.operad.name,
        "max_arity": m.max_arity,
        "objects": list(m.objects),
        "homs": homs,
        "identities": dict(m.identities),
        "action": action,
        "subst": subst,
    }


_SUBST_KEYS = {"outer", "inners", "result"}


def _str_ids(values, what: str) -> tuple[str, ...]:
    return tuple(_str_id(v, what) for v in _json_array(values, what))


def multicat_from_json(data: dict) -> TMulticategory:
    """Read a multicategory, requiring string ids and exactly the documented
    keys in every row, and check each stored row's key as it is read (the
    README lists the checks).  The tables are wrapped as rules, whose
    substitution rule is asked only for ∘ᵢ rows.  Every ∘ᵢ row is read into
    the ``_table`` before the reader returns, so a missing ∘ᵢ row or an
    out-of-hom result raises here.  The ``subst`` table must hold exactly
    the ∘ᵢ rows, as ``convert --to multicat`` writes them, or a row for
    every key of ``subst_keys``; any other table raises, naming the first
    missing key.  A full table is kept as ``stored_subst`` for
    ``check_tmulticat`` to check.

    Each distinct ``outer``/inner reference is type-checked and looked up in
    its hom once, and its parsed form shared by every ``subst`` row that
    names it: a file repeats a few hundred references tens of thousands of
    times."""
    if not isinstance(data, dict) or set(data) != _MC_KEYS:
        raise StructureError(f"multicategory object must have exactly the keys {sorted(_MC_KEYS)}")
    if data["operad"] not in ("R", "N"):
        raise StructureError("operad must be \"R\" or \"N\"")
    op = operad_by_name(data["operad"])
    max_arity = arity_bound(data["max_arity"], "max_arity")
    refs: dict[tuple, tuple[MultiMap, str, int]] = {}
    # A reference outside its hom is reported after its row's inner outputs
    # are checked; reading stops at that row, so a non-empty list means it.
    outside: list[str] = []

    def ref(o, what: str) -> tuple[MultiMap, str, int]:
        """The multimap that a reference names, its output and its arity;
        the last two let one ``zip`` split a row's inners."""
        try:
            inputs = o["inputs"]
            # the class of inputs is part of the key: a string would give the
            # same tuple as the list of its characters
            raw = (o["x"], inputs.__class__, tuple(inputs), o["output"], o["id"])
        except KeyError:
            raw = None
        if raw is None or len(o) != 4:
            raise StructureError(f"subst {what} entries must have keys x/inputs/output/id")
        parsed = refs.get(raw)
        if parsed is None:
            x, _, inputs, output, mid = raw
            _str_ids(o["inputs"], f"subst {what} inputs")
            for name in ("x", "output", "id"):
                _str_id(o[name], f"subst {what} {name}")
            sig = (x, inputs, output)
            if mid not in homs.get(sig, ()):
                outside.append(f"subst {what} {mid!r} is not in hom {sig!r}")
            parsed = refs[raw] = (MultiMap(x, inputs, output, mid), output, len(inputs))
        return parsed

    try:
        objects = tuple(_str_id(x, "object") for x in _json_array(data["objects"], "objects"))
        if len(set(objects)) < len(objects):
            repeated = next(a for i, a in enumerate(objects) if a in objects[:i])
            raise StructureError(f"duplicate object id {repeated!r}")
        homs: dict[HomKey, tuple[str, ...]] = {}
        for h in _json_array(data["homs"], "homs"):
            if not isinstance(h, dict) or set(h) != {"x", "inputs", "output", "maps"}:
                raise StructureError("hom entries must have keys x/inputs/output/maps")
            hkey = (_str_id(h["x"], "hom x"), _str_ids(h["inputs"], "hom inputs"),
                    _str_id(h["output"], "hom output"))
            _no_repeat(homs, hkey, "hom")
            homs[hkey] = _str_ids(h["maps"], "hom maps")
        identities = {k: _str_id(v, f"identity of {k!r}")
                      for k, v in _json_object(data["identities"], "identities").items()}
        rows = _json_array(data["action"], "action")
        if rows and data["operad"] == "N":
            raise StructureError("terminal-operad multicategories carry no actions")
        sites = set(_action_sites(op, max_arity, [
            (x, inputs, b) for x, inputs in signatures(op, objects, max_arity) for b in objects]))
        action: dict[tuple[str, HomKey], dict[str, str]] = {}
        for e in rows:
            if not isinstance(e, dict) or set(e) != {"n", "inputs", "output", "map_t", "map_l"}:
                raise StructureError("action entries must have keys n/inputs/output/map_t/map_l")
            inputs = _str_ids(e["inputs"], "action inputs")
            if e["n"].__class__ is not int or e["n"] != len(inputs):
                raise StructureError(f"action row n={e['n']!r} is not the length "
                                     f"{len(inputs)} of its inputs")
            key = (TIGHT, inputs, _str_id(e["output"], "action output"))
            map_t = _str_ids(e["map_t"], "action map_t")
            map_l = _str_ids(e["map_l"], "action map_l")
            if len(map_t) != len(map_l):
                raise StructureError("action arrays must be parallel")
            _no_repeat(action, (LAM, key), "action")
            action[(LAM, key)] = table = dict(zip(map_t, map_l))
            if len(table) < len(map_t):
                raise StructureError(f"action row at {key!r} repeats a map_t id")
            if (LAM, key) not in sites:
                raise StructureError(f"action row at {key!r} names no tight signature "
                                     f"of arity 1 to {max_arity}")
            loose = (LOOSE, inputs, key[2])
            if set(table) != set(homs.get(key, ())) or not set(map_l) <= set(homs.get(loose, ())):
                raise StructureError(f"action row at {key!r} does not map its hom into {loose!r}")
        if len(action) < len(sites):
            raise StructureError(f"no action row at {min(sites - action.keys())[1]!r}")
        subst: dict = {}
        for e in _json_array(data["subst"], "subst"):
            if e.__class__ is not dict or e.keys() != _SUBST_KEYS:
                raise StructureError("subst entries must have keys outer/inners/result")
            g = ref(e["outer"], "outer")[0]
            inners = [ref(f, "inner") for f in _json_array(e["inners"], "subst inners")]
            if not inners:
                raise StructureError(f"subst row of outer {g.mid!r} at {g.key!r} has no inners")
            fs, outputs, arities = zip(*inners)
            if outputs != g.inputs:
                raise StructureError(f"subst inner outputs {list(outputs)} differ "
                                     f"from the inputs of outer {g.key!r}")
            if outside:
                raise StructureError(outside[0])
            total = sum(arities)
            if total > max_arity:
                raise StructureError(f"subst row of outer {g.mid!r} at {g.key!r} has inners of "
                                     f"total arity {total}, above max_arity {max_arity}")
            if (g, fs) in subst:
                raise StructureError(f"duplicate subst row for {_row_name(g, fs)!r}")
            subst[g, fs] = _str_id(e["result"], "subst result")
    except (KeyError, TypeError) as exc:
        raise StructureError(f"malformed multicategory JSON: {exc}") from exc
    m = make_multicat(op, objects, max_arity, homs, identities, stored_subst=subst,
                      **_table_rules(action, subst))
    m._table  # evaluates every ∘ᵢ row: raises if one is absent or lands outside its hom
    # The rows are distinct keys of subst_keys and hold every ∘ᵢ key, so
    # their count alone tells exactly the ∘ᵢ rows and exactly every key.
    if len(subst) == _partial_key_count(m):
        m.stored_subst = None  # each row is in _table; nothing is left to check
    elif len(subst) != _subst_key_count(m):
        missing = next(key for key in m.subst_keys() if key not in subst)
        raise StructureError(f"no substitution entry for {_row_name(*missing)!r}")
    return m


def _table_rules(action: dict, subst: dict) -> dict[str, Callable]:
    """The rules of ``make_multicat`` that look up tables in the format of
    ``TMulticategory.materialize``.  A missing key raises a
    ``StructureError`` that names it."""

    def action_rule(fmor: str, m: MultiMap) -> str:
        image = action.get((fmor, m.key), {}).get(m.mid)
        if image is None:
            raise StructureError(f"no action entry for {fmor!r} at {m.key!r}")
        return image

    def subst_rule(g: MultiMap, fs: tuple[MultiMap, ...]) -> str:
        mid = subst.get((g, fs))
        if mid is None:
            raise StructureError(f"no substitution entry for {_row_name(g, fs)!r}")
        return mid

    return {"action_rule": action_rule, "subst_rule": subst_rule}
