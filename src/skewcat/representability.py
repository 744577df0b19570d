"""Universal multimaps, classifiers, and representability analysis for skew
multicategories.

A classifier is its universal multimap θ: a₁…aₙ → A, whose output A is the
classifier object (Hermida, *Representable multicategories*, 2000).  A
classifier lookup takes a signature (x, inputs) to θ, or to None when there
is none: ``find_universal`` on a multicategory, the ``get`` of a weak
search's table, or the inductive lookup of ``build_inductive_classifiers``.

Every notion here is computed relative to the truncation bound of the input
and reported as such: a "universal" multimap is one whose defining bijections
hold at every output object, and a "left universal" one additionally admits
trailing input tuples up to the bound.  Searches run in lexicographic object
order with hom elements in stored order, so witnesses are deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .catoperad import LOOSE, TIGHT
from .fincat import FinCategory, StructureError, Violation, is_bijection_onto, preimage
from .tmulticat import HomKey, MultiMap, TMulticategory, signatures, underlying_with_maps

# A classifier lookup: (x, inputs) -> θ | None.  A string, as annotations are:
# a typing generic evaluated here would name MultiMap in typing's cache, which
# then keeps every fresh import of the package alive.
ClassifierLookup = "Callable[[tuple[str, tuple[str, ...]]], MultiMap | None]"


def _hom_bijection(s: TMulticategory, source: HomKey, target: HomKey,
                   image: Callable[[MultiMap], str]) -> bool:
    """Whether image carries the hom at source bijectively onto the hom at
    target.  Sizes in ``s.homs`` decide first: unequal sizes fail and sizes
    of at most one pass, so only a target of two or more members has the
    source's multimaps built and their images evaluated.

    Precondition: each image is a member of target, or computing it raises.
    ``substitute`` type-checks its result against its hom, so a substitution
    meets it.  The multicategory file reader evaluates every ∘ᵢ row before
    it returns, and every other substitution is their fold;
    ``monoidal_to_multicat`` composes morphisms of a category that has
    passed ``check_skew_monoidal``.  No law checker calls this.
    """
    members = s.homs.get(target, ())
    if len(s.homs.get(source, ())) != len(members):
        return False
    return len(members) <= 1 or is_bijection_onto([image(h) for h in s.maps(source)], members)


def _tails_bijective(s: TMulticategory, theta: MultiMap, ks: range | tuple[int, ...]) -> bool:
    """Substituting theta at the first position carries the unit-typed
    multimaps out of (theta.output, *tail) bijectively onto the hom theta
    represents with the tail appended, for every output and every tail of
    each length k in ks.  Lengths that would leave the truncation bound hold
    vacuously.

    theta is universal when this holds for k = 0, extends by one input for
    k = 1, and is left universal for every k up to the bound.
    """
    e = s.operad.unit
    image = lambda h: s.subst_after(h, 1, theta).mid
    for k in ks:
        if k > s.max_arity - max(1, theta.arity):
            continue
        rx = s.operad.subst_obj(e, (theta.x,) + (e,) * k, (theta.arity,) + (1,) * k)
        for tail in itertools.product(sorted(s.objects), repeat=k):
            for c in s.objects:
                if not _hom_bijection(s, (e, (theta.output, *tail), c),
                                      (rx, theta.inputs + tail, c), image):
                    return False
    return True


def find_universal(s: TMulticategory, x: str, inputs: tuple[str, ...]) -> MultiMap | None:
    """First universal multimap of the given type in canonical order.

    The unit-typed unary case is normalized: the classifier is the object
    itself and the universal multimap its identity.  Outputs m whose
    unit-typed homs out of m differ in size from the homs that m's maps
    represent are skipped; where those sizes are at most one, m's first map
    is universal by ``_hom_bijection``, without a substitution.
    """
    inputs = tuple(inputs)
    if len(inputs) > s.max_arity:
        raise StructureError("input tuple exceeds the truncation bound")
    e = s.operad.unit
    if x == e and len(inputs) == 1:
        return s.identity(inputs[0])
    homs, rx = s.homs, s.operad.subst_obj(e, (x,), (len(inputs),))
    sizes = [len(homs.get((rx, inputs, c), ())) for c in s.objects]
    for m in sorted(s.objects):
        if homs.get((x, inputs, m)) and sizes == [len(homs.get((e, (m,), c), ()))
                                                  for c in s.objects]:
            for theta in s.maps((x, inputs, m)):
                if max(sizes, default=0) <= 1 or _tails_bijective(s, theta, (0,)):
                    return theta
    return None


class NotLeftRepresentable(StructureError):
    def __init__(self, missing):
        self.missing = missing
        super().__init__(f"not left representable; missing classifier at {missing!r}")


@dataclass(frozen=True)
class WeakRepResult:
    table: dict[tuple[str, tuple[str, ...]], MultiMap]  # its get is a classifier lookup
    failure: tuple[str, tuple[str, ...]] | None

    @property
    def ok(self) -> bool:
        return self.failure is None


def is_weakly_representable(s: TMulticategory) -> WeakRepResult:
    """Search every signature once.  The table keeps every classifier found;
    the failure is the first signature in search order that has none."""
    table = {}
    failure = None
    for key in signatures(s.operad, sorted(s.objects), s.max_arity):
        theta = find_universal(s, *key)
        if theta is not None:
            table[key] = theta
        elif failure is None:
            failure = key
    return WeakRepResult(table, failure)


def build_inductive_classifiers(s: TMulticategory, nullary: MultiMap,
                                binary: dict[tuple[str, str], MultiMap]
                                ) -> ClassifierLookup:
    """Extend nullary and tight-binary classifiers to all arities: the unary
    tight classifier of an object is its identity, and each higher
    classifier tensors one more input onto its predecessor by substituting
    it into the binary universal map at the first position.  The lookup
    builds each entry, and its predecessors, on first use.  The entries are
    not checked to be universal here."""
    for a, b in itertools.product(s.objects, repeat=2):
        if (a, b) not in binary:
            raise StructureError(f"missing tight binary classifier at {(a, b)!r}")
    built = {(LOOSE, ()): nullary, **{(TIGHT, (a,)): s.identity(a) for a in s.objects}}

    def lookup(key: tuple[str, tuple[str, ...]]) -> MultiMap | None:
        theta = built.get(key)
        x, inputs = key
        if theta is None and x in (TIGHT, LOOSE) and 1 <= len(inputs) <= s.max_arity:
            prev = lookup((x, inputs[:-1]))
            pair = None if prev is None else binary.get((prev.output, inputs[-1]))
            if pair is not None:
                theta = built[key] = s.subst_after(pair, 1, prev)
        return theta

    return lookup


def find_classifiers(s: TMulticategory, lookup: ClassifierLookup):
    """(nullary, binary, failure): the nullary classifier, then the tight
    binary ones keyed by input pair, each looked up once in that order, and
    the failure that decides left representability (arXiv:1708.06088;
    Hermida, *Representable multicategories*, 2000, for the non-skew case).
    The failure is the first signature with no classifier, with binary None
    (and nullary None when the nullary one is missing); or
    ``"single-input extension fails"`` when one of the classifiers found is
    not left universal; or None.  ``lookup`` is ``find_universal`` on s or
    the ``get`` of a weak search's table."""
    nullary = lookup((LOOSE, ()))
    if nullary is None:
        return None, None, (LOOSE, ())
    binary = {}
    for a, b in itertools.product(s.objects, repeat=2):
        theta = lookup((TIGHT, (a, b)))
        if theta is None:
            return nullary, None, (TIGHT, (a, b))
        binary[(a, b)] = theta
    if not all(_left_universal(s, theta) for theta in (nullary, *binary.values())):
        return nullary, binary, "single-input extension fails"
    return nullary, binary, None


def _left_universal(s: TMulticategory, theta: MultiMap) -> bool:
    return _tails_bijective(s, theta, range(s.max_arity))


def _left_representable(s: TMulticategory, weak: WeakRepResult) -> bool:
    """Weak representability plus single-input extension of every universal
    multimap, read off a weak search that has already run: the fourth
    characterization of ``check_left_representability_equivalences``."""
    return weak.ok and all(_tails_bijective(s, theta, (1,)) for theta in weak.table.values())


def is_left_representable(s: TMulticategory) -> bool:
    """The nullary and tight binary classifiers exist and are left
    universal; only those 1 + n² signatures are searched."""
    return find_classifiers(s, lambda key: find_universal(s, *key))[2] is None


@dataclass(frozen=True)
class EquivalenceReport:
    conditions: dict[str, bool]
    violations: list[Violation]

    @property
    def agree(self) -> bool:
        return not self.violations


def check_left_representability_equivalences(s: TMulticategory) -> EquivalenceReport:
    """Four characterizations of left representability, evaluated separately;
    the report is empty exactly when they agree on the stored fragment."""
    weak = is_weakly_representable(s)
    cond = {}
    cond["all_universals_left_universal"] = weak.ok and all(
        _left_universal(s, theta) for theta in weak.table.values())
    nullary, binary, failure = find_classifiers(s, weak.table.get)
    if binary is not None:
        lookup = build_inductive_classifiers(s, nullary, binary)
        cond["inductive_classifiers_universal"] = all(
            _tails_bijective(s, lookup(key), (0,))
            for key in signatures(s.operad, sorted(s.objects), s.max_arity))
    else:
        cond["inductive_classifiers_universal"] = False
    cond["classifiers_left_universal"] = failure is None
    cond["weak_plus_single_extension"] = _left_representable(s, weak)
    violations = []
    if len(set(cond.values())) > 1:
        violations.append(Violation.of("equivalence-disagreement",
                                       **{k: str(v) for k, v in cond.items()}))
    return EquivalenceReport(cond, violations)


# -- closed structure ---------------------------------------------------------

@dataclass
class ClosedStructure:
    hom_obj: dict[tuple[str, str], str]
    evaluation: dict[tuple[str, str], MultiMap]
    hom_mor: dict[tuple[str, str], str]        # (u, v) -> [u, v], contravariant in u
    cat: FinCategory                           # the underlying category, of u, v and [u, v]


def _closed_sigs(s: TMulticategory) -> list[tuple[str, tuple[str, ...], str]]:
    """(x, inputs, rx) below the bound: rx types e ∘₁ f for e tight, f of type x."""
    return [(x, inputs, s.operad.subst_obj(TIGHT, (x, TIGHT), (len(inputs), 1)))
            for x, inputs in signatures(s.operad, sorted(s.objects), s.max_arity - 1)]


def _closed_pair_ok(s: TMulticategory, h: str, b: str, c: str, e: MultiMap) -> bool:
    image = lambda f: s.subst_after(e, 1, f).mid
    return all(_hom_bijection(s, (x, inputs, h), (rx, inputs + (b,), c), image)
               for x, inputs, rx in _closed_sigs(s))


def find_closed_structure(s: TMulticategory) -> ClosedStructure | None:
    """Internal homs with tight evaluation maps, then the induced hom functor
    Aᵒᵖ × A → A on the underlying category, as a table on pairs of
    morphisms, obtained by factoring unary actions on the evaluation through
    the defining bijections.  Candidates for [b, c] are filtered by hom
    sizes as in ``find_universal``."""
    hom_obj: dict[tuple[str, str], str] = {}
    evaluation: dict[tuple[str, str], MultiMap] = {}
    homs, sigs = s.homs, _closed_sigs(s)
    into = {h: [len(homs.get((x, inputs, h), ())) for x, inputs, _ in sigs] for h in s.objects}
    for b in sorted(s.objects):
        for c in sorted(s.objects):
            sizes = [len(homs.get((rx, inputs + (b,), c), ())) for _, inputs, rx in sigs]
            found = next((e for h in sorted(s.objects) if into[h] == sizes
                          for e in s.maps((TIGHT, (h, b), c))
                          if max(sizes, default=0) <= 1 or _closed_pair_ok(s, h, b, c, e)), None)
            if found is None:
                return None
            hom_obj[(b, c)], evaluation[(b, c)] = found.inputs[0], found

    cat, to_mm = underlying_with_maps(s)
    hom_mor = {}
    for u, ub1, ub2 in cat.morphisms:  # u: ub1 -> ub2 in A
        for v, vc1, vc2 in cat.morphisms:
            e_src = evaluation[(ub2, vc1)]
            target = s.substitute(to_mm[v], (s.subst_after(e_src, 2, to_mm[u]),))
            # the unique w: [ub2, vc1] -> [ub1, vc2] with e(w, 1_ub1) equal to target
            e_tgt = evaluation[(ub1, vc2)]
            w = preimage(cat.hom(e_src.inputs[0], e_tgt.inputs[0]),
                         lambda w: s.subst_after(e_tgt, 1, to_mm[w]), target)
            if w is None:
                raise StructureError("evaluation bijection has no preimage; structure is not closed")
            hom_mor[(u, v)] = w
    return ClosedStructure(hom_obj, evaluation, hom_mor, cat)


def _left_adjoint_ok(s: TMulticategory, closed: ClosedStructure) -> bool:
    """Pointwise representability of c -> A(a, [b, c]) for every a and b."""
    return all(any(_represents(s, closed, p, a, b) for p in sorted(s.objects))
               for b in s.objects for a in s.objects)


def _represents(s, closed, p, a, b) -> bool:
    cat = closed.cat
    return any(all(is_bijection_onto([cat.compose.get((closed.hom_mor[(cat.id_of(b), g)], u))
                                      for g in cat.hom(p, c)],
                                     cat.hom(a, closed.hom_obj[(b, c)]))
                   for c in s.objects)
               for u in cat.hom(a, closed.hom_obj[(b, p)]))


def check_closed_representability_equivalences(s: TMulticategory) -> EquivalenceReport:
    """Four characterizations that coincide for closed skew multicategories;
    reports "not closed" when there is no closed structure to begin with."""
    closed = find_closed_structure(s)
    if closed is None:
        return EquivalenceReport({}, [Violation.of("not-closed")])
    weak = is_weakly_representable(s)
    nullary, binary, failure = find_classifiers(s, weak.table.get)
    cond = {
        "left_representable": failure is None,
        "weakly_representable": weak.ok,
        "nullary_and_binary_classifiers": binary is not None,
    }
    cond["nullary_classifier_and_left_adjoints"] = (
        nullary is not None and _left_adjoint_ok(s, closed))
    violations = []
    if len(set(cond.values())) > 1:
        violations.append(Violation.of("equivalence-disagreement",
                                       **{k: str(v) for k, v in cond.items()}))
    return EquivalenceReport(cond, violations)


def analyze(s: TMulticategory) -> dict:
    """The analyzer record: representability and closedness flags with their
    witnesses, tagged with the truncation bound they were checked at.  Below
    arity 2 the binary homs that the tensor and the internal homs represent
    are not stored, so the flags would be vacuous or wrong."""
    if s.max_arity < 2:
        raise StructureError(f"analyze needs max_arity at least 2, got {s.max_arity}")
    weak = is_weakly_representable(s)
    closed = find_closed_structure(s)
    witnesses: dict = {}
    if weak.ok:
        witnesses["classifiers"] = {
            f"{x}({','.join(inputs)})": {"object": theta.output, "theta": theta.mid}
            for (x, inputs), theta in sorted(weak.table.items())}
    else:
        witnesses["failure"] = {"x": weak.failure[0], "inputs": list(weak.failure[1])}
    if closed is not None:
        witnesses["closed"] = {
            f"{b},{c}": {"object": h, "evaluation": closed.evaluation[(b, c)].mid}
            for (b, c), h in sorted(closed.hom_obj.items())}
    return {
        "weakly_representable": weak.ok,
        "left_representable": find_classifiers(s, weak.table.get)[2] is None,
        "closed": closed is not None,
        "closed_with_unit": closed is not None and (LOOSE, ()) in weak.table,
        "witnesses": witnesses,
        "checked_up_to_arity": s.max_arity,
    }
