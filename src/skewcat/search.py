"""Exhaustive enumeration of skew monoidal structures on a finite category.

Candidates are generated in a fixed lexicographic order (unit, then the tensor
object table, then the tensor morphism table, then the three component
tables) and filtered through the full checker, so the output list is
deterministic for a given input category.

The tensor does not depend on the unit, so its functors are enumerated once
per base category.  The object table is assigned one cell at a time, in the
same lexicographic order, and a partial table is dropped as soon as a pair of
morphisms whose end cells are both fixed has no candidate image: an empty
hom, or an identity pair whose image could not be an identity.
"""

from __future__ import annotations

import itertools

from .fincat import FinCategory
from .skewmon import (
    SkewMonoidalCategory, check_skew_monoidal, make_skew_monoidal, tensor_composition_failures,
)


def _tensor_functors(base: FinCategory):
    objs = sorted(base.objects)
    obj_pairs = [(a, b) for a in objs for b in objs]
    cell = {pair: i for i, pair in enumerate(obj_pairs)}
    mors = sorted(m for m, _, _ in base.morphisms)
    mor_pairs = [(f, g) for f in mors for g in mors]
    # the morphism pairs whose end cells are all fixed once cell i is
    ends = [[] for _ in obj_pairs]
    for f, g in mor_pairs:
        src = (base.src(f), base.src(g))
        tgt = (base.tgt(f), base.tgt(g))
        ends[max(cell[src], cell[tgt])].append((f, g, src, tgt))
    assign: list[str] = []
    opts: dict[tuple[str, str], tuple[str, ...]] = {}

    def fits(pairs) -> bool:
        """Record the candidate images of the given morphism pairs under
        the partial object table; False as soon as one has none."""
        for f, g, src, tgt in pairs:
            s, t = assign[cell[src]], assign[cell[tgt]]
            o = base.hom(s, t)
            if base.is_identity(f) and base.is_identity(g):
                o = (base.id_of(s),) if s == t else ()
            if not o:
                return False
            opts[(f, g)] = o
        return True

    def extend():
        i = len(assign)
        if i == len(obj_pairs):
            tensor_obj = dict(zip(obj_pairs, assign))
            for mor_assign in itertools.product(*(opts[fg] for fg in mor_pairs)):
                tensor_mor = dict(zip(mor_pairs, mor_assign))
                if next(tensor_composition_failures(base, tensor_mor), None) is None:
                    yield tensor_obj, tensor_mor
            return
        for value in objs:
            assign.append(value)
            if fits(ends[i]):
                yield from extend()
            assign.pop()

    yield from extend()


def enumerate_skew_structures(base: FinCategory) -> list[SkewMonoidalCategory]:
    """Every skew monoidal structure on the given category, in canonical order."""
    objs = sorted(base.objects)
    triples = [(a, b, c) for a in objs for b in objs for c in objs]
    # the candidate α components of each functor, which no unit changes
    functors = [(t, tensor_mor, [base.hom(t[(t[(a, b)], c)], t[(a, t[(b, c)])])
                                 for a, b, c in triples])
                for t, tensor_mor in _tensor_functors(base)]
    found = []
    for unit in objs:
        for tensor_obj, tensor_mor, alpha_opts in functors:
            lambda_opts = [base.hom(tensor_obj[(unit, a)], a) for a in objs]
            rho_opts = [base.hom(a, tensor_obj[(a, unit)]) for a in objs]
            if any(not o for o in (*lambda_opts, *rho_opts, *alpha_opts)):
                continue
            for lam in itertools.product(*lambda_opts):
                for rho in itertools.product(*rho_opts):
                    for alpha in itertools.product(*alpha_opts):
                        cand = make_skew_monoidal(
                            base, tensor_obj, tensor_mor, unit,
                            dict(zip(triples, alpha)),
                            dict(zip(objs, lam)), dict(zip(objs, rho)))
                        if not check_skew_monoidal(cand):
                            found.append(cand)
    return found
