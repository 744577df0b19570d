"""Normal colax algebras for a finite-component operad (the dual of the
tight/loose operad, in the main line of use), and the translation between
these and weakly representable multicategories.

An algebra carries one functor per component object and arity (stored as
tuple-keyed object/morphism assignments), one natural transformation per
component morphism, and substitution comparisons from each composite functor
into the corresponding nesting.  The unit functor is the identity by
construction, which is what "normal" means here.
"""

from __future__ import annotations

import itertools
from typing import Callable

from .catoperad import TIGHT, CatOperad, dual_operad
from .fincat import FinCategory, StructureError, Violation, preimage
from .representability import (
    ClassifierTable, NotLeftRepresentable, WeakRepResult, build_inductive_classifiers,
    find_classifiers,
)
from .tmulticat import (
    MultiMap, SkewMulticategory, TMulticategory, make_multicat, signatures, underlying_with_maps,
)

InnerSpec = tuple[tuple[str, int], ...]  # ((x1, k1), ..., (xn, kn))


class NormalColaxAlgebra:
    """Functors m_x with substitution comparisons Gamma, typed over ``operad``.

    ``m_obj_rule(x, objs)`` and ``m_mor_rule(x, mors)`` evaluate the functor
    for the component object x at arity len(objs); ``op_mor_rule(phi, objs)``
    gives the component of the transformation attached to a component
    morphism phi; ``gamma_rule(x, inner, blocks)`` gives the comparison
    m_{x(x1..xn)}(flattened blocks) -> m_x(m_x1(block 1), ..., m_xn(block n))
    where ``inner`` lists (component object, arity) per slot.  Evaluations are
    cached; the unit functor is the identity without consulting any rule.
    """

    def __init__(self, base: FinCategory, operad: CatOperad, max_arity: int,
                 m_obj_rule: Callable[[str, tuple[str, ...]], str],
                 m_mor_rule: Callable[[str, tuple[str, ...]], str],
                 op_mor_rule: Callable[[str, tuple[str, ...]], str],
                 gamma_rule: Callable[[str, InnerSpec, tuple[tuple[str, ...], ...]], str]):
        self.base = base
        self.operad = operad
        self.max_arity = max_arity
        self._m_obj_rule = m_obj_rule
        self._m_mor_rule = m_mor_rule
        self._op_mor_rule = op_mor_rule
        self._gamma_rule = gamma_rule
        self._cache: dict = {}

    def m_obj(self, x: str, objs: tuple[str, ...]) -> str:
        if x == self.operad.unit and len(objs) == 1:
            return objs[0]
        key = ("o", x, objs)
        if key not in self._cache:
            self._cache[key] = self._m_obj_rule(x, objs)
        return self._cache[key]

    def m_mor(self, x: str, mors: tuple[str, ...]) -> str:
        if x == self.operad.unit and len(mors) == 1:
            return mors[0]
        key = ("m", x, mors)
        if key not in self._cache:
            self._cache[key] = self._m_mor_rule(x, mors)
        return self._cache[key]

    def op_mor(self, phi: str, objs: tuple[str, ...]) -> str:
        key = ("p", phi, objs)
        if key not in self._cache:
            self._cache[key] = self._op_mor_rule(phi, objs)
        return self._cache[key]

    def gamma(self, x: str, inner: InnerSpec, blocks: tuple[tuple[str, ...], ...]) -> str:
        key = ("g", x, inner, blocks)
        if key not in self._cache:
            self._cache[key] = self._gamma_rule(x, inner, blocks)
        return self._cache[key]

    # -- derived --------------------------------------------------------

    def composite_obj(self, x: str, inner: InnerSpec) -> str:
        return self.operad.subst_obj(x, tuple(xi for xi, _ in inner),
                                     tuple(k for _, k in inner))

    def gamma_endpoints(self, x: str, inner: InnerSpec,
                        blocks: tuple[tuple[str, ...], ...]) -> tuple[str, str]:
        flat = tuple(a for blk in blocks for a in blk)
        src = self.m_obj(self.composite_obj(x, inner), flat)
        tgt = self.m_obj(x, tuple(self.m_obj(xi, blk)
                                  for (xi, _), blk in zip(inner, blocks)))
        return src, tgt


def _blocks(items, ks):
    """Tuples of blocks, block i being a tuple of ks[i] items."""
    return itertools.product(*[list(itertools.product(items, repeat=k)) for k in ks])


def _inner_specs(operad: CatOperad, n: int, budget: int):
    """All ((x1,k1)..(xn,kn)) with sum(ki) <= budget, canonical order."""
    if n == 0:
        yield ()
        return
    for k in range(budget + 1):
        for x in operad.component(k).objects:
            for rest in _inner_specs(operad, n - 1, budget - k):
                yield ((x, k),) + rest


def _shapes(alg: NormalColaxAlgebra):
    for n in range(alg.max_arity + 1):
        for x in alg.operad.component(n).objects:
            for inner in _inner_specs(alg.operad, n, alg.max_arity):
                yield x, inner


def check_colax_algebra(alg: NormalColaxAlgebra) -> list[Violation]:
    """Functor laws, naturality of every structural transformation, the counit
    laws, and coassociativity of the substitution comparisons, quantified over
    the fragment with total arity within the bound."""
    base = alg.base
    out: list[Violation] = []
    objs = base.objects
    mors = [m for m, _, _ in base.morphisms]
    seq = base.comp_seq

    # functor laws for each m_x
    for n in range(alg.max_arity + 1):
        comp = alg.operad.component(n)
        for x in comp.objects:
            for tup in itertools.product(objs, repeat=n):
                got = alg.m_mor(x, tuple(base.id_of(a) for a in tup))
                if got != base.id_of(alg.m_obj(x, tup)):
                    out.append(Violation.of("functor-identity", x=x, objs=str(tup)))
            for pair_tuple in itertools.product(list(base.compose), repeat=n):
                gs = tuple(p[0] for p in pair_tuple)
                fs = tuple(p[1] for p in pair_tuple)
                lhs = alg.m_mor(x, tuple(base.comp(g, f) for g, f in pair_tuple))
                rhs = seq(alg.m_mor(x, fs), alg.m_mor(x, gs))
                if lhs != rhs:
                    out.append(Violation.of("functor-composition", x=x,
                                            gs=str(gs), fs=str(fs)))

    # component-morphism transformations: endpoints and naturality
    for n in range(alg.max_arity + 1):
        comp = alg.operad.component(n)
        for phi, sx, tx in comp.morphisms:
            if comp.is_identity(phi):
                continue
            for tup in itertools.product(objs, repeat=n):
                c = alg.op_mor(phi, tup)
                if base.src(c) != alg.m_obj(sx, tup) or base.tgt(c) != alg.m_obj(tx, tup):
                    out.append(Violation.of("op-mor-endpoints", phi=phi, objs=str(tup)))
            for ms in itertools.product(mors, repeat=n):
                srcs = tuple(base.src(f) for f in ms)
                tgts = tuple(base.tgt(f) for f in ms)
                lhs = seq(alg.m_mor(sx, ms), alg.op_mor(phi, tgts))
                rhs = seq(alg.op_mor(phi, srcs), alg.m_mor(tx, ms))
                if lhs != rhs:
                    out.append(Violation.of("op-mor-naturality", phi=phi, fs=str(ms)))

    # Gamma: endpoints, naturality in objects, naturality in the operad slots
    for x, inner in _shapes(alg):
        ks = tuple(k for _, k in inner)
        comp_n = alg.operad.component(len(inner))
        for blocks in _blocks(objs, ks):
            g = alg.gamma(x, inner, blocks)
            src, tgt = alg.gamma_endpoints(x, inner, blocks)
            if base.src(g) != src or base.tgt(g) != tgt:
                out.append(Violation.of("gamma-endpoints", x=x, inner=str(inner),
                                        blocks=str(blocks)))
        for mor_blocks in _blocks(mors, ks):
            src_blocks = tuple(tuple(base.src(f) for f in blk) for blk in mor_blocks)
            tgt_blocks = tuple(tuple(base.tgt(f) for f in blk) for blk in mor_blocks)
            flat = tuple(f for blk in mor_blocks for f in blk)
            cx = alg.composite_obj(x, inner)
            lhs = seq(alg.m_mor(cx, flat), alg.gamma(x, inner, tgt_blocks))
            per_block = tuple(alg.m_mor(xi, blk)
                              for (xi, _), blk in zip(inner, mor_blocks))
            rhs = seq(alg.gamma(x, inner, src_blocks), alg.m_mor(x, per_block))
            if lhs != rhs:
                out.append(Violation.of("gamma-naturality", x=x, inner=str(inner),
                                        mors=str(mor_blocks)))
        # one operad-morphism step at a time: outer slot, then each inner slot
        for blocks in _blocks(objs, ks):
            flat = tuple(a for blk in blocks for a in blk)
            for phi, sx, tx in comp_n.morphisms:
                if comp_n.is_identity(phi) or sx != x:
                    continue
                ids = tuple(alg.operad.component(k).id_of(xi) for xi, k in inner)
                step = alg.operad.subst_mor(phi, ids, ks)
                comp_total = alg.operad.component(sum(ks))
                mids = tuple(alg.m_obj(xi, blk) for (xi, _), blk in zip(inner, blocks))
                lhs = seq(_component_of(alg, step, flat, comp_total),
                          alg.gamma(tx, inner, blocks))
                rhs = seq(alg.gamma(x, inner, blocks), alg.op_mor(phi, mids))
                if lhs != rhs:
                    out.append(Violation.of("gamma-op-naturality", phi=phi, x=x,
                                            inner=str(inner)))
            for i, (xi, k) in enumerate(inner):
                comp_k = alg.operad.component(k)
                for phi, sx, tx in comp_k.morphisms:
                    if comp_k.is_identity(phi) or sx != xi:
                        continue
                    new_inner = tuple((tx, k) if j == i else pair
                                      for j, pair in enumerate(inner))
                    fmors = tuple(phi if j == i
                                  else alg.operad.component(inner[j][1]).id_of(inner[j][0])
                                  for j in range(len(inner)))
                    step = alg.operad.subst_mor(comp_n.id_of(x), fmors, ks)
                    comp_total = alg.operad.component(sum(ks))
                    phi_component = alg.op_mor(phi, blocks[i])
                    whisker = tuple(phi_component if j == i
                                    else base.id_of(alg.m_obj(inner[j][0], blocks[j]))
                                    for j in range(len(inner)))
                    lhs = seq(_component_of(alg, step, flat, comp_total),
                              alg.gamma(x, new_inner, blocks))
                    rhs = seq(alg.gamma(x, inner, blocks), alg.m_mor(x, whisker))
                    if lhs != rhs:
                        out.append(Violation.of("gamma-op-naturality", phi=phi,
                                                x=x, inner=str(inner), slot=str(i)))

    # counit laws
    e = alg.operad.unit
    for n in range(alg.max_arity + 1):
        comp = alg.operad.component(n)
        for x in comp.objects:
            inner = tuple(((e, 1),) * n)
            for tup in itertools.product(objs, repeat=n):
                blocks = tuple((a,) for a in tup)
                if alg.gamma(x, inner, blocks) != base.id_of(alg.m_obj(x, tup)):
                    out.append(Violation.of("counit-inner", x=x, objs=str(tup)))
            for tup in itertools.product(objs, repeat=n):
                if alg.gamma(e, ((x, n),), (tup,)) != base.id_of(alg.m_obj(x, tup)):
                    out.append(Violation.of("counit-outer", x=x, objs=str(tup)))

    # coassociativity: substituting twice agrees with comparing in one step
    for x, inner in _shapes(alg):
        if not inner:
            continue
        ks = tuple(k for _, k in inner)
        cx = alg.composite_obj(x, inner)
        deep_opts = [list(_inner_specs(alg.operad, k, alg.max_arity)) for k in ks]
        for deeps in itertools.product(*deep_opts):
            total = sum(kk for deep in deeps for _, kk in deep)
            if total > alg.max_arity:
                continue
            flat_deep = tuple(pair for deep in deeps for pair in deep)
            collapsed = tuple(
                (alg.composite_obj(xi, deep), sum(kk for _, kk in deep))
                for (xi, _), deep in zip(inner, deeps))
            for flat_blocks in _blocks(objs, [kk for deep in deeps for _, kk in deep]):
                idx = 0
                grouped = []
                for deep in deeps:
                    grouped.append(tuple(flat_blocks[idx:idx + len(deep)]))
                    idx += len(deep)
                grouped = tuple(grouped)
                value_blocks = tuple(
                    tuple(alg.m_obj(yj, blk) for (yj, _), blk in zip(deep, blks))
                    for deep, blks in zip(deeps, grouped))
                inner_first = seq(alg.gamma(cx, flat_deep, flat_blocks),
                                  alg.gamma(x, inner, value_blocks))
                slot_leaves = tuple(
                    tuple(a for blk in blks for a in blk) for blks in grouped)
                deep_gammas = tuple(
                    alg.gamma(xi, deep, blks)
                    for (xi, _), deep, blks in zip(inner, deeps, grouped))
                outer_first = seq(alg.gamma(x, collapsed, slot_leaves),
                                  alg.m_mor(x, deep_gammas))
                if inner_first != outer_first or inner_first is None:
                    out.append(Violation.of("coassociativity", x=x, inner=str(inner),
                                            deeps=str(deeps), blocks=str(flat_blocks)))
    return out


def _component_of(alg: NormalColaxAlgebra, step: str, objs_tuple: tuple[str, ...],
                  comp: FinCategory) -> str:
    """Component of the transformation attached to a (possibly identity)
    morphism of a component category."""
    if comp.is_identity(step):
        return alg.base.id_of(alg.m_obj(comp.src(step), objs_tuple))
    return alg.op_mor(step, objs_tuple)


def has_strict_left_bracketing(alg: NormalColaxAlgebra) -> bool:
    """True when appending one argument through the binary functor is the
    identity comparison: Gamma at (outer tight binary; (x at arity n, unit))
    is an identity for every x, n and object tuple."""
    base = alg.base
    for n in range(alg.max_arity):
        comp = alg.operad.component(n)
        for x in comp.objects:
            inner = ((x, n), (alg.operad.unit, 1))
            for tup in itertools.product(base.objects, repeat=n):
                for b in base.objects:
                    g = alg.gamma(TIGHT, inner, (tup, (b,)))
                    if not base.is_identity(g):
                        return False
    return True


# -- translation with multicategories -----------------------------------------

def left_bracketed_classifier_table(s: SkewMulticategory, weak: WeakRepResult
                                    ) -> ClassifierTable:
    """Classifier choice that makes the translated algebra satisfy the strict
    left-bracketing property: the nullary and tight binary classifiers of a
    weak search of s, extended inductively to the rest."""
    nullary, binary, missing = find_classifiers(s, weak)
    if missing is not None:
        raise NotLeftRepresentable(missing)
    return build_inductive_classifiers(s, nullary, binary)


def multicat_to_colax(m: TMulticategory, table: ClassifierTable) -> NormalColaxAlgebra:
    """Translate a weakly representable multicategory along a classifier
    choice."""
    cat, to_mm = underlying_with_maps(m)
    dual = dual_operad(m.operad)

    def phi_inverse(theta: MultiMap, classifier: str, b: str, target: MultiMap) -> str:
        """The unique underlying-category morphism g: classifier -> b whose
        substitution against theta is the given multimap."""
        g = preimage(cat.hom(classifier, b), lambda g: m.substitute(to_mm[g], (theta,)), target)
        if g is None:
            raise NotLeftRepresentable((theta.key, b))
        return g

    def entry(x, inputs) -> tuple[str, MultiMap]:
        u = table.get(x, inputs)
        if u is None:
            raise StructureError(f"classifier table misses {(x, inputs)!r}")
        return u.classifier, u.theta

    def m_obj_rule(x, objs):
        return entry(x, objs)[0]

    def m_mor_rule(x, mors):
        src = tuple(cat.src(f) for f in mors)
        tgt = tuple(cat.tgt(f) for f in mors)
        m_src, th_src = entry(x, src)
        m_tgt, th_tgt = entry(x, tgt)
        moved = th_tgt
        for i, f in enumerate(mors):
            moved = m.subst_after(moved, i + 1, to_mm[f])
        return phi_inverse(th_src, m_src, m_tgt, moved)

    def op_mor_rule(phi, objs):
        n = len(objs)
        comp_r = m.operad.component(n)
        sx, tx = comp_r.src(phi), comp_r.tgt(phi)  # action direction
        m_t, th_t = entry(sx, objs)
        m_l, th_l = entry(tx, objs)
        moved = m.act(phi, th_t)
        return phi_inverse(th_l, m_l, m_t, moved)

    def gamma_rule(x, inner, blocks):
        thetas = tuple(entry(xi, blk)[1] for (xi, _), blk in zip(inner, blocks))
        mids = tuple(entry(xi, blk)[0] for (xi, _), blk in zip(inner, blocks))
        m_out, th_out = entry(x, mids)
        big = m.substitute(th_out, thetas) if inner else th_out
        cx = dual.subst_obj(x, tuple(xi for xi, _ in inner),
                            tuple(k for _, k in inner))
        flat = tuple(a for blk in blocks for a in blk)
        m_cx, th_cx = entry(cx, flat)
        return phi_inverse(th_cx, m_cx, m_out, big)

    return NormalColaxAlgebra(cat, dual, m.max_arity,
                              m_obj_rule, m_mor_rule, op_mor_rule, gamma_rule)


def colax_to_multicat(alg: NormalColaxAlgebra) -> TMulticategory:
    """Multihoms are underlying-category homs out of the functor values;
    substitution post-composes the functor image and the comparison map."""
    base = alg.base
    op = dual_operad(alg.operad)
    homs = {(x, inputs, b): base.hom(alg.m_obj(x, inputs), b)
            for x, inputs, b in signatures(op, base.objects, alg.max_arity)}
    identities = {a: base.id_of(a) for a in base.objects}

    def action_rule(phi, mm_):
        component = alg.op_mor(phi, mm_.inputs)
        return base.comp(mm_.mid, component)

    def subst_rule(g, fs):
        inner = tuple((f.x, f.arity) for f in fs)
        blocks = tuple(f.inputs for f in fs)
        tensored = alg.m_mor(g.x, tuple(f.mid for f in fs))
        return base.comp_seq(alg.gamma(g.x, inner, blocks), tensored, g.mid)

    return make_multicat(op, base.objects, alg.max_arity, homs, identities,
                         action_rule=action_rule, subst_rule=subst_rule)

