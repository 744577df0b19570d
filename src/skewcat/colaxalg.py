"""Normal colax algebras for a finite-component operad (the dual of the
tight/loose operad, in the main line of use), and the translation between
these and weakly representable multicategories.

An algebra carries one functor per component object and arity (stored as
tuple-keyed object/morphism assignments), one natural transformation per
component morphism, and substitution comparisons from each composite functor
into the corresponding nesting.  The unit functor is the identity by
construction, which is what "normal" means here.

``check_colax_algebra`` checks the endpoints of the structure, the identity
laws and the laws at the values the multicategory never reads directly, and
every other law through the multicategory that ``colax_to_multicat`` builds
from the algebra, whose substitution rule is evaluated on ∘ᵢ keys.
"""

from __future__ import annotations

import itertools
from typing import Callable

from .catoperad import TIGHT, CatOperad, dual_operad
from .fincat import FinCategory, StructureError, Violation, preimage
from .representability import (
    ClassifierLookup, NotLeftRepresentable, build_inductive_classifiers, find_classifiers,
    find_universal,
)
from .tmulticat import (
    MultiMap, TMulticategory, _last_step, check_tmulticat, make_multicat, signatures,
    underlying_with_maps,
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

    def _cached(self, tag: str, rule: Callable, *args) -> str:
        """rule(*args), evaluated once per tag and arguments."""
        key = (tag, *args)
        cache = self._cache
        if key not in cache:
            cache[key] = rule(*args)
        return cache[key]

    def m_obj(self, x: str, objs: tuple[str, ...]) -> str:
        if x == self.operad.unit and len(objs) == 1:
            return objs[0]
        return self._cached("o", self._m_obj_rule, x, objs)

    def m_mor(self, x: str, mors: tuple[str, ...]) -> str:
        if x == self.operad.unit and len(mors) == 1:
            return mors[0]
        return self._cached("m", self._m_mor_rule, x, mors)

    def op_mor(self, phi: str, objs: tuple[str, ...]) -> str:
        return self._cached("p", self._op_mor_rule, phi, objs)

    def gamma(self, x: str, inner: InnerSpec, blocks: tuple[tuple[str, ...], ...]) -> str:
        return self._cached("g", self._gamma_rule, x, inner, blocks)

    # -- derived --------------------------------------------------------

    def gamma_endpoints(self, x: str, inner: InnerSpec,
                        blocks: tuple[tuple[str, ...], ...]) -> tuple[str, str]:
        flat = tuple(a for blk in blocks for a in blk)
        cx = self.operad.subst_obj(x, tuple(xi for xi, _ in inner),
                                   tuple(k for _, k in inner))
        src = self.m_obj(cx, flat)
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
    """Endpoint violations if there are any; otherwise the laws at the values
    that the corresponding multicategory cannot see, then the violations of
    ``check_tmulticat(colax_to_multicat(alg))``.

    The endpoints checked are those of every value of m_mor and ``op_mor``
    and of Gamma at the shapes the multicategory reads, so every composite
    it forms exists; a value that is no morphism of the base category fails
    it.  Gamma at any other shape is checked against the values it reads
    (below), which fixes its endpoints too.  Its multimaps of type x
    out of ``inputs`` into b are the maps m_x(inputs) -> b, it acts by
    precomposing ``op_mor``, and it substitutes by g(f1..fn) = Gamma ;
    m_x(f1..fn) ; g on ∘ᵢ keys, folding the rest.  By Yoneda each colax law
    is a multicategory law with an identity as the outer map, given
    m_x(1..1) = 1, U = 1 for U the Gamma at unary unit inners, and that the
    formula agrees with the fold at every key: ``identity-left`` at the
    identity of m_x(tup) is the outer counit law; associativity with
    identity inner and deep maps is coassociativity, with identity inners
    and unit-typed unary deep maps naturality of Gamma, and with unit-typed
    unary inner and deep maps functoriality of m_x in one slot and, through
    the parallel family, the interchange of two slots; ``subst-naturality``
    with identity inners is naturality of Gamma in the operad slots, and
    with unit-typed unary inners naturality of ``op_mor``.

    The multicategory reads m_mor only at tuples with at most one
    non-identity slot, and Gamma only at shapes with at most one inner other
    than the unary unit.  The other values are checked against the ones it
    reads, which makes the formula agree with the fold, by induction on the
    number of such slots: ``functor-composition`` asks that m_x(f1..fn) be
    the composite of its one-slot images, left to right, and
    ``gamma-coassociativity`` that Gamma at such a shape be the comparison of
    the fold's last step, at the slot i that ``tmulticat._last_step`` names,
    followed by Gamma at the shape with a unit at i.  Nor does the
    multicategory see m_x(1..1) = 1: for an automorphism P of m_x(c), x not
    the unit, putting P^-1 after each Gamma into m_x(c) and P before each
    m_x(f) out of m_x(c) changes no ∘ᵢ substitution.
    ``functor-identity`` is therefore checked at every arity, and then
    ``identity-right`` (U ; m_x(1..1) = 1) gives U = 1.  Nor does it read
    the arity-0 Gamma(x; (); ()), since substituting no inner maps returns
    the outer map unchanged, so ``counit-inner`` is checked there.  The test
    suite cross-checks the verdict against nested quantification of every
    law (``tests/naive_oracles.py``)."""
    base = alg.base
    objs = base.objects
    mors = [m for m, _, _ in base.morphisms]
    unit = (alg.operad.unit, 1)
    out: list[Violation] = []
    functor: dict[tuple[str, tuple[str, ...]], str] = {}  # every value of m_mor
    for n in range(alg.max_arity + 1):
        comp = alg.operad.component(n)
        for x in comp.objects:
            for ms in itertools.product(mors, repeat=n):
                srcs = tuple(base.src(g) for g in ms)
                tgts = tuple(base.tgt(g) for g in ms)
                value = functor[x, ms] = alg.m_mor(x, ms)
                if value not in base.hom(alg.m_obj(x, srcs), alg.m_obj(x, tgts)):
                    out.append(Violation.of("functor-endpoints", x=x, fs=str(ms)))
        for phi, sx, tx in comp.morphisms:
            if comp.is_identity(phi):
                continue
            for tup in itertools.product(objs, repeat=n):
                if alg.op_mor(phi, tup) not in base.hom(alg.m_obj(sx, tup), alg.m_obj(tx, tup)):
                    out.append(Violation.of("op-mor-endpoints", phi=phi, objs=str(tup)))
    # each shape with the slots of its inners other than the unary unit
    shapes = [(x, inner, [i for i, yk in enumerate(inner) if yk != unit])
              for x, inner in _shapes(alg)]
    gammas: dict[tuple, str] = {}  # every value of Gamma
    for x, inner, moved in shapes:
        for blocks in _blocks(objs, tuple(k for _, k in inner)):
            value = gammas[x, inner, blocks] = alg.gamma(x, inner, blocks)
            if len(moved) < 2 and \
               value not in base.hom(*alg.gamma_endpoints(x, inner, blocks)):
                out.append(Violation.of("gamma-endpoints", x=x, inner=str(inner),
                                        blocks=str(blocks)))
    if out:
        return out

    for x, tup in signatures(alg.operad, objs, alg.max_arity):
        if functor[x, tuple(base.id_of(a) for a in tup)] != base.id_of(alg.m_obj(x, tup)):
            out.append(Violation.of("functor-identity", x=x, objs=str(tup)))
    for (x, ms), value in functor.items():
        moved = [i for i, f in enumerate(ms) if not base.is_identity(f)]
        if len(moved) < 2:
            continue
        steps = []  # one slot at a time, left to right
        for i in moved:
            # slots left of i are at their targets, the others at their sources
            tup = [base.id_of(base.tgt(f) if j < i else base.src(f)) for j, f in enumerate(ms)]
            tup[i] = ms[i]
            steps.append(functor[x, tuple(tup)])
        if value != base.comp_seq(*steps):
            out.append(Violation.of("functor-composition", x=x, fs=str(ms)))
    for x, inner, moved in shapes:
        if len(moved) < 2:
            continue
        # the last step of the fold, into the shape with a unit at i
        arities = tuple(k for _, k in inner)
        i, slot = _last_step(moved, arities)
        rest = inner[:i] + (unit,) + inner[i + 1:]
        x_rest = alg.operad.subst_obj(x, tuple(y for y, _ in rest), tuple(k for _, k in rest))
        for blocks in _blocks(objs, arities):
            rest_blocks = blocks[:i] + ((alg.m_obj(inner[i][0], blocks[i]),),) + blocks[i + 1:]
            flat = tuple(a for blk in rest_blocks for a in blk)
            step = gammas[x_rest,
                          tuple(inner[i] if j == slot else unit for j in range(len(flat))),
                          tuple(blocks[i] if j == slot else (a,) for j, a in enumerate(flat))]
            if gammas[x, inner, blocks] != base.comp_seq(step, gammas[x, rest, rest_blocks]):
                out.append(Violation.of("gamma-coassociativity", x=x, inner=str(inner),
                                        blocks=str(blocks)))
    for x in alg.operad.component(0).objects:
        if alg.gamma(x, (), ()) != base.id_of(alg.m_obj(x, ())):
            out.append(Violation.of("counit-inner", x=x, objs="()"))
    out.extend(check_tmulticat(colax_to_multicat(alg)))
    return out


def has_strict_left_bracketing(alg: NormalColaxAlgebra) -> bool:
    """True when appending one argument through the binary functor is the
    identity comparison: Gamma at (outer tight binary; (x at arity n, unit))
    is an identity for every x, n and object tuple."""
    base = alg.base
    unit = (alg.operad.unit, 1)
    return all(base.is_identity(alg.gamma(TIGHT, ((x, len(tup)), unit), (tup, (b,))))
               for x, tup in signatures(alg.operad, base.objects, alg.max_arity - 1)
               for b in base.objects)


# -- translation with multicategories -----------------------------------------

def left_bracketed_classifier_table(s: TMulticategory) -> ClassifierLookup:
    """Classifier choice that makes the translated algebra satisfy the strict
    left-bracketing property: the nullary and tight binary classifiers of s,
    extended inductively to the rest.  Only those 1 + n² signatures are
    searched; NotLeftRepresentable names the first one without a
    classifier, or says that one of them is not left universal."""
    nullary, binary, failure = find_classifiers(s, lambda key: find_universal(s, *key))
    if failure is not None:
        raise NotLeftRepresentable(failure)
    return build_inductive_classifiers(s, nullary, binary)


def multicat_to_colax(m: TMulticategory, table: ClassifierLookup) -> NormalColaxAlgebra:
    """Translate a weakly representable multicategory along a classifier
    lookup, which gives each signature its universal multimap."""
    cat, to_mm = underlying_with_maps(m)
    dual = dual_operad(m.operad)

    def phi_inverse(theta: MultiMap, b: str, target: MultiMap) -> str:
        """The unique underlying-category morphism g: theta.output -> b
        whose substitution against theta is the given multimap."""
        g = preimage(cat.hom(theta.output, b), lambda g: m.substitute(to_mm[g], (theta,)),
                     target)
        if g is None:
            raise NotLeftRepresentable((theta.key, b))
        return g

    def entry(x, inputs) -> MultiMap:
        theta = table((x, inputs))
        if theta is None:
            raise StructureError(f"classifier table misses {(x, inputs)!r}")
        return theta

    def m_obj_rule(x, objs):
        return entry(x, objs).output

    def m_mor_rule(x, mors):
        th_src = entry(x, tuple(cat.src(f) for f in mors))
        moved = entry(x, tuple(cat.tgt(f) for f in mors))
        b = moved.output
        for i, f in enumerate(mors):
            moved = m.subst_after(moved, i + 1, to_mm[f])
        return phi_inverse(th_src, b, moved)

    def op_mor_rule(phi, objs):
        comp_r = m.operad.component(len(objs))
        sx, tx = comp_r.src(phi), comp_r.tgt(phi)  # action direction
        th_t = entry(sx, objs)
        return phi_inverse(entry(tx, objs), th_t.output, m.act(phi, th_t))

    def gamma_rule(x, inner, blocks):
        thetas = tuple(entry(xi, blk) for (xi, _), blk in zip(inner, blocks))
        th_out = entry(x, tuple(theta.output for theta in thetas))
        big = m.substitute(th_out, thetas) if inner else th_out
        cx = dual.subst_obj(x, tuple(xi for xi, _ in inner),
                            tuple(k for _, k in inner))
        flat = tuple(a for blk in blocks for a in blk)
        return phi_inverse(entry(cx, flat), th_out.output, big)

    return NormalColaxAlgebra(cat, dual, m.max_arity,
                              m_obj_rule, m_mor_rule, op_mor_rule, gamma_rule)


def colax_to_multicat(alg: NormalColaxAlgebra) -> TMulticategory:
    """Multihoms are underlying-category homs out of the functor values;
    substitution on a ∘ᵢ key post-composes the functor image and the
    comparison map, and ``substitute`` folds the other keys."""
    base = alg.base
    op = dual_operad(alg.operad)
    homs = {(x, inputs, b): base.hom(alg.m_obj(x, inputs), b)
            for x, inputs in signatures(op, base.objects, alg.max_arity) for b in base.objects}
    identities = {a: base.id_of(a) for a in base.objects}

    def action_rule(phi, mm_):
        return base.comp_seq(alg.op_mor(phi, mm_.inputs), mm_.mid)

    def subst_rule(g, fs):
        inner = tuple((f.x, f.arity) for f in fs)
        blocks = tuple(f.inputs for f in fs)
        tensored = alg.m_mor(g.x, tuple(f.mid for f in fs))
        return base.comp_seq(alg.gamma(g.x, inner, blocks), tensored, g.mid)

    return make_multicat(op, base.objects, alg.max_arity, homs, identities,
                         action_rule=action_rule, subst_rule=subst_rule)

