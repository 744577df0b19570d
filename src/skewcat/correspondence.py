"""The two directions of the skew monoidal / skew multicategory correspondence,
round-trip verification, the loose-classifier adjunction, and classification
flags computed on both sides.

From the monoidal side, a colax algebra is built first: the functors are
left-bracketed tensor words (with a leading unit for the loose typing) and the
substitution comparisons are synthesized from right unit insertions followed
by reassociations, processing blocks right to left.  The multicategory is then
read off from that algebra.  From the multicategory side, a search of the
nullary and tight binary signatures gives their classifiers, which decide
left representability; the algebra along their left-bracketed extension is
read back as a skew monoidal category, its structure maps being the
comparisons that the first direction synthesizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .catoperad import LAM, LOOSE, TIGHT, make_L_operad
from .colaxalg import (
    InnerSpec, NormalColaxAlgebra, colax_to_multicat, left_bracketed_classifier_table,
    multicat_to_colax,
)
from .fincat import StructureError, Violation, is_bijection_onto, is_epimorphism, preimage
from .representability import ClassifierLookup, NotLeftRepresentable, find_closed_structure
from .skewmon import (
    SkewMonoidalCategory, _whiskered, is_closed_skew_monoidal, is_left_normal,
    left_bracketed_tensor, left_bracketed_tensor_mor, make_skew_monoidal,
    monoidal_iso_search, unit_absorption,
)
from .tmulticat import (
    MulticatMorphism, TMulticategory, _image_key, check_morphism, iso_search,
    underlying_with_maps,
)


# -- monoidal -> colax algebra -> skew multicategory ---------------------------

def _block_obj(c: SkewMonoidalCategory, x: str, objs: tuple[str, ...]) -> str:
    if not objs:
        return c.unit
    return left_bracketed_tensor(c, objs, leading_unit=(x == LOOSE))


def _gather(c: SkewMonoidalCategory, prefix: str, zs: tuple[str, ...]) -> str:
    """Reassociation lbt(prefix, z1..zk) -> prefix (x) lbt(z1..zk), outside in."""
    if len(zs) == 1:
        return c.base.id_of(c.t_obj(prefix, zs[0]))
    inner = left_bracketed_tensor(c, zs[:-1]) if len(zs) > 2 else zs[0]
    step = c.t_mor_left(_gather(c, prefix, zs[:-1]), zs[-1])
    return c.base.comp(c.alpha[(prefix, inner, zs[-1])], step)


def gamma_word(c: SkewMonoidalCategory, x: str, inner: InnerSpec,
               blocks: tuple[tuple[str, ...], ...]) -> str:
    """The comparison from the flattened left-bracketed word into the word of
    block values, built from right unit maps and reassociations."""
    base = c.base
    n = len(inner)
    if n == 0:
        return base.id_of(c.unit)
    if n == 1:
        (x1, k1), a = inner[0], blocks[0]
        if x == TIGHT:
            return base.id_of(_block_obj(c, x1, a))
        if k1 == 0:
            return c.rho[c.unit]
        if x1 == TIGHT:
            return _gather(c, c.unit, a)
        return base.comp(_gather(c, c.unit, (c.unit,) + a), _whiskered(c, c.rho[c.unit], a))
    prev_inner, prev_blocks = inner[:-1], blocks[:-1]
    (xn, kn), an = inner[-1], blocks[-1]
    eps = _loose_composite(c, x, inner)
    prefix = left_bracketed_tensor(
        c, tuple(a for blk in prev_blocks for a in blk), leading_unit=eps)
    bn = _block_obj(c, xn, an)
    if kn == 0:
        step_a = c.rho[prefix]
    elif xn == TIGHT:
        step_a = _gather(c, prefix, an)
    else:
        # right unit insertion after the prefix, whiskered up the spine
        step_a = base.comp(_gather(c, prefix, (c.unit,) + an), _whiskered(c, c.rho[prefix], an))
    prev = gamma_word(c, x, prev_inner, prev_blocks)
    return base.comp(c.t_mor_left(prev, bn), step_a)


def _loose_composite(c: SkewMonoidalCategory, x: str, inner: InnerSpec) -> bool:
    if x == LOOSE:
        return True
    return bool(inner) and inner[0][0] == LOOSE


def monoidal_to_colax(c: SkewMonoidalCategory, max_arity: int = 4) -> NormalColaxAlgebra:
    """Left-bracketed tensor functors with synthesized comparisons."""
    def m_obj_rule(x, objs):
        return _block_obj(c, x, objs)

    def m_mor_rule(x, mors):
        if not mors:
            return c.base.id_of(c.unit)
        return left_bracketed_tensor_mor(c, mors, leading_unit=(x == LOOSE))

    def op_mor_rule(phi, objs):
        if phi != LAM:
            raise StructureError(f"unexpected component morphism {phi!r}")
        return unit_absorption(c, objs)

    def gamma_rule(x, inner, blocks):
        return gamma_word(c, x, inner, blocks)

    return NormalColaxAlgebra(c.base, make_L_operad(), max_arity,
                              m_obj_rule, m_mor_rule, op_mor_rule, gamma_rule)


def colax_to_monoidal(alg: NormalColaxAlgebra) -> SkewMonoidalCategory:
    """The inverse of monoidal_to_colax: the tensor is the tight binary
    functor, the unit the loose nullary one, lambda the component at LAM, and
    rho and alpha the comparisons that gamma_word builds from them alone."""
    objs = alg.base.objects
    mors = [f for f, _, _ in alg.base.morphisms]
    tensor_obj = {(a, b): alg.m_obj(TIGHT, (a, b)) for a in objs for b in objs}
    tensor_mor = {(f, g): alg.m_mor(TIGHT, (f, g)) for f in mors for g in mors}
    alpha = {(a, b, d): alg.gamma(TIGHT, ((TIGHT, 1), (TIGHT, 2)), ((a,), (b, d)))
             for a in objs for b in objs for d in objs}
    lam = {a: alg.op_mor(LAM, (a,)) for a in objs}
    rho = {a: alg.gamma(TIGHT, ((TIGHT, 1), (LOOSE, 0)), ((a,), ())) for a in objs}
    return make_skew_monoidal(alg.base, tensor_obj, tensor_mor, alg.m_obj(LOOSE, ()),
                              alpha, lam, rho)


def monoidal_to_multicat(c: SkewMonoidalCategory, max_arity: int = 4) -> TMulticategory:
    """Tight multimaps out of left-bracketed tensors, loose ones out of the
    same words with a leading unit; the comparison precomposes the whiskered
    left unit map."""
    return colax_to_multicat(monoidal_to_colax(c, max_arity))


# -- skew multicategory -> colax algebra -> monoidal ------------------------------

def _monoidal_classifiers(s: TMulticategory) -> ClassifierLookup:
    """The left-bracketed classifier lookup of a left representable s."""
    if s.max_arity < 3:
        raise StructureError("need ternary homs to extract the associator")
    return left_bracketed_classifier_table(s)


def multicat_to_monoidal(s: TMulticategory) -> SkewMonoidalCategory:
    """The tensor represents tight binary maps and the unit loose nullary
    ones: the colax algebra along the left-bracketed classifiers, read back
    as a skew monoidal category."""
    return colax_to_monoidal(multicat_to_colax(s, _monoidal_classifiers(s)))


# -- round trips ----------------------------------------------------------------

@dataclass
class RoundtripVerdict:
    isomorphic: bool
    left_representable: bool
    witness: dict | None

    def to_json(self) -> dict:
        return {"isomorphic": self.isomorphic,
                "left_representable": self.left_representable,
                "witness": self.witness}


def roundtrip_monoidal(c: SkewMonoidalCategory, max_arity: int = 4) -> RoundtripVerdict:
    try:
        back = multicat_to_monoidal(monoidal_to_multicat(c, max_arity))
    except NotLeftRepresentable:
        return RoundtripVerdict(False, False, None)
    fwd = monoidal_iso_search(c, back)
    if fwd is None:
        return RoundtripVerdict(False, True, None)
    witness = {"objects": dict(fwd.functor.obj_map),
               "morphisms": dict(fwd.functor.mor_map),
               "binary": {f"{a},{b}": v for (a, b), v in fwd.binary.items()},
               "unit": fwd.unit}
    return RoundtripVerdict(True, True, witness)


class _Uncertified(Exception):
    """The isomorphism that a round trip found breaks ``violations``: a
    fault of the library, not a property of its input."""

    def __init__(self, violations: list[Violation]):
        first = violations[0]
        super().__init__(f"the isomorphism found breaks {len(violations)} equation(s), "
                         f"first {first.law} {dict(first.details)}")
        self.violations = violations


def _certify(fwd: MulticatMorphism) -> None:
    """Raise ``_Uncertified`` unless fwd preserves identities, action and
    ∘ᵢ (``check_morphism``) and is a bijection on objects and on every hom.
    Its inverse then preserves them too."""
    tgt, ob = fwd.target, fwd.obj_map
    broken = check_morphism(fwd)
    if not is_bijection_onto(list(ob.values()), tgt.objects):
        broken.append(Violation.of("morphism-bijection", objects=str(ob)))
    for key, table in sorted(fwd.hom_maps.items()):
        if not is_bijection_onto(list(table.values()), tgt.homs.get(_image_key(key, ob), ())):
            broken.append(Violation.of("morphism-bijection", key=str(key)))
    if broken:
        raise _Uncertified(broken)


def roundtrip_multicat(s: TMulticategory) -> RoundtripVerdict:
    """Raises ``_Uncertified`` when the isomorphism found fails its
    certificate (``_certify``)."""
    try:
        c = multicat_to_monoidal(s)
    except NotLeftRepresentable:
        return RoundtripVerdict(False, False, None)
    again = monoidal_to_multicat(c, s.max_arity)
    fwd = iso_search(s, again)
    if fwd is None:
        return RoundtripVerdict(False, True, None)
    _certify(fwd)
    witness = {"objects": dict(fwd.obj_map),
               "homs": {f"{x}({','.join(inputs)};{output})": table
                        for (x, inputs, output), table in sorted(fwd.hom_maps.items())
                        if table}}
    return RoundtripVerdict(True, True, witness)


# -- the loose-classifier adjunction --------------------------------------------

def check_loose_classifier_adjunction(s: TMulticategory) -> list[Violation]:
    """The tensor-with-unit functor is left adjoint to viewing tight unary
    maps as loose ones: substitution against the unit of the adjunction is a
    bijection natural in the output, and the counit is the left unit map,
    which substitutes the binary classifier first and the nullary one after."""
    out: list[Violation] = []
    table = _monoidal_classifiers(s)
    cat, to_mm = underlying_with_maps(s)
    nullary = table((LOOSE, ()))
    for a in s.objects:
        # the unit of the adjunction: the loose classifier of a, into i (x) a
        eta = table((LOOSE, (a,)))
        ia = eta.output
        for b in s.objects:
            images = [s.substitute(to_mm[cat_mor], (eta,)).mid
                      for cat_mor in cat.hom(ia, b)]
            if not is_bijection_onto(images, s.hom(LOOSE, (a,), b)):
                out.append(Violation.of("adjunction-bijection", a=a, b=b))
        loose_id = s.act(LAM, s.identity(a))
        counit = preimage(cat.hom(ia, a), lambda h: s.substitute(to_mm[h], (eta,)), loose_id)
        theta = table((TIGHT, (nullary.output, a)))
        lam = preimage(cat.hom(ia, a), lambda h: s.subst_after(
                           s.substitute(to_mm[h], (theta,)), 1, nullary),
                       loose_id)
        if counit is None:
            out.append(Violation.of("adjunction-counit-missing", a=a))
        elif counit != lam:
            out.append(Violation.of("adjunction-counit", a=a, counit=counit, lam=lam))
        # naturality of the bijection in the output object
        for h in cat.hom(ia, a):
            hm = to_mm[h]
            for b in s.objects:
                for u in cat.hom(a, b):
                    lhs = s.substitute(s.substitute(to_mm[u], (hm,)), (eta,))
                    rhs = s.substitute(to_mm[u], (s.substitute(hm, (eta,)),))
                    if lhs != rhs:
                        out.append(Violation.of("adjunction-naturality", a=a, u=u))
    return out


# -- classification ---------------------------------------------------------------

@dataclass
class ClassificationRecord:
    monoidal_flags: dict
    multicat_flags: dict

    @property
    def agree(self) -> bool:
        return self.monoidal_flags == self.multicat_flags

    def to_json(self) -> dict:
        return {"monoidal": self.monoidal_flags, "multicat": self.multicat_flags,
                "agree": self.agree}


def _monoidal_flags(c: SkewMonoidalCategory, max_arity: int) -> dict:
    epi = True
    for n in range(1, max_arity + 1):
        for tup in itertools.product(sorted(c.base.objects), repeat=n):
            if not is_epimorphism(c.base, unit_absorption(c, tup)):
                epi = False
                break
        if not epi:
            break
    return {
        "left_normal": is_left_normal(c),
        "lambda_epi": epi,
        "closed": is_closed_skew_monoidal(c) is not None,
    }


def _multicat_flags(s: TMulticategory) -> dict:
    bij = True
    inj = True
    for n in range(1, s.max_arity + 1):
        for inputs in itertools.product(sorted(s.objects), repeat=n):
            for b in s.objects:
                images = [s.act(LAM, t).mid for t in s.maps((TIGHT, inputs, b))]
                if len(set(images)) != len(images):
                    inj = False
                if not is_bijection_onto(images, s.hom(LOOSE, inputs, b)):
                    bij = False
    return {
        "left_normal": bij,
        "lambda_epi": inj,
        "closed": find_closed_structure(s) is not None,
    }


def classify(value, max_arity: int = 4) -> ClassificationRecord:
    """Flags computed on both sides of the correspondence; disagreement means
    a defect in the library, not in the input."""
    if isinstance(value, SkewMonoidalCategory):
        c = value
        s = monoidal_to_multicat(c, max_arity)
    else:
        s = value
        c = multicat_to_monoidal(s)
    return ClassificationRecord(_monoidal_flags(c, s.max_arity), _multicat_flags(s))
