"""The two directions of the skew monoidal / skew multicategory correspondence,
round-trip verification, the loose-classifier adjunction, and classification
flags computed on both sides.

From the monoidal side, a colax algebra is built first: the functors are
left-bracketed tensor words (with a leading unit for the loose typing) and the
substitution comparisons are synthesized from right unit insertions followed
by reassociations, processing blocks right to left.  The multicategory is then
read off from that algebra.  From the multicategory side, the tensor and unit
are classifier objects and the three structure maps are extracted through
explicitly materialized representation bijections.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .catoperad import LAM, LOOSE, TIGHT, make_L_operad
from .colaxalg import InnerSpec, NormalColaxAlgebra, colax_to_multicat
from .fincat import StructureError, Violation, is_bijection_onto, is_epimorphism, preimage
from .representability import (
    find_classifiers, find_closed_structure, find_universal, is_left_representable,
)
from .skewmon import (
    SkewMonoidalCategory, is_closed_skew_monoidal, is_left_normal,
    left_bracketed_tensor, left_bracketed_tensor_mor, make_skew_monoidal,
    monoidal_iso_search, unit_absorption,
)
from .tmulticat import SkewMulticategory, iso_search, underlying_with_maps


class NotLeftRepresentable(StructureError):
    def __init__(self, missing):
        self.missing = missing
        super().__init__(f"not left representable; missing classifier at {missing!r}")


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


def _insert_unit(c: SkewMonoidalCategory, prefix: str, tail: tuple[str, ...]) -> str:
    """Right unit insertion after the prefix, whiskered up the spine:
    lbt(prefix, tail) -> lbt(prefix, i, tail)."""
    acc = c.rho[prefix]
    for a in tail:
        acc = c.t_mor_left(acc, a)
    return acc


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
        return base.comp(_gather(c, c.unit, (c.unit,) + a),
                         _insert_unit(c, c.unit, a))
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
        step_a = base.comp(_gather(c, prefix, (c.unit,) + an),
                           _insert_unit(c, prefix, an))
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


def monoidal_to_multicat(c: SkewMonoidalCategory, max_arity: int = 4) -> SkewMulticategory:
    """Tight multimaps out of left-bracketed tensors, loose ones out of the
    same words with a leading unit; the comparison precomposes the whiskered
    left unit map."""
    return colax_to_multicat(monoidal_to_colax(c, max_arity))


# -- skew multicategory -> monoidal --------------------------------------------

@dataclass
class MonoidalConversion:
    monoidal: SkewMonoidalCategory
    witness: dict


def multicat_to_monoidal(s: SkewMulticategory) -> MonoidalConversion:
    """Read the monoidal structure off the classifiers: the tensor represents
    tight binary maps, the unit represents loose nullary maps, and each of the
    three structure maps is pulled back through one or two representation
    bijections, which are materialized into the returned witness."""
    if s.max_arity < 3:
        raise StructureError("need ternary homs to extract the associator")
    nullary, binary, missing = find_classifiers(s)
    if missing is not None:
        raise NotLeftRepresentable(missing)
    if not is_left_representable(s):
        raise NotLeftRepresentable("single-input extension fails")

    cat, to_mm = underlying_with_maps(s)
    from_mm = {mm: mor for mor, mm in to_mm.items()}
    unit = nullary.classifier
    theta0 = nullary.theta

    def m(a, b):
        return binary[(a, b)].classifier

    def th(a, b):
        return binary[(a, b)].theta

    tensor_obj = {(a, b): m(a, b) for a in s.objects for b in s.objects}
    tensor_mor = {}
    for f, a1, a2 in cat.morphisms:
        for g, b1, b2 in cat.morphisms:
            moved = s.substitute(th(a2, b2), (to_mm[f], to_mm[g]))
            theta = th(a1, b1)
            fg = preimage(cat.hom(m(a1, b1), m(a2, b2)),
                          lambda h: s.substitute(to_mm[h], (theta,)), moved)
            if fg is None:
                raise NotLeftRepresentable((theta.key, m(a2, b2)))
            tensor_mor[(f, g)] = fg

    witness: dict = {"unit": unit, "nullary_theta": theta0.mid,
                     "binary": {f"{a},{b}": {"object": m(a, b), "theta": th(a, b).mid}
                                for a in s.objects for b in s.objects},
                     "alpha_bijections": {}}

    rho = {}
    for a in s.objects:
        rho[a] = from_mm[s.subst_after(th(a, unit), 2, theta0)]

    lam = {}
    for a in s.objects:
        lam[a] = preimage(
            cat.hom(m(unit, a), a),
            lambda h: s.subst_after(s.substitute(to_mm[h], (th(unit, a),)), 1, theta0),
            s.j(s.identity(a)))
        if lam[a] is None:
            raise NotLeftRepresentable(("left-unit", a))

    alpha = {}
    for a in s.objects:
        for b in s.objects:
            for d in s.objects:
                xi = s.subst_after(th(a, m(b, d)), 2, th(b, d))
                first, second = {}, {}
                alpha[(a, b, d)] = None
                for h in cat.hom(m(m(a, b), d), m(a, m(b, d))):
                    k = s.substitute(to_mm[h], (th(m(a, b), d),))
                    first[h] = k.mid
                    full = s.subst_after(k, 1, th(a, b))
                    second[h] = full.mid
                    if full == xi and alpha[(a, b, d)] is None:
                        alpha[(a, b, d)] = h
                witness["alpha_bijections"][f"{a},{b},{d}"] = {
                    "after_outer": first, "after_inner": second, "target": xi.mid}
                if alpha[(a, b, d)] is None:
                    raise NotLeftRepresentable(("associator", (a, b, d)))

    monoidal = make_skew_monoidal(cat, tensor_obj, tensor_mor, unit,
                                  alpha, lam, rho)
    return MonoidalConversion(monoidal, witness)


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
        back = multicat_to_monoidal(monoidal_to_multicat(c, max_arity)).monoidal
    except NotLeftRepresentable:
        return RoundtripVerdict(False, False, None)
    pair = monoidal_iso_search(c, back)
    if pair is None:
        return RoundtripVerdict(False, True, None)
    fwd, _ = pair
    witness = {"objects": dict(fwd.functor.obj_map),
               "morphisms": dict(fwd.functor.mor_map),
               "binary": {f"{a},{b}": v for (a, b), v in fwd.binary.items()},
               "unit": fwd.unit}
    return RoundtripVerdict(True, True, witness)


def roundtrip_multicat(s: SkewMulticategory) -> RoundtripVerdict:
    try:
        c = multicat_to_monoidal(s).monoidal
    except NotLeftRepresentable:
        return RoundtripVerdict(False, False, None)
    again = monoidal_to_multicat(c, s.max_arity)
    pair = iso_search(s, again)
    if pair is None:
        return RoundtripVerdict(False, True, None)
    fwd, _ = pair
    witness = {"objects": dict(fwd.obj_map),
               "homs": {f"{x}({','.join(inputs)};{output})": table
                        for (x, inputs, output), table in sorted(fwd.hom_maps.items())
                        if table}}
    return RoundtripVerdict(True, True, witness)


# -- the loose-classifier adjunction --------------------------------------------

def check_loose_classifier_adjunction(s: SkewMulticategory) -> list[Violation]:
    """The tensor-with-unit functor is left adjoint to viewing tight unary
    maps as loose ones: substitution against the unit of the adjunction is a
    bijection natural in the output, and the counit is the constructed left
    unit map."""
    out: list[Violation] = []
    conv = multicat_to_monoidal(s)
    c = conv.monoidal
    cat, to_mm = underlying_with_maps(s)
    nullary = find_universal(s, LOOSE, ())
    theta0 = nullary.theta
    for a in s.objects:
        ub = find_universal(s, TIGHT, (nullary.classifier, a))
        eta = s.subst_after(ub.theta, 1, theta0)
        ia = ub.classifier
        for b in s.objects:
            images = [s.substitute(to_mm[cat_mor], (eta,)).mid
                      for cat_mor in cat.hom(ia, b)]
            if not is_bijection_onto(images, s.hom(LOOSE, (a,), b)):
                out.append(Violation.of("adjunction-bijection", a=a, b=b))
        counit = preimage(cat.hom(ia, a), lambda h: s.substitute(to_mm[h], (eta,)),
                          s.j(s.identity(a)))
        if counit is None:
            out.append(Violation.of("adjunction-counit-missing", a=a))
        elif counit != c.lambda_[a]:
            out.append(Violation.of("adjunction-counit", a=a, counit=counit,
                                    lam=c.lambda_[a]))
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


def _multicat_flags(s: SkewMulticategory) -> dict:
    bij = True
    inj = True
    for n in range(1, s.max_arity + 1):
        for inputs in itertools.product(sorted(s.objects), repeat=n):
            for b in s.objects:
                images = [s.j(t).mid for t in s.maps((TIGHT, inputs, b))]
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
        c = multicat_to_monoidal(s).monoidal
    return ClassificationRecord(_monoidal_flags(c, s.max_arity), _multicat_flags(s))
