import pytest

from skewcat.catoperad import LAM, TIGHT, make_R_operad
from skewcat.colaxalg import (
    NormalColaxAlgebra, check_colax_algebra, colax_to_multicat,
    has_strict_left_bracketing, left_bracketed_classifier_table, multicat_to_colax,
)
from skewcat.correspondence import monoidal_to_colax, monoidal_to_multicat
from skewcat.fincat import FinCategory, StructureError
from skewcat.representability import (
    _tails_bijective, is_left_representable, is_weakly_representable,
)
from skewcat.skewmon import make_skew_monoidal
from skewcat.tmulticat import check_tmulticat, iso_search, terminal_multicat
from conftest import two_chain_fst, two_chain_snd, z2_monoidal
from naive_oracles import naive_check_colax_algebra


@pytest.fixture(scope="module")
def fst3():
    return monoidal_to_multicat(two_chain_fst(), 3)


@pytest.fixture(scope="module")
def z2m():
    return monoidal_to_multicat(z2_monoidal(), 3)


def left_bracketed_algebra(s):
    """The algebra along the left-bracketed classifiers of s."""
    return multicat_to_colax(s, left_bracketed_classifier_table(s))


def with_rules(alg, **rules):
    """alg with some of its m_mor, op_mor and gamma rules replaced."""
    r = {"m_mor": alg.m_mor, "op_mor": alg.op_mor, "gamma": alg.gamma, **rules}
    return NormalColaxAlgebra(alg.base, alg.operad, alg.max_arity, alg.m_obj,
                              r["m_mor"], r["op_mor"], r["gamma"])


def with_value(alg, kind, key, value):
    """alg with the one m_mor, op_mor or gamma value at key replaced."""
    rule = getattr(alg, kind)
    return with_rules(alg, **{kind: lambda *args: value if args == key else rule(*args)})


def codiscrete_skew(max_arity=3):
    objs = ("a", "b")
    morphisms = tuple((f"h{p}{q}", p, q) for p in objs for q in objs)
    compose = {(f"h{y}{z}", f"h{x}{y}"): f"h{x}{z}"
               for x in objs for y in objs for z in objs}
    codisc = FinCategory(objs, morphisms, {"a": "haa", "b": "hbb"}, compose)
    t_obj = {(x, y): x for x in objs for y in objs}
    t_mor = {(f, g): f for f, _, _ in morphisms for g, _, _ in morphisms}
    alpha = {(x, y, z): codisc.id_of(x) for x in objs for y in objs for z in objs}
    lam = {x: f"ha{x}" for x in objs}
    rho = {x: codisc.id_of(x) for x in objs}
    c = make_skew_monoidal(codisc, t_obj, t_mor, "a", alpha, lam, rho)
    return monoidal_to_multicat(c, max_arity)


def test_derived_algebra_passes(fst3):
    alg = left_bracketed_algebra(fst3)
    assert check_colax_algebra(alg) == []
    assert has_strict_left_bracketing(alg)


def test_trivial_algebra_passes():
    term = terminal_multicat(make_R_operad(), 3)
    alg = multicat_to_colax(term, is_weakly_representable(term).table.get)
    assert check_colax_algebra(alg) == []
    assert has_strict_left_bracketing(alg)


def test_z2_algebra_passes(z2m):
    alg = left_bracketed_algebra(z2m)
    assert check_colax_algebra(alg) == []


def test_unit_functor_is_the_identity(fst3):
    alg = multicat_to_colax(fst3, is_weakly_representable(fst3).table.get)
    for a in alg.base.objects:
        assert alg.m_obj(alg.operad.unit, (a,)) == a
    for f, _, _ in alg.base.morphisms:
        assert alg.m_mor(alg.operad.unit, (f,)) == f


def test_gamma_mutant_reports_naturality(z2m):
    alg = left_bracketed_algebra(z2m)
    target = (TIGHT, ((TIGHT, 2), (TIGHT, 1)), (("x", "x"), ("x",)))

    def gamma_rule(x, inner, blocks):
        v = alg.gamma(x, inner, blocks)
        if (x, inner, blocks) == target:
            return "e1" if v == "e0" else "e0"
        return v

    mutant = NormalColaxAlgebra(alg.base, alg.operad, alg.max_arity,
                                alg.m_obj, alg.m_mor, alg.op_mor, gamma_rule)
    rep = check_colax_algebra(mutant)
    kinds = {v.law for v in rep}
    assert rep
    assert "subst-associativity" in kinds or "subst-naturality" in kinds


def test_op_mor_with_wrong_target_is_an_endpoint_violation():
    alg = monoidal_to_colax(two_chain_fst(), 2)
    mutant = with_value(alg, "op_mor", (LAM, ("0",)), "m11")
    assert {v.law for v in check_colax_algebra(mutant)} == {"op-mor-endpoints"}
    with pytest.raises(StructureError):
        check_tmulticat(colax_to_multicat(mutant))


@pytest.mark.parametrize("kind, key, law", [
    ("m_mor", (TIGHT, ("e1", "e1")), "functor-endpoints"),
    ("op_mor", (LAM, ("x",)), "op-mor-endpoints"),
    ("gamma", (TIGHT, ((TIGHT, 1), (TIGHT, 1)), (("x",), ("x",))), "gamma-endpoints"),
])
def test_a_value_that_is_no_morphism_is_an_endpoint_violation(kind, key, law):
    mutant = with_value(monoidal_to_colax(z2_monoidal(), 2), kind, key, "zz")
    assert [v.law for v in check_colax_algebra(mutant)] == [law]
    assert not naive_check_colax_algebra(mutant)


def test_functor_identity_is_checked_at_every_arity():
    # An automorphism P of m_t(x, x) put after each binary Gamma (as P^-1)
    # and before each binary m_t (as P) leaves every substitution of the
    # multicategory unchanged.  m_t(1, 1) = P shows the fault, and so do the
    # binary values the multicategory does not read: m_t(e1, e1) = P is not
    # m_t(e1, 1) ; m_t(1, e1) = P ; P, and Gamma at two unary loose inners is
    # not the composite of the two single-inner comparisons.
    alg = monoidal_to_colax(z2_monoidal(), 2)
    seq = alg.base.comp_seq

    def m_mor(x, mors):
        v = alg.m_mor(x, mors)
        return seq("e1", v) if (x, len(mors)) == (TIGHT, 2) else v

    def gamma(x, inner, blocks):
        v = alg.gamma(x, inner, blocks)
        return seq(v, "e1") if (x, len(inner)) == (TIGHT, 2) else v

    mutant = with_rules(alg, m_mor=m_mor, gamma=gamma)
    assert check_tmulticat(colax_to_multicat(mutant)) == []
    assert not naive_check_colax_algebra(mutant)
    assert [v.law for v in check_colax_algebra(mutant)] == \
        ["functor-identity", "functor-composition", "gamma-coassociativity"]


def oracle_reads(alg):
    """(kind, key) of each m_mor, op_mor and gamma value the oracle reads."""
    reads = []

    def recording(kind):
        def rule(*args):
            reads.append((kind, args))
            return getattr(alg, kind)(*args)
        return rule

    probe = with_rules(alg, **{k: recording(k) for k in ("m_mor", "op_mor", "gamma")})
    assert naive_check_colax_algebra(probe)
    return reads


@pytest.mark.parametrize("c", [z2_monoidal(), z2_monoidal(0, 1, 1), two_chain_snd()],
                         ids=["z2", "z2_011", "snd"])
def test_checker_agrees_with_nested_oracle_on_one_entry_mutants(c):
    alg = monoidal_to_colax(c, 2)
    reads = oracle_reads(alg)
    # the arity-0 values the multicategory never reads are among the mutants
    for x in alg.operad.component(0).objects:
        assert ("m_mor", (x, ())) in reads and ("gamma", (x, (), ())) in reads
    for kind, key in reads:
        for value, _, _ in alg.base.morphisms:
            if value == getattr(alg, kind)(*key):
                continue
            mutant = with_value(alg, kind, key, value)
            assert (check_colax_algebra(mutant) == []) == naive_check_colax_algebra(mutant), \
                (kind, key, value)


def test_transported_classifiers_break_strict_bracketing():
    sc = codiscrete_skew()
    weak = is_weakly_representable(sc)
    table = weak.table
    for theta in sc.maps((TIGHT, ("a", "a", "a"), "b")):
        if _tails_bijective(sc, theta, (0,)):
            table[(TIGHT, ("a", "a", "a"))] = theta
            break
    else:
        raise AssertionError("no alternative classifier found")
    twisted = multicat_to_colax(sc, table.get)
    assert check_colax_algebra(twisted) == []
    assert not has_strict_left_bracketing(twisted)
    normalized = left_bracketed_algebra(sc)
    assert check_colax_algebra(normalized) == []
    assert has_strict_left_bracketing(normalized)


def test_multicat_round_trip(fst3, z2m):
    for s in (fst3, z2m):
        alg = left_bracketed_algebra(s)
        back = colax_to_multicat(alg)
        assert check_tmulticat(back) == []
        assert iso_search(s, back) is not None


def test_trivial_round_trip():
    term = terminal_multicat(make_R_operad(), 3)
    back = colax_to_multicat(multicat_to_colax(term, is_weakly_representable(term).table.get))
    assert iso_search(term, back) is not None


def test_round_trip_is_weakly_representable_with_identity_universal(fst3):
    alg = left_bracketed_algebra(fst3)
    back = colax_to_multicat(alg)
    weak = is_weakly_representable(back)
    assert weak.ok
    for (x, inputs), theta in weak.table.items():
        assert theta.output == alg.m_obj(x, inputs)


def test_strict_bracketing_forces_left_representability(fst3, z2m):
    # translated back along a strictly bracketing algebra
    for s in (fst3, z2m):
        alg = left_bracketed_algebra(s)
        assert has_strict_left_bracketing(alg)
        assert is_left_representable(colax_to_multicat(alg))


def test_not_weakly_representable_raises(fst3):
    from skewcat.tmulticat import from_tight_subsets, loose_part
    lp = loose_part(fst3)
    only_id = from_tight_subsets(
        lp, {((a,), a): frozenset([lp.identities[a]]) for a in lp.objects})
    with pytest.raises(StructureError):
        left_bracketed_algebra(only_id)
