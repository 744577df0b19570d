import pytest

from skewcat.catoperad import LOOSE, TIGHT, make_R_operad
from skewcat.fincat import check_functor
from skewcat.representability import (
    analyze, build_inductive_classifiers,
    check_closed_representability_equivalences,
    check_left_representability_equivalences, find_closed_structure,
    _left_universal, _tails_bijective, find_universal, is_left_representable,
    is_weakly_representable,
)
from skewcat.correspondence import monoidal_to_multicat
from skewcat.tmulticat import (
    check_tmulticat, from_tight_subsets, loose_part, make_multicat,
    terminal_multicat, underlying_category,
)
from conftest import two_chain_fst


@pytest.fixture(scope="module")
def fst():
    return monoidal_to_multicat(two_chain_fst(), 4)


@pytest.fixture(scope="module")
def terminal():
    return terminal_multicat(make_R_operad(), 3)


@pytest.fixture(scope="module")
def only_identities_tight():
    lp = loose_part(monoidal_to_multicat(two_chain_fst(), 3))
    tight = {((a,), a): frozenset([lp.identities[a]]) for a in lp.objects}
    return from_tight_subsets(lp, tight)


def first_input_tightness(max_arity=3):
    """Two discrete objects; every loose hom a singleton; a tight multimap
    exists exactly when the first input equals the output.  Closed, but the
    loose nullary maps are not representable."""
    r = make_R_operad()
    objects = ("a", "b")
    homs = {}
    for n in range(max_arity + 1):
        for x in r.component(n).objects:
            for inputs in _tuples(objects, n):
                for out in objects:
                    if x == LOOSE:
                        homs[(x, inputs, out)] = ("m",)
                    else:
                        homs[(x, inputs, out)] = ("m",) if inputs and inputs[0] == out else ()
    return make_multicat(r, objects, max_arity, homs,
                         {a: "m" for a in objects},
                         action_rule=lambda phi, mm_: "m",
                         subst_rule=lambda g, fs: "m")


def _tuples(objs, n):
    import itertools
    return itertools.product(objs, repeat=n)


def test_unary_tight_classifier_is_the_object(fst):
    for a in fst.objects:
        u = find_universal(fst, TIGHT, (a,))
        assert u.classifier == a
        assert u.theta == fst.identity(a)
        assert _tails_bijective(fst, u.theta, u.classifier, (0,)) and _left_universal(fst, u)


def test_nullary_classifier_is_the_bottom(fst):
    u = find_universal(fst, LOOSE, ())
    assert u.classifier == "0"
    assert _tails_bijective(fst, u.theta, u.classifier, (0,))


def test_binary_classifier_is_the_first_input(fst):
    for a in fst.objects:
        for b in fst.objects:
            u = find_universal(fst, TIGHT, (a, b))
            assert u.classifier == a


def test_weak_representability(fst, terminal):
    assert is_weakly_representable(fst).ok
    assert is_weakly_representable(terminal).ok


def test_emptied_hom_reports_failure(fst):
    small = monoidal_to_multicat(two_chain_fst(), 2).materialize()
    homs = {k: (() if k[0] == LOOSE and k[1] == () else v)
            for k, v in small.homs.items()}
    subst = {key: v for key, v in small.subst_table.items()
             if all(len(f[1]) > 0 or f[0] != LOOSE for f in key[2])}
    mutant = make_multicat(small.operad, small.objects, 2, homs,
                           small.identities, action_table=small.action_table,
                           subst_table=subst)
    res = is_weakly_representable(mutant)
    assert not res.ok
    assert res.failure == (LOOSE, ())


def test_left_representability(fst, terminal, only_identities_tight):
    assert is_left_representable(fst)
    assert is_left_representable(terminal)
    assert not is_left_representable(only_identities_tight)


def test_inductive_classifiers(fst):
    nullary = find_universal(fst, LOOSE, ())
    binary = {(a, b): find_universal(fst, TIGHT, (a, b))
              for a in fst.objects for b in fst.objects}
    table = build_inductive_classifiers(fst, nullary, binary)
    for a in fst.objects:
        assert table.get(TIGHT, (a,)).classifier == a
    # iterated first projection; leading unit collapses to the bottom
    for tup in _tuples(fst.objects, 3):
        assert table.get(TIGHT, tup).classifier == tup[0]
        assert table.get(LOOSE, tup).classifier == "0"
    assert all(_tails_bijective(fst, u.theta, u.classifier, (0,)) for u in table.entries.values())


def test_inductive_classifiers_on_terminal(terminal):
    nullary = find_universal(terminal, LOOSE, ())
    binary = {(a, b): find_universal(terminal, TIGHT, (a, b))
              for a in terminal.objects for b in terminal.objects}
    table = build_inductive_classifiers(terminal, nullary, binary)
    assert all(u.classifier == "*" for u in table.entries.values())


def test_equivalences_agree_on_good_and_bad_instances(fst, terminal, only_identities_tight):
    for s, expected in ((fst, True), (terminal, True), (only_identities_tight, False)):
        rep = check_left_representability_equivalences(s)
        assert rep.agree
        assert set(rep.conditions.values()) == {expected}


def test_left_universal_composition(fst):
    # substituting one left-universal map into another at the first position
    # stays left universal: the inductive table is built exactly that way
    nullary = find_universal(fst, LOOSE, ())
    binary = {(a, b): find_universal(fst, TIGHT, (a, b))
              for a in fst.objects for b in fst.objects}
    table = build_inductive_classifiers(fst, nullary, binary)
    assert all(_left_universal(fst, u) for u in table.entries.values())


def test_closed_structure(fst):
    closed = find_closed_structure(fst)
    assert closed is not None
    assert closed.hom_obj == {(b, c): c for b in fst.objects for c in fst.objects}
    assert check_functor(closed.hom_functor) == []


def test_closed_structure_terminal(terminal):
    closed = find_closed_structure(terminal)
    assert closed is not None
    assert set(closed.hom_obj.values()) == {"*"}


def test_universal_implies_left_universal_when_closed(fst, terminal):
    for s in (fst, terminal):
        assert find_closed_structure(s) is not None
        weak = is_weakly_representable(s)
        assert all(_left_universal(s, u) for u in weak.table.entries.values())


def test_not_closed_when_tight_homs_vanish(only_identities_tight):
    assert find_closed_structure(only_identities_tight) is None


def test_closed_equivalences_on_good_instance(fst):
    rep = check_closed_representability_equivalences(fst)
    assert rep.agree
    assert set(rep.conditions.values()) == {True}


def test_closed_without_nullary_classifier_agrees_on_false():
    s = first_input_tightness()
    assert check_tmulticat(s) == []
    assert find_closed_structure(s) is not None
    rep = check_closed_representability_equivalences(s)
    assert rep.agree
    assert set(rep.conditions.values()) == {False}


def test_closed_equivalences_report_not_closed(only_identities_tight):
    rep = check_closed_representability_equivalences(only_identities_tight)
    assert not rep.agree
    assert rep.violations[0].law == "not-closed"


def test_classifier_uniqueness_up_to_isomorphism():
    # two isomorphic objects: both are universal classifiers; the canonical
    # search returns the first, and the two are isomorphic underneath
    from skewcat.skewmon import make_skew_monoidal
    from skewcat.fincat import FinCategory
    objs = ("a", "b")
    morphisms = tuple((f"h{s}{t}", s, t) for s in objs for t in objs)
    compose = {(f"h{b}{c}", f"h{a}{b}"): f"h{a}{c}"
               for a in objs for b in objs for c in objs}
    codisc = FinCategory(objs, morphisms, {"a": "haa", "b": "hbb"}, compose)
    t_obj = {(x, y): x for x in objs for y in objs}
    t_mor = {(f, g): f for f, _, _ in morphisms for g, _, _ in morphisms}
    alpha = {(x, y, z): codisc.id_of(x) for x in objs for y in objs for z in objs}
    lam = {x: f"ha{x}" for x in objs}
    rho = {x: codisc.id_of(x) for x in objs}
    c = make_skew_monoidal(codisc, t_obj, t_mor, "a", alpha, lam, rho)
    s = monoidal_to_multicat(c, 3)
    u = find_universal(s, TIGHT, ("b", "a"))
    assert u.classifier == "a"  # canonically first among the isomorphic pair
    cat = underlying_category(s)
    other = "b"
    # the other candidate also classifies, and the two objects are isomorphic
    for theta in s.maps((TIGHT, ("b", "a"), other)):
        if _tails_bijective(s, theta, other, (0,)):
            break
    else:
        raise AssertionError("expected a second universal candidate")
    assert cat.is_iso(cat.hom("a", "b")[0])


def test_analyze_record(fst, only_identities_tight):
    rec = analyze(fst)
    assert rec["weakly_representable"] and rec["left_representable"]
    assert rec["closed"] and rec["closed_with_unit"]
    assert rec["checked_up_to_arity"] == 4
    assert "classifiers" in rec["witnesses"]
    rec2 = analyze(only_identities_tight)
    assert not rec2["weakly_representable"]
    assert "failure" in rec2["witnesses"]
