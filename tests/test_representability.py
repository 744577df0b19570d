import itertools

import pytest

from skewcat import fincat, representability
from skewcat.catoperad import LOOSE, TIGHT, make_R_operad, operad_by_name
from skewcat.representability import (
    analyze, build_inductive_classifiers,
    check_closed_representability_equivalences,
    check_left_representability_equivalences, find_classifiers, find_closed_structure,
    NotLeftRepresentable, _left_representable, _left_universal, _tails_bijective,
    find_universal, is_left_representable, is_weakly_representable,
)
from skewcat.correspondence import (
    monoidal_to_multicat, multicat_to_monoidal, roundtrip_monoidal,
)
from skewcat.search import enumerate_skew_structures
from skewcat.tmulticat import (
    TMulticategory, all_tight, check_tmulticat, from_tight_subsets, loose_part,
    make_multicat, terminal_multicat, underlying_with_maps,
)
from conftest import (
    chain_category, two_chain_fst, two_chain_snd, with_tables, z2_category, z2_monoidal,
)
from naive_oracles import (
    naive_closed_pair_ok, naive_inductive_classifiers, naive_tails_bijective,
)


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


@pytest.fixture(scope="module")
def search_structures():
    """Every structure that the search finds on the 1-, 2- and 3-chains and
    on the one-object group of order two."""
    return [c for base in (chain_category(1), chain_category(2), chain_category(3),
                           z2_category())
            for c in enumerate_skew_structures(base)]


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


def two_ternary_maps():
    """One object at arity 3; one multimap of each arity below 3 and two
    ternary ones, p and q, tight and loose alike.  A ternary composite is the
    ternary map it contains unchanged, and p otherwise.  Lawful, with nullary
    and binary classifiers that are not left universal: substituting the
    binary one into itself reaches p alone."""
    r = make_R_operad()
    mids = {0: ("u",), 1: ("i",), 2: ("b",), 3: ("p", "q")}
    homs = {(x, ("*",) * n, "*"): mids[n] for n in mids for x in r.component(n).objects}

    def subst_rule(g, fs):
        n = sum(f.arity for f in fs)
        whole = [f.mid for f in fs if f.arity == 3]
        if n == 3 and whole:
            return whole[0]
        if n == 3 and all(f.arity == 1 for f in fs):
            return g.mid
        return mids[n][0]

    return make_multicat(r, ("*",), 3, homs, {"*": "i"},
                         action_rule=lambda phi, mm_: mm_.mid, subst_rule=subst_rule)


def boolean_product(max_arity=3):
    """One object x over the terminal operad; every hom is ("0", "1"), the
    identity is "1", and a substitution is the Boolean product (AND) of the
    multimaps it composes.  Substituting "0" anywhere gives "0"."""
    homs = {(TIGHT, ("x",) * n, "x"): ("0", "1") for n in range(max_arity + 1)}

    def subst_rule(g, fs):
        return "1" if all(f.mid == "1" for f in (g, *fs)) else "0"

    return make_multicat(operad_by_name("N"), ("x",), max_arity, homs, {"x": "1"},
                         action_rule=lambda phi, mm_: mm_.mid, subst_rule=subst_rule)


def _tuples(objs, n):
    import itertools
    return itertools.product(objs, repeat=n)


def entries(s, lookup) -> dict:
    """A classifier lookup read at every signature (x, inputs) of s."""
    return {(x, inputs): lookup((x, inputs)) for n in range(s.max_arity + 1)
            for x in s.operad.component(n).objects
            for inputs in itertools.product(sorted(s.objects), repeat=n)}


def test_unary_tight_classifier_is_the_object(fst):
    for a in fst.objects:
        theta = find_universal(fst, TIGHT, (a,))
        assert theta.output == a
        assert theta == fst.identity(a)
        assert _tails_bijective(fst, theta, (0,)) and _left_universal(fst, theta)


def test_nullary_classifier_is_the_bottom(fst):
    theta = find_universal(fst, LOOSE, ())
    assert theta.output == "0"
    assert _tails_bijective(fst, theta, (0,))


def test_binary_classifier_is_the_first_input(fst):
    for a in fst.objects:
        for b in fst.objects:
            assert find_universal(fst, TIGHT, (a, b)).output == a


def test_weak_representability(fst, terminal):
    assert is_weakly_representable(fst).ok
    assert is_weakly_representable(terminal).ok


def emptied_nullary_homs():
    """fst at arity 2 with every loose nullary hom emptied."""
    small = monoidal_to_multicat(two_chain_fst(), 2)
    homs = {k: (() if k[0] == LOOSE and k[1] == () else v)
            for k, v in small.homs.items()}
    action, subst = small.materialize()
    subst = {key: v for key, v in subst.items()
             if all(f.inputs or f.x != LOOSE for f in key[1])}
    return with_tables(small, action, subst, homs)


def test_emptied_hom_reports_failure(fst):
    res = is_weakly_representable(emptied_nullary_homs())
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
        assert table((TIGHT, (a,))).output == a
    # iterated first projection; leading unit collapses to the bottom
    for tup in _tuples(fst.objects, 3):
        assert table((TIGHT, tup)).output == tup[0]
        assert table((LOOSE, tup)).output == "0"
    assert all(_tails_bijective(fst, theta, (0,)) for theta in entries(fst, table).values())


def test_inductive_classifiers_on_terminal(terminal):
    nullary = find_universal(terminal, LOOSE, ())
    binary = {(a, b): find_universal(terminal, TIGHT, (a, b))
              for a in terminal.objects for b in terminal.objects}
    table = build_inductive_classifiers(terminal, nullary, binary)
    assert all(theta.output == "*" for theta in entries(terminal, table).values())


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
    assert all(_left_universal(fst, theta) for theta in entries(fst, table).values())


def test_closed_structure(fst):
    closed = find_closed_structure(fst)
    assert closed is not None
    assert closed.hom_obj == {(b, c): c for b in fst.objects for c in fst.objects}
    # [-, -] is a functor Aᵒᵖ × A -> A on the underlying category A, both
    # here and on Z/2, where it is not thin
    z2 = monoidal_to_multicat(z2_monoidal(), 3)
    z2_closed = find_closed_structure(z2)
    assert z2_closed.hom_mor[("e1", "e0")] == "e1"
    for closed, cat in ((closed, underlying_with_maps(fst)[0]),
                        (z2_closed, underlying_with_maps(z2)[0])):
        hom, mors = closed.hom_mor, cat.morphisms
        for u, b1, b2 in mors:
            for v, c1, c2 in mors:
                assert (cat.src(hom[(u, v)]), cat.tgt(hom[(u, v)])) == (
                    closed.hom_obj[(b2, c1)], closed.hom_obj[(b1, c2)])
        for b in cat.objects:
            for c in cat.objects:
                assert hom[(cat.id_of(b), cat.id_of(c))] == cat.id_of(closed.hom_obj[(b, c)])
        for (u2, u1), u in cat.compose.items():
            for (v2, v1), v in cat.compose.items():
                assert hom[(u, v)] == cat.comp(hom[(u1, v2)], hom[(u2, v1)])


def test_closed_structure_terminal(terminal):
    closed = find_closed_structure(terminal)
    assert closed is not None
    assert set(closed.hom_obj.values()) == {"*"}


def test_universal_implies_left_universal_when_closed(fst, terminal):
    for s in (fst, terminal):
        assert find_closed_structure(s) is not None
        weak = is_weakly_representable(s)
        assert all(_left_universal(s, theta) for theta in weak.table.values())


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
    assert find_universal(s, TIGHT, ("b", "a")).output == "a"  # canonically first
    cat = underlying_with_maps(s)[0]
    # the other candidate also classifies, and the two objects are isomorphic
    for theta in s.maps((TIGHT, ("b", "a"), "b")):
        if _tails_bijective(s, theta, (0,)):
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


def test_left_representability_agrees_with_the_weak_search(search_structures,
                                                           only_identities_tight):
    # the decision from the nullary and binary classifiers against weak
    # representability plus single-input extension of every universal
    z2_variants = [z2_monoidal(*v) for v in itertools.product((0, 1), repeat=3)]
    instances = [monoidal_to_multicat(c, n) for c in (*search_structures, *z2_variants)
                 for n in (3, 4)]
    instances += [only_identities_tight, emptied_nullary_homs(), two_ternary_maps()]
    assert len(instances) == 2 * (36 + 8) + 3
    verdicts = []
    for s in instances:
        weak = is_weakly_representable(s)
        expected = _left_representable(s, weak)
        assert is_left_representable(s) == expected
        assert (find_classifiers(s, weak.table.get)[2] is None) == expected
        verdicts.append(expected)
    assert not any(verdicts[-3:]) and sum(verdicts) >= 2 * 36


def test_classifiers_that_do_not_extend_fail_left_representability():
    s = two_ternary_maps()
    assert check_tmulticat(s) == []
    assert find_classifiers(s, lambda key: find_universal(s, *key))[2] == \
        "single-input extension fails"
    with pytest.raises(NotLeftRepresentable) as err:
        multicat_to_monoidal(s)
    assert err.value.missing == "single-input extension fails"


def test_on_demand_classifier_table_equals_the_eager_build(search_structures):
    for c in search_structures:
        s = monoidal_to_multicat(c, 4)
        nullary, binary, failure = find_classifiers(s, lambda key: find_universal(s, *key))
        assert failure is None
        eager = naive_inductive_classifiers(s, nullary, binary)
        table = build_inductive_classifiers(s, nullary, binary)
        # a deep entry first, so that it builds its predecessors on demand
        deepest = max(eager, key=lambda key: len(key[1]))
        assert table(deepest) == eager[deepest]
        assert entries(s, table) == eager
        assert all(key == (theta.x, theta.inputs) for key, theta in entries(s, table).items())


def _search_results(s):
    """Everything the representability searches answer about s: the weak
    table and its failure, the classifier decision, the closed structure,
    the analyzer record and both equivalence reports."""
    weak = is_weakly_representable(s)
    closed = find_closed_structure(s)
    return (weak.table,
            weak.failure,
            find_classifiers(s, lambda key: find_universal(s, *key)),
            None if closed is None else (closed.hom_obj, closed.evaluation),
            analyze(s),
            check_left_representability_equivalences(s),
            check_closed_representability_equivalences(s))


def test_size_rule_agrees_with_the_evaluating_oracle(search_structures, only_identities_tight,
                                                     monkeypatch):
    z2_variants = [z2_monoidal(*v) for v in itertools.product((0, 1), repeat=3)]
    instances = [monoidal_to_multicat(c, n) for c in (*search_structures, *z2_variants)
                 for n in (3, 4)]
    instances += [only_identities_tight, emptied_nullary_homs(), all_tight(boolean_product()),
                  monoidal_to_multicat(two_chain_fst(), 4),
                  monoidal_to_multicat(two_chain_snd(), 4)]
    sized = [_search_results(s) for s in instances]
    monkeypatch.setattr(representability, "_tails_bijective", naive_tails_bijective)
    monkeypatch.setattr(representability, "_closed_pair_ok", naive_closed_pair_ok)
    evaluated = [_search_results(s) for s in instances]
    assert evaluated == sized
    # both verdicts occur, so the comparison is not between constant answers
    assert {r[4]["left_representable"] for r in sized} == {True, False}
    assert {r[4]["closed"] for r in sized} == {True, False}


def test_a_non_injective_substitution_map_rejects_its_multimap(monkeypatch):
    m = boolean_product()
    s = all_tight(m)
    assert check_tmulticat(m) == [] and check_tmulticat(s) == []
    zero, one = s.maps((TIGHT, ("x", "x"), "x"))
    # h ∘₁ "0" sends both members of the two-element unary hom to "0"
    answers = []

    def recorded(images, target):
        answers.append(fincat.is_bijection_onto(images, target))
        return answers[-1]

    monkeypatch.setattr(representability, "is_bijection_onto", recorded)
    assert not _tails_bijective(s, zero, (0,))
    assert answers == [False]
    assert find_universal(s, TIGHT, ("x", "x")) == one
    assert not naive_tails_bijective(s, zero, (0,))
    assert naive_tails_bijective(s, one, (0,))
    monkeypatch.setattr(representability, "_tails_bijective", naive_tails_bijective)
    assert find_universal(s, TIGHT, ("x", "x")) == one


def test_substitution_counts_of_the_three_chain_searches(monkeypatch):
    # deterministic work: 36,791 and 16,358 calls when every hom bijection
    # was decided by evaluating its substitutions
    structures = enumerate_skew_structures(chain_category(3))
    calls = [0]
    substitute = TMulticategory.substitute

    def counted(self, g, fs):
        calls[0] += 1
        return substitute(self, g, fs)

    monkeypatch.setattr(TMulticategory, "substitute", counted)
    for c in structures:
        analyze(monoidal_to_multicat(c, 4))
    analyzed = calls[0]
    for c in structures:
        roundtrip_monoidal(c, 4)
    assert (len(structures), analyzed, calls[0] - analyzed) == (29, 1416, 6380)
