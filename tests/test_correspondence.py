import dataclasses
import hashlib
import itertools
import json
import sys
from collections import Counter

import pytest

from skewcat import representability
from skewcat.catoperad import LAM, LOOSE, TIGHT, make_R_operad
from skewcat.correspondence import (
    NotLeftRepresentable, check_loose_classifier_adjunction, classify,
    colax_to_monoidal, gamma_word, monoidal_to_colax, monoidal_to_multicat,
    multicat_to_monoidal, roundtrip_monoidal, roundtrip_multicat,
)
from skewcat.representability import analyze, is_left_representable
from skewcat.search import enumerate_skew_structures
from skewcat.skewmon import (
    check_skew_monoidal, is_left_normal, monoidal_iso_search, skewmon_to_json,
    unit_absorption,
)
from skewcat.tmulticat import (
    all_tight, check_tmulticat, from_tight_subsets, iso_search, loose_part,
    terminal_multicat,
)
from conftest import (
    chain_category, initial_projection, parallel_pair_category, product_monoidal,
    reversed_opposite, two_chain_fst, two_chain_snd, with_tables, z2_category, z2_monoidal,
)
from test_skewmon import chain_monoidal


@pytest.fixture(scope="module")
def fst3():
    return monoidal_to_multicat(two_chain_fst(), 3)


def paper_route(c, a, b, d, e):
    """The displayed comparison from the flattened four-fold word into blocks
    of sizes two and two (the second loosely typed), spelled step by step."""
    base = c.base
    i = c.unit
    big_p = c.t_obj(c.t_obj(i, a), b)               # (ia)b
    step1 = c.t_mor_left(c.t_mor_left(c.rho[big_p], d), e)
    step2 = c.t_mor_left(c.alpha[(big_p, i, d)], e)
    step3 = c.t_mor_left(c.t_mor_left(c.alpha[(i, a, b)], c.t_obj(i, d)), e)
    step4 = c.alpha[(c.t_obj(i, c.t_obj(a, b)), c.t_obj(i, d), e)]
    return base.comp_seq(step1, step2, step3, step4)


def test_four_ary_comparison_matches_the_displayed_composite():
    structures = enumerate_skew_structures(chain_category(2)) + \
        enumerate_skew_structures(z2_monoidal().base)
    assert len(structures) == 6
    for c in structures:
        objs = c.base.objects
        for a, b, d, e in itertools.product(objs, repeat=4):
            mine = gamma_word(c, LOOSE, ((TIGHT, 2), (LOOSE, 2)), ((a, b), (d, e)))
            assert mine == paper_route(c, a, b, d, e)


def test_derived_hom_tables(fst3):
    base = two_chain_fst().base
    for tup in itertools.product(("0", "1"), repeat=2):
        for b in ("0", "1"):
            assert fst3.hom(TIGHT, tup, b) == base.hom(tup[0], b)
            assert fst3.hom(LOOSE, tup, b) == base.hom("0", b)
    for b in ("0", "1"):
        assert fst3.hom(LOOSE, (), b) == base.hom("0", b)


def test_derived_j_is_injective(fst3):
    for key in sorted(fst3.homs):
        if key[0] != TIGHT or not key[1]:
            continue
        images = [fst3.act(LAM, m).mid for m in fst3.maps(key)]
        assert len(set(images)) == len(images)


def test_j_equals_whiskered_left_unit(fst3):
    c = two_chain_fst()
    for key in sorted(fst3.homs):
        if key[0] != TIGHT or not key[1]:
            continue
        lam_word = unit_absorption(c, key[1])
        for m in fst3.maps(key):
            assert fst3.act(LAM, m).mid == c.base.comp(m.mid, lam_word)


def test_trivial_gives_terminal():
    triv = enumerate_skew_structures(chain_category(1))[0]
    s = monoidal_to_multicat(triv, 3)
    assert iso_search(s, terminal_multicat(make_R_operad(), 3, ("0",))) is not None


def test_monoidal_extraction_recovers_projection(fst3):
    c = multicat_to_monoidal(fst3)
    assert check_skew_monoidal(c) == []
    assert c.unit == "0"
    for a in ("0", "1"):
        for b in ("0", "1"):
            assert c.t_obj(a, b) == a
    assert monoidal_iso_search(two_chain_fst(), c) is not None


def test_all_tight_gives_left_normal(fst3):
    s = all_tight(loose_part(fst3))
    assert is_left_representable(s)
    c = multicat_to_monoidal(s)
    assert check_skew_monoidal(c) == []
    assert is_left_normal(c)


def test_roundtrip_multicat(fst3):
    for s in (fst3, monoidal_to_multicat(z2_monoidal(), 3),
              terminal_multicat(make_R_operad(), 3),
              terminal_multicat(make_R_operad(), 3, ("a", "b"))):
        verdict = roundtrip_multicat(s)
        assert verdict.left_representable and verdict.isomorphic
        assert verdict.witness is not None


def test_roundtrip_monoidal_reference_structures():
    for c in (two_chain_fst(), two_chain_snd(), z2_monoidal(), z2_monoidal(0, 1, 1),
              chain_monoidal(2, "min", "1"), chain_monoidal(2, "max", "0")):
        verdict = roundtrip_monoidal(c, 4)
        assert verdict.left_representable and verdict.isomorphic


def test_not_left_representable_raises(fst3):
    lp = loose_part(fst3)
    only_id = from_tight_subsets(
        lp, {((a,), a): frozenset([lp.identities[a]]) for a in lp.objects})
    with pytest.raises(NotLeftRepresentable):
        multicat_to_monoidal(only_id)


def test_loose_classifier_adjunction(fst3):
    assert check_loose_classifier_adjunction(fst3) == []
    assert check_loose_classifier_adjunction(terminal_multicat(make_R_operad(), 3)) == []
    assert check_loose_classifier_adjunction(all_tight(loose_part(fst3))) == []


@pytest.mark.parametrize("args", [(0, 0, 0), (0, 1, 1)])
def test_adjunction_counit_mutant_is_reported(args):
    # swapping the two results of h o eta, for h in T(x; x) and eta the loose
    # classifier of x, moves the counit; the left unit map, which substitutes
    # the binary classifier and then the nullary one, does not move with it
    s = monoidal_to_multicat(z2_monoidal(*args), 3)
    eta = s.mm(LOOSE, ("x",), "x", "e0")
    assert check_loose_classifier_adjunction(s) == []
    k0, k1 = ((s.mm(TIGHT, ("x",), "x", h), (eta,)) for h in ("e0", "e1"))
    action, subst = s.materialize()
    mutant = with_tables(s, action, {**subst, k0: subst[k1], k1: subst[k0]})
    counit = [v for v in check_loose_classifier_adjunction(mutant)
              if v.law.startswith("adjunction-counit")]
    assert [(v.law, dict(v.details)["a"]) for v in counit] == [("adjunction-counit", "x")]


def test_classify_reference_flags():
    rec = classify(two_chain_fst(), 4)
    assert rec.agree
    assert rec.monoidal_flags == {"left_normal": False, "lambda_epi": True,
                                  "closed": True}
    rec = classify(two_chain_snd(), 4)
    assert rec.agree
    assert rec.monoidal_flags == {"left_normal": True, "lambda_epi": True,
                                  "closed": False}
    rec = classify(chain_monoidal(2, "max", "0"), 4)
    assert rec.agree
    assert not rec.monoidal_flags["closed"]


def test_classify_from_the_multicategory_side(fst3):
    rec = classify(fst3)
    assert rec.agree
    assert rec.multicat_flags == {"left_normal": False, "lambda_epi": True,
                                  "closed": True}


def test_classify_codiscrete():
    from test_colaxalg import codiscrete_skew
    rec = classify(codiscrete_skew())
    assert rec.agree
    assert rec.multicat_flags == {"left_normal": True, "lambda_epi": True,
                                  "closed": True}


def test_derived_instances_pass_and_are_left_representable():
    for c in (two_chain_snd(), z2_monoidal(0, 1, 1)):
        s = monoidal_to_multicat(c, 3)
        assert check_tmulticat(s) == []
        assert is_left_representable(s)


def test_monoidal_to_colax_coassociativity_surface():
    # the synthesized comparison family satisfies the substitution axioms
    from skewcat.colaxalg import check_colax_algebra
    for c in (two_chain_snd(), z2_monoidal(0, 1, 1)):
        for max_arity in (3, 4):
            assert check_colax_algebra(monoidal_to_colax(c, max_arity)) == []


def test_the_correspondence_inverts_at_the_colax_layer():
    # the 36 search structures and the four reference ones come back exactly,
    # through the colax algebra alone and through the multicategory
    structures = [c for base in (chain_category(1), chain_category(2), chain_category(3),
                                 z2_category())
                  for c in enumerate_skew_structures(base)]
    assert len(structures) == 36
    structures += [two_chain_fst(), two_chain_snd(), z2_monoidal(), z2_monoidal(0, 1, 1)]
    for c in structures:
        doc = skewmon_to_json(c)
        assert skewmon_to_json(colax_to_monoidal(monoidal_to_colax(c, 3))) == doc
        assert skewmon_to_json(multicat_to_monoidal(monoidal_to_multicat(c, 3))) == doc


@pytest.fixture(scope="module")
def fst4():
    return monoidal_to_multicat(two_chain_fst(), 4)


@pytest.mark.parametrize("run", [multicat_to_monoidal, roundtrip_multicat, analyze],
                         ids=["multicat_to_monoidal", "roundtrip_multicat", "analyze"])
def test_no_classifier_is_searched_twice(monkeypatch, fst4, run):
    searched: Counter = Counter()
    original = representability.find_universal

    def counted(s, x, inputs):
        searched[(x, tuple(inputs))] += 1
        return original(s, x, inputs)

    # the library imports functions by name, so patch every namespace
    for name, module in list(sys.modules.items()):
        if name.startswith("skewcat") and getattr(module, "find_universal", None) is original:
            monkeypatch.setattr(module, "find_universal", counted)
    run(fst4)
    assert searched
    assert [key for key, n in searched.items() if n > 1] == []


def alpha_mutants(c):
    """Each one-cell α mutant of c: α at one (a, b, d) replaced by another
    map of its hom, keyed by (a, b, d)."""
    for (a, b, d), value in c.alpha.items():
        hom = c.base.hom(c.t_obj(c.t_obj(a, b), d), c.t_obj(a, c.t_obj(b, d)))
        for other in hom:
            if other != value:
                yield (a, b, d), dataclasses.replace(c, alpha={**c.alpha, (a, b, d): other})


def test_arity_two_cannot_witness_the_associator_at_non_unit_a_b():
    """The α mutants of Z/2 × fst and Z/2 × snd (one per (a, b, d), eight
    each) all fail as skew monoidal categories.  At arity 2 their
    multicategories pass exactly where neither a nor b is the unit object,
    since arity 2 sees α only through substitutions with a nullary inner;
    at arity 3 those pass no more."""
    blind = {
        "fst": {('["x", "1"]', '["x", "1"]', '["x", "0"]'),
                ('["x", "1"]', '["x", "1"]', '["x", "1"]')},
        "snd": {('["x", "0"]', '["x", "0"]', '["x", "0"]'),
                ('["x", "0"]', '["x", "0"]', '["x", "1"]')},
    }
    for name, factor in (("fst", two_chain_fst), ("snd", two_chain_snd)):
        c = product_monoidal(z2_monoidal(), factor())
        mutants = dict(alpha_mutants(c))
        assert len(mutants) == 8
        assert all(check_skew_monoidal(m) for m in mutants.values())
        passing = {key for key, m in mutants.items()
                   if not check_tmulticat(monoidal_to_multicat(m, 2))}
        assert passing == blind[name]
        assert passing == {key for key in mutants if c.unit not in key[:2]}
        for key in passing:
            assert check_tmulticat(monoidal_to_multicat(mutants[key], 3))


def test_initial_projection_on_the_parallel_pair_at_arity_three():
    """The first non-thin multi-object structure beyond products: homs of
    up to two multimaps, 211 of them at arity 3."""
    c = initial_projection(parallel_pair_category(), "x")
    s = monoidal_to_multicat(c, 3)
    assert check_tmulticat(s) == []
    assert roundtrip_monoidal(c, 3).isomorphic
    assert roundtrip_multicat(s).isomorphic
    record = analyze(s)
    assert record["left_representable"] and record["closed"]
    flags = {"left_normal": False, "lambda_epi": False, "closed": True}
    for side in (classify(c, 3), classify(s)):
        assert side.agree
        assert side.monoidal_flags == flags


# sha256 of the JSON (sorted keys) of the list of the two verdicts below.
# Taken while iso_search still collected constraints into every hom, so it
# pins the first witness found under the lists left after pruning.
PROJECTION_ROUNDTRIP_DIGEST = "782d3c04c5f23a081bd6306a57279e3537740915996a8b21abc1bbf1f85b777a"


def test_iso_search_finds_the_same_first_witness_on_the_projections():
    """``roundtrip_multicat`` of the first projection on the parallel pair
    and of its reversed opposite at arity 3: both isomorphic, each with the
    witness iso_search found when no constraint was left out."""
    c = initial_projection(parallel_pair_category(), "x")
    verdicts = [roundtrip_multicat(monoidal_to_multicat(d, 3)).to_json()
                for d in (c, reversed_opposite(c))]
    assert all(v["isomorphic"] for v in verdicts)
    text = json.dumps(verdicts, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PROJECTION_ROUNDTRIP_DIGEST


def one_cell_mutants(c):
    """Each one-cell α, λ or ρ mutant of c: one component replaced by
    another map of its hom, keyed by the component and its cell."""
    for key, m in alpha_mutants(c):
        yield ("alpha", key), m
    for field, ends in (("lambda_", lambda a: (c.t_obj(c.unit, a), a)),
                        ("rho", lambda a: (a, c.t_obj(a, c.unit)))):
        table = getattr(c, field)
        for a, value in table.items():
            for other in c.base.hom(*ends(a)):
                if other != value:
                    yield (field, a), dataclasses.replace(c, **{field: {**table, a: other}})


def test_both_presentations_reject_every_one_cell_mutant_at_arity_three():
    """Every one-cell α/λ/ρ mutant of Z/2 (3), Z/2 × fst and Z/2 × snd (12
    each) fails as a skew monoidal category, and its multicategory at
    arity 3 fails too.  The first projection on the parallel pair has no
    one-cell mutant: each of its α, λ and ρ components lands in a
    one-element hom."""
    counts = {}
    for name, c in (("Z/2", z2_monoidal()),
                    ("Z/2 x fst", product_monoidal(z2_monoidal(), two_chain_fst())),
                    ("Z/2 x snd", product_monoidal(z2_monoidal(), two_chain_snd()))):
        mutants = list(one_cell_mutants(c))
        counts[name] = len(mutants)
        for key, m in mutants:
            monoidal_ok = check_skew_monoidal(m) == []
            assert monoidal_ok == (check_tmulticat(monoidal_to_multicat(m, 3)) == []), key
            assert not monoidal_ok, key
    assert counts == {"Z/2": 3, "Z/2 x fst": 12, "Z/2 x snd": 12}
    assert list(one_cell_mutants(initial_projection(parallel_pair_category(), "x"))) == []


# The @4 sample below: per product, the α mutant at a, b both non-unit (one
# that arity 2 cannot witness), λ at one object and ρ at the other.
ONE_CELL_SAMPLE_AT_FOUR = {
    "Z/2 x fst": {("alpha", ('["x", "1"]', '["x", "1"]', '["x", "0"]')),
                  ("lambda_", '["x", "0"]'), ("rho", '["x", "1"]')},
    "Z/2 x snd": {("alpha", ('["x", "0"]', '["x", "0"]', '["x", "0"]')),
                  ("lambda_", '["x", "1"]'), ("rho", '["x", "0"]')},
}


def test_both_presentations_reject_a_sample_of_one_cell_mutants_at_arity_four():
    """Six of the 24 one-cell mutants of Z/2 × fst and Z/2 × snd, named in
    ``ONE_CELL_SAMPLE_AT_FOUR``: each fails as a skew monoidal category, and
    its multicategory at arity 4 fails too (about 15 s)."""
    for name, factor in (("Z/2 x fst", two_chain_fst), ("Z/2 x snd", two_chain_snd)):
        mutants = dict(one_cell_mutants(product_monoidal(z2_monoidal(), factor())))
        for key in sorted(ONE_CELL_SAMPLE_AT_FOUR[name]):
            m = mutants[key]
            monoidal_ok = check_skew_monoidal(m) == []
            assert monoidal_ok == (check_tmulticat(monoidal_to_multicat(m, 4)) == []), key
            assert not monoidal_ok, key
