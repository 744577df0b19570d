"""Acceptance suite.

Each criterion is a single test that prints one PASS/FAIL line; all checks are
exact (discrete structures, no tolerances).  Run with ``pytest -v -s
tests/test_acceptance.py`` to see the lines as they complete.
"""

import itertools

import pytest

from skewcat.catoperad import operad_by_name
from skewcat.colaxalg import colax_to_multicat, has_strict_left_bracketing, \
    left_bracketed_classifier_table, multicat_to_colax
from skewcat.correspondence import (
    check_loose_classifier_adjunction, classify, monoidal_to_multicat,
    multicat_to_monoidal,
)
from skewcat.fincat import FinCategory, check_category, is_epimorphism
from skewcat.representability import (
    check_closed_representability_equivalences,
    check_left_representability_equivalences, find_closed_structure,
    is_left_representable,
)
from skewcat.search import enumerate_skew_structures
from skewcat.skewmon import check_skew_monoidal, monoidal_iso_search
from skewcat.tmulticat import (
    check_tmulticat, from_tight_subsets, iso_search, loose_part,
)
from conftest import (
    chain_category, parallel_pair_category, two_chain_fst, two_chain_snd,
    with_tables, z2_category, z2_monoidal,
)
from naive_oracles import (
    naive_check_category, naive_check_multicat_over_n, naive_is_epi,
)


class criterion:
    def __init__(self, number, title):
        self.number = number
        self.title = title

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"\ncriterion {self.number} ({self.title}): {verdict}")
        return False


@pytest.fixture(scope="module")
def corpus():
    """Every skew monoidal structure found on the 1-, 2- and 3-chains and on
    the one-object group of order two, with its derived skew multicategory."""
    out = []
    for base in (chain_category(1), chain_category(2), chain_category(3),
                 z2_category()):
        for c in enumerate_skew_structures(base):
            out.append((c, monoidal_to_multicat(c, 4)))
    return out


def test_criterion_1_axiom_suite():
    with criterion(1, "axiom suite"):
        assert check_skew_monoidal(two_chain_fst()) == []
        assert check_skew_monoidal(two_chain_snd()) == []
        mutant = z2_monoidal(alpha=1)
        rep = check_skew_monoidal(mutant)
        pentagon = [v for v in rep if v.law == "A1"]
        assert pentagon, "the associativity mutant must violate the pentagon"
        details = dict(pentagon[0].details)
        assert {details["left"], details["right"]} == {"e0", "e1"}
        assert {"a", "b", "c", "d"} <= set(details)


def test_criterion_2_operad_suite():
    with criterion(2, "operad suite"):
        R = operad_by_name("R")
        for name in ("N", "R", "L"):
            from skewcat.catoperad import check_operad_axioms
            assert check_operad_axioms(operad_by_name(name), 5) == []
        # the substitution rule, quantified over every input up to arity 5
        def compositions(total, parts):
            if parts == 0:
                yield ()
                return
            for first in range(total + 1):
                for rest in compositions(total - first, parts - 1):
                    yield (first,) + rest
        for n in range(1, 6):
            for ks in compositions(5, n):
                opts = [R.component(k).objects for k in ks]
                for x in ("t", "l"):
                    for xs in itertools.product(*opts):
                        expected = "t" if x == "t" and xs[0] == "t" else "l"
                        assert R.subst_obj(x, xs, ks) == expected
        assert R.subst_obj("l", (), ()) == "l"


def test_criterion_3_round_trip(corpus):
    with criterion(3, "correspondence round trip"):
        assert len(corpus) == 36
        for c, s in corpus:
            assert is_left_representable(s)
            back = multicat_to_monoidal(s)
            assert monoidal_iso_search(c, back) is not None


def test_criterion_4_left_representability_equivalences(corpus):
    with criterion(4, "left representability equivalences"):
        for _, s in corpus:
            rep = check_left_representability_equivalences(s)
            assert rep.agree
            assert set(rep.conditions.values()) == {True}
        lp = loose_part(monoidal_to_multicat(two_chain_fst(), 4))
        only_id = from_tight_subsets(
            lp, {((a,), a): frozenset([lp.identities[a]]) for a in lp.objects})
        rep = check_left_representability_equivalences(only_id)
        assert rep.agree
        assert set(rep.conditions.values()) == {False}


def test_criterion_5_closed_equivalences(corpus):
    with criterion(5, "closed representability equivalences"):
        closed_count = 0
        for _, s in corpus:
            if find_closed_structure(s) is None:
                continue
            closed_count += 1
            rep = check_closed_representability_equivalences(s)
            assert rep.agree
            assert set(rep.conditions.values()) == {True}
        assert closed_count == 17  # closed instances among the 36


def test_criterion_6_colax_translation(corpus):
    with criterion(6, "colax algebra translation"):
        for _, s in corpus:
            table = left_bracketed_classifier_table(s)
            alg = multicat_to_colax(s, table)
            assert has_strict_left_bracketing(alg) == is_left_representable(s)
            back = colax_to_multicat(alg)
            assert iso_search(s, back) is not None


def test_criterion_7_classification(corpus):
    with criterion(7, "classification flags"):
        for c, s in corpus:
            rec = classify(c, 4)
            assert rec.agree, (c.unit, rec.monoidal_flags, rec.multicat_flags)
            assert check_loose_classifier_adjunction(s) == []
        rec = classify(two_chain_fst(), 4)
        assert rec.monoidal_flags == {"left_normal": False, "lambda_epi": True,
                                      "closed": True}


def test_criterion_8_oracle_agreement():
    with criterion(8, "independent oracle agreement"):
        # all one-object composition tables on two and three morphisms
        def one_object(table, n):
            morphisms = tuple((f"e{k}", "x", "x") for k in range(n))
            compose = {(f"e{a}", f"e{b}"): f"e{table[(a, b)]}" for a, b in table}
            return FinCategory(("x",), morphisms, {"x": "e0"}, compose)

        for n in (2, 3):
            cells = [(a, b) for a in range(n) for b in range(n)]
            for values in itertools.product(range(n), repeat=len(cells)):
                cat = one_object(dict(zip(cells, values)), n)
                assert (check_category(cat) == []) == naive_check_category(cat)
        for cat in (chain_category(2), chain_category(3),
                    parallel_pair_category(), z2_category()):
            assert (check_category(cat) == []) == naive_check_category(cat)
            for m, _, _ in cat.morphisms:
                assert is_epimorphism(cat, m) == naive_is_epi(cat, m)
        # ordinary multicategory checks against the naive oracle
        insts = [loose_part(monoidal_to_multicat(two_chain_fst(), 2)),
                 loose_part(monoidal_to_multicat(z2_monoidal(), 2)),
                 loose_part(monoidal_to_multicat(z2_monoidal(0, 1, 1), 2))]
        for m in insts:
            assert (check_tmulticat(m) == []) == naive_check_multicat_over_n(m)
        broken = _break_one_substitution(insts[1])
        assert check_tmulticat(broken) != []
        assert not naive_check_multicat_over_n(broken)


def _break_one_substitution(m):
    action, table = m.materialize()
    for (g, fs), rid in sorted(table.items()):
        hom = m.homs[m.substitute(g, fs).key]
        others = [x for x in hom if x != rid]
        if others:
            return with_tables(m, action, {**table, (g, fs): others[0]})
    raise AssertionError("nothing to break")
