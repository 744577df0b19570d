import functools
import itertools

import pytest

from skewcat.search import _tensor_functors, enumerate_skew_structures
from skewcat.skewmon import check_skew_monoidal, make_skew_monoidal, skewmon_to_json
from conftest import chain_category, renamed, reversed_opposite, z2_category
from naive_oracles import naive_skew_monoidal_ok, naive_tensor_functors

ORDER_BASES = [pytest.param(functools.partial(chain_category, n), id=f"{n}-chain")
               for n in (1, 2, 3)] + [pytest.param(z2_category, id="z2")]


def blind_enumerate(base):
    """Independent generate-and-test pass: all object assignments, all
    morphism assignments, all component tables, filtered by the naive
    all-diagrams oracle."""
    objs = sorted(base.objects)
    mors = sorted(m for m, _, _ in base.morphisms)
    obj_pairs = [(a, b) for a in objs for b in objs]
    mor_pairs = [(f, g) for f in mors for g in mors]
    triples = [(a, b, c) for a in objs for b in objs for c in objs]
    count = 0
    for unit in objs:
        for obj_assign in itertools.product(objs, repeat=len(obj_pairs)):
            t_obj = dict(zip(obj_pairs, obj_assign))
            per_pair = []
            ok = True
            for f, g in mor_pairs:
                opts = base.hom(t_obj[(base.src(f), base.src(g))],
                                t_obj[(base.tgt(f), base.tgt(g))])
                if not opts:
                    ok = False
                    break
                per_pair.append(opts)
            if not ok:
                continue
            for mor_assign in itertools.product(*per_pair):
                t_mor = dict(zip(mor_pairs, mor_assign))
                lam_opts = [base.hom(t_obj[(unit, a)], a) for a in objs]
                rho_opts = [base.hom(a, t_obj[(a, unit)]) for a in objs]
                al_opts = [base.hom(t_obj[(t_obj[(a, b)], c)],
                                    t_obj[(a, t_obj[(b, c)])])
                           for a, b, c in triples]
                if any(not o for o in (*lam_opts, *rho_opts, *al_opts)):
                    continue
                for lam in itertools.product(*lam_opts):
                    for rho in itertools.product(*rho_opts):
                        for al in itertools.product(*al_opts):
                            cand = make_skew_monoidal(
                                base, t_obj, t_mor, unit,
                                dict(zip(triples, al)),
                                dict(zip(objs, lam)), dict(zip(objs, rho)))
                            if naive_skew_monoidal_ok(cand):
                                count += 1
    return count


def test_two_chain_finds_both_genuinely_skew_structures():
    found = enumerate_skew_structures(chain_category(2))
    descr = {(c.unit, c.t_obj("0", "1"), c.t_obj("1", "0")) for c in found}
    assert ("0", "0", "1") in descr   # first projection with bottom unit
    assert ("1", "1", "0") in descr   # second projection with top unit
    assert len(found) == 4


def test_counts_cross_checked_by_blind_enumeration():
    for base in (chain_category(1), chain_category(2), z2_category()):
        found = enumerate_skew_structures(base)
        assert len(found) == blind_enumerate(base)


def test_every_found_structure_passes_the_checker():
    for base in (chain_category(2), chain_category(3), z2_category()):
        for c in enumerate_skew_structures(base):
            assert check_skew_monoidal(c) == []
            assert naive_skew_monoidal_ok(c)


def test_enumeration_is_deterministic():
    from skewcat.skewmon import skewmon_to_json
    one = [skewmon_to_json(c) for c in enumerate_skew_structures(chain_category(2))]
    two = [skewmon_to_json(c) for c in enumerate_skew_structures(chain_category(2))]
    assert one == two


@pytest.mark.parametrize("make_base", ORDER_BASES)
def test_pruned_tensor_functors_in_the_whole_table_order(make_base):
    base = make_base()
    assert list(_tensor_functors(base)) == list(naive_tensor_functors(base))


@pytest.mark.parametrize("make_base", ORDER_BASES)
def test_structures_in_the_whole_table_order(make_base):
    # per unit, every whole-table tensor functor, then the component tables
    # in lexicographic order, filtered by the naive all-diagrams oracle
    base = make_base()
    objs = sorted(base.objects)
    triples = [(a, b, c) for a in objs for b in objs for c in objs]
    functors = list(naive_tensor_functors(base))
    expected = []
    for unit in objs:
        for t_obj, t_mor in functors:
            lam_opts = [base.hom(t_obj[(unit, a)], a) for a in objs]
            rho_opts = [base.hom(a, t_obj[(a, unit)]) for a in objs]
            al_opts = [base.hom(t_obj[(t_obj[(a, b)], c)], t_obj[(a, t_obj[(b, c)])])
                       for a, b, c in triples]
            for lam, rho, al in itertools.product(itertools.product(*lam_opts),
                                                  itertools.product(*rho_opts),
                                                  itertools.product(*al_opts)):
                cand = make_skew_monoidal(base, t_obj, t_mor, unit, dict(zip(triples, al)),
                                          dict(zip(objs, lam)), dict(zip(objs, rho)))
                if naive_skew_monoidal_ok(cand):
                    expected.append(skewmon_to_json(cand))
    assert [skewmon_to_json(c) for c in enumerate_skew_structures(base)] == expected


def _tables(c):
    return (c.unit, *(tuple(sorted(t.items()))
                      for t in (c.tensor_obj, c.tensor_mor, c.alpha, c.lambda_, c.rho)))


@pytest.mark.parametrize("n", [2, 3])
def test_search_output_is_closed_under_reversed_opposite(n):
    # Cᵒᵖ of the n-chain is the n-chain again once i is renamed n-1-i
    base = chain_category(n)
    flip = {str(i): str(n - 1 - i) for i in range(n)}
    mor = {m: f"m{flip[t]}{flip[s]}" for m, s, t in base.morphisms}
    found = enumerate_skew_structures(base)
    tables = {_tables(c) for c in found}
    flipped = [renamed(reversed_opposite(c), flip, mor) for c in found]
    assert all(f.base.canonical() == base.canonical() for f in flipped)
    assert {_tables(f) for f in flipped} == tables
    assert len(tables) == len(found) == {2: 4, 3: 29}[n]
