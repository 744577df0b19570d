import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewcat.fincat import (
    FinCategory, Functor, StructureError,
    check_category, check_functor, is_epimorphism,
    opposite_category,
    category_from_json, category_to_json,
)
from conftest import chain_category, pair, parallel_pair_category, product_category, z2_category
from naive_oracles import naive_check_category, naive_is_epi


def one_object_category(table):
    """Binary operation table {(a,b): c} on range(n) with 0 as the identity
    candidate, encoded as a one-object composition table."""
    n = max(max(k) for k in table) + 1
    morphisms = tuple((f"e{k}", "x", "x") for k in range(n))
    compose = {(f"e{a}", f"e{b}"): f"e{table[(a, b)]}" for a, b in table}
    return FinCategory(("x",), morphisms, {"x": "e0"}, compose)


def test_two_chain_passes():
    assert check_category(chain_category(2)) == []


def test_z2_passes():
    assert check_category(z2_category()) == []


def test_idempotent_monoid_passes():
    # altering 1∘1 to 1 still yields a monoid {id, e} with e∘e = e
    cat = one_object_category({(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    assert check_category(cat) == []
    assert naive_check_category(cat)


def test_nonassociative_table_reports_associativity():
    # three elements, a∘a = b but the rest chosen so (a∘a)∘a != a∘(a∘a)
    table = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1, (2, 0): 2,
             (1, 1): 2, (1, 2): 1, (2, 1): 0, (2, 2): 2}
    cat = one_object_category(table)
    rep = check_category(cat)
    assert any(v.law == "associativity" for v in rep)
    assert not naive_check_category(cat)


def test_dangling_id_is_structural():
    cat = FinCategory(("a",), (("f", "a", "b"),), {"a": "f"}, {})
    with pytest.raises(StructureError):
        check_category(cat)


def test_missing_identity_is_structural():
    cat = FinCategory(("a",), (), {}, {})
    with pytest.raises(StructureError):
        check_category(cat)


@given(st.builds(dict, st.fixed_dictionaries(
    {(a, b): st.integers(0, 2) for a in range(3) for b in range(3)})))
@settings(max_examples=200, deadline=None)
def test_checker_agrees_with_oracle_on_three_element_tables(table):
    cat = one_object_category(table)
    assert (check_category(cat) == []) == naive_check_category(cat)


def test_checker_agrees_with_oracle_exhaustively_on_two_element_tables():
    for values in itertools.product(range(2), repeat=4):
        table = dict(zip([(0, 0), (0, 1), (1, 0), (1, 1)], values))
        cat = one_object_category(table)
        assert (check_category(cat) == []) == naive_check_category(cat)


def test_identity_functor_and_constant_functor_pass(two_chain):
    ident = Functor(two_chain, two_chain,
                    {a: a for a in two_chain.objects},
                    {m: m for m, _, _ in two_chain.morphisms})
    assert check_functor(ident) == []
    const = Functor(two_chain, two_chain,
                    {a: "0" for a in two_chain.objects},
                    {m: "m00" for m, _, _ in two_chain.morphisms})
    assert check_functor(const) == []


def test_nonfunctorial_map_reports_composition(z2):
    square = product_category(z2, z2)
    # (f,g) -> f·g preserves identities but is no homomorphism out of the product
    bad = Functor(square, z2,
                  {o: "x" for o in square.objects},
                  {pair(f"e{a}", f"e{b}"): f"e{a * b}"
                   for a in (0, 1) for b in (0, 1)})
    rep = check_functor(bad)
    assert any(v.law == "functor-composition" for v in rep)


def test_product_and_opposite():
    two = chain_category(2)
    sq = product_category(two, two)
    assert check_category(sq) == []
    assert len(sq.objects) == 4
    op = opposite_category(two)
    assert check_category(op) == []
    assert op.hom("1", "0") == ("m01",)
    assert opposite_category(op).canonical() == two.canonical()


def test_opposite_preserves_acceptance_on_mutants():
    table = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1, (2, 0): 2,
             (1, 1): 2, (1, 2): 1, (2, 1): 0, (2, 2): 2}
    cat = one_object_category(table)
    assert (check_category(cat) == []) == (check_category(opposite_category(cat)) == [])


def test_epimorphisms():
    two = chain_category(2)
    assert is_epimorphism(two, "m00")
    assert is_epimorphism(two, "m01")
    pp = parallel_pair_category()
    assert check_category(pp) == []
    assert not is_epimorphism(pp, "w")
    assert is_epimorphism(pp, "u")
    for cat in (two, chain_category(3)):
        for m, _, _ in cat.morphisms:
            assert is_epimorphism(cat, m)  # posets only have epis
            assert naive_is_epi(cat, m)
    for m, _, _ in pp.morphisms:
        assert is_epimorphism(pp, m) == naive_is_epi(pp, m)


def test_json_round_trip(two_chain):
    data = category_to_json(two_chain)
    back = category_from_json(data)
    assert back.canonical() == two_chain.canonical()


def test_json_rejects_unknown_keys(two_chain):
    data = category_to_json(two_chain)
    data["extra"] = 1
    with pytest.raises(StructureError):
        category_from_json(data)
