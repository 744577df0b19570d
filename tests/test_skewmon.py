import hashlib
import itertools
import json

import pytest

from skewcat.fincat import StructureError, opposite_category, report_to_json
from skewcat.skewmon import (
    _functor_isos, check_lax_monoidal, check_skew_monoidal,
    is_closed_skew_monoidal, is_left_normal, lambda_all_epi,
    left_bracketed_tensor, make_skew_monoidal, monoidal_iso_search,
    skewmon_from_json, skewmon_to_json, unit_absorption,
)
from conftest import (
    chain_category, initial_projection, parallel_pair_category, product_category,
    product_monoidal, reversed_opposite, two_chain_fst, two_chain_snd, with_component,
    z2_category, z2_monoidal,
)
from naive_oracles import invert_lax, naive_functor_isos, naive_skew_monoidal_ok


def chain_monoidal(size, kind, unit):
    """min/max/fst/snd tensors on a chain; components are forced (thin)."""
    base = chain_category(size)
    objs = base.objects
    ops = {
        "fst": lambda a, b: a,
        "snd": lambda a, b: b,
        "min": lambda a, b: str(min(int(a), int(b))),
        "max": lambda a, b: str(max(int(a), int(b))),
    }
    t = ops[kind]
    t_obj = {(a, b): t(a, b) for a in objs for b in objs}

    def mor_value(f, g):
        src = t(base.src(f), base.src(g))
        tgt = t(base.tgt(f), base.tgt(g))
        return f"m{src}{tgt}"

    t_mor = {(f, g): mor_value(f, g)
             for f, _, _ in base.morphisms for g, _, _ in base.morphisms}
    alpha = {(a, b, c): f"m{t(t(a, b), c)}{t(a, t(b, c))}"
             for a in objs for b in objs for c in objs}
    lam = {a: f"m{t(unit, a)}{a}" for a in objs}
    rho = {a: f"m{a}{t(a, unit)}" for a in objs}
    return make_skew_monoidal(base, t_obj, t_mor, unit, alpha, lam, rho)


def test_fixtures_pass(skew_fst, skew_snd, z2_strict):
    for c in (skew_fst, skew_snd, z2_strict, z2_monoidal(0, 1, 1)):
        assert check_skew_monoidal(c) == []
        assert naive_skew_monoidal_ok(c)


def _lawful(c) -> bool:
    verdict = check_skew_monoidal(c) == []
    assert verdict == naive_skew_monoidal_ok(c)
    return verdict


# fst, snd, the first projections on the parallel pair (whose hom from a to
# b has two maps) and on the 3-chain, and Z/2 with each of its 8 choices of
# α, λ and ρ, lawful or not
FACTORS = [two_chain_fst(), two_chain_snd(),
           initial_projection(parallel_pair_category(), "x"),
           initial_projection(chain_category(3), "0"),
           *(z2_monoidal(*v) for v in itertools.product((0, 1), repeat=3))]


def test_product_is_lawful_exactly_when_both_factors_are():
    lawful = [_lawful(c) for c in FACTORS]
    assert 3 <= sum(lawful) < len(FACTORS)
    for c, c_ok in zip(FACTORS, lawful):
        for d, d_ok in zip(FACTORS, lawful):
            assert _lawful(product_monoidal(c, d)) == (c_ok and d_ok)


def test_nested_product_is_lawful():
    z2, fst, snd = z2_monoidal(), two_chain_fst(), two_chain_snd()
    assert check_skew_monoidal(product_monoidal(product_monoidal(z2, fst), snd)) == []
    assert check_skew_monoidal(product_monoidal(z2, product_monoidal(fst, snd))) == []


def test_reversed_opposite_is_lawful_exactly_when_the_structure_is():
    for c in FACTORS + [product_monoidal(FACTORS[0], FACTORS[-1])]:
        rev = reversed_opposite(c)
        assert _lawful(rev) == _lawful(c)
        assert reversed_opposite(rev) == c


def test_pentagon_mutant_reports_axiom_one():
    mutant = z2_monoidal(alpha=1)
    rep = check_skew_monoidal(mutant)
    a1 = [v for v in rep if v.law == "A1"]
    assert a1
    details = dict(a1[0].details)
    assert {details["left"], details["right"]} == {"e0", "e1"}
    assert not naive_skew_monoidal_ok(mutant)


def test_checker_agrees_with_oracle_on_all_z2_candidates():
    base_mor_maps = []
    pairs = [(f"e{a}", f"e{b}") for a in (0, 1) for b in (0, 1)]
    for values in itertools.product((0, 1), repeat=4):
        base_mor_maps.append(dict(zip(pairs, (f"e{v}" for v in values))))
    for t_mor in base_mor_maps:
        if t_mor[("e0", "e0")] != "e0":
            continue  # identity pair must map to the identity
        for al, lm, rh in itertools.product((0, 1), repeat=3):
            cand = make_skew_monoidal(
                z2_monoidal().base, {("x", "x"): "x"}, t_mor, "x",
                {("x", "x", "x"): f"e{al}"}, {"x": f"e{lm}"}, {"x": f"e{rh}"})
            assert (check_skew_monoidal(cand) == []) == naive_skew_monoidal_ok(cand)


def test_missing_component_is_structural(skew_fst):
    with pytest.raises(StructureError):
        make_skew_monoidal(
            skew_fst.base,
            {(a, b): a for a in skew_fst.base.objects for b in skew_fst.base.objects},
            {(f, g): f for f, _, _ in skew_fst.base.morphisms
             for g, _, _ in skew_fst.base.morphisms},
            "0", {}, {}, {})


# sha256 of the JSON list of report_to_json(check_skew_monoidal(m)) over the
# one-cell mutants m of the census structures, in census order; taken before
# the well-formedness checks moved into make_skew_monoidal
CENSUS_COMPONENT_MUTANTS_DIGEST = "fcea0b17e4b09171e443827094b83db9d57d86f8fd493503514f898391d42156"


def test_census_component_mutants_match_digest_and_naive_oracle(census):
    """Every α, λ or ρ cell of every census structure set to every other
    morphism of its base: the checker's verdict is the naive oracle's, and
    its reports are pinned."""
    reports, disagree = [], []
    for name, base, structures in census:
        ids = [m for m, _, _ in base.morphisms]
        for c in structures:
            for field in ("alpha", "lambda_", "rho"):
                for key, value in getattr(c, field).items():
                    for other in ids:
                        if other != value:
                            mutant = with_component(c, field, key, other)
                            report = check_skew_monoidal(mutant)
                            if (report == []) != naive_skew_monoidal_ok(mutant):
                                disagree.append((name, field, key, other))
                            reports.append(report_to_json(report))
    assert disagree == []
    assert len(reports) == 9903
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == CENSUS_COMPONENT_MUTANTS_DIGEST


def test_left_normal(skew_fst, skew_snd):
    assert not is_left_normal(skew_fst)   # the unit comparison at 1 is 0 -> 1
    assert is_left_normal(skew_snd)
    assert is_left_normal(chain_monoidal(1, "fst", "0"))


def test_lambda_epi(skew_fst, skew_snd):
    assert lambda_all_epi(skew_fst)
    assert lambda_all_epi(skew_snd)


def test_left_normal_implies_lambda_epi(skew_fst, skew_snd, z2_strict):
    for c in (skew_fst, skew_snd, z2_strict, z2_monoidal(0, 1, 1),
              chain_monoidal(2, "min", "1"), chain_monoidal(2, "max", "0"),
              chain_monoidal(3, "fst", "0")):
        if is_left_normal(c):
            assert lambda_all_epi(c)


def test_lambda_not_epi_on_parallel_pair_category():
    base = parallel_pair_category()
    t_obj = {(a, b): a for a in base.objects for b in base.objects}
    t_mor = {(f, g): f for f, _, _ in base.morphisms for g, _, _ in base.morphisms}
    lam = {"x": "idx", "a": "w", "b": "p"}
    rho = {a: base.id_of(a) for a in base.objects}
    alpha = {(a, b, c): base.id_of(a)
             for a in base.objects for b in base.objects for c in base.objects}
    c = make_skew_monoidal(base, t_obj, t_mor, "x", alpha, lam, rho)
    assert check_skew_monoidal(c) == []
    assert not lambda_all_epi(c)
    assert not is_left_normal(c)


# the first projection on each base with an initial object, named by that object
PROJECTION_BASES = {"parallel pair": (parallel_pair_category, "x"),
                    "2-chain": (lambda: chain_category(2), "0"),
                    "3-chain": (lambda: chain_category(3), "0")}


@pytest.mark.parametrize("name", list(PROJECTION_BASES))
def test_initial_projection_and_its_reversed_opposite_are_lawful(name):
    base, initial = PROJECTION_BASES[name]
    c = initial_projection(base(), initial)
    assert _lawful(c)
    assert _lawful(reversed_opposite(c))


def test_initial_projection_on_the_two_chain_is_fst():
    assert initial_projection(chain_category(2), "0") == two_chain_fst()


def test_closed_search(skew_fst):
    closed = is_closed_skew_monoidal(skew_fst)
    assert closed is not None
    # internal homs represent maps out of the first factor
    assert closed.hom_obj == {(b, c): c for b in ("0", "1") for c in ("0", "1")}


def test_max_tensor_is_not_closed():
    c = chain_monoidal(2, "max", "0")
    assert check_skew_monoidal(c) == []
    assert is_closed_skew_monoidal(c) is None


def test_min_tensor_is_closed():
    c = chain_monoidal(2, "min", "1")
    assert check_skew_monoidal(c) == []
    closed = is_closed_skew_monoidal(c)
    assert closed is not None
    # Heyting implication on the chain
    assert closed.hom_obj[("1", "0")] == "0"
    assert closed.hom_obj[("0", "0")] == "1"


def test_left_bracketed_tensor(skew_fst):
    assert left_bracketed_tensor(skew_fst, ("1",)) == "1"
    assert left_bracketed_tensor(skew_fst, ("1", "0", "1")) == "1"
    assert left_bracketed_tensor(skew_fst, ("1", "0"), leading_unit=True) == "0"
    for a in ("0", "1"):
        for b in ("0", "1"):
            assert left_bracketed_tensor(skew_fst, (a, b)) == skew_fst.t_obj(a, b)


def test_unit_absorption_endpoints(skew_fst):
    base = skew_fst.base
    for tup in itertools.product(("0", "1"), repeat=3):
        m = unit_absorption(skew_fst, tup)
        assert base.src(m) == left_bracketed_tensor(skew_fst, tup, leading_unit=True)
        assert base.tgt(m) == left_bracketed_tensor(skew_fst, tup)


def test_monoidal_iso_search_self(skew_fst, skew_snd, z2_strict):
    # the search returns the forward functor; its inverse is lax monoidal too
    for c in (skew_fst, skew_snd, z2_strict):
        fwd = monoidal_iso_search(c, c)
        assert fwd is not None
        assert check_lax_monoidal(fwd) == []
        assert check_lax_monoidal(invert_lax(fwd)) == []


@pytest.mark.parametrize("base", [
    lambda: product_category(z2_category(), z2_category()),  # an endo-hom of four maps
    z2_category,
    lambda: chain_category(3),
], ids=["z2xz2", "z2", "3-chain"])
@pytest.mark.parametrize("opposite", [False, True], ids=["to-itself", "to-opposite"])
def test_functor_isos_in_the_order_of_the_naive_enumeration(base, opposite):
    # the opposite of the 3-chain is reached only by reversing the objects
    c = base()
    d = opposite_category(c) if opposite else c
    found = list(_functor_isos(c, d))
    assert found and found == list(naive_functor_isos(c, d))


def test_monoidal_iso_search_distinguishes(skew_fst, skew_snd):
    assert monoidal_iso_search(skew_fst, skew_snd) is None
    assert monoidal_iso_search(skew_fst, chain_monoidal(2, "max", "0")) is None


def test_twisted_z2_structure_is_isomorphic_to_the_strict_one():
    # transporting along the nonidentity invertible binary comparison
    fwd = monoidal_iso_search(z2_monoidal(), z2_monoidal(0, 1, 1))
    assert fwd is not None
    assert fwd.binary[("x", "x")] == "e1"


def test_strict_checking_with_identity_components():
    # tensor that is not a functor: multiplication on the two-element group
    t_mor = {("e0", "e0"): "e0", ("e0", "e1"): "e0",
             ("e1", "e0"): "e0", ("e1", "e1"): "e1"}
    cand = make_skew_monoidal(z2_monoidal().base, {("x", "x"): "x"}, t_mor, "x",
                              {("x", "x", "x"): "e0"}, {"x": "e0"}, {"x": "e0"})
    rep = check_skew_monoidal(cand)
    assert any(v.law == "functor-composition" for v in rep)


def test_json_round_trip(skew_fst):
    data = skewmon_to_json(skew_fst)
    back = skewmon_from_json(data)
    assert check_skew_monoidal(back) == []
    assert skewmon_to_json(back) == data


def test_json_rejects_unknown_keys(skew_fst):
    data = skewmon_to_json(skew_fst)
    data["note"] = "hi"
    with pytest.raises(StructureError):
        skewmon_from_json(data)
