import itertools

import pytest

from skewcat.catoperad import (
    CatOperad, check_operad_axioms, dual_operad,
    make_L_operad, make_R_operad, make_terminal_operad, operad_by_name,
)
from skewcat.fincat import StructureError

from conftest import parallel_pair_category


@pytest.fixture(scope="module")
def R():
    return make_R_operad()


def test_terminal_components():
    n_op = make_terminal_operad()
    assert len(n_op.component(0).objects) == 1
    assert len(n_op.component(7).objects) == 1
    assert n_op.subst_obj("t", ("t", "t"), (2, 3)) == "t"
    assert check_operad_axioms(n_op, 5) == []


def test_r_components(R):
    assert R.component(0).objects == ("l",)
    assert R.component(3).objects == ("t", "l")
    assert R.component(2).hom("t", "l") == ("lam",)
    assert R.component(2).hom("l", "t") == ()
    assert R.unit == "t"


def test_r_substitution_formula(R):
    assert R.subst_obj("t", ("t", "l"), (1, 3)) == "t"
    assert R.subst_obj("l", ("t", "t"), (1, 1)) == "l"
    assert R.subst_obj("t", ("l", "t"), (2, 2)) == "l"
    # unit laws, spelled out
    for x in ("t", "l"):
        assert R.subst_obj(x, ("t", "t"), (1, 1)) == x
        assert R.subst_obj("t", (x,), (3,)) == x


def test_r_substitution_formula_quantified(R):
    # t comes out exactly when the outer and first inner objects are t,
    # over every arity combination up to total arity 5
    for n in range(1, 5):
        for ks in itertools.product(range(3), repeat=n):
            if sum(ks) > 5:
                continue
            opts = [R.component(k).objects for k in ks]
            for x in ("t", "l"):
                for xs in itertools.product(*opts):
                    expected = "t" if (x == "t" and xs[0] == "t") else "l"
                    assert R.subst_obj(x, xs, ks) == expected


def test_r_passes_axioms(R):
    assert check_operad_axioms(R, 5) == []


def test_dual_reverses_arrow(R):
    L = dual_operad(R)
    assert L.component(2).hom("l", "t") == ("lam",)
    assert L.component(2).hom("t", "l") == ()
    assert L.component(0).objects == ("l",)
    assert check_operad_axioms(L, 5) == []


def test_dual_is_involutive(R):
    again = dual_operad(dual_operad(R))
    for n in range(4):
        assert again.component(n).canonical() == R.component(n).canonical()


def test_dual_of_terminal_is_terminal():
    n_op = make_terminal_operad()
    dd = dual_operad(n_op)
    for n in range(4):
        assert dd.component(n).canonical() == n_op.component(n).canonical()


def test_operad_by_name():
    assert operad_by_name("L").name == "L"
    with pytest.raises(StructureError):
        operad_by_name("Q")


def mutant_R():
    """R with one substitution entry redirected: outer t with inners (l, t) at
    arities (1, 1) produces t instead of l."""
    R = make_R_operad()

    def obj(x, xs, ks):
        if x == "t" and xs == ("l", "t") and ks == (1, 1):
            return "t"
        return R.subst_obj(x, xs, ks)

    return CatOperad("Rmut", R.component_rule, R.unit, obj)


def test_mutant_reports_associativity():
    rep = check_operad_axioms(mutant_R(), 3)
    assert rep
    assert {v.law for v in rep} == {"subst-associativity"}


def test_unit_all_units_substitution_is_identity_functor(R):
    for op in (R, make_L_operad(), make_terminal_operad()):
        for n in range(5):
            comp = op.component(n)
            ks = (1,) * n
            for x in comp.objects:
                assert op.subst_obj(x, (op.unit,) * n, ks) == x
            for f, _, _ in comp.morphisms:
                ids = (op.component(1).id_of(op.unit),) * n
                assert op.subst_mor(f, ids, ks) == f


def test_non_monotone_rule_is_reported_not_raised():
    """R with the binary all-tight substitution swapping t and l: lam: t -> l
    substitutes to a morphism l -> t, which R's components lack."""
    R = make_R_operad()

    def obj(x, xs, ks):
        if xs == ("t", "t") and ks == (1, 1):
            return {"t": "l", "l": "t"}[x]
        return R.subst_obj(x, xs, ks)

    laws = {v.law for v in check_operad_axioms(CatOperad("Rswap", R.component_rule, R.unit, obj), 3)}
    assert {"subst-morphism", "unit-right-object", "subst-associativity"} <= laws


def test_raising_rule_is_reported_not_raised():
    """R with a rule that raises whenever both inners are unary: the
    unit and associativity laws need those substitutions too, and each
    instance that cannot be evaluated is a subst-object report."""
    R = make_R_operad()

    def obj(x, xs, ks):
        if ks == (1, 1):
            raise KeyError(ks)
        return R.subst_obj(x, xs, ks)

    rep = check_operad_axioms(CatOperad("Rraise", R.component_rule, R.unit, obj), 3)
    assert {v.law for v in rep} == {"subst-object", "subst-morphism"}
    details = [dict(v.details) for v in rep if v.law == "subst-object"]
    assert sum(d.get("ks") == "(1, 1)" for d in details) == 2 * 2 * 2  # x, then xs
    assert {"x": "t", "arity": "2"} in details and {"x": "l", "arity": "2"} in details
    assert {"x": "t", "xs": "('t', 't')", "shape": "2(1, 1)((1,), (1,))"} in details


def test_non_thin_component_raises_naming_its_arity():
    R = make_R_operad()
    op = CatOperad("Rpair", lambda n: parallel_pair_category() if n == 2 else R.component(n),
                   R.unit, R.subst_obj)
    assert op.component(1).objects == ("t", "l")
    with pytest.raises(StructureError, match="component 2 "):
        op.component(2)


@pytest.mark.parametrize("name", ["N", "R", "L"])
def test_derived_subst_mor_is_a_functor(name):
    """The laws that thinness lets the checker leave out, up to total arity 4:
    substituting identities gives an identity and substitution preserves
    composition."""
    op = operad_by_name(name)
    for n in range(5):
        comp_n = op.component(n)
        for ks in itertools.product(range(5), repeat=n):
            if sum(ks) > 4:
                continue
            cod = op.component(sum(ks))
            inner = [op.component(k) for k in ks]
            for x in comp_n.objects:
                for xs in itertools.product(*(c.objects for c in inner)):
                    ids = tuple(c.id_of(y) for c, y in zip(inner, xs))
                    assert op.subst_mor(comp_n.id_of(x), ids, ks) == cod.id_of(op.subst_obj(x, xs, ks))
            for (g, f), gf in comp_n.compose.items():
                for pairs in itertools.product(*(c.compose.items() for c in inner)):
                    gs = tuple(gg for (gg, _), _ in pairs)
                    fs = tuple(ff for (_, ff), _ in pairs)
                    gfs = tuple(h for _, h in pairs)
                    assert op.subst_mor(gf, gfs, ks) == cod.comp(op.subst_mor(g, gs, ks),
                                                                 op.subst_mor(f, fs, ks))
