"""Shared instances: chain posets, the two-element cyclic group as a one-object
category, and reference skew monoidal structures on them."""

import pytest

from skewcat.fincat import FinCategory
from skewcat.skewmon import make_skew_monoidal
from skewcat.tmulticat import make_multicat


def chain_category(size: int) -> FinCategory:
    """The poset 0 < 1 < ... < size-1 as a category; morphism a<=b is m{a}{b}."""
    objs = tuple(str(k) for k in range(size))
    morphisms = tuple((f"m{a}{b}", a, b)
                      for a in objs for b in objs if int(a) <= int(b))
    identity = {a: f"m{a}{a}" for a in objs}
    compose = {}
    for a in objs:
        for b in objs:
            for c in objs:
                if int(a) <= int(b) <= int(c):
                    compose[(f"m{b}{c}", f"m{a}{b}")] = f"m{a}{c}"
    return FinCategory(objs, morphisms, identity, compose)


def z2_category() -> FinCategory:
    """The group of order two as a one-object category; e0 is the identity."""
    compose = {(f"e{a}", f"e{b}"): f"e{(a + b) % 2}" for a in (0, 1) for b in (0, 1)}
    return FinCategory(("x",), (("e0", "x", "x"), ("e1", "x", "x")),
                       {"x": "e0"}, compose)


def parallel_pair_category() -> FinCategory:
    """Two parallel arrows u,v: a -> b equalized by w: x -> a; w is not epi."""
    objs = ("a", "b", "x")
    morphisms = (("ida", "a", "a"), ("idb", "b", "b"), ("idx", "x", "x"),
                 ("w", "x", "a"), ("u", "a", "b"), ("v", "a", "b"), ("p", "x", "b"))
    identity = {"a": "ida", "b": "idb", "x": "idx"}
    compose = {}
    for m, s, t in morphisms:
        compose[(m, identity[s])] = m
        compose[(identity[t], m)] = m
    compose[("u", "w")] = "p"
    compose[("v", "w")] = "p"
    return FinCategory(objs, morphisms, identity, compose)


def two_chain_fst():
    """First projection tensor with bottom unit on the two-element chain."""
    base = chain_category(2)
    objs = base.objects
    t_obj = {(a, b): a for a in objs for b in objs}
    t_mor = {(f, g): f for f, _, _ in base.morphisms for g, _, _ in base.morphisms}
    alpha = {(a, b, c): f"m{a}{a}" for a in objs for b in objs for c in objs}
    lam = {a: f"m0{a}" for a in objs}
    rho = {a: f"m{a}{a}" for a in objs}
    return make_skew_monoidal(base, t_obj, t_mor, "0", alpha, lam, rho)


def two_chain_snd():
    """Second projection tensor with top unit on the two-element chain."""
    base = chain_category(2)
    objs = base.objects
    t_obj = {(a, b): b for a in objs for b in objs}
    t_mor = {(f, g): g for f, _, _ in base.morphisms for g, _, _ in base.morphisms}
    alpha = {(a, b, c): f"m{c}{c}" for a in objs for b in objs for c in objs}
    lam = {a: f"m{a}{a}" for a in objs}
    rho = {a: f"m{a}1" for a in objs}
    return make_skew_monoidal(base, t_obj, t_mor, "1", alpha, lam, rho)


def z2_monoidal(alpha: int = 0, lam: int = 0, rho: int = 0):
    """Addition tensor on the one-object group of order two."""
    base = z2_category()
    t_obj = {("x", "x"): "x"}
    t_mor = {(f"e{a}", f"e{b}"): f"e{(a + b) % 2}" for a in (0, 1) for b in (0, 1)}
    return make_skew_monoidal(base, t_obj, t_mor, "x",
                              {("x", "x", "x"): f"e{alpha}"},
                              {"x": f"e{lam}"}, {"x": f"e{rho}"})


def with_tables(m, action, subst, homs=None):
    """A copy of m whose action and substitution look up tables in the format
    of ``TMulticategory.materialize``, as the file reader's do: its ∘ᵢ rows
    are read as the rule and the whole table is stored for checking.  With
    m's own tables and one entry changed, a one-entry mutant of m."""
    def subst_rule(g, fs):
        return subst[(g.key, g.mid, tuple((f.x, f.inputs, f.mid) for f in fs))]

    return make_multicat(m.operad, m.objects, m.max_arity, m.homs if homs is None else homs,
                         m.identities, action_rule=lambda phi, f: action[(phi, f.key)][f.mid],
                         subst_rule=subst_rule, stored_subst=subst)


@pytest.fixture
def two_chain():
    return chain_category(2)


@pytest.fixture
def three_chain():
    return chain_category(3)


@pytest.fixture
def z2():
    return z2_category()


@pytest.fixture
def skew_fst():
    return two_chain_fst()


@pytest.fixture
def skew_snd():
    return two_chain_snd()


@pytest.fixture
def z2_strict():
    return z2_monoidal()
