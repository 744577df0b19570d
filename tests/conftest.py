"""Shared instances: chain posets, the two-element cyclic group as a one-object
category, and reference skew monoidal structures on them.  Also the two
constructions that make lawful structures from lawful ones, for use as
metamorphic oracles: the product and the reversed opposite; and the census of
small bases with every skew monoidal structure that the search finds on them."""

import itertools
import json

import pytest

from skewcat.fincat import FinCategory, opposite_category
from skewcat.search import enumerate_skew_structures
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


def _up_to_relabelling(candidates, perms, relabel) -> list:
    """One representative of each isomorphism class among candidates, the
    least relabelling of its members under perms, in sorted order.
    relabel(candidate, perm) renames each element k of candidate perm[k]."""
    return sorted({min(relabel(x, perm) for perm in perms) for x in candidates})


def monoid_category(table: dict) -> FinCategory:
    """A monoid on 0..n-1 with unit 0, table[(a, b)] = ab, as a one-object
    category: e{a} is a, and e{a} after e{b} is e{ab}; on the group of
    order two this is ``z2_category``."""
    elements = sorted({a for a, _ in table})
    return FinCategory(("x",), tuple((f"e{a}", "x", "x") for a in elements), {"x": "e0"},
                       {(f"e{a}", f"e{b}"): f"e{ab}" for (a, b), ab in table.items()})


def small_monoids(size: int) -> list[dict]:
    """The monoids of the given order up to isomorphism, as tables on
    0..size-1 with unit 0: every associative table, then the least
    relabelling that fixes 0."""
    cells = [(a, b) for a in range(1, size) for b in range(1, size)]
    unit = {(a, b): a or b for a in range(size) for b in range(size) if 0 in (a, b)}
    tables = []
    for values in itertools.product(range(size), repeat=len(cells)):
        table = {**unit, **dict(zip(cells, values))}
        if all(table[table[a, b], c] == table[a, table[b, c]]
               for a, b, c in itertools.product(range(size), repeat=3)):
            tables.append(tuple(sorted(table.items())))
    perms = [(0, *perm) for perm in itertools.permutations(range(1, size))]
    return [dict(rows) for rows in _up_to_relabelling(
        tables, perms,
        lambda rows, perm: tuple(sorted(((perm[a], perm[b]), perm[ab]) for (a, b), ab in rows)))]


def poset_category(size: int, below: frozenset) -> FinCategory:
    """The poset on 0..size-1 whose strict order is the set of pairs below;
    the morphism a <= b is m{a}{b}, as in ``chain_category``."""
    objs = tuple(str(k) for k in range(size))
    leq = below | {(k, k) for k in range(size)}
    return FinCategory(objs, tuple((f"m{a}{b}", str(a), str(b)) for a, b in sorted(leq)),
                       {str(k): f"m{k}{k}" for k in range(size)},
                       {(f"m{b}{c}", f"m{a}{b}"): f"m{a}{c}"
                        for a, b in leq for b2, c in leq if b2 == b})


def small_posets(size: int) -> list[frozenset]:
    """The strict orders on 0..size-1 up to isomorphism, each as its least
    relabelling, a sorted tuple of pairs: every irreflexive, antisymmetric
    and transitive set of pairs."""
    pairs = [(a, b) for a in range(size) for b in range(size) if a != b]
    orders = []
    for bits in itertools.product((False, True), repeat=len(pairs)):
        lt = {p for p, bit in zip(pairs, bits) if bit}
        if all((b, a) not in lt for a, b in lt) and \
                all((a, d) in lt for a, b in lt for c, d in lt if b == c):
            orders.append(tuple(sorted(lt)))
    return [frozenset(order) for order in _up_to_relabelling(
        orders, list(itertools.permutations(range(size))),
        lambda order, perm: tuple(sorted((perm[a], perm[b]) for a, b in order)))]


def codiscrete_category(size: int) -> FinCategory:
    """One morphism h{a}{b} between any two of the objects 0..size-1."""
    objs = tuple(str(k) for k in range(size))
    return FinCategory(objs, tuple((f"h{a}{b}", a, b) for a in objs for b in objs),
                       {a: f"h{a}{a}" for a in objs},
                       {(f"h{b}{c}", f"h{a}{b}"): f"h{a}{c}"
                        for a in objs for b in objs for c in objs})


def census_bases() -> list[tuple[str, FinCategory]]:
    """The small bases of the census, named: every monoid of order at most
    3 up to isomorphism, as a one-object category; every poset with at most
    3 elements that is not a chain, up to isomorphism (the chains are in the
    corpus already); and the codiscrete category on two objects."""
    bases = [(f"monoid {n} #{k}", monoid_category(table))
             for n in (1, 2, 3) for k, table in enumerate(small_monoids(n))]
    bases += [(f"poset {n} " + (" ".join(f"{a}<{b}" for a, b in sorted(lt)) or "discrete"),
               poset_category(n, lt))
              for n in (1, 2, 3) for lt in small_posets(n) if len(lt) < n * (n - 1) // 2]
    return bases + [("codiscrete 2", codiscrete_category(2))]


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


def initial_projection(base: FinCategory, initial: str):
    """First projection a ⊗ b = a, f ⊗ g = f on a category with an initial
    object, which is the unit: α and ρ are identities and λ_a is the unique
    map initial -> a.  Lawful on every such category; on the 2-chain with
    unit 0 it is ``two_chain_fst``."""
    objs = base.objects
    mors = [m for m, _, _ in base.morphisms]
    return make_skew_monoidal(base, {(a, b): a for a in objs for b in objs},
                              {(f, g): f for f in mors for g in mors}, initial,
                              {(a, b, c): base.id_of(a) for a in objs for b in objs for c in objs},
                              {a: base.hom(initial, a)[0] for a in objs},
                              {a: base.id_of(a) for a in objs})


def pair(x: str, y: str) -> str:
    """An id for the pair (x, y); distinct pairs of strings get distinct ids."""
    return json.dumps([x, y])


def product_category(c: FinCategory, d: FinCategory) -> FinCategory:
    """C × D, componentwise, with pairs named by ``pair``."""
    return FinCategory(
        tuple(pair(a, b) for a in c.objects for b in d.objects),
        tuple((pair(f, g), pair(fs, gs), pair(ft, gt))
              for f, fs, ft in c.morphisms for g, gs, gt in d.morphisms),
        {pair(a, b): pair(c.id_of(a), d.id_of(b)) for a in c.objects for b in d.objects},
        {(pair(g1, g2), pair(f1, f2)): pair(h1, h2)
         for (g1, f1), h1 in c.compose.items() for (g2, f2), h2 in d.compose.items()})


def product_monoidal(c, d):
    """C × D with tensor, unit, α, λ and ρ taken componentwise."""
    def pairs(xs, ys):
        return [(x, y) for x in xs for y in ys]

    objs = pairs(c.base.objects, d.base.objects)
    mors = pairs([m for m, _, _ in c.base.morphisms], [m for m, _, _ in d.base.morphisms])
    return make_skew_monoidal(
        product_category(c.base, d.base),
        {(pair(*x), pair(*y)): pair(c.t_obj(x[0], y[0]), d.t_obj(x[1], y[1]))
         for x in objs for y in objs},
        {(pair(*f), pair(*g)): pair(c.t_mor(f[0], g[0]), d.t_mor(f[1], g[1]))
         for f in mors for g in mors},
        pair(c.unit, d.unit),
        {(pair(*x), pair(*y), pair(*z)): pair(c.alpha[(x[0], y[0], z[0])],
                                              d.alpha[(x[1], y[1], z[1])])
         for x in objs for y in objs for z in objs},
        {pair(*x): pair(c.lambda_[x[0]], d.lambda_[x[1]]) for x in objs},
        {pair(*x): pair(c.rho[x[0]], d.rho[x[1]]) for x in objs})


def reversed_opposite(c):
    """Cᵒᵖ with a ⊙ b = b ⊗ a and the same unit: α_{a,b,d} is C's α_{d,b,a},
    λ is C's ρ and ρ is C's λ.  Taking it twice gives C back."""
    objs = c.base.objects
    mors = [m for m, _, _ in c.base.morphisms]
    return make_skew_monoidal(
        opposite_category(c.base),
        {(a, b): c.t_obj(b, a) for a in objs for b in objs},
        {(f, g): c.t_mor(g, f) for f in mors for g in mors},
        c.unit,
        {(a, b, d): m for (d, b, a), m in c.alpha.items()},
        dict(c.rho), dict(c.lambda_))


def renamed(c, obj: dict, mor: dict):
    """c with every object id x replaced by obj[x] and morphism id f by mor[f]."""
    base = c.base
    return make_skew_monoidal(
        FinCategory(tuple(obj[a] for a in base.objects),
                    tuple((mor[m], obj[s], obj[t]) for m, s, t in base.morphisms),
                    {obj[a]: mor[i] for a, i in base.identity.items()},
                    {(mor[g], mor[f]): mor[h] for (g, f), h in base.compose.items()}),
        {(obj[a], obj[b]): obj[v] for (a, b), v in c.tensor_obj.items()},
        {(mor[f], mor[g]): mor[v] for (f, g), v in c.tensor_mor.items()},
        obj[c.unit],
        {tuple(obj[x] for x in key): mor[v] for key, v in c.alpha.items()},
        {obj[a]: mor[v] for a, v in c.lambda_.items()},
        {obj[a]: mor[v] for a, v in c.rho.items()})


def with_tables(m, action, subst, homs=None):
    """A copy of m whose action and substitution look up tables in the format
    of ``TMulticategory.materialize``, as the file reader's do: its ∘ᵢ rows
    are read as the rule and the whole table is stored for checking.  With
    m's own tables and one entry changed, a one-entry mutant of m."""
    return make_multicat(m.operad, m.objects, m.max_arity, m.homs if homs is None else homs,
                         m.identities, action_rule=lambda phi, f: action[(phi, f.key)][f.mid],
                         subst_rule=lambda g, fs: subst[g, fs], stored_subst=subst)


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


@pytest.fixture(scope="session")
def census():
    """(name, base, structures) for each base of ``census_bases``, with every
    structure that ``enumerate_skew_structures`` finds on it."""
    return [(name, base, enumerate_skew_structures(base)) for name, base in census_bases()]
