import hashlib
import itertools
import json
import sys

import pytest

from skewcat.catoperad import (
    LAM, LOOSE, TIGHT, CatOperad, check_operad_axioms, make_R_operad, make_terminal_operad,
    operad_by_name,
)
from skewcat.colaxalg import check_colax_algebra, colax_to_multicat
from skewcat.fincat import FinCategory, StructureError, Violation, check_category
from skewcat.tmulticat import (
    MultiMap, MulticatMorphism, _last_step, _partial_key_count, all_tight, check_morphism,
    check_tmulticat, from_tight_subsets, iso_search, loose_part, make_multicat,
    multicat_from_json, multicat_to_json, signatures, terminal_multicat, underlying_with_maps,
)
from skewcat.correspondence import (
    _certify, monoidal_to_colax, monoidal_to_multicat, multicat_to_monoidal, roundtrip_multicat,
)
from conftest import (
    chain_category, initial_projection, parallel_pair_category, product_monoidal,
    two_chain_fst, two_chain_snd, with_tables, z2_monoidal,
)
from naive_oracles import (
    naive_check_multicat_over_n, naive_check_tmulticat, naive_fold, naive_is_morphism,
    naive_subst_keys,
)


@pytest.fixture(scope="module")
def fst3():
    return monoidal_to_multicat(two_chain_fst(), 3)


@pytest.fixture(scope="module")
def z2m():
    return monoidal_to_multicat(z2_monoidal(), 3)


def test_terminal_over_n_passes():
    m = terminal_multicat(make_terminal_operad(), 3)
    assert check_tmulticat(m) == []
    assert naive_check_multicat_over_n(m)


def test_terminal_skew_passes():
    m = terminal_multicat(make_R_operad(), 3)
    assert check_tmulticat(m) == []


def test_two_chain_derived_passes(fst3):
    assert check_tmulticat(fst3) == []


def test_z2_derived_passes(z2m):
    assert check_tmulticat(z2m) == []


def test_multimap_is_a_tuple_of_its_four_fields(z2m):
    # it hashes as the tuple of its fields, as the frozen dataclass it
    # replaced did, so set and dict orders stay those of earlier releases
    mm_ = MultiMap("t", ("x", "x"), "x", "e0")
    assert hash(mm_) == hash(("t", ("x", "x"), "x", "e0"))
    assert repr(mm_) == "MultiMap(x='t', inputs=('x', 'x'), output='x', mid='e0')"
    assert (mm_.arity, mm_.key) == (2, ("t", ("x", "x"), "x"))
    for field in ("x", "inputs", "output", "mid", "arity"):
        with pytest.raises(AttributeError):
            setattr(mm_, field, "y")
    assert all(f != f.key and f.key != f and f not in z2m.homs for f in z2m.all_maps())


def _subst_sites(m, subst):
    """(table key, stored result, result hom) of each entry of the
    substitution table subst of m."""
    for (g, fs), rid in sorted(subst.items()):
        yield (g, fs), rid, m.homs[m.substitute(g, fs).key]


def _mutate_subst(m, pick):
    """Materialize, then redirect one substitution entry to a different member
    of the same hom set; pick(key, current, hom) chooses the new value."""
    action, subst = m.materialize()
    for key, rid, hom in _subst_sites(m, subst):
        new = pick(key, rid, hom)
        if new is not None:
            return with_tables(m, action, {**subst, key: new}), key
    raise AssertionError("no mutable entry found")


def _one_entry_mutants(m):
    """Every copy of m with one substitution or action entry redirected to
    another member of the same hom set."""
    action, subst = m.materialize()
    for key, rid, hom in _subst_sites(m, subst):
        for other in hom:
            if other != rid:
                yield with_tables(m, action, {**subst, key: other})
    for (fmor, key), table in sorted(action.items()):
        tgt = m.operad.component(len(key[1])).tgt(fmor)
        for mid, image in sorted(table.items()):
            for other in m.homs[(tgt, key[1], key[2])]:
                if other != image:
                    yield with_tables(m, {**action, (fmor, key): {**table, mid: other}}, subst)


def test_identity_law_mutant_names_the_multimap(z2m):
    def pick(key, rid, hom):
        g, fs = key
        if g == z2m.identity(g.output) and len(fs) == 1:
            others = [x for x in hom if x != rid]
            return others[0] if others else None
        return None

    mutant, (g, fs) = _mutate_subst(z2m, pick)
    rep = check_tmulticat(mutant)
    broken = fs[0].mid
    assert any(v.law == "identity-left" and dict(v.details)["m"] == broken
               for v in rep)


def test_underlying_category_of_derived_is_the_chain(fst3):
    cat = underlying_with_maps(fst3)[0]
    assert cat.canonical() == chain_category(2).canonical()


def test_underlying_category_of_terminal_is_point():
    m = terminal_multicat(make_R_operad(), 2)
    cat = underlying_with_maps(m)[0]
    assert len(cat.objects) == 1 and len(cat.morphisms) == 1
    assert check_category(cat) == []


def test_underlying_category_qualifies_colliding_ids():
    # the two-object variant reuses the id "m" in every hom set, so the
    # derived category must disambiguate morphism names
    m = terminal_multicat(make_R_operad(), 2, ("a", "b"))
    cat = underlying_with_maps(m)[0]
    assert check_category(cat) == []
    assert len(cat.morphisms) == 4
    assert cat.hom("a", "b") == ("a>b:m",)


def test_underlying_names_escape_separators_in_object_ids():
    # unescaped, both "a" -> "a>a" and "a>a" -> "a" would be named "a>a>a:m"
    m = terminal_multicat(make_R_operad(), 2, ("a", "a>a", "b:\\"))
    cat = underlying_with_maps(m)[0]
    assert check_category(cat) == []
    assert cat.hom("a", "a>a") == ("a>a\\>a:m",)
    assert cat.hom("a>a", "a") == ("a\\>a>a:m",)
    assert cat.hom("b:\\", "a") == ("b\\:\\\\>a:m",)
    assert cat.hom("a", "a") == ("a>a:m",)


def test_identities_map_to_category_identities(fst3):
    cat = underlying_with_maps(fst3)[0]
    for a in fst3.objects:
        assert cat.id_of(a) == fst3.identities[a]


def test_hom_action_example(fst3):
    # post-composing a loose binary map with the chain step lands in the
    # loose homs at the larger output
    f = next(fst3.maps(("l", ("0", "1"), "0")))
    step = fst3.mm("t", ("0",), "1", "m01")
    out = fst3.substitute(step, (f,))
    assert out.key == ("l", ("0", "1"), "1")


def test_all_tight_then_loose_part_is_identity(fst3):
    lp = loose_part(fst3)
    assert check_tmulticat(lp) == []
    again = loose_part(all_tight(lp))
    assert multicat_to_json(lp) == multicat_to_json(again)


def test_all_tight_j_is_identity_on_ids(fst3):
    lp = loose_part(fst3)
    s = all_tight(lp)
    for key in sorted(s.homs):
        if key[0] == "t" and key[1]:
            for mm_ in s.maps(key):
                assert s.act(LAM, mm_).mid == mm_.mid


def test_from_tight_subsets_round_trip(fst3):
    lp = loose_part(fst3)
    tight = {((a,), a): frozenset([lp.identities[a]]) for a in lp.objects}
    s = from_tight_subsets(lp, tight)
    assert check_tmulticat(s) == []
    assert multicat_to_json(lp) == multicat_to_json(loose_part(s))


def test_tight_subset_reconstruction_when_j_is_injective(fst3):
    # every comparison in the derived instance is injective, so splitting it
    # into loose part plus tight classes and recombining gives the same
    # structure up to isomorphism
    tight = {(key[1], key[2]): frozenset(fst3.act(LAM, mm_).mid for mm_ in fst3.maps(key))
             for key, mids in fst3.homs.items() if key[0] == "t" and key[1] and mids}
    rebuilt = from_tight_subsets(loose_part(fst3), tight)
    assert check_tmulticat(rebuilt) == []
    assert iso_search(fst3, rebuilt) is not None


def test_from_tight_subsets_requires_identities(fst3):
    lp = loose_part(fst3)
    with pytest.raises(StructureError):
        from_tight_subsets(lp, {})


def test_from_tight_subsets_closure_violation_names_witness(z2m):
    lp = loose_part(z2m)
    tight = {((a,), a): frozenset(lp.hom("t", (a,), a)) for a in lp.objects}
    x = lp.objects[0]
    tight[((x, x), x)] = frozenset()
    s = from_tight_subsets(lp, tight)  # no binary tights, so closure holds
    assert check_tmulticat(s) == []
    # marking a single binary map tight is not closed: precomposing its first
    # slot with the non-identity tight unary map escapes the class
    bad = dict(tight)
    bad[((x, x), x)] = frozenset([sorted(lp.hom("t", (x, x), x))[0]])
    with pytest.raises(StructureError, match="not closed|not tight"):
        from_tight_subsets(lp, bad)


def test_tightening_morphism_passes(fst3):
    # growing the tight class along identical loose data is a morphism
    lp = loose_part(fst3)
    src = from_tight_subsets(
        lp, {((a,), a): frozenset([lp.identities[a]]) for a in lp.objects})
    tgt = all_tight(lp)
    hom_maps = {key: {mid: mid for mid in mids}
                for key, mids in src.homs.items()}
    f = MulticatMorphism(src, tgt, {a: a for a in src.objects}, hom_maps)
    assert check_morphism(f) == []


def test_self_iso_is_the_identity(fst3):
    fwd = iso_search(fst3, fst3)
    assert fwd.obj_map == {a: a for a in fst3.objects}
    assert all(table == {mid: mid for mid in fst3.homs[key]}
               for key, table in fwd.hom_maps.items())
    _certify(fwd)


def _roundtrip_iso(structure, arity):
    """iso_search's isomorphism from the multicategory of structure to the
    one rebuilt from its skew monoidal category, as ``roundtrip_multicat``
    finds it."""
    s = monoidal_to_multicat(structure(), arity)
    return iso_search(s, monoidal_to_multicat(multicat_to_monoidal(s), arity))


def test_iso_search_finds_self_iso(fst3, z2m):
    isos = [iso_search(m, m) for m in (fst3, z2m)]
    # a copy whose homs list their ids in reverse, so the search must prune
    reversed_homs = {key: mids[::-1] for key, mids in z2m.homs.items()}
    isos.append(iso_search(z2m, with_tables(z2m, *z2m.materialize(), reversed_homs)))
    # the round-trip isomorphisms at the CLI's default arity
    isos += [_roundtrip_iso(st, 4) for st in (z2_monoidal, two_chain_fst, two_chain_snd)]
    for fwd in isos:
        assert fwd is not None
        assert check_morphism(fwd) == []
        _certify(fwd)


def test_iso_search_rejects_a_swap_in_one_hom_of_two_maps():
    """The target is the first projection on the parallel pair at arity 2
    with hom(a, b) listed as (v, u), so the first bijection tried there
    swaps u and v and breaks ∘ᵢ equations that lie in homs of two maps;
    the search must reject it."""
    m = monoidal_to_multicat(initial_projection(parallel_pair_category(), "x"), 2)
    key = (TIGHT, ("a",), "b")
    assert len(m.homs[key]) == 2
    fwd = iso_search(m, with_tables(m, *m.materialize(), {**m.homs, key: m.homs[key][::-1]}))
    assert check_morphism(fwd) == []
    _certify(fwd)


def _hom_mutants(fwd):
    """(hom key, mutant) for each morphism that sends one hom of fwd into
    its target hom differently: each other bijection, and each change of
    one entry, hom by hom in sorted order."""
    for key, table in sorted(fwd.hom_maps.items()):
        ids = sorted(table)
        for values in itertools.product(sorted(set(table.values())), repeat=len(ids)):
            new = dict(zip(ids, values))
            if new != table:
                yield key, MulticatMorphism(fwd.source, fwd.target, fwd.obj_map,
                                            {**fwd.hom_maps, key: new})


@pytest.mark.parametrize("structure, mutants", [
    (z2_monoidal, 21), (two_chain_fst, 0), (two_chain_snd, 0)])
def test_check_morphism_agrees_with_the_full_sweep_on_every_mutant(structure, mutants):
    # check_morphism checks substitution on the ∘ᵢ keys, the oracle on every
    # stored key
    fwd = _roundtrip_iso(structure, 3)
    assert check_morphism(fwd) == [] and naive_is_morphism(fwd)
    count = 0
    for _, mutant in _hom_mutants(fwd):
        assert (check_morphism(mutant) == []) == naive_is_morphism(mutant)
        count += 1
    # fst and snd have no hom of two or more maps at arity 3
    assert count == mutants


# sha256, as in ``_violations_digest``, over the check_morphism violation
# lists of the 96 one-hom mutants that preserve identities, labelled
# "<iso> <hom key>": of the Z/2 round-trip isomorphism at arity 3 and of the
# first self-isomorphisms of the parallel-pair first projection and of
# Z/2 × fst at arity 2 (4,343 violations).  Taken while check_morphism
# compared hashed multimaps, so it pins its lists and their order.
MORPHISM_MUTANTS_DIGEST = "6fe03b1256e8cd1fce8ed18ac8b68c8a7a08394fa5bcec8ffe8a54ed6ff34797"


def test_check_morphism_violation_lists_match_digest_in_order():
    """A mutant that breaks an identity may state its ∘ᵢ equations with
    either endpoint's identities in the other slots, so only its
    ``morphism-identity`` report is pinned."""
    isos = [("z2@3", _roundtrip_iso(z2_monoidal, 3))]
    for name, c in (("projection@2", initial_projection(parallel_pair_category(), "x")),
                    ("z2xfst@2", product_monoidal(z2_monoidal(), two_chain_fst()))):
        s = monoidal_to_multicat(c, 2)
        isos.append((name, iso_search(s, s)))
    cases, identity_breaking = [], 0
    for name, fwd in isos:
        src, tgt = fwd.source, fwd.target
        for key, mutant in _hom_mutants(fwd):
            violations = check_morphism(mutant)
            if all(mutant.on_map(src.identity(a)) == tgt.identity(fwd.obj_map[a])
                   for a in src.objects):
                cases.append((f"{name} {key!r}", violations))
            else:
                assert "morphism-identity" in {v.law for v in violations}
                identity_breaking += 1
    assert (len(cases), identity_breaking) == (96, 6)
    assert sum(len(violations) for _, violations in cases) == 4343
    assert _violations_digest(cases) == MORPHISM_MUTANTS_DIGEST


def test_check_morphism_reports_a_broken_action_alone(z2m):
    # the copy's action sends one tight map to the other map of its loose
    # hom; its substitution table is the original's, so the identity hom
    # maps break an action equation and no substitution equation
    action, subst = z2m.materialize()
    (fmor, key), table = sorted(action.items())[0]
    mid = sorted(table)[0]
    loose = (z2m.operad.component(len(key[1])).tgt(fmor), key[1], key[2])
    other = next(o for o in z2m.homs[loose] if o != table[mid])
    copy = with_tables(z2m, {**action, (fmor, key): {**table, mid: other}}, subst)
    f = MulticatMorphism(z2m, copy, {a: a for a in z2m.objects},
                         {k: {m: m for m in mids} for k, mids in z2m.homs.items()})
    laws = {v.law for v in check_morphism(f)}
    assert "morphism-action" in laws
    assert "morphism-substitution" not in laws
    assert not naive_is_morphism(f)
    # the search decides the same equations: only the action ones rule out
    # the identity maps, and no other bijection is an isomorphism
    assert iso_search(z2m, copy) is None


def test_a_naturality_square_with_no_operad_morphism_is_a_structure_error():
    """Naturality acts on each result by the one operad morphism between
    two substituted types; an object rule that is not monotone leaves none,
    as ``CatOperad.subst_mor`` reports."""
    r = operad_by_name("R")
    flipped = CatOperad("flipped", r.component_rule, r.unit,
                        lambda x, xs, ks: LOOSE if not sum(ks) or x == TIGHT else TIGHT)
    with pytest.raises(StructureError, match="no morphism 'l' -> 't' for substitution"):
        check_tmulticat(terminal_multicat(flipped, 2))


def test_iso_search_rejects_different_shapes(fst3):
    other = terminal_multicat(make_R_operad(), 3, ("0", "1"))
    assert iso_search(fst3, other) is None


@pytest.mark.parametrize("arity", [3, 4])
@pytest.mark.parametrize("structure", [z2_monoidal, two_chain_fst, two_chain_snd])
def test_subst_keys_in_the_order_of_the_naive_enumeration(structure, arity):
    m = monoidal_to_multicat(structure(), arity)
    assert list(m.subst_keys()) == naive_subst_keys(m)


def test_subst_keys_of_a_loose_part_in_the_naive_order(fst3):
    lp = loose_part(fst3)
    assert list(lp.subst_keys()) == naive_subst_keys(lp)


def test_json_round_trip(z2m):
    small = monoidal_to_multicat(z2_monoidal(), 2)
    data = multicat_to_json(small)
    back = multicat_from_json(data)
    assert check_tmulticat(back) == []
    assert multicat_to_json(back) == multicat_to_json(small)


@pytest.mark.parametrize("make", [
    lambda: monoidal_to_multicat(z2_monoidal(), 3),
    lambda: monoidal_to_multicat(two_chain_fst(), 3),
    lambda: monoidal_to_multicat(two_chain_snd(), 4),
    lambda: loose_part(monoidal_to_multicat(z2_monoidal(), 3)),
], ids=["z2@3", "fst@3", "snd@4", "z2-loose-part@3"])
def test_circ_only_document_is_the_full_one_less_its_folded_rows(make):
    # a ∘ᵢ-only document leaves out exactly the rows with two or more
    # non-identity inners, and reads back to the table of the full one
    m = make()
    full, part = multicat_to_json(m), multicat_to_json(m, full=False)
    units = {m.identity(a) for a in m.objects}

    def folded(row):
        return sum(MultiMap(f["x"], tuple(f["inputs"]), f["output"], f["id"]) not in units
                   for f in row["inners"]) > 1

    assert part == {**full, "subst": [r for r in full["subst"] if not folded(r)]}
    assert len(part["subst"]) == sum(1 for _ in m._keys())
    back, back_full = multicat_from_json(part), multicat_from_json(full)
    assert back.stored_subst is None and len(back_full.stored_subst) == len(full["subst"])
    assert back._table == back_full._table


def test_writer_shares_equal_references():
    data = multicat_to_json(monoidal_to_multicat(z2_monoidal(), 2))
    refs = [r for row in data["subst"] for r in (row["outer"], *row["inners"])]
    first = {}
    for r in refs:
        assert first.setdefault(json.dumps(r, sort_keys=True), r) is r
    assert len(first) < len(refs)


def test_json_rejects_unknown_keys(fst3):
    data = multicat_to_json(monoidal_to_multicat(two_chain_fst(), 2))
    data["extra"] = True
    with pytest.raises(StructureError):
        multicat_from_json(data)


def test_json_rejects_actions_over_terminal_operad():
    m = terminal_multicat(make_terminal_operad(), 2)
    data = multicat_to_json(m)
    data["action"] = [{"n": 1, "inputs": ["*"], "output": "*",
                       "map_t": ["m"], "map_l": ["m"]}]
    with pytest.raises(StructureError):
        multicat_from_json(data)


def test_checker_agrees_with_naive_oracle_over_n():
    # valid instances and a substitution mutant, small enough for the oracle
    insts = [terminal_multicat(make_terminal_operad(), 3),
             loose_part(monoidal_to_multicat(two_chain_fst(), 2)),
             loose_part(monoidal_to_multicat(z2_monoidal(), 2)),
             loose_part(monoidal_to_multicat(z2_monoidal(), 3))]
    for m in insts:
        assert (check_tmulticat(m) == []) == naive_check_multicat_over_n(m)
    z2lp = loose_part(monoidal_to_multicat(z2_monoidal(), 2))

    def pick(key, rid, hom):
        others = [x for x in hom if x != rid]
        return others[0] if others else None

    mutant, _ = _mutate_subst(z2lp, pick)
    assert check_tmulticat(mutant) != []
    assert not naive_check_multicat_over_n(mutant)


@pytest.mark.parametrize("variant", ["typed", "loose_part"])
def test_checker_agrees_with_full_quantification_on_every_mutant(variant):
    # the checker quantifies over the ∘ᵢ fragment; the oracle over every
    # nested full substitution, as the laws are stated
    m = monoidal_to_multicat(z2_monoidal(), 2)
    if variant == "loose_part":
        m = loose_part(m)
    assert check_tmulticat(m) == [] and naive_check_tmulticat(m)
    count = 0
    for mutant in _one_entry_mutants(m):
        assert (check_tmulticat(mutant) == []) == naive_check_tmulticat(mutant)
        count += 1
    # typed: 248 substitution and 4 action mutants; loose part: 60 substitution
    assert count == {"typed": 252, "loose_part": 60}[variant]


@pytest.mark.parametrize("kind", ["homs", "action", "subst"])
def test_json_rejects_duplicate_rows(kind):
    data = multicat_to_json(monoidal_to_multicat(z2_monoidal(), 2))
    data[kind].append(dict(data[kind][-1]))  # the last row, once more
    with pytest.raises(StructureError, match="duplicate"):
        multicat_from_json(data)


def _folded(bound, values, unit, circ):
    """One object over the terminal operad, hom ``values`` at every arity, and
    g ∘ᵢ f given by ``circ(g id, g arity, i, f)``: the rule answers ∘ᵢ keys,
    and ``substitute`` folds every other substitution from them."""
    def subst_rule(g, fs):
        moved = [i for i, f in enumerate(fs) if (f.arity, f.mid) != (1, unit)]
        i = moved[0] if moved else 0
        return circ(g.mid, g.arity, i + 1, fs[i])

    op = make_terminal_operad()
    homs = {(x, inputs, "*"): values for x, inputs in signatures(op, ("*",), bound)}
    return make_multicat(op, ("*",), bound, homs, {"*": unit},
                         action_rule=lambda phi, m: m.mid, subst_rule=subst_rule)


def _families(m):
    return {(v.law, dict(v.details).get("family")) for v in check_tmulticat(m)}


def _noncommuting():
    # ∘ᵢ multiplies ids in the monoid {1, a, b} with xy = y for x, y != 1:
    # associative, so sequential instances hold, but composing in two
    # different slots does not commute
    return _folded(2, ("1", "a", "b"), "1", lambda g, n, i, f: g if f.mid == "1" else f.mid)


def _nonassociative():
    # ∘ᵢ adds ids mod 2, plus their product when a ternary map goes into a
    # unary one: unital, and only sequential instances can tell
    def circ(g, n, i, f):
        return str((int(g) + int(f.mid) + (n == 1 and f.arity == 3) * int(g) * int(f.mid)) % 2)

    return _folded(3, ("0", "1"), "0", circ)


def test_parallel_family_alone_catches_a_noncommuting_composition():
    m = _noncommuting()
    assert _families(m) == {("subst-associativity", "parallel")}
    assert not naive_check_tmulticat(m)


def test_sequential_family_alone_catches_a_nonassociative_composition():
    m = _nonassociative()
    assert _families(m) == {("subst-associativity", "sequential")}
    assert not naive_check_tmulticat(m)


def _chain_operad():
    """Positive components the 3-chain 0 -> 1 -> 2, component 0 the point 2,
    unit 0; substitution takes the larger of the outer object and the first
    inner one.  Its components hold a composable pair of non-identity
    morphisms, m12 after m01, which no built-in operad has."""
    chain = chain_category(3)
    point = FinCategory(("2",), (("m22", "2", "2"),), {"2": "m22"}, {("m22", "m22"): "m22"})
    return CatOperad("C", lambda n: chain if n else point, "0",
                     lambda x, xs, ks: max(x, xs[0]) if xs else x, arity_uniform=True)


def _retyped_over_the_chain(mutated=None):
    """Z/2 as a one-object ordinary multicategory @2 (∘ᵢ adds ids mod 2),
    typed over ``_chain_operad`` with every comparison the identity on ids;
    ``mutated``, a multimap, gets the other id under the composite m02."""
    plain = _folded(2, ("0", "1"), "0", lambda g, n, i, f: str((int(g) + int(f.mid)) % 2))
    op = _chain_operad()
    homs = {(x, inputs, "*"): plain.hom(TIGHT, inputs, "*")
            for x, inputs in signatures(op, ("*",), 2)}

    def action_rule(phi, m):
        return str(1 - int(m.mid)) if (phi, m) == ("m02", mutated) else m.mid

    def subst_rule(g, fs):
        return plain.substitute(MultiMap(TIGHT, g.inputs, g.output, g.mid),
                                tuple(MultiMap(TIGHT, f.inputs, f.output, f.mid) for f in fs)).mid

    return make_multicat(op, ("*",), 2, homs, {"*": "0"},
                         action_rule=action_rule, subst_rule=subst_rule)


def test_action_composition_over_composable_operad_morphisms():
    # the one law instance family that needs two composable non-identity
    # operad morphisms: act(m02) against act(m12) after act(m01)
    assert check_operad_axioms(_chain_operad(), 3) == []
    m = _retyped_over_the_chain()
    assert check_tmulticat(m) == [] and naive_check_tmulticat(m)
    mutant = _retyped_over_the_chain(MultiMap("0", ("*",), "*", "1"))
    violations = check_tmulticat(mutant)
    assert Violation.of("action-composition", g="m12", f="m01", m="1") in violations
    assert not naive_check_tmulticat(mutant)


@pytest.mark.parametrize("build", [_noncommuting, _nonassociative])
def test_substitute_folds_in_the_order_of_the_naive_fold(build):
    # ∘ᵢ is not associative here, so the order of the fold shows in its value
    m = build()
    units = {m.identity(a) for a in m.objects}
    moved = [(g, fs) for g, fs in m.subst_keys() if any(f not in units for f in fs)]
    assert any(sum(f not in units for f in fs) >= 2 for _, fs in moved)
    for g, fs in moved:
        assert m.substitute(g, fs) == naive_fold(m, g, fs)


def test_last_step_is_the_leftmost_moved_inner_of_positive_arity():
    # (moved slots, arity of the inner at each slot) -> (last step, its slot)
    assert _last_step([0, 2], [0, 1, 2]) == (2, 1)
    assert _last_step([1, 2], [1, 2, 0]) == (1, 1)
    assert _last_step([0, 1, 3], [0, 0, 1, 0]) == (0, 0)
    assert _last_step([0, 1, 3], [0, 0, 1, 3]) == (3, 1)


@pytest.mark.parametrize("c", [z2_monoidal(), initial_projection(parallel_pair_category(), "x")],
                         ids=["z2", "projection"])
def test_checker_substitutes_nothing_beyond_the_circ_i_table(c):
    """Every law, naturality with two non-identity inners too, is read off
    ``_table``: the substitution memo ends with exactly the ∘ᵢ keys, which
    building the table evaluates.  A fold by the checker would add keys."""
    m = monoidal_to_multicat(c, 3)
    assert check_tmulticat(m) == []
    assert len(m._subst_cache) == _partial_key_count(m)


# structure -> its number of substitution keys at arities 3 and 4
FORMULA_CASES = {"fst": (two_chain_fst(), {3: 10031, 4: 190032}),
                 "snd": (two_chain_snd(), {3: 2970, 4: 39344}),
                 **{f"z2_{a}{l}{r}": (z2_monoidal(a, l, r), {3: 2472, 4: 25400})
                    for a, l, r in itertools.product((0, 1), repeat=3)}}


@pytest.mark.parametrize("arity", [3, 4])
@pytest.mark.parametrize("name", list(FORMULA_CASES))
def test_substitute_is_the_colax_formula_on_every_key(name, arity):
    # the rule is evaluated on ∘ᵢ keys and the fold gives the rest; written
    # out in full, substitution is Gamma ; m_x(f1..fn) ; g at every key, for
    # the lawful structures and the unlawful Z/2 variants alike
    structure, counts = FORMULA_CASES[name]
    alg = monoidal_to_colax(structure, arity)
    m = colax_to_multicat(alg)
    base = alg.base
    count = 0
    for g, fs in m.subst_keys():
        gamma = alg.gamma(g.x, tuple((f.x, f.arity) for f in fs), tuple(f.inputs for f in fs))
        formula = base.comp_seq(gamma, alg.m_mor(g.x, tuple(f.mid for f in fs)), g.mid)
        assert m.substitute(g, fs).mid == formula
        count += 1
    assert count == counts[arity]


def _generator_row(data):
    """The subst row of a Z/2 document that substitutes the generator into
    both slots of the tight binary generator: two non-identity inners."""
    return next(r for r in data["subst"]
                if (r["outer"]["x"], r["outer"]["id"], len(r["outer"]["inputs"])) == ("t", "e1", 2)
                and all((f["x"], f["id"], len(f["inputs"])) == ("t", "e1", 1)
                        for f in r["inners"]))


def _row_key(m, row):
    o = row["outer"]
    return (m.mm(o["x"], tuple(o["inputs"]), o["output"], o["id"]),
            tuple(m.mm(f["x"], tuple(f["inputs"]), f["output"], f["id"]) for f in row["inners"]))


@pytest.mark.parametrize("edit, error", [
    ("swap", None), ("drop", "no substitution entry"), ("plant", "'planted'")])
def test_stored_full_rows_are_checked_and_never_read(edit, error):
    # a row with two non-identity inners is data: substitute folds that key
    # from ∘ᵢ rows, and check_tmulticat compares the row with the fold; a
    # table without it is neither exactly the ∘ᵢ rows nor full, so the
    # reader rejects it
    data = json.loads(json.dumps(multicat_to_json(monoidal_to_multicat(z2_monoidal(), 3))))
    row = _generator_row(data)
    fold = row["result"]
    if edit == "drop":
        data["subst"].remove(row)
        with pytest.raises(StructureError, match=error):
            multicat_from_json(data)
        return
    row["result"] = {"swap": "e0" if fold == "e1" else "e1", "plant": "planted"}[edit]
    m = multicat_from_json(data)
    assert m.substitute(*_row_key(m, row)).mid == fold
    if error is None:
        assert [(v.law, dict(v.details)["family"]) for v in check_tmulticat(m)] == \
            [("subst-associativity", "fold")]
        assert not naive_check_tmulticat(m)
    else:
        with pytest.raises(StructureError, match=error):
            check_tmulticat(m)


def test_circ_only_file_mutants_agree_with_full_quantification():
    # a file of exactly the ∘ᵢ rows keeps no stored table: every row is read
    # as the rule, so each one-entry mutant of a result is a mutant of ∘ᵢ
    data = json.loads(json.dumps(multicat_to_json(monoidal_to_multicat(z2_monoidal(), 3),
                                                  full=False)))
    m = multicat_from_json(data)
    assert m.stored_subst is None
    assert check_tmulticat(m) == [] and naive_check_tmulticat(m)
    count = 0
    for row in data["subst"]:
        rid = row["result"]
        for other in m.homs[m.substitute(*_row_key(m, row)).key]:
            if other != rid:
                row["result"] = other
                mutant = multicat_from_json(data)
                assert (check_tmulticat(mutant) == []) == naive_check_tmulticat(mutant)
                count += 1
        row["result"] = rid
    assert count == 196


def test_iso_search_and_roundtrip_walk_thousands_of_homs_at_the_default_limit():
    # the hom assignment walks one hom after another; done by recursion it
    # needed a frame per non-empty hom
    t = terminal_multicat(operad_by_name("R"), 4, ("a", "b", "c", "d"))
    assert sum(1 for mids in t.homs.values() if mids) == 2724
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert iso_search(t, t) is not None
        assert roundtrip_multicat(t).isomorphic
    finally:
        sys.setrecursionlimit(limit)


# sha256 over "<case> <count>" and then "<law>\t<details>" of every violation,
# in order: of check_tmulticat on each digest structure at each arity and on
# the two folded structures above, whose violations include parallel and
# sequential instances at the bound (9,529 violations), and of
# check_colax_algebra at arity 3 (2,296).  Taken before the checkers read
# the arity-bucketed index, so it pins their order.
VIOLATIONS_DIGEST = "2660884fefb020bbcd59745939fe0c40f36cdb2bc8f0bb8bfab60f6a2982cef5"
COLAX_VIOLATIONS_DIGEST = "93e46b85f1f3c2a466e57a8f2a341383b6fc08e54ad7ff851db4269382a5b2f1"
DIGEST_STRUCTURES = [
    *((f"z2_{a}{l}{r}", z2_monoidal(a, l, r)) for a, l, r in itertools.product((0, 1), repeat=3)),
    ("fst", two_chain_fst()), ("snd", two_chain_snd()),
    ("z2xfst", product_monoidal(z2_monoidal(), two_chain_fst()))]


def _violations_digest(cases) -> str:
    digest = hashlib.sha256()
    for label, violations in cases:
        digest.update(f"{label} {len(violations)}\n".encode())
        for v in violations:
            digest.update(f"{v.law}\t{v.details!r}\n".encode())
    return digest.hexdigest()


def test_violation_lists_match_digest_in_order():
    multicats = [(f"{name}@{n}", monoidal_to_multicat(c, n)) for name, c in DIGEST_STRUCTURES
                 for n in ((2, 3) if name == "z2xfst" else (2, 3, 4))]
    multicats += [("noncommuting", _noncommuting()), ("nonassociative", _nonassociative())]
    assert _violations_digest((label, check_tmulticat(m))
                              for label, m in multicats) == VIOLATIONS_DIGEST
    assert _violations_digest(
        (name, check_colax_algebra(monoidal_to_colax(c, 3)))
        for name, c in DIGEST_STRUCTURES) == COLAX_VIOLATIONS_DIGEST


# sha256, as above, over the violation lists of the one-entry ∘ᵢ mutants of
# the first projection on the parallel pair at arity 2, one per ∘ᵢ key into a
# hom of two multimaps, in ``_keys`` order (686 violations).
# Taken while associativity was still skipped only when every hom is thin.
PROJECTION_MUTANTS_DIGEST = "219080f92ebe8f43a245ea8973578db1e1218777cc8a1c018882ada580057abc"


def _mutation_sites(m):
    """(∘ᵢ key, id) for each ∘ᵢ key of m into a hom of two or more
    multimaps and each other member of that hom, in order."""
    maps, comp = m._table.maps, m._table.comp
    sites = []
    for g, i, f in m._keys():
        r = maps[comp[g][i][f]]
        key = (maps[g], m._inners(maps[g], i, maps[f]))
        sites.extend((key, other) for other in m.homs[r.key] if other != r.mid)
    return sites


def _generator_mutants(m, sites):
    """(∘ᵢ key, mutant) for each site: m with that key's entry set to the
    id, built one at a time."""
    action, subst = m.materialize()
    for key, other in sites:
        yield key, with_tables(m, action, {**subst, key: other})


def _outputs_of_one_and_two_map_homs(m):
    """Every hom of m into a or x has at most one multimap, and some hom
    into b has two."""
    assert all(len(mids) <= 1 for (_, _, b), mids in m.homs.items() if b in ("a", "x"))
    assert any(len(mids) == 2 for (_, _, b), mids in m.homs.items() if b == "b")


def test_associativity_mutants_of_the_projection_at_arity_two():
    """The first projection on the parallel pair has homs of two multimaps
    into b (hom(a, b) is {u, v}) and none into a or x: an associativity
    instance whose outer map lands in a or x compares two members of a hom
    with one element.  Each of the 60 one-entry ∘ᵢ mutants into b keeps the
    violations it had when only a thin structure skipped associativity, and
    the full quantification agrees on all 60 and on the structure itself
    (about 8 s in all, 2 s of it the oracle on the structure; on each mutant
    it stops at its first failure)."""
    m = monoidal_to_multicat(initial_projection(parallel_pair_category(), "x"), 2)
    _outputs_of_one_and_two_map_homs(m)
    sites = _mutation_sites(m)
    assert len(sites) == 60
    mutants = list(_generator_mutants(m, sites))
    cases = [(repr(key), check_tmulticat(mutant)) for key, mutant in mutants]
    assert _violations_digest(cases) == PROJECTION_MUTANTS_DIGEST
    assert check_tmulticat(m) == [] and naive_check_tmulticat(m)
    for (_, violations), (_, mutant) in zip(cases, mutants):
        assert (violations == []) == naive_check_tmulticat(mutant)


# sha256, as above, over the violation lists of every 76th of the 456
# one-entry ∘ᵢ mutants of the same projection at arity 3, in ``_keys``
# order (6 mutants, 201 violations).  Taken while
# associativity skipped every outer map into a or x.
PROJECTION_MUTANTS_AT_3_DIGEST = "bc8875c60158b7854ca766191744183ae43d2dc7db698858c30ed52cce7326e6"


def test_associativity_mutants_of_the_projection_at_arity_three():
    """At arity 3 the projection's associativity instances reach stages of
    arity 3 into a, b and x.  A fixed sample of its one-entry ∘ᵢ mutants
    keeps its violation lists in order (about 8 s; each mutant stores the
    151,314 full rows, so they are built one at a time)."""
    m = monoidal_to_multicat(initial_projection(parallel_pair_category(), "x"), 3)
    _outputs_of_one_and_two_map_homs(m)
    sites = _mutation_sites(m)
    assert len(sites) == 456
    cases = [(repr(key), check_tmulticat(mutant))
             for key, mutant in _generator_mutants(m, sites[::76])]
    assert _violations_digest(cases) == PROJECTION_MUTANTS_AT_3_DIGEST


# sha256, as above, over the violation lists of the one-entry action mutants
# of Z/2 at arities 3 and 4 (6 and 8) and of every 7th of the 42 of
# Z/2 × snd at arity 3, in the order of ``_action_mutants`` (20 mutants,
# 3,463 subst-naturality violations).  Taken while naturality derived each
# square's morphism with ``CatOperad.subst_mor``.
ACTION_MUTANTS_DIGEST = "e496c503ce952de7cbbd8cc55387345d8ef3a5bd38759fb26c6f210cc79a9ede"


def _action_mutants(m):
    """(site, mutant) for each λ image of m and each other member of its
    loose hom: m with that action entry set to the member.  Sites in the
    order of the sorted action table, then of each tight hom."""
    action, subst = m.materialize()
    for (phi, key), table in sorted(action.items()):
        loose = (m.operad.component(len(key[1])).tgt(phi), key[1], key[2])
        for mid in m.homs[key]:
            for other in m.homs[loose]:
                if other != table[mid]:
                    yield (phi, key, mid, other), with_tables(
                        m, {**action, (phi, key): {**table, mid: other}}, subst)


def test_action_mutants_break_naturality():
    """The digests above mutate substitution entries or the monoidal
    structure; these mutate the action, which only naturality reads
    against substitution.  The full quantification agrees on the Z/2
    mutants (about 8 s in all)."""
    cases, naive = [], []
    z2xsnd = product_monoidal(z2_monoidal(), two_chain_snd())
    for name, c, n, count, step in (("z2", z2_monoidal(), 3, 6, 1), ("z2", z2_monoidal(), 4, 8, 1),
                                    ("z2xsnd", z2xsnd, 3, 42, 7)):
        mutants = list(_action_mutants(monoidal_to_multicat(c, n)))
        assert len(mutants) == count
        for site, mutant in mutants[::step]:
            cases.append((f"{name}@{n} {site!r}", check_tmulticat(mutant)))
            if name == "z2":
                naive.append((cases[-1][1] == []) == naive_check_tmulticat(mutant))
    assert len(cases) == 20 and all(naive)
    assert sum(len(violations) for _, violations in cases) == 3463
    assert {v.law for _, violations in cases for v in violations} == {"subst-naturality"}
    assert _violations_digest(cases) == ACTION_MUTANTS_DIGEST
