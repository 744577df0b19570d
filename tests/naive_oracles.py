"""Independent brute-force oracles.

Deliberately naive re-implementations that read the raw tables and quantify
with plain loops, kept free of any logic shared with the library's checkers so
the two sides can disagree if either is wrong.
"""

import itertools

from skewcat.fincat import Functor
from skewcat.skewmon import LaxMonoidalFunctor


def naive_check_category(cat) -> bool:
    mors = {m: (s, t) for m, s, t in cat.morphisms}
    for obj in cat.objects:
        if obj not in cat.identity:
            return False
        i = cat.identity[obj]
        if i not in mors or mors[i] != (obj, obj):
            return False
    for f, (fs, ft) in mors.items():
        for g, (gs, gt) in mors.items():
            if ft == gs:
                if (g, f) not in cat.compose:
                    return False
                gf = cat.compose[(g, f)]
                if gf not in mors or mors[gf] != (fs, gt):
                    return False
    for f, (fs, ft) in mors.items():
        if cat.compose.get((cat.identity[ft], f)) != f:
            return False
        if cat.compose.get((f, cat.identity[fs])) != f:
            return False
    for f, (fs, ft) in mors.items():
        for g, (gs, gt) in mors.items():
            if ft != gs:
                continue
            for h, (hs, ht) in mors.items():
                if gt != hs:
                    continue
                if cat.compose[(h, cat.compose[(g, f)])] != \
                   cat.compose[(cat.compose[(h, g)], f)]:
                    return False
    return True


def naive_is_epi(cat, f) -> bool:
    b = [t for m, s, t in cat.morphisms if m == f][0]
    for g, gs, gt in cat.morphisms:
        if gs != b:
            continue
        for h, hs, ht in cat.morphisms:
            if hs != b or ht != gt or g == h:
                continue
            if cat.compose.get((g, f)) == cat.compose.get((h, f)):
                return False
    return True


def stored_substitution(m):
    """Full substitution as m states it: the row of a file's stored table
    where m has one (``stored_subst``), else ``m.substitute``."""
    rows = m.stored_subst or {}

    def subst(g, fs):
        r = m.substitute(g, fs)
        rid = rows.get((g, fs))
        return r if rid is None else m.mm(*r.key, rid)

    return subst


def naive_fold(m, g, fs):
    """g(fs) as a fold of ``subst_after`` steps over the non-identity inners:
    nullary ones first, then the rest, each group right to left, so that
    every stage stays within max(arity of g, arity of the result)."""
    units = {m.identity(a) for a in m.objects}
    moved = [(i, f) for i, f in enumerate(fs, 1) if f not in units]
    nullary = [i for i, f in moved if f.arity == 0]
    r = g
    for i, f in sorted(moved, key=lambda p: (p[1].arity > 0, -p[0])):
        shift = sum(1 for p in nullary if p < i) if f.arity else 0
        r = m.subst_after(r, i - shift, f)
    return r


def naive_check_multicat_over_n(m) -> bool:
    """Ordinary multicategory laws on a terminal-operad instance, by direct
    loops over the stored homs and ``stored_substitution``."""
    full = stored_substitution(m)
    maps = []
    for (x, inputs, output), mids in m.homs.items():
        for mid in mids:
            maps.append((inputs, output, mid))

    def subst(g, fs):
        gm = m.mm("t", g[0], g[1], g[2])
        fms = tuple(m.mm("t", f[0], f[1], f[2]) for f in fs)
        r = full(gm, fms)
        return (r.inputs, r.output, r.mid)

    def ident(a):
        return ((a,), a, m.identities[a])

    for g in maps:
        if subst(ident(g[1]), (g,)) != g:
            return False
        if g[0]:
            if subst(g, tuple(ident(a) for a in g[0])) != g:
                return False
    by_out = {}
    for f in maps:
        by_out.setdefault(f[1], []).append(f)

    def tuples_into(slots, budget):
        if not slots:
            yield ()
            return
        for f in by_out.get(slots[0], []):
            if len(f[0]) <= budget:
                for rest in tuples_into(slots[1:], budget - len(f[0])):
                    yield (f,) + rest

    for g in maps:
        if not g[0]:
            continue
        for fs in tuples_into(g[0], m.max_arity):
            r = subst(g, fs)
            for hss_flat in tuples_into(tuple(a for f in fs for a in f[0]), m.max_arity):
                idx = 0
                hss = []
                for f in fs:
                    hss.append(hss_flat[idx:idx + len(f[0])])
                    idx += len(f[0])
                lhs = subst(r, hss_flat)
                inner = tuple(subst(f, hs) for f, hs in zip(fs, hss))
                rhs = subst(g, inner)
                if lhs != rhs:
                    return False
    return True


def naive_skew_monoidal_ok(c) -> bool:
    """All naturality squares and the five coherence diagrams, by raw lookups."""
    base = c.base
    mors = [m for m, _, _ in base.morphisms]

    def o(a, b):
        return c.tensor_obj[(a, b)]

    def t(f, g):
        return c.tensor_mor[(f, g)]

    def cmp(*fs):
        acc = fs[0]
        for f in fs[1:]:
            acc = base.compose.get((f, acc))
            if acc is None:
                return None
        return acc

    i = c.unit
    ident = base.identity
    # functor laws
    for a in base.objects:
        for b in base.objects:
            if t(ident[a], ident[b]) != ident[o(a, b)]:
                return False
    for (g1, f1), h1 in base.compose.items():
        for (g2, f2), h2 in base.compose.items():
            if t(h1, h2) != cmp(t(f1, f2), t(g1, g2)):
                return False
    # component endpoints and naturality
    for a in base.objects:
        la, ra = c.lambda_[a], c.rho[a]
        if (base.src(la), base.tgt(la)) != (o(i, a), a):
            return False
        if (base.src(ra), base.tgt(ra)) != (a, o(a, i)):
            return False
    for a in base.objects:
        for b in base.objects:
            for cc in base.objects:
                al = c.alpha[(a, b, cc)]
                if (base.src(al), base.tgt(al)) != (o(o(a, b), cc), o(a, o(b, cc))):
                    return False
    for f in mors:
        a, b = base.src(f), base.tgt(f)
        if cmp(t(ident[i], f), c.lambda_[b]) != cmp(c.lambda_[a], f):
            return False
        if cmp(f, c.rho[b]) != cmp(c.rho[a], t(f, ident[i])):
            return False
    for f in mors:
        for g in mors:
            for h in mors:
                a1, a2 = base.src(f), base.tgt(f)
                b1, b2 = base.src(g), base.tgt(g)
                c1, c2 = base.src(h), base.tgt(h)
                lhs = cmp(c.alpha[(a1, b1, c1)], t(f, t(g, h)))
                rhs = cmp(t(t(f, g), h), c.alpha[(a2, b2, c2)])
                if lhs != rhs:
                    return False
    # five axioms
    for a in base.objects:
        for b in base.objects:
            for cc in base.objects:
                for d in base.objects:
                    lhs = cmp(t(c.alpha[(a, b, cc)], ident[d]),
                              c.alpha[(a, o(b, cc), d)],
                              t(ident[a], c.alpha[(b, cc, d)]))
                    rhs = cmp(c.alpha[(o(a, b), cc, d)], c.alpha[(a, b, o(cc, d))])
                    if lhs != rhs:
                        return False
    for a in base.objects:
        for b in base.objects:
            if cmp(c.alpha[(i, a, b)], c.lambda_[o(a, b)]) != t(c.lambda_[a], ident[b]):
                return False
            if cmp(c.rho[o(a, b)], c.alpha[(a, b, i)]) != t(ident[a], c.rho[b]):
                return False
            if cmp(t(c.rho[a], ident[b]), c.alpha[(a, i, b)], t(ident[a], c.lambda_[b])) \
               != ident[o(a, b)]:
                return False
    if cmp(c.rho[i], c.lambda_[i]) != ident[i]:
        return False
    return True


def naive_check_tmulticat(m) -> bool:
    """Functoriality of the action, identity laws, naturality of every
    stored substitution in each operad variable, and full associativity of
    every nested substitution whose stages stay within the bound, by direct
    loops over the stored homs and ``stored_substitution``."""
    op = m.operad
    subst = stored_substitution(m)
    maps = [m.mm(x, inputs, output, mid)
            for (x, inputs, output), mids in m.homs.items() for mid in mids]
    by_output = {a: [f for f in maps if f.output == a] for a in m.objects}

    def ident(a):
        return m.mm(op.unit, (a,), a, m.identities[a])

    def choices(slots, budget):
        """Tuples of multimaps into the slots with total arity <= budget."""
        if not slots:
            yield ()
            return
        for f in by_output[slots[0]]:
            if f.arity <= budget:
                for rest in choices(slots[1:], budget - f.arity):
                    yield (f,) + rest

    for g in maps:
        comp = op.component(g.arity)
        for (phi, psi), composite in comp.compose.items():
            if comp.src(psi) == g.x and m.act(composite, g) != m.act(phi, m.act(psi, g)):
                return False
    for g in maps:
        if subst(ident(g.output), (g,)) != g:
            return False
        if g.arity and subst(g, tuple(ident(a) for a in g.inputs)) != g:
            return False
    stored = [(g, fs) for g in maps if g.arity for fs in choices(g.inputs, m.max_arity)]

    def sources(k, x):
        comp = op.component(k)
        return [phi for phi, s, _ in comp.morphisms if s == x and not comp.is_identity(phi)]

    for g, fs in stored:
        r = subst(g, fs)
        ks = tuple(f.arity for f in fs)
        inner_ids = tuple(op.component(f.arity).id_of(f.x) for f in fs)
        for phi in sources(g.arity, g.x):
            if m.act(op.subst_mor(phi, inner_ids, ks), r) != subst(m.act(phi, g), fs):
                return False
        outer_id = op.component(g.arity).id_of(g.x)
        for i, f in enumerate(fs):
            for phi in sources(f.arity, f.x):
                fmors = inner_ids[:i] + (phi,) + inner_ids[i + 1:]
                moved = fs[:i] + (m.act(phi, f),) + fs[i + 1:]
                if m.act(op.subst_mor(outer_id, fmors, ks), r) != subst(g, moved):
                    return False
    for g, fs in stored:
        r = subst(g, fs)
        for flat in choices(r.inputs, m.max_arity):
            hss, idx = [], 0
            for f in fs:
                hss.append(flat[idx:idx + f.arity])
                idx += f.arity
            if subst(r, flat) != \
               subst(g, tuple(subst(f, hs) for f, hs in zip(fs, hss))):
                return False
    return True


def naive_subst_keys(m) -> list:
    """Every (outer, inners) substitution within the bound, in the order of
    ``TMulticategory.subst_keys``: outer multimaps by sorted hom key, then
    for each slot every multimap into it by sorted hom key, skipping one at
    a time those whose arity overruns what is left of the bound."""
    maps = [m.mm(x, inputs, output, mid)
            for (x, inputs, output) in sorted(m.homs)
            for mid in m.homs[(x, inputs, output)]]

    def choices(slots, budget):
        if not slots:
            yield ()
            return
        for f in maps:
            if f.output != slots[0] or f.arity > budget:
                continue
            for rest in choices(slots[1:], budget - f.arity):
                yield (f,) + rest

    return [(g, fs) for g in maps if g.arity for fs in choices(g.inputs, m.max_arity)]


def naive_check_colax_algebra(alg) -> bool:
    """Endpoints of the transformations and comparisons, the functor laws of
    each m_x, naturality of every structural transformation, the counit laws
    and coassociativity of the substitution comparisons of a normal colax
    algebra, each quantified jointly over all its variables within the bound,
    by nested loops over the algebra's values."""
    base, op, bound = alg.base, alg.operad, alg.max_arity
    objs = base.objects
    mors = [m for m, _, _ in base.morphisms]
    seq = base.comp_seq

    def blocks_of(items, ks):
        return itertools.product(*[list(itertools.product(items, repeat=k)) for k in ks])

    def inner_specs(n, budget):
        if n == 0:
            yield ()
            return
        for k in range(budget + 1):
            for x in op.component(k).objects:
                for rest in inner_specs(n - 1, budget - k):
                    yield ((x, k),) + rest

    shapes = [(x, inner) for n in range(bound + 1) for x in op.component(n).objects
              for inner in inner_specs(n, bound)]

    def composite(x, inner):
        return op.subst_obj(x, tuple(xi for xi, _ in inner), tuple(k for _, k in inner))

    def component(step, tup, comp):
        if comp.is_identity(step):
            return base.id_of(alg.m_obj(comp.src(step), tup))
        return alg.op_mor(step, tup)

    # functor laws for each m_x
    for n in range(bound + 1):
        for x in op.component(n).objects:
            for tup in itertools.product(objs, repeat=n):
                if alg.m_mor(x, tuple(base.id_of(a) for a in tup)) != \
                   base.id_of(alg.m_obj(x, tup)):
                    return False
            for pairs in itertools.product(list(base.compose), repeat=n):
                gs = tuple(p[0] for p in pairs)
                fs = tuple(p[1] for p in pairs)
                if alg.m_mor(x, tuple(base.comp(g, f) for g, f in pairs)) != \
                   seq(alg.m_mor(x, fs), alg.m_mor(x, gs)):
                    return False

    # component-morphism transformations: endpoints and naturality
    for n in range(bound + 1):
        comp = op.component(n)
        for phi, sx, tx in comp.morphisms:
            if comp.is_identity(phi):
                continue
            for tup in itertools.product(objs, repeat=n):
                if alg.op_mor(phi, tup) not in base.hom(alg.m_obj(sx, tup), alg.m_obj(tx, tup)):
                    return False
            for ms in itertools.product(mors, repeat=n):
                srcs = tuple(base.src(f) for f in ms)
                tgts = tuple(base.tgt(f) for f in ms)
                if seq(alg.m_mor(sx, ms), alg.op_mor(phi, tgts)) != \
                   seq(alg.op_mor(phi, srcs), alg.m_mor(tx, ms)):
                    return False

    # Gamma: endpoints, naturality in objects, naturality in the operad slots
    for x, inner in shapes:
        ks = tuple(k for _, k in inner)
        cx = composite(x, inner)
        comp_n = op.component(len(inner))
        comp_total = op.component(sum(ks))
        for blocks in blocks_of(objs, ks):
            flat = tuple(a for blk in blocks for a in blk)
            tgt = alg.m_obj(x, tuple(alg.m_obj(xi, blk) for (xi, _), blk in zip(inner, blocks)))
            if alg.gamma(x, inner, blocks) not in base.hom(alg.m_obj(cx, flat), tgt):
                return False
        for mor_blocks in blocks_of(mors, ks):
            src_blocks = tuple(tuple(base.src(f) for f in blk) for blk in mor_blocks)
            tgt_blocks = tuple(tuple(base.tgt(f) for f in blk) for blk in mor_blocks)
            flat = tuple(f for blk in mor_blocks for f in blk)
            per_block = tuple(alg.m_mor(xi, blk) for (xi, _), blk in zip(inner, mor_blocks))
            if seq(alg.m_mor(cx, flat), alg.gamma(x, inner, tgt_blocks)) != \
               seq(alg.gamma(x, inner, src_blocks), alg.m_mor(x, per_block)):
                return False
        # one operad-morphism step at a time: outer slot, then each inner slot
        ids = tuple(op.component(k).id_of(xi) for xi, k in inner)
        for blocks in blocks_of(objs, ks):
            flat = tuple(a for blk in blocks for a in blk)
            for phi, sx, tx in comp_n.morphisms:
                if comp_n.is_identity(phi) or sx != x:
                    continue
                step = op.subst_mor(phi, ids, ks)
                mids = tuple(alg.m_obj(xi, blk) for (xi, _), blk in zip(inner, blocks))
                if seq(component(step, flat, comp_total), alg.gamma(tx, inner, blocks)) != \
                   seq(alg.gamma(x, inner, blocks), alg.op_mor(phi, mids)):
                    return False
            for i, (xi, k) in enumerate(inner):
                comp_k = op.component(k)
                for phi, sx, tx in comp_k.morphisms:
                    if comp_k.is_identity(phi) or sx != xi:
                        continue
                    new_inner = inner[:i] + ((tx, k),) + inner[i + 1:]
                    step = op.subst_mor(comp_n.id_of(x), ids[:i] + (phi,) + ids[i + 1:], ks)
                    whisker = tuple(alg.op_mor(phi, blocks[i]) if j == i
                                    else base.id_of(alg.m_obj(inner[j][0], blocks[j]))
                                    for j in range(len(inner)))
                    if seq(component(step, flat, comp_total), alg.gamma(x, new_inner, blocks)) \
                       != seq(alg.gamma(x, inner, blocks), alg.m_mor(x, whisker)):
                        return False

    # counit laws
    e = op.unit
    for n in range(bound + 1):
        for x in op.component(n).objects:
            for tup in itertools.product(objs, repeat=n):
                one = base.id_of(alg.m_obj(x, tup))
                if alg.gamma(x, ((e, 1),) * n, tuple((a,) for a in tup)) != one:
                    return False
                if alg.gamma(e, ((x, n),), (tup,)) != one:
                    return False

    # coassociativity: substituting twice agrees with comparing in one step
    for x, inner in shapes:
        if not inner:
            continue
        cx = composite(x, inner)
        for deeps in itertools.product(*[list(inner_specs(k, bound)) for _, k in inner]):
            if sum(kk for deep in deeps for _, kk in deep) > bound:
                continue
            flat_deep = tuple(pair for deep in deeps for pair in deep)
            collapsed = tuple((composite(xi, deep), sum(kk for _, kk in deep))
                              for (xi, _), deep in zip(inner, deeps))
            for flat_blocks in blocks_of(objs, [kk for _, kk in flat_deep]):
                grouped, idx = [], 0
                for deep in deeps:
                    grouped.append(flat_blocks[idx:idx + len(deep)])
                    idx += len(deep)
                values = tuple(tuple(alg.m_obj(yj, blk) for (yj, _), blk in zip(deep, blks))
                               for deep, blks in zip(deeps, grouped))
                inner_first = seq(alg.gamma(cx, flat_deep, flat_blocks),
                                  alg.gamma(x, inner, values))
                leaves = tuple(tuple(a for blk in blks for a in blk) for blks in grouped)
                deep_gammas = tuple(alg.gamma(xi, deep, blks)
                                    for (xi, _), deep, blks in zip(inner, deeps, grouped))
                outer_first = seq(alg.gamma(x, collapsed, leaves), alg.m_mor(x, deep_gammas))
                if inner_first is None or inner_first != outer_first:
                    return False
    return True


def naive_is_morphism(f) -> bool:
    """Whether the multicategory morphism f preserves identities, every
    operad action and every stored substitution, by a sweep over each
    (outer, inners) of ``naive_subst_keys`` of its source."""
    src, tgt = f.source, f.target

    def image(mm):
        return tgt.mm(mm.x, tuple(f.obj_map[a] for a in mm.inputs),
                      f.obj_map[mm.output], f.hom_maps[mm.key][mm.mid])

    for a in src.objects:
        if image(src.identity(a)) != tgt.identity(f.obj_map[a]):
            return False
    for (x, inputs, output), mids in src.homs.items():
        comp = src.operad.component(len(inputs))
        for phi, s, _ in comp.morphisms:
            if s != x:
                continue
            for mid in mids:
                mm = src.mm(x, inputs, output, mid)
                if image(src.act(phi, mm)) != tgt.act(phi, image(mm)):
                    return False
    for g, fs in naive_subst_keys(src):
        if image(src.substitute(g, fs)) != \
           tgt.substitute(image(g), tuple(image(h) for h in fs)):
            return False
    return True


def naive_tensor_functors(base):
    """Every tensor functor on base, as (object table, morphism table), by
    whole-table generate-and-test: each object table in lexicographic order,
    then each morphism table whose every pair lands in its hom (an identity
    pair on an identity), kept when it preserves composition."""
    objs = sorted(base.objects)
    obj_pairs = [(a, b) for a in objs for b in objs]
    mors = sorted(m for m, _, _ in base.morphisms)
    mor_pairs = [(f, g) for f in mors for g in mors]
    ends = {m: (s, t) for m, s, t in base.morphisms}
    for obj_assign in itertools.product(objs, repeat=len(obj_pairs)):
        tensor_obj = dict(zip(obj_pairs, obj_assign))
        per_pair = []
        for f, g in mor_pairs:
            src = tensor_obj[(ends[f][0], ends[g][0])]
            tgt = tensor_obj[(ends[f][1], ends[g][1])]
            if f == base.identity[ends[f][0]] and g == base.identity[ends[g][0]]:
                opts = [base.identity[src]] if src == tgt else []
            else:
                opts = [m for m, s, t in base.morphisms if (s, t) == (src, tgt)]
            per_pair.append(opts)
        if not all(per_pair):
            continue
        for mor_assign in itertools.product(*per_pair):
            tensor_mor = dict(zip(mor_pairs, mor_assign))
            if all(tensor_mor[(h1, h2)] ==
                   base.compose.get((tensor_mor[(g1, g2)], tensor_mor[(f1, f2)]))
                   for (g1, f1), h1 in base.compose.items()
                   for (g2, f2), h2 in base.compose.items()):
                yield tensor_obj, tensor_mor


def naive_inductive_classifiers(s, nullary, binary) -> dict:
    """The whole inductive classifier table, built eagerly arity by arity:
    the tight unary classifier of a is the identity of a, and each other
    entry substitutes its predecessor into the binary classifier of
    (predecessor's output, last input) at the first position."""
    table = {("l", ()): nullary}
    for a in s.objects:
        table[("t", (a,))] = s.identity(a)
    for n in range(1, s.max_arity + 1):
        for x in ("t", "l"):
            if (x, n) == ("t", 1):
                continue
            for inputs in itertools.product(sorted(s.objects), repeat=n):
                prev = table[(x, inputs[:-1])]
                table[(x, inputs)] = s.subst_after(binary[(prev.output, inputs[-1])], 1, prev)
    return table


def _naive_bijective(images, target) -> bool:
    return len(images) == len(set(images)) == len(target) and set(images) == set(target)


def naive_tails_bijective(s, theta, ks) -> bool:
    """``representability._tails_bijective`` evaluating every substitution:
    for each tail length k in ks that stays within the bound, each tail and
    each output c, h ∘₁ theta over the unit-typed h out of (theta's output,
    *tail) hits every member of theta's represented hom with the tail
    appended once."""
    e = s.operad.unit
    for k in ks:
        if k > s.max_arity - max(1, theta.arity):
            continue
        rx = s.operad.subst_obj(e, (theta.x,) + (e,) * k, (theta.arity,) + (1,) * k)
        for tail in itertools.product(sorted(s.objects), repeat=k):
            for c in s.objects:
                images = [s.subst_after(h, 1, theta).mid
                          for h in s.maps((e, (theta.output,) + tail, c))]
                if not _naive_bijective(images, s.hom(rx, theta.inputs + tail, c)):
                    return False
    return True


def naive_closed_pair_ok(s, h, b, c, e) -> bool:
    """``representability._closed_pair_ok`` evaluating every substitution:
    for each type x and inputs below the bound, e ∘₁ f over the f into h
    hits every member of the hom that e represents, out of the inputs with
    b appended, once."""
    for n in range(s.max_arity):
        for x in s.operad.component(n).objects:
            rx = s.operad.subst_obj("t", (x, "t"), (n, 1))
            for inputs in itertools.product(sorted(s.objects), repeat=n):
                images = [s.subst_after(e, 1, f).mid for f in s.maps((x, inputs, h))]
                if not _naive_bijective(images, s.hom(rx, inputs + (b,), c)):
                    return False
    return True


def naive_functor_isos(c, d):
    """Invertible functors c -> d in the order the library enumerates them:
    each permutation of d's sorted objects against c's sorted ones whose
    every hom keeps its size, then the product over hom pairs, in sorted
    order, of every permutation of the target hom, dropping those that move
    an identity, kept when the assembled map preserves endpoints,
    identities and composition."""
    if len(c.objects) != len(d.objects) or len(c.morphisms) != len(d.morphisms):
        return
    src_objs = sorted(c.objects)
    for perm in itertools.permutations(sorted(d.objects)):
        sigma = dict(zip(src_objs, perm))
        homs = [(a, b) for a in src_objs for b in src_objs]
        if any(len(c.hom(a, b)) != len(d.hom(sigma[a], sigma[b])) for a, b in homs):
            continue
        per_hom = []
        for a, b in homs:
            source = c.hom(a, b)
            targets = d.hom(sigma[a], sigma[b])
            tables = []
            for perm2 in itertools.permutations(targets):
                table = dict(zip(source, perm2))
                if a == b and table.get(c.identity[a]) != d.identity[sigma[a]]:
                    continue
                tables.append(table)
            per_hom.append(tables)
        for choice in itertools.product(*per_hom):
            mor_map = {}
            for table in choice:
                mor_map.update(table)
            if all(d.compose.get((mor_map[g], mor_map[f])) == mor_map[gf]
                   for (g, f), gf in c.compose.items()):
                yield Functor(c, d, sigma, mor_map)


def invert_lax(lax):
    """The inverse of a lax monoidal functor that is an isomorphism of
    categories with invertible structure maps: the inverse functor, with
    each structure map inverted and carried back along it."""
    c, d, fun = lax.source, lax.target, lax.functor
    inv_obj = {v: k for k, v in fun.obj_map.items()}
    inv_mor = {v: k for k, v in fun.mor_map.items()}
    gun = Functor(d.base, c.base, inv_obj, inv_mor)
    binary = {}
    for a in d.base.objects:
        for b in d.base.objects:
            f2 = lax.binary[(inv_obj[a], inv_obj[b])]
            binary[(a, b)] = inv_mor[d.base.inverse(f2)]
    unit = inv_mor[d.base.inverse(lax.unit)]
    return LaxMonoidalFunctor(d, c, gun, binary, unit)
