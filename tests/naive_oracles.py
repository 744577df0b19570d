"""Independent brute-force oracles.

Deliberately naive re-implementations that read the raw tables and quantify
with plain loops, kept free of any logic shared with the library's checkers so
the two sides can disagree if either is wrong.
"""

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


def naive_check_multicat_over_n(m) -> bool:
    """Ordinary multicategory laws on a terminal-operad instance, by direct
    loops over the stored homs."""
    maps = []
    for (x, inputs, output), mids in m.homs.items():
        for mid in mids:
            maps.append((inputs, output, mid))

    def subst(g, fs):
        gm = m.mm("t", g[0], g[1], g[2])
        fms = tuple(m.mm("t", f[0], f[1], f[2]) for f in fs)
        r = m.substitute(gm, fms)
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
    t_obj = {}
    t_mor = {}
    for a in base.objects:
        for b in base.objects:
            t_obj[(a, b)] = c.tensor.obj_map[f"({a},{b})"]
    mors = [m for m, _, _ in base.morphisms]
    for f in mors:
        for g in mors:
            t_mor[(f, g)] = c.tensor.mor_map[f"({f},{g})"]

    def o(a, b):
        return t_obj[(a, b)]

    def t(f, g):
        return t_mor[(f, g)]

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
    """Identity laws, naturality of every stored substitution in each operad
    variable, and full associativity of every nested substitution whose
    stages stay within the bound, by direct loops over the stored homs."""
    op = m.operad
    maps = [m.mm(x, inputs, output, mid)
            for (x, inputs, output), mids in m.homs.items() for mid in mids]

    def ident(a):
        return m.mm(op.unit, (a,), a, m.identities[a])

    def choices(slots, budget):
        """Tuples of multimaps into the slots with total arity <= budget."""
        if not slots:
            yield ()
            return
        for f in maps:
            if f.output == slots[0] and f.arity <= budget:
                for rest in choices(slots[1:], budget - f.arity):
                    yield (f,) + rest

    for g in maps:
        if m.substitute(ident(g.output), (g,)) != g:
            return False
        if g.arity and m.substitute(g, tuple(ident(a) for a in g.inputs)) != g:
            return False
    stored = [(g, fs) for g in maps if g.arity for fs in choices(g.inputs, m.max_arity)]

    def sources(k, x):
        comp = op.component(k)
        return [phi for phi, s, _ in comp.morphisms if s == x and not comp.is_identity(phi)]

    for g, fs in stored:
        r = m.substitute(g, fs)
        ks = tuple(f.arity for f in fs)
        inner_ids = tuple(op.component(f.arity).id_of(f.x) for f in fs)
        for phi in sources(g.arity, g.x):
            if m.act(op.subst_mor(phi, inner_ids, ks), r) != m.substitute(m.act(phi, g), fs):
                return False
        outer_id = op.component(g.arity).id_of(g.x)
        for i, f in enumerate(fs):
            for phi in sources(f.arity, f.x):
                fmors = inner_ids[:i] + (phi,) + inner_ids[i + 1:]
                moved = fs[:i] + (m.act(phi, f),) + fs[i + 1:]
                if m.act(op.subst_mor(outer_id, fmors, ks), r) != m.substitute(g, moved):
                    return False
    for g, fs in stored:
        r = m.substitute(g, fs)
        for flat in choices(r.inputs, m.max_arity):
            hss, idx = [], 0
            for f in fs:
                hss.append(flat[idx:idx + f.arity])
                idx += f.arity
            if m.substitute(r, flat) != \
               m.substitute(g, tuple(m.substitute(f, hs) for f, hs in zip(fs, hss))):
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
