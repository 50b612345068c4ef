"""Box products of Mackey functors and Green-functor structure on them.

The k-fold box product is presented by generators tagged (e, tuple): a
sub-level e | d together with one generator of each factor at level e.
Relations are multilinearity, the Weyl-diagonal identification for the
cyclic group C_d/C_e, and prime-index Frobenius relations (transfer one
slot up ≡ restrict every other slot down).  Transfers re-tag, restrictions
follow the double-coset formula, and the Weyl generator acts diagonally.
The families overlap; each level keeps each distinct nonzero relation once.
An onto map between groups of one canonical form is an isomorphism (Hopfian).

The tag data is kept on the quotient presentation, so a morphism out of a
box product is written down on tags: ``BoxPresentation.hom`` is the one
way to build it, and certifies it well defined against the relations.
A box product of Green functors is a Green functor, filled on read:
``mult[d][a][b]`` computes the product of tags a and b, a sparse row, the
first time it is read, so a table of T² products costs only the products
that are used.  Units, products and the ideal closure stay sparse rows;
the closure asks each level's quotient group whether a row is new.
"""

from __future__ import annotations

from functools import partial
from itertools import product
from math import gcd, lcm, prod

from .fgab import AbHom, FgAbGroup, Sparse, is_sparse_row, row_mul, sparse_row
from .mackey import (
    GreenFunctor,
    GroupContext,
    MackeyFunctor,
    MackeyHom,
    divisors,
    prime_edges,
    prime_factors,
    quotient,
    sparse_product,
)
from .wittcore import BOX_TAG_BUDGET, EnumerationBudgetError


class BoxPresentation:
    """A box product together with its tagged generating data.

    ``mackey`` is the product itself, set by ``box_list``: a GreenFunctor
    exactly when every factor is one.
    """

    def __init__(self, factors, tags, tag_pos):
        self.factors = tuple(factors)
        self.mackey: MackeyFunctor | None = None
        self.tags = tags          # d -> tuple of (e, gen_index_tuple)
        self.tag_pos = tag_pos    # d -> {tag: position}

    def expand(self, d: int, e: int, slot_rows):
        """Multilinear expansion of per-slot sparse rows into a sparse row of tags."""
        acc: dict[int, int] = {}
        _expand_into(acc, self.tag_pos[d], e, slot_rows)
        return sparse_row(acc)

    def hom(self, target: MackeyFunctor, row, natural: bool = True) -> MackeyHom:
        """The map to ``target`` sending tag (e, tup) of level d to row(d, e, tup).

        row returns a sparse row in the coordinates of target.level[d].
        Every level is certified well defined against the box relations;
        with natural=False naturality is left to the caller.
        """
        src = self.mackey
        maps = {}
        for d in src.ctx.divisors:
            tgt = target.level[d]
            rows = Sparse((row(d, e, tup) for (e, tup) in self.tags[d]), tgt.num_generators)
            maps[d] = AbHom(src.level[d], tgt, rows)
        return MackeyHom(src, target, maps, check=natural)


def tag_product(factors, tags, pos, d: int, a: int, b: int):
    """Product of tags a and b of level d (tags, pos) by the double-coset formula, as a sparse row."""
    (e, tup), (f, tup2) = tags[a], tags[b]
    g0 = gcd(e, f)
    step = factors[0].ctx.n // d
    acc: dict[int, int] = {}
    for j in range(d // lcm(e, f)):
        slot_rows = []
        for fct, x, y in zip(factors, tup, tup2):
            x_row = fct.res_full(e, g0).rows[x]
            y_row = fct.twisted_res(f, g0, j * step).rows[y]
            slot_rows.append(sparse_product(fct.mult[g0], x_row, y_row))
        _expand_into(acc, pos, g0, slot_rows)
    return sparse_row(acc)


def _expand_into(acc: dict, pos, e: int, slot_rows, sign: int = 1) -> None:
    """Add sign × the multilinear expansion of the sparse slot_rows (tags at e) to acc."""
    for combo in product(*slot_rows):
        idx, coeffs = zip(*combo)
        key = pos[(e, idx)]
        acc[key] = acc.get(key, 0) + sign * prod(coeffs)


class Lazy:
    """The sequence fn(0), ..., fn(k-1): item i is computed on first read and kept.

    Nothing is stored for an item until it is read.
    """

    __slots__ = ("_fn", "_len", "_items")

    def __init__(self, k: int, fn):
        self._fn = fn
        self._len = k
        self._items: dict = {}

    def __len__(self):
        return self._len

    def __getitem__(self, i: int):
        try:
            return self._items[i]
        except KeyError:
            if not 0 <= i < self._len:
                raise IndexError(i) from None
            v = self._items[i] = self._fn(i)
            return v

    def __iter__(self):
        return (self[i] for i in range(self._len))


def _product_table(factors, tags, pos, d: int) -> Lazy:
    """The product table of level d, filled on read.  It holds the tag data and never the
    BoxPresentation, whose ``mackey`` holds it, so no cycle keeps a dropped box alive."""
    fn = partial(tag_product, factors, tags, pos, d)
    return Lazy(len(tags), lambda a: Lazy(len(tags), partial(fn, a)))


def require_box_budget(sizes) -> None:
    """Refuse a box product with a level d of over ``BOX_TAG_BUDGET`` tags, Σ_{e|d} Π_f sizes_f[e].

    sizes has one dict per factor, from each divisor of n (ascending) to the
    factor's number of generators there, so the count needs no built factor.
    """
    for d in sizes[0]:
        count = sum(prod(s[e] for s in sizes) for e in divisors(d))
        if count > BOX_TAG_BUDGET:
            k = len(sizes)
            raise EnumerationBudgetError(
                f"box level {d} of {k} factors needs {count} tags, over the box tag budget of {BOX_TAG_BUDGET}"
            )


def box_list(factors) -> BoxPresentation:
    """Box product of a list of Mackey functors over one group context.

    A box product of commutative Green functors is one (Mazur, J. Pure
    Appl. Algebra 223 (2019)): when every factor is a GreenFunctor, so is
    the result, and its product tables are filled on read.
    """
    if not factors:
        raise ValueError("need at least one factor")
    ctx = factors[0].ctx
    for f in factors:
        if f.ctx != ctx:
            raise ValueError("context mismatch between box factors")
    n = ctx.n
    k = len(factors)
    require_box_budget([{d: f.level[d].num_generators for d in ctx.divisors} for f in factors])

    tags = {}
    tag_pos = {}
    level = {}
    for d in ctx.divisors:
        tg = []
        for e in divisors(d):
            ranges = [range(f.level[e].num_generators) for f in factors]
            for tup in product(*ranges):
                tg.append((e, tup))
        tags[d] = tuple(tg)
        tag_pos[d] = {t: i for i, t in enumerate(tg)}

    pres = BoxPresentation(factors, tags, tag_pos)

    for d in ctx.divisors:
        rels = []
        ntags = len(tags[d])
        pos = tag_pos[d]
        for e in divisors(d):
            gen_counts = [f.level[e].num_generators for f in factors]
            # multilinearity: relations of each factor in each slot
            for s, f in enumerate(factors):
                others = [range(c) for t, c in enumerate(gen_counts) if t != s]
                for r in f.level[e].rels:
                    for rest in product(*others):
                        rels.append(tuple(sorted((pos[(e, rest[:s] + (i,) + rest[s:])], c) for i, c in r)))
            # Weyl-diagonal identification for the generator of C_d/C_e
            if e != d:
                tw = [f.weyl_power(e, n // d).rows for f in factors]
                for tup in product(*[range(c) for c in gen_counts]):
                    acc = {pos[(e, tup)]: -1}
                    _expand_into(acc, pos, e, [tw[s][i] for s, i in enumerate(tup)])
                    rels.append(sparse_row(acc))
        # Frobenius: transfer one slot up == restrict the other slots down
        for e in divisors(d):
            for p in prime_factors(d // e):
                f_lv = e * p
                res_rows = [f.res[(e, f_lv)].rows for f in factors]
                tr_rows = [f.tr[(e, f_lv)].rows for f in factors]
                for s in range(k):
                    others = [t for t in range(k) if t != s]
                    for x in range(factors[s].level[e].num_generators):
                        for rest in product(*(range(factors[t].level[f_lv].num_generators) for t in others)):
                            up = [((j, 1),) for j in rest]
                            up.insert(s, tr_rows[s][x])
                            down = [res_rows[t][j] for t, j in zip(others, rest)]
                            down.insert(s, ((x, 1),))
                            acc = {}
                            _expand_into(acc, pos, f_lv, up)
                            _expand_into(acc, pos, e, down, -1)
                            rels.append(sparse_row(acc))
        level[d] = FgAbGroup(ntags, Sparse.distinct(rels, ntags))

    # structure maps
    res = {}
    tr = {}
    for (dlo, dhi) in prime_edges(ctx):
        rows = Sparse((((tag_pos[dhi][t], 1),) for t in tags[dlo]), len(tags[dhi]))
        tr[(dlo, dhi)] = AbHom(level[dlo], level[dhi], rows)

        rows = []
        for (e, tup) in tags[dhi]:
            g0 = gcd(dlo, e)
            acc = {}
            for j in range(dhi // lcm(e, dlo)):
                slot_rows = [f.twisted_res(e, g0, j * (n // dhi)).rows[i] for f, i in zip(factors, tup)]
                _expand_into(acc, tag_pos[dlo], g0, slot_rows)
            rows.append(sparse_row(acc))
        res[(dlo, dhi)] = AbHom(level[dhi], level[dlo], Sparse(rows, len(tags[dlo])))

    weyl = {}
    for d in ctx.divisors:
        rows = []
        for (e, tup) in tags[d]:
            slot_rows = [f.weyl[e].rows[i] for f, i in zip(factors, tup)]
            rows.append(pres.expand(d, e, slot_rows))
        weyl[d] = AbHom(level[d], level[d], Sparse(rows, len(tags[d])))

    if all(isinstance(f, GreenFunctor) for f in factors):
        mult = {d: _product_table(pres.factors, tags[d], tag_pos[d], d) for d in ctx.divisors}
        unit = {d: pres.expand(d, d, [fct.unit[d] for fct in factors]) for d in ctx.divisors}
        pres.mackey = GreenFunctor(ctx, level, res, tr, weyl, mult, unit, name="box")
    else:
        pres.mackey = MackeyFunctor(ctx, level, res, tr, weyl, name="box")
    return pres


def box(m, n_) -> BoxPresentation:
    """Binary box product M □ N."""
    return box_list([m, n_])


def box_power(r, k: int) -> BoxPresentation:
    """k-fold box power with flattened tags (k ≥ 1)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return box_list([r] * k)


def box_swap_hom(pres: BoxPresentation, swapped: BoxPresentation) -> MackeyHom:
    """The tag-swap morphism box(M, N) → box(N, M)."""

    return pres.hom(swapped.mackey, lambda d, e, tup: ((swapped.tag_pos[d][(e, tup[::-1])], 1),))


def full_transfer_identification(pres: BoxPresentation) -> MackeyHom:
    """For a 1-fold box power of R: the canonical isomorphism onto R.

    A class tagged (e, x) is the transfer of x up to the ambient level; the
    Frobenius relations make this an isomorphism R^{□1} ≅ R.
    """
    if len(pres.factors) != 1:
        raise ValueError("expects a 1-fold box power")
    target = pres.factors[0]
    return pres.hom(target, lambda d, e, tup: target.tr_full(e, d).rows[tup[0]])


def box_hom(src: BoxPresentation, dst: BoxPresentation, homs) -> MackeyHom:
    """Box functoriality: the map □ f_s induced by per-factor Mackey homs.

    homs[s] must map src.factors[s] to dst.factors[s] levelwise; tags map
    slotwise with multilinear expansion.
    """
    if len(homs) != len(src.factors) or len(homs) != len(dst.factors):
        raise ValueError("one hom per factor required")
    return src.hom(
        dst.mackey, lambda d, e, tup: dst.expand(d, e, [h.maps[e].rows[i] for h, i in zip(homs, tup)])
    )


def unit_iso(pres: BoxPresentation) -> MackeyHom:
    """The unitality isomorphism A̅ □ M → M (first factor must be burnside()).

    A tag-e class [C_e/C_c] ⊗ m is the transfer of the unit from level c, so
    the Frobenius relations send it to tr(res(m)) through level c.
    """
    if len(pres.factors) != 2:
        raise ValueError("expects a binary box product")
    m = pres.factors[1]

    def row(d, e, tup):
        a_idx, m_idx = tup
        c = divisors(e)[a_idx]
        return row_mul(m.res_full(e, c).rows[m_idx], m.tr_full(c, d).rows)

    return pres.hom(m, row)


def representable_rule_iso(ctx: GroupContext, t1, t2):
    """The canonical map A̅_{T1} □ A̅_{T2} → A̅_{T1×T2} on span tags.

    Returns (hom, product_representable); the hom being an isomorphism is
    the conformance contract for the box presentation.
    """
    from . import spans
    from .mackey import representable

    t1, t2 = tuple(t1), tuple(t2)
    r1 = representable(ctx, t1)
    r2 = representable(ctx, t2)
    pres = box(r1, r2)
    stabs, index = spans.product_orbits(ctx.n, t1, t2)
    rp = representable(ctx, stabs)

    def row(d, e, tup):
        i, sp1 = r1.span_basis[e][tup[0]]
        j, sp2 = r2.span_basis[e][tup[1]]
        prod = spans.span_product(ctx.n, t1, t2, e, (i,) + sp1, (j,) + sp2)
        acc: dict[int, int] = {}
        for (orbkey, c, y), mlt in prod.items():
            orb = index[orbkey]
            comp = spans.compose_spans(
                ctx.n, stabs[orb], e, d, (c, y), spans.transfer_span(ctx.n, e, d)
            )
            for sp, m2 in comp.items():
                key = rp.span_pos[d][(orb, sp)]
                acc[key] = acc.get(key, 0) + mlt * m2
        return sparse_row(acc)

    return pres.hom(rp, row), rp


# ---------------------------------------------------------------------------
# quotients by Green ideals


def quotient_by_green_ideal(g: GreenFunctor, gens) -> GreenFunctor:
    """Quotient by the Green ideal generated by (level, sparse row) pairs.

    The ideal closure asks each level's quotient by the rows accepted so
    far whether a row (a generator, a product with a generator, a res, tr
    or weyl image) is zero there, and stops when no new row is accepted.
    """
    ctx = g.ctx
    n = ctx.n
    rows: dict[int, list] = {d: [] for d in ctx.divisors}
    quot = dict(g.level)
    queue = []

    def push(d, row):  # row is sparse
        if quot[d].same_class(row, ()):
            return
        rows[d].append(row)
        quot[d] = quot[d].quotient(Sparse((row,), g.level[d].num_generators))
        queue.append((d, row))

    for d, row in gens:
        if not is_sparse_row(row, g.level[d].num_generators):
            raise ValueError(f"ideal generator {row!r} of level {d} is not a sparse row")
        push(d, row)

    while queue:
        d, row = queue.pop()
        for i in range(g.level[d].num_generators):
            push(d, sparse_product(g.mult[d], row, ((i, 1),)))
        push(d, row_mul(row, g.weyl[d].rows))
        for p in prime_factors(d):
            push(d // p, row_mul(row, g.res[(d // p, d)].rows))
        for p in prime_factors(n // d):
            push(d * p, row_mul(row, g.tr[(d, d * p)].rows))

    levels = {d: Sparse(rows[d], g.level[d].num_generators) for d in ctx.divisors}
    return quotient(g, levels, f"{g.name}/ideal")
