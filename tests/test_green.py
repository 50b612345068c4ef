import gc
import random
import weakref
from itertools import product
from math import gcd

import pytest

from mackeywitt import fgab, green
from mackeywitt.cycmonoid import PointedGMonoid, monoid_algebra, splitting_check
from dense_snf import identity_matrix
from subgroups import same_levels
from test_mackey import NOT_SPARSE_ROWS
from hypothesis import given, settings
from hypothesis import strategies as st

from mackeywitt.fgab import AbHom, NotWellDefinedError, dense_row, free_group, nonzeros
from mackeywitt.hochschild import hh0_green, hh0_oracle, twisted_cyclic_nerve
from mackeywitt.mackey import (
    GreenFunctor,
    GroupContext,
    RingData,
    burnside,
    check_axioms,
    fixed_point_mackey,
    representable,
    sparse_product,
)
from mackeywitt.norm import norm_trivial_ring
from mackeywitt.wittcore import BaseRing, divisors
from mackeywitt.green import (
    box,
    box_power,
    box_swap_hom,
    full_transfer_identification,
    quotient_by_green_ideal,
    representable_rule_iso,
    unit_iso,
)


def trivial_Z(ctx):
    return fixed_point_mackey(
        ctx, free_group(1), ((1,),), RingData(mult=(((1,),),), unit=(1,))
    )


def product_ring_swap(ctx):
    return fixed_point_mackey(
        ctx,
        free_group(2),
        ((0, 1), (1, 0)),
        RingData(mult=(((1, 0), (0, 0)), ((0, 0), (0, 1))), unit=(1, 1)),
    )


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_box_unitality_with_burnside(n):
    ctx = GroupContext(n)
    b = burnside(ctx)
    for m in (burnside(ctx), trivial_Z(ctx)):
        pres = box(b, m)
        iso = unit_iso(pres)
        assert iso.is_isomorphism()


def test_box_unitality_fixed_point_swap():
    ctx = GroupContext(2)
    m = fixed_point_mackey(ctx, free_group(2), ((0, 1), (1, 0)))
    pres = box(burnside(ctx), m)
    assert unit_iso(pres).is_isomorphism()


def test_box_unitality_c4_mixed():
    ctx = GroupContext(4)
    m = representable(ctx, [2])
    pres = box(burnside(ctx), m)
    assert unit_iso(pres).is_isomorphism()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_box_symmetry(n):
    ctx = GroupContext(n)
    a = burnside(ctx)
    b = representable(ctx, [1])
    p1 = box(a, b)
    p2 = box(b, a)
    swap = box_swap_hom(p1, p2)
    assert swap.is_isomorphism()


@pytest.mark.parametrize(
    "n,t1,t2",
    [
        (2, (1,), (1,)),
        (3, (1,), (1,)),
        (2, (1,), (2,)),
        (4, (2,), (2,)),
        (4, (1, 2), (4,)),
        (6, (2,), (3,)),
        (6, (6, 1), (2,)),
    ],
)
def test_representable_rule(n, t1, t2):
    ctx = GroupContext(n)
    hom, rp = representable_rule_iso(ctx, t1, t2)
    assert hom.is_isomorphism()


@pytest.mark.parametrize("n", [2, 3])
def test_free_orbit_box_self(n):
    # A_{C_n/e} box A_{C_n/e} = A_{n copies of C_n/e}
    ctx = GroupContext(n)
    hom, rp = representable_rule_iso(ctx, (1,), (1,))
    assert hom.is_isomorphism()
    assert rp.orbit_stabilizers == tuple([1] * n)


def test_box_of_constant_Z_over_c2():
    # Z-bar box Z-bar = Z-bar: top level has the transfer class equal to 2x
    ctx = GroupContext(2)
    zbar = trivial_Z(ctx)
    pres = box(zbar, zbar)
    res = pres.mackey
    assert res.level[2].canonical_form == ((), 1)
    assert res.level[1].canonical_form == ((), 1)
    top = res.level[2]
    # tags at level 2 are ordered (e=1, (0,0)), (e=2, (0,0)); the Frobenius
    # relation (tr 1) ⊗ 1 = class of 1 ⊗ (res 1) says bottom-tag = 2 · top-tag
    assert pres.tags[2] == ((1, (0, 0)), (2, (0, 0)))
    assert top.same_class(nonzeros((1, 0)), nonzeros((0, 2)))
    assert check_axioms(pres.mackey).passed


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_box_outputs_pass_axioms(n):
    ctx = GroupContext(n)
    b = burnside(ctx)
    pres = box(b, b)
    assert check_axioms(pres.mackey).passed
    pres2 = box(b, trivial_Z(ctx))
    assert check_axioms(pres2.mackey).passed


def test_box_power_of_burnside_is_burnside_levelwise():
    ctx = GroupContext(2)
    b = burnside(ctx)
    pres = box_power(b, 2)
    for d in ctx.divisors:
        assert pres.mackey.level[d].canonical_form == b.level[d].canonical_form


def test_box_power_one_identified_with_r():
    ctx = GroupContext(4)
    b = burnside(ctx)
    pres = box_power(b, 1)
    iso = full_transfer_identification(pres)
    assert iso.is_isomorphism()


def test_box_power_green_axioms():
    ctx = GroupContext(2)
    r = product_ring_swap(ctx)
    pres = box_power(r, 2)
    rep = check_axioms(pres.mackey)
    assert rep.passed, rep


def test_quotient_by_empty_set():
    ctx = GroupContext(4)
    b = burnside(ctx)
    q = quotient_by_green_ideal(b, [])
    for d in ctx.divisors:
        assert q.level[d].canonical_form == b.level[d].canonical_form


def test_quotient_burnside_by_transfer_class():
    # kill [C_2] at the top: top becomes Z, bottom becomes Z/2 via res([C_2]) = 2
    ctx = GroupContext(2)
    b = burnside(ctx)
    q = quotient_by_green_ideal(b, [(2, ((0, 1),))])
    assert q.level[2].canonical_form == ((), 1)
    assert q.level[1].canonical_form == ((2,), 0)
    assert check_axioms(q).passed


@pytest.mark.parametrize("row", [(1, 0), ((2, 1),), ((0, 1, 0),), *NOT_SPARSE_ROWS])
def test_quotient_refuses_a_generator_that_is_not_a_sparse_row(row):
    # (1, 0) is the old dense form of ((0, 1),); level 2 of A(C_2) has 2 generators
    b = burnside(GroupContext(2))
    with pytest.raises(ValueError, match="is not a sparse row"):
        quotient_by_green_ideal(b, [(2, row)])


def test_green_ideal_closure_computes_no_hermite_basis(monkeypatch):
    # built first: a fixed-point level is a Subquotient, which takes a Hermite basis
    rings = [
        burnside(GroupContext(6)),
        norm_trivial_ring(BaseRing.integers_mod(2), 4),
        fixed_point_mackey(GroupContext(4), free_group(2), ((1, 0), (0, -1)), DUAL_SIGN),
    ]

    def refuse(*args):
        raise AssertionError("the ideal closure computed a Hermite basis")

    with monkeypatch.context() as m:
        m.setattr(fgab, "row_hnf", refuse)
        oracles = [hh0_oracle(r) for r in rings]
    for r, oracle in zip(rings, oracles):
        assert same_levels(hh0_green(r), oracle), r.name


def weyl_difference_gens(r):
    gens = []
    for d in r.ctx.divisors:
        w = r.weyl[d]
        for i in range(r.level[d].num_generators):
            row = list(w.matrix[i])
            row[i] -= 1
            gens.append((d, nonzeros(row)))
    return gens


def test_quotient_by_weyl_differences_product_ring():
    # the ideal generated by e1 - e2 in Z x Z is the unit ideal, so the
    # Green-ideal quotient collapses completely (multiplication closure)
    ctx = GroupContext(2)
    r = product_ring_swap(ctx)
    q = quotient_by_green_ideal(r, weyl_difference_gens(r))
    assert q.level[2].is_trivial()
    assert q.level[1].is_trivial()


def test_quotient_by_weyl_differences_dual_numbers_sign():
    # Z[x]/x^2 with x -> -x: ideal closure of -2x is the subgroup 2xZ, so the
    # quotient keeps a torsion witness at the bottom and Z at the top
    ctx = GroupContext(2)
    r = fixed_point_mackey(
        ctx,
        free_group(2),
        ((1, 0), (0, -1)),
        RingData(mult=(((1, 0), (0, 1)), ((0, 1), (0, 0))), unit=(1, 0)),
    )
    q = quotient_by_green_ideal(r, weyl_difference_gens(r))
    assert q.level[2].canonical_form == ((), 1)
    assert q.level[1].canonical_form == ((2,), 1)
    assert check_axioms(q).passed


def test_box_associativity_canonical_forms():
    ctx = GroupContext(4)
    b = burnside(ctx)
    left = box(box(b, b).mackey, b)
    flat = box_power(b, 3)
    for d in ctx.divisors:
        assert left.mackey.level[d].canonical_form == flat.mackey.level[d].canonical_form


# ---------------------------------------------------------------------------
# box-product Green tables are filled on read


def _reference_expand(pres, d, e, slot_rows):
    out = [0] * len(pres.tags[d])
    indices = [[i for i, c in enumerate(row) if c] for row in slot_rows]
    for combo in product(*indices):
        coeff = 1
        for s, row in enumerate(slot_rows):
            coeff *= row[combo[s]]
        out[pres.tag_pos[d][(e, combo)]] += coeff
    return out


def _reference_table(pres, d):
    """The whole product table of level d, computed eagerly tag pair by tag pair."""
    n = pres.mackey.ctx.n
    table = []
    for (e, tup) in pres.tags[d]:
        rowtab = []
        for (f_lv, tup2) in pres.tags[d]:
            g0 = gcd(e, f_lv)
            l = e * f_lv // g0
            acc = [0] * len(pres.tags[d])
            for j in range(d // l):
                slot_rows = []
                for s, fct in enumerate(pres.factors):
                    m = fct
                    x = m.res_full(e, g0).matrix[tup[s]]
                    h = AbHom.identity(m.level[g0])
                    for _ in range(j * (n // d)):
                        h = h.compose(m.weyl[g0])
                    y = m.res_full(f_lv, g0).compose(h).matrix[tup2[s]]
                    xy = fct.multiply(g0, nonzeros(x), nonzeros(y))
                    slot_rows.append(dense_row(xy, fct.level[g0].num_generators))
                row = _reference_expand(pres, d, g0, slot_rows)
                acc = [a + b for a, b in zip(acc, row)]
            rowtab.append(tuple(acc))
        table.append(tuple(rowtab))
    return tuple(table)


def _dual_numbers_algebra(n):
    ctx = GroupContext(n)
    rows = [["0", "0", "0"], ["0", "1", "x"], ["0", "x", "0"]]
    m = PointedGMonoid(ctx, ["0", "1", "x"], "0", "1", rows, ["0", "1", "x"])
    return m, monoid_algebra(trivial_Z(ctx), m).mackey


def _assert_matches_reference(pres):
    for d in pres.mackey.ctx.divisors:
        table = pres.mackey.mult[d]
        ref = _reference_table(pres, d)
        assert len(table) == len(ref)
        for a, ref_row in enumerate(ref):
            assert len(table[a]) == len(ref_row)
            for b, ref_entry in enumerate(ref_row):
                assert table[a][b] == nonzeros(ref_entry)


@pytest.mark.parametrize("n", [4, 6])
def test_lazy_box_table_matches_eager_reference(n):
    b = burnside(GroupContext(n))
    _assert_matches_reference(box(b, b))


def test_lazy_box_power_of_dual_numbers_matches_eager_reference():
    _, rm = _dual_numbers_algebra(2)
    # a nerve degree of a Green functor is Green, with the same lazy tables
    for pres in (box_power(rm, 2), twisted_cyclic_nerve(rm, 1).presentations[1]):
        assert isinstance(pres.mackey, GreenFunctor)
        _assert_matches_reference(pres)


def _freed_by_refcount(build):
    """Whether the objects build() returns are freed once dropped, with the cycle collector off."""
    gc.collect()
    gc.disable()
    try:
        refs = [weakref.ref(x) for x in build()]
        return all(r() is None for r in refs)
    finally:
        gc.enable()


def test_box_products_and_nerves_hold_no_reference_cycle():
    """A Green box's product tables must not reach back to its presentation:
    a cycle there keeps every box alive until the collector runs."""
    b = burnside(GroupContext(4))
    _, rm = _dual_numbers_algebra(2)

    def boxes():
        pres = box(b, b)
        pres.mackey.mult[4][2][3]  # a filled cell: the table now holds rows and products
        return [pres, pres.mackey]

    def nerve():
        x = twisted_cyclic_nerve(rm, 2)
        x.degrees[1].mult[2][0][1]
        return [x, *x.presentations, *x.degrees]

    assert _freed_by_refcount(boxes)
    assert _freed_by_refcount(nerve)


@pytest.mark.parametrize("n", [4, 6])
def test_weyl_power_matches_uncached_power(n):
    ctx = GroupContext(n)
    for m in (representable(ctx, [1, 2]), product_ring_swap(ctx)):
        for d in ctx.divisors:
            for k in range(-n, 2 * n + 1):
                h = AbHom.identity(m.level[d])
                for _ in range(k % (n // d)):
                    h = h.compose(m.weyl[d])
                assert m.weyl_power(d, k) == h
                assert m.weyl_power(d, k).matrix == h.matrix
            # AbHom.power squares; it must agree with k - 1 compositions on the matrix
            h = AbHom.identity(m.level[d])
            for k in range(2 * (n // d) + 1):
                assert m.weyl[d].power(k).matrix == h.matrix
                h = h.compose(m.weyl[d])
            with pytest.raises(ValueError, match="negative power"):
                m.weyl[d].power(-1)
    with pytest.raises(ValueError, match="non-endomorphism"):
        AbHom(free_group(1), free_group(2), [[1, 0]]).power(2)


@pytest.mark.parametrize("n", [4, 6])
def test_twisted_res_is_res_then_weyl_power(n):
    ctx = GroupContext(n)
    for m in (representable(ctx, [1, 2]), product_ring_swap(ctx), norm_trivial_ring(BaseRing.integers_mod(2), n)):
        for e in ctx.divisors:
            for g in divisors(e):
                for k in range(-n, 2 * n + 1):
                    expected = m.res_full(e, g).compose(m.weyl_power(g, k))
                    assert m.twisted_res(e, g, k).matrix == expected.matrix


@pytest.mark.parametrize("make", [lambda: _dual_numbers_algebra(2)[1], lambda: burnside(GroupContext(4))])
def test_box_powers_share_the_factors_twisted_restrictions(make):
    r = make()
    twisted_cyclic_nerve(r, 3)
    keys = set(r._twisted_cache)
    assert keys
    top = box_power(r, 2).mackey
    top.mult[top.ctx.n][3][5]
    assert set(r._twisted_cache) == keys


def _count_products(monkeypatch):
    """Record (tags, d, a, b) for every box product computed; tags is the level's tag tuple."""
    calls = []
    real = green.tag_product

    def counted(factors, tags, pos, d, a, b):
        calls.append((tags, d, a, b))
        return real(factors, tags, pos, d, a, b)

    monkeypatch.setattr(green, "tag_product", counted)
    return calls


@pytest.mark.parametrize("n", [4, 6])
def test_axiom_check_reads_every_box_product(monkeypatch, n):
    calls = _count_products(monkeypatch)
    b = burnside(GroupContext(n))
    pres = box(b, b)
    assert calls == []
    assert check_axioms(pres.mackey).passed
    assert len(set(calls)) == len(calls) == sum(len(t) ** 2 for t in pres.tags.values())


def test_box_power_computes_products_only_when_read(monkeypatch):
    calls = _count_products(monkeypatch)
    _, rm = _dual_numbers_algebra(2)
    pres = box_power(rm, 3)
    assert calls == []
    mult = pres.mackey.mult[2]
    first = mult[3][5]
    computed = len(calls)
    assert mult[3][5] == first
    assert len(calls) == computed
    # the factors' own products are filled on read too; count the box's
    assert [(d, a, b) for (t, d, a, b) in calls if t is pres.tags[d]] == [(2, 3, 5)]


def test_splitting_check_reads_few_box_products(monkeypatch):
    calls = _count_products(monkeypatch)
    m, _ = _dual_numbers_algebra(2)
    rep = splitting_check(monoid_algebra(trivial_Z(GroupContext(2)), m), m, 1)
    assert rep.passed
    assert 0 < len(calls) <= 500


# ---------------------------------------------------------------------------
# one bilinear product, sparse_product, for stored, lazy and ambient ring tables


def _loop_product(table, x, y, k):
    """The dense product loop over dense rows and dense cells, kept as the oracle of ``sparse_product``."""
    acc = [0] * k
    for i, xi in enumerate(x):
        if not xi:
            continue
        ti = table[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = xi * yj
            for t, v in enumerate(ti[j]):
                if v:
                    acc[t] += c * v
    return tuple(acc)


def _assert_sparse_product_matches_loop(table, k, x, y):
    """sparse_product on the sparse table equals the loop on its dense cells, and is a canonical sparse row."""
    out = sparse_product(table, nonzeros(x), nonzeros(y))
    dense = [[dense_row(cell, k) for cell in cells] for cells in table]
    assert out == nonzeros(dense_row(out, k))
    assert dense_row(out, k) == _loop_product(dense, x, y, k)


def _random_rows(rng, k, count):
    return [tuple(rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(k)) for _ in range(count)]


def _assert_bilinear_matches_loop(table, k, rng):
    for x in _random_rows(rng, k, 6):
        for y in _random_rows(rng, k, 6):
            _assert_sparse_product_matches_loop(table, k, x, y)


@pytest.mark.parametrize("n", [4, 6])
def test_bilinear_matches_loop_on_lazy_box_tables(n):
    rng = random.Random(n)
    b = burnside(GroupContext(n))
    _, rm = _dual_numbers_algebra(2)
    for pres in (box(b, b), box_power(rm, 2)):
        g = pres.mackey
        for d in g.ctx.divisors:
            _assert_bilinear_matches_loop(g.mult[d], g.level[d].num_generators, rng)


DUAL_SIGN = RingData(mult=(((1, 0), (0, 1)), ((0, 1), (0, 0))), unit=(1, 0))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_bilinear_matches_loop_on_fixed_point_tables(n):
    rng = random.Random(n)
    ctx = GroupContext(n)
    cases = [
        (trivial_Z(ctx), RingData(mult=(((1,),),), unit=(1,))),
        (product_ring_swap(ctx), RingData(mult=(((1, 0), (0, 0)), ((0, 0), (0, 1))), unit=(1, 1))),
        (fixed_point_mackey(ctx, free_group(2), ((1, 0), (0, -1)), DUAL_SIGN), DUAL_SIGN),
    ]
    for g, ring in cases:
        ambient = [[nonzeros(cell) for cell in cells] for cells in ring.mult]
        _assert_bilinear_matches_loop(ambient, len(ring.mult), rng)
        for d in ctx.divisors:
            _assert_bilinear_matches_loop(g.mult[d], g.level[d].num_generators, rng)


@pytest.fixture(scope="module")
def green_tables():
    """Lazy box, fixed-point and norm Green functors, built once for the property below."""
    ctx = GroupContext(4)
    b = burnside(ctx)
    _, rm = _dual_numbers_algebra(2)
    return [
        box(b, b).mackey,
        box_power(rm, 2).mackey,
        product_ring_swap(ctx),
        fixed_point_mackey(ctx, free_group(2), ((1, 0), (0, -1)), DUAL_SIGN),
        norm_trivial_ring(BaseRing.integers_mod(4), 4),
        norm_trivial_ring(BaseRing.integers(), 6),
    ]


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_sparse_product_matches_loop_on_box_fixed_point_and_norm_tables(green_tables, data):
    g = data.draw(st.sampled_from(green_tables))
    d = data.draw(st.sampled_from(g.ctx.divisors))
    k = g.level[d].num_generators
    rows = st.lists(st.integers(-4, 4), min_size=k, max_size=k).map(tuple)
    _assert_sparse_product_matches_loop(g.mult[d], k, data.draw(rows), data.draw(rows))


def test_bilinear_reads_only_cells_at_nonzero_pairs(monkeypatch):
    calls = _count_products(monkeypatch)
    b = burnside(GroupContext(6))
    pres = box(b, b)
    k = pres.mackey.level[6].num_generators
    x = tuple(1 if i in (0, 4) else 0 for i in range(k))
    y = tuple(2 if i == 3 else 0 for i in range(k))
    pres.mackey.multiply(6, nonzeros(x), nonzeros(y))
    assert sorted((d, a, c) for (_, d, a, c) in calls) == [(6, 0, 3), (6, 4, 3)]


def _unit_or_zero_hom(pres, target, natural):
    """Tag i of the top level goes to generator i of the target's top level; lower levels go to 0."""
    n = pres.mackey.ctx.n

    def row(d, e, tup):
        return ((pres.tag_pos[d][(e, tup)], 1),) if d == n else ()

    return pres.hom(target, row, natural=natural)


@pytest.mark.parametrize("natural", [True, False])
def test_hom_rejects_a_row_that_breaks_a_box_relation(natural):
    ctx = GroupContext(2)
    pres = box(burnside(ctx), burnside(ctx))
    free = fixed_point_mackey(ctx, free_group(len(pres.tags[2])), identity_matrix(len(pres.tags[2])))
    assert pres.mackey.level[2].relations
    with pytest.raises(NotWellDefinedError, match="not in target relations"):
        pres.hom(free, lambda d, e, tup: ((0, 1),), natural=natural)


def test_hom_certifies_naturality_only_when_asked():
    ctx = GroupContext(2)
    pres = box(burnside(ctx), burnside(ctx))
    with pytest.raises(NotWellDefinedError, match="not natural"):
        _unit_or_zero_hom(pres, pres.mackey, natural=True)
    hom = _unit_or_zero_hom(pres, pres.mackey, natural=False)
    assert hom.maps[2] == AbHom.identity(pres.mackey.level[2])
    assert hom.maps[1] == AbHom.zero(pres.mackey.level[1], pres.mackey.level[1])
    assert hom.naturality_failures()
