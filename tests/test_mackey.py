import re

import pytest

from dense_snf import identity_matrix
from mackeywitt.cycmonoid import PointedGMonoid, bredon_green
from mackeywitt.fgab import AbHom, FgAbGroup, Sparse, dense_row, free_group, nonzeros
from mackeywitt.geomfix import phi, tilde_ef
from mackeywitt.green import box, box_list, quotient_by_green_ideal, quotient_by_subgroups
from mackeywitt.mackey import (
    GreenFunctor,
    GroupContext,
    MackeyFunctor,
    MackeyHom,
    RingData,
    burnside,
    check_axioms,
    fixed_point_mackey,
    representable,
    restrict,
)
from mackeywitt.norm import norm_trivial_ring
from mackeywitt.wittcore import BaseRing
from mackeywitt import spans


def test_group_context():
    ctx = GroupContext(12)
    assert ctx.divisors == (1, 2, 3, 4, 6, 12)
    assert ctx.prime_chain(1, 12) in ((1, 2, 4, 12), (1, 2, 4, 12))
    assert len(list(ctx.all_prime_chains(1, 12))) == 3  # 2,2,3 orderings


def test_span_identity_composition():
    n = 6
    for t in (1, 2, 3, 6):
        for s in (1, 2, 3, 6):
            ident = (s, 0)
            for sp in spans.span_basis(n, t, s):
                comp = spans.compose_spans(n, t, s, s, sp, ident)
                assert comp == {sp: 1}
            ident_left = (t, 0)
            for sp in spans.span_basis(n, t, s):
                comp = spans.compose_spans(n, t, t, s, ident_left, sp)
                assert comp == {sp: 1}


def test_burnside_c1():
    b = burnside(GroupContext(1))
    assert b.level[1].canonical_form == ((), 1)
    rep = check_axioms(b)
    assert rep.passed, rep


def test_burnside_c2_structure():
    b = burnside(GroupContext(2))
    # level(2) = Z{[pt],[C_2]}, level(1) = Z
    assert b.level[2].canonical_form == ((), 2)
    assert b.level[1].canonical_form == ((), 1)
    res = b.res[(1, 2)]
    # basis of level 2 ordered (c=1 -> [C_2], c=2 -> [pt]); res [pt] = 1, res [C_2] = 2
    assert res.apply((0, 1)) == (1,)
    assert res.apply((1, 0)) == (2,)
    tr = b.tr[(1, 2)]
    assert tr.apply((1,)) == (1, 0)
    # [C_2]*[C_2] = 2[C_2]
    assert b.multiply(2, (1, 0), (1, 0)) == (2, 0)
    assert check_axioms(b).passed


@pytest.mark.parametrize("p", [3, 5])
def test_burnside_cp_multiplication(p):
    b = burnside(GroupContext(p))
    # [C_p] * [C_p] = p [C_p]
    assert b.multiply(p, (1, 0), (1, 0)) == (p, 0)
    assert check_axioms(b).passed


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 9, 12])
def test_burnside_axioms(n):
    assert check_axioms(burnside(GroupContext(n))).passed


def test_representable_point_is_burnside():
    for n in (2, 3, 4, 6):
        ctx = GroupContext(n)
        rep = representable(ctx, [n])
        b = burnside(ctx)
        for d in ctx.divisors:
            assert rep.level[d].canonical_form == b.level[d].canonical_form
        # identify bases: span (c, 0) <-> [C_d/C_c]; structure maps must agree
        for key in rep.res:
            assert rep.res[key].matrix == b.res[key].matrix
            assert rep.tr[key].matrix == b.tr[key].matrix


def test_representable_free_orbit_c2():
    ctx = GroupContext(2)
    rep = representable(ctx, [1])
    # level(1) = A(C_2/e, C_2/e) = Z^2; level(2) = A(C_2/e, pt) = Z
    assert rep.level[1].canonical_form == ((), 2)
    assert rep.level[2].canonical_form == ((), 1)
    assert check_axioms(rep).passed
    # weyl at the free level swaps the two spans
    w = rep.weyl[1]
    assert sorted([w.apply((1, 0)), w.apply((0, 1))]) == [(0, 1), (1, 0)]


def test_representable_additivity():
    ctx = GroupContext(4)
    one = representable(ctx, [2])
    two = representable(ctx, [2, 2])
    for d in ctx.divisors:
        inv1, r1 = one.level[d].canonical_form
        inv2, r2 = two.level[d].canonical_form
        assert inv2 == inv1 + inv1 and r2 == 2 * r1


@pytest.mark.parametrize("n,T", [(2, [1]), (4, [2]), (4, [1, 2]), (6, [2, 3]), (12, [4])])
def test_representable_axioms(n, T):
    assert check_axioms(representable(GroupContext(n), T)).passed


def test_yoneda_evaluation():
    # each element of M(T) induces a valid Mackey hom A_T -> M via spans,
    # and evaluation at the identity span recovers the element
    ctx = GroupContext(2)
    t = 1
    rep = representable(ctx, [t])
    m = burnside(ctx)
    for val in identity_matrix(m.level[t].num_generators):
        maps = {}
        for d in ctx.divisors:
            rows = []
            for (i, sp) in rep.span_basis[d]:
                rows.append(spans.apply_span(m, t, d, sp, nonzeros(val)))
            maps[d] = AbHom(rep.level[d], m.level[d], Sparse(rows, m.level[d].num_generators))
        hom = MackeyHom(rep, m, maps)  # naturality checked at construction
        ident_pos = rep.span_pos[t][(0, (t, 0))]
        got = hom.maps[t].apply(identity_matrix(rep.level[t].num_generators)[ident_pos])
        assert got == val


def test_yoneda_hom_group_matches_level():
    # |Hom(A_T, M)| has the canonical form of M(T) for T = C_2/e:
    # identity-span generators generate, and every element extends (tested above),
    # so compare by building all homs from a generating family
    ctx = GroupContext(2)
    rep = representable(ctx, [1])
    m = fixed_point_mackey(ctx, free_group(2), ((0, 1), (1, 0)))
    vals = identity_matrix(2)
    homs = []
    for val in vals:
        maps = {
            d: AbHom(
                rep.level[d],
                m.level[d],
                Sparse(
                    (spans.apply_span(m, 1, d, sp, nonzeros(val)) for (_, sp) in rep.span_basis[d]),
                    m.level[d].num_generators,
                ),
            )
            for d in ctx.divisors
        }
        homs.append(MackeyHom(rep, m, maps))
    # independence: no nontrivial integer combination is zero on the identity span
    assert m.level[1].canonical_form == ((), 2)


def test_fixed_point_trivial_action():
    ctx = GroupContext(2)
    m = fixed_point_mackey(ctx, free_group(1), ((1,),))
    assert m.level[1].canonical_form == ((), 1)
    assert m.level[2].canonical_form == ((), 1)
    assert m.res[(1, 2)].matrix == ((1,),)
    assert m.tr[(1, 2)].matrix == ((2,),)
    assert m.weyl[1].matrix == ((1,),)
    assert check_axioms(m).passed


def test_fixed_point_swap_action():
    ctx = GroupContext(2)
    swap = ((0, 1), (1, 0))
    m = fixed_point_mackey(ctx, free_group(2), swap)
    assert m.level[1].canonical_form == ((), 2)
    assert m.level[2].canonical_form == ((), 1)
    # res is the diagonal, tr is the coordinate sum
    diag = m.res[(1, 2)]
    fixed_gen = diag.matrix[0]
    assert fixed_gen in (((1, 1)), (1, 1))
    s = m.tr[(1, 2)]
    assert s.apply((1, 0)) == s.apply((0, 1))
    assert check_axioms(m).passed


def test_fixed_point_action_order_error():
    ctx = GroupContext(2)
    with pytest.raises(ValueError):
        fixed_point_mackey(ctx, free_group(1), ((2,),))


def test_fixed_point_n1():
    ctx = GroupContext(1)
    g = FgAbGroup(2, [(2, 0)])
    m = fixed_point_mackey(ctx, g, identity_matrix(2))
    assert m.level[1].canonical_form == g.canonical_form


def test_product_ring_swap_green_functor():
    # Z x Z with coordinatewise product and the swap action: the action is by
    # ring maps (unlike translation on a group ring), so this is Green
    ctx = GroupContext(2)
    ring = RingData(
        mult=(((1, 0), (0, 0)), ((0, 0), (0, 1))),
        unit=(1, 1),
    )
    g = fixed_point_mackey(ctx, free_group(2), ((0, 1), (1, 0)), ring)
    rep = check_axioms(g)
    assert rep.passed, rep
    assert g.level[2].canonical_form == ((), 1)
    assert g.level[1].canonical_form == ((), 2)


def test_restrict_identity():
    b = burnside(GroupContext(4))
    r = restrict(b, 4)
    assert r.level == b.level


def test_restrict_burnside_c4_to_c2():
    b = burnside(GroupContext(4))
    r = restrict(b, 2)
    assert r.ctx.n == 2
    assert set(r.level) == {1, 2}
    assert check_axioms(r).passed


def test_restrict_fixed_point_swap_to_trivial():
    ctx = GroupContext(2)
    m = fixed_point_mackey(ctx, free_group(2), ((0, 1), (1, 0)))
    r = restrict(m, 1)
    assert r.level[1].canonical_form == ((), 2)
    # weyl becomes the full generator power n/j = 2: the identity
    assert r.weyl[1] == AbHom.identity(r.level[1])


def test_axiom_checker_catches_bad_transfer():
    b = burnside(GroupContext(2))
    m = b
    bad_tr = dict(m.tr)
    bad_tr[(1, 2)] = AbHom(m.level[1], m.level[2], ((3, 0),))
    from mackeywitt.mackey import MackeyFunctor

    bad = MackeyFunctor(m.ctx, m.level, m.res, bad_tr, m.weyl)
    rep = check_axioms(bad)
    assert not rep.passed
    assert any("double coset" in f for f in rep.failures)


def test_json_serialization():
    b = burnside(GroupContext(4))
    j = b.to_json()
    assert j["n"] == 4
    assert list(j["levels"]) == ["1", "2", "4"]
    assert j["levels"]["4"] == {"invariant_factors": [], "rank": 3}
    assert "2->1" in j["res"] and "1->2" in j["tr"]


# ---------------------------------------------------------------------------
# a Green functor is a Mackey functor


def test_green_constructions_are_mackey_functors():
    ctx = GroupContext(4)
    assert isinstance(burnside(ctx), MackeyFunctor)
    assert isinstance(norm_trivial_ring(BaseRing.integers_mod(2), 4), MackeyFunctor)


@pytest.mark.parametrize("operation", [
    lambda m: restrict(m, 2),
    lambda m: tilde_ef(m, 2),
    lambda m: phi(m, 2),
])
def test_operations_return_green_exactly_for_green_input(operation):
    ctx = GroupContext(4)
    green = burnside(ctx)
    plain = MackeyFunctor(ctx, green.level, green.res, green.tr, green.weyl, name="A(C_4) without ring")
    assert isinstance(operation(green), GreenFunctor)
    out = operation(plain)
    assert isinstance(out, MackeyFunctor) and not isinstance(out, GreenFunctor)


def test_quotient_by_subgroups_of_green_is_green():
    g = burnside(GroupContext(2))
    out, proj = quotient_by_subgroups(g, {})
    assert isinstance(out, GreenFunctor)
    assert proj.source is g and proj.target is out


def test_box_of_mixed_factors_is_plain_mackey():
    ctx = GroupContext(2)
    b, rep = burnside(ctx), representable(ctx, [1])
    out = box_list([b, rep]).mackey
    assert isinstance(out, MackeyFunctor) and not isinstance(out, GreenFunctor)
    assert isinstance(box_list([b, b]).mackey, GreenFunctor)


def test_green_functor_runs_mackey_validation():
    b = burnside(GroupContext(2))
    bad_res = dict(b.res)
    bad_res[(1, 2)] = b.tr[(1, 2)]  # level 1 -> level 2: endpoints reversed
    with pytest.raises(ValueError, match="wrong endpoints"):
        GreenFunctor(b.ctx, b.level, bad_res, b.tr, b.weyl, b.mult, b.unit)
    bad_mult = dict(b.mult)
    bad_mult[2] = b.mult[2][:1]
    with pytest.raises(ValueError, match="wrong shape"):
        GreenFunctor(b.ctx, b.level, b.res, b.tr, b.weyl, bad_mult, b.unit)


# ---------------------------------------------------------------------------
# the Green certificate against its dense reference


RING_AXIOMS = ("unit fails", "commutativity fails", "associativity fails")


def dense_ring_checks(m):
    """The unit, commutativity and associativity checks of ``check_axioms`` as
    they read before its sparse rows: every basis triple by two dense
    ``multiply`` calls, compared with ``elements_equal``."""
    out = []
    for d in m.ctx.divisors:
        lv = m.level[d]
        gens = identity_matrix(lv.num_generators)
        prod = [[m.multiply(d, x, y) for y in gens] for x in gens]
        unit = dense_row(m.unit[d], lv.num_generators)
        for i in range(len(gens)):
            out.append((
                lv.elements_equal(m.multiply(d, unit, gens[i]), gens[i]),
                f"unit fails at level {d}, generator {i}",
            ))
            for j in range(len(gens)):
                out.append((
                    lv.elements_equal(prod[i][j], prod[j][i]),
                    f"commutativity fails at level {d} ({i},{j})",
                ))
                for t in range(len(gens)):
                    out.append((
                        lv.elements_equal(
                            m.multiply(d, prod[i][j], gens[t]), m.multiply(d, gens[i], prod[j][t])
                        ),
                        f"associativity fails at level {d} ({i},{j},{t})",
                    ))
    return out


def assert_ring_checks_match_dense(m):
    rep = check_axioms(m)
    block = [c for c in rep.checks if c[1].startswith(RING_AXIOMS)]
    ref = dense_ring_checks(m)
    assert block == ref
    assert [msg for ok, msg in block if not ok] == [msg for ok, msg in ref if not ok]
    return rep


def _torsion_swap_ring():
    # (Z/4)^2 with coordinatewise product and the swap action
    ring = RingData(mult=(((1, 0), (0, 0)), ((0, 0), (0, 1))), unit=(1, 1))
    return fixed_point_mackey(GroupContext(2), FgAbGroup(2, ((4, 0), (0, 4))), ((0, 1), (1, 0)), ring)


def _with_products(m, d, cells):
    """m with the products mult[d][i][j] replaced by the sparse rows in cells {(i, j): row}."""
    table = [list(rows) for rows in m.mult[d]]
    for (i, j), row in cells.items():
        table[i][j] = row
    mult = {**m.mult, d: table}
    return GreenFunctor(m.ctx, m.level, m.res, m.tr, m.weyl, mult, m.unit, m.name)


@pytest.mark.parametrize(
    "build",
    [
        lambda: burnside(GroupContext(6)),
        lambda: box(burnside(GroupContext(4)), burnside(GroupContext(4))).mackey,
        lambda: norm_trivial_ring(BaseRing.integers_mod(4), 6),
        _torsion_swap_ring,
    ],
    ids=["burnside_C6", "box_AA_C4", "norm_Z4_6", "fixed_point_torsion"],
)
def test_green_certificate_matches_dense_reference(build):
    m = build()
    assert isinstance(m, GreenFunctor)
    rep = assert_ring_checks_match_dense(m)
    assert rep.passed, rep


@pytest.mark.parametrize(
    "m,d",
    [(burnside(GroupContext(6)), 6), (norm_trivial_ring(BaseRing.integers_mod(4), 4), 4)],
    ids=["burnside_C6", "norm_Z4_4"],
)
def test_perturbed_product_reports_the_dense_failures(m, d):
    row = dense_row(m.mult[d][1][2], m.level[d].num_generators)
    broken = _with_products(m, d, {(1, 2): nonzeros(row[:1] + (row[1] + 1,) + row[2:])})
    rep = assert_ring_checks_match_dense(broken)
    assoc = [msg for msg in rep.failures if msg.startswith("associativity fails")]
    assert assoc and all(msg.startswith(f"associativity fails at level {d} (") for msg in assoc)


def test_products_associative_only_modulo_relations_pass():
    m = norm_trivial_ring(BaseRing.integers_mod(4), 6)
    lv = m.level[6]
    rel = lv.relations[0]
    shifted = nonzeros(tuple(x + y for x, y in zip(dense_row(m.mult[6][1][2], lv.num_generators), rel)))
    broken = _with_products(m, 6, {(1, 2): shifted, (2, 1): shifted})
    # some triple now differs as integer rows and agrees only modulo the relations
    gens = identity_matrix(lv.num_generators)
    prod = [[broken.multiply(6, x, y) for y in gens] for x in gens]
    assert any(
        broken.multiply(6, prod[i][j], gens[t]) != broken.multiply(6, gens[i], prod[j][t])
        for i in range(len(gens)) for j in range(len(gens)) for t in range(len(gens))
    )
    rep = assert_ring_checks_match_dense(broken)
    assert rep.passed, rep


# ---------------------------------------------------------------------------
# product tables and units are sparse rows, read as they are stored


def _refuse_dense(*args):
    raise AssertionError("a dense product or image was computed")


@pytest.mark.parametrize(
    "build",
    [lambda: burnside(GroupContext(6)), lambda: box(burnside(GroupContext(4)), burnside(GroupContext(4))).mackey],
    ids=["burnside_C6", "box_AA_C4"],
)
def test_green_certificate_multiplies_no_dense_rows(monkeypatch, build):
    m = build()
    monkeypatch.setattr(GreenFunctor, "multiply", _refuse_dense)
    monkeypatch.setattr(AbHom, "apply", _refuse_dense)
    rep = check_axioms(m)
    assert rep.passed, rep


def _is_sparse_row(row, k):
    """(column, value) pairs with nonzero int values and columns rising in range(k)."""
    cols = [j for j, _ in row]
    return (
        isinstance(row, tuple)
        and all(type(x) is int and x for _, x in row)
        and cols == sorted(set(cols))
        and all(0 <= j < k for j in cols)
    )


def _dual_numbers_monoid(ctx):
    rows = [["0", "0", "0"], ["0", "1", "x"], ["0", "x", "0"]]
    return PointedGMonoid.from_lists(ctx, ["0", "1", "x"], "0", "1", rows, ["0", "1", "x"])


@pytest.mark.parametrize(
    "build",
    [
        lambda: burnside(GroupContext(6)),
        lambda: box(burnside(GroupContext(4)), burnside(GroupContext(4))).mackey,
        lambda: norm_trivial_ring(BaseRing.integers_mod(4), 6),
        lambda: norm_trivial_ring(BaseRing.integers(), 4),
        _torsion_swap_ring,
        lambda: bredon_green(GroupContext(2), _dual_numbers_monoid(GroupContext(2))),
        lambda: restrict(norm_trivial_ring(BaseRing.integers_mod(2), 4), 2),
        lambda: phi(norm_trivial_ring(BaseRing.integers_mod(2), 4), 2),
        lambda: quotient_by_green_ideal(burnside(GroupContext(2)), [(2, ((0, 1),))]),
    ],
    ids=["burnside", "box", "norm_Z4", "norm_Z", "fixed_point", "bredon", "restrict", "phi", "quotient"],
)
def test_product_cells_and_units_are_sparse_rows(build):
    m = build()
    for d in m.ctx.divisors:
        k = m.level[d].num_generators
        assert _is_sparse_row(m.unit[d], k)
        assert len(m.mult[d]) == k
        for cells in m.mult[d]:
            assert len(cells) == k
            assert all(_is_sparse_row(cell, k) for cell in cells)


def _short_row(b):
    return {**b.mult, 2: b.mult[2][:1]}


def _short_cells(b):
    return {**b.mult, 2: (b.mult[2][0][:1], b.mult[2][1])}


def _column_out_of_range(b):
    return {**b.mult, 2: ((((2, 1),), b.mult[2][0][1]), b.mult[2][1])}


def _negative_column(b):
    return {**b.mult, 2: (b.mult[2][0], (b.mult[2][1][0], ((-1, 1),)))}


def _dense_cells(b):
    """The old dense form: each cell a row of ints, not of (column, value) pairs."""
    return {**b.mult, 2: tuple(tuple(dense_row(c, 2) for c in cells) for cells in b.mult[2])}


@pytest.mark.parametrize(
    "broken", [_short_row, _short_cells, _column_out_of_range, _negative_column, _dense_cells]
)
def test_green_functor_refuses_a_table_of_the_wrong_shape(broken):
    b = burnside(GroupContext(2))
    with pytest.raises(ValueError, match=re.escape("mult[2] has wrong shape")):
        GreenFunctor(b.ctx, b.level, b.res, b.tr, b.weyl, broken(b), b.unit)


@pytest.mark.parametrize("unit", [((2, 1),), ((0, 1), (5, 1)), ((-1, 1),), (0, 1), ((0, 1, 0),)])
def test_green_functor_refuses_a_unit_of_the_wrong_length(unit):
    b = burnside(GroupContext(2))
    with pytest.raises(ValueError, match=re.escape("unit[2] has wrong length")):
        GreenFunctor(b.ctx, b.level, b.res, b.tr, b.weyl, b.mult, {**b.unit, 2: unit})
