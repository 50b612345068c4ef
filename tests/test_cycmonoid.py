import pytest

from mackeywitt.cycmonoid import (
    PointedGMonoid,
    bredon_green,
    cellular_chains,
    cyclic_nerve_monoid,
    monoid_algebra,
    splitting_check,
)
from mackeywitt.fgab import free_group
from mackeywitt.hochschild import MackeyHomology
from mackeywitt.mackey import (
    GroupContext,
    RingData,
    burnside,
    check_axioms,
    fixed_point_mackey,
)


def two_point_monoid(ctx):
    # {0, 1}: the monoidal unit; R[M] = R
    return PointedGMonoid.from_lists(
        ctx, ["0", "1"], "0", "1", [["0", "0"], ["0", "1"]], ["0", "1"]
    )


def dual_numbers_monoid(ctx, action=None):
    # {0, 1, x} with x^2 = 0
    rows = [["0", "0", "0"], ["0", "1", "x"], ["0", "x", "0"]]
    return PointedGMonoid.from_lists(
        ctx, ["0", "1", "x"], "0", "1", rows, action or ["0", "1", "x"]
    )


def swap_pair_monoid(ctx):
    # {0, 1, a, b} with all products of {a,b} zero and the action swapping a, b
    rows = [
        ["0", "0", "0", "0"],
        ["0", "1", "a", "b"],
        ["0", "a", "0", "0"],
        ["0", "b", "0", "0"],
    ]
    return PointedGMonoid.from_lists(ctx, ["0", "1", "a", "b"], "0", "1", rows, ["0", "1", "b", "a"])


def trivial_Z(n):
    return fixed_point_mackey(
        GroupContext(n), free_group(1), ((1,),), RingData(mult=(((1,),),), unit=(1,))
    )


def test_monoid_validation():
    ctx = GroupContext(2)
    with pytest.raises(ValueError):
        PointedGMonoid.from_lists(ctx, ["0", "1"], "0", "1", [["0", "1"], ["0", "1"]], ["0", "1"])
    with pytest.raises(ValueError):
        # action must fix the unit
        PointedGMonoid.from_lists(
            ctx, ["0", "1", "x"], "0", "1",
            [["0", "0", "0"], ["0", "1", "x"], ["0", "x", "0"]],
            ["0", "x", "1"],
        )


def test_monoid_json_roundtrip():
    ctx = GroupContext(2)
    m = swap_pair_monoid(ctx)
    again = PointedGMonoid.from_json(ctx, m.to_json())
    assert again.table == m.table and again.action == m.action


def test_monoid_algebra_two_point_is_r():
    ctx = GroupContext(2)
    r = burnside(ctx)
    pres = monoid_algebra(r, two_point_monoid(ctx))
    for d in ctx.divisors:
        assert pres.mackey.level[d].canonical_form == r.level[d].canonical_form
    assert check_axioms(pres.mackey).passed


def test_monoid_algebra_dual_numbers_c1():
    ctx = GroupContext(1)
    r = trivial_Z(1)
    pres = monoid_algebra(r, dual_numbers_monoid(ctx))
    assert pres.mackey.level[1].canonical_form == ((), 2)
    assert check_axioms(pres.mackey).passed


def test_monoid_algebra_dual_numbers_c2():
    ctx = GroupContext(2)
    r = trivial_Z(2)
    pres = monoid_algebra(r, dual_numbers_monoid(ctx))
    # levels R(d) + R(d)·x
    assert pres.mackey.level[2].canonical_form == ((), 2)
    assert pres.mackey.level[1].canonical_form == ((), 2)
    assert check_axioms(pres.mackey).passed


def test_monoid_algebra_swap_monoid_c2():
    ctx = GroupContext(2)
    r = burnside(ctx)
    pres = monoid_algebra(r, swap_pair_monoid(ctx))
    assert check_axioms(pres.mackey).passed


def test_bredon_green_direct_vs_box_form():
    # the direct sum-of-representables carries the same levels as boxing
    # against the Burnside functor (A box A[M] = A[M])
    from mackeywitt.green import box

    ctx = GroupContext(2)
    am = bredon_green(ctx, swap_pair_monoid(ctx))
    pres = box(burnside(ctx), am)
    for d in ctx.divisors:
        assert pres.mackey.level[d].canonical_form == am.level[d].canonical_form
    assert check_axioms(am).passed
    assert check_axioms(pres.mackey).passed


@pytest.mark.parametrize("n", [1, 2, 4])
def test_monoid_algebra_agrees_with_orbitwise_sum(n):
    # R[M] built as R box A[M] matches the orbitwise sum of R box A_O
    from mackeywitt.cycmonoid import monoid_orbits
    from mackeywitt.green import box
    from mackeywitt.mackey import representable

    ctx = GroupContext(n)
    m = dual_numbers_monoid(ctx)
    r = trivial_Z(n)
    pres = monoid_algebra(r, m)
    od = monoid_orbits(m)
    for d in ctx.divisors:
        inv_sum = []
        rank_sum = 0
        for stab in od.stabs:
            piece = box(r, representable(ctx, [stab])).mackey.level[d]
            inv, rank = piece.canonical_form
            inv_sum.extend(inv)
            rank_sum += rank
        inv_all, rank_all = pres.mackey.level[d].canonical_form
        # compare multisets of prime-power elementary divisors
        from mackeywitt.mackey import prime_factors

        def elementary(inv):
            out = []
            for dd in inv:
                for p in prime_factors(dd):
                    q = 1
                    while dd % (q * p) == 0:
                        q *= p
                    out.append(q)
            return sorted(out)

        assert elementary(inv_sum) == elementary(inv_all)
        assert rank_sum == rank_all


def test_cyclic_nerve_two_point_monoid_is_point():
    ctx = GroupContext(2)
    nv = cyclic_nerve_monoid(two_point_monoid(ctx), 3)
    for j in range(4):
        assert nv.degrees[j] == (tuple(["1"] * (j + 1)),)


def test_cyclic_nerve_dual_numbers_simplices():
    ctx = GroupContext(1)
    nv = cyclic_nerve_monoid(dual_numbers_monoid(ctx), 2)
    assert sorted(nv.degrees[1]) == [("1", "1"), ("1", "x"), ("x", "1"), ("x", "x")]


def test_cyclic_nerve_last_face_twist():
    ctx = GroupContext(2)
    nv = cyclic_nerve_monoid(swap_pair_monoid(ctx), 1)
    # d_1 (1, a) = (gamma a) * 1 = b
    assert nv.faces[1][1][("1", "a")] == ("b",)
    assert nv.faces[1][0][("1", "a")] == ("a",)


def test_cellular_chains_point():
    ctx = GroupContext(2)
    cells = cellular_chains(cyclic_nerve_monoid(two_point_monoid(ctx), 2), 2)
    h0 = MackeyHomology(cells.complex, 0)
    b = burnside(ctx)
    for d in ctx.divisors:
        assert h0.mackey.level[d].canonical_form == b.level[d].canonical_form
    h1 = MackeyHomology(cells.complex, 1)
    for d in ctx.divisors:
        assert h1.mackey.level[d].is_trivial()


def test_cellular_h0_dual_numbers_c1():
    ctx = GroupContext(1)
    cells = cellular_chains(cyclic_nerve_monoid(dual_numbers_monoid(ctx), 2), 2)
    h0 = MackeyHomology(cells.complex, 0)
    assert h0.mackey.level[1].canonical_form == ((), 2)


def test_splitting_two_point_monoid():
    ctx = GroupContext(2)
    rep = splitting_check(burnside(ctx), two_point_monoid(ctx), 1)
    assert rep.passed, rep


def test_splitting_dual_numbers_c1():
    rep = splitting_check(trivial_Z(1), dual_numbers_monoid(GroupContext(1)), 1)
    assert rep.passed, rep
    # classical values: H_0 = Z[x]/x^2, H_1 = Kähler differentials
    assert rep.homology_right[0][1] == ((), 2)
    assert rep.homology_right[1][1] == ((2,), 1)
    assert rep.homology_left[0][1] == ((), 2)


def test_splitting_dual_numbers_c2_degree0():
    ctx = GroupContext(2)
    rep = splitting_check(burnside(ctx), dual_numbers_monoid(ctx), 0)
    assert rep.passed, rep


def test_splitting_swap_monoid_c2_degree0():
    ctx = GroupContext(2)
    rep = splitting_check(trivial_Z(2), swap_pair_monoid(ctx), 0)
    assert rep.passed, rep
