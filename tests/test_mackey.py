import json
import re
from collections import Counter
from functools import reduce
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_snf import identity_matrix
from mackeywitt.cycmonoid import PointedGMonoid, bredon_green
from mackeywitt.fgab import AbHom, FgAbGroup, NotWellDefinedError, Sparse, dense_row, free_group, nonzeros
from mackeywitt.geomfix import phi, tilde_ef
from mackeywitt.green import box, box_list, quotient_by_green_ideal
from mackeywitt.mackey import (
    GreenFunctor,
    GroupContext,
    MackeyFunctor,
    MackeyHom,
    RingData,
    burnside,
    check_axioms,
    fixed_point_mackey,
    prime_edges,
    quotient,
    representable,
    restrict,
)
from mackeywitt.norm import norm_trivial_ring
from mackeywitt.wittcore import BaseRing, divisors, is_prime
from mackeywitt import fgab, spans


def apply(f, x):
    """f applied to the dense row x, as a dense row."""
    return dense_row(f.apply(nonzeros(x)), f.target.num_generators)


def multiply(m, d, x, y):
    """The product of the dense rows x and y at level d of m, as a dense row."""
    return dense_row(m.multiply(d, nonzeros(x), nonzeros(y)), m.level[d].num_generators)


def elements_equal(g, x, y):
    """Whether the dense rows x and y are one element of g."""
    return g.same_class(nonzeros(x), nonzeros(y))


def test_group_context():
    ctx = GroupContext(12)
    assert ctx.divisors == (1, 2, 3, 4, 6, 12)
    assert ctx.prime_chain(1, 12) == (1, 2, 4, 12)
    assert len(list(ctx.all_prime_chains(1, 12))) == 3  # 2,2,3 orderings


def test_prime_chain_multiplies_in_the_smallest_primes_first():
    """Composite res/tr follow this chain into box relations and printed output, so it is pinned."""
    for n in range(1, 61):
        ctx = GroupContext(n)
        for d, e in product(ctx.divisors, repeat=2):
            if e % d:
                with pytest.raises(ValueError, match="does not divide"):
                    ctx.prime_chain(d, e)
                continue
            chain = ctx.prime_chain(d, e)
            steps = [b // a for a, b in zip(chain, chain[1:])]
            assert (chain[0], chain[-1]) == (d, e)
            assert all(map(is_prime, steps)) and steps == sorted(steps)
            assert chain in set(ctx.all_prime_chains(d, e))


def test_compose_spans_counts_the_orbits_of_the_pullback():
    """Brute force over C_n, n ≤ 12: the pullback of G/C_{c1} → G/C_s ← G/C_{c2}, its orbits
    under the diagonal shift, and from each the representative with a = 0."""
    for n in range(1, 13):
        for t, s, u in product(divisors(n), repeat=3):
            for (c1, y1), (c2, y2) in product(spans.span_basis(n, t, s), spans.span_basis(n, s, u)):
                m1, m2 = n // c1, n // c2
                points = {(a, b) for a in range(m1) for b in range(m2) if (a + y1 - b) % (n // s) == 0}
                expected: Counter = Counter()
                while points:
                    a, b = min(points)
                    orbit = {((a + k) % m1, (b + k) % m2) for k in range(lcm(m1, m2))}
                    points -= orbit
                    b0 = min(b for a, b in orbit if a == 0)
                    expected[(gcd(c1, c2), spans.normalize_y(n, t, u, b0 + y2))] += 1
                assert spans.compose_spans(n, t, s, u, (c1, y1), (c2, y2)) == expected, (n, t, s, u)


def test_pullback_orbits_are_the_first_point_of_each_class():
    """The closed form against an enumeration for n ≤ 60: of the b ≡ start (mod n/s) below
    n/c2, the first of each class mod gcd(n/c1, n/c2), for every start in [-n/s, n/s)."""
    for n in range(1, 61):
        for s in divisors(n):
            for c1, c2 in product(divisors(s), repeat=2):
                g2 = gcd(n // c1, n // c2)
                for start in range(-(n // s), n // s):
                    first: dict[int, int] = {}
                    for b in range(start % (n // s), n // c2, n // s):
                        first.setdefault(b % g2, b)
                    orbits = list(spans._pullback_orbits(n, c1, c2, s, start))
                    assert orbits == list(first.values()), (n, s, c1, c2, start)


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
    assert apply(res, (0, 1)) == (1,)
    assert apply(res, (1, 0)) == (2,)
    tr = b.tr[(1, 2)]
    assert apply(tr, (1,)) == (1, 0)
    # [C_2]*[C_2] = 2[C_2]
    assert multiply(b, 2, (1, 0), (1, 0)) == (2, 0)
    assert check_axioms(b).passed


@pytest.mark.parametrize("p", [3, 5])
def test_burnside_cp_multiplication(p):
    b = burnside(GroupContext(p))
    # [C_p] * [C_p] = p [C_p]
    assert multiply(b, p, (1, 0), (1, 0)) == (p, 0)
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
    assert sorted([apply(w, (1, 0)), apply(w, (0, 1))]) == [(0, 1), (1, 0)]


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
        got = apply(hom.maps[t], identity_matrix(rep.level[t].num_generators)[ident_pos])
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
    assert apply(s, (1, 0)) == apply(s, (0, 1))
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


def test_axiom_checker_compares_every_further_chain_with_the_first():
    """Over C_6 the chains 1 | 2 | 6 (the first) and 1 | 3 | 6 are compared once for res and
    once for tr; a zero res 3 → 1 makes only the restriction path-dependent."""
    b = burnside(GroupContext(6))
    assert [msg for _, msg in check_axioms(b).checks if "path-dependent" in msg] == [
        "res 6->1 path-dependent", "tr 1->6 path-dependent"]
    res = dict(b.res)
    res[(1, 3)] = AbHom.zero(b.level[3], b.level[1])
    rep = check_axioms(MackeyFunctor(b.ctx, b.level, res, b.tr, b.weyl))
    assert "res 6->1 path-dependent" in rep.failures
    assert "tr 1->6 path-dependent" not in rep.failures


def test_a_level_map_that_is_not_weyl_equivariant_is_refused():
    """Over C_2 with level 2 zero every level map commutes with res and tr; projecting
    the swapped ℤ² at level 1 onto its first coordinate does not commute with the swap."""
    ctx = GroupContext(2)
    lo, hi = free_group(2), free_group(0)
    m = MackeyFunctor(
        ctx, {1: lo, 2: hi}, {(1, 2): AbHom.zero(hi, lo)}, {(1, 2): AbHom.zero(lo, hi)},
        {1: AbHom(lo, lo, ((0, 1), (1, 0))), 2: AbHom.identity(hi)},
    )
    maps = {1: AbHom(lo, lo, ((1, 0), (0, 0))), 2: AbHom.identity(hi)}
    assert MackeyHom(m, m, maps, check=False).naturality_failures() == ["weyl[1] not natural"]
    with pytest.raises(NotWellDefinedError, match=r"^weyl\[1\] not natural$"):
        MackeyHom(m, m, maps)


def test_json_serialization():
    b = burnside(GroupContext(4))
    j = b.to_json()
    assert j["n"] == 4
    assert list(j["levels"]) == ["1", "2", "4"]
    assert j["levels"]["4"] == {"invariant_factors": [], "rank": 3}
    assert "2->1" in j["res"] and "1->2" in j["tr"]


def test_json_payload_holds_homs_that_json_dumps_refuses():
    # the matrix leaves are the homs; only cli._dumps writes them
    with pytest.raises(TypeError, match="AbHom"):
        json.dumps(burnside(GroupContext(4)).to_json())


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
    lambda m: quotient(m, {}, f"{m.name}/ideal"),
])
def test_operations_return_green_exactly_for_green_input(operation):
    ctx = GroupContext(4)
    green = burnside(ctx)
    plain = MackeyFunctor(ctx, green.level, green.res, green.tr, green.weyl, name="A(C_4) without ring")
    assert isinstance(operation(green), GreenFunctor)
    out = operation(plain)
    assert isinstance(out, MackeyFunctor) and not isinstance(out, GreenFunctor)


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
# the Mackey certificate against its composite reference


def composite_mackey_checks(m):
    """The Weyl-order, Weyl, path-independence and double-coset checks of
    ``check_axioms`` as they read before they went row by row: each side a
    composite ``AbHom`` (powers by ``AbHom.power``, sums by ``AbHom.add``),
    compared with ``AbHom.__eq__``."""
    ctx, n = m.ctx, m.ctx.n

    def composite(level, homs):
        return reduce(AbHom.compose, homs) if homs else AbHom.identity(level)

    def res_chain(c):
        return composite(m.level[c[-1]], [m.res[s] for s in zip(c[-2::-1], c[::-1])])

    def tr_chain(c):
        return composite(m.level[c[0]], [m.tr[s] for s in zip(c, c[1:])])

    out = [(m.weyl[d].power(n // d) == AbHom.identity(m.level[d]), f"weyl[{d}]^{n // d} != id") for d in ctx.divisors]
    for d, e in prime_edges(ctx):
        r, t = m.res[(d, e)], m.tr[(d, e)]
        out.append((r.compose(m.weyl[d]) == m.weyl[e].compose(r), f"res{(d, e)} does not commute with weyl"))
        out.append((t.compose(m.weyl[e]) == m.weyl[d].compose(t), f"tr{(d, e)} does not commute with weyl"))
    for d in ctx.divisors:
        for e in ctx.divisors:
            if e % d == 0:
                first, *rest = ctx.all_prime_chains(d, e)
                for c in rest:
                    out.append((res_chain(c) == res_chain(first), f"res {e}->{d} path-dependent"))
                    out.append((tr_chain(c) == tr_chain(first), f"tr {d}->{e} path-dependent"))
    for e in ctx.divisors:
        for a in divisors(e):
            for b in divisors(e):
                g = gcd(a, b)
                lhs = tr_chain(ctx.prime_chain(b, e)).compose(res_chain(ctx.prime_chain(a, e)))
                rhs = AbHom.zero(m.level[b], m.level[a])
                for j in range(e // lcm(a, b)):
                    twisted = res_chain(ctx.prime_chain(g, b)).compose(m.weyl[g].power(j * (n // e) % (n // g)))
                    rhs = rhs.add(twisted.compose(tr_chain(ctx.prime_chain(g, a))))
                out.append((lhs == rhs, f"double coset fails at (a={a}, b={b}, e={e})"))
    return out


def _uncertified_hom(draw, source, target):
    width = target.num_generators
    rows = draw(st.lists(
        st.lists(st.sampled_from([0, 0, 1, -1, 2]), min_size=width, max_size=width).map(tuple),
        min_size=source.num_generators, max_size=source.num_generators,
    ))
    return AbHom(source, target, rows, check=False)


@st.composite
def uncertified_mackey(draw):
    """A functor over C_2, C_4 or C_6 on small presented levels whose res, tr and
    Weyl matrices are drawn at random and never certified: most are not well
    defined, and many notes fail or pass only modulo the relations."""
    ctx = GroupContext(draw(st.sampled_from([2, 4, 6])))
    level = {}
    for d in ctx.divisors:
        k = draw(st.integers(0, 3))
        row = st.lists(st.sampled_from([0, 1, -1, 2, 3]), min_size=k, max_size=k).map(tuple)
        level[d] = FgAbGroup(k, draw(st.lists(row, max_size=2)) if k else ())
    res = {(d, e): _uncertified_hom(draw, level[e], level[d]) for d, e in prime_edges(ctx)}
    tr = {(d, e): _uncertified_hom(draw, level[d], level[e]) for d, e in prime_edges(ctx)}
    weyl = {d: _uncertified_hom(draw, level[d], level[d]) for d in ctx.divisors}
    return MackeyFunctor(ctx, level, res, tr, weyl, name="drawn")


@settings(deadline=None, max_examples=200)
@given(uncertified_mackey())
def test_mackey_notes_match_the_composite_reference_on_uncertified_maps(m):
    assert check_axioms(m).checks == composite_mackey_checks(m)


@pytest.mark.parametrize(
    "build",
    [
        lambda: burnside(GroupContext(12)),
        lambda: representable(GroupContext(6), (1, 2)),
        lambda: fixed_point_mackey(GroupContext(4), FgAbGroup(4, ((0, 0, 3, 0), (0, 0, 0, 3))), ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))),
        lambda: norm_trivial_ring(BaseRing.integers_mod(4), 6),
        lambda: box(burnside(GroupContext(6)), burnside(GroupContext(6))).mackey,
    ],
    ids=["burnside_C12", "representable_C6", "fixed_point_torsion_C4", "norm_Z4_6", "box_AA_C6"],
)
def test_mackey_notes_match_the_composite_reference(build):
    m = build()
    ref = composite_mackey_checks(m)
    rep = check_axioms(m)
    assert rep.checks[: len(ref)] == ref and rep.passed


def _refuse_hom(*args, **kwargs):
    raise AssertionError("check_axioms built a hom")


@pytest.mark.parametrize(
    "build",
    [
        lambda: burnside(GroupContext(12)),
        lambda: fixed_point_mackey(GroupContext(6), FgAbGroup(4, ((0, 0, 2, 0), (0, 0, 0, 2))), ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))),
        lambda: norm_trivial_ring(BaseRing.integers_mod(4), 12),
        lambda: box(burnside(GroupContext(6)), burnside(GroupContext(6))).mackey,
    ],
    ids=["burnside_C12", "fixed_point_torsion_C6", "norm_Z4_12", "box_AA_C6"],
)
def test_check_axioms_builds_no_hom(monkeypatch, build):
    m = build()
    if isinstance(m, GreenFunctor):
        for d in m.ctx.divisors:  # a box table computes each product on its first read
            for cells in m.mult[d]:
                list(cells)
    for name in ("__init__", "compose", "add", "sub", "power", "identity", "zero"):
        monkeypatch.setattr(AbHom, name, _refuse_hom)
    monkeypatch.setattr(fgab, "mat_mul", _refuse_hom)
    for name in ("res_full", "tr_full", "twisted_res", "weyl_power"):
        monkeypatch.setattr(MackeyFunctor, name, _refuse_hom)
    rep = check_axioms(m)
    assert rep.passed, rep


# ---------------------------------------------------------------------------
# the Green certificate against its dense reference


RING_AXIOMS = ("unit fails", "commutativity fails", "associativity fails")


def dense_ring_checks(m):
    """The unit, commutativity and associativity checks of ``check_axioms`` as
    they read before its sparse rows: every basis triple by two dense
    ``multiply`` calls, compared with ``elements_equal`` (the helpers above)."""
    out = []
    for d in m.ctx.divisors:
        lv = m.level[d]
        gens = identity_matrix(lv.num_generators)
        prod = [[multiply(m, d, x, y) for y in gens] for x in gens]
        unit = dense_row(m.unit[d], lv.num_generators)
        for i in range(len(gens)):
            out.append((
                elements_equal(lv, multiply(m, d, unit, gens[i]), gens[i]),
                f"unit fails at level {d}, generator {i}",
            ))
            for j in range(len(gens)):
                out.append((
                    elements_equal(lv, prod[i][j], prod[j][i]),
                    f"commutativity fails at level {d} ({i},{j})",
                ))
                for t in range(len(gens)):
                    out.append((
                        elements_equal(
                            lv,
                            multiply(m, d, prod[i][j], gens[t]), multiply(m, d, gens[i], prod[j][t])
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
    prod = [[multiply(broken, 6, x, y) for y in gens] for x in gens]
    assert any(
        multiply(broken, 6, prod[i][j], gens[t]) != multiply(broken, 6, gens[i], prod[j][t])
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
    return PointedGMonoid(ctx, ["0", "1", "x"], "0", "1", rows, ["0", "1", "x"])


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


# rows with columns in range(2) that are still not sparse rows as Sparse stores them
NOT_SPARSE_ROWS = [
    pytest.param(((0, 0.5),), id="float_value"),
    pytest.param(((1, 1), (0, 1)), id="unsorted"),
    pytest.param(((0, 1), (0, 1)), id="repeated_column"),
    pytest.param(((0, 0),), id="zero_value"),
    pytest.param(((0, 1), (1, 0)), id="zero_among_nonzeros"),
    pytest.param(((0.0, 1),), id="float_column"),
    pytest.param(((False, 1),), id="bool_column"),
    pytest.param(((0, True),), id="bool_value"),
]


@pytest.mark.parametrize("cell", NOT_SPARSE_ROWS)
def test_green_functor_refuses_a_product_cell_that_is_not_a_sparse_row(cell):
    # a float cell, once accepted, made an exact product a float: multiply(2, (1, 0), (1, 0)) was (0.5, 0)
    b = burnside(GroupContext(2))
    mult = {**b.mult, 2: ((cell, b.mult[2][0][1]), b.mult[2][1])}
    with pytest.raises(ValueError, match=re.escape("mult[2] has wrong shape")):
        GreenFunctor(b.ctx, b.level, b.res, b.tr, b.weyl, mult, b.unit)


@pytest.mark.parametrize(
    "unit", [((2, 1),), ((0, 1), (5, 1)), ((-1, 1),), (0, 1), ((0, 1, 0),), *NOT_SPARSE_ROWS]
)
def test_green_functor_refuses_a_unit_of_the_wrong_length(unit):
    b = burnside(GroupContext(2))
    with pytest.raises(ValueError, match=re.escape("unit[2] has wrong length")):
        GreenFunctor(b.ctx, b.level, b.res, b.tr, b.weyl, b.mult, {**b.unit, 2: unit})



# ---------------------------------------------------------------------------
# the levelwise quotient and the refusals it builds through


def test_quotient_keeps_generators_maps_and_products():
    # 2·N(F_2) over C_4 is a Green ideal; at level 1 (F_2 itself) it is already 0
    g = norm_trivial_ring(BaseRing.integers_mod(2), 4)
    rows = {d: [tuple(2 * x for x in r) for r in AbHom.identity(g.level[d]).matrix] for d in (2, 4)}
    q = quotient(g, rows, "N(F_2)/2")
    assert isinstance(q, GreenFunctor) and q.name == "N(F_2)/2"
    assert q.level[1] == g.level[1]
    for d in (2, 4):
        assert q.level[d] == g.level[d].quotient(rows[d])
        assert q.level[d].canonical_form == ((2,), 0)  # Z/4 and Z/8 before
    for (d, e) in prime_edges(g.ctx):
        assert q.res[(d, e)].rows == g.res[(d, e)].rows
        assert q.tr[(d, e)].rows == g.tr[(d, e)].rows
    assert all(q.weyl[d].rows == g.weyl[d].rows for d in g.ctx.divisors)
    assert q.mult == g.mult and q.unit == g.unit
    assert check_axioms(q).passed


def test_quotient_of_a_plain_mackey_functor_is_plain():
    rep = representable(GroupContext(2), [1])
    q = quotient(rep, {}, "same")
    assert type(q) is MackeyFunctor
    assert all(q.level[d] == rep.level[d] for d in rep.ctx.divisors)


def test_quotient_refuses_a_subgroup_the_maps_do_not_respect():
    # level 1 of A(C_2) modulo everything, level 2 modulo nothing: tr is not defined
    b = burnside(GroupContext(2))
    with pytest.raises(NotWellDefinedError):
        quotient(b, {1: [(1,)]}, "bad")


def test_restrict_refuses_a_non_divisor():
    with pytest.raises(ValueError, match="4 does not divide 6"):
        restrict(burnside(GroupContext(6)), 4)


def test_mackey_validation_refuses_malformed_data():
    b = burnside(GroupContext(2))

    def build(level=b.level, res=b.res, tr=b.tr, weyl=b.weyl):
        return MackeyFunctor(b.ctx, level, res, tr, weyl)

    with pytest.raises(ValueError, match="levels must be indexed by the divisors of n"):
        build(level={1: b.level[1]})
    with pytest.raises(ValueError, match=re.escape("missing res/tr for prime edge (1, 2)")):
        build(tr={})
    with pytest.raises(ValueError, match=re.escape("res(1, 2) has wrong endpoints")):
        build(res={(1, 2): b.tr[(1, 2)]})
    with pytest.raises(ValueError, match=re.escape("tr(1, 2) has wrong endpoints")):
        build(tr={(1, 2): b.res[(1, 2)]})
    with pytest.raises(ValueError, match=re.escape("weyl[2] has wrong endpoints")):
        build(weyl={1: b.weyl[1], 2: b.weyl[1]})
