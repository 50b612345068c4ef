"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Every tolerance is exact; the two criteria with runtime
bounds assert them.
"""

import random
import time

from subgroups import same_levels
from mackeywitt.fgab import dense_row, free_group, nonzeros
from mackeywitt.geomfix import cyclotomic_check_norm, edgewise_comparison_norm, tr_tower
from mackeywitt.hochschild import hh, hh0_green, hh0_oracle, twisted_cyclic_nerve
from mackeywitt.mackey import (
    GroupContext,
    RingData,
    burnside,
    fixed_point_mackey,
)
from mackeywitt.norm import norm_trivial_ring
from mackeywitt.suites import SUITES, run_suites
from mackeywitt.wittcore import BaseRing
from mackeywitt.wittgreen import compare_with_classical, teichmuller_green, witt_green

Z = BaseRing.integers()
F2 = BaseRing.integers_mod(2)
F3 = BaseRing.integers_mod(3)
Z4 = BaseRing.integers_mod(4)
Z8 = BaseRing.integers_mod(8)


def report(num, ok, detail=""):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_norm_table():
    t0 = time.time()
    ok = True
    for p in (2, 3):
        ring = BaseRing.integers_mod(p)
        for n_exp in (1, 2, 3):
            nm = norm_trivial_ring(ring, p**n_exp)
            for k in range(n_exp + 1):
                ok = ok and nm.level[p**k].canonical_form == ((p ** (k + 1),), 0)
            for (d, e) in nm.res:
                res, tr = nm.res[(d, e)], nm.tr[(d, e)]
                ok = ok and res.is_surjective() and tr.is_injective()
                ok = ok and res.compose(tr) == tr.identity(nm.level[e]).scale(p)
            for d in nm.ctx.divisors:
                ok = ok and nm.weyl[d] == nm.weyl[d].identity(nm.level[d])
    elapsed = time.time() - t0
    report(1, ok and elapsed < 1.0, f"norm tables for p in {{2,3}}, n <= 3; {elapsed:.2f}s < 1s")


def test_criterion_2_twisted_hh_of_fp():
    ok = True
    worst = 0.0
    for p, n_exp in ((2, 1), (2, 2), (3, 1)):
        t0 = time.time()
        ring = BaseRing.integers_mod(p)
        nm = norm_trivial_ring(ring, p**n_exp)
        nerve = twisted_cyclic_nerve(nm, 4)
        # HH_0 equals the norm functor on the nose: no new relations
        ok = ok and same_levels(hh0_green(nm, nerve=nerve), nm)
        for k in (1, 2, 3):
            hk = hh(nm, k, nerve=nerve)
            for d in nm.ctx.divisors:
                ok = ok and hk.level[d].is_trivial()
        worst = max(worst, time.time() - t0)
    report(2, ok and worst < 120.0, f"HH_0 = norm, HH_1..3 = 0; worst case {worst:.1f}s < 120s")


def test_criterion_3_witt_comparison():
    ok = True
    details = []
    for ring, label in ((Z, "Z"), (Z4, "Z/4"), (F2, "F_2"), (F3, "F_3")):
        for n in (1, 2, 3, 4, 6):
            w = witt_green(ring, n)
            verdict = compare_with_classical(w, ring, n)
            ok = ok and verdict.isomorphic
            if not verdict.isomorphic:
                details.append(f"{label}, n={n}")
    report(3, ok, "20 ring/truncation pairs" + (f"; failed: {details}" if details else ""))


def _hh0_matches_oracle(r):
    return same_levels(hh0_green(r), hh0_oracle(r))


def test_criterion_4_hh0_oracle():
    rng = random.Random(12345)
    builders = []
    for n in range(1, 7):
        builders.append(("burnside", lambda n=n: burnside(GroupContext(n))))
    for ring, n in ((F2, 4), (F3, 3), (Z, 6), (Z4, 2)):
        builders.append((f"norm({ring!r},{n})", lambda ring=ring, n=n: norm_trivial_ring(ring, n)))
    # nontrivial-Weyl fixed-point examples
    swap_ring = RingData(mult=(((1, 0), (0, 0)), ((0, 0), (0, 1))), unit=(1, 1))
    builders.append((
        "Z x Z swap (C_2)",
        lambda: fixed_point_mackey(GroupContext(2), free_group(2), ((0, 1), (1, 0)), swap_ring),
    ))
    sign_ring = RingData(mult=(((1, 0), (0, 1)), ((0, 1), (0, 0))), unit=(1, 0))
    builders.append((
        "Z[x]/x^2 sign (C_2)",
        lambda: fixed_point_mackey(GroupContext(2), free_group(2), ((1, 0), (0, -1)), sign_ring),
    ))
    rot3 = tuple(
        tuple(1 if j == (i + 1) % 3 else 0 for j in range(3)) for i in range(3)
    )
    prod3_ring = RingData(
        mult=tuple(
            tuple(tuple(1 if (t == i and i == j) else 0 for t in range(3)) for j in range(3))
            for i in range(3)
        ),
        unit=(1, 1, 1),
    )
    builders.append((
        "Z^3 rotation (C_6)",
        lambda: fixed_point_mackey(GroupContext(6), free_group(3), rot3, prod3_ring),
    ))
    ok = True
    failed = []
    for name, builder in builders:
        if not _hh0_matches_oracle(builder()):
            ok = False
            failed.append(name)
    report(4, ok, f"{len(builders)} Green functors, n <= 6" + (f"; failed {failed}" if failed else ""))


def test_criterion_5_cyclotomic_structure():
    ok = True
    for ring, n, m in ((F2, 4, 2), (F2, 6, 2), (F3, 6, 3)):
        rep = cyclotomic_check_norm(ring, n, m, 2)
        ok = ok and rep.passed
    report(5, ok, "degreewise nerve isomorphism under phi, degrees <= 2")


def test_criterion_6_algebraic_tr():
    ok = True
    for p in (2, 3):
        t = tr_tower(BaseRing.integers_mod(p), p, 3, 0)
        ok = ok and [s.group.canonical_form for s in t.stages] == [
            ((p,), 0), ((p * p,), 0), ((p**3,), 0)
        ]
        ok = ok and all(h.is_surjective() for h in t.maps)
        ok = ok and t.limit_description.startswith("Z_p") and t.precision == 3
    for k in (1, 2):
        t = tr_tower(F2, 2, 3, k)
        ok = ok and all(s.group.is_trivial() for s in t.stages)
        ok = ok and t.limit_description == "0"
    report(6, ok, "towers Z/p <- Z/p^2 <- Z/p^3 (limit Z_p, precision 3); k=1,2 towers zero")


def test_criterion_7_teichmuller():
    rng = random.Random(777)
    ok = True
    for ring, n in ((Z8, 2), (F3, 3), (F2, 4), (Z4, 4)):
        w = witt_green(ring, n)
        top = w.top()
        for _ in range(100):
            r = rng.randrange(ring.modulus)
            s = rng.randrange(ring.modulus)
            lhs = w.green.multiply(n, teichmuller_green(w, r), teichmuller_green(w, s))
            ok = ok and top.same_class(lhs, teichmuller_green(w, r * s))
        for r in range(min(ring.modulus, 5)):
            bottom = w.green.res_full(n, 1).apply(teichmuller_green(w, r))
            unit = dense_row(w.green.unit[1], w.green.level[1].num_generators)
            expected = tuple((r**n) * u for u in unit)
            ok = ok and w.green.level[1].same_class(bottom, nonzeros(expected))
    wz = witt_green(Z, 4)
    for r in (-2, -1, 0, 1, 2, 3):
        for s in (-1, 2, 5):
            lhs = wz.green.multiply(4, teichmuller_green(wz, r), teichmuller_green(wz, s))
            ok = ok and wz.top().same_class(lhs, teichmuller_green(wz, r * s))
        bottom = wz.green.res_full(4, 1).apply(teichmuller_green(wz, r))
        ok = ok and dense_row(bottom, 1) == (r**4,)
    report(7, ok, "multiplicativity on 100 random pairs per ring; bottom restriction = r^n")


def test_criterion_8_edgewise_subdivision():
    rep = edgewise_comparison_norm(F2, 4, 2, 2)
    report(8, rep.passed, "i_J^* HC^{C_4}(F_2) = sd_2 HC^{C_2}(F_2) degreewise, degrees <= 2")


def test_criterion_9_monoid_splitting():
    from mackeywitt.cycmonoid import PointedGMonoid, monoid_algebra, splitting_check

    def dual_monoid(ctx):
        return PointedGMonoid(
            ctx, ["0", "1", "x"], "0", "1",
            [["0", "0", "0"], ["0", "1", "x"], ["0", "x", "0"]],
            ["0", "1", "x"],
        )

    def const_z(n):
        return fixed_point_mackey(
            GroupContext(n), free_group(1), ((1,),), RingData(mult=(((1,),),), unit=(1,))
        )

    ok = True
    m1 = dual_monoid(GroupContext(1))
    rep1 = splitting_check(monoid_algebra(const_z(1), m1), m1, 0)
    ok = ok and rep1.passed
    ok = ok and rep1.homology_right[0][1] == ((), 2)  # Z[x]/x^2
    m2 = dual_monoid(GroupContext(2))
    rep2 = splitting_check(monoid_algebra(const_z(2), m2), m2, 0)
    ok = ok and rep2.passed
    report(9, ok, "H_0 agreement for dual numbers over n in {1,2}; Z[x]/x^2 at n=1")


def test_criterion_10_structural_suites():
    results = run_suites(sorted(SUITES), 20260809)
    total = sum(r.cases for r in results)
    failures = [f for r in results for f in r.failures]
    report(
        10,
        total >= 200 and not failures,
        f"{total} randomized cases across {len(results)} suites, {len(failures)} failures",
    )
