"""Seeded randomized property suites; the CLI `check` command runs these.

Every suite returns a mackey.Report with one check per case exercised; its
failures are empty on a healthy build.  Identical seeds give identical
runs.
"""

from __future__ import annotations

import random

from .fgab import FgAbGroup, mat, mat_mul, snf
from .green import box, box_swap_hom, representable_rule_iso, unit_iso
from .hochschild import hh0_green, hh0_oracle, moore_complex, twisted_cyclic_nerve
from .mackey import (
    GroupContext,
    Report,
    RingData,
    burnside,
    check_axioms,
    fixed_point_mackey,
    representable,
)
from .norm import norm_trivial_ring
from .wittcore import BaseRing, TruncationSet, frobenius, ghost, teichmuller, verschiebung, witt, witt_add, witt_mul, witt_scalar


def _random_fixed_point(ctx: GroupContext, rng: random.Random, ring: bool = False):
    """A random module (or ring) with finite-order action: permuted coordinates."""
    n = ctx.n
    k = rng.choice([d for d in ctx.divisors])
    torsion = rng.choice([0, 2, 3, 4])
    rows = []
    size = k if torsion == 0 else 2 * k
    rels = []
    if torsion:
        for i in range(k):
            r = [0] * size
            r[k + i] = torsion
            rels.append(tuple(r))
    group = FgAbGroup(size, rels)
    act = [[0] * size for _ in range(size)]
    for i in range(k):
        act[i][(i + 1) % k] = 1
        if torsion:
            act[k + i][k + (i + 1) % k] = 1
    action = mat(act)
    if not ring:
        return group, action
    # product ring: one factor (ℤ or ℤ × ℤ/t) per generator, with the action
    # permuting factors, hence acting by ring maps; unit = all-ones
    mult = []
    for i in range(size):
        rowtab = []
        for j in range(size):
            r = [0] * size
            if i == j:
                r[i] = 1
            rowtab.append(tuple(r))
        mult.append(tuple(rowtab))
    unit = tuple([1] * size)
    return group, action, RingData(mult=tuple(mult), unit=unit)


def suite_snf_roundtrip(seed: int) -> Report:
    res = Report("snf-roundtrip")
    rng = random.Random(seed)
    for _ in range(60):
        r = rng.randint(0, 8)
        c = rng.randint(0, 8)
        m = mat([[rng.randint(-20, 20) for _ in range(c)] for _ in range(r)])
        u, d, v = snf(m)
        ok = mat(mat_mul(mat_mul(u, m), v)) == d
        k = min(r, c)
        diag = [d[i][i] for i in range(k)]
        nz = [x for x in diag if x]
        ok = ok and all(x >= 0 for x in diag) and diag[: len(nz)] == nz
        ok = ok and all(b % a == 0 for a, b in zip(nz, nz[1:]))
        res.note(ok, f"snf round-trip failed on {m}")
    return res


def suite_mackey_axioms(seed: int) -> Report:
    res = Report("mackey-axioms")
    rng = random.Random(seed)
    for n in (1, 2, 3, 4, 5, 6):
        ctx = GroupContext(n)
        rep = check_axioms(burnside(ctx))
        res.note(rep.passed, f"burnside(C_{n}): {rep.failures[:2]}")
        for _ in range(2):
            t = [rng.choice(ctx.divisors) for _ in range(rng.randint(1, 2))]
            rep = check_axioms(representable(ctx, t))
            res.note(rep.passed, f"representable(C_{n}, {t}): {rep.failures[:2]}")
        for _ in range(2):
            group, action = _random_fixed_point(ctx, rng)
            rep = check_axioms(fixed_point_mackey(ctx, group, action))
            res.note(rep.passed, f"fixed_point(C_{n}): {rep.failures[:2]}")
    for n in (7, 8, 9, 10, 11, 12):
        ctx = GroupContext(n)
        res.note(check_axioms(burnside(ctx)).passed, f"burnside(C_{n})")
        t = [rng.choice(ctx.divisors)]
        res.note(check_axioms(representable(ctx, t)).passed, f"representable(C_{n},{t})")
        group, action = _random_fixed_point(ctx, rng)
        res.note(check_axioms(fixed_point_mackey(ctx, group, action)).passed, f"fixed_point(C_{n})")
    for ring in (BaseRing.integers(), BaseRing.integers_mod(2), BaseRing.integers_mod(4)):
        for n in (2, 3, 4, 6, 8, 9, 12):
            rep = check_axioms(norm_trivial_ring(ring, n))
            res.note(rep.passed, f"norm({ring!r},{n}): {rep.failures[:2]}")
    return res


def suite_box_contract(seed: int) -> Report:
    res = Report("box-contract")
    rng = random.Random(seed)
    for n in (2, 3, 4, 6):
        ctx = GroupContext(n)
        b = burnside(ctx)
        probes = [
            burnside(ctx),
            representable(ctx, [rng.choice(ctx.divisors)]),
            fixed_point_mackey(ctx, *_random_fixed_point(ctx, rng)),
        ]
        for m in probes:
            res.note(unit_iso(box(b, m)).is_isomorphism(), f"unitality C_{n}")
        a, c = probes[1], probes[2]
        p1, p2 = box(a, c), box(c, a)
        res.note(box_swap_hom(p1, p2).is_isomorphism(), f"symmetry C_{n}")
        for _ in range(2):
            t1 = tuple(rng.choice(ctx.divisors) for _ in range(rng.randint(1, 2)))
            t2 = tuple(rng.choice(ctx.divisors) for _ in range(rng.randint(1, 2)))
            hom, _ = representable_rule_iso(ctx, t1, t2)
            res.note(hom.is_isomorphism(), f"representable rule C_{n} {t1} x {t2}")
        res.note(check_axioms(box(b, b).mackey).passed, f"box axioms C_{n}")
    return res


def suite_dd_zero(seed: int) -> Report:
    res = Report("dd-zero")
    rng = random.Random(seed)
    builders = [
        lambda: burnside(GroupContext(rng.choice([2, 3, 4, 6]))),
        lambda: norm_trivial_ring(BaseRing.integers_mod(rng.choice([2, 3])), rng.choice([2, 3, 4])),
        lambda: fixed_point_mackey(GroupContext(2), *_random_fixed_point(GroupContext(2), rng, ring=True)),
    ]
    for builder in builders:
        for _ in range(2):
            r = builder()
            b = moore_complex(twisted_cyclic_nerve(r, 2)).boundaries
            res.note(all(b[j].compose(b[j - 1]).is_zero() for j in range(2, len(b))), "∂∘∂ = 0 certified")
    return res


def suite_hh0_oracle(seed: int) -> Report:
    res = Report("hh0-oracle")
    rng = random.Random(seed)
    builders = []
    for n in (1, 2, 3, 4, 5, 6):
        builders.append(lambda n=n: burnside(GroupContext(n)))
    builders.append(lambda: norm_trivial_ring(BaseRing.integers_mod(2), 4))
    builders.append(lambda: norm_trivial_ring(BaseRing.integers(), 6))
    for n in (2, 4, 6):
        builders.append(
            lambda n=n: fixed_point_mackey(GroupContext(n), *_random_fixed_point(GroupContext(n), rng, ring=True))
        )
    for builder in builders:
        r = builder()
        q = hh0_green(r)
        oracle = hh0_oracle(r)
        # the same subgroup at each level: either quotient's relations are zero in the other
        ok = all(
            all(x.same_class(row, ()) for row in y.rels)
            for d in q.ctx.divisors
            for x, y in ((q.level[d], oracle.level[d]), (oracle.level[d], q.level[d]))
        )
        res.note(ok, f"hh0 != oracle for {r.name}")
    return res


def suite_witt_ghost(seed: int) -> Report:
    res = Report("witt-ghost")
    rng = random.Random(seed)
    Z = BaseRing.integers()
    for n in (2, 3, 4, 6, 8, 12):
        S = TruncationSet.of(n)
        for _ in range(5):
            a = witt(S, Z, [rng.randint(-5, 5) for _ in S.sorted()])
            b = witt(S, Z, [rng.randint(-5, 5) for _ in S.sorted()])
            ga, gb = ghost(a), ghost(b)
            gs, gp = ghost(witt_add(a, b)), ghost(witt_mul(a, b))
            ok = all(gs[d] == ga[d] + gb[d] and gp[d] == ga[d] * gb[d] for d in S.sorted())
            res.note(ok, f"ghost hom fails at n={n}")
    return res


def suite_witt_fv(seed: int) -> Report:
    res = Report("witt-frobenius-verschiebung")
    rng = random.Random(seed)
    Z = BaseRing.integers()
    for p in (2, 3):
        S = TruncationSet.of(p * p)
        for _ in range(8):
            x = witt(S, Z, [rng.randint(-4, 4) for _ in S.sorted()])
            y = witt(S.quotient(p), Z, [rng.randint(-4, 4) for _ in S.quotient(p).sorted()])
            fv = frobenius(p, verschiebung(p, y, S))
            res.note(fv == witt_scalar(p, y), f"F_pV_p != p at p={p}")
            lhs = witt_mul(x, verschiebung(p, y, S))
            rhs = verschiebung(p, witt_mul(frobenius(p, x), y), S)
            res.note(lhs == rhs, f"projection formula fails at p={p}")
    for _ in range(10):
        r, s = rng.randint(-6, 6), rng.randint(-6, 6)
        S = TruncationSet.of(6)
        res.note(
            witt_mul(teichmuller(S, Z, r), teichmuller(S, Z, s)) == teichmuller(S, Z, r * s),
            "teichmuller multiplicativity",
        )
    return res


def suite_norm_module(seed: int) -> Report:
    res = Report("norm-structure")
    for p in (2, 3):
        ring = BaseRing.integers_mod(p)
        for k in (1, 2, 3):
            nm = norm_trivial_ring(ring, p**k)
            for (d, e) in nm.res:
                comp = nm.res[(d, e)].compose(nm.tr[(d, e)])
                res.note(
                    comp == comp.identity(nm.level[e]).scale(p),
                    f"tr∘res != {p} on norm(F_{p}, {p**k})",
                )
                res.note(nm.res[(d, e)].is_surjective(), "res not surjective")
                res.note(nm.tr[(d, e)].is_injective(), "tr not injective")
    return res


SUITES = {
    "snf": suite_snf_roundtrip,
    "mackey": suite_mackey_axioms,
    "box": suite_box_contract,
    "ddzero": suite_dd_zero,
    "hh0": suite_hh0_oracle,
    "ghost": suite_witt_ghost,
    "wittfv": suite_witt_fv,
    "norm": suite_norm_module,
}


def run_suites(names, seed: int):
    out = []
    for name in names:
        out.append(SUITES[name](seed))
    return out


def run_all(seed: int):
    return run_suites(sorted(SUITES), seed)
