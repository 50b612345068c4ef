"""The norm N_e^{C_n} of a trivial-action commutative ring, via Witt levels.

Level d is the additive group of W_⟨d⟩(R); restrictions are Frobenius maps,
transfers are Verschiebungs, the Weyl action is trivial, and multiplication
is Witt multiplication.  Over ℤ the additive basis is {V_e([1]) : e | d}
(triangular ghost matrix, so coordinates are exact integer solves); over
ℤ/m each level's additive group is brute-forced from Witt addition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import wittcore
from .fgab import _SNF, AbHom, FgAbGroup, solve_left
from .mackey import GreenFunctor, GroupContext, MackeyFunctor, divisors, prime_edges
from .wittcore import (
    BaseRing,
    TruncationSet,
    UnsupportedRingError,
    WittVector,
    frobenius,
    ghost,
    one,
    teichmuller,
    verschiebung,
    witt_add,
    witt_mul,
    witt_neg,
    zero,
)


class WittLevel:
    """One norm level: a presented group whose generators are Witt vectors."""

    def __init__(self, ring: BaseRing, d: int):
        self.ring = ring
        self.d = d
        self.truncation = TruncationSet.of(d)
        if ring.is_torsion_free:
            self._init_integral()
        else:
            self._init_finite()

    def _init_integral(self):
        divs = self.truncation.sorted()
        self.gens = [
            verschiebung(e, one(TruncationSet.of(self.d // e), self.ring), self.truncation)
            for e in divs
        ]
        self._ghost_rows = tuple(
            tuple(ghost(g)[m] for m in divs) for g in self.gens
        )
        self.group = FgAbGroup(len(self.gens), ())
        self._table = None

    def _init_finite(self):
        z = zero(self.truncation, self.ring)
        table = {z.component_tuple(): ()}
        elements = {z.component_tuple(): z}
        gens: list[WittVector] = []
        relations: list[tuple[int, ...]] = []
        for cand in wittcore.all_vectors(self.truncation, self.ring):
            key = cand.component_tuple()
            if key in table:
                continue
            # adjoin cand as a new generator; find its order relative to the
            # current subgroup, then extend the element table
            multiples = []
            acc = cand
            while acc.component_tuple() not in table:
                multiples.append(acc)
                acc = witt_add(acc, cand)
            order = len(multiples) + 1  # smallest o with o·cand in the old subgroup
            base_coords = table[acc.component_tuple()]
            k = len(gens)
            relations = [r + (0,) for r in relations]
            relations.append(tuple(-c for c in base_coords) + (0,) * (k - len(base_coords)) + (order,))
            new_table = {}
            for key0, coords in table.items():
                h = elements[key0]
                step = h
                new_table[key0] = coords + (0,) * (k - len(coords)) + (0,)
                for j in range(1, order):
                    step = witt_add(step, cand)
                    kj = step.component_tuple()
                    new_table[kj] = coords + (0,) * (k - len(coords)) + (j,)
                    elements[kj] = step
            gens.append(cand)
            table = new_table
        width = len(gens)
        self.gens = gens
        self._table = {k: v + (0,) * (width - len(v)) for k, v in table.items()}
        self.group = FgAbGroup(width, [r + (0,) * (width - len(r)) for r in relations])
        self._ghost_rows = None

    @cached_property
    def _ghost_snf(self) -> _SNF:
        return _SNF(self._ghost_rows)

    def coords(self, w: WittVector) -> tuple[int, ...]:
        if self.ring.is_torsion_free:
            target = tuple(ghost(w)[m] for m in self.truncation.sorted())
            sol = solve_left(self._ghost_rows, target, self._ghost_snf)
            if sol is None:
                raise AssertionError("integral Witt vector outside the V-basis lattice")
            return sol
        return self._table[w.component_tuple()]

    def element(self, row) -> WittVector:
        acc = zero(self.truncation, self.ring)
        for c, g in zip(row, self.gens):
            step = g if c >= 0 else witt_neg(g)
            for _ in range(abs(c)):
                acc = witt_add(acc, step)
        return acc


@dataclass
class NormGreenFunctor:
    """N_e^{C_n} R with Witt levels and their generator bookkeeping."""

    base_ring: BaseRing
    ctx: GroupContext
    green: GreenFunctor
    witt_levels: dict = field(default_factory=dict)

    @property
    def underlying(self) -> MackeyFunctor:
        return self.green.underlying

    @property
    def level(self):
        return self.green.level

    def multiply(self, d, x, y):
        return self.green.multiply(d, x, y)

    @property
    def unit(self):
        return self.green.unit

    @property
    def mult(self):
        return self.green.mult

    def res_full(self, e, d):
        return self.green.res_full(e, d)

    def tr_full(self, d, e):
        return self.green.tr_full(d, e)

    def weyl_power(self, d, k):
        return self.green.weyl_power(d, k)


def norm_trivial_ring(ring: BaseRing, n: int) -> NormGreenFunctor:
    """The norm Green functor of a trivial-action base ring (ℤ or ℤ/m).

    Over ℤ/m the top level's enumeration is checked against the budget
    before any level is built.
    """
    if not isinstance(ring, BaseRing):
        raise UnsupportedRingError("base ring must be ℤ or ℤ/m")
    ctx = GroupContext(n)
    if not ring.is_torsion_free:
        wittcore.require_enumerable(ring.modulus, len(ctx.divisors))
    levels = {d: WittLevel(ring, d) for d in ctx.divisors}
    group = {d: levels[d].group for d in ctx.divisors}
    res = {}
    tr = {}
    for (d, e) in prime_edges(ctx):
        p = e // d
        rows = [levels[d].coords(frobenius(p, g)) for g in levels[e].gens]
        res[(d, e)] = AbHom(group[e], group[d], rows)
        rows = [
            levels[e].coords(verschiebung(p, g, levels[e].truncation))
            for g in levels[d].gens
        ]
        tr[(d, e)] = AbHom(group[d], group[e], rows)
    weyl = {d: AbHom.identity(group[d]) for d in ctx.divisors}
    m = MackeyFunctor(ctx, group, res, tr, weyl, name=f"N({ring},{n})")
    mult = {}
    unit = {}
    for d in ctx.divisors:
        lv = levels[d]
        k = len(lv.gens)
        table = []
        for i in range(k):
            table.append(tuple(lv.coords(witt_mul(lv.gens[i], lv.gens[j])) for j in range(k)))
        mult[d] = tuple(table)
        unit[d] = lv.coords(one(lv.truncation, ring))
    return NormGreenFunctor(ring, ctx, GreenFunctor(m, mult, unit), levels)


def external_norm_element(norm: NormGreenFunctor, r: int) -> tuple[int, ...]:
    """Teichmüller vector [r] as a top-level element row; multiplicative in r."""
    top = norm.witt_levels[norm.ctx.n]
    return top.coords(teichmuller(top.truncation, norm.base_ring, r))


def truncation_rows(src: NormGreenFunctor, e: int, dst: NormGreenFunctor, e2: int):
    """Matrix of the Witt truncation W_⟨e⟩(R) → W_⟨e2⟩(R) on norm generators."""
    lv_src = src.witt_levels[e]
    lv_dst = dst.witt_levels[e2]
    trunc = lv_dst.truncation
    rows = []
    for g in lv_src.gens:
        w = WittVector(trunc, src.base_ring, {u: g.components[u] for u in trunc.elements})
        rows.append(lv_dst.coords(w))
    return tuple(rows)


@dataclass
class NormRestrictionReport:
    checks: list = field(default_factory=list)

    def note(self, ok: bool, msg: str):
        self.checks.append((ok, msg))

    @property
    def passed(self):
        return all(ok for ok, _ in self.checks)

    def __repr__(self):
        lines = [("ok  " if ok else "FAIL") + " " + m for ok, m in self.checks]
        return "NormRestrictionReport(\n  " + "\n  ".join(lines) + "\n)"


def check_norm_restriction_identity(ring: BaseRing, n: int, j: int) -> NormRestrictionReport:
    """i_J^* N_e^{C_n} R ≅ (N_e^{C_j} R)^{□ n/j}, with the tensor-induction action.

    The comparison map multiplies the box slots inside each Witt level and
    transfers up; it is checked to be a natural isomorphism of Green
    functors intertwining the restricted Weyl generator with
    rotate-then-twist on the box side.
    """
    from .green import box_power
    from .mackey import MackeyHom, restrict

    if n % j:
        raise ValueError("j must divide n")
    report = NormRestrictionReport()
    big = norm_trivial_ring(ring, n)
    small = norm_trivial_ring(ring, j)
    restricted = restrict(big.green, j)
    k = n // j
    pres = box_power(small, k)
    src = pres.mackey
    ctxj = GroupContext(j)

    maps = {}
    for d in ctxj.divisors:
        rows = []
        for (e, tup) in pres.tags[d]:
            lv = small.witt_levels[e]
            prod = one(lv.truncation, ring)
            for i in tup:
                prod = witt_mul(prod, lv.gens[i])
            v = big.witt_levels[e].coords(prod)
            rows.append(restricted.underlying.tr_full(e, d).apply(v))
        maps[d] = AbHom(src.level[d], restricted.level[d], rows)
    theta = MackeyHom(src, restricted.underlying, maps, check=False)
    nat = theta.naturality_failures()
    report.note(not nat, f"comparison map natural ({nat[:2] if nat else 'yes'})")
    report.note(theta.is_isomorphism(), "comparison map is a levelwise isomorphism")

    # multiplicativity on tag pairs
    ok_mult = True
    for d in ctxj.divisors:
        kgens = src.level[d].num_generators
        box_green = pres.result
        for a in range(kgens):
            ea = tuple(1 if i == a else 0 for i in range(kgens))
            for b in range(kgens):
                eb = tuple(1 if i == b else 0 for i in range(kgens))
                lhs = maps[d].apply(box_green.multiply(d, ea, eb))
                rhs = restricted.multiply(d, maps[d].apply(ea), maps[d].apply(eb))
                if not restricted.level[d].elements_equal(lhs, rhs):
                    ok_mult = False
    report.note(ok_mult, "comparison map is multiplicative")
    ok_unit = all(
        restricted.level[d].elements_equal(maps[d].apply(pres.result.unit[d]), restricted.unit[d])
        for d in ctxj.divisors
    )
    report.note(ok_unit, "comparison map preserves units")

    # tensor induction: the original C_n generator acts on the box side by
    # rotating the factors and twisting the wrapped factor by C_j's generator
    ok_rot = True
    for d in ctxj.divisors:
        rows = []
        for (e, tup) in pres.tags[d]:
            w = small.weyl_power(e, 1).matrix  # trivial here, kept for clarity
            rotated = (tup[-1],) + tup[:-1]
            slot_rows = [w[rotated[0]]] + [
                tuple(1 if t == i else 0 for t in range(small.level[e].num_generators))
                for i in rotated[1:]
            ]
            rows.append(pres.expand(d, e, slot_rows))
        rot = AbHom(src.level[d], src.level[d], rows)
        lhs = rot.compose(maps[d])
        rhs = maps[d].compose(big.underlying.weyl[d])
        if lhs != rhs:
            ok_rot = False
    report.note(ok_rot, "restricted Weyl generator acts as rotation-with-twist")
    return report
