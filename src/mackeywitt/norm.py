"""The norm N_e^{C_n} of a trivial-action commutative ring, via Witt levels.

Level d is the additive group of W_⟨d⟩(R); restrictions are Frobenius maps,
transfers are Verschiebungs, the Weyl action is trivial, and multiplication
is Witt multiplication.  Over ℤ the additive basis is {V_e([1]) : e | d}
(triangular ghost matrix, so coordinates are exact integer solves); over
ℤ/m each level's additive group is brute-forced from Witt addition.
"""

from __future__ import annotations

from functools import cached_property

from . import wittcore
from .fgab import _SNF, AbHom, FgAbGroup, Sparse, dense_row, nonzeros, row_mul, solve_left
from .mackey import GreenFunctor, GroupContext, Report, prime_edges
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


class NormGreenFunctor(GreenFunctor):
    """N_e^{C_n} R: a Green functor whose level d is W_⟨d⟩(R), with its Witt generators."""

    def __init__(self, ctx, level, res, tr, weyl, mult, unit, base_ring: BaseRing, witt_levels: dict, name=""):
        super().__init__(ctx, level, res, tr, weyl, mult, unit, name)
        self.base_ring = base_ring
        self.witt_levels = witt_levels


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
    return NormGreenFunctor(ctx, group, res, tr, weyl, mult, unit, ring, levels, name=f"N({ring},{n})")


def external_norm_element(norm: NormGreenFunctor, r: int) -> tuple[int, ...]:
    """Teichmüller vector [r] as a top-level element row; multiplicative in r."""
    top = norm.witt_levels[norm.ctx.n]
    return top.coords(teichmuller(top.truncation, norm.base_ring, r))


def truncation_rows(src: NormGreenFunctor, e: int, dst: NormGreenFunctor, e2: int):
    """Matrix (Sparse) of the Witt truncation W_⟨e⟩(R) → W_⟨e2⟩(R) on norm generators."""
    lv_src = src.witt_levels[e]
    lv_dst = dst.witt_levels[e2]
    trunc = lv_dst.truncation
    rows = []
    for g in lv_src.gens:
        w = WittVector(trunc, src.base_ring, {u: g.components[u] for u in trunc.elements})
        rows.append(lv_dst.coords(w))
    return Sparse.of(rows, lv_dst.group.num_generators)


def check_norm_restriction_identity(ring: BaseRing, n: int, j: int) -> Report:
    """i_J^* N_e^{C_n} R ≅ (N_e^{C_j} R)^{□ n/j}, with the tensor-induction action.

    The comparison map multiplies the box slots inside each Witt level and
    transfers up; it is checked to be a natural isomorphism of Green
    functors intertwining the restricted Weyl generator with
    rotate-then-twist on the box side.
    """
    from .green import box_power
    from .mackey import restrict

    if n % j:
        raise ValueError("j must divide n")
    report = Report("norm restriction identity")
    big = norm_trivial_ring(ring, n)
    small = norm_trivial_ring(ring, j)
    restricted = restrict(big, j)
    pres = box_power(small, n // j)
    src = pres.mackey
    ctxj = GroupContext(j)

    def theta_row(d, e, tup):
        lv = small.witt_levels[e]
        prod = one(lv.truncation, ring)
        for i in tup:
            prod = witt_mul(prod, lv.gens[i])
        return row_mul(nonzeros(big.witt_levels[e].coords(prod)), restricted.tr_full(e, d).rows)

    theta = pres.hom(restricted, theta_row, natural=False)
    maps = theta.maps
    nat = theta.naturality_failures()
    report.note(not nat, f"comparison map natural ({nat[:2] if nat else 'yes'})")
    report.note(theta.is_isomorphism(), "comparison map is a levelwise isomorphism")

    # multiplicativity on tag pairs
    ok_mult = True
    for d in ctxj.divisors:
        images = [dense_row(r, restricted.level[d].num_generators) for r in maps[d].rows]
        for a, ia in enumerate(images):
            for b, ib in enumerate(images):
                lhs = maps[d].apply(src.mult[d][a][b])
                rhs = restricted.multiply(d, ia, ib)
                if not restricted.level[d].elements_equal(lhs, rhs):
                    ok_mult = False
    report.note(ok_mult, "comparison map is multiplicative")
    ok_unit = all(
        restricted.level[d].elements_equal(maps[d].apply(src.unit[d]), restricted.unit[d])
        for d in ctxj.divisors
    )
    report.note(ok_unit, "comparison map preserves units")

    # tensor induction: the original C_n generator acts on the box side by
    # rotating the factors and twisting the wrapped factor by C_j's generator
    def rotation_row(d, e, tup):
        w = small.weyl_power(e, 1).rows  # trivial here, kept for clarity
        return pres.expand(d, e, [w[tup[-1]]] + [((i, 1),) for i in tup[:-1]])

    rot = pres.hom(src, rotation_row, natural=False)
    ok_rot = all(rot.maps[d].compose(maps[d]) == maps[d].compose(big.weyl[d]) for d in ctxj.divisors)
    report.note(ok_rot, "restricted Weyl generator acts as rotation-with-twist")
    return report
