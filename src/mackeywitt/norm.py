"""The norm N_e^{C_n} of a trivial-action commutative ring, via Witt levels.

Level d is the additive group of W_⟨d⟩(R); restrictions are Frobenius maps,
transfers are Verschiebungs, the Weyl action is trivial, and multiplication
is Witt multiplication.  Each level is presented on {V_e([1]) : e | d}, a
basis of W_⟨d⟩(ℤ) and so generators of its quotient W_⟨d⟩(ℤ/m), whose
presentation is certified exact when it is built.  A Witt vector's
coordinates on those generators are a sparse row, the form of the product
tables, units and hom matrices built from them.
"""

from __future__ import annotations

from math import prod

from . import wittcore
from .fgab import AbHom, FgAbGroup, Sparse, SparseRow, composites_agree, nonzeros, row_mul, sparse_row
from .mackey import GreenFunctor, GroupContext, Report, prime_edges, sparse_product
from .wittcore import (
    BaseRing,
    TruncationSet,
    UnsupportedRingError,
    WittVector,
    divisors,
    frobenius,
    one,
    teichmuller,
    v_coordinates,
    verschiebung,
    witt_combination,
    witt_mul,
    witt_scalar,
    zero,
)


class WittLevel:
    """One norm level: a presented group whose generators are Witt vectors.

    The generators are V_s([1]), s | d: over ℤ a basis, in increasing s.
    Over ℤ/m, in decreasing s, g_k has order m modulo g_0, ..., g_{k-1}
    (the vectors supported on the k + 1 largest s form a subgroup, additive
    in the smallest s), so relation row k is m·e_k − coords(m·g_k).
    """

    def __init__(self, ring: BaseRing, d: int):
        self.ring = ring
        self.d = d
        self.truncation = TruncationSet.of(d)
        m = ring.modulus
        divs = self.truncation.sorted()[::-1 if m else 1]
        self.gens = [verschiebung(s, one(TruncationSet.of(d // s), ring), self.truncation) for s in divs]
        self._rows: list = []  # sparse relation rows
        if m:
            for k, g in enumerate(self.gens):
                acc = {j: -c for j, c in self.coords(witt_scalar(m, g))}
                acc[k] = acc.get(k, 0) + m
                self._rows.append(sparse_row(acc))
            self._certify()
        self.group = FgAbGroup(len(divs), Sparse(self._rows, len(divs)))

    def _certify(self) -> None:
        """Prove the ℤ/m presentation exact, or raise AssertionError: the rows
        map to 0 (a map to W), the generators are unitriangular (onto), and
        the rows are lower triangular of determinant m^τ = |W| (one to one)."""
        rows, tau, m = self._rows, len(self.gens), self.ring.modulus
        z = zero(self.truncation, self.ring)
        bad = [k for k, r in enumerate(rows) if self.element(r) != z]
        bad += [k for k, r in enumerate(rows) if any(j > k for j, _ in r)]
        if bad or not unitriangular(self.gens, tau) or prod(dict(r).get(k, 0) for k, r in enumerate(rows)) != m**tau:
            raise AssertionError(f"W_<{self.d}>({self.ring}) is not presented exactly (rows {bad})")

    def coords(self, w: WittVector):
        """w on the generators, as a sparse row: exact over ℤ, with entries in [0, m) over ℤ/m."""
        c = v_coordinates(w)
        m = self.ring.modulus
        if m:
            c.reverse()
            for k in reversed(range(len(self._rows))):
                q = c[k] // m
                if q:
                    for j, x in self._rows[k]:
                        if j <= k:
                            c[j] -= q * x
        return nonzeros(c)

    def element(self, row) -> WittVector:
        """The Witt sum of the generators with the coefficients of the sparse row."""
        if not row:
            return zero(self.truncation, self.ring)
        idx, coeffs = zip(*row)
        return witt_combination(coeffs, [self.gens[j] for j in idx])


def unitriangular(vectors, k: int) -> bool:
    """Leading Witt components are ±1, one at each of the k positions.

    Then the vectors generate: those whose first j components vanish form a
    subgroup, on which component j + 1 is additive.
    """
    leads = set()
    for v in vectors:
        comps = v.component_tuple()
        i = next((i for i, c in enumerate(comps) if c), None)
        if i is None or abs(comps[i]) != 1 or i in leads:
            return False
        leads.add(i)
    return len(leads) == k


class NormGreenFunctor(GreenFunctor):
    """N_e^{C_n} R: a Green functor whose level d is W_⟨d⟩(R), with its Witt generators."""

    def __init__(self, ctx, level, res, tr, weyl, mult, unit, base_ring: BaseRing, witt_levels: dict, name=""):
        super().__init__(ctx, level, res, tr, weyl, mult, unit, name)
        self.base_ring = base_ring
        self.witt_levels = witt_levels


def norm_level_sizes(ring: BaseRing, n: int) -> dict[int, int]:
    """The generators of each level of ``norm_trivial_ring(ring, n)``, #divisors(d) at
    level d, after the refusals that it makes up front and without building it."""
    if not isinstance(ring, BaseRing):
        raise UnsupportedRingError("base ring must be ℤ or ℤ/m")
    ctx = GroupContext(n)
    if not ring.is_torsion_free:
        wittcore.require_enumerable(ring.modulus, len(ctx.divisors))
    return {d: len(divisors(d)) for d in ctx.divisors}


def norm_trivial_ring(ring: BaseRing, n: int) -> NormGreenFunctor:
    """The norm Green functor of a trivial-action base ring (ℤ or ℤ/m).

    Over ℤ/m the size m^τ of the top level is checked against the
    enumeration budget before any level is built.
    """
    norm_level_sizes(ring, n)  # the refusals made before any level is built
    ctx = GroupContext(n)
    levels = {d: WittLevel(ring, d) for d in ctx.divisors}
    group = {d: levels[d].group for d in ctx.divisors}
    res = {}
    tr = {}
    for (d, e) in prime_edges(ctx):
        p = e // d
        rows = (levels[d].coords(frobenius(p, g)) for g in levels[e].gens)
        res[(d, e)] = AbHom(group[e], group[d], Sparse(rows, group[d].num_generators))
        rows = (
            levels[e].coords(verschiebung(p, g, levels[e].truncation))
            for g in levels[d].gens
        )
        tr[(d, e)] = AbHom(group[d], group[e], Sparse(rows, group[e].num_generators))
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


def external_norm_element(norm: NormGreenFunctor, r: int) -> SparseRow:
    """Teichmüller vector [r] as a top-level (sparse) element row; multiplicative in r."""
    top = norm.witt_levels[norm.ctx.n]
    return top.coords(teichmuller(top.truncation, norm.base_ring, r))


def truncation_slots(src: NormGreenFunctor, dst: NormGreenFunctor, m: int):
    """slot_rows(s, e) of Φ^{C_m} from src's box to dst's: the matrix (Sparse) of
    the Witt truncation W_⟨e⟩(R) → W_⟨e/m⟩(R) on norm generators, the same
    for every slot s and built once per e."""
    cache = {}

    def slot_rows(_s, e):
        if e not in cache:
            lv_src, lv_dst = src.witt_levels[e], dst.witt_levels[e // m]
            trunc = lv_dst.truncation
            rows = []
            for g in lv_src.gens:
                w = WittVector(trunc, src.base_ring, {u: g.components[u] for u in trunc.elements})
                rows.append(lv_dst.coords(w))
            cache[e] = Sparse(rows, lv_dst.group.num_generators)
        return cache[e]

    return slot_rows


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
        return row_mul(big.witt_levels[e].coords(prod), restricted.tr_full(e, d).rows)

    theta = pres.hom(restricted, theta_row, natural=False)
    maps = theta.maps
    nat = theta.naturality_failures()
    report.note(not nat, f"comparison map natural ({nat[:2] if nat else 'yes'})")
    report.note(theta.is_isomorphism(), "comparison map is a levelwise isomorphism")

    # multiplicativity on tag pairs
    ok_mult = True
    for d in ctxj.divisors:
        images = maps[d].rows
        for a, ia in enumerate(images):
            for b, ib in enumerate(images):
                lhs = row_mul(src.mult[d][a][b], images)
                rhs = sparse_product(restricted.mult[d], ia, ib)
                if not restricted.level[d].same_class(lhs, rhs):
                    ok_mult = False
    report.note(ok_mult, "comparison map is multiplicative")
    ok_unit = all(
        restricted.level[d].same_class(row_mul(src.unit[d], maps[d].rows), restricted.unit[d])
        for d in ctxj.divisors
    )
    report.note(ok_unit, "comparison map preserves units")

    # tensor induction: the original C_n generator acts on the box side by
    # rotating the factors and twisting the wrapped factor by C_j's generator
    def rotation_row(d, e, tup):
        w = small.weyl_power(e, 1).rows  # trivial here, kept for clarity
        return pres.expand(d, e, [w[tup[-1]]] + [((i, 1),) for i in tup[:-1]])

    # compared on the surviving generators: exact, as rot, θ and the Weyl action are certified
    rot = pres.hom(src, rotation_row, natural=False)
    ok_rot = all(composites_agree((rot.maps[d], maps[d]), (maps[d], big.weyl[d])) for d in ctxj.divisors)
    report.note(ok_rot, "restricted Weyl generator acts as rotation-with-twist")
    return report
