"""Algebraic geometric fixed points, cyclotomic structure, and the TR tower.

ẼF_{C_m} quotients each level C_n/C_d with m | d by the images of transfers
from subgroups not containing C_m (maximal ones suffice) and zeroes the
rest; Φ^{C_m} reindexes the result over C_{n/m}.  The cyclotomic
comparison constructs the degreewise isomorphism Φ^{C_m} HC^{C_n} ≅
HC^{C_n/m} explicitly (on norm inputs it is Witt truncation on tags) and
certifies that it commutes with every face, degeneracy, and structure map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fgab import AbHom, FgAbGroup, identity_matrix
from .green import BoxPresentation
from .hochschild import MackeyHomology, SimplicialMackey, moore_complex, twisted_cyclic_nerve
from .mackey import (
    GreenFunctor,
    GroupContext,
    MackeyFunctor,
    MackeyHom,
    divisors,
    prime_edges,
)
from .norm import NormGreenFunctor, norm_trivial_ring, truncation_rows
from .wittcore import BaseRing


def _maximal_non_multiples(d: int, m: int) -> list[int]:
    """Maximal divisors e of d with m not dividing e."""
    cands = [e for e in divisors(d) if e % m != 0]
    return [e for e in cands if not any(e != f and f % e == 0 for f in cands)]


def tilde_ef(obj, m: int):
    """ẼF_{C_m} M: kill levels without C_m, quotient the rest by transfers."""
    green = obj if isinstance(obj, (GreenFunctor, NormGreenFunctor)) else None
    if isinstance(obj, NormGreenFunctor):
        obj = obj.green
        green = obj
    mk = obj.underlying if green else obj
    ctx = mk.ctx
    if ctx.n % m:
        raise ValueError(f"{m} does not divide {ctx.n}")
    zero = FgAbGroup(0)
    level = {}
    for d in ctx.divisors:
        if d % m:
            level[d] = zero
            continue
        rows = []
        for e in _maximal_non_multiples(d, m):
            rows.extend(mk.tr_full(e, d).matrix)
        old = mk.level[d]
        level[d] = FgAbGroup(old.num_generators, tuple(old.relations) + tuple(rows))

    def descend(hom: AbHom, src_d: int, dst_d: int) -> AbHom:
        src, dst = level[src_d], level[dst_d]
        if src.num_generators == 0:
            return AbHom(src, dst, [], check=False)
        if dst.num_generators == 0:
            return AbHom(src, dst, [() for _ in range(src.num_generators)], check=False)
        return AbHom(src, dst, hom.matrix)

    res = {}
    tr = {}
    for (dlo, dhi) in prime_edges(ctx):
        res[(dlo, dhi)] = descend(mk.res[(dlo, dhi)], dhi, dlo)
        tr[(dlo, dhi)] = descend(mk.tr[(dlo, dhi)], dlo, dhi)
    weyl = {d: descend(mk.weyl[d], d, d) for d in ctx.divisors}
    out = MackeyFunctor(ctx, level, res, tr, weyl, name=f"tilde_EF_{m}({mk.name})")
    if green is None:
        return out
    mult = {}
    unit = {}
    for d in ctx.divisors:
        if d % m:
            mult[d] = ()
            unit[d] = ()
        else:
            mult[d] = green.mult[d]
            unit[d] = green.unit[d]
    return GreenFunctor(out, mult, unit)


def phi(obj, m: int):
    """Geometric fixed points Φ^{C_m}: ẼF followed by reindexing over C_{n/m}."""
    te = tilde_ef(obj, m)
    green = te if isinstance(te, GreenFunctor) else None
    mk = te.underlying if green else te
    ctx = mk.ctx
    new_ctx = GroupContext(ctx.n // m)
    level = {d: mk.level[m * d] for d in new_ctx.divisors}
    res = {}
    tr = {}
    for (dlo, dhi) in prime_edges(new_ctx):
        res[(dlo, dhi)] = mk.res[(m * dlo, m * dhi)]
        tr[(dlo, dhi)] = mk.tr[(m * dlo, m * dhi)]
    weyl = {d: mk.weyl[m * d] for d in new_ctx.divisors}
    out = MackeyFunctor(new_ctx, level, res, tr, weyl, name=f"phi_{m}({mk.name})")
    if green is None:
        return out
    return GreenFunctor(
        out,
        {d: green.mult[m * d] for d in new_ctx.divisors},
        {d: green.unit[m * d] for d in new_ctx.divisors},
    )


def phi_box_comparison(m_fun, n_fun, m: int) -> MackeyHom:
    """The canonical map Φ(M □ N) → Φ(M) □ Φ(N) (tags survive untouched)."""
    from .green import box

    pres = box(m_fun, n_fun, green=False)
    lhs = phi(pres.mackey, m)
    pm, pn = phi(m_fun, m), phi(n_fun, m)
    target = box(pm, pn, green=False)
    maps = {}
    for d in lhs.ctx.divisors:
        rows = []
        for (e, tup) in pres.tags[m * d]:
            if e % m:
                rows.append((0,) * len(target.tags[d]))
            else:
                rows.append(tuple(
                    1 if t == (e // m, tup) else 0 for t in target.tags[d]
                ))
        maps[d] = AbHom(lhs.level[d], target.mackey.level[d], rows)
    return MackeyHom(lhs, target.mackey, maps)


# ---------------------------------------------------------------------------
# cyclotomic comparison


@dataclass
class ComparisonReport:
    checks: list = field(default_factory=list)

    def note(self, ok: bool, msg: str):
        self.checks.append((bool(ok), msg))

    @property
    def passed(self):
        return all(ok for ok, _ in self.checks)

    def __repr__(self):
        lines = [("ok  " if ok else "FAIL") + " " + m for ok, m in self.checks]
        return "ComparisonReport(\n  " + "\n  ".join(lines) + "\n)"


def _phi_nerve_degree(pres: BoxPresentation, m: int) -> MackeyFunctor:
    return phi(pres.mackey, m)


def _psi_degree(pres: BoxPresentation, m: int, slot_rows_for_level, target_pres: BoxPresentation) -> MackeyHom:
    """Ψ on one nerve degree: truncate each tag slot and retag over C_{n/m}.

    slot_rows_for_level(e) gives the generator-level matrix from the source
    factor's level e to the target factor's level e/m.
    """
    source = _phi_nerve_degree(pres, m)
    target = target_pres.mackey
    k = len(pres.factors)
    maps = {}
    for d in source.ctx.divisors:
        rows = []
        for (e, tup) in pres.tags[m * d]:
            if e % m:
                rows.append((0,) * len(target_pres.tags[d]))
            else:
                rows_e = slot_rows_for_level(e)
                slot = [rows_e[i] for i in tup]
                rows.append(tuple(target_pres.expand(d, e // m, slot)))
        maps[d] = AbHom(source.level[d], target.level[d], rows)
    return MackeyHom(source, target, maps)


def cyclotomic_check(
    r_big,
    r_small,
    m: int,
    slot_rows_for_level,
    max_degree: int,
) -> ComparisonReport:
    """Degreewise comparison Φ^{C_m}(HC^{C_n}(R)) ≅ HC^{C_n/m}(Φ R).

    slot_rows_for_level(e) must give the matrix of the generator-level
    isomorphism Φ of the coefficient Green functor at level e (for m | e).
    The report records, per degree, that the comparison map is a natural
    isomorphism commuting with all faces and degeneracies.
    """
    report = ComparisonReport()
    nerve_big = twisted_cyclic_nerve(r_big, max_degree)
    nerve_small = twisted_cyclic_nerve(r_small, max_degree)
    psis = []
    for j in range(max_degree + 1):
        psi = _psi_degree(nerve_big.presentations[j], m, slot_rows_for_level, nerve_small.presentations[j])
        nat = psi.naturality_failures()
        report.note(not nat, f"degree {j}: comparison natural")
        report.note(psi.is_isomorphism(), f"degree {j}: comparison is an isomorphism")
        psis.append(psi)
    for j in range(1, max_degree + 1):
        for i in range(j + 1):
            face_big = nerve_big.face(j, i)
            phi_face = MackeyHom(
                psis[j].source,
                psis[j - 1].source,
                {d: face_big.maps[m * d] for d in psis[j].source.ctx.divisors},
                check=False,
            )
            lhs = phi_face.compose(psis[j - 1])
            rhs = psis[j].compose(nerve_small.face(j, i))
            report.note(lhs == rhs, f"degree {j}: face {i} commutes")
    for j in range(max_degree):
        for i in range(j + 1):
            deg_big = nerve_big.degeneracy(j, i)
            phi_deg = MackeyHom(
                psis[j].source,
                psis[j + 1].source,
                {d: deg_big.maps[m * d] for d in psis[j].source.ctx.divisors},
                check=False,
            )
            lhs = phi_deg.compose(psis[j + 1])
            rhs = psis[j].compose(nerve_small.degeneracy(j, i))
            report.note(lhs == rhs, f"degree {j}: degeneracy {i} commutes")
    return report


def cyclotomic_check_norm(ring: BaseRing, n: int, m: int, max_degree: int) -> ComparisonReport:
    """Cyclotomic comparison for R = norm of a base ring; Φ is Witt truncation."""
    if n % m:
        raise ValueError("m must divide n")
    big = norm_trivial_ring(ring, n)
    small = norm_trivial_ring(ring, n // m)
    cache = {}

    def slot_rows(e):
        if e not in cache:
            cache[e] = truncation_rows(big, e, small, e // m)
        return cache[e]

    return cyclotomic_check(big, small, m, slot_rows, max_degree)


def edgewise_comparison_norm(ring: BaseRing, n: int, j: int, max_degree: int) -> ComparisonReport:
    """i_J^* HC^{C_n}(norm R) ≅ sd_{n/j} HC^{C_j}(norm R) degreewise.

    The comparison map groups each block of n/j consecutive box slots into
    one slot by Witt multiplication; it must be a natural isomorphism
    commuting with all faces and degeneracies (the subdivided ones on the
    source, the restricted ones on the target).
    """
    from .hochschild import edgewise_subdivision, restrict_simplicial
    from .mackey import restrict

    if n % j:
        raise ValueError("j must divide n")
    r = n // j
    report = ComparisonReport()
    big = norm_trivial_ring(ring, n)
    small = norm_trivial_ring(ring, j)
    nerve_small = twisted_cyclic_nerve(small, r * (max_degree + 1) - 1)
    sd = edgewise_subdivision(nerve_small, r)
    nerve_big = twisted_cyclic_nerve(big, max_degree)
    restricted = restrict_simplicial(nerve_big, j)

    thetas = []
    for deg in range(max_degree + 1):
        src_pres = nerve_small.presentations[r * (deg + 1) - 1]
        dst_pres = nerve_big.presentations[deg]
        src = sd.degrees[deg]
        dst = restricted.degrees[deg]
        maps = {}
        for d in src.ctx.divisors:
            rows = []
            for (e, tup) in src_pres.tags[d]:
                gens = identity_matrix(small.level[e].num_generators)
                slot_rows = []
                for t in range(deg + 1):
                    acc = gens[tup[r * t]]
                    for s in range(1, r):
                        acc = big.multiply(e, acc, gens[tup[r * t + s]])
                    slot_rows.append(acc)
                rows.append(tuple(dst_pres.expand(d, e, slot_rows)))
            maps[d] = AbHom(src.level[d], dst.level[d], rows)
        theta = MackeyHom(src, dst, maps)
        nat = theta.naturality_failures()
        report.note(not nat, f"degree {deg}: comparison natural")
        report.note(theta.is_isomorphism(), f"degree {deg}: comparison is an isomorphism")
        thetas.append(theta)

    for deg in range(1, max_degree + 1):
        for i in range(deg + 1):
            lhs = sd.face(deg, i).compose(thetas[deg - 1])
            rhs = thetas[deg].compose(restricted.face(deg, i))
            report.note(lhs == rhs, f"degree {deg}: face {i} commutes")
    for deg in range(max_degree):
        for i in range(deg + 1):
            lhs = sd.degeneracy(deg, i).compose(thetas[deg + 1])
            rhs = thetas[deg].compose(restricted.degeneracy(deg, i))
            report.note(lhs == rhs, f"degree {deg}: degeneracy {i} commutes")
    return report


# ---------------------------------------------------------------------------
# the algebraic TR tower


@dataclass
class TowerStage:
    exponent: int              # group is C_{p^exponent}
    group: FgAbGroup


@dataclass
class TowerReport:
    prime: int
    degree: int
    stages: list
    maps: list                 # maps[i]: stage i+2 -> stage i+1 top-level AbHom
    limit_description: str
    precision: int

    def to_json(self):
        return {
            "stages": [
                {
                    "n": s.exponent,
                    "group": {
                        "invariant_factors": list(s.group.invariant_factors),
                        "rank": s.group.free_rank,
                    },
                }
                for s in self.stages
            ],
            "maps": [[list(r) for r in h.matrix] for h in self.maps],
            "limit": {"description": self.limit_description, "precision": self.precision},
        }


def tr_tower(ring: BaseRing, p: int, stages: int, degree: int) -> TowerReport:
    """Algebraic TR: stage n is H̲H̲_degree over C_{p^n} at the top level.

    Stages run n = 0 .. stages-1 (stage 0 is the trivial group, classical
    Hochschild homology).  The connecting maps are the top-level
    geometric-fixed-point maps through the cyclotomic isomorphism.  The
    limit is reported as a stabilized description, never a fabricated
    infinite object.
    """
    homologies = []
    towers = []
    for nexp in range(0, stages):
        n = p**nexp
        nm = norm_trivial_ring(ring, n)
        nerve = twisted_cyclic_nerve(nm, degree + 1)
        cx = moore_complex(nerve, check=False)
        h = MackeyHomology(cx, degree)
        homologies.append((nexp, nm, nerve, h))
        towers.append(TowerStage(nexp, h.mackey.level[n]))

    maps = []
    for idx in range(len(homologies) - 1, 0, -1):
        nexp, nm_big, nerve_big, h_big = homologies[idx]
        _, nm_small, nerve_small, h_small = homologies[idx - 1]
        n = p**nexp
        cache = {}

        def slot_rows(e, _big=nm_big, _small=nm_small, _c=cache):
            if e not in _c:
                _c[e] = truncation_rows(_big, e, _small, e // p)
            return _c[e]

        psi = _psi_degree(nerve_big.presentations[degree], p, slot_rows, nerve_small.presentations[degree])
        # top-level chain map: project to the transfer quotient, then Ψ
        top = nerve_big.degrees[degree].level[n]
        quot = AbHom(top, psi.source.level[n // p], identity_matrix(top.num_generators), check=False)
        induced = h_big.subquotients[n].induced(
            quot.compose(psi.maps[n // p]), h_small.subquotients[n // p]
        )
        maps.insert(0, induced)

    limit_desc, precision = _classify_limit(p, towers, maps)
    return TowerReport(p, degree, towers, maps, limit_desc, precision)


def _classify_limit(p: int, stages, maps) -> tuple[str, int]:
    forms = [s.group.canonical_form for s in stages]
    if all(f == ((), 0) for f in forms):
        return "0", len(stages)
    if all(f == forms[0] for f in forms) and all(h.is_isomorphism() for h in maps):
        return f"constant {stages[0].group!r}", len(stages)
    cyclic_growing = all(
        f == ((p ** (i + 1),), 0) for i, f in enumerate(forms)
    )
    if cyclic_growing and all(h.is_surjective() for h in maps):
        return "Z_p (pro-cyclic tower of surjections)", len(stages)
    return "tower not stabilized at this precision", len(stages)
