"""Pointed monoids in C_n-sets, their monoid algebras, and the splitting.

A pointed monoid M gives the Green functor R̲[M] = R̲ □ A̅[M], where A̅[M] is
the sum of representables on the nonzero orbits with multiplication induced
by M.  The relative cyclic nerve of M is a simplicial pointed C_n-set; its
equivariant cellular chains, boxed degreewise against the twisted cyclic
nerve of R̲, map to the twisted cyclic nerve of R̲[M] by multiplication.
Homology agreement of that map in bounded degrees is the checkable form of
the splitting.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from . import spans
from .fgab import AbHom, Sparse, row_mul, sparse_row
from .green import BoxPresentation, box, box_hom
from .hochschild import (
    MackeyComplex,
    MackeyHomology,
    SimplicialMackey,
    moore_complex,
    twisted_cyclic_nerve,
)
from .mackey import (
    GreenFunctor,
    GroupContext,
    MackeyHom,
    Report,
    representable,
    span_structure,
    sparse_product,
)
from .wittcore import ENUMERATION_BUDGET, EnumerationBudgetError, divisors


class PointedGMonoid:
    """Finite pointed monoid with a C_n-action by monoid maps fixing 0 and 1."""

    def __init__(self, ctx: GroupContext, elements, zero, one, table, action):
        self.ctx = ctx
        self.elements = tuple(elements)
        self.zero = zero
        self.one = one
        self.table = {(a, b): table[(a, b)] for a in self.elements for b in self.elements}
        self.action = dict(action)
        k = len(self.elements)
        if k**3 > ENUMERATION_BUDGET:
            raise EnumerationBudgetError(
                f"{k} elements give {k}^3 associativity triples, "
                f"over the enumeration budget of {ENUMERATION_BUDGET}"
            )
        self._validate()

    @staticmethod
    def from_lists(ctx, elements, zero, one, rows, action_perm):
        """Table given as rows aligned with `elements`; action as a permutation list."""
        table = {}
        for a, row in zip(elements, rows):
            for b, v in zip(elements, row):
                table[(a, b)] = v
        action = dict(zip(elements, action_perm))
        return PointedGMonoid(ctx, elements, zero, one, table, action)

    @staticmethod
    def from_json(ctx, data):
        """The monoid of a JSON object; a malformed shape raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("a monoid is a JSON object")
        for key in ("elements", "zero", "one", "table", "action"):
            if key not in data:
                raise ValueError(f"missing key '{key}'")
        elements, rows, action = data["elements"], data["table"], data["action"]
        if not isinstance(elements, list) or not all(isinstance(x, (str, int)) for x in elements):
            raise ValueError("elements must be a list of strings or integers")
        k = len(elements)
        if not isinstance(rows, list) or [isinstance(r, list) and len(r) for r in rows] != [k] * k:
            raise ValueError(f"table must be a list of {k} rows of {k} elements")
        if not isinstance(action, list) or len(action) != k:
            raise ValueError(f"action must be a list of {k} elements")
        known = set(elements)
        if len(known) != k:
            raise ValueError("elements must be distinct")
        entries = [data["zero"], data["one"], *action, *(x for r in rows for x in r)]
        if not all(isinstance(x, (str, int)) and x in known for x in entries):
            raise ValueError("zero, one, table and action entries must be elements")
        return PointedGMonoid.from_lists(ctx, elements, data["zero"], data["one"], rows, action)

    def to_json(self):
        return {
            "elements": list(self.elements),
            "zero": self.zero,
            "one": self.one,
            "table": [[self.table[(a, b)] for b in self.elements] for a in self.elements],
            "action": [self.action[a] for a in self.elements],
        }

    def _validate(self):
        els = set(self.elements)
        if self.zero not in els or self.one not in els:
            raise ValueError("basepoint and unit must be elements")
        if self.zero == self.one:
            raise ValueError("basepoint and unit must differ (0 = 1 only in the zero monoid)")
        for a in els:
            if self.table[(self.zero, a)] != self.zero or self.table[(a, self.zero)] != self.zero:
                raise ValueError("0 must be absorbing")
            if self.table[(self.one, a)] != a or self.table[(a, self.one)] != a:
                raise ValueError("1 must be a two-sided unit")
        for a in els:
            for b in els:
                for c in els:
                    if self.mult(self.mult(a, b), c) != self.mult(a, self.mult(b, c)):
                        raise ValueError(f"associativity fails at ({a},{b},{c})")
        if set(self.action) != els or set(self.action.values()) != els:
            raise ValueError("action must be a permutation of the elements")
        if self.action[self.zero] != self.zero or self.action[self.one] != self.one:
            raise ValueError("action must fix 0 and 1")
        for a in els:
            for b in els:
                if self.act(1, self.mult(a, b)) != self.mult(self.act(1, a), self.act(1, b)):
                    raise ValueError("action must be by monoid maps")
        a = {e: e for e in els}
        for _ in range(self.ctx.n):
            a = {e: self.action[a[e]] for e in els}
        if any(a[e] != e for e in els):
            raise ValueError("action order must divide n")

    def mult(self, a, b):
        return self.table[(a, b)]

    def act(self, k: int, a):
        for _ in range(k % self.ctx.n):
            a = self.action[a]
        return a


@dataclass
class OrbitData:
    """Orbit bookkeeping for a finite pointed C_n-set (basepoint excluded)."""

    reps: tuple
    stabs: tuple
    locate: dict  # element -> (orbit index, translation a with m = g^a · rep)


def orbit_data(ctx: GroupContext, elements, act, basepoint) -> OrbitData:
    reps = []
    stabs = []
    locate = {}
    for m in elements:
        if m == basepoint or m in locate:
            continue
        idx = len(reps)
        orbit = []
        cur = m
        while cur not in locate:
            locate[cur] = (idx, len(orbit))
            orbit.append(cur)
            cur = act(1, cur)
        reps.append(m)
        stabs.append(ctx.n // len(orbit))
    return OrbitData(tuple(reps), tuple(stabs), locate)


def monoid_orbits(m: PointedGMonoid) -> OrbitData:
    return orbit_data(m.ctx, m.elements, m.act, m.zero)


def element_span(ctx, od: OrbitData, m, level: int):
    """The span-basis datum of "evaluate at m" in A̅[M](G/C_level).

    m must be fixed by C_level; writing m = g^a · rep, the normalized span
    anchors the orbit representative and carries translation -a.
    """
    i, a = od.locate[m]
    y = spans.normalize_y(ctx.n, od.stabs[i], level, -a)
    return (i, (level, y))


def bredon_green(ctx: GroupContext, m: PointedGMonoid) -> GreenFunctor:
    """A̅[M]: representables on the nonzero orbits, multiplication from M."""
    od = monoid_orbits(m)
    span_basis, span_pos, maps = span_structure(ctx, od.stabs)
    n = ctx.n
    mult = {}
    unit = {}
    for d in ctx.divisors:
        basis = span_basis[d]
        pos = span_pos[d]
        table = []
        for (i, sp1) in basis:
            rowtab = []
            for (j, sp2) in basis:
                acc: dict[int, int] = {}
                prod = spans.span_product(n, od.stabs, od.stabs, d, (i,) + sp1, (j,) + sp2)
                for ((oi, oj, delta), c, y), mlt in prod.items():
                    v = m.mult(od.reps[oi], m.act(delta, od.reps[oj]))
                    if v == m.zero:
                        continue
                    i2, a = od.locate[v]
                    y2 = spans.normalize_y(n, od.stabs[i2], d, y - a)
                    key = pos[(i2, (c, y2))]
                    acc[key] = acc.get(key, 0) + mlt
                rowtab.append(sparse_row(acc))
            table.append(tuple(rowtab))
        mult[d] = tuple(table)
        unit[d] = ((pos[element_span(ctx, od, m.one, d)], 1),)
    green = GreenFunctor(*maps, mult, unit, name=f"A_T{list(od.stabs)}")
    green.span_basis, green.span_pos, green.orbit_data = span_basis, span_pos, od
    return green


def algebra_level_sizes(r, m: PointedGMonoid) -> dict[int, int]:
    """The generators of each level of ``monoid_algebra(r, m)``, Σ_{e|d} gens_R(e) · gens_A̅[M](e),
    from the orbit stabilizers of M and without building A̅[M]."""
    n = m.ctx.n
    stabs = monoid_orbits(m).stabs
    am = {e: sum(len(spans.span_basis(n, t, e)) for t in stabs) for e in m.ctx.divisors}
    return {d: sum(r.level[e].num_generators * am[e] for e in divisors(d)) for d in m.ctx.divisors}


def monoid_algebra(r, m: PointedGMonoid) -> BoxPresentation:
    """R̲[M] = R̲ □ A̅[M] with the induced Green structure."""
    if r.ctx != m.ctx:
        raise ValueError("context mismatch")
    return box(r, bredon_green(m.ctx, m))


# ---------------------------------------------------------------------------
# the relative cyclic nerve of a pointed monoid


@dataclass
class SimplicialPointedGSet:
    """Truncated simplicial pointed C_n-set; None encodes the basepoint.

    action(k, simplex) is the generator's k-th power acting on a simplex.
    """

    ctx: GroupContext
    degrees: list          # list of tuples (nonzero simplices)
    faces: list            # faces[j][i]: dict simplex -> simplex | None
    degeneracies: list
    action: Callable


def cyclic_nerve_monoid(m: PointedGMonoid, k_max: int) -> SimplicialPointedGSet:
    """N^cyc_{C_n} M truncated at k_max; j-simplices are smash powers M^∧(j+1)."""
    ctx = m.ctx
    degrees = []
    nonzero = [e for e in m.elements if e != m.zero]
    cur = [(e,) for e in nonzero]
    degrees.append(tuple(cur))
    for j in range(1, k_max + 1):
        cur = [t + (e,) for t in cur for e in nonzero]
        degrees.append(tuple(cur))

    def smash(tup):
        return None if m.zero in tup else tup

    faces = [None]
    for j in range(1, k_max + 1):
        fj = []
        for i in range(j):
            fj.append({
                t: smash(t[:i] + (m.mult(t[i], t[i + 1]),) + t[i + 2:])
                for t in degrees[j]
            })
        fj.append({
            t: smash((m.mult(m.act(1, t[j]), t[0]),) + t[1:j])
            for t in degrees[j]
        })
        faces.append(fj)
    degens = []
    for j in range(k_max):
        degens.append([
            {t: t[: i + 1] + (m.one,) + t[i + 1:] for t in degrees[j]}
            for i in range(j + 1)
        ])
    return SimplicialPointedGSet(
        ctx, degrees, faces, degens, action=lambda k, t: None if t is None else tuple(m.act(k, e) for e in t)
    )


def _relabel_hom(ctx, src_rep, src_od: OrbitData, dst_rep, dst_od: OrbitData, fmap) -> MackeyHom:
    """Mackey hom A̅_{src} → A̅_{dst} induced by an equivariant pointed map.

    fmap sends source orbit representatives to elements of the target set
    (None for the basepoint); spans relabel their anchor along it.
    """
    n = ctx.n
    maps = {}
    for d in ctx.divisors:
        rows = []
        for (i, (c, y)) in src_rep.span_basis[d]:
            v = fmap(src_od.reps[i])
            if v is None:
                rows.append(())
                continue
            i2, a = dst_od.locate[v]
            y2 = spans.normalize_y(n, dst_od.stabs[i2], d, y - a)
            rows.append(((dst_rep.span_pos[d][(i2, (c, y2))], 1),))
        maps[d] = AbHom(src_rep.level[d], dst_rep.level[d], Sparse(rows, dst_rep.level[d].num_generators))
    return MackeyHom(src_rep, dst_rep, maps)


@dataclass
class CellularChains:
    """Bredon cellular chains of a simplicial pointed C_n-set, Mackey-extended."""

    simplicial: SimplicialMackey
    complex: MackeyComplex
    orbit_data: list  # per degree


def cellular_chains(x: SimplicialPointedGSet, k_max: int) -> CellularChains:
    ctx = x.ctx
    if k_max > len(x.degrees) - 1:
        raise ValueError("simplicial set truncated too low")
    ods = []
    reps = []
    for j in range(k_max + 1):
        od = orbit_data(ctx, x.degrees[j], x.action, None)
        ods.append(od)
        reps.append(representable(ctx, od.stabs))
    faces = [None]
    for j in range(1, k_max + 1):
        faces.append([
            _relabel_hom(ctx, reps[j], ods[j], reps[j - 1], ods[j - 1], x.faces[j][i].get)
            for i in range(j + 1)
        ])
    degens = []
    for j in range(k_max):
        degens.append([
            _relabel_hom(ctx, reps[j], ods[j], reps[j + 1], ods[j + 1], x.degeneracies[j][i].get)
            for i in range(j + 1)
        ])
    simp = SimplicialMackey(ctx, reps, faces, degens)
    simp.check_identities()
    return CellularChains(simp, moore_complex(simp), ods)


# ---------------------------------------------------------------------------
# the splitting comparison


@dataclass(repr=False)
class SplittingReport(Report):
    """The splitting checks, with the homology canonical forms of both sides."""

    homology_left: dict = field(default_factory=dict)
    homology_right: dict = field(default_factory=dict)


def splitting_check(pres: BoxPresentation, m: PointedGMonoid, max_k: int) -> SplittingReport:
    """HC(R̲) □ C̲^cell(N^cyc M) → HC(R̲[M]): homology agreement in degrees ≤ max_k.

    pres is ``monoid_algebra(r, m)``: R̲[M] with its factors R̲ and A̅[M].
    The right-hand side is the degreewise box with diagonal structure maps;
    the comparison map multiplies the image of HC(R̲) against the Yoneda
    image of the cellular chains inside HC(R̲[M]).
    """
    r, am = pres.factors
    ctx = r.ctx
    report = SplittingReport("splitting")
    k_max = max_k + 1

    od = am.orbit_data
    rm = pres.mackey
    nerve_rm = twisted_cyclic_nerve(rm, k_max)
    nerve_r = twisted_cyclic_nerve(r, k_max)
    cells = cellular_chains(cyclic_nerve_monoid(m, k_max), k_max)

    # unit-against-A̅[M] inclusion R → R[M]
    iota_maps = {}
    for d in ctx.divisors:
        rows = [pres.expand(d, d, [((i, 1),), am.unit[d]]) for i in range(r.level[d].num_generators)]
        iota_maps[d] = AbHom(r.level[d], rm.level[d], Sparse(rows, rm.level[d].num_generators))
    iota = MackeyHom(r, rm, iota_maps)

    # degreewise data
    z_pres = []
    z_faces = [None]
    phis = []
    for j in range(k_max + 1):
        zp = box(nerve_r.degrees[j], cells.simplicial.degrees[j])
        z_pres.append(zp)

        alpha = box_hom(
            nerve_r.presentations[j],
            nerve_rm.presentations[j],
            [iota] * (j + 1),
        )
        # Yoneda image of each cell orbit: the class of its R[M]-monomial tuple
        beta_values = {}
        for oi, rep_tuple in enumerate(cells.orbit_data[j].reps):
            s = cells.orbit_data[j].stabs[oi]
            slot_rows = []
            for mm in rep_tuple:
                u = ((am.span_pos[s][element_span(ctx, od, mm, s)], 1),)
                slot_rows.append(pres.expand(s, s, [r.unit[s], u]))
            beta_values[oi] = nerve_rm.presentations[j].expand(s, s, slot_rows)
        hc_rm_j = nerve_rm.presentations[j].mackey

        def phi_row(d, e, tup):
            x_idx, c_idx = tup
            (oi, sp) = cells.simplicial.degrees[j].span_basis[e][c_idx]
            beta_row = spans.apply_span(hc_rm_j, cells.orbit_data[j].stabs[oi], e, sp, beta_values[oi])
            prod = sparse_product(hc_rm_j.mult[e], alpha.maps[e].rows[x_idx], beta_row)
            return row_mul(prod, hc_rm_j.tr_full(e, d).rows)

        phis.append(zp.hom(hc_rm_j, phi_row))

    for j in range(1, k_max + 1):
        z_faces.append([
            box_hom(z_pres[j], z_pres[j - 1], [nerve_r.face(j, i), cells.simplicial.face(j, i)])
            for i in range(j + 1)
        ])

    # chain map: Φ commutes with the Moore boundaries
    z_complex = moore_complex(SimplicialMackey(ctx, [p.mackey for p in z_pres], z_faces, []))
    rm_complex = moore_complex(nerve_rm)
    for j in range(1, k_max + 1):
        lhs = z_complex.boundaries[j].compose(phis[j - 1])
        rhs = phis[j].compose(rm_complex.boundaries[j])
        report.note(lhs == rhs, f"comparison is a chain map at degree {j}")

    # homology comparison through the induced maps
    for k in range(max_k + 1):
        hz = MackeyHomology(z_complex, k)
        hrm = MackeyHomology(rm_complex, k)
        induced = hz.induced_hom(phis[k], hrm)
        report.note(
            induced.is_isomorphism(),
            f"H_{k}: box side ≅ HC(R[M]) side via the comparison map",
        )
        report.homology_left[k] = {d: hz.mackey.level[d].canonical_form for d in ctx.divisors}
        report.homology_right[k] = {d: hrm.mackey.level[d].canonical_form for d in ctx.divisors}
    return report
