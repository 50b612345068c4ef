"""Algebraic geometric fixed points, cyclotomic structure, and the TR tower.

ẼF_{C_m} quotients each level C_n/C_d with m | d by the transfers from the
maximal subgroups not containing C_m (``ef_relations``) and every other level
by itself; Φ^{C_m} is ẼF_{C_m} on the levels with C_m, reindexed over C_{n/m}.
The cyclotomic comparison constructs the degreewise isomorphism Φ^{C_m} HC^{C_n} ≅
HC^{C_n/m} explicitly (on norm inputs it is Witt truncation on tags) and
certifies that it commutes with every face, degeneracy, and structure map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .fgab import AbHom, FgAbGroup, Sparse, composites_agree
from .green import BoxPresentation
from .hochschild import MackeyHomology, SimplicialMackey, moore_complex, require_nerve_budget, twisted_cyclic_nerve
from .mackey import (
    GroupContext,
    MackeyHom,
    Report,
    quotient,
    reindexed,
    sparse_product,
)
from .norm import norm_level_sizes, norm_trivial_ring, truncation_slots
from .wittcore import (
    ENUMERATION_BUDGET,
    BaseRing,
    EnumerationBudgetError,
    divisors,
)


def _maximal_non_multiples(d: int, m: int) -> list[int]:
    """Maximal divisors e of d with m not dividing e."""
    cands = [e for e in divisors(d) if e % m != 0]
    return [e for e in cands if not any(e != f and f % e == 0 for f in cands)]


def ef_relations(obj, d: int, m: int) -> Sparse:
    """The rows ẼF_{C_m} adds at level d (m | d): the transfers into level d
    from its maximal divisors not divisible by m, stacked in that order."""
    rows = (row for e in _maximal_non_multiples(d, m) for row in obj.tr_full(e, d).rows)
    return Sparse(rows, obj.level[d].num_generators)


def tilde_ef(obj, m: int):
    """ẼF_{C_m} M: levels with C_m modulo ``ef_relations``, the rest modulo themselves."""
    ctx = obj.ctx
    if ctx.n % m:
        raise ValueError(f"{m} does not divide {ctx.n}")
    rows = {d: AbHom.identity(obj.level[d]).rows if d % m else ef_relations(obj, d, m) for d in ctx.divisors}
    return quotient(obj, rows, f"tilde_EF_{m}({obj.name})")


def phi(obj, m: int):
    """Geometric fixed points Φ^{C_m}: ẼF_{C_m} on the levels with C_m only, reindexed over C_{n/m}."""
    if obj.ctx.n % m:
        raise ValueError(f"{m} does not divide {obj.ctx.n}")
    ctx = GroupContext(obj.ctx.n // m)
    name = f"phi_{m}(tilde_EF_{m}({obj.name}))"
    weyl = {d: obj.weyl[m * d] for d in ctx.divisors}
    rows = {d: ef_relations(obj, m * d, m) for d in ctx.divisors}
    return quotient(reindexed(obj, ctx, m, weyl, name), rows, name)


def phi_box_comparison(m_fun, n_fun, m: int) -> MackeyHom:
    """The canonical map Φ(M □ N) → Φ(M) □ Φ(N) (tags survive untouched)."""
    from .green import box

    pres = box(m_fun, n_fun)
    target = box(phi(m_fun, m), phi(n_fun, m))
    eye = [{e: AbHom.identity(f.level[e]).rows for e in f.ctx.divisors} for f in pres.factors]
    return _psi_degree(pres, m, lambda s, e: eye[s][e], target)


# ---------------------------------------------------------------------------
# cyclotomic comparison


# perfbench/tracer.py counts report notes through this name.
ComparisonReport = Report


def phi_box(pres: BoxPresentation, m: int) -> BoxPresentation:
    """Φ^{C_m} of a box product with its tags: level d keeps the tags of level m·d.

    Its ``hom`` builds a map out of Φ^{C_m}(pres.mackey) on those tags.
    """
    divs = divisors(pres.mackey.ctx.n // m)
    out = BoxPresentation(pres.factors, {d: pres.tags[m * d] for d in divs}, {d: pres.tag_pos[m * d] for d in divs})
    out.mackey = phi(pres.mackey, m)
    return out


def _psi_degree(
    pres: BoxPresentation, m: int, slot_rows, target_pres: BoxPresentation, natural: bool = True
) -> MackeyHom:
    """Ψ on one nerve degree: map each tag slot and retag over C_{n/m}.

    slot_rows(s, e) gives the generator-level matrix (Sparse) from factor s
    of the source at level e to factor s of the target at level e/m; it is called
    once per slot of every tag, so callers keep the matrices.  Tags at levels
    without C_m go to zero.  With natural=False naturality is left to the
    caller.
    """

    def row(d, e, tup):
        if e % m:
            return ()
        return target_pres.expand(d, e // m, [slot_rows(s, e)[i] for s, i in enumerate(tup)])

    return phi_box(pres, m).hom(target_pres.mackey, row, natural)


def _note_comparison(report: Report, comps, source: SimplicialMackey, target: SimplicialMackey) -> None:
    """Note, per degree, that comps[j] is a natural isomorphism commuting with
    every face and degeneracy of ``source`` and ``target``.  Each square is
    compared levelwise by ``composites_agree``, exactly: every hom in it is
    certified, and the faces of a reindexed Φ start at the unquotiented level,
    whose survivors also generate the Φ quotient that comps[j] starts at."""
    for j, c in enumerate(comps):
        report.note(not c.naturality_failures(), f"degree {j}: comparison natural")
        report.note(c.is_isomorphism(), f"degree {j}: comparison is an isomorphism")
    squares = [("face", j, i, j - 1) for j in range(1, len(comps)) for i in range(j + 1)]
    squares += [("degeneracy", j, i, j + 1) for j in range(len(comps) - 1) for i in range(j + 1)]
    for kind, j, i, k in squares:
        x, y = getattr(source, kind)(j, i), getattr(target, kind)(j, i)
        ok = all(composites_agree((x.maps[d], comps[k].maps[d]), (comps[j].maps[d], y.maps[d])) for d in x.maps)
        report.note(ok, f"degree {j}: {kind} {i} commutes")


def cyclotomic_check(
    r_big,
    r_small,
    m: int,
    slot_rows,
    max_degree: int,
) -> Report:
    """Degreewise comparison Φ^{C_m}(HC^{C_n}(R)) ≅ HC^{C_n/m}(Φ R).

    slot_rows(s, e) must give, for every box slot s, the matrix of the
    generator-level isomorphism Φ of the coefficient Green functor at level
    e (for m | e).
    The report records, per degree, that the comparison map is a natural
    isomorphism commuting with all faces and degeneracies.
    """
    report = Report("cyclotomic comparison")
    nerve_big = twisted_cyclic_nerve(r_big, max_degree)
    nerve_small = twisted_cyclic_nerve(r_small, max_degree)
    big, small = nerve_big.presentations, nerve_small.presentations
    psis = [_psi_degree(big[j], m, slot_rows, small[j], natural=False) for j in range(max_degree + 1)]
    phi_nerve = nerve_big.reindexed([psi.source for psi in psis], lambda d: m * d)
    _note_comparison(report, psis, phi_nerve, nerve_small)
    return report


def cyclotomic_check_norm(ring: BaseRing, n: int, m: int, max_degree: int) -> Report:
    """Cyclotomic comparison for R = norm of a base ring; Φ is Witt truncation."""
    if n % m:
        raise ValueError("m must divide n")
    big = norm_trivial_ring(ring, n)
    small = norm_trivial_ring(ring, n // m)
    return cyclotomic_check(big, small, m, truncation_slots(big, small, m), max_degree)


def edgewise_comparison_norm(ring: BaseRing, n: int, j: int, max_degree: int) -> Report:
    """i_J^* HC^{C_n}(norm R) ≅ sd_{n/j} HC^{C_j}(norm R) degreewise.

    The comparison map θ groups each block of n/j consecutive box slots into
    one slot by Witt multiplication, ``cyclic_bar`` of the block map
    t ↦ (n/j)·t + n/j - 1; it must be a natural isomorphism
    commuting with all faces and degeneracies (the subdivided ones on the
    source, the restricted ones on the target).
    """
    from .hochschild import cyclic_bar, edgewise_subdivision
    from .mackey import restrict

    if n % j:
        raise ValueError("j must divide n")
    r = n // j
    report = Report("edgewise comparison")
    big = norm_trivial_ring(ring, n)
    small = norm_trivial_ring(ring, j)
    nerve_small = twisted_cyclic_nerve(small, r * (max_degree + 1) - 1)
    sd = edgewise_subdivision(nerve_small, r)
    nerve_big = twisted_cyclic_nerve(big, max_degree)
    restricted = nerve_big.reindexed([restrict(x, j) for x in nerve_big.degrees], lambda d: d)

    mul = {e: partial(sparse_product, big.mult[e]) for e in big.ctx.divisors}
    thetas = []
    for deg in range(max_degree + 1):
        dst_pres = nerve_big.presentations[deg]
        # slot t is the block r·t .. r·t + r - 1, so no unit and no twist is read
        blocks = tuple(r * t + r - 1 for t in range(deg + 1))

        def row(d, e, tup):
            return dst_pres.expand(d, e, cyclic_bar(blocks, [((t, 1),) for t in tup], mul[e], None, None))

        src_pres = nerve_small.presentations[r * (deg + 1) - 1]
        thetas.append(src_pres.hom(restricted.degrees[deg], row, natural=False))
    _note_comparison(report, thetas, sd, restricted)
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
        """A ``--json`` payload whose ``maps`` are the ``AbHom``s themselves (see ``MackeyFunctor.to_json``)."""
        return {
            "stages": [
                {"n": s.exponent, "group": s.group.to_json()}
                for s in self.stages
            ],
            "maps": list(self.maps),
            "limit": {"description": self.limit_description, "precision": self.precision},
        }


def tr_tower(ring: BaseRing, p: int, stages: int, degree: int) -> TowerReport:
    """Algebraic TR: stage n is H̲H̲_degree over C_{p^n} at the top level.

    Stages run n = 0 .. stages-1 (stage 0 is the trivial group, classical
    Hochschild homology).  The connecting maps are the top-level
    geometric-fixed-point maps through the cyclotomic isomorphism.  The
    limit is reported as a stabilized description, never a fabricated
    infinite object.

    The top stage n = p^(stages-1) is checked against ENUMERATION_BUDGET
    (and, over ℤ/m, its count of Witt vectors), and every stage's nerve
    against the nerve budgets, before stage 0 is built.
    """
    _require_top_stage(ring, p, stages, degree)
    homologies = []
    towers = []
    for nexp in range(0, stages):
        n = p**nexp
        nm = norm_trivial_ring(ring, n)
        nerve = twisted_cyclic_nerve(nm, degree + 1)
        cx = moore_complex(nerve)
        h = MackeyHomology(cx, degree)
        homologies.append((nexp, nm, nerve, h))
        towers.append(TowerStage(nexp, h.mackey.level[n]))

    maps = []
    for idx in range(len(homologies) - 1, 0, -1):
        nexp, nm_big, nerve_big, h_big = homologies[idx]
        _, nm_small, nerve_small, h_small = homologies[idx - 1]
        n = p**nexp
        slot_rows = truncation_slots(nm_big, nm_small, p)
        psi = _psi_degree(nerve_big.presentations[degree], p, slot_rows, nerve_small.presentations[degree])
        # top-level chain map: project to the transfer quotient, then Ψ
        top = nerve_big.degrees[degree].level[n]
        quot = AbHom(top, psi.source.level[n // p], AbHom.identity(top).rows)
        induced = h_big.subquotients[n].induced(
            quot.compose(psi.maps[n // p]), h_small.subquotients[n // p]
        )
        maps.insert(0, induced)

    limit_desc, precision = _classify_limit(p, towers, maps)
    return TowerReport(p, degree, towers, maps, limit_desc, precision)


def _require_top_stage(ring: BaseRing, p: int, stages: int, degree: int) -> None:
    n = 1
    for _ in range(stages - 1):
        n *= p
        if n > ENUMERATION_BUDGET:
            raise EnumerationBudgetError(
                f"top stage n = {p}^{stages - 1} exceeds the enumeration budget of {ENUMERATION_BUDGET}"
            )
    norm_level_sizes(ring, n)  # the top norm's own refusals, before any stage's nerve
    for nexp in range(stages):  # each stage's nerve, in the order tr_tower builds them
        require_nerve_budget(norm_level_sizes(ring, p**nexp), degree + 1)


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
