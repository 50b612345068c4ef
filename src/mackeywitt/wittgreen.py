"""Witt vectors for Green functors: W̲_{C_n}(R̲) = H̲H̲_0 of the twisted nerve.

For a base ring this runs the nerve on the norm Green functor; the result
is presented as a quotient of the norm itself, so ghost coordinates and
Teichmüller lifts are expressed in the norm's Witt generators.  The
classical comparison with W_⟨n⟩(R) certifies the explicit map sending
each top-level generator to its Witt vector: well defined, bijective,
multiplicative and unital, over ℤ and over ℤ/m alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fgab import AbHom, FgAbGroup, SparseRow
from .geomfix import ef_relations
from .hochschild import hh0_green, require_nerve_budget
from .mackey import GreenFunctor
from .norm import NormGreenFunctor, external_norm_element, norm_level_sizes, norm_trivial_ring, unitriangular
from .wittcore import (
    BaseRing,
    UnsupportedRingError,
    one,
    witt_mul,
    zero,
)


@dataclass
class GreenWittVectors:
    """H̲H̲_0 with its Green structure, presented on the source's generators."""

    green: GreenFunctor
    source: str
    norm: NormGreenFunctor | None = None

    @property
    def ctx(self):
        return self.green.ctx

    def top(self) -> FgAbGroup:
        return self.green.level[self.ctx.n]


def witt_green(arg, n: int | None = None) -> GreenWittVectors:
    """W̲_{C_n}: pass a BaseRing with n (the K = e case) or a commutative
    Green functor over C_n directly (the H = G case).

    Interposing extra group between a nontrivial Green functor and the
    ambient group would require the out-of-scope relative norm and is
    rejected.
    """
    if isinstance(arg, BaseRing):
        if n is None:
            raise ValueError("group order n required for a base-ring input")
        require_nerve_budget(norm_level_sizes(arg, n), 1)  # hh0_green's nerve, before the norm
        nm = norm_trivial_ring(arg, n)
        q, _ = hh0_green(nm)
        return GreenWittVectors(q, f"W_C{n}({arg!r})", norm=nm)
    if not isinstance(arg, GreenFunctor):
        raise UnsupportedRingError("expected a BaseRing or a Green functor")
    if n is not None and n != arg.ctx.n:
        raise UnsupportedRingError(
            "W over a strictly larger group than the input's needs the relative "
            "norm N_{C_k}^{C_nk}, which is out of scope; pass n equal to the "
            "input's group order"
        )
    q, _ = hh0_green(arg)
    return GreenWittVectors(q, f"W_C{arg.ctx.n}(GreenFunctor)")


@dataclass
class GhostValue:
    level: int
    quotient: FgAbGroup
    value: tuple
    description: str


def ghost_map(w: GreenWittVectors, d: int):
    """(quotient group, AbHom) for φ_{C_d}: restrict to C_d, then ẼF_{C_d} at level d."""
    g = w.green
    n = g.ctx.n
    if n % d:
        raise ValueError(f"{d} does not divide {n}")
    quot = g.level[d].quotient(ef_relations(g, d, d))
    hom = AbHom(g.level[n], quot, g.res_full(n, d).rows)
    return quot, hom


def ghost_coordinate(w: GreenWittVectors, x_row, d: int) -> GhostValue:
    """φ_{C_d}(x) for the sparse top-level row x: the top-cell evaluation of
    the d-th ghost coordinate, as a sparse row of the quotient."""
    quot, hom = ghost_map(w, d)
    return GhostValue(
        level=d,
        quotient=quot,
        value=hom.apply(x_row),
        description=f"level-{d} value modulo transfers from proper subgroups",
    )


def teichmuller_green(w: GreenWittVectors, r: int) -> SparseRow:
    """Image of the external norm of r in H̲H̲_0's top level, as a sparse row; multiplicative."""
    if w.norm is None:
        raise UnsupportedRingError("Teichmüller lift needs a base-ring source")
    return external_norm_element(w.norm, r)


# ---------------------------------------------------------------------------
# comparison with classical Witt vectors


@dataclass
class ComparisonVerdict:
    isomorphic: bool
    method: str
    detail: str = ""

    def __repr__(self):
        word = "isomorphic" if self.isomorphic else "NOT isomorphic"
        return f"{word} ({self.method}{'; ' + self.detail if self.detail else ''})"


def compare_with_classical(w: GreenWittVectors, ring: BaseRing, n: int) -> ComparisonVerdict:
    """Certify witt_green(R, n)(top) ≅ W_⟨n⟩(R) as rings through an explicit map.

    φ sends generator i of the top level to ``w.norm.witt_levels[n].gens[i]``
    and a row to the Witt sum of its multiples (``WittLevel.element``).  The
    verdict is ``isomorphic`` only when φ is

    - well defined: every relation row of the top level goes to 0;
    - bijective: the images are unitriangular in the Witt components, so
      they generate W (``norm.unitriangular``), and the top level is as
      large as W: free of rank #⟨n⟩ over ℤ, of order m^{#⟨n⟩} over ℤ/m.
      The generators are the V_s([1]), unitriangular over ℤ by construction
      and certified so over ℤ/m when the level is built, so images that fail
      the leads are refused over both rings;
    - multiplicative and unital: φ(g_i)·φ(g_j) = φ(mult[n][i][j]) for every
      pair of generators, and φ(unit[n]) = 1.

    Over ℤ every Witt operation is solved from ghost components, which are
    injective there, so equal Witt vectors are equal ghosts.  The verdict's
    method is "ghost" over ℤ and "finite search" over ℤ/m, where that name
    (kept so CLI output stays stable) now means this certified map.
    """
    if w.norm is None:
        raise UnsupportedRingError("comparison needs the base-ring construction")
    top = w.top()
    lv = w.norm.witt_levels[n]
    k = len(lv.truncation.elements)
    over_Z = ring.is_torsion_free
    method = "ghost" if over_Z else "finite search"

    def refuse(detail):
        return ComparisonVerdict(False, method, detail)

    if over_Z and top.canonical_form != ((), k):
        return refuse(f"additive form {top.canonical_form}")
    size = None if over_Z else ring.modulus**k
    if not over_Z and (not top.is_finite() or top.order() != size):
        return refuse("orders differ")
    if top.num_generators != len(lv.gens):
        return refuse(f"{top.num_generators} generators against {len(lv.gens)} Witt images")
    zero_w = zero(lv.truncation, ring)
    for r, rel in enumerate(top.rels):
        if lv.element(rel) != zero_w:
            return refuse(f"relation {r} does not map to 0")
    if not unitriangular(lv.gens, k):
        return refuse("generator images are not a basis")
    mult = w.green.mult[n]
    for i, gi in enumerate(lv.gens):
        for j, gj in enumerate(lv.gens):
            if lv.element(mult[i][j]) != witt_mul(gi, gj):
                return refuse(f"product of generators {i},{j}")
    if lv.element(w.green.unit[n]) != one(lv.truncation, ring):
        return refuse("unit mismatch")
    detail = f"free rank {k}, products match on ghosts" if over_Z else f"{size} elements"
    return ComparisonVerdict(True, method, detail)
