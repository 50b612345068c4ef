"""Twisted cyclic nerve and twisted Hochschild homology of a Green functor.

Degree j of the nerve is the (j+1)-fold box power, a Green functor like
R itself.  Every face and degeneracy is ``cyclic_bar`` of its map of Δ:
inner faces multiply adjacent slots, the last face rotates the final slot
to the front, twists it by the distinguished generator, and multiplies,
and degeneracies insert the unit.  Homology is taken from the unnormalized
(Moore) complex, which has the same homology as the normalized one.
"""

from __future__ import annotations

from functools import cache, partial, reduce

from .fgab import AbHom, FgAbGroup, composites_agree, homology_subquotient, row_mul
from .green import (
    box_power,
    full_transfer_identification,
    quotient_by_green_ideal,
    require_box_budget,
)
from .mackey import GreenFunctor, MackeyFunctor, MackeyHom, prime_edges, quotient, sparse_product
from .wittcore import EnumerationBudgetError

# The highest nerve degree built: over C_1 box levels have one tag, so only
# this stops a nerve there (n ≥ 2 meets BOX_TAG_BUDGET by 13 factors first).
NERVE_DEGREE_BUDGET = 16


class TruncationTooShortError(ValueError):
    """Requested degree exceeds what the constructed truncation supports."""


class SimplicialIdentityError(AssertionError):
    """A face/degeneracy identity failed; indicates a construction bug."""


def face_map(m: int, i: int) -> tuple[int, ...]:
    """δ_i : [m-1] → [m], the map of Δ of the face d_i out of degree m."""
    return tuple(v for v in range(m + 1) if v != i)


def degeneracy_map(m: int, j: int) -> tuple[int, ...]:
    """σ_j : [m+1] → [m], the map of Δ of the degeneracy s_j out of degree m."""
    return tuple(range(j + 1)) + tuple(range(j, m + 1))


def cyclic_bar(f: tuple[int, ...], slots, mul, twist, unit) -> list:
    """The slots of X(f)(x) for a map f : [a] → [b] of Δ and the slots x_0..x_b of a
    cyclic bar construction X.

    Slot t is the left-to-right product under ``mul`` of the x_v with f(t-1) < v ≤ f(t);
    slot 0 has the twisted slots past f(a), ``twist(x_v)`` for v > f(a), in front.  An
    empty product is ``unit`` and a one-slot product is that slot itself.
    """
    if f[0] == 0 and f[-1] == len(slots) - 1:  # slot 0 is x_0 alone
        out = [slots[0]]
    else:  # never empty: slot 0 has x_0
        out = [reduce(mul, [*map(twist, slots[f[-1] + 1:]), *slots[: f[0] + 1]])]
    for lo, hi in zip(f, f[1:]):
        if hi == lo + 1:
            out.append(slots[hi])
        else:
            out.append(reduce(mul, slots[lo + 1 : hi + 1]) if hi > lo else unit)
    return out


class SimplicialMackey:
    """A finitely truncated simplicial Mackey functor, held as its rule on Δ.

    op(f, j) is X(f) : X_j → X_{len(f)-1} for a map f of Δ into [j]; ``map`` reads
    it.  The faces and degeneracies are X of ``face_map`` and ``degeneracy_map``.
    """

    def __init__(self, ctx, degrees, op, presentations=None):
        self.ctx = ctx
        self.degrees = list(degrees)
        self.presentations = presentations
        self._op = cache(op)

    @classmethod
    def from_delta(cls, ctx, degrees, op, presentations=None) -> "SimplicialMackey":
        """The simplicial object with rule op, its identities certified."""
        x = cls(ctx, degrees, op, presentations)
        x.check_identities()
        return x

    @property
    def max_degree(self) -> int:
        return len(self.degrees) - 1

    def map(self, f: tuple[int, ...], j: int) -> MackeyHom:
        """X(f) : X_j → X_{len(f)-1}, built once, on its first read."""
        return self._op(f, j)

    def face(self, j: int, i: int) -> MackeyHom:
        return self.map(face_map(j, i), j)

    def degeneracy(self, j: int, i: int) -> MackeyHom:
        return self.map(degeneracy_map(j, i), j)

    def reindexed(self, degrees, level) -> "SimplicialMackey":
        """The same rule on new degrees; level d reads old level level(d)."""
        ctx = degrees[0].ctx

        def op(f, j: int) -> MackeyHom:
            maps = self.map(f, j).maps
            return MackeyHom(degrees[j], degrees[len(f) - 1], {d: maps[level(d)] for d in ctx.divisors}, check=False)

        return SimplicialMackey(ctx, degrees, op)

    def check_identities(self):
        """Verify all simplicial identities inside the truncation: the composites of two faces
        or degeneracies out of one degree that have one map of Δ are equal, and the identity
        where that map is.  Each level is compared on its surviving generators
        (``composites_agree``); no composite is formed."""
        k = self.max_degree

        def ops(m):  # (name, hom, its map of Δ, target degree) out of degree m
            out = [(f"d_{i}", self.face(m, i), face_map(m, i), m - 1) for i in range(m + 1) if m]
            degens = range(m + 1) if m < k else ()
            return out + [(f"s_{j}", self.degeneracy(m, j), degeneracy_map(m, j), m + 1) for j in degens]

        ops_of = [ops(m) for m in range(k + 1)]
        for m in range(k + 1):
            groups: dict = {}
            for n1, h1, f1, m1 in ops_of[m]:
                for n2, h2, f2, _ in ops_of[m1]:
                    groups.setdefault(tuple(f1[t] for t in f2), []).append((f"{n2} {n1}", h1, h2))
            for f, comps in groups.items():
                if f == tuple(range(m + 1)):
                    ref_name, ref = "id", ()
                elif len(comps) > 1:
                    ref_name, *ref = comps.pop(0)
                else:
                    continue
                for name, h1, h2 in comps:
                    for d in self.ctx.divisors:
                        if not composites_agree((h1.maps[d], h2.maps[d]), [h.maps[d] for h in ref]):
                            raise SimplicialIdentityError(f"{name} != {ref_name} at degree {m}")


class MackeyComplex:
    """Chain complex of Mackey functors; ``MackeyHomology`` certifies each ∂∘∂ = 0 it reads."""

    def __init__(self, degrees, boundaries):
        self.degrees = list(degrees)
        self.boundaries = list(boundaries)  # boundaries[j] : X_j → X_{j-1}, j ≥ 1

    @property
    def max_degree(self):
        return len(self.degrees) - 1


def moore_complex(x: SimplicialMackey) -> MackeyComplex:
    boundaries = [None]
    for j in range(1, x.max_degree + 1):
        b = x.face(j, 0)
        for i in range(1, j + 1):
            if i % 2:
                b = b.sub(x.face(j, i))
            else:
                b = b.add(x.face(j, i))
        boundaries.append(b)
    return MackeyComplex(x.degrees, boundaries)


def require_nerve_budget(sizes, k_max: int) -> None:
    """Refuse the nerve up to degree k_max of a Green functor with these level sizes
    (generators per divisor of n, ascending) before any box power is built:
    the degree bound first, then the tags of each power in turn."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if k_max > NERVE_DEGREE_BUDGET:
        raise EnumerationBudgetError(
            f"a nerve up to degree {k_max} is over the nerve degree budget of {NERVE_DEGREE_BUDGET}"
        )
    for j in range(k_max + 1):
        require_box_budget([sizes] * (j + 1))


def twisted_cyclic_nerve(r, k_max: int) -> SimplicialMackey:
    """HC^G(R; twisted by the distinguished generator), truncated at k_max.

    Every degree is a box power of the Green functor R, so it is a Green
    functor too; its products are computed only when they are read.
    """
    require_nerve_budget({d: r.level[d].num_generators for d in r.ctx.divisors}, k_max)
    pres = [box_power(r, j + 1) for j in range(k_max + 1)]
    mul = {e: partial(sparse_product, r.mult[e]) for e in r.ctx.divisors}
    twist = {e: partial(row_mul, b=r.weyl[e].rows) for e in r.ctx.divisors}
    gen = {e: [((t, 1),) for t in range(r.level[e].num_generators)] for e in r.ctx.divisors}  # generator rows

    def op(f, j: int) -> MackeyHom:
        """X(f) from the (j+1)-slot box power to the len(f)-slot one."""
        dst = pres[len(f) - 1]

        def row(d, e, tup):
            return dst.expand(d, e, cyclic_bar(f, [*map(gen[e].__getitem__, tup)], mul[e], twist[e], r.unit[e]))

        return pres[j].hom(dst.mackey, row)

    return SimplicialMackey.from_delta(r.ctx, [p.mackey for p in pres], op, presentations=pres)


class MackeyHomology:
    """Levelwise homology of a Mackey complex at one degree, with projections.

    Each level is ``fgab.homology_subquotient`` of the two boundaries, so a
    nonzero composite raises ``CompositeNotZeroError``.
    """

    def __init__(self, cx: MackeyComplex, k: int):
        if k + 1 > cx.max_degree:
            raise TruncationTooShortError(
                f"homology at degree {k} needs degree {k + 1} (have {cx.max_degree})"
            )
        self.k = k
        mid = cx.degrees[k]
        ctx = mid.ctx
        self.ctx = ctx
        self.subquotients = {}
        zero = FgAbGroup(0)
        for d in ctx.divisors:
            d_out = cx.boundaries[k].maps[d] if k else AbHom.zero(mid.level[d], zero)
            self.subquotients[d] = homology_subquotient(cx.boundaries[k + 1].maps[d], d_out)

        level = {d: self.subquotients[d].group for d in ctx.divisors}
        res = {}
        tr = {}
        for (dlo, dhi) in prime_edges(ctx):
            res[(dlo, dhi)] = self.subquotients[dhi].induced(mid.res[(dlo, dhi)], self.subquotients[dlo])
            tr[(dlo, dhi)] = self.subquotients[dlo].induced(mid.tr[(dlo, dhi)], self.subquotients[dhi])
        weyl = {d: self.subquotients[d].induced(mid.weyl[d], self.subquotients[d]) for d in ctx.divisors}
        self.mackey = MackeyFunctor(ctx, level, res, tr, weyl, name=f"H_{k}")

    def induced_hom(self, chain_map_at_k, other: "MackeyHomology") -> MackeyHom:
        """Push a chain map (at degree k) to a map of homology Mackey functors."""
        maps = {
            d: self.subquotients[d].induced(chain_map_at_k.maps[d], other.subquotients[d])
            for d in self.ctx.divisors
        }
        return MackeyHom(self.mackey, other.mackey, maps, check=False)


def hh(r, k: int, nerve: SimplicialMackey | None = None) -> MackeyFunctor:
    """Twisted Hochschild homology H̲H̲_k as a Mackey functor.

    Needs the nerve truncated to at least k+1; a prebuilt nerve may be
    passed to amortize construction across degrees.
    """
    if nerve is None:
        nerve = twisted_cyclic_nerve(r, k + 1)
    if k + 1 > nerve.max_degree:
        raise TruncationTooShortError(f"nerve truncated at {nerve.max_degree}, need {k + 1}")
    cx = moore_complex(nerve)
    return MackeyHomology(cx, k).mackey


def hh0_oracle(r) -> GreenFunctor:
    """Degree-0 oracle: the strict coequalizer of id and the generator.

    Computed as the quotient by the Green ideal generated by g·x − x over
    every level and generator.
    """
    gens = []
    for d in r.ctx.divisors:
        gens += [(d, row) for row in r.weyl[d].sub(AbHom.identity(r.level[d])).rows]
    return quotient_by_green_ideal(r, gens)


def hh0_green(r, nerve: SimplicialMackey | None = None) -> GreenFunctor:
    """HH_0 presented as a quotient of R itself (Green structure descends): R modulo,
    at each level, the image of ∂_1 transported along R^{□1} ≅ R."""
    if nerve is None:
        nerve = twisted_cyclic_nerve(r, 1)
    iota = full_transfer_identification(nerve.presentations[0])
    if not iota.is_isomorphism():
        raise AssertionError("R^{□1} → R identification must be an isomorphism")
    cx = moore_complex(nerve)
    boundary = cx.boundaries[1].compose(iota)
    rows = {d: boundary.maps[d].rows for d in r.ctx.divisors}
    return quotient(r, rows, f"{r.name}/ideal")


# ---------------------------------------------------------------------------
# edgewise subdivision


def edgewise_subdivision(x: SimplicialMackey, r: int) -> SimplicialMackey:
    """sd_r X with (sd_r X)_j = X_{r(j+1)-1} and block-repeated structure maps."""
    if r < 1:
        raise ValueError("r must be positive")
    out_max = (x.max_degree + 1) // r - 1
    if out_max < 0:
        raise TruncationTooShortError("input truncation too short for any output degree")
    degrees = [x.degrees[r * (j + 1) - 1] for j in range(out_max + 1)]

    def block(f, j):  # f on each of the r blocks of j + 1 vertices of [r(j+1)-1]
        return x.map(tuple(t * (j + 1) + v for t in range(r) for v in f), r * (j + 1) - 1)

    return SimplicialMackey.from_delta(x.ctx, degrees, block)

