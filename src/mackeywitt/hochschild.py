"""Twisted cyclic nerve and twisted Hochschild homology of a Green functor.

Degree j of the nerve is the (j+1)-fold box power, a Green functor like
R itself; inner faces multiply adjacent slots, the last face rotates the
final slot to the front, twists it by the distinguished generator, and
multiplies.  Homology is taken from the unnormalized (Moore) complex, which
has the same homology as the normalized one.
"""

from __future__ import annotations

from .fgab import AbHom, FgAbGroup, homology_subquotient
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


class SimplicialMackey:
    """A finitely truncated simplicial Mackey functor.

    faces[j][i] : X_j → X_{j-1} for 1 ≤ j ≤ k_max, 0 ≤ i ≤ j;
    degeneracies[j][i] : X_j → X_{j+1} for 0 ≤ j < k_max, 0 ≤ i ≤ j.
    """

    def __init__(self, ctx, degrees, faces, degeneracies, presentations=None):
        self.ctx = ctx
        self.degrees = list(degrees)
        self.faces = list(faces)
        self.degeneracies = list(degeneracies)
        self.presentations = presentations

    @property
    def max_degree(self) -> int:
        return len(self.degrees) - 1

    def face(self, j: int, i: int) -> MackeyHom:
        return self.faces[j][i]

    def degeneracy(self, j: int, i: int) -> MackeyHom:
        return self.degeneracies[j][i]

    def reindexed(self, degrees, level) -> "SimplicialMackey":
        """The same faces and degeneracies on new degrees; level d reads old level level(d)."""
        ctx = degrees[0].ctx

        def move(hom: MackeyHom, j: int, k: int) -> MackeyHom:
            return MackeyHom(degrees[j], degrees[k], {d: hom.maps[level(d)] for d in ctx.divisors}, check=False)

        faces = [None] + [[move(h, j, j - 1) for h in self.faces[j]] for j in range(1, self.max_degree + 1)]
        degens = [[move(h, j, j + 1) for h in self.degeneracies[j]] for j in range(self.max_degree)]
        return SimplicialMackey(ctx, degrees, faces, degens)

    def check_identities(self):
        """Verify all simplicial identities inside the truncation."""
        k = self.max_degree
        for m in range(2, k + 1):
            for j in range(1, m + 1):
                for i in range(j):
                    lhs = self.face(m, j).compose(self.face(m - 1, i))
                    rhs = self.face(m, i).compose(self.face(m - 1, j - 1))
                    if lhs != rhs:
                        raise SimplicialIdentityError(f"d_{i} d_{j} at degree {m}")
        for m in range(0, k - 1):
            for j in range(m + 1):
                for i in range(j + 1):
                    lhs = self.degeneracy(m, j).compose(self.degeneracy(m + 1, i))
                    rhs = self.degeneracy(m, i).compose(self.degeneracy(m + 1, j + 1))
                    if lhs != rhs:
                        raise SimplicialIdentityError(f"s_{i} s_{j} at degree {m}")
        for m in range(0, k):
            for j in range(m + 1):
                for i in range(m + 2):
                    comp = self.degeneracy(m, j).compose(self.face(m + 1, i))
                    if i < j:
                        ref = self.face(m, i).compose(self.degeneracy(m - 1, j - 1)) if m >= 1 else None
                        if ref is not None and comp != ref:
                            raise SimplicialIdentityError(f"d_{i} s_{j} at degree {m}")
                    elif i in (j, j + 1):
                        if comp != MackeyHom.identity(self.degrees[m]):
                            raise SimplicialIdentityError(f"d_{i} s_{j} != id at degree {m}")
                    else:
                        ref = self.face(m, i - 1).compose(self.degeneracy(m - 1, j)) if m >= 1 else None
                        if ref is not None and comp != ref:
                            raise SimplicialIdentityError(f"d_{i} s_{j} at degree {m}")


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

    def gens(tup):
        return [((t, 1),) for t in tup]

    def face(i: int, j: int) -> MackeyHom:
        """d_i from the (j+1)-slot box power to the j-slot one."""

        def row(d, e, tup):
            if i < j:
                slot_rows = gens(tup[:i]) + [r.mult[e][tup[i]][tup[i + 1]]] + gens(tup[i + 2:])
            else:
                twisted = r.weyl[e].rows[tup[j]]
                slot_rows = [sparse_product(r.mult[e], twisted, ((tup[0], 1),))] + gens(tup[1:j])
            return pres[j - 1].expand(d, e, slot_rows)

        return pres[j].hom(pres[j - 1].mackey, row)

    def degeneracy(i: int, j: int) -> MackeyHom:
        def row(d, e, tup):
            slot_rows = gens(tup[: i + 1]) + [r.unit[e]] + gens(tup[i + 1:])
            return pres[j + 1].expand(d, e, slot_rows)

        return pres[j].hom(pres[j + 1].mackey, row)

    faces = [None] + [[face(i, j) for i in range(j + 1)] for j in range(1, k_max + 1)]
    degens = [[degeneracy(i, j) for i in range(j + 1)] for j in range(k_max)]
    x = SimplicialMackey(r.ctx, [p.mackey for p in pres], faces, degens, presentations=pres)
    x.check_identities()
    return x


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


def hh0_green(r, nerve: SimplicialMackey | None = None):
    """HH_0 presented as a quotient of R itself (Green structure descends).

    Returns (green_quotient, boundary_image_rows) where the rows, per
    level, span the image of ∂_1 transported along R^{□1} ≅ R.
    """
    if nerve is None:
        nerve = twisted_cyclic_nerve(r, 1)
    iota = full_transfer_identification(nerve.presentations[0])
    if not iota.is_isomorphism():
        raise AssertionError("R^{□1} → R identification must be an isomorphism")
    cx = moore_complex(nerve)
    boundary = cx.boundaries[1].compose(iota)
    rows = {d: boundary.maps[d].rows for d in r.ctx.divisors}
    return quotient(r, rows, f"{r.name}/ideal"), rows


# ---------------------------------------------------------------------------
# simplicial operators and edgewise subdivision


def apply_monotone(x: SimplicialMackey, f: tuple[int, ...], target_degree: int) -> MackeyHom:
    """X(f) : X_b → X_a for a monotone map f : [a] → [b], via face/degeneracy peeling."""
    a = len(f) - 1
    b = target_degree
    f = tuple(f)
    if any(f[i] > f[i + 1] for i in range(a)):
        raise ValueError("map is not monotone")
    if f and (f[0] < 0 or f[-1] > b):
        raise ValueError("map out of range")
    image = set(f)
    missing = [v for v in range(b + 1) if v not in image]
    if missing:
        v = max(missing)
        f2 = tuple(t if t < v else t - 1 for t in f)
        return x.face(b, v).compose(apply_monotone(x, f2, b - 1))
    if a == b:
        return MackeyHom.identity(x.degrees[b])
    p = next(i for i in range(a) if f[i] == f[i + 1])
    f2 = f[:p] + f[p + 1:]
    return apply_monotone(x, f2, b).compose(x.degeneracy(a - 1, p))


def edgewise_subdivision(x: SimplicialMackey, r: int) -> SimplicialMackey:
    """sd_r X with (sd_r X)_j = X_{r(j+1)-1} and block-repeated structure maps."""
    if r < 1:
        raise ValueError("r must be positive")
    out_max = (x.max_degree + 1) // r - 1
    if out_max < 0:
        raise TruncationTooShortError("input truncation too short for any output degree")
    degrees = [x.degrees[r * (j + 1) - 1] for j in range(out_max + 1)]

    def block_delta(i, j):
        # δ_i repeated across r blocks: [rj-1] → [r(j+1)-1]
        out = []
        for t in range(r):
            for y in range(j):
                out.append(t * (j + 1) + (y if y < i else y + 1))
        return tuple(out)

    def block_sigma(i, j):
        # σ_i repeated across r blocks: [r(j+2)-1] → [r(j+1)-1]
        out = []
        for t in range(r):
            for y in range(j + 2):
                out.append(t * (j + 1) + (y if y <= i else y - 1))
        return tuple(out)

    faces: list = [None]
    for j in range(1, out_max + 1):
        faces.append([
            apply_monotone(x, block_delta(i, j), r * (j + 1) - 1) for i in range(j + 1)
        ])
    degens = []
    for j in range(out_max):
        degens.append([
            apply_monotone(x, block_sigma(i, j), r * (j + 1) - 1) for i in range(j + 1)
        ])
    out = SimplicialMackey(x.ctx, degrees, faces, degens)
    out.check_identities()
    return out

