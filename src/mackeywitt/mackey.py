"""Mackey and Green functors for cyclic groups.

A Mackey functor for C_n is stored as one finitely generated abelian group
per divisor d of n (the value at C_n/C_d), prime-index restriction and
transfer maps, and the action of the distinguished generator g = e^{2πi/n}
on each level.  Composite restrictions and transfers are derived from the
prime-index data; path independence is a checked property rather than
redundant storage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from . import spans
from .fgab import (
    AbHom,
    FgAbGroup,
    NotWellDefinedError,
    _SNF,
    free_group,
    identity_matrix,
    preimage_basis,
    row_hnf,
    solve_left,
    stack,
)
from .wittcore import divisors, is_prime, prime_factors


class GroupContext:
    """The cyclic group C_n ⊆ S¹ with its distinguished generator."""

    __slots__ = ("n", "divisors")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("group order must be positive")
        self.n = int(n)
        self.divisors = divisors(self.n)

    def __eq__(self, other):
        return isinstance(other, GroupContext) and self.n == other.n

    def __hash__(self):
        return hash(("GroupContext", self.n))

    def __repr__(self):
        return f"C_{self.n}"

    def prime_chain(self, d: int, e: int) -> tuple[int, ...]:
        """One divisor chain d = c_0 | c_1 | ... | c_k = e with prime steps."""
        if e % d:
            raise ValueError(f"{d} does not divide {e}")
        chain = [d]
        c = d
        rest = e // d
        for p in sorted(prime_factors(rest)):
            while rest % p == 0:
                c *= p
                rest //= p
                chain.append(c)
        return tuple(chain)

    def all_prime_chains(self, d: int, e: int):
        if d == e:
            yield (d,)
            return
        for p in prime_factors(e // d):
            for chain in self.all_prime_chains(d * p, e):
                yield (d,) + chain


class MackeyFunctor:
    """Divisor-indexed levels with restriction, transfer, and Weyl action.

    ``res[(d, e)]`` and ``tr[(d, e)]`` are stored for prime-index pairs
    d | e only; ``weyl[d]`` is the action of the distinguished generator on
    level d.  Instances are immutable; derived composites are cached.
    """

    def __init__(self, ctx: GroupContext, level, res, tr, weyl, name: str = ""):
        self.ctx = ctx
        self.level = dict(level)
        self.res = dict(res)
        self.tr = dict(tr)
        self.weyl = dict(weyl)
        self.name = name
        self._res_cache: dict[tuple[int, int], AbHom] = {}
        self._tr_cache: dict[tuple[int, int], AbHom] = {}
        self._validate()

    def _validate(self):
        n = self.ctx.n
        if set(self.level) != set(self.ctx.divisors):
            raise ValueError("levels must be indexed by the divisors of n")
        for d in self.ctx.divisors:
            for e in self.ctx.divisors:
                if e > d and e % d == 0 and is_prime(e // d):
                    if (d, e) not in self.res or (d, e) not in self.tr:
                        raise ValueError(f"missing res/tr for prime edge {(d, e)}")
                    if self.res[(d, e)].source != self.level[e] or self.res[(d, e)].target != self.level[d]:
                        raise ValueError(f"res{(d, e)} has wrong endpoints")
                    if self.tr[(d, e)].source != self.level[d] or self.tr[(d, e)].target != self.level[e]:
                        raise ValueError(f"tr{(d, e)} has wrong endpoints")
        for d in self.ctx.divisors:
            w = self.weyl[d]
            if w.source != self.level[d] or w.target != self.level[d]:
                raise ValueError(f"weyl[{d}] has wrong endpoints")

    def res_full(self, e: int, d: int) -> AbHom:
        """Restriction level(e) → level(d) for d | e (any composite)."""
        key = (e, d)
        if key not in self._res_cache:
            chain = self.ctx.prime_chain(d, e)
            h = AbHom.identity(self.level[e])
            for lo, hi in zip(chain[-2::-1], chain[::-1]):
                h = h.compose(self.res[(lo, hi)])
            self._res_cache[key] = h
        return self._res_cache[key]

    def tr_full(self, d: int, e: int) -> AbHom:
        """Transfer level(d) → level(e) for d | e (any composite)."""
        key = (d, e)
        if key not in self._tr_cache:
            chain = self.ctx.prime_chain(d, e)
            h = AbHom.identity(self.level[d])
            for lo, hi in zip(chain, chain[1:]):
                h = h.compose(self.tr[(lo, hi)])
            self._tr_cache[key] = h
        return self._tr_cache[key]

    def weyl_power(self, d: int, k: int) -> AbHom:
        k %= self.ctx.n // d
        h = AbHom.identity(self.level[d])
        for _ in range(k):
            h = h.compose(self.weyl[d])
        return h

    def to_json(self) -> dict:
        n = self.ctx.n
        levels = {}
        for d in self.ctx.divisors:
            inv, rank = self.level[d].canonical_form
            levels[str(d)] = {"invariant_factors": list(inv), "rank": rank}
        res = {}
        tr = {}
        for d in self.ctx.divisors:
            for e in self.ctx.divisors:
                if (d, e) in self.res:
                    res[f"{e}->{d}"] = [list(r) for r in self.res[(d, e)].matrix]
                    tr[f"{d}->{e}"] = [list(r) for r in self.tr[(d, e)].matrix]
        weyl = {str(d): [list(r) for r in self.weyl[d].matrix] for d in self.ctx.divisors}
        return {"n": n, "levels": levels, "res": res, "tr": tr, "weyl": weyl}


def prime_edges(ctx: GroupContext):
    """All (d, e) with d | e | n and e/d prime."""
    for d in ctx.divisors:
        for p in prime_factors(ctx.n // d):
            e = d * p
            if ctx.n % e == 0:
                yield (d, e)


class MackeyHom:
    """Morphism of Mackey functors: one AbHom per level, natural in spans."""

    def __init__(self, source: MackeyFunctor, target: MackeyFunctor, maps, check: bool = True):
        self.source = source
        self.target = target
        self.maps = dict(maps)
        if set(self.maps) != set(source.ctx.divisors):
            raise ValueError("need one component per divisor")
        if check:
            errs = self.naturality_failures()
            if errs:
                raise NotWellDefinedError("; ".join(errs[:3]))

    def naturality_failures(self) -> list[str]:
        out = []
        src, tgt = self.source, self.target
        for (d, e) in prime_edges(src.ctx):
            if src.res[(d, e)].compose(self.maps[d]) != self.maps[e].compose(tgt.res[(d, e)]):
                out.append(f"res{(d, e)} not natural")
            if src.tr[(d, e)].compose(self.maps[e]) != self.maps[d].compose(tgt.tr[(d, e)]):
                out.append(f"tr{(d, e)} not natural")
        for d in src.ctx.divisors:
            if src.weyl[d].compose(self.maps[d]) != self.maps[d].compose(tgt.weyl[d]):
                out.append(f"weyl[{d}] not natural")
        return out

    def compose(self, then: "MackeyHom") -> "MackeyHom":
        return MackeyHom(
            self.source,
            then.target,
            {d: self.maps[d].compose(then.maps[d]) for d in self.maps},
            check=False,
        )

    def add(self, other: "MackeyHom") -> "MackeyHom":
        return MackeyHom(
            self.source, self.target,
            {d: self.maps[d].add(other.maps[d]) for d in self.maps}, check=False,
        )

    def sub(self, other: "MackeyHom") -> "MackeyHom":
        return MackeyHom(
            self.source, self.target,
            {d: self.maps[d].sub(other.maps[d]) for d in self.maps}, check=False,
        )

    def __eq__(self, other):
        if not isinstance(other, MackeyHom):
            return NotImplemented
        return all(self.maps[d] == other.maps[d] for d in self.maps)

    def is_isomorphism(self) -> bool:
        return all(h.is_isomorphism() for h in self.maps.values())

    def is_zero(self) -> bool:
        return all(h.is_zero() for h in self.maps.values())

    @staticmethod
    def identity(m: MackeyFunctor) -> "MackeyHom":
        return MackeyHom(m, m, {d: AbHom.identity(m.level[d]) for d in m.ctx.divisors}, check=False)


class GreenFunctor:
    """Mackey functor with a levelwise commutative ring structure.

    ``mult[d][i][j]`` is the product of generators i and j of level d, as a
    row; ``unit[d]`` is the multiplicative unit.  Restrictions are ring
    maps, Weyl actions are ring automorphisms, and transfers satisfy
    Frobenius reciprocity: all checked by check_axioms, never assumed.
    """

    def __init__(self, underlying: MackeyFunctor, mult, unit):
        self.underlying = underlying
        self.mult = {
            d: tuple(tuple(tuple(int(x) for x in row) for row in gen_rows) for gen_rows in mult[d])
            for d in mult
        }
        self.unit = {d: tuple(int(x) for x in unit[d]) for d in unit}
        for d in underlying.ctx.divisors:
            k = underlying.level[d].num_generators
            if len(self.mult[d]) != k or any(len(m) != k for m in self.mult[d]):
                raise ValueError(f"mult[{d}] has wrong shape")
            if len(self.unit[d]) != k:
                raise ValueError(f"unit[{d}] has wrong length")

    @property
    def ctx(self):
        return self.underlying.ctx

    @property
    def level(self):
        return self.underlying.level

    def res_full(self, e, d):
        return self.underlying.res_full(e, d)

    def tr_full(self, d, e):
        return self.underlying.tr_full(d, e)

    def weyl_power(self, d, k):
        return self.underlying.weyl_power(d, k)

    def multiply(self, d: int, x, y):
        """Bilinear product of two element rows at level d."""
        k = self.underlying.level[d].num_generators
        acc = [0] * k
        md = self.mult[d]
        for i, xi in enumerate(x):
            if not xi:
                continue
            mdi = md[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = xi * yj
                for t, v in enumerate(mdi[j]):
                    if v:
                        acc[t] += c * v
        return tuple(acc)

    def power_element(self, d: int, x, k: int):
        out = self.unit[d]
        for _ in range(k):
            out = self.multiply(d, out, x)
        return out

    def mult_hom(self, d: int, x) -> AbHom:
        """Multiplication by the element x as an endomorphism of level d."""
        g = self.underlying.level[d]
        rows = [self.multiply(d, e_i, x) for e_i in identity_matrix(g.num_generators)]
        return AbHom(g, g, rows, check=False)


# ---------------------------------------------------------------------------
# constructions


def burnside(ctx: GroupContext) -> GreenFunctor:
    """The Burnside Green functor A̅: level d is free on {[C_d/C_c] : c | d}."""
    n = ctx.n
    level = {d: free_group(len(divisors(d))) for d in ctx.divisors}
    index = {d: {c: i for i, c in enumerate(divisors(d))} for d in ctx.divisors}
    res = {}
    tr = {}
    for (d, e) in prime_edges(ctx):
        rows_res = []
        for c in divisors(e):
            row = [0] * len(divisors(d))
            g = gcd(c, d)
            row[index[d][g]] = e * g // (c * d)
            rows_res.append(tuple(row))
        res[(d, e)] = AbHom(level[e], level[d], rows_res, check=False)
        rows_tr = []
        for c in divisors(d):
            row = [0] * len(divisors(e))
            row[index[e][c]] = 1
            rows_tr.append(tuple(row))
        tr[(d, e)] = AbHom(level[d], level[e], rows_tr, check=False)
    weyl = {d: AbHom.identity(level[d]) for d in ctx.divisors}
    m = MackeyFunctor(ctx, level, res, tr, weyl, name=f"A({ctx})")
    mult = {}
    unit = {}
    for d in ctx.divisors:
        divs = divisors(d)
        k = len(divs)
        table = []
        for a in divs:
            rowtab = []
            for b in divs:
                row = [0] * k
                g = gcd(a, b)
                row[index[d][g]] = d * g // (a * b)
                rowtab.append(tuple(row))
            table.append(tuple(rowtab))
        mult[d] = tuple(table)
        u = [0] * k
        u[index[d][d]] = 1
        unit[d] = tuple(u)
    return GreenFunctor(m, mult, unit)


def representable(ctx: GroupContext, orbit_stabilizers) -> MackeyFunctor:
    """A̅_T for T = ⊔ C_n/C_t, t running over orbit_stabilizers.

    Levels are free on the canonical span basis; structure maps are span
    composition in the Burnside category.
    """
    n = ctx.n
    T = tuple(int(t) for t in orbit_stabilizers)
    for t in T:
        if n % t:
            raise ValueError("orbit stabilizers must divide n")
    basis = {}
    pos = {}
    for d in ctx.divisors:
        b = []
        for i, t in enumerate(T):
            for sp in spans.span_basis(n, t, d):
                b.append((i, sp))
        basis[d] = tuple(b)
        pos[d] = {key: k for k, key in enumerate(b)}
    level = {d: free_group(len(basis[d])) for d in ctx.divisors}

    def postcompose(d_from: int, d_to: int, sp2) -> AbHom:
        rows = []
        for (i, sp1) in basis[d_from]:
            row = [0] * len(basis[d_to])
            comp = spans.compose_spans(n, T[i], d_from, d_to, sp1, sp2)
            for sp, mlt in comp.items():
                row[pos[d_to][(i, sp)]] += mlt
            rows.append(tuple(row))
        return AbHom(level[d_from], level[d_to], rows, check=False)

    res = {}
    tr = {}
    for (d, e) in prime_edges(ctx):
        res[(d, e)] = postcompose(e, d, spans.restriction_span(n, e, d))
        tr[(d, e)] = postcompose(d, e, spans.transfer_span(n, d, e))
    weyl = {d: postcompose(d, d, spans.weyl_span(n, d)) for d in ctx.divisors}
    m = MackeyFunctor(ctx, level, res, tr, weyl, name=f"A_T{list(T)}")
    m.orbit_stabilizers = T
    m.span_basis = basis
    m.span_pos = pos
    return m


@dataclass
class RingData:
    """Ring structure on an ambient presented group: products of generators and unit."""

    mult: tuple  # mult[i][j] = row
    unit: tuple  # row


def fixed_point_mackey(ctx: GroupContext, group: FgAbGroup, action, ring: RingData | None = None):
    """Fixed-point Mackey functor of a C_n-module (Green when ring data given).

    level(d) is the subgroup fixed by C_d; transfers sum over coset
    representatives; the Weyl action is induced by the generator.
    """
    n = ctx.n
    act = AbHom(group, group, action)
    if act.power(n) != AbHom.identity(group):
        raise ValueError("action order must divide n")

    fixed_basis = {}
    fixed_snf = {}
    level = {}
    for d in ctx.divisors:
        a_d = act.power(n // d)
        diff = a_d.sub(AbHom.identity(group))
        lat = row_hnf(
            stack(preimage_basis(diff.matrix, group.relations), group.relations),
            group.num_generators,
        )
        fixed_basis[d] = lat
        fixed_snf[d] = _SNF(lat)
        rel = []
        for r in group.relations:
            coeffs = solve_left(lat, r, fixed_snf[d])
            if coeffs is None:
                raise AssertionError("relations are fixed by every subgroup")
            rel.append(coeffs)
        level[d] = FgAbGroup(len(lat), rel)

    def in_coords(d: int, ambient_row):
        coeffs = solve_left(fixed_basis[d], tuple(ambient_row), fixed_snf[d])
        if coeffs is None:
            raise AssertionError(f"element not fixed at level {d}")
        return coeffs

    res = {}
    tr = {}
    for (d, e) in prime_edges(ctx):
        rows = [in_coords(d, row) for row in fixed_basis[e]]
        res[(d, e)] = AbHom(level[e], level[d], rows, check=False)
        p = e // d
        tr_ambient = AbHom.zero(group, group)
        for i in range(p):
            tr_ambient = tr_ambient.add(act.power((n // e) * i))
        rows = [in_coords(e, tr_ambient.apply(row)) for row in fixed_basis[d]]
        tr[(d, e)] = AbHom(level[d], level[e], rows, check=False)
    weyl = {}
    for d in ctx.divisors:
        rows = [in_coords(d, act.apply(row)) for row in fixed_basis[d]]
        weyl[d] = AbHom(level[d], level[d], rows, check=False)
    m = MackeyFunctor(ctx, level, res, tr, weyl, name="fixed-point")
    if ring is None:
        return m

    mult = {}
    unit = {}
    for d in ctx.divisors:
        k = level[d].num_generators
        table = []
        for i in range(k):
            rowtab = []
            xi = fixed_basis[d][i]
            for j in range(k):
                xj = fixed_basis[d][j]
                prod = [0] * group.num_generators
                for a, ca in enumerate(xi):
                    if not ca:
                        continue
                    for b, cb in enumerate(xj):
                        if not cb:
                            continue
                        for t, v in enumerate(ring.mult[a][b]):
                            prod[t] += ca * cb * v
                rowtab.append(in_coords(d, tuple(prod)))
            table.append(tuple(rowtab))
        mult[d] = tuple(table)
        unit[d] = in_coords(d, ring.unit)
    return GreenFunctor(m, mult, unit)


def restrict(m, j: int):
    """Restriction i_J^* to C_j: levels survive, the Weyl generator becomes g^{n/j}."""
    obj = m.underlying if isinstance(m, GreenFunctor) else m
    ctx = obj.ctx
    if ctx.n % j:
        raise ValueError(f"{j} does not divide {ctx.n}")
    new_ctx = GroupContext(j)
    level = {d: obj.level[d] for d in new_ctx.divisors}
    res = {}
    tr = {}
    for (d, e) in prime_edges(new_ctx):
        res[(d, e)] = obj.res[(d, e)]
        tr[(d, e)] = obj.tr[(d, e)]
    weyl = {d: obj.weyl_power(d, ctx.n // j) for d in new_ctx.divisors}
    out = MackeyFunctor(new_ctx, level, res, tr, weyl, name=f"res_{j}({obj.name})")
    if isinstance(m, GreenFunctor):
        return GreenFunctor(out, {d: m.mult[d] for d in new_ctx.divisors}, {d: m.unit[d] for d in new_ctx.divisors})
    return out


# ---------------------------------------------------------------------------
# axiom checking


@dataclass
class AxiomReport:
    checked: int = 0
    failures: list = field(default_factory=list)

    def note(self, ok: bool, message: str):
        self.checked += 1
        if not ok:
            self.failures.append(message)

    @property
    def passed(self) -> bool:
        return not self.failures

    def __repr__(self):
        status = "pass" if self.passed else "FAIL"
        body = "" if self.passed else "\n  " + "\n  ".join(self.failures)
        return f"AxiomReport({status}, {self.checked} identities checked){body}"


def check_axioms(obj) -> AxiomReport:
    """Verify every Mackey (and Green) functor invariant; diagnostic, never raises."""
    rep = AxiomReport()
    green = obj if isinstance(obj, GreenFunctor) else None
    m = obj.underlying if green else obj
    ctx = m.ctx
    n = ctx.n

    for d in ctx.divisors:
        rep.note(
            m.weyl[d].power(n // d) == AbHom.identity(m.level[d]),
            f"weyl[{d}]^{n // d} != id",
        )
    for (d, e) in prime_edges(ctx):
        rep.note(
            m.res[(d, e)].compose(m.weyl[d]) == m.weyl[e].compose(m.res[(d, e)]),
            f"res{(d, e)} does not commute with weyl",
        )
        rep.note(
            m.tr[(d, e)].compose(m.weyl[e]) == m.weyl[d].compose(m.tr[(d, e)]),
            f"tr{(d, e)} does not commute with weyl",
        )

    # path independence over all maximal chains
    for d in ctx.divisors:
        for e in ctx.divisors:
            if e % d == 0 and e != d:
                chains = list(ctx.all_prime_chains(d, e))
                ref_res = None
                ref_tr = None
                for chain in chains:
                    h = AbHom.identity(m.level[e])
                    for lo, hi in zip(chain[-2::-1], chain[::-1]):
                        h = h.compose(m.res[(lo, hi)])
                    t = AbHom.identity(m.level[d])
                    for lo, hi in zip(chain, chain[1:]):
                        t = t.compose(m.tr[(lo, hi)])
                    if ref_res is None:
                        ref_res, ref_tr = h, t
                    else:
                        rep.note(h == ref_res, f"res {e}->{d} path-dependent")
                        rep.note(t == ref_tr, f"tr {d}->{e} path-dependent")

    # double coset formula
    for e in ctx.divisors:
        for a in divisors(e):
            for b in divisors(e):
                l = a * b // gcd(a, b)
                g = gcd(a, b)
                lhs = m.tr_full(b, e).compose(m.res_full(e, a))
                rhs = AbHom.zero(m.level[b], m.level[a])
                for j in range(e // l):
                    piece = (
                        m.res_full(b, g)
                        .compose(m.weyl_power(g, j * (n // e)))
                        .compose(m.tr_full(g, a))
                    )
                    rhs = rhs.add(piece)
                rep.note(lhs == rhs, f"double coset fails at (a={a}, b={b}, e={e})")

    if green is None:
        return rep

    # Green: levelwise commutative unital associative rings
    for d in ctx.divisors:
        k = m.level[d].num_generators
        gens = identity_matrix(k)
        lv = m.level[d]
        for i in range(k):
            rep.note(
                lv.elements_equal(green.multiply(d, green.unit[d], gens[i]), gens[i]),
                f"unit fails at level {d}, generator {i}",
            )
            for j in range(k):
                rep.note(
                    lv.elements_equal(
                        green.multiply(d, gens[i], gens[j]),
                        green.multiply(d, gens[j], gens[i]),
                    ),
                    f"commutativity fails at level {d} ({i},{j})",
                )
                for t in range(k):
                    rep.note(
                        lv.elements_equal(
                            green.multiply(d, green.multiply(d, gens[i], gens[j]), gens[t]),
                            green.multiply(d, gens[i], green.multiply(d, gens[j], gens[t])),
                        ),
                        f"associativity fails at level {d} ({i},{j},{t})",
                    )
    # res are ring maps; weyl are ring automorphisms
    for (d, e) in prime_edges(ctx):
        r = m.res[(d, e)]
        lv = m.level[d]
        ke = m.level[e].num_generators
        gens = identity_matrix(ke)
        rep.note(
            lv.elements_equal(r.apply(green.unit[e]), green.unit[d]),
            f"res{(d, e)} does not preserve the unit",
        )
        for i in range(ke):
            for j in range(ke):
                rep.note(
                    lv.elements_equal(
                        r.apply(green.multiply(e, gens[i], gens[j])),
                        green.multiply(d, r.apply(gens[i]), r.apply(gens[j])),
                    ),
                    f"res{(d, e)} not multiplicative ({i},{j})",
                )
    for d in ctx.divisors:
        w = m.weyl[d]
        lv = m.level[d]
        k = lv.num_generators
        gens = identity_matrix(k)
        rep.note(
            lv.elements_equal(w.apply(green.unit[d]), green.unit[d]),
            f"weyl[{d}] does not preserve the unit",
        )
        for i in range(k):
            for j in range(k):
                rep.note(
                    lv.elements_equal(
                        w.apply(green.multiply(d, gens[i], gens[j])),
                        green.multiply(d, w.apply(gens[i]), w.apply(gens[j])),
                    ),
                    f"weyl[{d}] not multiplicative ({i},{j})",
                )
    # Frobenius reciprocity
    for (d, e) in prime_edges(ctx):
        r = m.res[(d, e)]
        t = m.tr[(d, e)]
        lv = m.level[e]
        kd = m.level[d].num_generators
        ke = m.level[e].num_generators
        for i in range(kd):
            x = identity_matrix(kd)[i]
            for j in range(ke):
                y = identity_matrix(ke)[j]
                lhs = t.apply(green.multiply(d, x, r.apply(y)))
                rhs = green.multiply(e, t.apply(x), y)
                rep.note(
                    lv.elements_equal(lhs, rhs),
                    f"Frobenius reciprocity fails at {(d, e)} ({i},{j})",
                )
    return rep
