"""Mackey and Green functors for cyclic groups.

A Mackey functor for C_n is stored as one finitely generated abelian group
per divisor d of n (the value at C_n/C_d), prime-index restriction and
transfer maps, and the action of the distinguished generator g = e^{2πi/n}
on each level.  Composite restrictions and transfers are derived from the
prime-index data; path independence is a checked property rather than
redundant storage.

A Green functor's product table cells and units are sparse rows, the form
of every hom matrix row and of every element, and ``sparse_product``
multiplies them; dense rows appear only in ``RingData`` input and in
output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import gcd

from . import spans
from .fgab import (
    AbHom,
    FgAbGroup,
    NotWellDefinedError,
    Sparse,
    Subquotient,
    chain_image,
    composites_agree,
    free_group,
    is_sparse_row,
    nonzeros,
    preimage_basis,
    row_mul,
    sparse_row,
)
from .wittcore import divisors, prime_factors


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
        """One divisor chain d = c_0 | c_1 | ... | c_k = e with prime steps: the first of
        ``all_prime_chains``, which multiplies in the smallest primes first."""
        if e % d:
            raise ValueError(f"{d} does not divide {e}")
        return next(self.all_prime_chains(d, e))

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
        self._weyl_cache: dict[tuple[int, int], AbHom] = {}
        self._twisted_cache: dict[tuple[int, int, int], AbHom] = {}
        self._validate()

    def _validate(self):
        if set(self.level) != set(self.ctx.divisors):
            raise ValueError("levels must be indexed by the divisors of n")
        for (d, e) in prime_edges(self.ctx):
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

    def res_steps(self, chain) -> list[AbHom]:
        """The prime-step restrictions down the prime chain, read from its top."""
        return [self.res[step] for step in zip(chain[-2::-1], chain[::-1])]

    def tr_steps(self, chain) -> list[AbHom]:
        """The prime-step transfers up the prime chain, read from its bottom."""
        return [self.tr[step] for step in zip(chain, chain[1:])]

    def res_full(self, e: int, d: int) -> AbHom:
        """Restriction level(e) → level(d) for d | e (any composite)."""
        if (e, d) not in self._res_cache:
            self._res_cache[(e, d)] = _composite(self.level[e], self.res_steps(self.ctx.prime_chain(d, e)))
        return self._res_cache[(e, d)]

    def tr_full(self, d: int, e: int) -> AbHom:
        """Transfer level(d) → level(e) for d | e (any composite)."""
        if (d, e) not in self._tr_cache:
            self._tr_cache[(d, e)] = _composite(self.level[d], self.tr_steps(self.ctx.prime_chain(d, e)))
        return self._tr_cache[(d, e)]

    def weyl_power(self, d: int, k: int) -> AbHom:
        """The generator's action on level d raised to the k-th power."""
        key = (d, k % (self.ctx.n // d))
        if key not in self._weyl_cache:
            self._weyl_cache[key] = self.weyl[d].power(key[1])
        return self._weyl_cache[key]

    def twisted_res(self, e: int, d: int, k: int) -> AbHom:
        """Restriction level(e) → level(d) followed by the k-th power of the generator's
        action on level d: the composite of the double-coset formula."""
        key = (e, d, k % (self.ctx.n // d))
        if key not in self._twisted_cache:
            self._twisted_cache[key] = self.res_full(e, d).compose(self.weyl_power(d, k))
        return self._twisted_cache[key]

    def to_json(self) -> dict:
        """A ``--json`` payload whose res, tr and weyl leaves are the ``AbHom``s
        themselves: ``cli._dumps`` writes their matrices; ``json.dumps`` raises."""
        divs, edges = self.ctx.divisors, list(prime_edges(self.ctx))
        return {
            "n": self.ctx.n,
            "levels": {str(d): self.level[d].to_json() for d in divs},
            "res": {f"{e}->{d}": self.res[(d, e)] for d, e in edges},
            "tr": {f"{d}->{e}": self.tr[(d, e)] for d, e in edges},
            "weyl": {str(d): self.weyl[d] for d in divs},
        }


def _composite(level: FgAbGroup, homs) -> AbHom:
    """homs composed in order, starting from the first; the identity of level if none."""
    return reduce(AbHom.compose, homs) if homs else AbHom.identity(level)


def prime_edges(ctx: GroupContext):
    """All (d, e) with d | e | n and e/d prime."""
    for d in ctx.divisors:
        for p in prime_factors(ctx.n // d):
            yield (d, d * p)


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
        """Each structure map's square, compared on the surviving generators of its
        source (``composites_agree``): the maps and both functors' structure maps
        are certified homs."""
        out = []
        src, tgt = self.source, self.target
        for (d, e) in prime_edges(src.ctx):
            if not composites_agree((src.res[(d, e)], self.maps[d]), (self.maps[e], tgt.res[(d, e)])):
                out.append(f"res{(d, e)} not natural")
            if not composites_agree((src.tr[(d, e)], self.maps[e]), (self.maps[d], tgt.tr[(d, e)])):
                out.append(f"tr{(d, e)} not natural")
        for d in src.ctx.divisors:
            if not composites_agree((src.weyl[d], self.maps[d]), (self.maps[d], tgt.weyl[d])):
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


def sparse_product(table, x, y):
    """Σ x_i y_j table[i][j] for sparse rows x, y, as a sparse row.

    ``table[i][j]`` is the product of generators i and j as a sparse row;
    only the cells at nonzero (x_i, y_j) are read.  It is x times the rows
    y · table[i], so a single-term factor with coefficient 1 is a cell lookup.
    """
    if len(x) == 1 and x[0][1] == 1:
        return row_mul(y, table[x[0][0]])
    return row_mul(x, {i: row_mul(y, table[i]) for i, _ in x})


class GreenFunctor(MackeyFunctor):
    """A Mackey functor with a levelwise commutative ring structure.

    ``mult[d][i][j]`` is the product of generators i and j of level d and
    ``unit[d]`` the multiplicative unit, both sparse rows; element rows
    are multiplied by ``multiply``.  Restrictions are ring maps, Weyl
    actions are ring automorphisms, and transfers satisfy Frobenius
    reciprocity: all checked by check_axioms, never assumed.  Every Mackey
    operation (box products, restriction, geometric fixed points, homology)
    takes a Green functor as it is.  Tables given as tuples or lists are
    shape-checked and stored as tuples; a box product passes tables that
    compute each product when it is first read, and those are stored as
    given.
    """

    def __init__(self, ctx: GroupContext, level, res, tr, weyl, mult, unit, name: str = ""):
        super().__init__(ctx, level, res, tr, weyl, name)
        self.mult = dict(mult)
        self.unit = dict(unit)
        for d in ctx.divisors:
            k = self.level[d].num_generators
            table = self.mult[d]
            if isinstance(table, (tuple, list)):
                if len(table) != k or any(len(m) != k for m in table):
                    raise ValueError(f"mult[{d}] has wrong shape")
                if not all(is_sparse_row(c, k) for m in table for c in m):
                    raise ValueError(f"mult[{d}] has wrong shape")
                self.mult[d] = tuple(map(tuple, table))
            if not is_sparse_row(self.unit[d], k):
                raise ValueError(f"unit[{d}] has wrong length")

    def multiply(self, d: int, x, y):
        """The product of two sparse element rows at level d."""
        return sparse_product(self.mult[d], x, y)


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
        rows = (((index[d][gcd(c, d)], e * gcd(c, d) // (c * d)),) for c in divisors(e))
        res[(d, e)] = AbHom(level[e], level[d], Sparse(rows, len(divisors(d))), check=False)
        rows = (((index[e][c], 1),) for c in divisors(d))
        tr[(d, e)] = AbHom(level[d], level[e], Sparse(rows, len(divisors(e))), check=False)
    weyl = {d: AbHom.identity(level[d]) for d in ctx.divisors}
    mult = {}
    unit = {}
    for d in ctx.divisors:
        divs = divisors(d)
        table = []
        for a in divs:
            rowtab = []
            for b in divs:
                g = gcd(a, b)
                rowtab.append(((index[d][g], d * g // (a * b)),))
            table.append(tuple(rowtab))
        mult[d] = tuple(table)
        unit[d] = ((index[d][d], 1),)
    return GreenFunctor(ctx, level, res, tr, weyl, mult, unit, name=f"A({ctx})")


def representable(ctx: GroupContext, orbit_stabilizers) -> MackeyFunctor:
    """A̅_T for T = ⊔ C_n/C_t, t running over orbit_stabilizers.

    Levels are free on the canonical span basis; structure maps are span
    composition in the Burnside category.
    """
    T = tuple(int(t) for t in orbit_stabilizers)
    for t in T:
        if ctx.n % t:
            raise ValueError("orbit stabilizers must divide n")
    basis, pos, maps = span_structure(ctx, T)
    m = MackeyFunctor(*maps, name=f"A_T{list(T)}")
    m.orbit_stabilizers = T
    m.span_basis = basis
    m.span_pos = pos
    return m


def span_structure(ctx: GroupContext, T: tuple[int, ...]):
    """A̅_T on its span basis: (basis, positions, (ctx, level, res, tr, weyl))."""
    n = ctx.n
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
            comp = spans.compose_spans(n, T[i], d_from, d_to, sp1, sp2)
            rows.append(sparse_row({pos[d_to][(i, sp)]: mlt for sp, mlt in comp.items()}))
        return AbHom(level[d_from], level[d_to], Sparse(rows, len(basis[d_to])), check=False)

    res = {}
    tr = {}
    for (d, e) in prime_edges(ctx):
        res[(d, e)] = postcompose(e, d, spans.restriction_span(n, e, d))
        tr[(d, e)] = postcompose(d, e, spans.transfer_span(n, d, e))
    weyl = {d: postcompose(d, d, spans.weyl_span(n, d)) for d in ctx.divisors}
    return basis, pos, (ctx, level, res, tr, weyl)


@dataclass
class RingData:
    """Ring structure on an ambient presented group: products of generators and unit."""

    mult: tuple  # mult[i][j] = row
    unit: tuple  # row


def fixed_point_mackey(ctx: GroupContext, group: FgAbGroup, action, ring: RingData | None = None):
    """Fixed-point Mackey functor of a C_n-module (Green when ring data given).

    level(d) is the subgroup fixed by C_d: the ``Subquotient`` on the kernel
    of g^{n/d} − 1.  Restrictions, transfers (sums over coset
    representatives) and the Weyl action are ``Subquotient.induced`` maps
    between those levels, each certified well defined.
    """
    n = ctx.n
    act = AbHom(group, group, action)
    if act.power(n) != AbHom.identity(group):
        raise ValueError("action order must divide n")

    sq = {}
    for d in ctx.divisors:
        diff = act.power(n // d).sub(AbHom.identity(group))
        sq[d] = Subquotient(group, preimage_basis(diff.rows, group.rels), ())
    level = {d: sq[d].group for d in ctx.divisors}
    res = {}
    tr = {}
    for (d, e) in prime_edges(ctx):
        res[(d, e)] = sq[e].induced(AbHom.identity(group), sq[d])
        p = e // d
        tr_ambient = AbHom.zero(group, group)
        for i in range(p):
            tr_ambient = tr_ambient.add(act.power((n // e) * i))
        tr[(d, e)] = sq[d].induced(tr_ambient, sq[e])
    weyl = {d: sq[d].induced(act, sq[d]) for d in ctx.divisors}
    if ring is None:
        return MackeyFunctor(ctx, level, res, tr, weyl, name="fixed-point")

    table = tuple(tuple(map(nonzeros, cells)) for cells in ring.mult)  # the one read of RingData
    mult = {}
    unit = {}
    for d in ctx.divisors:
        basis = sq[d].lattice
        mult[d] = tuple(
            tuple(sq[d].coords(sparse_product(table, xi, xj)) for xj in basis) for xi in basis
        )
        unit[d] = sq[d].coords(nonzeros(ring.unit))
    return GreenFunctor(ctx, level, res, tr, weyl, mult, unit, name="fixed-point")


def restrict(m, j: int):
    """Restriction i_J^* to C_j: levels survive, the Weyl generator becomes g^{n/j}."""
    ctx = m.ctx
    if ctx.n % j:
        raise ValueError(f"{j} does not divide {ctx.n}")
    new_ctx = GroupContext(j)
    weyl = {d: m.weyl_power(d, ctx.n // j) for d in new_ctx.divisors}
    return reindexed(m, new_ctx, 1, weyl, f"res_{j}({m.name})")


def reindexed(m, ctx: GroupContext, c: int, weyl, name: str):
    """m over ctx with the Weyl actions weyl: level d, its res, tr and products
    are those of m's level c·d.  A Green functor gives a Green functor."""
    level = {d: m.level[c * d] for d in ctx.divisors}
    res = {(d, e): m.res[(c * d, c * e)] for (d, e) in prime_edges(ctx)}
    tr = {(d, e): m.tr[(c * d, c * e)] for (d, e) in prime_edges(ctx)}
    if not isinstance(m, GreenFunctor):
        return MackeyFunctor(ctx, level, res, tr, weyl, name)
    mult = {d: m.mult[c * d] for d in ctx.divisors}
    unit = {d: m.unit[c * d] for d in ctx.divisors}
    return GreenFunctor(ctx, level, res, tr, weyl, mult, unit, name)


def quotient(m, rows, name: str):
    """m with level d modulo rows.get(d, ()), on the same generators; the res, tr and
    Weyl matrices are certified on the quotients, and products and units are kept."""
    ctx = m.ctx
    level = {d: m.level[d].quotient(rows.get(d, ())) for d in ctx.divisors}
    res = {(d, e): AbHom(level[e], level[d], m.res[(d, e)].rows) for (d, e) in prime_edges(ctx)}
    tr = {(d, e): AbHom(level[d], level[e], m.tr[(d, e)].rows) for (d, e) in prime_edges(ctx)}
    weyl = {d: AbHom(level[d], level[d], m.weyl[d].rows) for d in ctx.divisors}
    if not isinstance(m, GreenFunctor):
        return MackeyFunctor(ctx, level, res, tr, weyl, name)
    return GreenFunctor(ctx, level, res, tr, weyl, m.mult, m.unit, name)


# ---------------------------------------------------------------------------
# axiom checking


@dataclass
class Report:
    """A named list of (ok, message) checks; every certificate check returns one."""

    name: str
    checks: list = field(default_factory=list)

    def note(self, ok, msg: str) -> None:
        self.checks.append((bool(ok), msg))

    @property
    def passed(self) -> bool:
        return all(ok for ok, _ in self.checks)

    @property
    def failures(self) -> list[str]:
        return [msg for ok, msg in self.checks if not ok]

    @property
    def cases(self) -> int:
        return len(self.checks)

    def __repr__(self):
        status = "pass" if self.passed else "FAIL"
        body = "".join("\n  FAIL " + msg for msg in self.failures)
        return f"Report({self.name}: {status}, {self.cases} checks){body}"


def check_axioms(m) -> Report:
    """Verify every Mackey (and Green) functor invariant; diagnostic, never raises.

    A Mackey identity holds when every generator row of the source level, pushed
    through the stored prime-step res, tr and Weyl maps of each side
    (``chain_image``), gives one element of the target (``same_class``): the row
    test ``AbHom.__eq__`` ran on the two composites, so every note keeps its bool
    for maps well defined or not, and no hom is built.  The double coset sum is
    taken below the transfer, which is linear; its twist g^{j·n/e}, j < e/l, is
    below n/l ≤ n/g, the order of the Weyl action on level g, so never reduced."""
    rep = Report(f"axioms of {m.name}")
    note = rep.note
    ctx, level, weyl = m.ctx, m.level, m.weyl
    n = ctx.n

    def agree(src, dst, left, right):  # on each generator row of level src, into level dst
        rows = [((x, 1),) for x in range(level[src].num_generators)]
        return all(level[dst].same_class(chain_image(x, left), chain_image(x, right)) for x in rows)

    def twisted_sum(x, down, twist, copies):  # Σ_{j < copies} twist^j down, on generator row x
        rows = [chain_image(((x, 1),), down)]
        for _ in range(1, copies):
            rows.append(chain_image(rows[-1], twist))
        return row_mul(tuple((j, 1) for j in range(copies)), rows)

    for d in ctx.divisors:
        note(agree(d, d, (weyl[d],) * (n // d), ()), f"weyl[{d}]^{n // d} != id")
    for (d, e) in prime_edges(ctx):
        r, t = m.res[(d, e)], m.tr[(d, e)]
        note(agree(e, d, (r, weyl[d]), (weyl[e], r)), f"res{(d, e)} does not commute with weyl")
        note(agree(d, e, (t, weyl[e]), (weyl[d], t)), f"tr{(d, e)} does not commute with weyl")

    # path independence: further maximal chains against the first, kept for the double coset formula
    res_path, tr_path = {}, {}
    for d in ctx.divisors:
        for e in ctx.divisors:
            if e % d == 0:
                first, *rest = ctx.all_prime_chains(d, e)
                down = res_path[(e, d)] = m.res_steps(first)
                up = tr_path[(d, e)] = m.tr_steps(first)
                for chain in rest:
                    note(agree(e, d, m.res_steps(chain), down), f"res {e}->{d} path-dependent")
                    note(agree(d, e, m.tr_steps(chain), up), f"tr {d}->{e} path-dependent")

    # double coset formula: tr_b^e res_a^e = Σ_{j < e/l} tr_g^a g^{j·n/e} res_g^b
    for e in ctx.divisors:
        for a in divisors(e):
            for b in divisors(e):
                g = gcd(a, b)
                lhs, down, up = tr_path[(b, e)] + res_path[(e, a)], res_path[(b, g)], tr_path[(g, a)]
                twist, copies, same = (weyl[g],) * (n // e), e * g // (a * b), level[a].same_class  # e/l copies
                rhs = (chain_image(twisted_sum(x, down, twist, copies), up) for x in range(level[b].num_generators))
                ok = all(same(chain_image(((x, 1),), lhs), y) for x, y in enumerate(rhs))
                note(ok, f"double coset fails at (a={a}, b={b}, e={e})")

    if not isinstance(m, GreenFunctor):
        return rep

    # Green: levelwise commutative unital associative rings, read from the
    # stored product cells and hom rows; a box table fills each cell once
    for d in ctx.divisors:
        same, k = level[d].same_class, level[d].num_generators
        table = [list(cells) for cells in m.mult[d]]
        cols = [[cells[t] for cells in table] for t in range(k)]  # cols[t][c] = e_c e_t
        for i in range(k):
            e_i = ((i, 1),)
            u = row_mul(m.unit[d], cols[i])
            note(u == e_i or same(u, e_i), f"unit fails at level {d}, generator {i}")
            row_i = table[i]
            for j in range(k):
                ij, row_j = row_i[j], table[j]
                ji = row_j[i]
                note(ij == ji or same(ij, ji), f"commutativity fails at level {d} ({i},{j})")
                for t in range(k):  # (e_i e_j) e_t and e_i (e_j e_t), maybe equal only modulo relations
                    lhs = row_mul(ij, cols[t])
                    rhs = row_mul(row_j[t], row_i)
                    note(lhs == rhs or same(lhs, rhs), f"associativity fails at level {d} ({i},{j},{t})")
    # res are ring maps; weyl are ring automorphisms
    maps = [(e, d, m.res[(d, e)], f"res{(d, e)}") for (d, e) in prime_edges(ctx)]
    maps += [(d, d, m.weyl[d], f"weyl[{d}]") for d in ctx.divisors]
    for src, dst, f, name in maps:
        same, rows = level[dst].same_class, f.rows
        table, target = m.mult[src], m.mult[dst]
        note(same(row_mul(m.unit[src], rows), m.unit[dst]), f"{name} does not preserve the unit")
        for i, fi in enumerate(rows):
            table_i = table[i]
            for j, fj in enumerate(rows):
                lhs = row_mul(table_i[j], rows)
                rhs = sparse_product(target, fi, fj)
                note(lhs == rhs or same(lhs, rhs), f"{name} not multiplicative ({i},{j})")
    # Frobenius reciprocity: tr(x · res y) = tr(x) · y
    for (d, e) in prime_edges(ctx):
        r, t, same = m.res[(d, e)].rows, m.tr[(d, e)].rows, level[e].same_class
        below, above = m.mult[d], m.mult[e]
        for i, tx in enumerate(t):
            for j, ry in enumerate(r):
                lhs = row_mul(sparse_product(below, ((i, 1),), ry), t)
                rhs = sparse_product(above, tx, ((j, 1),))
                note(lhs == rhs or same(lhs, rhs), f"Frobenius reciprocity fails at {(d, e)} ({i},{j})")
    return rep
