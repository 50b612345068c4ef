"""Exact arithmetic of finitely generated abelian groups.

Groups are presented as F/R with F free on a finite generating set and R the
row span of an integer relation matrix.  Everything is computed over the
integers via Smith normal form: canonical forms, kernels, cokernels,
homology of two-term composites, tensor products.  Vectors are rows; a
homomorphism acts on the right, so ``compose(f, g)`` is "f then g" with
matrix ``f.matrix @ g.matrix``.

All objects are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from math import gcd

Row = tuple[int, ...]
Matrix = tuple[Row, ...]


class CompositeNotZeroError(ValueError):
    """Raised by homology() when d_out ∘ d_in is not zero."""


class NotWellDefinedError(ValueError):
    """Raised when a matrix does not send source relations into target relations."""


class NotInSubgroupError(ValueError):
    """Raised when an element cannot be expressed in a given lattice basis."""


# ---------------------------------------------------------------------------
# integer matrix utilities


def mat(rows) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity_matrix(k: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def zero_matrix(rows: int, cols: int) -> Matrix:
    return tuple((0,) * cols for _ in range(rows))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch")
    if not b:
        return tuple(() for _ in a)
    cols = len(b[0])
    out = []
    for row in a:
        acc = [0] * cols
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def vec_mat(v: Row, m: Matrix) -> Row:
    if len(v) != len(m):
        raise ValueError("vector/matrix shape mismatch")
    if not m:
        return ()
    cols = len(m[0])
    acc = [0] * cols
    for x, row in zip(v, m):
        if x:
            for j, y in enumerate(row):
                if y:
                    acc[j] += x * y
    return tuple(acc)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(a, b))


def mat_scale(c: int, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in r) for r in a)


def mat_pow(a: Matrix, k: int) -> Matrix:
    out = identity_matrix(len(a))
    for _ in range(k):
        out = mat_mul(out, a)
    return out


class _SNF:
    """Smith normal form with transforms: U · m · V = D.

    Pivoting picks the smallest nonzero absolute value in the remaining
    block, which bounds entry growth at the matrix sizes used here.  V's
    inverse is tracked alongside so that generator coordinates can be
    converted to and from diagonal coordinates.

    D is kept as its ``diagonal`` (length min(rows, cols), zeros last).
    Each question reads only what it needs:

    - canonical forms and ranks read ``diagonal`` and ``rank``;
    - ``in_rowspan``, ``FgAbGroup.reduce``, ``element_order`` and
      ``elements`` read ``diagonal`` and ``v`` / ``vinv`` (since
      m·V = U⁻¹·D has the row span of D);
    - ``solve_left``, ``kernel_basis`` and ``snf`` also read ``u``.

    ``u`` (rows × rows) is built on first access by replaying the logged row
    operations on the identity, so a question that never reads it never
    pays for it.
    """

    def __init__(self, m: Matrix):
        rows = len(m)
        cols = len(m[0]) if rows else 0
        a = [list(r) for r in m]
        v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
        vinv = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
        # row operations, replayed by ``u``: (i, j) swaps rows i and j;
        # (dst, src, q) adds q·row src to row dst; (i,) negates row i;
        # (i, j, x, y, c, e) replaces rows i, j by x·ri + y·rj, c·ri + e·rj.
        ops: list[tuple[int, ...]] = []
        log = ops.append

        def row_swap(i1, i2):
            a[i1], a[i2] = a[i2], a[i1]
            log((i1, i2))

        def row_add(dst, src, q):
            arow, asrc = a[dst], a[src]
            for j in range(cols):
                arow[j] += q * asrc[j]
            log((dst, src, q))

        def col_swap(j1, j2):
            for r in a:
                r[j1], r[j2] = r[j2], r[j1]
            for r in v:
                r[j1], r[j2] = r[j2], r[j1]
            vinv[j1], vinv[j2] = vinv[j2], vinv[j1]

        def col_add(dst, src, q):
            for r in a:
                r[dst] += q * r[src]
            for r in v:
                r[dst] += q * r[src]
            vsrc = vinv[src]
            vdst = vinv[dst]
            for j in range(cols):
                vsrc[j] -= q * vdst[j]

        def negate_row(i):
            a[i] = [-x for x in a[i]]
            log((i,))

        t = 0
        while True:
            pivot = None
            best = None
            for i in range(t, rows):
                arow = a[i]
                for j in range(t, cols):
                    x = arow[j]
                    if x and (best is None or abs(x) < best):
                        best = abs(x)
                        pivot = (i, j)
                        if best == 1:
                            break
                if best == 1:
                    break
            if pivot is None:
                break
            i, j = pivot
            if i != t:
                row_swap(t, i)
            if j != t:
                col_swap(t, j)
            dirty = False
            p = a[t][t]
            for i in range(t + 1, rows):
                x = a[i][t]
                if x:
                    q = -(x // p)
                    row_add(i, t, q)
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, cols):
                x = a[t][j]
                if x:
                    q = -(x // p)
                    col_add(j, t, q)
                    if a[t][j]:
                        dirty = True
            if dirty:
                continue  # residues smaller than |p| exist; re-pivot this block
            if a[t][t] < 0:
                negate_row(t)
            t += 1
            if t >= rows or t >= cols:
                break

        # enforce the divisibility chain d_i | d_{i+1}
        k = min(rows, cols)
        changed = True
        while changed:
            changed = False
            for i in range(k - 1):
                di, dj = a[i][i], a[i + 1][i + 1]
                if di and dj % di != 0:
                    # fold position i+1 into the block at i and re-reduce
                    col_add(i, i + 1, 1)
                    g = gcd(di, dj)
                    # 2x2 block is now [[di,0],[dj,dj]]; clear it by hand
                    # using the extended gcd.
                    x, y = _xgcd(di, dj)
                    # row ops: new row i = x*row_i + y*row_{i+1}
                    ri, rj = a[i], a[i + 1]
                    a[i] = [x * p + y * q for p, q in zip(ri, rj)]
                    a[i + 1] = [(-dj // g) * p + (di // g) * q for p, q in zip(ri, rj)]
                    log((i, i + 1, x, y, -dj // g, di // g))
                    # clear the off-diagonal entries the fold introduced
                    if a[i][i + 1]:
                        col_add(i + 1, i, -(a[i][i + 1] // a[i][i]))
                    if a[i + 1][i]:
                        row_add(i + 1, i, -(a[i + 1][i] // a[i][i]))
                    if a[i + 1][i + 1] < 0:
                        negate_row(i + 1)
                    changed = True
        # the pivot loop fills positions 0..rank-1, so zeros already sit last
        self._rows = rows
        self._row_ops = ops
        self.v = mat(v)
        self.vinv = mat(vinv)
        self.diagonal = tuple(a[i][i] for i in range(k))
        self.rank = sum(1 for x in self.diagonal if x)

    @cached_property
    def u(self) -> Matrix:
        rows = self._rows
        u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
        for op in self._row_ops:
            if len(op) == 3:
                dst, src, q = op
                udst = u[dst]
                for j, x in enumerate(u[src]):
                    if x:
                        udst[j] += q * x
            elif len(op) == 2:
                i1, i2 = op
                u[i1], u[i2] = u[i2], u[i1]
            elif len(op) == 1:
                u[op[0]] = [-x for x in u[op[0]]]
            else:
                i, j, x, y, c, e = op
                ri, rj = u[i], u[j]
                u[i] = [x * p + y * q for p, q in zip(ri, rj)]
                u[j] = [c * p + e * q for p, q in zip(ri, rj)]
        del self._row_ops  # no longer needed once U exists
        return mat(u)


def _xgcd(a: int, b: int) -> tuple[int, int]:
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y = -x, -y
    return x, y


def snf(m) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form: returns (U, D, V) with U·m·V = D.

    D is diagonal with nonnegative entries satisfying d_i | d_{i+1} on the
    nonzero diagonal; U, V are unimodular.  Total on integer matrices,
    including empty ones.  The factorization is re-verified by
    multiplication before returning.
    """
    m = mat(m)
    s = _SNF(m)
    cols = len(m[0]) if m else 0
    diag = s.diagonal
    d = tuple(
        tuple(diag[i] if i == j else 0 for j in range(cols)) for i in range(len(m))
    )
    if mat_mul(mat_mul(s.u, m), s.v) != d:
        raise AssertionError("Smith normal form round-trip failed")
    return s.u, d, s.v


def _diagonal_solve(s: _SNF, b: Row) -> list[int] | None:
    """y with y·D = b·V (so (y·U)·m = b), or None when b ∉ rowspan(m).

    m·V = U⁻¹·D has the row span of D, so b is in the span iff each
    coordinate of b·V is divisible by its diagonal entry, and is zero where
    there is none.  Reads the diagonal and V only; y has length rank.
    """
    if len(b) != len(s.v):
        raise ValueError("rhs length mismatch")
    diag = s.diagonal
    y = []
    for j, t in enumerate(vec_mat(b, s.v)):
        d = diag[j] if j < len(diag) else 0
        if d:
            if t % d:
                return None
            y.append(t // d)
        elif t:
            return None
    return y


def solve_left(m: Matrix, b: Row, _snf_cache: _SNF | None = None) -> Row | None:
    """Solve x · m = b over ℤ; returns one solution or None.

    A caller that solves against the same m repeatedly passes its ``_SNF``
    so that m is factored once.
    """
    if not m:
        return () if not any(b) else None
    s = _snf_cache if _snf_cache is not None else _SNF(m)
    y = _diagonal_solve(s, b)
    if y is None:
        return None
    return vec_mat(tuple(y) + (0,) * (len(m) - s.rank), s.u)


def kernel_basis(m: Matrix) -> Matrix:
    """Basis of the lattice {x : x · m = 0}."""
    if not m:
        return ()
    s = _SNF(mat(m))
    return s.u[s.rank:]


def in_rowspan(rel: Matrix, b: Row, _snf_cache: _SNF | None = None) -> bool:
    """Whether b lies in the row span of rel; never builds U."""
    if not rel:
        return not any(b)
    s = _snf_cache if _snf_cache is not None else _SNF(rel)
    return _diagonal_solve(s, b) is not None


def stack(*mats: Matrix) -> Matrix:
    out: list[Row] = []
    for m in mats:
        out.extend(m)
    return tuple(out)


def preimage_basis(m: Matrix, target_rel: Matrix) -> Matrix:
    """Rows spanning {x : x · m ∈ rowspan(target_rel)}."""
    rows = len(m)
    if rows == 0:
        return ()
    big = stack(m, target_rel)
    ker = kernel_basis(big)
    return tuple(row[:rows] for row in ker)


def row_hnf(rows: Matrix, cols: int) -> Matrix:
    """Canonical (row-style Hermite) basis of the lattice spanned by rows.

    Used for subgroup equality: two spanning sets give the same lattice iff
    their HNFs are identical.
    """
    work = [list(r) for r in rows if any(r)]
    basis: list[list[int]] = []
    pivot_col_of: dict[int, int] = {}
    for row in work:
        r = row
        while True:
            j = next((k for k, x in enumerate(r) if x), None)
            if j is None:
                break
            if j in pivot_col_of:
                piv = basis[pivot_col_of[j]]
                a, b = piv[j], r[j]
                if b % a == 0:
                    q = b // a
                    r = [x - q * y for x, y in zip(r, piv)]
                else:
                    x, y = _xgcd(a, b)
                    g = gcd(a, b)
                    new_piv = [x * p + y * q2 for p, q2 in zip(piv, r)]
                    new_r = [(-b // g) * p + (a // g) * q2 for p, q2 in zip(piv, r)]
                    basis[pivot_col_of[j]] = new_piv
                    r = new_r
            else:
                if r[j] < 0:
                    r = [-x for x in r]
                pivot_col_of[j] = len(basis)
                basis.append(r)
                break
    # reduce entries above each pivot and sort by pivot column
    basis.sort(key=lambda row: next(k for k, x in enumerate(row) if x))
    for i in range(len(basis) - 1, -1, -1):
        j = next(k for k, x in enumerate(basis[i]) if x)
        p = basis[i][j]
        for i2 in range(i):
            q = basis[i2][j] // p
            if q:
                basis[i2] = [x - q * y for x, y in zip(basis[i2], basis[i])]
    return tuple(tuple(r) for r in basis)


# ---------------------------------------------------------------------------
# groups and homs


class FgAbGroup:
    """A finitely generated abelian group presented by integer relations.

    ``FgAbGroup(k, rows)`` is the quotient of ℤ^k by the row span of
    ``rows`` (for k = 0 the rows are empty, and none is kept).  The
    presentation keeps its generators; the canonical form (invariant
    factors + free rank) is computed lazily from SNF and is a complete
    isomorphism invariant.
    """

    __slots__ = ("num_generators", "relations", "__dict__")

    def __init__(self, num_generators: int, relations=()):
        self.num_generators = int(num_generators)
        rel = mat(relations)
        for r in rel:
            if len(r) != self.num_generators:
                raise ValueError("relation row has wrong length")
        self.relations = rel if self.num_generators else ()

    def __repr__(self):
        inv, rank = self.canonical_form
        parts = [f"Z/{d}" for d in inv] + ["Z"] * rank
        return " + ".join(parts) if parts else "0"

    @cached_property
    def _rel_snf(self) -> _SNF:
        return _SNF(self.relations)

    @cached_property
    def canonical_form(self) -> tuple[tuple[int, ...], int]:
        s = self._rel_snf
        inv = tuple(d for d in s.diagonal if d > 1)
        rank = self.num_generators - s.rank
        return inv, rank

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return self.canonical_form[0]

    @property
    def free_rank(self) -> int:
        return self.canonical_form[1]

    def is_trivial(self) -> bool:
        return self.canonical_form == ((), 0)

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int:
        if not self.is_finite():
            raise ValueError("infinite group")
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def zero(self) -> Row:
        return (0,) * self.num_generators

    def is_zero_element(self, x: Row) -> bool:
        return in_rowspan(self.relations, x, self._rel_snf)

    def elements_equal(self, x: Row, y: Row) -> bool:
        return self.is_zero_element(tuple(a - b for a, b in zip(x, y)))

    def reduce(self, x: Row) -> Row:
        """Canonical representative of the class of x.

        Relations are diagonal in the coordinates z = x · V (since R·V =
        U⁻¹·D has the row span of D), so reduce there and come back via V⁻¹.
        """
        s = self._rel_snf
        if not self.relations:
            return tuple(x)
        z = list(vec_mat(tuple(x), s.v))
        for j in range(len(z)):
            d = s.diagonal[j] if j < len(s.diagonal) else 0
            if d:
                z[j] %= d
        return vec_mat(tuple(z), s.vinv)

    def elements(self):
        """Iterate over canonical representatives (finite groups only)."""
        if not self.is_finite():
            raise ValueError("infinite group")
        s = self._rel_snf
        k = self.num_generators
        moduli = [s.diagonal[j] if j < len(s.diagonal) else 0 for j in range(k)]
        ranges = [range(d if d else 1) for d in moduli]
        for zs in product(*ranges):
            yield vec_mat(tuple(zs), s.vinv)

    def subgroup_hnf(self, rows: Matrix) -> Matrix:
        """Canonical lattice basis of the subgroup generated by rows (with relations)."""
        return row_hnf(stack(mat(rows), self.relations), self.num_generators)

    def element_order(self, x: Row) -> int:
        """Additive order of the class of x (0 means infinite)."""
        x = tuple(x)
        s = self._rel_snf
        y = vec_mat(x, s.v)
        n = 1
        for j, t in enumerate(y):
            d = s.diagonal[j] if j < len(s.diagonal) else 0
            if d == 0:
                if t:
                    return 0
            else:
                t %= d
                if t:
                    o = d // gcd(t, d)
                    n = n * o // gcd(n, o)
        return n

    def __eq__(self, other):
        return (
            isinstance(other, FgAbGroup)
            and self.num_generators == other.num_generators
            and self.relations == other.relations
        )

    def __hash__(self):
        return hash((self.num_generators, self.relations))


ZERO_GROUP = FgAbGroup(0, ())


def free_group(rank: int) -> FgAbGroup:
    return FgAbGroup(rank, ())


def cyclic_group(m: int) -> FgAbGroup:
    if m == 0:
        return free_group(1)
    return FgAbGroup(1, ((m,),))


class AbHom:
    """Homomorphism between presented groups, as a matrix on generators.

    Well-definedness (source relations land in the target relation span) is
    certified at construction.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FgAbGroup, target: FgAbGroup, matrix, check: bool = True):
        self._set(source, target, mat(matrix))
        if check:
            tsnf = target._rel_snf
            for r in source.relations:
                img = vec_mat(r, self.matrix)
                if not in_rowspan(target.relations, img, tsnf):
                    raise NotWellDefinedError(
                        f"relation {r} maps to {img}, not in target relations"
                    )

    def _set(self, source: FgAbGroup, target: FgAbGroup, matrix: Matrix) -> None:
        self.source = source
        self.target = target
        self.matrix = matrix
        if len(matrix) != source.num_generators:
            raise ValueError("matrix has wrong number of rows")
        for r in matrix:
            if len(r) != target.num_generators:
                raise ValueError("matrix has wrong number of columns")

    @classmethod
    def _unchecked(cls, source: FgAbGroup, target: FgAbGroup, matrix: Matrix) -> "AbHom":
        """An uncertified hom on a matrix of int tuples that this module built."""
        hom = cls.__new__(cls)
        hom._set(source, target, matrix)
        return hom

    def __repr__(self):
        return f"AbHom({self.source!r} -> {self.target!r})"

    @staticmethod
    def identity(g: FgAbGroup) -> "AbHom":
        return AbHom._unchecked(g, g, identity_matrix(g.num_generators))

    @staticmethod
    def zero(source: FgAbGroup, target: FgAbGroup) -> "AbHom":
        return AbHom._unchecked(source, target, zero_matrix(source.num_generators, target.num_generators))

    def apply(self, x: Row) -> Row:
        return vec_mat(tuple(x), self.matrix)

    def compose(self, then: "AbHom") -> "AbHom":
        """self followed by `then`."""
        if self.target.num_generators != then.source.num_generators:
            raise ValueError("composition shape mismatch")
        return AbHom._unchecked(self.source, then.target, mat_mul(self.matrix, then.matrix))

    def add(self, other: "AbHom") -> "AbHom":
        return AbHom._unchecked(self.source, self.target, mat_add(self.matrix, other.matrix))

    def sub(self, other: "AbHom") -> "AbHom":
        return AbHom._unchecked(self.source, self.target, mat_sub(self.matrix, other.matrix))

    def scale(self, c: int) -> "AbHom":
        return AbHom._unchecked(self.source, self.target, mat_scale(c, self.matrix))

    def power(self, k: int) -> "AbHom":
        if self.source is not self.target and self.source != self.target:
            raise ValueError("power of non-endomorphism")
        return AbHom._unchecked(self.source, self.target, mat_pow(self.matrix, k))

    def __eq__(self, other):
        """Equality modulo target relations."""
        if not isinstance(other, AbHom):
            return NotImplemented
        if (
            self.source.num_generators != other.source.num_generators
            or self.target != other.target
        ):
            return False
        tsnf = self.target._rel_snf
        for r1, r2 in zip(self.matrix, other.matrix):
            if not in_rowspan(self.target.relations, tuple(a - b for a, b in zip(r1, r2)), tsnf):
                return False
        return True

    def __hash__(self):
        raise TypeError("AbHom is unhashable (equality is modulo relations)")

    def is_zero(self) -> bool:
        return self == AbHom.zero(self.source, self.target)

    def kernel(self) -> tuple[FgAbGroup, "AbHom"]:
        """Kernel subgroup and its inclusion into the source."""
        sq = Subquotient(self.source, preimage_basis(self.matrix, self.target.relations), ())
        return sq.group, AbHom._unchecked(sq.group, self.source, sq.cycle_basis)

    def cokernel(self) -> tuple[FgAbGroup, "AbHom"]:
        """Cokernel on the target's own generators, with the projection."""
        q = FgAbGroup(self.target.num_generators, stack(self.target.relations, self.matrix))
        proj = AbHom._unchecked(self.target, q, identity_matrix(self.target.num_generators))
        return q, proj

    def is_injective(self) -> bool:
        return self.kernel()[0].is_trivial()

    def is_surjective(self) -> bool:
        return self.cokernel()[0].is_trivial()

    def is_isomorphism(self) -> bool:
        return self.is_surjective() and self.is_injective()


def direct_sum(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    rels = [r + (0,) * b.num_generators for r in a.relations]
    rels += [(0,) * a.num_generators + r for r in b.relations]
    return FgAbGroup(a.num_generators + b.num_generators, rels)


def tensor(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """Tensor product: generators g_a × g_b, relations r_a ⊗ id and id ⊗ r_b."""
    na, nb = a.num_generators, b.num_generators
    rels = []
    for r in a.relations:
        for j in range(nb):
            row = [0] * (na * nb)
            for i, x in enumerate(r):
                row[i * nb + j] = x
            rels.append(tuple(row))
    for r in b.relations:
        for i in range(na):
            row = [0] * (na * nb)
            for j, x in enumerate(r):
                row[i * nb + j] = x
            rels.append(tuple(row))
    return FgAbGroup(na * nb, rels)


def tensor_hom(f: AbHom, g: AbHom, source: FgAbGroup | None = None, target: FgAbGroup | None = None) -> AbHom:
    src = source if source is not None else tensor(f.source, g.source)
    tgt = target if target is not None else tensor(f.target, g.target)
    rows = []
    for frow in f.matrix:
        for grow in g.matrix:
            rows.append(tuple(x * y for x in frow for y in grow))
    return AbHom._unchecked(src, tgt, tuple(rows))


class Subquotient:
    """ker(d_out)/im(d_in) inside an ambient presented group.

    The one construction that turns a sublattice into a presented group with
    coordinates: kernels (no boundary rows), fixed-point levels and homology
    all go through it.  Keeps the cycle lattice so that elements of the
    ambient group can be projected to classes and chain maps can be pushed
    to induced maps.  The lattice is factored once, on the first solve.
    """

    def __init__(self, ambient: FgAbGroup, cycle_rows: Matrix, boundary_rows: Matrix):
        self.ambient = ambient
        lat = row_hnf(stack(cycle_rows, ambient.relations), ambient.num_generators)
        self.cycle_basis = lat
        rel = []
        for r in stack(boundary_rows, ambient.relations):
            coeffs = solve_left(lat, r, self._cycle_snf)
            if coeffs is None:
                raise NotInSubgroupError("boundary not contained in cycles")
            rel.append(coeffs)
        self.group = FgAbGroup(len(lat), rel)

    @cached_property
    def _cycle_snf(self) -> _SNF:
        return _SNF(self.cycle_basis)

    def project(self, x: Row) -> Row:
        coeffs = solve_left(self.cycle_basis, tuple(x), self._cycle_snf)
        if coeffs is None:
            raise NotInSubgroupError("element is not a cycle")
        return coeffs

    def lift(self, i: int) -> Row:
        return self.cycle_basis[i]

    def induced(self, f: AbHom, target: "Subquotient") -> AbHom:
        """Map on homology induced by a chain map f between the ambients."""
        rows = [target.project(f.apply(self.lift(i))) for i in range(len(self.cycle_basis))]
        return AbHom(self.group, target.group, rows)


def homology_subquotient(d_in: AbHom, d_out: AbHom) -> Subquotient:
    if d_in.target != d_out.source:
        raise ValueError("middle groups differ")
    comp = d_in.compose(d_out)
    if not comp.is_zero():
        raise CompositeNotZeroError("d_out ∘ d_in is not zero")
    cycles = preimage_basis(d_out.matrix, d_out.target.relations)
    return Subquotient(d_in.target, cycles, d_in.matrix)


def homology(d_in: AbHom, d_out: AbHom) -> FgAbGroup:
    """ker(d_out)/im(d_in) in canonical form (as a presented group)."""
    return homology_subquotient(d_in, d_out).group
