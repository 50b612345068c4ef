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
from itertools import compress, product
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


class _IntRows(tuple):
    """A matrix of int tuples that the package built itself; ``mat`` keeps it as is."""

    __slots__ = ()


def mat(rows) -> Matrix:
    if type(rows) is _IntRows:
        return rows
    return tuple(tuple(map(int, row)) for row in rows)


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
        for x, brow in compress(zip(row, b), row):  # nonzero x only
            for j, y in compress(enumerate(brow), brow):
                acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def vec_mat(v: Row, m: Matrix) -> Row:
    if len(v) != len(m):
        raise ValueError("vector/matrix shape mismatch")
    if not m:
        return ()
    return mat_mul((v,), m)[0]


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


def _axpy(dst: dict, src: dict, q: int) -> None:
    """dst += q·src on sparse rows; entries that cancel are dropped."""
    if q:
        for j, x in src.items():
            y = dst.get(j, 0) + q * x
            if y:
                dst[j] = y
            else:
                del dst[j]


def _combine(r1: dict, r2: dict, x: int, y: int) -> dict:
    """x·r1 + y·r2 on sparse rows."""
    out = {j: x * v for j, v in r1.items()} if x else {}
    _axpy(out, r2, y)
    return out


def _dense(items, width: int) -> Row:
    row = [0] * width
    for j, x in items:
        row[j] = x
    return tuple(row)


class _SNF:
    """Smith normal form with transforms, U · m · V = D, on sparse rows.

    The working matrix is a list of sparse rows ``{column: value}`` (zeros
    are never stored) with, per column, the set of rows nonzero there, so
    clearing a pivot column visits only those rows.  Columns keep their
    original labels; a column swap only exchanges two entries of the
    position → label permutation.  V is kept by columns and V⁻¹ by rows,
    both sparse and labelled the same way.

    The pivot is the smallest nonzero |x| in the remaining block, the first
    in row-major order, and the search stops at the first ±1.  Every row
    and column operation is the one the dense elimination performs, so the
    diagonal, U, V and V⁻¹ equal the dense ones (the tests keep the dense
    elimination as an oracle).  A fill-reducing pivot order would change V,
    which reaches output through ``reduce`` and ``elements``.

    D is kept as its ``diagonal`` (length min(rows, cols), zeros last: the
    nonzero entries are exactly the first ``rank``).  ``cols`` gives the
    width of a matrix without rows, whose V is the identity.  Membership,
    ``reduce``, ``element_order`` and ``elements`` read the sparse rows of V
    and V⁻¹ over the nonzeros of their input (m·V = U⁻¹·D has the row span
    of D); ``solve_left`` and ``kernel_basis`` also read U, replayed
    sparsely from the logged row operations on first use.  The dense ``u``,
    ``v`` and ``vinv`` tuples are built only when read.
    """

    def __init__(self, m: Matrix, cols: int | None = None):
        rows = len(m)
        if cols is None:
            cols = len(m[0]) if rows else 0
        a = [dict(compress(enumerate(r), r)) for r in m]
        at: list[set[int]] = [set() for _ in range(cols)]  # rows nonzero per column
        for i, r in enumerate(a):
            for j in r:
                at[j].add(i)
        vcols = [{j: 1} for j in range(cols)]
        vinv = [{j: 1} for j in range(cols)]
        perm = list(range(cols))  # position → column label
        pos = list(range(cols))  # column label → position
        # row operations, replayed by ``_urows``: (i, j) swaps rows i and j;
        # (dst, src, q) adds q·row src to row dst; (i,) negates row i;
        # (i, j, x, y, c, e) replaces rows i, j by x·ri + y·rj, c·ri + e·rj.
        ops: list[tuple[int, ...]] = []
        log = ops.append

        def add_entry(i, j, x):  # a[i][j] += x with x != 0, keeping the column sets
            r = a[i]
            if j not in r:
                r[j] = x
                at[j].add(i)
            elif r[j] + x:
                r[j] += x
            else:
                del r[j]
                at[j].discard(i)

        def set_row(i, new):
            for j in a[i]:
                at[j].discard(i)
            for j in new:
                at[j].add(i)
            a[i] = new

        def row_add(dst, src, q):
            for j, x in a[src].items() if q else ():
                add_entry(dst, j, q * x)
            log((dst, src, q))

        def col_add(dst, src, q):
            for i in at[src] if q else ():
                add_entry(i, dst, q * a[i][src])
            _axpy(vcols[dst], vcols[src], q)
            _axpy(vinv[src], vinv[dst], -q)

        def negate_row(i):
            a[i] = {j: -x for j, x in a[i].items()}
            log((i,))

        # Rows t, t+1, ... are zero left of position t, so their nonzeros
        # are exactly the remaining block's.
        t = 0
        while t < rows and t < cols:
            best = 0
            for i in range(t, rows):
                if a[i]:
                    x = min(map(abs, a[i].values()))
                    if not best or x < best:
                        best, pi = x, i
                        if x == 1:
                            break
            if not best:
                break
            pj = min(pos[j] for j, x in a[pi].items() if abs(x) == best)
            if pi != t:
                r1, r2 = a[t], a[pi]
                set_row(t, {})
                set_row(pi, r1)
                set_row(t, r2)
                log((t, pi))
            perm[t], perm[pj] = perm[pj], perm[t]
            pos[perm[t]], pos[perm[pj]] = t, pj
            c = perm[t]
            dirty = False
            p = a[t][c]
            for i in sorted(at[c]):
                if i > t:
                    row_add(i, t, -(a[i][c] // p))
                    dirty = dirty or c in a[i]
            for j, x in list(a[t].items()):
                if j != c:
                    col_add(j, c, -(x // p))
                    dirty = dirty or j in a[t]
            if dirty:
                continue  # residues smaller than |p| exist; re-pivot this block
            if p < 0:
                negate_row(t)
            t += 1

        # enforce the divisibility chain d_i | d_{i+1}
        k = min(rows, cols)
        changed = True
        while changed:
            changed = False
            for i in range(k - 1):
                ci, cj = perm[i], perm[i + 1]
                di, dj = a[i].get(ci, 0), a[i + 1].get(cj, 0)
                if di and dj % di != 0:
                    # fold position i+1 into the block at i, whose 2x2 block
                    # is then [[di,0],[dj,dj]]; clear it with the extended gcd
                    col_add(ci, cj, 1)
                    g = gcd(di, dj)
                    x, y = _xgcd(di, dj)
                    ri, rj = a[i], a[i + 1]
                    set_row(i, _combine(ri, rj, x, y))
                    set_row(i + 1, _combine(ri, rj, -dj // g, di // g))
                    log((i, i + 1, x, y, -dj // g, di // g))
                    # clear the off-diagonal entries the fold introduced
                    if a[i].get(cj):
                        col_add(cj, ci, -(a[i][cj] // a[i][ci]))
                    if a[i + 1].get(ci):
                        row_add(i + 1, i, -(a[i + 1][ci] // a[i][ci]))
                    if a[i + 1].get(cj, 0) < 0:
                        negate_row(i + 1)
                    changed = True
        self._rows, self._cols, self._row_ops = rows, cols, ops
        # V's column j and V⁻¹'s row j are the ones labelled perm[j]
        self._vrows: list[list[tuple[int, int]]] = [[] for _ in range(cols)]
        for j, c in enumerate(perm):
            for i, x in vcols[c].items():
                self._vrows[i].append((j, x))
        self._vinv = [tuple(vinv[c].items()) for c in perm]
        self.diagonal = tuple(a[i].get(perm[i], 0) for i in range(k))
        self.rank = sum(1 for x in self.diagonal if x)

    @cached_property
    def _urows(self) -> list[dict]:
        u = [{i: 1} for i in range(self._rows)]
        for op in self._row_ops:
            if len(op) == 3:
                _axpy(u[op[0]], u[op[1]], op[2])
            elif len(op) == 2:
                u[op[0]], u[op[1]] = u[op[1]], u[op[0]]
            elif len(op) == 1:
                u[op[0]] = {j: -x for j, x in u[op[0]].items()}
            else:
                i, j, x, y, c, e = op
                u[i], u[j] = _combine(u[i], u[j], x, y), _combine(u[i], u[j], c, e)
        del self._row_ops  # no longer needed once U exists
        return u

    @cached_property
    def u(self) -> Matrix:
        return tuple(_dense(r.items(), self._rows) for r in self._urows)

    @cached_property
    def v(self) -> Matrix:
        return tuple(_dense(r, self._cols) for r in self._vrows)

    @cached_property
    def vinv(self) -> Matrix:
        return tuple(_dense(r, self._cols) for r in self._vinv)

    def coords(self, b) -> dict[int, int]:
        """b·V as {position: value}, from the (index, value) pairs of b."""
        z: dict[int, int] = {}
        for i, x in b:
            for j, y in self._vrows[i] if x else ():
                z[j] = z.get(j, 0) + x * y
        return z

    def dense_coords(self, b: Row) -> dict[int, int]:
        if len(b) != self._cols:
            raise ValueError("rhs length mismatch")
        return self.coords(compress(enumerate(b), b))

    def spans(self, z: dict[int, int]) -> bool:
        """Whether z = b·V lies in the row span of D, i.e. b in rowspan(m)."""
        diag, rank = self.diagonal, self.rank
        for j, t in z.items():
            if t and (j >= rank or t % diag[j]):
                return False
        return True


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


def solve_left(m: Matrix, b: Row, _snf_cache: _SNF | None = None) -> Row | None:
    """Solve x · m = b over ℤ; returns one solution or None.

    A caller that solves against the same m repeatedly passes its ``_SNF``
    so that m is factored once.
    """
    if not m:
        return () if not any(b) else None
    s = _snf_cache if _snf_cache is not None else _SNF(m)
    z = s.dense_coords(b)
    if not s.spans(z):
        return None
    # y·D = b·V, so (y·U)·m = b
    x = [0] * len(m)
    for j, urow in enumerate(s._urows[: s.rank]):
        y = z.get(j, 0) // s.diagonal[j]
        for i, e in urow.items() if y else ():
            x[i] += y * e
    return tuple(x)


def kernel_basis(m: Matrix) -> Matrix:
    """Basis of the lattice {x : x · m = 0}."""
    if not m:
        return ()
    s = _SNF(mat(m))
    return tuple(_dense(r.items(), s._rows) for r in s._urows[s.rank:])


def in_rowspan(rel: Matrix, b: Row, _snf_cache: _SNF | None = None) -> bool:
    """Whether b lies in the row span of rel; never builds U."""
    if not rel:
        return not any(b)
    s = _snf_cache if _snf_cache is not None else _SNF(rel)
    return s.spans(s.dense_coords(b))


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
        return _SNF(self.relations, self.num_generators)

    @cached_property
    def _sparse_relations(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return tuple(tuple(compress(enumerate(r), r)) for r in self.relations)

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
        if not self.relations:
            return tuple(x)
        s = self._rel_snf
        out = [0] * self.num_generators
        for j, t in s.dense_coords(tuple(x)).items():
            if j < s.rank:
                t %= s.diagonal[j]
            for c, y in s._vinv[j] if t else ():
                out[c] += t * y
        return tuple(out)

    def elements(self):
        """Iterate over canonical representatives (finite groups only)."""
        if not self.is_finite():
            raise ValueError("infinite group")
        s = self._rel_snf
        cyclic = [(s._vinv[j], d) for j, d in enumerate(s.diagonal) if d > 1]
        for zs in product(*(range(d) for _, d in cyclic)):
            out = [0] * self.num_generators
            for (row, _), t in zip(cyclic, zs):
                for c, y in row if t else ():
                    out[c] += t * y
            yield tuple(out)

    def subgroup_hnf(self, rows: Matrix) -> Matrix:
        """Canonical lattice basis of the subgroup generated by rows (with relations)."""
        return row_hnf(stack(mat(rows), self.relations), self.num_generators)

    def element_order(self, x: Row) -> int:
        """Additive order of the class of x (0 means infinite)."""
        s = self._rel_snf
        n = 1
        for j, t in s.dense_coords(tuple(x)).items():
            if j >= s.rank:
                if t:
                    return 0
            else:
                d = s.diagonal[j]
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
            # r·M over the nonzeros of r and of M's rows, then tested in the
            # target's diagonal coordinates
            tsnf = target._rel_snf
            rows: dict[int, list[tuple[int, int]]] = {}
            for r, sparse in zip(source.relations, source._sparse_relations):
                img: dict[int, int] = {}
                for i, x in sparse:
                    if i not in rows:
                        rows[i] = list(compress(enumerate(self.matrix[i]), self.matrix[i]))
                    for j, y in rows[i]:
                        img[j] = img.get(j, 0) + x * y
                if not tsnf.spans(tsnf.coords(img.items())):
                    raise NotWellDefinedError(
                        f"relation {r} maps to {vec_mat(r, self.matrix)}, not in target relations"
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
            if r1 != r2 and not tsnf.spans(tsnf.coords((j, a - b) for j, (a, b) in enumerate(zip(r1, r2)))):
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
        return _SNF(self.cycle_basis, self.ambient.num_generators)

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
