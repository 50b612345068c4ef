"""Exact arithmetic of finitely generated abelian groups.

Groups are presented as F/R with F free on a finite generating set and R the
row span of an integer relation matrix.  Everything is computed over the
integers via Smith normal form: canonical forms, kernels, cokernels,
homology of two-term composites, tensor products.  A homomorphism acts on
the right of row vectors, so ``compose(f, g)`` is "f then g" with matrix
``f.rows · g.rows``.

Matrices are kept by their nonzeros (``Sparse``): relations, hom matrices,
lattices and factorizations never store a zero entry, and the packages
above keep Green product tables and units as the same sparse rows.  Dense
int tuples are the element API (``FgAbGroup`` element methods,
``AbHom.apply``) and output: the ``relations`` and ``matrix`` views,
``mat`` and the public ``snf``.  The module functions also take dense rows,
for callers outside the package, and answer in the form they were given.

All objects are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import compress, product
from math import gcd

Row = tuple[int, ...]
Matrix = tuple[Row, ...]
SparseRow = tuple[tuple[int, int], ...]


class CompositeNotZeroError(ValueError):
    """Raised by homology() when d_out ∘ d_in is not zero."""


class NotWellDefinedError(ValueError):
    """Raised when a matrix does not send source relations into target relations."""


class NotInSubgroupError(ValueError):
    """Raised when an element cannot be expressed in a given lattice basis."""


# ---------------------------------------------------------------------------
# integer matrix utilities


class Sparse(tuple):
    """An integer matrix by its nonzeros: the package's one matrix type.

    A tuple of rows, each a tuple of (column, value) pairs with nonzero
    values in increasing column order, and ``width``, the number of columns.
    """

    def __new__(cls, rows=(), width: int = 0):
        self = super().__new__(cls, rows)
        self.width = width
        return self

    @classmethod
    def of(cls, m, width: int | None = None) -> "Sparse":
        """m itself when it is Sparse, else the nonzeros of the dense int rows m."""
        if isinstance(m, Sparse):
            return m
        m = tuple(m)
        if width is None:
            width = len(m[0]) if m else 0
        if any(len(r) != width for r in m):
            raise ValueError("matrix row has wrong length")
        return cls((tuple((j, int(x)) for j, x in enumerate(r) if x) for r in m), width)

    @classmethod
    def distinct(cls, rows, width: int) -> "Sparse":
        """The nonzero sparse rows, each once, in first-occurrence order."""
        return cls(filter(None, dict.fromkeys(rows)), width)


def nonzeros(v: Row) -> SparseRow:
    """The sparse row of a dense int vector."""
    return tuple(compress(enumerate(v), v))


def sparse_row(acc: dict) -> SparseRow:
    """The sparse row of {column: value}."""
    return tuple(sorted(p for p in acc.items() if p[1]))


def is_sparse_row(row, k: int) -> bool:
    """Whether ``row`` is a sparse row as ``Sparse`` stores one: (column, value)
    pairs of ints (not bools), columns rising strictly in range(k), values nonzero."""
    last = -1
    try:
        for j, x in row:
            if type(j) is not int or type(x) is not int or not x or not last < j < k:
                return False
            last = j
    except (TypeError, ValueError):
        return False
    return True


def dense_row(items, width: int) -> Row:
    """The dense row of width ``width`` with the given (column, value) pairs."""
    row = [0] * width
    for j, x in items:
        row[j] = x
    return tuple(row)


def mat(rows) -> Matrix:
    """Dense int tuples: a Sparse matrix expanded, anything else read as int rows."""
    if isinstance(rows, Sparse):
        return tuple(dense_row(r, rows.width) for r in rows)
    return tuple(tuple(map(int, row)) for row in rows)


def _like(m, out: Sparse):
    """out in the form of m: as is when m is Sparse, else as dense rows."""
    return out if isinstance(m, Sparse) else mat(out)


def row_mul(row: SparseRow, b) -> SparseRow:
    """row · b for a sparse row and the sparse rows b."""
    if len(row) == 1:
        ((k, x),) = row
        return b[k] if x == 1 else tuple((j, x * y) for j, y in b[k])
    acc: dict[int, int] = {}
    for k, x in row:
        for j, y in b[k]:
            acc[j] = acc.get(j, 0) + x * y
    return sparse_row(acc)


def mat_mul(a, b):
    """a · b, in the form of a."""
    sa, sb = Sparse.of(a), Sparse.of(b)
    if sa and sa.width != len(sb):
        raise ValueError("matrix shape mismatch")
    return _like(a, Sparse((row_mul(r, sb) for r in sa), sb.width))


def vec_mat(v: Row, m) -> Row:
    """The dense row v · m."""
    m = Sparse.of(m)
    if len(v) != len(m):
        raise ValueError("vector/matrix shape mismatch")
    out = [0] * m.width
    for row, x in compress(zip(m, v), v):
        for j, y in row:
            out[j] += x * y
    return tuple(out)


def _axpy(dst: dict, src, q: int) -> None:
    """dst += q·src for the (column, value) pairs src; entries that cancel are dropped."""
    if q:
        for j, x in src:
            y = dst.get(j, 0) + q * x
            if y:
                dst[j] = y
            else:
                del dst[j]


def _combine(r1: dict, r2: dict, x: int, y: int) -> dict:
    """x·r1 + y·r2 on sparse rows."""
    out = {j: x * v for j, v in r1.items()} if x else {}
    _axpy(out, r2.items(), y)
    return out


class _SNF:
    """Smith normal form with transforms, U · m · V = D, on sparse rows.

    m is read as ``Sparse.of(m, cols)``.  The working matrix is a list of
    sparse rows ``{column: value}`` (zeros are never stored) with, per
    column, the set of rows nonzero there, so clearing a pivot column
    visits only those rows.  Columns keep their original labels; a column
    swap only exchanges two entries of the position → label permutation.
    V is kept by columns and V⁻¹ by rows, both sparse and labelled the
    same way.

    The pivot is the smallest nonzero |x| in the remaining block, the first
    in row-major order, and the search stops at the first ±1.  Each row's
    smallest |x| is cached and recomputed only after the row has changed,
    so the search rescans only rows an elimination step touched.  Every row
    and column operation is the one the dense elimination performs, so the
    diagonal, U, V and V⁻¹ equal the dense ones (the tests keep the dense
    elimination as an oracle).  A fill-reducing pivot order would change V,
    which reaches output through ``reduce`` and ``elements``.

    D is kept as its ``diagonal`` (length min(rows, cols), zeros last: the
    nonzero entries are exactly the first ``rank``).  ``cols`` (a Sparse
    m carries its ``width``) gives the width of a matrix without rows,
    whose V is the identity.  Membership, ``reduce``, ``element_order``
    and ``elements`` read the sparse rows of V and V⁻¹ over the nonzeros
    of their input (m·V = U⁻¹·D has the row span of D); ``solve_left``
    and ``kernel_basis`` also read U, replayed sparsely from the logged
    row operations on first use.  The dense ``u``, ``v`` and ``vinv``
    tuples are built only when read.
    """

    def __init__(self, m, cols: int | None = None):
        m = Sparse.of(m, cols)
        rows, cols = len(m), m.width
        a = [dict(r) for r in m]
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
        low: list[int | None] = [None] * rows  # min |x| of row i (0 if empty); None: stale

        def add_entry(i, j, x):  # a[i][j] += x with x != 0, keeping the column sets
            r = a[i]
            low[i] = None
            if j not in r:
                r[j] = x
                at[j].add(i)
            elif r[j] + x:
                r[j] += x
            else:
                del r[j]
                at[j].discard(i)

        def set_row(i, new):
            low[i] = None
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
            _axpy(vcols[dst], vcols[src].items(), q)
            _axpy(vinv[src], vinv[dst].items(), -q)

        def negate_row(i):
            a[i] = {j: -x for j, x in a[i].items()}
            log((i,))

        # Rows t, t+1, ... are zero left of position t, so their nonzeros
        # are exactly the remaining block's.
        t = 0
        while t < rows and t < cols:
            best = 0
            for i in range(t, rows):
                x = low[i]
                if x is None:
                    x = low[i] = min(map(abs, a[i].values()), default=0)
                if x and (not best or x < best):
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
                    # row i+1 is now (0, di·dj/g) with di, dj > 0, and clearing
                    # the off-diagonal entry of row i touches no other row
                    if a[i].get(cj):
                        col_add(cj, ci, -(a[i][cj] // a[i][ci]))
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
                _axpy(u[op[0]], u[op[1]].items(), op[2])
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
        return tuple(dense_row(r.items(), self._rows) for r in self._urows)

    @cached_property
    def v(self) -> Matrix:
        return tuple(dense_row(r, self._cols) for r in self._vrows)

    @cached_property
    def vinv(self) -> Matrix:
        return tuple(dense_row(r, self._cols) for r in self._vinv)

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
    """Smith normal form: returns (U, D, V) with U·m·V = D, as dense matrices.

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


def solve_left(m, b, _snf_cache: _SNF | None = None):
    """Solve x · m = b over ℤ; returns one solution or None.

    b and x are sparse rows when m is Sparse and dense rows otherwise.  A
    caller that solves against the same m repeatedly passes its ``_SNF`` so
    that m is factored once.
    """
    if not m:
        return () if not any(b) else None
    sparse = isinstance(m, Sparse)
    s = _snf_cache if _snf_cache is not None else _SNF(m)
    z = s.coords(b) if sparse else s.dense_coords(b)
    if not s.spans(z):
        return None
    # y·D = b·V, so (y·U)·m = b; z is zero past the rank
    x: dict[int, int] = {}
    urows = s._urows
    for j, t in z.items():
        if t:
            _axpy(x, urows[j].items(), t // s.diagonal[j])
    return sparse_row(x) if sparse else dense_row(x.items(), len(m))


def kernel_basis(m):
    """Basis of the lattice {x : x · m = 0}, in the form of m."""
    if not m:
        return _like(m, Sparse())
    s = _SNF(m)
    return _like(m, Sparse(map(sparse_row, s._urows[s.rank:]), s._rows))


def preimage_basis(m, target_rel):
    """Rows spanning {x : x · m ∈ rowspan(target_rel)}, in the form of m."""
    rows = len(m)
    if rows == 0:
        return _like(m, Sparse())
    sm = Sparse.of(m)
    ker = kernel_basis(Sparse(sm + Sparse.of(target_rel, sm.width), sm.width))
    return _like(m, Sparse((tuple(p for p in r if p[0] < rows) for r in ker), rows))


def row_hnf(rows, cols: int):
    """Canonical (row-style Hermite) basis of the lattice spanned by rows, in their form.

    Used for subgroup equality: two spanning sets give the same lattice iff
    their HNFs are identical.  Each row in turn is reduced against the
    basis row with its leading column (by the extended gcd when the leading
    entries do not divide), then the entries above each pivot are reduced.
    """
    basis: list[dict] = []
    pivot_of: dict[int, int] = {}
    for row in Sparse.of(rows, cols):
        r = dict(row)
        while r:
            j = min(r)
            i = pivot_of.get(j)
            if i is None:
                if r[j] < 0:
                    r = {c: -x for c, x in r.items()}
                pivot_of[j] = len(basis)
                basis.append(r)
                break
            piv = basis[i]
            a, b = piv[j], r[j]
            if b % a == 0:
                _axpy(r, piv.items(), -(b // a))
            else:
                x, y = _xgcd(a, b)
                g = gcd(a, b)
                basis[i] = _combine(piv, r, x, y)
                r = _combine(piv, r, -b // g, a // g)
    # reduce entries above each pivot and sort by pivot column
    basis.sort(key=min)
    for i in range(len(basis) - 1, -1, -1):
        j = min(basis[i])
        p = basis[i][j]
        for above in basis[:i]:
            q = above.get(j, 0) // p
            if q:
                _axpy(above, basis[i].items(), -q)
    return _like(rows, Sparse(map(sparse_row, basis), cols))


def _eliminate_units(rels: Sparse) -> tuple[list, Sparse, Sparse]:
    """Eliminate generators on ±1 relation entries: (pivots, proj, residual).

    Take the shortest relation with a ±1 entry u and, within it, the one at
    the column c in the fewest relations: this pivot writes generator c as
    -u times its other terms, and substituting clears column c from the
    other relations.  ``pivots`` lists (c, pivot as {column: value}) in
    elimination order.  ``proj`` (k × s, the s survivors numbered in column
    order) writes each generator over the survivors, back-substituted; a
    survivor's row is a unit row.  ``residual`` is the distinct leftover
    relations, which lie on the survivors, in their numbering.
    """
    k = rels.width
    rows: list[dict | None] = [dict(r) for r in rels]
    at: list[set[int]] = [set() for _ in range(k)]  # rows nonzero per column
    for i, r in enumerate(rows):
        for j in r:
            at[j].add(i)
    heap = [(len(r), i) for i, r in enumerate(rows) if r]
    heapify(heap)
    pivots = []
    while heap:
        n, i = heappop(heap)
        r = rows[i]
        units = [j for j, x in r.items() if x == 1 or x == -1] if r and len(r) == n else ()
        if not units:
            continue  # eliminated, changed since pushed (and pushed again), or no unit
        c = min(units, key=lambda j: len(at[j]))
        rows[i] = None
        for j in r:
            at[j].discard(i)
        for i2 in list(at[c]):  # s -= s[c]·u·r, keeping the column sets
            s = rows[i2]
            q = -r[c] * s[c]
            for j, x in r.items():
                y = s.get(j, 0) + q * x
                if y:
                    if j not in s:
                        at[j].add(i2)
                    s[j] = y
                else:
                    del s[j]
                    at[j].discard(i2)
            heappush(heap, (len(s), i2))
        pivots.append((c, r))
    gone = {c for c, _ in pivots}
    survivors = {j: t for t, j in enumerate(j for j in range(k) if j not in gone)}
    proj = [((survivors[j], 1),) if j in survivors else () for j in range(k)]
    for c, r in reversed(pivots):  # r's other columns survive or were eliminated later
        proj[c] = row_mul([(j, -r[c] * x) for j, x in r.items() if j != c], proj)
    residual = (sparse_row({survivors[j]: x for j, x in r.items()}) for r in rows if r)
    return pivots, Sparse(proj, len(survivors)), Sparse.distinct(residual, len(survivors))


# ---------------------------------------------------------------------------
# groups and homs


class FgAbGroup:
    """A finitely generated abelian group presented by integer relations.

    ``FgAbGroup(k, rows)`` is the quotient of ℤ^k by the row span of
    ``rows`` (Sparse, or dense int rows; for k = 0 the rows are empty, and
    none is kept), stored as the Sparse ``rels``.  The presentation keeps
    its generators.  The canonical form (invariant factors + free rank, a
    complete isomorphism invariant) and the span questions that miss the
    relation lookup read one cached reduction with the ±1 relation entries
    eliminated (``_reduction``); only the element API (``reduce``,
    ``elements``, ``element_order``) factors the whole relation matrix.
    """

    __slots__ = ("num_generators", "rels", "__dict__")

    def __init__(self, num_generators: int, relations=()):
        self.num_generators = k = int(num_generators)
        rels = Sparse.of(relations, k)
        if rels.width != k:
            raise ValueError("relation row has wrong length")
        self.rels = rels if k else Sparse()

    @property
    def relations(self) -> Matrix:
        """The relations as dense rows, built on each read (for output and tests)."""
        return mat(self.rels)

    def quotient(self, rows) -> "FgAbGroup":
        """This group modulo the extra rows, on the same generators, each relation kept once."""
        k = self.num_generators
        return FgAbGroup(k, Sparse.distinct(self.rels + Sparse.of(rows, k), k))

    def __repr__(self):
        inv, rank = self.canonical_form
        parts = [f"Z/{d}" for d in inv] + ["Z"] * rank
        return " + ".join(parts) if parts else "0"

    @cached_property
    def _rel_snf(self) -> _SNF:
        """The relations' SNF without its row-operation log: only the element API reads it, never U."""
        s = _SNF(self.rels)
        del s._row_ops
        return s

    @cached_property
    def _reduction(self) -> tuple[Sparse, _SNF]:
        """(proj, residual SNF) of ``_eliminate_units``: row ∈ span(R) iff proj(row) ∈ span(residual).

        proj is onto and its kernel is spanned by the pivots: each maps to
        zero, and subtracting pivots in elimination order clears the
        eliminated columns of a kernel element, leaving a survivor row that
        proj fixes, so zero.  The pivots lie in span(R) and proj(R) spans
        what the residual spans, hence the claim and ℤ^k/R ≅ ℤ^s/residual.
        """
        _, proj, residual = _eliminate_units(self.rels)
        s = _SNF(residual)
        del s._row_ops
        return proj, s

    @cached_property
    def _rel_index(self) -> dict:
        """The distinct relation rows, as keys in first-occurrence order."""
        return dict.fromkeys(self.rels)

    def _spans(self, row: SparseRow) -> bool:
        """Whether the sparse row lies in the relation span: zero or ± a relation, else by
        its image in the reduced presentation (``_reduction``)."""
        index = self._rel_index
        if not row or row in index or tuple((j, -x) for j, x in row) in index:
            return True
        proj, s = self._reduction
        return s.spans(s.coords(row_mul(row, proj)))

    def same_class(self, a: SparseRow, b: SparseRow) -> bool:
        """Whether the sparse rows a and b are one element: equal, or a - b is in the relation span."""
        if a == b:
            return True
        diff = dict(a)
        _axpy(diff, b, -1)
        return self._spans(sparse_row(diff))

    @cached_property
    def canonical_form(self) -> tuple[tuple[int, ...], int]:
        proj, s = self._reduction
        inv = tuple(d for d in s.diagonal if d > 1)
        rank = proj.width - s.rank
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
        return self._spans(nonzeros(x))

    def elements_equal(self, x: Row, y: Row) -> bool:
        return x == y or self.is_zero_element(tuple(a - b for a, b in zip(x, y)))

    def reduce(self, x: Row) -> Row:
        """Canonical representative of the class of x.

        Relations are diagonal in the coordinates z = x · V (since R·V =
        U⁻¹·D has the row span of D), so reduce there and come back via V⁻¹.
        """
        if not self.rels:
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
            and self.rels == other.rels
        )

    def __hash__(self):
        return hash((self.num_generators, self.rels))


def free_group(rank: int) -> FgAbGroup:
    return FgAbGroup(rank, ())


def cyclic_group(m: int) -> FgAbGroup:
    if m == 0:
        return free_group(1)
    return FgAbGroup(1, ((m,),))


class AbHom:
    """Homomorphism between presented groups, as a matrix on generators.

    The matrix (Sparse, or dense int rows) is stored as the Sparse ``rows``.
    Well-definedness (source relations land in the target relation span) is
    certified at construction, for each distinct source relation once: an
    image that is zero or ± a target relation row is accepted by lookup,
    and only the rest are tested in the target's reduced presentation
    (``FgAbGroup._reduction``), exactly.  ``check=False`` is the one
    uncertified constructor, for matrices this package built.
    Equality modulo the target relations decides each row difference the
    same way.
    """

    __slots__ = ("source", "target", "rows")

    def __init__(self, source: FgAbGroup, target: FgAbGroup, matrix, check: bool = True):
        rows = Sparse.of(matrix, target.num_generators)
        if len(rows) != source.num_generators:
            raise ValueError("matrix has wrong number of rows")
        if rows.width != target.num_generators:
            raise ValueError("matrix has wrong number of columns")
        self.source = source
        self.target = target
        self.rows = rows
        if check:
            # each distinct relation once; first occurrences keep row order
            for r in source._rel_index:
                img = row_mul(r, self.rows)
                if not target._spans(img):
                    raise NotWellDefinedError(
                        f"relation {dense_row(r, source.num_generators)} maps to "
                        f"{dense_row(img, target.num_generators)}, not in target relations"
                    )

    @property
    def matrix(self) -> Matrix:
        """The matrix as dense rows, built on each read (for output and tests)."""
        return mat(self.rows)

    def __repr__(self):
        return f"AbHom({self.source!r} -> {self.target!r})"

    @staticmethod
    def identity(g: FgAbGroup) -> "AbHom":
        k = g.num_generators
        return AbHom(g, g, Sparse((((i, 1),) for i in range(k)), k), check=False)

    @staticmethod
    def zero(source: FgAbGroup, target: FgAbGroup) -> "AbHom":
        return AbHom(source, target, Sparse(((),) * source.num_generators, target.num_generators), check=False)

    def apply(self, x: Row) -> Row:
        return vec_mat(x, self.rows)

    def compose(self, then: "AbHom") -> "AbHom":
        """self followed by `then`."""
        if self.target.num_generators != then.source.num_generators:
            raise ValueError("composition shape mismatch")
        return AbHom(self.source, then.target, mat_mul(self.rows, then.rows), check=False)

    def _plus(self, other: "AbHom", sign: int) -> "AbHom":
        out = []
        for r, s in zip(self.rows, other.rows):
            acc = dict(r)
            _axpy(acc, s, sign)
            out.append(sparse_row(acc))
        return AbHom(self.source, self.target, Sparse(out, self.rows.width), check=False)

    def add(self, other: "AbHom") -> "AbHom":
        return self._plus(other, 1)

    def sub(self, other: "AbHom") -> "AbHom":
        return self._plus(other, -1)

    def scale(self, c: int) -> "AbHom":
        rows = (tuple((j, c * x) for j, x in r) if c else () for r in self.rows)
        return AbHom(self.source, self.target, Sparse(rows, self.rows.width), check=False)

    def power(self, k: int) -> "AbHom":
        if self.source is not self.target and self.source != self.target:
            raise ValueError("power of non-endomorphism")
        if k < 0:
            raise ValueError("negative power of a hom")
        h = AbHom.identity(self.source) if k == 0 else self
        for _ in range(k - 1):
            h = h.compose(self)
        return h

    def __eq__(self, other):
        """Equality modulo target relations."""
        if not isinstance(other, AbHom):
            return NotImplemented
        if (
            self.source.num_generators != other.source.num_generators
            or self.target != other.target
        ):
            return False
        return all(map(self.target.same_class, self.rows, other.rows))

    def __hash__(self):
        raise TypeError("AbHom is unhashable (equality is modulo relations)")

    def is_zero(self) -> bool:
        return self == AbHom.zero(self.source, self.target)

    def kernel(self) -> tuple[FgAbGroup, "AbHom"]:
        """Kernel subgroup and its inclusion into the source."""
        sq = Subquotient(self.source, preimage_basis(self.rows, self.target.rels), ())
        return sq.group, AbHom(sq.group, self.source, sq.lattice, check=False)

    def cokernel(self) -> tuple[FgAbGroup, "AbHom"]:
        """Cokernel on the target's own generators, with the projection."""
        q = self.target.quotient(self.rows)
        return q, AbHom(self.target, q, AbHom.identity(q).rows, check=False)

    def is_injective(self) -> bool:
        return self.kernel()[0].is_trivial()

    def is_surjective(self) -> bool:
        return self.cokernel()[0].is_trivial()

    def is_isomorphism(self) -> bool:
        """A surjection between isomorphic f.g. abelian groups is injective (they are Hopfian)."""
        return self.source.canonical_form == self.target.canonical_form and self.is_surjective()


def direct_sum(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    na, k = a.num_generators, a.num_generators + b.num_generators
    shifted = tuple(tuple((j + na, x) for j, x in r) for r in b.rels)
    return FgAbGroup(k, Sparse(a.rels + shifted, k))


def tensor(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """Tensor product: generators g_a × g_b, relations r_a ⊗ id and id ⊗ r_b."""
    na, nb = a.num_generators, b.num_generators
    rels = [tuple((i * nb + j, x) for i, x in r) for r in a.rels for j in range(nb)]
    rels += [tuple((i * nb + j, x) for j, x in r) for r in b.rels for i in range(na)]
    return FgAbGroup(na * nb, Sparse(rels, na * nb))


def tensor_hom(f: AbHom, g: AbHom) -> AbHom:
    w = g.rows.width
    rows = (tuple((i * w + j, x * y) for i, x in frow for j, y in grow) for frow in f.rows for grow in g.rows)
    return AbHom(tensor(f.source, g.source), tensor(f.target, g.target), Sparse(rows, f.rows.width * w), check=False)


class Subquotient:
    """ker(d_out)/im(d_in) inside an ambient presented group.

    The one construction that turns a sublattice into a presented group with
    coordinates: kernels (no boundary rows), fixed-point levels and homology
    all go through it.  Keeps the cycle lattice (the Sparse ``lattice``) so
    that elements of the ambient group can be projected to classes and chain
    maps can be pushed to induced maps.  The lattice is factored once, on
    the first solve.
    """

    def __init__(self, ambient: FgAbGroup, cycle_rows, boundary_rows):
        k = ambient.num_generators
        self.ambient = ambient
        self.lattice = lat = row_hnf(Sparse(Sparse.of(cycle_rows, k) + ambient.rels, k), k)
        rel = []
        for r in Sparse.distinct(Sparse.of(boundary_rows, k) + ambient.rels, k):
            coeffs = solve_left(lat, r, self._cycle_snf)
            if coeffs is None:
                raise NotInSubgroupError("boundary not contained in cycles")
            rel.append(coeffs)
        self.group = FgAbGroup(len(lat), Sparse(rel, len(lat)))

    @cached_property
    def _cycle_snf(self) -> _SNF:
        return _SNF(self.lattice)

    def coords(self, x: SparseRow) -> SparseRow:
        """Coordinates of the cycle x in the lattice basis, as sparse rows."""
        coeffs = solve_left(self.lattice, x, self._cycle_snf)
        if coeffs is None:
            raise NotInSubgroupError("element is not a cycle")
        return coeffs

    def induced(self, f: AbHom, target: "Subquotient") -> AbHom:
        """Map on homology induced by a chain map f between the ambients."""
        rows = [target.coords(row_mul(r, f.rows)) for r in self.lattice]
        return AbHom(self.group, target.group, Sparse(rows, len(target.lattice)))


def homology_subquotient(d_in: AbHom, d_out: AbHom) -> Subquotient:
    if d_in.target != d_out.source:
        raise ValueError("middle groups differ")
    comp = d_in.compose(d_out)
    if not comp.is_zero():
        raise CompositeNotZeroError("d_out ∘ d_in is not zero")
    cycles = preimage_basis(d_out.rows, d_out.target.rels)
    return Subquotient(d_in.target, cycles, d_in.rows)


def homology(d_in: AbHom, d_out: AbHom) -> FgAbGroup:
    """ker(d_out)/im(d_in) in canonical form (as a presented group)."""
    return homology_subquotient(d_in, d_out).group
