"""Exact arithmetic of finitely generated abelian groups.

Groups are presented as F/R with F free on a finite generating set and R the
row span of an integer relation matrix.  Everything is computed over the
integers via Smith normal form: canonical forms, kernels, cokernels,
homology of two-term composites, tensor products.  A homomorphism acts on
the right of row vectors, so ``compose(f, g)`` is "f then g" with matrix
``f.rows · g.rows``.

Matrices are kept by their nonzeros (``Sparse``) and elements are sparse
rows: relations, hom matrices, lattices, factorizations and the element
API never store a zero entry, and the packages above keep Green product
tables and units as the same sparse rows.  The module functions answer
``Sparse``.  Dense int rows come in only through ``Sparse.of`` and go out
only through the ``relations`` and ``matrix`` views, ``mat``,
``dense_row`` and the public ``snf``.  Every question about a group is
answered from its one cached reduction (``FgAbGroup._reduction``).

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


def mat_mul(a, b) -> Sparse:
    """a · b."""
    sa, sb = Sparse.of(a), Sparse.of(b)
    if sa and sa.width != len(sb):
        raise ValueError("matrix shape mismatch")
    return Sparse((row_mul(r, sb) for r in sa), sb.width)


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
    same way.  U is kept by rows, sparse, and each row operation (swap,
    ``row_add``, ``negate_row``, the 2×2 combination of the divisibility
    fold) updates U in the step that changes the working matrix.

    The pivot is the smallest nonzero |x| in the remaining block, the first
    in row-major order, and the search stops at the first ±1.  Each row's
    smallest |x| is cached and recomputed only after the row has changed,
    so the search rescans only rows an elimination step touched.  Every row
    and column operation is the one the dense elimination performs, so the
    diagonal, U, V and V⁻¹ equal the dense ones (the tests keep the dense
    elimination as an oracle).  No command prints the representatives
    that V gives ``reduce`` and ``elements``, but U's rows past the rank
    are ``kernel_basis``, whose rows reach printed homology coordinates
    through ``row_hnf``; so a fill-reducing pivot order would change
    output.

    D is kept as its ``diagonal`` (length min(rows, cols), zeros last: the
    nonzero entries are exactly the first ``rank``).  ``cols`` (a Sparse
    m carries its ``width``) gives the width of a matrix without rows,
    whose V is the identity.  Membership, ``reduce``, ``element_order``
    and ``elements`` read the sparse rows of V and V⁻¹ over the nonzeros
    of their input (m·V = U⁻¹·D has the row span of D); ``kernel_basis``
    reads U.  The dense ``u``, ``v`` and ``vinv`` tuples are built only
    when read.
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
        u = [{i: 1} for i in range(rows)]
        perm = list(range(cols))  # position → column label
        pos = list(range(cols))  # column label → position
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
            if q:
                for j, x in a[src].items():
                    add_entry(dst, j, q * x)
                _axpy(u[dst], u[src].items(), q)

        def col_add(dst, src, q):
            for i in at[src] if q else ():
                add_entry(i, dst, q * a[i][src])
            _axpy(vcols[dst], vcols[src].items(), q)
            _axpy(vinv[src], vinv[dst].items(), -q)

        def negate_row(i):
            a[i] = {j: -x for j, x in a[i].items()}
            u[i] = {j: -x for j, x in u[i].items()}

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
                u[t], u[pi] = u[pi], u[t]
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
                    ri, rj, ui, uj = a[i], a[i + 1], u[i], u[i + 1]
                    set_row(i, _combine(ri, rj, x, y))
                    set_row(i + 1, _combine(ri, rj, -dj // g, di // g))
                    u[i], u[i + 1] = _combine(ui, uj, x, y), _combine(ui, uj, -dj // g, di // g)
                    # row i+1 is now (0, di·dj/g) with di, dj > 0, and clearing
                    # the off-diagonal entry of row i touches no other row
                    if a[i].get(cj):
                        col_add(cj, ci, -(a[i][cj] // a[i][ci]))
                    changed = True
        self._rows, self._cols, self._u = rows, cols, u
        # V's column j and V⁻¹'s row j are the ones labelled perm[j]
        self._vrows: list[list[tuple[int, int]]] = [[] for _ in range(cols)]
        for j, c in enumerate(perm):
            for i, x in vcols[c].items():
                self._vrows[i].append((j, x))
        self._vinv = [tuple(vinv[c].items()) for c in perm]
        self.diagonal = tuple(a[i].get(perm[i], 0) for i in range(k))
        self.rank = sum(1 for x in self.diagonal if x)

    @cached_property
    def u(self) -> Matrix:
        return tuple(dense_row(r.items(), self._rows) for r in self._u)

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
    m = Sparse.of(m)
    s = _SNF(m)
    diag = s.diagonal
    d = tuple(
        tuple(diag[i] if i == j else 0 for j in range(m.width)) for i in range(len(m))
    )
    if mat(mat_mul(mat_mul(s.u, m), s.v)) != d:
        raise AssertionError("Smith normal form round-trip failed")
    return s.u, d, s.v


def solve_left(h, b, pivot: dict[int, int] | None = None):
    """Solve x · h = b over ℤ for the rows h of ``row_hnf`` and the sparse row
    b, by back-substitution; returns the solution x, a sparse row, or None.

    ``pivot`` maps each leading column of h to its row; a caller that solves
    against the same h repeatedly builds it once.  The residual r = b − x·h
    is kept throughout, and x is returned only when r is zero.
    """
    if pivot is None:
        pivot = {row[0][0]: i for i, row in enumerate(h)}
    r, x = dict(b), []
    while r:
        j = min(r)
        i = pivot.get(j)
        if i is None:
            return None
        q, rest = divmod(r[j], h[i][0][1])
        if rest:
            return None
        x.append((i, q))
        _axpy(r, h[i], -q)
    return tuple(x)


def kernel_basis(m) -> Sparse:
    """Basis of the lattice {x : x · m = 0}: U's rows past the rank."""
    if not m:
        return Sparse()
    s = _SNF(m)
    return Sparse(map(sparse_row, s._u[s.rank:]), s._rows)


def preimage_basis(m, target_rel) -> Sparse:
    """Rows spanning {x : x · m ∈ rowspan(target_rel)}."""
    rows = len(m)
    if rows == 0:
        return Sparse()
    sm = Sparse.of(m)
    ker = kernel_basis(Sparse(sm + Sparse.of(target_rel, sm.width), sm.width))
    return Sparse((tuple(p for p in r if p[0] < rows) for r in ker), rows)


def row_hnf(rows, cols: int) -> Sparse:
    """An echelon basis of the lattice spanned by rows: leading columns rise
    strictly and every pivot is positive.

    Deterministic for a given row list, but not canonical: two spanning
    sets of one lattice can give different bases.  Each row in turn is
    reduced against the basis row with its leading column (by the extended
    gcd when the leading entries do not divide), then the entries above
    each pivot are reduced, from the last pivot up.
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
    return Sparse(map(sparse_row, basis), cols)


def _eliminate_units(rels: Sparse) -> tuple[list, Sparse, Sparse, tuple]:
    """Eliminate generators on ±1 relation entries: (pivots, proj, residual, kept).

    Take the shortest relation with a ±1 entry u and, within it, the one at
    the column c in the fewest relations: this pivot writes generator c as
    -u times its other terms, and substituting clears column c from the
    other relations.  ``pivots`` lists (c, pivot as {column: value}) in
    elimination order.  ``proj`` (k × s, the s survivors numbered in column
    order) writes each generator over the survivors, back-substituted; a
    survivor's row is a unit row.  ``residual`` is the distinct leftover
    relations, which lie on the survivors, in their numbering, and ``kept``
    the survivors' generator columns: survivor t is generator kept[t].
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
    kept = tuple(j for j in range(k) if j not in gone)
    survivors = {j: t for t, j in enumerate(kept)}
    proj = [((survivors[j], 1),) if j in survivors else () for j in range(k)]
    for c, r in reversed(pivots):  # r's other columns survive or were eliminated later
        proj[c] = row_mul([(j, -r[c] * x) for j, x in r.items() if j != c], proj)
    residual = (sparse_row({survivors[j]: x for j, x in r.items()}) for r in rows if r)
    return pivots, Sparse(proj, len(kept)), Sparse.distinct(residual, len(kept)), kept


class _Reduction:
    """A group's unit-eliminated presentation (``FgAbGroup._reduction``): ``proj``
    (k × s) writes each generator over the s survivors, survivor t is generator
    ``kept[t]`` (the survivors generate the group), ``residual`` holds the
    leftover relations on the survivors, and ``generators`` are sparse rows on
    all k generators that span the relations.  The residual's ``snf`` is built
    when a span or element question first reads it."""

    __slots__ = ("proj", "kept", "residual", "generators", "__dict__")

    def __init__(self, proj: Sparse, kept: tuple, residual: Sparse, generators: tuple):
        self.proj, self.kept, self.residual, self.generators = proj, kept, residual, generators

    @cached_property
    def snf(self) -> _SNF:
        return _SNF(self.residual)


# ---------------------------------------------------------------------------
# groups and homs


class FgAbGroup:
    """A finitely generated abelian group presented by integer relations.

    ``FgAbGroup(k, rows)`` is the quotient of ℤ^k by the row span of
    ``rows`` (Sparse, or dense int rows; for k = 0 the rows are empty, and
    none is kept), stored as the Sparse ``rels``.  The presentation keeps
    its generators, and its elements are sparse rows on them.  The
    canonical form (invariant factors + free rank, a complete isomorphism
    invariant), the span questions that miss the relation lookup and the
    element questions (``reduce``, ``elements``, ``element_order``) read one
    cached reduction with the ±1 relation entries eliminated
    (``_reduction``), the group's one factorization.
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
        """This group modulo the extra rows, on the same generators, each relation kept once.

        Its reduction is this group's with proj(rows) added to the residual and
        the rows to the generators: the pivots still lie in the relations, so
        the ``_reduction`` proof holds as it stands.
        """
        k = self.num_generators
        rows = Sparse.distinct(Sparse.of(rows, k), k)
        q = FgAbGroup(k, Sparse.distinct(self.rels + rows, k))
        red = self._reduction
        if rows:  # else q has this group's relation span, and its reduction
            residual = Sparse.distinct(red.residual + tuple(row_mul(r, red.proj) for r in rows), len(red.kept))
            red = _Reduction(red.proj, red.kept, residual, red.generators + rows)
        q._reduction = red
        return q

    def __repr__(self):
        return group_str(self.to_json())

    def to_json(self) -> dict:
        """The canonical form as {"invariant_factors": [...], "rank": r}, the one group description."""
        inv, rank = self.canonical_form
        return {"invariant_factors": list(inv), "rank": rank}

    @cached_property
    def _reduction(self) -> "_Reduction":
        """The ``_eliminate_units`` reduction: row ∈ span(R) iff proj(row) ∈ span(residual).

        proj is onto and its kernel is spanned by the pivots: each maps to
        zero, and subtracting pivots in elimination order clears the
        eliminated columns of a kernel element, leaving a survivor row that
        proj fixes, so zero.  The pivots lie in span(R) and proj(R) spans
        what the residual spans, hence the claim and ℤ^k/R ≅ ℤ^s/residual.
        The elimination changes rows only by adding multiples of pivot rows,
        so the pivots, as they were eliminated, and the residual rows lifted
        onto the survivors' columns span R: they are ``generators``.
        """
        pivots, proj, residual, kept = _eliminate_units(self.rels)
        gens = [sparse_row(r) for _, r in pivots]
        gens += (tuple((kept[j], x) for j, x in r) for r in residual)
        return _Reduction(proj, kept, residual, tuple(gens))

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
        red = self._reduction
        return red.snf.spans(red.snf.coords(row_mul(row, red.proj)))

    def same_class(self, a: SparseRow, b: SparseRow) -> bool:
        """Whether the sparse rows a and b are one element: equal, or a - b is in the relation span."""
        if a == b:
            return True
        diff = dict(a)
        _axpy(diff, b, -1)
        return self._spans(sparse_row(diff))

    @cached_property
    def canonical_form(self) -> tuple[tuple[int, ...], int]:
        red = self._reduction
        inv = tuple(d for d in red.snf.diagonal if d > 1)
        rank = len(red.kept) - red.snf.rank
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

    def _lift(self, z: dict[int, int]) -> SparseRow:
        """z · V⁻¹ of the residual SNF, for z as {position: value}, on the surviving generators."""
        red = self._reduction
        s, kept = red.snf, red.kept
        out: dict[int, int] = {}
        for j, t in z.items():
            _axpy(out, ((kept[c], y) for c, y in s._vinv[j]), t)
        return sparse_row(out)

    def reduce(self, x: SparseRow) -> SparseRow:
        """Canonical representative of the class of the sparse row x.

        x − lift(proj(x)) lies in the pivots' span, inside R, and the
        residual relations are diagonal in the coordinates z = proj(x) · V
        (R·V = U⁻¹·D has the row span of D), so reduce z there and lift
        z · V⁻¹ back onto the surviving generators; a lifted residual row is
        in R.  So reduce(x) ≡ x, and reduce(x) = reduce(y) iff
        ``same_class(x, y)``.
        """
        red = self._reduction
        s = red.snf
        z = s.coords(row_mul(x, red.proj))
        for j in z:
            if j < s.rank:
                z[j] %= s.diagonal[j]
        return self._lift(z)

    def elements(self):
        """Iterate over canonical representatives, as sparse rows (finite groups only)."""
        if not self.is_finite():
            raise ValueError("infinite group")
        diag = self._reduction.snf.diagonal
        cyclic = [j for j, d in enumerate(diag) if d > 1]
        for zs in product(*(range(diag[j]) for j in cyclic)):
            yield self._lift(dict(zip(cyclic, zs)))

    def element_order(self, x: SparseRow) -> int:
        """Additive order of the class of the sparse row x (0 means infinite)."""
        red = self._reduction
        s = red.snf
        n = 1
        for j, t in s.coords(row_mul(x, red.proj)).items():
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


def group_str(desc: dict) -> str:
    """A group description (``FgAbGroup.to_json``) written Z/d1 + ... + Z + ..., or 0."""
    parts = [f"Z/{d}" for d in desc["invariant_factors"]] + ["Z"] * desc["rank"]
    return " + ".join(parts) if parts else "0"


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
    certified at construction on the rows that span the source relations,
    the pivots and lifted residual of its reduction
    (``FgAbGroup._reduction``'s ``generators``): an image that is zero or
    ± a target relation row is accepted by lookup, and only the rest are
    tested in the target's reduced presentation, exactly.  A failure is
    reported as the first distinct source relation, in row order, whose
    image fails.  ``check=False`` is the one uncertified constructor, for
    matrices this package built.  Equality modulo the target relations
    decides each row difference the same way; certificates that compare
    certified homs use ``composites_agree`` instead.
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
        if check and not all(target._spans(row_mul(r, rows)) for r in source._reduction.generators):
            # then some relation fails too: name the first in row order
            for r in source._rel_index:
                img = row_mul(r, rows)
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

    def apply(self, x: SparseRow) -> SparseRow:
        return row_mul(x, self.rows)

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
        if k <= 1:
            return self if k else AbHom.identity(self.source)
        half = self.power(k // 2)  # by repeated squaring: at most 2·log2(k) compositions
        h = half.compose(half)
        return h.compose(self) if k % 2 else h

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


def composites_agree(left, right) -> bool:
    """Whether two chains of composable homs, each read first to last, have one
    composite (``right`` may be empty, the identity): both are evaluated
    on the source's surviving generators (``FgAbGroup._reduction``'s ``kept``)
    only, and each pair of images is compared with the target's ``same_class``.

    Exact for well-defined homs: certified ones, those defined on a free
    source, and those this module's algebra (identity, zero, compose, add,
    sub, scale, power) builds from them.  The survivors generate the source
    group, and well-defined homs that agree on generators are equal.  No
    composite matrix is formed.
    """
    source, target = left[0].source, left[-1].target
    for g in source._reduction.kept:
        a = b = ((g, 1),)
        for f in left:
            a = row_mul(a, f.rows)
        for f in right:
            b = row_mul(b, f.rows)
        if not target.same_class(a, b):
            return False
    return True


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
    maps can be pushed to induced maps.  The lattice is the echelon basis
    of ``row_hnf``, so coordinates are found by back-substitution
    (``solve_left``) through the leading-column index ``pivot``, built once
    beside it; the lattice is never factored.
    """

    def __init__(self, ambient: FgAbGroup, cycle_rows, boundary_rows):
        k = ambient.num_generators
        self.ambient = ambient
        self.lattice = lat = row_hnf(Sparse(Sparse.of(cycle_rows, k) + ambient.rels, k), k)
        self.pivot = {row[0][0]: i for i, row in enumerate(lat)}
        rel = []
        for r in Sparse.distinct(Sparse.of(boundary_rows, k) + ambient.rels, k):
            coeffs = solve_left(lat, r, self.pivot)
            if coeffs is None:
                raise NotInSubgroupError("boundary not contained in cycles")
            rel.append(coeffs)
        self.group = FgAbGroup(len(lat), Sparse(rel, len(lat)))

    def coords(self, x: SparseRow) -> SparseRow:
        """Coordinates of the cycle x in the lattice basis, as sparse rows."""
        coeffs = solve_left(self.lattice, x, self.pivot)
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
    if not composites_agree((d_in, d_out), (AbHom.zero(d_in.source, d_out.target),)):
        raise CompositeNotZeroError("d_out ∘ d_in is not zero")
    cycles = preimage_basis(d_out.rows, d_out.target.rels)
    return Subquotient(d_in.target, cycles, d_in.rows)


def homology(d_in: AbHom, d_out: AbHom) -> FgAbGroup:
    """ker(d_out)/im(d_in) in canonical form (as a presented group)."""
    return homology_subquotient(d_in, d_out).group
