"""The dense Smith normal form elimination, kept as a test oracle.

``DenseSNF`` is the row-major dense elimination that ``mackeywitt.fgab``
used before its sparse engine: every row operation walks every column and
every column operation every row.  The sparse ``_SNF`` must perform exactly
the same integer operations, so its ``diagonal``, ``rank``, ``u``, ``v``
and ``vinv`` are compared against this class entry for entry, and the
group questions against the dense readers below.  ``dense_row_hnf``,
``dense_mat_mul`` and ``vec_mat`` are the dense Hermite basis and products
that the sparse rows of ``fgab`` are checked against, and
``identity_matrix`` the dense identity the tests build maps and element
rows from.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from math import gcd

from mackeywitt.fgab import Matrix, _xgcd, mat


def vec_mat(v, m):
    """The dense row v · m for dense rows m, every cell computed."""
    width = len(m[0]) if m else 0
    return tuple(sum(x * row[j] for x, row in zip(v, m)) for j in range(width))


class DenseSNF:
    """Smith normal form with transforms: U · m · V = D.

    Pivoting picks the smallest nonzero absolute value in the remaining
    block, which bounds entry growth at the matrix sizes used here.  V's
    inverse is tracked alongside so that generator coordinates can be
    converted to and from diagonal coordinates.

    D is kept as its ``diagonal`` (length min(rows, cols), zeros last).
    Each question reads only what it needs:

    - canonical forms and ranks read ``diagonal`` and ``rank``;
    - membership, reduction, element orders and the elements read
      ``diagonal`` and ``v`` / ``vinv`` (since m·V = U⁻¹·D has the row span
      of D);
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


# The dense readers of a factorization, as they were written against it.


def dense_solve(s: DenseSNF, b) -> list[int] | None:
    """y with y·D = b·V, or None when b is not in the row span."""
    diag = s.diagonal
    y = []
    for j, t in enumerate(vec_mat(tuple(b), s.v)):
        d = diag[j] if j < len(diag) else 0
        if d:
            if t % d:
                return None
            y.append(t // d)
        elif t:
            return None
    return y


def dense_solve_left(m, b):
    if not m:
        return () if not any(b) else None
    s = DenseSNF(m)
    y = dense_solve(s, b)
    if y is None:
        return None
    return vec_mat(tuple(y) + (0,) * (len(m) - s.rank), s.u)


def dense_reduce(s: DenseSNF, x):
    z = list(vec_mat(tuple(x), s.v))
    for j in range(len(z)):
        d = s.diagonal[j] if j < len(s.diagonal) else 0
        if d:
            z[j] %= d
    return vec_mat(tuple(z), s.vinv)


def dense_element_order(s: DenseSNF, x) -> int:
    y = vec_mat(tuple(x), s.v)
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


def dense_elements(s: DenseSNF, k: int):
    moduli = [s.diagonal[j] if j < len(s.diagonal) else 0 for j in range(k)]
    for zs in product(*[range(d if d else 1) for d in moduli]):
        yield vec_mat(tuple(zs), s.vinv)


def dense_row_hnf(rows, cols: int):
    """The row-style Hermite basis on dense rows, as ``fgab.row_hnf`` computed it
    before it ran on sparse rows: the same row order, pivots and reductions."""
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


def dense_mat_mul(a, b, cols: int):
    """a · b on dense rows (b has cols columns), every cell computed."""
    return tuple(tuple(sum(x * row[j] for x, row in zip(r, b)) for j in range(cols)) for r in a)


def identity_matrix(k: int) -> Matrix:
    """The k × k identity as dense int rows."""
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
