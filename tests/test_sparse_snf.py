"""The sparse elimination in ``fgab`` against the dense oracle.

The sparse ``_SNF`` must perform the dense elimination's integer operations
exactly, so every part of the factorization and every reader built on it is
compared with ``dense_snf`` on sparse (about 1% nonzero, mostly ±1), dense,
all-zero, 0-row and 0-column matrices.  The hom certificate must still
reject every map that is not well defined.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_snf import (
    DenseSNF,
    dense_element_order,
    dense_elements,
    dense_reduce,
    dense_solve,
    dense_solve_left,
    identity_matrix,
    vec_mat,
)
from mackeywitt.fgab import (
    AbHom,
    FgAbGroup,
    NotWellDefinedError,
    _SNF,
    _eliminate_units,
    dense_row,
    free_group,
    kernel_basis,
    mat,
    mat_mul,
    nonzeros,
    row_mul,
    snf,
    solve_left,
)
from mackeywitt.hochschild import twisted_cyclic_nerve
from mackeywitt.norm import norm_trivial_ring
from mackeywitt.wittcore import BaseRing

UNIT_HEAVY = st.sampled_from([1, -1, 1, -1, 1, -1, 2, -2, 3, -4, 5, 6])


@st.composite
def sparse_matrices(draw, max_rows=60, max_cols=40):
    """About 1% nonzero (at least a few entries), mostly ±1."""
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    cells = rows * cols
    if not cells:
        return cols, tuple((0,) * cols for _ in range(rows))
    count = draw(st.integers(0, max(3, cells // 100 + 2)))
    m = [[0] * cols for _ in range(rows)]
    for _ in range(count):
        i = draw(st.integers(0, rows - 1))
        j = draw(st.integers(0, cols - 1))
        m[i][j] = draw(UNIT_HEAVY)
    return cols, mat(m)


@st.composite
def dense_matrices(draw, max_size=7):
    rows = draw(st.integers(0, max_size))
    cols = draw(st.integers(0, max_size))
    entry = st.integers(-12, 12)
    m = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return cols, mat(m)


@st.composite
def zero_matrices(draw):
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    return cols, tuple((0,) * cols for _ in range(rows))


matrices = st.one_of(sparse_matrices(), dense_matrices(), zero_matrices())


def vectors(cols):
    return st.lists(st.one_of(st.just(0), st.integers(-7, 7)), min_size=cols, max_size=cols).map(tuple)


def residual_oracle(group):
    """(proj, dense oracle of the residual relations, lift) of the group's unit
    elimination; lift takes a dense row on the survivors to a sparse row on the
    surviving generators.  A residual without rows has no dense width: None."""
    _, proj, residual, kept = _eliminate_units(group.rels)
    dense = DenseSNF(mat(residual)) if residual else None

    def lift(y):
        return tuple((kept[t], x) for t, x in enumerate(y) if x)

    return proj, dense, lift


def residual_reduce(group, b):
    """reduce(b) by the dense oracle: b mapped to the survivors, reduced there, lifted."""
    proj, dense, lift = residual_oracle(group)
    y = dense_row(row_mul(b, proj), proj.width)
    return lift(dense_reduce(dense, y) if dense else y)


def residual_elements(group):
    """elements() by the dense oracle of the residual, lifted (finite groups only)."""
    proj, dense, lift = residual_oracle(group)
    return [lift(y) for y in dense_elements(dense or DenseSNF(()), proj.width)]


@settings(deadline=None, max_examples=150)
@given(matrices)
def test_factorization_is_the_dense_one(shaped):
    cols, m = shaped
    sparse, dense = _SNF(m, cols), DenseSNF(m)
    assert sparse.diagonal == dense.diagonal
    assert sparse.rank == dense.rank
    assert sparse.u == dense.u
    if m:  # a dense factorization of a matrix without rows has no width
        assert sparse.v == dense.v
        assert sparse.vinv == dense.vinv
    else:
        assert sparse.v == sparse.vinv == identity_matrix(cols)


@settings(deadline=None, max_examples=150)
@given(matrices, st.data())
def test_readers_agree_with_the_dense_oracle(shaped, data):
    cols, m = shaped
    sparse, dense = _SNF(m, cols), DenseSNF(m) if m else None
    b = data.draw(vectors(cols))
    x = data.draw(vectors(len(m)))
    member = vec_mat(x, m) if m else (0,) * cols
    for rhs in (b, member):
        expected = dense_solve(dense, rhs) is not None if m else not any(rhs)
        assert (sparse.spans(sparse.coords(nonzeros(rhs))) if m else not any(rhs)) == expected
        x = solve_left(m, nonzeros(rhs), sparse)
        assert (x if x is None else dense_row(x, len(m))) == dense_solve_left(m, rhs)
    assert sparse.spans(sparse.coords(nonzeros(member))) if m else not any(member)
    assert mat(kernel_basis(m)) == (dense.u[dense.rank:] if m else ())
    u, d, v = snf(m)
    assert mat(mat_mul(mat_mul(u, m), v)) == d
    group = FgAbGroup(cols, m)
    b, member = nonzeros(b), nonzeros(member)
    assert group.reduce(b) == residual_reduce(group, b)
    if m:
        assert group.element_order(b) == dense_element_order(dense, dense_row(b, cols))
        assert group.element_order(member) == 1
    if group.is_finite() and group.order() <= 64:
        assert list(group.elements()) == residual_elements(group)
    assert group.same_class(member, ())


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_free_groups_answer_every_element_question(rank):
    g = FgAbGroup(rank)
    assert g.element_order(()) == 1
    for i in range(rank):
        e = ((i, 3),)
        assert g.element_order(e) == 0
        assert g.reduce(e) == e
        assert not g.same_class(e, ())
    assert g.same_class((), ())
    assert free_group(rank) == g


@st.composite
def hom_data(draw):
    """(source, target, matrix) with sparse or dense relations on both sides."""
    ks, s_rel = draw(st.one_of(sparse_matrices(12, 8), dense_matrices(4)))
    kt, t_rel = draw(st.one_of(sparse_matrices(12, 8), dense_matrices(4)))
    matrix = draw(st.lists(vectors(kt), min_size=ks, max_size=ks))
    return FgAbGroup(ks, s_rel), FgAbGroup(kt, t_rel), mat(matrix)


def _well_defined(source, target, matrix):
    dense = DenseSNF(target.relations) if target.relations else None
    for r in source.relations:
        img = vec_mat(r, matrix) if matrix else (0,) * target.num_generators
        if (dense_solve(dense, img) is None) if dense else any(img):
            return False
    return True


@settings(deadline=None, max_examples=150)
@given(hom_data(), st.data())
def test_certificate_rejects_exactly_the_maps_that_are_not_well_defined(hom, data):
    source, target, matrix = hom
    if _well_defined(source, target, matrix):
        f = AbHom(source, target, matrix)
    else:
        with pytest.raises(NotWellDefinedError):
            AbHom(source, target, matrix)
        f = AbHom(source, target, matrix, check=False)
    if not source.num_generators:
        return
    # change one row of the matrix by b: equal modulo relations iff b is a relation
    i = data.draw(st.integers(0, source.num_generators - 1))
    b = data.draw(vectors(target.num_generators))
    rows = list(matrix)
    rows[i] = tuple(x + y for x, y in zip(rows[i], b))
    g = AbHom(source, target, rows, check=False)
    dense = DenseSNF(target.relations) if target.relations else None
    is_relation = (dense_solve(dense, b) is not None) if dense else not any(b)
    assert (f == g) == is_relation


def test_random_dense_matrices_including_divisibility_folds():
    rng = random.Random(1)
    folds = 0
    for _ in range(400):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = mat([[rng.randint(-12, 12) for _ in range(cols)] for _ in range(rows)])
        sparse, dense = _SNF(m), DenseSNF(m)
        folds += any(len(op) == 6 for op in sparse._row_ops)  # d_i ∤ d_{i+1} was repaired
        assert (sparse.diagonal, sparse.u, sparse.v, sparse.vinv) == (dense.diagonal, dense.u, dense.v, dense.vinv)
    assert folds


# ---------------------------------------------------------------------------
# the cached row minima of the pivot search


def _factorization(s):
    return s.diagonal, s.u, s.v, s.vinv


def test_nerve_relations_factor_as_the_dense_ones():
    """Every level of the twisted cyclic nerve of N(F_2), n = 4, to degree 2 (up to 183 × 36)."""
    nerve = twisted_cyclic_nerve(norm_trivial_ring(BaseRing.parse("F_2"), 4), 2)
    for x in nerve.degrees:
        for d in nerve.ctx.divisors:
            level = x.level[d]
            assert _factorization(_SNF(level.rels)) == _factorization(DenseSNF(level.relations))


@st.composite
def repivot_and_fold_matrices(draw):
    """diag(a, b) with a ∤ b, beside a block whose first pivot leaves residues, rows and columns shuffled.

    The pivots are a, then b (the two smallest entries), then the block's
    unique smallest entry p, whose row holds a non-multiple of p: that step
    is dirty, so the rows it changed are searched again.  The diagonal
    then starts a, b, so the divisibility chain needs a fold.
    """
    p = draw(st.integers(5, 8))
    a = draw(st.sampled_from([2, 3]))
    b = draw(st.sampled_from([x for x in range(a + 1, p) if x % a]))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(2, 5))
    sign = st.sampled_from([1, -1])
    big = st.one_of(st.just(0), st.integers(p + 1, 3 * p))
    block = [[draw(big) * draw(sign) for _ in range(cols)] for _ in range(rows)]
    i, j, j2 = draw(st.integers(0, rows - 1)), *draw(st.permutations(range(cols)))[:2]
    block[i][j] = p * draw(sign)
    block[i][j2] = (p * draw(st.integers(1, 2)) + draw(st.integers(1, p - 1))) * draw(sign)
    m = [[a, 0] + [0] * cols, [0, b] + [0] * cols] + [[0, 0] + r for r in block]
    row_order = draw(st.permutations(range(rows + 2)))
    col_order = draw(st.permutations(range(cols + 2)))
    return mat([[m[r][c] for c in col_order] for r in row_order])


@settings(deadline=None, max_examples=150)
@given(repivot_and_fold_matrices())
def test_pivot_cache_survives_repivots_and_folds(m):
    sparse = _SNF(m)
    assert any(len(op) == 6 for op in sparse._row_ops)  # a fold was made
    assert _factorization(sparse) == _factorization(DenseSNF(m))
