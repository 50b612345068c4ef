"""Span questions and canonical forms answered on the unit-eliminated presentation.

``FgAbGroup._reduction`` eliminates generators on ±1 relation entries
(``fgab._eliminate_units``) and factors only the leftover relations.  Its
answers are checked against the dense elimination of the whole relation
matrix (``tests/dense_snf.py``) and, on the nerve of
``hh --ring F_2 --n 4 --max-degree 3``, against the sparse ``_SNF`` of the
whole relation matrix.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st
from dense_snf import DenseSNF, dense_solve_left

from mackeywitt.fgab import (
    _SNF,
    FgAbGroup,
    Sparse,
    _eliminate_units,
    dense_row,
    nonzeros,
    row_mul,
    sparse_row,
)
from mackeywitt.hochschild import twisted_cyclic_nerve
from mackeywitt.norm import norm_trivial_ring
from mackeywitt.wittcore import BaseRing

ENTRY = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3, -4])


@st.composite
def presentations(draw):
    """(k, dense relation rows) with zero rows, duplicate rows and rows without units."""
    k = draw(st.integers(0, 6))
    row = st.lists(ENTRY, min_size=k, max_size=k).map(tuple)
    rows = draw(st.lists(row, max_size=8))
    if rows and draw(st.booleans()):
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))  # duplicates
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), (0,) * k)  # a zero row
    return k, tuple(rows)


def dense_canonical_form(k, rows):
    if not k or not rows:
        return (), k
    s = DenseSNF(rows)
    return tuple(d for d in s.diagonal if d > 1), k - s.rank


def dense_spans(k, rows, b):
    return dense_solve_left(rows if k else (), b) is not None


@settings(deadline=None, max_examples=300)
@given(presentations(), st.data())
@example((0, ()), None)
@example((0, ((), ())), None)
@example((3, ()), None)
@example((2, ((0, 0), (0, 0))), None)
@example((3, ((2, 4, 0), (2, 4, 0), (0, 6, 3))), None)  # no unit entry, duplicated
@example((3, ((-1, 2, 0), (0, -1, 3), (2, 0, -1))), None)  # negative units only
def test_reduced_answers_match_the_dense_relation_snf(pres, data):
    k, rows = pres
    g = FgAbGroup(k, rows)
    assert g.canonical_form == dense_canonical_form(k, rows)
    vectors = st.lists(ENTRY, min_size=k, max_size=k).map(tuple)
    candidates = [tuple(2 * x for x in r) for r in rows[:2]]  # misses the lookup, may be in the span
    if len(rows) > 1:
        candidates.append(tuple(x - 3 * y for x, y in zip(rows[0], rows[1])))
    if data is not None:
        candidates += data.draw(st.lists(vectors, max_size=3))
    for b in candidates:
        assert g._spans(nonzeros(b)) is dense_spans(k, rows, b)
    for a, b in zip(candidates, candidates[1:]):
        diff = tuple(x - y for x, y in zip(a, b))
        assert g.same_class(nonzeros(a), nonzeros(b)) is dense_spans(k, rows, diff)


@settings(deadline=None, max_examples=300)
@given(presentations())
def test_every_pivot_relation_projects_to_zero(pres):
    k, rows = pres
    rels = Sparse.of(rows, k) if k else Sparse()
    pivots, proj, residual = _eliminate_units(rels)
    s = proj.width
    assert len(proj) == k and s == k - len(pivots)
    for c, r in pivots:
        assert r[c] in (1, -1)
        pivot = sparse_row(r)
        assert row_mul(pivot, proj) == ()
        assert dense_spans(k, rows, dense_row(pivot, k))  # a pivot is a relation combination
    eliminated = {c for c, _ in pivots}
    survivors = [j for j in range(k) if j not in eliminated]
    assert [proj[j] for j in survivors] == [((t, 1),) for t in range(s)]
    assert all(x not in (1, -1) for r in residual for _, x in r)
    assert len(set(residual)) == len(residual) and all(residual)


def test_nerve_levels_of_hh_f2_n4_degree_3_keep_their_canonical_forms():
    nerve = twisted_cyclic_nerve(norm_trivial_ring(BaseRing.integers_mod(2), 4), 4)
    for x in nerve.degrees:
        for d in nerve.ctx.divisors:
            g = x.level[d]
            s = _SNF(g.rels)
            assert g.canonical_form == (tuple(e for e in s.diagonal if e > 1), g.num_generators - s.rank)
