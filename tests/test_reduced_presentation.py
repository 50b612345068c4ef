"""Span questions, canonical forms and the element API answered on the
unit-eliminated presentation.

``FgAbGroup._reduction`` eliminates generators on ±1 relation entries
(``fgab._eliminate_units``) and factors only the leftover relations; it is
the group's one factorization, and ``reduce``, ``element_order`` and
``elements`` read it on sparse rows too.  Its answers are checked against the dense elimination of the whole relation
matrix (``tests/dense_snf.py``) and, on the nerve of
``hh --ring F_2 --n 4 --max-degree 3``, against the sparse ``_SNF`` of the
whole relation matrix.
"""

from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st
from dense_snf import DenseSNF, dense_solve, dense_solve_left

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
UNIT_HEAVY = st.sampled_from([0, 0, 1, -1, 1, -1, 2, 3])


@st.composite
def presentations(draw, entry=ENTRY):
    """(k, dense relation rows) with zero rows, duplicate rows and rows without units."""
    k = draw(st.integers(0, 6))
    row = st.lists(entry, min_size=k, max_size=k).map(tuple)
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
    pivots, proj, residual, kept = _eliminate_units(rels)
    s = proj.width
    assert len(proj) == k and s == k - len(pivots)
    for c, r in pivots:
        assert r[c] in (1, -1)
        pivot = sparse_row(r)
        assert row_mul(pivot, proj) == ()
        assert dense_spans(k, rows, dense_row(pivot, k))  # a pivot is a relation combination
    eliminated = {c for c, _ in pivots}
    survivors = [j for j in range(k) if j not in eliminated]
    assert list(kept) == survivors
    assert [proj[j] for j in survivors] == [((t, 1),) for t in range(s)]
    assert all(x not in (1, -1) for r in residual for _, x in r)
    assert len(set(residual)) == len(residual) and all(residual)


@settings(deadline=None, max_examples=300)
@given(st.one_of(presentations(), presentations(UNIT_HEAVY)), st.data())
@example((0, ()), None)
@example((3, ()), None)
@example((3, ((1, -1, 0), (0, 1, 1), (1, 0, 1))), None)  # ±1 only: every generator eliminated
@example((3, ((2, 1, 0), (0, 4, 2), (6, 0, 3))), None)  # Z/36 through a residual that is not diagonal
def test_sparse_element_api_is_canonical(pres, data):
    """reduce, element_order and elements on sparse rows, judged by the dense oracle."""
    k, rows = pres
    g = FgAbGroup(k, rows)
    oracle = DenseSNF(rows) if k and rows else None

    def is_zero(x, n=1):  # n·x in the relation span, by the dense oracle
        b = tuple(n * v for v in dense_row(x, k))
        return dense_solve(oracle, b) is not None if oracle else not any(b)

    def diff(x, y):
        acc = dict(x)
        for j, v in y:
            acc[j] = acc.get(j, 0) - v
        return sparse_row(acc)

    vectors = st.lists(ENTRY, min_size=k, max_size=k).map(nonzeros)
    xs = [()] + [sparse_row({j: 3 * x for j, x in r}) for r in g.rels[:1]]
    if data is not None:
        xs += data.draw(st.lists(vectors, max_size=4))
    inv, rank = g.canonical_form
    exponent = 1
    for d in inv:
        exponent = exponent * d // gcd(exponent, d)
    for x in xs:
        r = g.reduce(x)
        assert is_zero(diff(r, x)) and g.reduce(r) == r
        for y in xs:
            assert (r == g.reduce(y)) is is_zero(diff(x, y))
        order = g.element_order(x)
        if order:
            assert is_zero(x, order)
        else:
            assert rank and not is_zero(x, exponent)
        if not rank and g.order() <= 200:
            assert order == next(n for n in range(1, g.order() + 1) if is_zero(x, n))
    if not rank and g.order() <= 200:
        els = list(g.elements())
        assert len(els) == len(set(els)) == g.order()
        assert all(g.reduce(e) == e for e in els)


def test_nerve_levels_of_hh_f2_n4_degree_3_keep_their_canonical_forms():
    nerve = twisted_cyclic_nerve(norm_trivial_ring(BaseRing.integers_mod(2), 4), 4)
    for x in nerve.degrees:
        for d in nerve.ctx.divisors:
            g = x.level[d]
            s = _SNF(g.rels)
            assert g.canonical_form == (tuple(e for e in s.diagonal if e > 1), g.num_generators - s.rank)
