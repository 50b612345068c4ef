"""Span questions and canonical forms answered on the unit-eliminated
presentation.

``FgAbGroup._reduction`` eliminates generators on ±1 relation entries
(``fgab._eliminate_units``) and factors only the leftover relations; it is
the group's one factorization.  Its answers are checked against the dense
elimination of the whole relation matrix (``tests/dense_snf.py``) and, on
the nerve of ``hh --ring F_2 --n 4 --max-degree 3``, against the sparse
``_SNF`` of the whole relation matrix.  Tall presentations (many more
rows than generators, most of them combinations of a few) and the
redundant box levels the workloads build exercise the elimination's online
order: most rows vanish on arrival, and some gain a ±1 entry only after a
later pivot.
"""

import pytest
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
from mackeywitt.green import box, box_power
from mackeywitt.hochschild import twisted_cyclic_nerve
from mackeywitt.mackey import GroupContext, burnside
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


@st.composite
def tall_presentations(draw):
    """(k, dense relation rows) with many more rows than generators: up to 10
    generators and 40 rows, most of them small integer combinations of a few
    base rows, shuffled, with duplicates up to sign."""
    k = draw(st.integers(1, 10))
    row = st.lists(ENTRY, min_size=k, max_size=k).map(tuple)
    base = draw(st.lists(row, min_size=1, max_size=4))
    coefficients = st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base))
    rows = base + [
        tuple(sum(c * b[j] for c, b in zip(cs, base)) for j in range(k))
        for cs in draw(st.lists(coefficients, min_size=k, max_size=28))
    ]
    rows += draw(st.lists(row, max_size=3))  # a few rows off the base span
    signs = st.tuples(st.sampled_from(rows), st.sampled_from((1, -1)))
    rows += [tuple(sign * x for x in r) for r, sign in draw(st.lists(signs, max_size=5))]
    return k, tuple(draw(st.permutations(rows)))


def dense_canonical_form(k, rows):
    if not k or not rows:
        return (), k
    s = DenseSNF(rows)
    return tuple(d for d in s.diagonal if d > 1), k - s.rank


def dense_spans(k, rows, b):
    return dense_solve_left(rows if k else (), b) is not None


@settings(deadline=None, max_examples=300)
@given(st.one_of(presentations(), presentations(UNIT_HEAVY)), st.data())
@example((0, ()), None)
@example((0, ((), ())), None)
@example((3, ()), None)
@example((2, ((0, 0), (0, 0))), None)
@example((3, ((2, 4, 0), (2, 4, 0), (0, 6, 3))), None)  # no unit entry, duplicated
@example((3, ((-1, 2, 0), (0, -1, 3), (2, 0, -1))), None)  # negative units only
@example((3, ((1, -1, 0), (0, 1, 1), (1, 0, 1))), None)  # ±1 only: every generator eliminated
@example((3, ((2, 1, 0), (0, 4, 2), (6, 0, 3))), None)  # Z/36 through a residual that is not diagonal
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
        for n in (1, 2, 3):  # b and its small multiples: the span questions behind an additive order
            nb = tuple(n * x for x in b)
            assert g._spans(nonzeros(nb)) is dense_spans(k, rows, nb)
    for a, b in zip(candidates, candidates[1:]):
        diff = tuple(x - y for x, y in zip(a, b))
        assert g.same_class(nonzeros(a), nonzeros(b)) is dense_spans(k, rows, diff)


def assert_elimination_contract(k, rows):
    rels = Sparse.of(rows, k) if k else Sparse()
    pivots, proj, residual, kept = _eliminate_units(rels)
    s = proj.width
    assert len(pivots) <= k
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
@given(presentations())
@example((2, ((3, 2), (1, 1))))  # (3, 2) gains its ±1 entry only after the pivot on (1, 1)
def test_every_pivot_relation_projects_to_zero(pres):
    assert_elimination_contract(*pres)


@settings(deadline=None, max_examples=150)
@given(tall_presentations())
def test_tall_redundant_presentations_keep_the_elimination_contract(pres):
    """The contract on rows ≫ generators, and the relation generators span the
    relations and are spanned by them, judged by one dense elimination each."""
    k, rows = pres
    assert_elimination_contract(k, rows)
    g = FgAbGroup(k, rows)
    assert g.canonical_form == dense_canonical_form(k, rows)
    gens = [dense_row(r, k) for r in g._reduction.generators]
    of_rows = DenseSNF(rows)
    assert all(dense_solve(of_rows, r) is not None for r in gens)
    if gens:
        of_gens = DenseSNF(gens)
        assert all(dense_solve(of_gens, r) is not None for r in rows)
    else:
        assert not any(map(any, rows))


def assert_reduction_of_whole_snf(g):
    """g's canonical form is that of the ``_SNF`` of all its relations, and every
    relation row projects into the residual span."""
    s = _SNF(g.rels)
    assert g.canonical_form == (tuple(e for e in s.diagonal if e > 1), g.num_generators - s.rank)
    red = g._reduction
    assert all(red.snf.spans(red.snf.coords(row_mul(r, red.proj))) for r in g.rels)


def test_nerve_levels_of_hh_f2_n4_degree_3_keep_their_canonical_forms():
    nerve = twisted_cyclic_nerve(norm_trivial_ring(BaseRing.integers_mod(2), 4), 4)
    for x in nerve.degrees:
        for d in nerve.ctx.divisors:
            assert_reduction_of_whole_snf(x.level[d])


@pytest.mark.parametrize("build", [
    lambda: box(burnside(GroupContext(4)), burnside(GroupContext(4))),
    lambda: box(burnside(GroupContext(6)), burnside(GroupContext(6))),
    lambda: box_power(norm_trivial_ring(BaseRing.integers(), 6), 2),
], ids=["burnside-box-C4", "burnside-box-C6", "norm-Z-C6-box-square"])
def test_redundant_box_levels_keep_their_canonical_forms(build):
    g = build().mackey
    for d in g.ctx.divisors:
        assert_reduction_of_whole_snf(g.level[d])
