"""Certificates read in the reduced presentation.

``AbHom(check=True)`` tests the rows that span the source relations
(``FgAbGroup._reduction``'s ``generators``: the elimination pivots and the
lifted residual) instead of every relation; ``composites_agree`` compares
two composites of certified homs on the source's surviving generators only;
``FgAbGroup.quotient`` derives its reduction from its parent's.  Each is
judged here by the dense elimination (``tests/dense_snf.py``) or by the
full-matrix equality ``AbHom.__eq__``.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_reduced_presentation import ENTRY, UNIT_HEAVY, dense_canonical_form, dense_spans, presentations

from mackeywitt import fgab
from mackeywitt.fgab import (
    AbHom,
    FgAbGroup,
    NotWellDefinedError,
    Sparse,
    composites_agree,
    dense_row,
    direct_sum,
    nonzeros,
    preimage_basis,
    sparse_row,
)
from mackeywitt.green import quotient_by_green_ideal
from mackeywitt.hochschild import twisted_cyclic_nerve
from mackeywitt.norm import norm_trivial_ring
from mackeywitt.wittcore import BaseRing


def row_of(k, entry=ENTRY):
    return st.lists(entry, min_size=k, max_size=k).map(tuple)


def rows_of(k, n):
    return st.lists(row_of(k), min_size=n, max_size=n)


@settings(deadline=None, max_examples=300)
@given(st.one_of(presentations(), presentations(UNIT_HEAVY)))
@example((3, ((1, -1, 0), (0, 1, 1), (1, 0, 1))))  # ±1 only: every generator eliminated
@example((3, ((2, 4, 0), (2, 4, 0), (0, 6, 3))))  # no unit entry: the residual is everything
def test_the_relation_generators_span_the_relations(pres):
    k, rows = pres
    g = FgAbGroup(k, rows)
    red = g._reduction
    gens = [dense_row(r, k) for r in red.generators]
    assert len(gens) <= k + len(red.residual)
    assert all(dense_spans(k, rows, r) for r in gens)
    assert all(dense_spans(k, gens, r) for r in rows)


@settings(deadline=None, max_examples=300)
@given(st.one_of(presentations(), presentations(UNIT_HEAVY)), st.data())
def test_a_quotient_derives_its_reduction_and_answers_as_the_dense_oracle(pres, data):
    """Two quotients in turn: each keeps its parent's survivors, and every answer is
    the dense elimination's of the stacked relations."""
    k, rows = pres
    g = FgAbGroup(k, rows)
    for _ in range(2):
        extra = data.draw(st.lists(row_of(k, UNIT_HEAVY), max_size=3))
        q = g.quotient(extra)
        rows = rows + tuple(extra)
        assert q._reduction.kept == g._reduction.kept and q._reduction.proj is g._reduction.proj
        assert q.canonical_form == dense_canonical_form(k, rows)
        assert all(dense_spans(k, [dense_row(r, k) for r in q._reduction.generators], r) for r in rows)
        candidates = data.draw(st.lists(row_of(k), max_size=3))
        for b in candidates + list(extra):
            assert q._spans(nonzeros(b)) is dense_spans(k, rows, b)
        g = q


@st.composite
def certified_chains(draw):
    """Groups G_0 → G_1 → G_2 and two certified homs f_i, g_i : G_i → G_{i+1} per step.

    G_2 is any presentation; the relations of G_i are random combinations of the
    rows that f_i and g_i both send into the relations of G_{i+1}, so both are
    well defined.  g_i is f_i, f_i plus a map into the target relations, or any
    other matrix, so the chains below agree and disagree in turn.
    """
    sizes = draw(st.lists(st.integers(0, 4), min_size=3, max_size=3))
    target = FgAbGroup(sizes[2], draw(st.lists(row_of(sizes[2]), max_size=4)))
    steps = []
    for k, kt in ((sizes[1], sizes[2]), (sizes[0], sizes[1])):
        f = draw(rows_of(kt, k))
        kind = draw(st.sampled_from(["same", "shifted", "other"]))
        if kind == "other":
            g = draw(rows_of(kt, k))
        elif kind == "shifted" and target.rels:
            shift = []
            for _ in range(k):
                acc = [0] * kt
                for r in target.relations:
                    c = draw(st.integers(-2, 2))
                    acc = [a + c * x for a, x in zip(acc, r)]
                shift.append(acc)
            g = [tuple(a + b for a, b in zip(x, y)) for x, y in zip(f, shift)]
        else:
            g = list(f)
        both = Sparse.of([tuple(x) + tuple(y) for x, y in zip(f, g)], 2 * kt)
        basis = [dense_row(r, k) for r in preimage_basis(both, direct_sum(target, target).rels)]
        rels = []
        for _ in range(draw(st.integers(0, 5))):
            acc = [0] * k
            for r in basis:
                c = draw(st.sampled_from([0, 0, 0, 1, -1, 2]))
                acc = [a + c * x for a, x in zip(acc, r)]
            rels.append(tuple(acc))
        source = FgAbGroup(k, rels)
        steps.insert(0, (AbHom(source, target, f), AbHom(source, target, g)))
        target = source
    return steps


@settings(deadline=None, max_examples=300)
@given(certified_chains(), st.lists(st.booleans(), min_size=4, max_size=4))
def test_survivor_comparison_agrees_with_the_full_composite(steps, picks):
    (f0, g0), (f1, g1) = steps
    left = (g0 if picks[0] else f0, g1 if picks[1] else f1)
    right = (g0 if picks[2] else f0, g1 if picks[3] else f1)
    assert composites_agree(left, right) is (left[0].compose(left[1]) == right[0].compose(right[1]))
    assert composites_agree((f0,), (g0,)) is (f0 == g0)
    zero = AbHom.zero(f0.source, f1.target)
    assert composites_agree(left, (zero,)) is (left[0].compose(left[1]) == zero)


def test_a_face_wrong_only_on_an_eliminated_generator_is_refused():
    """d_0 out of degree 1 of the nerve of the F_2 norm over C_4, with one eliminated
    tag sent one nonzero class further: it agrees with d_0 on every survivor, so only
    the certificate on the pivots can refuse it."""
    x = twisted_cyclic_nerve(norm_trivial_ring(BaseRing.integers_mod(2), 4), 2)
    pres, face = x.presentations[1], x.face(1, 0)
    for d in x.ctx.divisors:
        src, tgt = face.source.level[d], face.target.level[d]
        eliminated = [c for c in range(src.num_generators) if c not in src._reduction.kept]
        nonzero = [j for j in range(tgt.num_generators) if not tgt.same_class(((j, 1),), ())]
        if eliminated and nonzero:
            break
    else:
        pytest.fail("no level with an eliminated source generator and a nonzero target class")
    c, j = eliminated[0], nonzero[0]

    def row(level, e, tup):
        i = pres.tag_pos[level][(e, tup)]
        r = face.maps[level].rows[i]
        if (level, i) == (d, c):
            acc = dict(r)
            acc[j] = acc.get(j, 0) + 1
            r = sparse_row(acc)
        return r

    forged = AbHom(src, tgt, Sparse((row(d, e, t) for e, t in pres.tags[d]), tgt.num_generators), check=False)
    assert composites_agree((forged,), (face.maps[d],)) and not forged == face.maps[d]
    with pytest.raises(NotWellDefinedError, match=r"^relation .* maps to .*, not in target relations$"):
        pres.hom(x.degrees[0], row)


def test_the_green_ideal_closure_eliminates_no_units_again(monkeypatch):
    """Every quotient the closure builds, and the quotient functor it returns, reads
    its parent's reduction: once the levels are reduced, no elimination runs."""
    r = norm_trivial_ring(BaseRing.integers(), 4)
    for d in r.ctx.divisors:
        r.level[d]._reduction
    calls = []
    eliminate = fgab._eliminate_units
    monkeypatch.setattr(fgab, "_eliminate_units", lambda rels: calls.append(rels) or eliminate(rels))
    q = quotient_by_green_ideal(r, [(4, ((0, 2),))])
    assert calls == []
    assert any(len(q.level[d].rels) > len(r.level[d].rels) for d in r.ctx.divisors)
    for d in r.ctx.divisors:
        g = q.level[d]
        assert g.canonical_form == dense_canonical_form(g.num_generators, g.relations)
