"""Every presentation built by stacking relation rows keeps each nonzero row once.

Box levels, Subquotients (so every homology level), cokernels, quotients by
subgroups, ẼF levels and ghost quotients pass their stacked rows through
``Sparse.distinct``; the span, and so every canonical form, is unchanged.
``FgAbGroup(k, rows)`` itself keeps the rows it is given.
"""

import pytest
from subgroups import same_subgroup

from mackeywitt import fgab
from mackeywitt.fgab import AbHom, FgAbGroup, NotInSubgroupError, Sparse, Subquotient
from mackeywitt.geomfix import _maximal_non_multiples, tilde_ef
from mackeywitt.green import box_power
from mackeywitt.hochschild import MackeyHomology, moore_complex, twisted_cyclic_nerve
from mackeywitt.mackey import prime_factors, quotient
from mackeywitt.norm import norm_trivial_ring
from mackeywitt.wittcore import BaseRing
from mackeywitt.wittgreen import ghost_map, witt_green

F2 = BaseRing.integers_mod(2)
Z = BaseRing.integers()


def assert_distinct(group: FgAbGroup):
    rels = group.rels
    assert all(rels), "an empty relation row is kept"
    assert len(set(rels)) == len(rels), "a relation row is kept twice"


def assert_same_span(group: FgAbGroup, stacked):
    k = group.num_generators
    assert same_subgroup(group, FgAbGroup(k, Sparse(stacked, k)))


def test_distinct_keeps_first_occurrences_of_nonzero_rows():
    a, b = ((0, 2),), ((1, 3),)
    out = Sparse.distinct([(), a, b, a, (), b, a], 2)
    assert out == (a, b) and out.width == 2
    assert Sparse.distinct([], 3) == () and Sparse.distinct([], 3).width == 3


def test_group_constructor_keeps_duplicate_and_zero_rows():
    rows = [(2, 0), (0, 0), (2, 0), (0, 3)]
    g = FgAbGroup(2, rows)
    assert g.relations == tuple(rows)
    assert g.canonical_form == ((6,), 0)


def test_box_power_levels_keep_each_relation_once():
    pres = box_power(norm_trivial_ring(F2, 4), 3)
    for d in pres.mackey.ctx.divisors:
        assert_distinct(pres.mackey.level[d])


def test_nerve_and_homology_levels_keep_each_relation_once():
    # the complex and homology of `hh --ring F_2 --n 4 --max-degree 2`
    cx = moore_complex(twisted_cyclic_nerve(norm_trivial_ring(F2, 4), 3))
    for x in cx.degrees:
        for d in x.ctx.divisors:
            assert_distinct(x.level[d])
    for k in range(3):
        h = MackeyHomology(cx, k)
        for d in h.ctx.divisors:
            sq = h.subquotients[d]
            assert_distinct(sq.group)
            b = cx.boundaries[k + 1].maps[d]
            stacked = [sq.coords(r) for r in b.rows + sq.ambient.rels]
            assert_same_span(sq.group, stacked)


def test_subquotient_solves_each_distinct_boundary_once(monkeypatch):
    solved = []
    solve = fgab.solve_left

    def counting_solve(m, b, *snf):
        solved.append(b)
        return solve(m, b, *snf)

    monkeypatch.setattr(fgab, "solve_left", counting_solve)
    ambient = FgAbGroup(2, [(0, 4), (0, 4)])
    sq = Subquotient(ambient, [(1, 0), (0, 2)], [(2, 0), (0, 0), (2, 0), (0, 4)])
    assert len(solved) == 2  # (2, 0) and (0, 4), each once
    assert sq.group.relations == ((2, 0), (0, 2))
    assert sq.group.canonical_form == ((2, 2), 0)


def test_subquotient_names_a_boundary_outside_the_cycles():
    with pytest.raises(NotInSubgroupError, match="^boundary not contained in cycles$"):
        Subquotient(FgAbGroup(2), [(2, 0)], [(2, 0), (2, 0), (1, 0)])


def test_cokernel_keeps_each_relation_once():
    target = FgAbGroup(3, [(4, 0, 0), (0, 6, 0)])
    rows = [(4, 0, 0), (0, 0, 0), (0, 3, 0), (0, 3, 0)]
    q, proj = AbHom(FgAbGroup(4), target, rows).cokernel()
    assert_distinct(q)
    assert_same_span(q, target.rels + Sparse.of(rows, 3))
    assert q.canonical_form == ((12,), 1)
    assert proj.target is q


def test_green_quotient_keeps_each_relation_once():
    g = norm_trivial_ring(Z, 4)
    # 2·g is a Green ideal; stack its rows twice, with zero rows and g's own relations
    rows = {}
    for d in g.ctx.divisors:
        k = g.level[d].num_generators
        twice = [((i, 2),) for i in range(k)]
        rows[d] = Sparse(twice + [()] + twice + list(g.level[d].rels), k)
    q = quotient(g, rows, f"{g.name}/ideal")
    for d in g.ctx.divisors:
        assert_distinct(q.level[d])
        assert_same_span(q.level[d], g.level[d].rels + rows[d])
        assert q.level[d].canonical_form == ((2,) * g.level[d].num_generators, 0)


@pytest.mark.parametrize("m", [1, 2, 4])
def test_tilde_ef_levels_keep_each_relation_once(m):
    obj = box_power(norm_trivial_ring(F2, 4), 2).mackey
    te = tilde_ef(obj, m)
    for d in obj.ctx.divisors:
        if d % m:
            continue
        stacked = obj.level[d].rels
        for e in _maximal_non_multiples(d, m):
            stacked += obj.tr_full(e, d).rows
        assert_distinct(te.level[d])
        assert_same_span(te.level[d], stacked)


@pytest.mark.parametrize("ring,n", [(F2, 4), (Z, 6)], ids=["F_2-4", "Z-6"])
def test_ghost_quotients_keep_each_relation_once(ring, n):
    w = witt_green(ring, n)
    g = w.green
    for d in g.ctx.divisors:
        quot, _ = ghost_map(w, d)
        stacked = g.level[d].rels
        for q in prime_factors(d):
            stacked += g.tr_full(d // q, d).rows
        assert_distinct(quot)
        assert_same_span(quot, stacked)
