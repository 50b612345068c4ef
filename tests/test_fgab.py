import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_snf import dense_solve_left, identity_matrix
from mackeywitt.fgab import (
    AbHom,
    CompositeNotZeroError,
    FgAbGroup,
    NotWellDefinedError,
    Sparse,
    Subquotient,
    _SNF,
    cyclic_group,
    dense_row,
    direct_sum,
    free_group,
    homology,
    homology_subquotient,
    kernel_basis,
    mat,
    mat_mul,
    nonzeros,
    preimage_basis,
    row_hnf,
    row_mul,
    snf,
    solve_left,
    tensor,
    tensor_hom,
)
from mackeywitt.mackey import GroupContext, fixed_point_mackey


def check_snf(m):
    u, d, v = snf(m)
    assert mat(mat_mul(mat_mul(u, mat(m)), v)) == d
    k = min(len(d), len(d[0]) if d else 0)
    diag = [d[i][i] for i in range(k)]
    for i in range(len(d)):
        for j in range(len(d[0]) if d else 0):
            if i != j:
                assert d[i][j] == 0
    nonzero = [x for x in diag if x]
    assert diag[: len(nonzero)] == nonzero, "zeros must come last"
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert all(x >= 0 for x in diag)
    return diag


def test_snf_gcd_row():
    # [[4, 6]] reduces to [[2, 0]] by Euclid
    diag = check_snf([[4, 6]])
    assert diag == [2]


def test_snf_identity():
    diag = check_snf(identity_matrix(2))
    assert diag == [1, 1]


def test_snf_zero():
    diag = check_snf([[0]])
    assert diag == [0]


def test_snf_empty():
    check_snf([])
    u, d, v = snf([])
    assert d == ()


def test_snf_divisibility_fold():
    diag = check_snf([[2, 0, 0], [0, 6, 0], [0, 0, 9]])
    assert diag == [1, 6, 18]


def test_snf_random_roundtrip():
    rng = random.Random(1234)
    for _ in range(120):
        r = rng.randint(0, 8)
        c = rng.randint(0, 8)
        m = [[rng.randint(-20, 20) for _ in range(c)] for _ in range(r)]
        check_snf(m)


def test_solve_left():
    m = Sparse.of([[2, 0], [0, 3]])
    assert dense_row(solve_left(m, nonzeros((4, 9))), 2) == (2, 3)
    assert solve_left(m, nonzeros((1, 0))) is None
    assert solve_left((), ()) == ()
    assert solve_left((), ((0, 1),)) is None


def test_kernel_basis():
    m = mat([[1, 1], [1, 1], [2, 2]])
    ker = mat(kernel_basis(m))
    assert len(ker) == 2
    for row in ker:
        assert row[0] + row[1] + 2 * row[2] == 0


def test_preimage_basis():
    # x * [[2]] in span of [[4]]  <=>  x even
    rows = preimage_basis(mat([[2]]), mat([[4]]))
    assert mat(row_hnf(rows, 1)) == ((2,),)


def test_canonical_form():
    g = FgAbGroup(2, [(2, 0), (0, 3)])
    assert g.canonical_form == ((6,), 0)
    assert FgAbGroup(3, [(1, 0, 0)]).canonical_form == ((), 2)
    assert FgAbGroup(0).canonical_form == ((), 0)
    assert cyclic_group(4).canonical_form == ((4,), 0)
    assert free_group(2).canonical_form == ((), 2)


def test_isomorphism_iff_canonical_form():
    a = FgAbGroup(2, [(2, 0), (0, 3)])
    b = cyclic_group(6)
    assert a.canonical_form == b.canonical_form


def test_negative_power_is_refused():
    f = AbHom(free_group(1), free_group(1), [[2]])
    assert f.power(0) == AbHom.identity(f.source)
    assert f.power(3).matrix == ((8,),)
    with pytest.raises(ValueError, match="negative power"):
        f.power(-1)


def test_elements_and_orders():
    g = FgAbGroup(2, [(2, 0), (0, 4)])
    els = list(g.elements())
    assert len(els) == 8
    reduced = {g.reduce(e) for e in els}
    assert len(reduced) == 8
    assert g.element_order(()) == 1
    orders = sorted(g.element_order(e) for e in els)
    assert orders.count(4) == 4  # Z/2 x Z/4 has four elements of order 4


def test_elements_and_orders_nondiagonal_relations():
    # Z^2 / <(2,1),(0,4)> = Z/8; exercises the z = x·V coordinate change
    g = FgAbGroup(2, [(2, 1), (0, 4)])
    assert g.canonical_form == ((8,), 0)
    els = list(g.elements())
    assert len(els) == 8
    assert len({g.reduce(e) for e in els}) == 8
    from collections import Counter

    hist = Counter(g.element_order(e) for e in els)
    assert hist == {1: 1, 2: 1, 4: 2, 8: 4}
    for e in els:
        assert g.same_class(e, g.reduce(e))


def test_hom_well_definedness():
    z2 = cyclic_group(2)
    z4 = cyclic_group(4)
    AbHom(z4, z2, [(1,)])  # reduction is fine
    with pytest.raises(NotWellDefinedError):
        AbHom(z2, z4, [(1,)])  # no ring map Z/2 -> Z/4 sending 1 to 1
    AbHom(z2, z4, [(2,)])


def is_int_matrix(m):
    return type(m) is tuple and all(type(r) is tuple and all(type(x) is int for x in r) for r in m)


def test_public_hom_constructor_normalises_lists_and_bools():
    z2 = cyclic_group(2)
    f = AbHom(free_group(2), direct_sum(z2, z2), [[True, False], [0, 1]])
    assert f.matrix == ((1, 0), (0, 1))
    assert is_int_matrix(f.matrix)
    with pytest.raises(NotWellDefinedError):
        AbHom(z2, cyclic_group(4), [[True]])


def test_internally_built_homs_keep_int_tuples_and_shape_checks():
    z, z2 = free_group(1), cyclic_group(2)
    f = AbHom(free_group(2), z, [[3], [True]])
    g = AbHom(z, z2, [[1]])
    built = [
        AbHom.identity(z2), AbHom.zero(z, z2), f.compose(g), f.add(f), f.sub(f), f.scale(2),
        AbHom(z, z, [[2]]).power(3), f.kernel()[1], f.cokernel()[1], tensor_hom(f, g),
    ]
    for h in built:
        assert is_int_matrix(h.matrix)
        assert len(h.matrix) == h.source.num_generators
        assert all(len(r) == h.target.num_generators for r in h.matrix)
    with pytest.raises(ValueError):
        AbHom(z, z2, ((1,), (0,)), check=False)
    with pytest.raises(ValueError):
        AbHom(z, z2, ((1, 0),), check=False)


def test_hom_equality_mod_relations():
    z3 = cyclic_group(3)
    f = AbHom(z3, z3, [(1,)])
    g = AbHom(z3, z3, [(4,)])
    assert f == g
    assert f != AbHom(z3, z3, [(2,)])


def test_homology_coker_of_times_two():
    z = free_group(1)
    zero = FgAbGroup(0)
    d_in = AbHom(z, z, [(2,)])
    d_out = AbHom(z, zero, [()])
    h = homology(d_in, d_out)
    assert h.canonical_form == ((2,), 0)


def test_homology_middle_group():
    z2g = free_group(2)
    zero = FgAbGroup(0)
    d_in = AbHom(zero, z2g, [])
    d_out = AbHom(z2g, zero, [(), ()])
    assert homology(d_in, d_out).canonical_form == ((), 2)


def test_homology_exact():
    z = free_group(1)
    zero = FgAbGroup(0)
    d_in = AbHom(z, z, [(1,)])
    d_out = AbHom(z, zero, [()])
    assert homology(d_in, d_out).is_trivial()


def test_homology_rejects_nonzero_composite():
    z = free_group(1)
    with pytest.raises(CompositeNotZeroError):
        homology(AbHom(z, z, [(1,)]), AbHom(z, z, [(1,)]))


def test_homology_vanishes_when_d_in_surjective_or_d_out_injective():
    rng = random.Random(99)
    zero = FgAbGroup(0)
    for _ in range(20):
        b = FgAbGroup(2, [(rng.randint(1, 6), 0), (0, rng.randint(1, 6))])
        cover = free_group(2)
        d_in = AbHom(cover, b, identity_matrix(2))  # surjective
        assert d_in.is_surjective()
        assert homology(d_in, AbHom(b, zero, [(), ()])).is_trivial()
        # injective d_out with zero d_in
        m = rng.randint(2, 6)
        zmod = cyclic_group(m)
        d_out = AbHom(zmod, cyclic_group(m * m), [(m,)])
        assert d_out.is_injective()
        assert homology(AbHom(zero, zmod, []), d_out).is_trivial()


def test_tensor():
    assert tensor(cyclic_group(2), cyclic_group(3)).is_trivial()
    assert tensor(cyclic_group(4), cyclic_group(6)).canonical_form == ((2,), 0)
    a = FgAbGroup(2, [(2, 0)])
    t = tensor(free_group(1), a)
    assert t.canonical_form == a.canonical_form


def test_tensor_symmetric_associative_on_canonical_form():
    rng = random.Random(3)
    groups = [cyclic_group(2), cyclic_group(4), free_group(1), FgAbGroup(2, [(2, 0), (0, 6)])]
    for a in groups:
        for b in groups:
            assert tensor(a, b).canonical_form == tensor(b, a).canonical_form
    a, b, c = groups[1], groups[2], groups[3]
    assert tensor(tensor(a, b), c).canonical_form == tensor(a, tensor(b, c)).canonical_form


def test_tensor_hom():
    z = free_group(1)
    f = AbHom(z, z, [(2,)])
    g = AbHom(z, z, [(3,)])
    fg = tensor_hom(f, g)
    assert fg.matrix == ((6,),)


def test_kernel_cokernel():
    z = free_group(1)
    f = AbHom(z, z, [(3,)])
    k, incl = f.kernel()
    assert k.is_trivial()
    q, proj = f.cokernel()
    assert q.canonical_form == ((3,), 0)
    g = AbHom(free_group(2), z, [(1,), (1,)])
    k2, incl2 = g.kernel()
    assert k2.canonical_form == ((), 1)
    assert incl2.compose(g).is_zero()


def test_quotient_keeps_generators_and_each_relation_once():
    g = FgAbGroup(2, [(2, 0)])
    q = g.quotient([(0, 3), (2, 0), (0, 0), (0, 3)])
    assert q.num_generators == 2
    assert q.relations == ((2, 0), (0, 3))
    assert q.canonical_form == ((6,), 0)
    assert g.quotient(q.rels) == q  # Sparse rows are read as they are
    assert g.quotient(()) == g
    assert FgAbGroup(0).quotient(()).is_trivial()


def test_cokernel_is_the_target_modulo_the_image():
    f = AbHom(free_group(1), free_group(2), [(2, 4)])
    q, proj = f.cokernel()
    assert q == f.target.quotient(f.rows)
    assert q.canonical_form == ((2,), 1)
    assert proj.source is f.target and proj.target is q


def test_direct_sum():
    s = direct_sum(cyclic_group(2), free_group(1))
    assert s.canonical_form == ((2,), 1)


def test_zero_group_everywhere():
    zero = FgAbGroup(0)
    assert zero.is_trivial()
    f = AbHom(zero, cyclic_group(5), [])
    assert f.kernel()[0].is_trivial()
    assert f.cokernel()[0].canonical_form == ((5,), 0)
    assert tensor(zero, cyclic_group(5)).is_trivial()
    assert direct_sum(zero, zero).is_trivial()


def test_subgroup_hnf_equality():
    a = row_hnf(((2, 0), (0, 2), (2, 2)), 2)
    b = row_hnf(((2, 2), (2, -2)), 2)
    c = row_hnf(((2, 0), (0, 2)), 2)
    assert a == c
    assert b != c


# ---------------------------------------------------------------------------
# properties of the factorization on random small matrices

entries = st.one_of(st.just(0), st.integers(-9, 9))


@st.composite
def shaped_matrices(draw):
    """(cols, m): empty, zero, tall and wide integer matrices up to 6 × 6."""
    cols = draw(st.integers(0, 6))
    rows = draw(st.integers(0, 6))
    m = mat(draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows)))
    return cols, m


def _combination(x, m, cols):
    return tuple(sum(c * row[j] for c, row in zip(x, m)) for j in range(cols))


@settings(deadline=None)
@given(shaped_matrices(), st.data())
def test_in_rowspan_agrees_with_solve_left_without_building_u(shaped, data):
    cols, m = shaped
    b = tuple(data.draw(st.lists(entries, min_size=cols, max_size=cols)))
    s = _SNF(m)
    member = s.spans(s.coords(nonzeros(b))) if m else not any(b)
    h = row_hnf(m, cols)
    x = solve_left(h, nonzeros(b))
    assert member == (x is not None)
    assert x is None or _combination(dense_row(x, len(h)), mat(h), cols) == b
    # an independent decision: adding b leaves the Hermite basis unchanged
    assert member == (row_hnf(m + (b,), cols) == row_hnf(m, cols))
    x = data.draw(st.lists(entries, min_size=len(m), max_size=len(m)))
    b = _combination(x, m, cols)
    assert s.spans(s.coords(nonzeros(b))) if m else not any(b)
    assert "u" not in vars(s), "membership must not build U"


@st.composite
def matrices_with_repeats(draw):
    """(cols, m): a matrix of ``shaped_matrices`` with some rows repeated and zero rows added, shuffled."""
    cols, m = draw(shaped_matrices())
    extra = draw(st.lists(st.sampled_from(m + ((0,) * cols,)), max_size=3))
    return cols, tuple(draw(st.permutations(m + tuple(extra))))


def test_row_hnf_is_not_canonical():
    # two spanning sets of one lattice, two different echelon bases
    a, b = [(1, 1, 0), (0, 1, 6), (0, 0, 8)], [(1, 0, 2), (0, 1, 6), (0, 0, 8)]
    assert mat(row_hnf(a, 3)) == ((1, 0, -6), (0, 1, 6), (0, 0, 8))
    assert mat(row_hnf(b, 3)) == ((1, 0, 2), (0, 1, 6), (0, 0, 8))
    for x, y in ((a, b), (b, a)):
        assert all(FgAbGroup(3, x).same_class(nonzeros(r), ()) for r in y)


@settings(deadline=None)
@given(matrices_with_repeats())
def test_row_hnf_is_an_echelon_basis_of_its_lattice(shaped):
    cols, m = shaped
    h = row_hnf(m, cols)
    assert all(h)
    lead = [row[0][0] for row in h]
    assert lead == sorted(set(lead)), "leading columns rise strictly"
    assert all(row[0][1] > 0 for row in h), "pivots are positive"
    assert all(solve_left(h, nonzeros(r)) is not None for r in m)
    g = FgAbGroup(cols, m)
    assert all(g.same_class(row, ()) for row in h)


@settings(deadline=None)
@given(matrices_with_repeats(), st.data())
def test_solve_left_back_substitutes_on_the_echelon_basis(shaped, data):
    cols, m = shaped
    h = row_hnf(m, cols)
    pivot = {row[0][0]: i for i, row in enumerate(h)}
    x = data.draw(st.lists(entries, min_size=len(m), max_size=len(m)))
    b = tuple(data.draw(st.lists(entries, min_size=cols, max_size=cols)))
    for rhs in (b, _combination(x, m, cols)):
        y = solve_left(h, nonzeros(rhs))
        assert (y is None) == (dense_solve_left(m, rhs) is None)
        assert y is None or row_mul(y, h) == nonzeros(rhs)
        assert solve_left(h, nonzeros(rhs), pivot) == y


@settings(deadline=None)
@given(shaped_matrices())
def test_snf_roundtrips_with_lazily_built_u(shaped):
    _cols, m = shaped
    check_snf(m)
    s = _SNF(m)
    assert "u" not in vars(s)
    u, d, v = snf(m)
    assert s.u == u and s.v == v
    assert tuple(d[i][i] for i in range(len(s.diagonal))) == s.diagonal


@st.composite
def certified_homs(draw):
    """A matrix m with source relations S and target relations S·m plus extra rows."""
    k = draw(st.integers(0, 4))
    c = k if draw(st.booleans()) else draw(st.integers(0, 4))
    small = st.integers(-2, 2)
    rows = draw(st.lists(st.lists(small, min_size=c, max_size=c), min_size=k, max_size=k))
    src_rels = draw(st.lists(st.lists(entries, min_size=k, max_size=k), max_size=3))
    extra = draw(st.lists(st.lists(entries, min_size=c, max_size=c), max_size=2))
    tgt_rels = [_combination(r, rows, c) for r in src_rels] + [tuple(r) for r in extra]
    return AbHom(FgAbGroup(k, src_rels), FgAbGroup(c, tgt_rels), rows)


@settings(deadline=None)
@given(certified_homs())
def test_isomorphism_is_a_surjection_between_isomorphic_groups(f):
    assert f.is_isomorphism() == (f.is_surjective() and f.is_injective())


@st.composite
def complexes_with_an_empty_lattice(draw):
    """(d_in, d_out) around a free middle group with no cycles or no boundaries."""
    k = draw(st.integers(0, 4))
    mid = free_group(k)
    if draw(st.booleans()):
        # d_out injective (triangular, nonzero diagonal): the cycle lattice is empty
        rows = [[draw(st.integers(1, 5)) if i == j else draw(entries) if j > i else 0
                 for j in range(k)] for i in range(k)]
        d_out = AbHom(mid, free_group(k), rows)
        d_in = AbHom.zero(free_group(draw(st.integers(0, 3))), mid)
    else:
        # no boundary rows: the source of d_in has no generators
        c = draw(st.integers(0, 4))
        rows = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=k, max_size=k))
        d_out = AbHom(mid, free_group(c), rows)
        d_in = AbHom(FgAbGroup(0), mid, [])
    return d_in, d_out


@settings(deadline=None)
@given(complexes_with_an_empty_lattice())
def test_homology_with_an_empty_lattice_certifies_its_induced_maps(cx):
    d_in, d_out = cx
    sq = homology_subquotient(d_in, d_out)
    mid = d_in.target
    cycles = preimage_basis(d_out.matrix, ())
    if not cycles:
        assert sq.group.num_generators == 0 and sq.group.relations == ()
    if not d_in.source.num_generators:
        assert sq.group.canonical_form == ((), len(cycles))
    # every induced map below is certified well defined by AbHom(check=True)
    assert sq.induced(AbHom.identity(mid), sq).is_isomorphism()
    other = Subquotient(free_group(2), identity_matrix(2), [(2, 0)])  # Z/2 + Z
    assert sq.induced(AbHom.zero(mid, other.ambient), other).is_zero()
    assert other.induced(AbHom.zero(other.ambient, mid), sq).is_zero()


def test_group_questions_read_no_u():
    # Z^2 / <(2,1),(0,4)> = Z/8 on e1, with e2 = -2·e1
    g = FgAbGroup(2, [(2, 1), (0, 4)])
    assert g.canonical_form == ((8,), 0)
    assert g.same_class(((0, 4), (1, 2)), ()) and not g.same_class(((1, 2),), ())
    assert g.element_order(((1, 1),)) == 4
    assert g.reduce(((0, 2), (1, 1))) == g.reduce(())
    f = AbHom(g, g, identity_matrix(2))  # certified: relations land in relations
    assert f == AbHom(g, g, [(1, 0), (2, 2)])
    assert "u" not in vars(g._reduction.snf)


def test_relation_snf_keeps_no_row_operation_log():
    # whatever is asked of a group, it caches no factorization but its one
    # reduction, and no question builds the residual SNF's dense U
    rels = [(2, 1, 0), (0, 4, 2), (6, 0, 3)]
    g = FgAbGroup(3, rels)
    assert g.order() == 36
    assert g.same_class(g.reduce(((0, 5), (1, 7), (2, 1))), ((0, 5), (1, 7), (2, 1)))
    assert len(set(g.elements())) == 36
    assert g.element_order(((2, 1),)) == 18
    assert g.same_class(((0, 6), (2, 3)), ())
    AbHom(g, g, [(3, 0, 0), (0, 3, 0), (0, 0, 3)])  # images 3·r are no relation rows: a miss
    assert set(vars(g)) == {"_reduction", "_rel_index", "canonical_form"}
    assert "u" not in vars(g._reduction.snf)


# ---------------------------------------------------------------------------
# a lattice that is solved against is never factored: it is an echelon basis


@pytest.fixture
def snf_counts(monkeypatch):
    """Factorizations per matrix while the test runs."""
    counts = Counter()
    init = _SNF.__init__

    def counting_init(self, m, *width):
        counts[mat(m)] += 1
        init(self, m, *width)

    monkeypatch.setattr(_SNF, "__init__", counting_init)
    return counts


def test_kernel_factors_its_lattice_once(snf_counts):
    src = FgAbGroup(3, [(4, 0, 0), (0, 6, 0), (0, 0, 10)])
    f = AbHom(src, cyclic_group(2), [(1,), (1,), (1,)])
    k, incl = f.kernel()
    assert k.order() == 120
    assert snf_counts[incl.matrix] == 0


def test_subquotient_factors_its_cycle_lattice_once(snf_counts):
    ambient = FgAbGroup(3, [(0, 0, 6)])
    cycles = mat([(1, 1, 0), (0, 2, 0), (0, 0, 1)])
    sq = Subquotient(ambient, cycles, mat([(2, 2, 0), (0, 4, 0), (0, 0, 3)]))
    assert sq.group.canonical_form == ((2, 6), 0)
    for x in [((0, 1), (1, 1)), ((1, 2), (2, 1)), ((0, 3), (1, 5), (2, 2))]:
        sq.coords(x)
    assert snf_counts[mat(sq.lattice)] == 0


def test_fixed_point_mackey_factors_each_fixed_lattice_once(snf_counts):
    rotation = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    m = fixed_point_mackey(GroupContext(3), free_group(3), rotation)
    assert m.level[3].canonical_form == ((), 1)
    assert snf_counts[identity_matrix(3)] == 0  # C_1 fixes every vector
    assert snf_counts[((1, 1, 1),)] == 0  # C_3 fixes the diagonal


# ---------------------------------------------------------------------------
# every sub-presentation goes through Subquotient


@pytest.fixture
def subquotient_ambients(monkeypatch):
    """The ambient group of each Subquotient built while the test runs."""
    ambients = []
    init = Subquotient.__init__

    def counting_init(self, ambient, cycle_rows, boundary_rows):
        ambients.append(ambient)
        init(self, ambient, cycle_rows, boundary_rows)

    monkeypatch.setattr(Subquotient, "__init__", counting_init)
    return ambients


def test_kernel_goes_through_subquotient(subquotient_ambients):
    src = FgAbGroup(3, [(4, 0, 0), (0, 6, 0), (0, 0, 10)])
    k, incl = AbHom(src, cyclic_group(2), [(1,), (1,), (1,)]).kernel()
    assert k.order() == 120
    assert subquotient_ambients == [src]


def test_each_fixed_point_level_goes_through_subquotient(subquotient_ambients):
    group = free_group(3)
    rotation = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    m = fixed_point_mackey(GroupContext(6), group, rotation)
    assert len(subquotient_ambients) == len(m.ctx.divisors) == 4
    assert all(g is group for g in subquotient_ambients)


@pytest.mark.parametrize("n,group,action", [
    (2, free_group(2), ((0, 1), (1, 0))),
    (3, free_group(3), ((0, 1, 0), (0, 0, 1), (1, 0, 0))),
    (6, free_group(3), ((0, 1, 0), (0, 0, 1), (1, 0, 0))),
    (4, free_group(4), ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0))),
    (2, FgAbGroup(1, [(4,)]), ((-1,),)),
    (4, FgAbGroup(2, [(6, 0), (0, 6)]), ((0, 1), (1, 0))),
])
def test_fixed_point_level_is_the_kernel_of_g_power_minus_one(n, group, action):
    m = fixed_point_mackey(GroupContext(n), group, action)
    act = AbHom(group, group, action)
    for d in m.ctx.divisors:
        assert m.level[d] == act.power(n // d).sub(AbHom.identity(group)).kernel()[0]
