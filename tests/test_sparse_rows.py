"""Sparse rows against dense results, and the box tag budget.

Relations and hom matrices are kept as ``Sparse`` nonzeros.  Every
operation on them must give what the dense computation gives: products,
images, sums, powers, the well-definedness certificate, preimages and the
Hermite basis, whose coordinates reach printed output and so must match
bit for bit.  The certificate decides zero and ± relation images by
lookup and must still agree with elimination.  A box level over
``BOX_TAG_BUDGET`` is refused from its tag count, before any relation is
built, a nerve counts the tags of every box power before it builds the
first, and a nerve over ``NERVE_DEGREE_BUDGET`` is refused before either.
A norm's nerve is counted from its level sizes before the norm is built.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_snf import DenseSNF, dense_mat_mul, dense_row_hnf, dense_solve, dense_solve_left, identity_matrix
from mackeywitt import cli, geomfix, green, hochschild, norm, wittgreen
from mackeywitt.cli import main
from mackeywitt.fgab import (
    AbHom,
    FgAbGroup,
    NotWellDefinedError,
    Sparse,
    free_group,
    mat,
    mat_mul,
    preimage_basis,
    row_hnf,
)
from mackeywitt.green import box, box_power
from mackeywitt.hochschild import twisted_cyclic_nerve
from mackeywitt.mackey import GroupContext, burnside, check_axioms
from mackeywitt.norm import norm_trivial_ring
from mackeywitt.wittcore import BaseRing, EnumerationBudgetError

ENTRY = st.sampled_from([0, 0, 0, 0, 0, 1, -1, 2, -3, 5])


def dense(rows, cols):
    return st.lists(st.lists(ENTRY, min_size=cols, max_size=cols).map(tuple), min_size=rows, max_size=rows).map(tuple)


@st.composite
def chains(draw):
    """Dense matrices f (a × b) and g (b × c), mostly zero."""
    a, b, c = (draw(st.integers(0, 6)) for _ in range(3))
    return draw(dense(a, b)), draw(dense(b, c)), (a, b, c)


@settings(deadline=None, max_examples=150)
@given(chains(), st.data())
def test_products_images_and_sums_match_the_dense_ones(ch, data):
    f_rows, g_rows, (a, b, c) = ch
    f = AbHom(free_group(a), free_group(b), Sparse.of(f_rows, b))
    g = AbHom(free_group(b), free_group(c), g_rows)
    assert f.matrix == f_rows and g.rows == Sparse.of(g_rows, c)
    product = dense_mat_mul(f_rows, g_rows, c)
    assert f.compose(g).matrix == product
    assert mat_mul(f.rows, g.rows) == Sparse.of(product, c)
    if b:  # dense rows carry no width when there are none
        assert mat_mul(f_rows, g_rows) == product
    x = data.draw(dense(1, a))[0] if a else ()
    assert f.apply(x) == dense_mat_mul((x,), f_rows, b)[0]
    h_rows = data.draw(dense(a, b))
    h = AbHom(free_group(a), free_group(b), h_rows)
    assert f.add(h).matrix == tuple(tuple(p + q for p, q in zip(r, s)) for r, s in zip(f_rows, h_rows))
    assert f.sub(h).matrix == tuple(tuple(p - q for p, q in zip(r, s)) for r, s in zip(f_rows, h_rows))


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 5).flatmap(lambda k: dense(k, k).map(lambda m: (k, m))), st.integers(0, 4))
def test_powers_match_dense_products_from_the_identity(km, k):
    n, m = km
    expected = identity_matrix(n)
    for _ in range(k):
        expected = dense_mat_mul(expected, m, n)
    assert AbHom(free_group(n), free_group(n), m).power(k).matrix == expected


@st.composite
def presented_homs(draw):
    """Groups with relations and a candidate matrix between them."""
    ks, kt = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    s_rel = draw(dense(draw(st.integers(0, 4)), ks))
    t_rel = draw(dense(draw(st.integers(0, 4)), kt))
    return (ks, s_rel), (kt, t_rel), draw(dense(ks, kt))


def _well_defined(s_rel, t_rel, matrix, kt):
    oracle = DenseSNF(t_rel) if t_rel else None
    for r in s_rel:
        img = dense_mat_mul((r,), matrix, kt)[0]
        if (dense_solve(oracle, img) is None) if oracle else any(img):
            return False
    return True


@settings(deadline=None, max_examples=150)
@given(presented_homs())
def test_certificate_is_the_same_on_sparse_and_dense_input(data):
    (ks, s_rel), (kt, t_rel), matrix = data
    ok = _well_defined(s_rel, t_rel, matrix, kt)
    for source, target, m in (
        (FgAbGroup(ks, s_rel), FgAbGroup(kt, t_rel), matrix),
        (FgAbGroup(ks, Sparse.of(s_rel, ks)), FgAbGroup(kt, Sparse.of(t_rel, kt)), Sparse.of(matrix, kt)),
    ):
        if ok:
            AbHom(source, target, m)
        else:
            with pytest.raises(NotWellDefinedError):
                AbHom(source, target, m)


def _in_span(rel, row):
    return dense_solve_left(rel, row) is not None


@st.composite
def lookup_homs(draw):
    """A target presentation, two matrices into it and source relations.

    Matrix rows are zero, ± a target relation, a sum of relations (in the
    span but no row of it) or anything, so the images of unit, duplicated
    and random source relations meet every branch of the certificate.
    """
    kt, ks = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    t_rel = draw(dense(draw(st.integers(0, 4)), kt))

    def row_of(kind):
        if kind == "zero" or (kind != "any" and not t_rel):
            return (0,) * kt
        if kind == "any":
            return draw(dense(1, kt))[0]
        a, b = draw(st.sampled_from(t_rel)), draw(st.sampled_from(t_rel))
        c = {"rel": (1, 0), "neg": (-1, 0), "sum": (1, 1)}[kind]
        return tuple(c[0] * x + c[1] * y for x, y in zip(a, b))

    kinds = st.sampled_from(["zero", "rel", "neg", "sum", "any"])
    matrix = tuple(row_of(draw(kinds)) for _ in range(ks))
    other = tuple(tuple(x + y for x, y in zip(r, row_of(draw(kinds)))) for r in matrix)
    s_rel = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["unit", "unit", "dup", "any"]))
        if kind == "dup" and s_rel:
            s_rel.append(draw(st.sampled_from(s_rel)))
        elif kind == "any":
            s_rel.append(draw(dense(1, ks))[0])
        else:
            i, c = draw(st.integers(0, ks - 1)), draw(st.sampled_from([1, -1, 2]))
            s_rel.append(tuple(c if j == i else 0 for j in range(ks)))
    return (ks, tuple(s_rel)), (kt, t_rel), matrix, other


@settings(deadline=None, max_examples=300)
@given(lookup_homs())
def test_lookup_certificate_agrees_with_the_elimination_oracle(data):
    (ks, s_rel), (kt, t_rel), matrix, other = data
    images = (dense_mat_mul((r,), matrix, kt)[0] for r in s_rel)
    failing = [(r, img) for r, img in zip(s_rel, images) if not _in_span(t_rel, img)]
    for source, target, m in (
        (FgAbGroup(ks, s_rel), FgAbGroup(kt, t_rel), matrix),
        (FgAbGroup(ks, Sparse.of(s_rel, ks)), FgAbGroup(kt, Sparse.of(t_rel, kt)), Sparse.of(matrix, kt)),
    ):
        if not failing:
            f = AbHom(source, target, m)
        else:
            r, img = failing[0]  # the first failing relation in row order, named as before
            with pytest.raises(NotWellDefinedError) as err:
                AbHom(source, target, m)
            assert str(err.value) == f"relation {r} maps to {img}, not in target relations"
            f = AbHom(source, target, m, check=False)
        g = AbHom(source, target, other, check=False)
        equal = all(_in_span(t_rel, tuple(x - y for x, y in zip(a, b))) for a, b in zip(matrix, other))
        assert (f == g) is equal and (g == f) is equal
        assert f.is_zero() is all(_in_span(t_rel, r) for r in matrix)


def test_a_hom_onto_relation_rows_never_factors_its_target():
    target = FgAbGroup(3, [(2, 0, 0), (1, 1, 0), (0, 3, -1), (1, 1, 0)])
    source = FgAbGroup(3, [(1, 0, 0), (0, 1, 0), (1, 0, 0), (0, 0, 1), (0, 0, 0)])
    # images: a relation, the negative of one, a duplicate, zero and zero
    f = AbHom(source, target, [(1, 1, 0), (0, -3, 1), (0, 0, 0)])
    # row differences: a relation, the negative of one, a relation
    g = AbHom(source, target, [(0, 0, 0), (2, -3, 1), (0, -3, 1)], check=False)
    assert f == g and f.is_zero() and target.is_zero_element((-2, 0, 0))
    assert "_reduction" not in vars(target) and "_rel_snf" not in vars(target)
    with pytest.raises(NotWellDefinedError, match=r"^relation \(0, 1, 0\) maps to \(0, 1, 0\),"):
        AbHom(source, target, [(1, 1, 0), (0, 1, 0), (0, 0, 0)])
    assert "_reduction" in vars(target) and "_rel_snf" not in vars(target)


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 6).flatmap(lambda c: st.tuples(st.just(c), dense(6, c), st.integers(0, 6))))
def test_hermite_basis_is_bit_identical_to_the_dense_one(data):
    cols, m, rows = data
    m = m[:rows]
    expected = dense_row_hnf(m, cols)
    assert row_hnf(m, cols) == expected
    sparse = row_hnf(Sparse.of(m, cols), cols)
    assert isinstance(sparse, Sparse) and mat(sparse) == expected


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 5).flatmap(lambda c: st.tuples(st.just(c), dense(5, c), dense(3, c))), st.data())
def test_preimages_match_the_dense_kernel(data, draw):
    cols, m, rel = data
    m = m[: draw.draw(st.integers(0, 5))]
    expected = ()
    if m:
        oracle = DenseSNF(m + rel)
        expected = tuple(r[: len(m)] for r in oracle.u[oracle.rank:])
    assert preimage_basis(m, rel) == expected
    sparse = preimage_basis(Sparse.of(m, cols), Sparse.of(rel, cols))
    assert isinstance(sparse, Sparse) and mat(sparse) == expected


def test_equal_elements_are_equal_without_a_factorization():
    g = FgAbGroup(2, [(2, 0), (0, 3)])
    assert g.elements_equal((1, 1), (1, 1))
    assert "_rel_snf" not in vars(g) and "_reduction" not in vars(g)
    assert g.elements_equal((3, 0), (1, 3)) and not g.elements_equal((1, 0), (0, 0))


# check_axioms(...).checks at the commit before the certificate reused basis
# products: every note keeps its text and its order.
AXIOM_DIGESTS = {
    ("box", 4): "83038f6f40cf06760a2312227579f71b7e2bda5e3e810cfe7fe677d9b76c8d7d",
    ("box", 6): "bfeb5abeb9d0ef695642d179cfb4a84d60f6a3363aca45b8cc1b48ba1ef2fc2f",
    ("F_2", 6): "a7bec49e85c6ca3035d4a2f5887791fc353ab72ffe289c0ab73e3aa022989a14",
    ("Z", 4): "4eac3a5d5138c85a653cef38308e18416113844ad53fb38822ea5fa9168dab1b",
}


@pytest.mark.parametrize("kind,n", sorted(AXIOM_DIGESTS))
def test_green_axiom_notes_are_pinned(kind, n):
    if kind == "box":
        b = burnside(GroupContext(n))
        m = box(b, b).mackey
    else:
        m = norm_trivial_ring(BaseRing.parse(kind), n)
    assert hashlib.sha256(repr(check_axioms(m).checks).encode()).hexdigest() == AXIOM_DIGESTS[(kind, n)]


# ---------------------------------------------------------------------------
# the box tag budget


def _refuse_to_build(*_args, **_kwargs):
    raise AssertionError("a relation matrix was built for a refused box level")


def test_box_level_over_the_budget_is_refused_before_any_relation(monkeypatch):
    r = burnside(GroupContext(4))
    most = max(len(tags) for tags in box_power(r, 2).tags.values())
    monkeypatch.setattr(green, "BOX_TAG_BUDGET", most)
    box_power(r, 2)  # exactly at the budget: built
    monkeypatch.setattr(green, "BOX_TAG_BUDGET", most - 1)
    monkeypatch.setattr(green, "FgAbGroup", _refuse_to_build)
    with pytest.raises(EnumerationBudgetError, match=f"needs {most} tags, over the box tag budget of {most - 1}"):
        box_power(r, 2)


def test_cli_refuses_an_over_budget_box_with_one_line(monkeypatch, capsys):
    monkeypatch.setattr(green, "BOX_TAG_BUDGET", 50)
    assert main(["hh", "--ring", "F_2", "--n", "4", "--max-degree", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: box level ") and "Traceback" not in err


def test_an_over_budget_nerve_is_refused_before_any_box_power(monkeypatch, capsys):
    def never(*_args, **_kwargs):
        raise AssertionError("a box power was built")

    monkeypatch.setattr(green, "box_list", never)
    assert main(["hh", "--ring", "F_2", "--n", "4", "--max-degree", "7"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: box level 4 of 9 factors needs 20196 tags, over the box tag budget of 8192\n"


@pytest.mark.parametrize("argv", [
    ["hh", "--ring", "Z", "--n", "1", "--max-degree", "1000000000"],
    ["tr", "--p", "2", "--stages", "1", "--degree", "1000000000"],
], ids=["hh", "tr"])
def test_a_nerve_over_the_degree_bound_is_refused_before_its_tags_are_counted(monkeypatch, capsys, argv):
    def never(*_args, **_kwargs):
        raise AssertionError("a box power was counted or built")

    monkeypatch.setattr(green, "box_list", never)
    monkeypatch.setattr(hochschild, "require_box_budget", never)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: a nerve up to degree 1000000001 is over the nerve degree budget of 16\n"


@pytest.mark.parametrize("argv,line", [
    ("witt --ring Z --n 2520", "box level 2520 of 2 factors needs 10500 tags"),
    ("hh --ring Z --n 2520 --max-degree 0", "box level 2520 of 2 factors needs 10500 tags"),
    ("witt --ring Z --n 5040", "box level 2520 of 2 factors needs 10500 tags"),
    ("tr --p 2 --stages 13 --degree 2", "box level 128 of 4 factors needs 8772 tags"),
    ("tr --p 2 --stages 9 --degree 3", "box level 32 of 5 factors needs 12201 tags"),
])
def test_an_over_budget_nerve_of_a_norm_is_refused_before_any_norm_is_built(monkeypatch, capsys, argv, line):
    def never(*_args, **_kwargs):
        raise AssertionError("a norm was built")

    for module in (cli, geomfix, norm, wittgreen):
        monkeypatch.setattr(module, "norm_trivial_ring", never)
    assert main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {line}, over the box tag budget of 8192\n"


def test_a_nerve_at_the_degree_bound_is_built_over_c1():
    nerve = twisted_cyclic_nerve(norm_trivial_ring(BaseRing.parse("Z"), 1), hochschild.NERVE_DEGREE_BUDGET)
    assert nerve.max_degree == hochschild.NERVE_DEGREE_BUDGET
