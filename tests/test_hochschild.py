from itertools import combinations_with_replacement
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from subgroups import same_levels

from mackeywitt import hochschild
from mackeywitt.cycmonoid import PointedGMonoid, cellular_chains
from mackeywitt.fgab import AbHom, CompositeNotZeroError, Subquotient, free_group
from mackeywitt.hochschild import (
    MackeyComplex,
    MackeyHomology,
    SimplicialIdentityError,
    SimplicialMackey,
    TruncationTooShortError,
    cyclic_bar,
    degeneracy_map,
    edgewise_subdivision,
    face_map,
    hh,
    hh0_green,
    hh0_oracle,
    moore_complex,
    twisted_cyclic_nerve,
)
from mackeywitt.mackey import (
    GroupContext,
    MackeyFunctor,
    MackeyHom,
    RingData,
    burnside,
    check_axioms,
    fixed_point_mackey,
)
from mackeywitt.norm import norm_trivial_ring
from mackeywitt.wittcore import BaseRing

F2 = BaseRing.integers_mod(2)
F3 = BaseRing.integers_mod(3)


def trivial_Z(n):
    return fixed_point_mackey(
        GroupContext(n), free_group(1), ((1,),), RingData(mult=(((1,),),), unit=(1,))
    )


def product_ring_swap():
    return fixed_point_mackey(
        GroupContext(2),
        free_group(2),
        ((0, 1), (1, 0)),
        RingData(mult=(((1, 0), (0, 0)), ((0, 0), (0, 1))), unit=(1, 1)),
    )


def dual_numbers_c1():
    return fixed_point_mackey(
        GroupContext(1),
        free_group(2),
        ((1, 0), (0, 1)),
        RingData(mult=(((1, 0), (0, 1)), ((0, 1), (0, 0))), unit=(1, 0)),
    )


def test_nerve_identities_c1_ring():
    x = twisted_cyclic_nerve(trivial_Z(1), 3)
    x.check_identities()
    b = moore_complex(x).boundaries
    for j in range(2, 4):
        assert all(h == AbHom.zero(h.source, h.target) for h in b[j].compose(b[j - 1]).maps.values())


def test_classical_hh_of_Z():
    r = trivial_Z(1)
    nerve = twisted_cyclic_nerve(r, 4)
    assert hh(r, 0, nerve=nerve).level[1].canonical_form == ((), 1)
    for k in (1, 2, 3):
        assert hh(r, k, nerve=nerve).level[1].is_trivial()


def test_classical_hh_of_dual_numbers():
    r = dual_numbers_c1()
    nerve = twisted_cyclic_nerve(r, 2)
    # HH_0 = Z[x]/x^2 (rank 2), HH_1 = Kähler differentials = Z + Z/2
    assert hh(r, 0, nerve=nerve).level[1].canonical_form == ((), 2)
    assert hh(r, 1, nerve=nerve).level[1].canonical_form == ((2,), 1)


def test_truncation_too_short():
    r = trivial_Z(1)
    nerve = twisted_cyclic_nerve(r, 1)
    with pytest.raises(TruncationTooShortError):
        hh(r, 1, nerve=nerve)


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 1)])
def test_norm_nerve_faces_agree(p, k):
    # trivial Weyl + commutativity: every degree-1 face pair coincides
    nm = norm_trivial_ring(BaseRing.integers_mod(p), p**k)
    x = twisted_cyclic_nerve(nm, 2)
    assert x.face(1, 0) == x.face(1, 1)
    cx = moore_complex(x)
    for d in x.degrees[0].ctx.divisors:
        h = cx.boundaries[1].maps[d]
        assert h == AbHom.zero(h.source, h.target)


def test_twist_visible_for_swap_ring():
    r = product_ring_swap()
    x = twisted_cyclic_nerve(r, 2)
    assert x.face(1, 0).maps[1] != x.face(1, 1).maps[1]


@pytest.mark.parametrize(
    "build",
    [
        lambda: burnside(GroupContext(2)),
        lambda: burnside(GroupContext(4)),
        lambda: burnside(GroupContext(6)),
        lambda: trivial_Z(4),
        lambda: product_ring_swap(),
        lambda: norm_trivial_ring(F2, 4),
        lambda: norm_trivial_ring(F3, 3),
        lambda: norm_trivial_ring(BaseRing.integers(), 6),
    ],
)
def test_hh0_equals_oracle(build):
    r = build()
    q = hh0_green(r)
    assert same_levels(q, hh0_oracle(r))
    # the generic homology path gives the same canonical forms
    h0 = hh(r, 0)
    for d in q.ctx.divisors:
        assert h0.level[d].canonical_form == q.level[d].canonical_form


def test_hh0_oracle_trivial_weyl_is_r():
    nm = norm_trivial_ring(F2, 4)
    oracle = hh0_oracle(nm)
    for d in nm.ctx.divisors:
        assert oracle.level[d].canonical_form == nm.level[d].canonical_form


def test_hh0_swap_ring_collapses():
    r = product_ring_swap()
    q = hh0_green(r)
    assert q.level[1].is_trivial()
    assert q.level[2].is_trivial()


def test_hh_of_fp_norm_vanishes_in_positive_degrees():
    nm = norm_trivial_ring(F2, 2)
    nerve = twisted_cyclic_nerve(nm, 3)
    h0 = hh(nm, 0, nerve=nerve)
    for d in (1, 2):
        assert h0.level[d].canonical_form == nm.level[d].canonical_form
    for k in (1, 2):
        hk = hh(nm, k, nerve=nerve)
        for d in (1, 2):
            assert hk.level[d].is_trivial(), (k, d)


def test_homology_mackey_passes_axioms():
    nm = norm_trivial_ring(F2, 2)
    nerve = twisted_cyclic_nerve(nm, 2)
    cx = moore_complex(nerve)
    h = MackeyHomology(cx, 0)
    assert check_axioms(h.mackey).passed


def test_edgewise_sd1_is_identity():
    r = trivial_Z(2)
    x = twisted_cyclic_nerve(r, 2)
    sd = edgewise_subdivision(x, 1)
    assert sd.max_degree == x.max_degree
    for j in range(1, sd.max_degree + 1):
        for i in range(j + 1):
            assert sd.face(j, i) == x.face(j, i)
    for j in range(sd.max_degree):
        for i in range(j + 1):
            assert sd.degeneracy(j, i) == x.degeneracy(j, i)


def test_edgewise_sd2_identities():
    r = trivial_Z(2)
    x = twisted_cyclic_nerve(r, 5)
    sd = edgewise_subdivision(x, 2)
    assert sd.max_degree == 2
    for j in range(sd.max_degree + 1):
        assert sd.degrees[j] is x.degrees[2 * (j + 1) - 1]
    # identities are re-verified inside the constructor (check=True)


def test_edgewise_truncation_guard():
    r = trivial_Z(2)
    x = twisted_cyclic_nerve(r, 1)
    with pytest.raises(TruncationTooShortError):
        edgewise_subdivision(x, 3)


def test_each_homology_level_goes_through_subquotient(monkeypatch):
    calls = []
    init = Subquotient.__init__

    def counting_init(self, *args):
        calls.append(args[0])
        init(self, *args)

    monkeypatch.setattr(Subquotient, "__init__", counting_init)
    cx = moore_complex(twisted_cyclic_nerve(norm_trivial_ring(F2, 4), 2))
    for k in (0, 1):
        calls.clear()
        h = MackeyHomology(cx, k)
        assert calls == [cx.degrees[k].level[d] for d in h.ctx.divisors]


def test_homology_of_a_non_complex_raises_composite_not_zero():
    m = fixed_point_mackey(GroupContext(2), free_group(2), ((0, 1), (1, 0)))
    ident = MackeyHom(m, m, {d: AbHom.identity(m.level[d]) for d in m.ctx.divisors}, check=False)
    cx = MackeyComplex([m, m, m], [None, ident, ident])
    assert not all(h == AbHom.zero(h.source, h.target) for h in cx.boundaries[2].compose(cx.boundaries[1]).maps.values())
    with pytest.raises(CompositeNotZeroError):
        MackeyHomology(cx, 1)


def test_reindexed_on_the_same_levels_keeps_every_structure_map():
    x = twisted_cyclic_nerve(trivial_Z(2), 3)
    y = x.reindexed(x.degrees, lambda d: d)
    assert y.degrees == x.degrees and y.max_degree == x.max_degree
    pairs = [(y.face(j, i), x.face(j, i)) for j in range(1, 4) for i in range(j + 1)]
    pairs += [(y.degeneracy(j, i), x.degeneracy(j, i)) for j in range(3) for i in range(j + 1)]
    for new, old in pairs:
        assert (new.source, new.target) == (old.source, old.target)
        assert all(new.maps[d].matrix == old.maps[d].matrix for d in (1, 2))


def test_nerve_certifies_as_many_maps_as_before(monkeypatch):
    """The F_2 norm over C_4 to degree 2: 21 box structure maps (2 res, 2 tr and
    3 weyl for each of 3 box powers) plus 3 levels for each of the 5 faces and 3
    degeneracies, and those 8 maps' naturality."""
    counts = {"ab": 0, "mackey": 0}
    ab_init, mackey_init = AbHom.__init__, MackeyHom.__init__

    def ab(self, source, target, matrix, check=True):
        counts["ab"] += bool(check)
        ab_init(self, source, target, matrix, check)

    def mackey(self, source, target, maps, check=True):
        counts["mackey"] += bool(check)
        mackey_init(self, source, target, maps, check)

    r = norm_trivial_ring(F2, 4)
    monkeypatch.setattr(AbHom, "__init__", ab)
    monkeypatch.setattr(MackeyHom, "__init__", mackey)
    twisted_cyclic_nerve(r, 2)
    assert counts == {"ab": 45, "mackey": 8}


# ℤ ⊕ ℤ̃[S¹] ⊕ ℤ̃[S²] over C_1 to degree 2: the constant ℤ on c, the reduced chains on
# S¹ = Δ[1]/∂Δ[1] (τ and its degeneracies s_0τ, s_1τ) and on S² = Δ[2]/∂Δ[2] (σ).
# Generators: degree 0 (c), degree 1 (c, τ), degree 2 (c, s_0τ, s_1τ, σ); row b of a
# matrix is the image of generator b.
SPHERE_FACES = {
    (1, 0): ((1,), (0,)),
    (1, 1): ((1,), (0,)),
    (2, 0): ((1, 0), (0, 1), (0, 0), (0, 0)),
    (2, 1): ((1, 0), (0, 1), (0, 1), (0, 0)),
    (2, 2): ((1, 0), (0, 0), (0, 1), (0, 0)),
}
SPHERE_DEGENERACIES = {
    (0, 0): ((1, 0),),
    (1, 0): ((1, 0, 0, 0), (0, 1, 0, 0)),
    (1, 1): ((1, 0, 0, 0), (0, 0, 1, 0)),
}


def spheres(k, faces=None, degeneracies=None):
    """The simplicial abelian group above, truncated at degree k, with the given maps replaced."""
    ctx = GroupContext(1)
    degrees = []
    for rank in (1, 2, 4)[: k + 1]:
        g = free_group(rank)
        degrees.append(MackeyFunctor(ctx, {1: g}, {}, {}, {1: AbHom.identity(g)}))
    mats = {(face_map(j, i), j): m for (j, i), m in {**SPHERE_FACES, **(faces or {})}.items()}
    mats |= {(degeneracy_map(j, i), j): m for (j, i), m in {**SPHERE_DEGENERACIES, **(degeneracies or {})}.items()}

    def op(f, j):
        source, target = degrees[j], degrees[len(f) - 1]
        return MackeyHom(source, target, {1: AbHom(source.level[1], target.level[1], mats[(f, j)])})

    return SimplicialMackey(ctx, degrees, op)


def test_the_sphere_chains_satisfy_every_identity():
    for k in (0, 1, 2):
        spheres(k).check_identities()


# Each forgery breaks the identities of one family only, so the message names that family.
@pytest.mark.parametrize("k,forged,family", [
    # d_0 out of degree 1 sends c to 0: d_0 s_0 = id fails at degree 0
    (1, {"faces": {(1, 0): ((0,), (0,))}}, r"^d_\d s_\d != id"),
    # d_0 out of degree 2 sends σ to c, which every face keeps: d_0 d_0 = d_0 d_1 fails
    (2, {"faces": {(2, 0): ((1, 0), (0, 1), (0, 0), (1, 0))}}, r"^d_\d d_\d"),
    # s_0 out of degree 1 sends c to c + σ, which every face kills: s_0 s_0 = s_1 s_0 fails
    (2, {"degeneracies": {(1, 0): ((1, 0, 0, 1), (0, 1, 0, 0))}}, r"^s_\d s_\d"),
    # d_2 out of degree 2 sends s_0τ to τ, which every face kills: d_2 s_0 = s_0 d_1 fails
    (2, {"faces": {(2, 2): ((1, 0), (0, 1), (0, 1), (0, 0))}}, r"^d_\d s_\d (at|!= s_)"),
], ids=["degeneracy-then-face-is-id", "face-face", "degeneracy-degeneracy", "mixed"])
def test_a_forged_simplicial_object_is_refused(k, forged, family):
    with pytest.raises(SimplicialIdentityError, match=family):
        spheres(k, **forged).check_identities()


def test_a_forged_nerve_face_is_refused():
    """The degree-3 nerve of N(ℤ) over C_2 with d_0 at degree 1 replaced by zero."""
    x = twisted_cyclic_nerve(trivial_Z(2), 3)
    zero = MackeyHom(x.degrees[1], x.degrees[0], {d: AbHom.zero(x.degrees[1].level[d], x.degrees[0].level[d])
                                                  for d in (1, 2)})
    forged = SimplicialMackey(x.ctx, x.degrees, lambda f, j: zero if (f, j) == (face_map(1, 0), 1) else x.map(f, j))
    with pytest.raises(SimplicialIdentityError):
        forged.check_identities()


def test_identities_compose_and_compare_the_textbook_pairs(monkeypatch):
    """To degree 4: every d_i d_j and s_i s_j pair and every d_i s_j against its other
    side or the identity, 69 comparisons of 118 composites (the count depends on the
    degree only).  Over C_1 there is one level, so one ``composites_agree`` call per
    comparison, and each composite is one distinct chain of two homs."""
    x = twisted_cyclic_nerve(trivial_Z(1), 4)
    composites, comparisons = set(), []
    agree = hochschild.composites_agree

    def counted_agree(left, right):
        for chain in (left, right):
            if len(chain) == 2:
                composites.add(tuple(map(id, chain)))
        comparisons.append(left)
        return agree(left, right)

    monkeypatch.setattr(hochschild, "composites_agree", counted_agree)
    x.check_identities()
    assert (len(composites), len(comparisons)) == (118, 69)


def test_edgewise_structure_maps_repeat_the_maps_of_delta_on_each_block():
    """sd_2 X_1 = X_3: d_0 and d_1 are δ_0 = (1,) and δ_1 = (0,) on both blocks of two,
    s_0 is σ_0 = (0, 0) on both."""
    x = twisted_cyclic_nerve(trivial_Z(2), 3)
    sd = edgewise_subdivision(x, 2)
    assert sd.max_degree == 1 and sd.degrees == [x.degrees[1], x.degrees[3]]
    assert sd.face(1, 0) == x.face(3, 2).compose(x.face(2, 0))
    assert sd.face(1, 1) == x.face(3, 3).compose(x.face(2, 1))
    assert sd.degeneracy(0, 0) == x.degeneracy(1, 1).compose(x.degeneracy(2, 0))


# ---------------------------------------------------------------------------
# cyclic_bar on the free monoid of strings, twisted by shifting each letter


def shift(word: str) -> str:
    """The generator of C_3 on words in a, b, c: a monoid map of strings."""
    return word.translate(str.maketrans("abc", "bca"))


def bar(f, x):
    return cyclic_bar(f, x, add, shift, "")


@st.composite
def maps_of_delta(draw, target: int, max_source: int = 5):
    """A monotone map f : [a] → [target] with a ≤ max_source, as the tuple of its values."""
    a = draw(st.integers(0, max_source))
    return tuple(sorted(draw(st.lists(st.integers(0, target), min_size=a + 1, max_size=a + 1))))


def words(k: int):
    return st.lists(st.text("abc", max_size=3), min_size=k, max_size=k)


def textbook_face(j: int, i: int, x: list) -> list:
    """d_i out of degree j: multiply slots i and i+1, or for i = j twist the last slot to the front."""
    return x[:i] + [x[i] + x[i + 1]] + x[i + 2:] if i < j else [shift(x[j]) + x[0]] + x[1:j]


def peel(f: tuple, b: int, x, face, degeneracy):
    """X(f)(x) for f : [a] → [b], peeling f into faces and degeneracies: face(j, i, y) is
    d_i out of degree j applied to y, and degeneracy(j, i, y) is s_i out of degree j."""
    a = len(f) - 1
    missing = [v for v in range(b + 1) if v not in f]
    if missing:
        v = max(missing)
        return peel(tuple(t if t < v else t - 1 for t in f), b - 1, face(b, v, x), face, degeneracy)
    if a == b:
        return x
    p = next(i for i in range(a) if f[i] == f[i + 1])
    return degeneracy(a - 1, p, peel(f[:p] + f[p + 1:], b, x, face, degeneracy))


def peeled(f: tuple, b: int, x: list) -> list:
    """``peel`` on words: s_p out of degree a - 1 inserts the unit after slot p."""
    return peel(f, b, x, textbook_face, lambda j, p, y: y[: p + 1] + [""] + y[p + 1:])


@settings(deadline=None)
@given(st.integers(0, 4).flatmap(lambda b: st.tuples(maps_of_delta(b), words(b + 1))))
def test_cyclic_bar_is_x_of_f_peeled_into_faces_and_degeneracies(case):
    f, x = case
    assert bar(f, x) == peeled(f, len(x) - 1, x)


@settings(deadline=None)
@given(st.data())
def test_cyclic_bar_is_a_functor_on_delta(data):
    b = data.draw(st.integers(0, 4))
    f = data.draw(maps_of_delta(b))
    g = data.draw(maps_of_delta(len(f) - 1))
    x = data.draw(words(b + 1))
    assert bar(tuple(f[t] for t in g), x) == bar(g, bar(f, x))


def test_cyclic_bar_of_the_maps_of_delta_are_the_textbook_operators():
    x = ["a", "b", "c"]
    # d_2 puts the twisted last slot, shift("c") = "a", in front of the first
    assert [bar(face_map(2, i), x) for i in range(3)] == [["ab", "c"], ["a", "bc"], ["aa", "b"]]
    assert [bar(degeneracy_map(2, i), x) for i in range(3)] == [
        ["a", "", "b", "c"], ["a", "b", "", "c"], ["a", "b", "c", ""]
    ]
    # the block map t ↦ 2t + 1 of edgewise θ multiplies each block of two slots
    assert bar((1, 3), ["a", "b", "c", "a"]) == ["ab", "ca"]


# ---------------------------------------------------------------------------
# X(f) of the rule against its faces and degeneracies, peeled as the test oracle


def peeled_hom(x: SimplicialMackey, f: tuple, b: int) -> MackeyHom:
    """X(f) : X_b → X_a as the composite of the faces and degeneracies f peels into."""
    m = x.degrees[b]
    return peel(
        f,
        b,
        MackeyHom(m, m, {d: AbHom.identity(m.level[d]) for d in m.ctx.divisors}, check=False),
        lambda j, i, h: h.compose(x.face(j, i)),
        lambda j, i, h: h.compose(x.degeneracy(j, i)),
    )


def dual_numbers_cells(n: int, k: int) -> SimplicialMackey:
    """The cellular chains of the cyclic nerve of {0, 1, x} with x² = 0 over C_n, to degree k."""
    rows = [["0", "0", "0"], ["0", "1", "x"], ["0", "x", "0"]]
    return cellular_chains(PointedGMonoid(GroupContext(n), ["0", "1", "x"], "0", "1", rows, ["0", "1", "x"]), k)[0]


@pytest.mark.parametrize("build", [
    lambda: twisted_cyclic_nerve(norm_trivial_ring(BaseRing.integers(), 2), 3),
    lambda: dual_numbers_cells(2, 3),
], ids=["nerve-of-norm-Z-over-C2", "dual-numbers-cells-over-C2"])
def test_x_of_every_map_of_delta_is_its_peeled_composite(build):
    """Every monotone f : [a] → [b] with a, b ≤ 3: the one X(f) of the rule is the
    composite of faces and degeneracies that peeling f gives."""
    x = build()
    for b in range(4):
        for a in range(4):
            for f in combinations_with_replacement(range(b + 1), a + 1):
                assert x.map(f, b) == peeled_hom(x, f, b), f
