import copy
import random
from types import SimpleNamespace

import pytest

from mackeywitt import wittgreen
from mackeywitt.fgab import FgAbGroup, dense_row, nonzeros, sparse_row
from mackeywitt.geomfix import ef_relations
from mackeywitt.mackey import GroupContext, burnside
from mackeywitt.norm import norm_trivial_ring
from mackeywitt.wittcore import BaseRing, UnsupportedRingError, witt_scalar
from mackeywitt.wittgreen import (
    GreenWittVectors,
    compare_with_classical,
    ghost_coordinate,
    teichmuller_green,
    witt_green,
)

Z = BaseRing.integers()
F2 = BaseRing.integers_mod(2)
F3 = BaseRing.integers_mod(3)
Z4 = BaseRing.integers_mod(4)


def test_witt_green_c1_is_ring():
    w = witt_green(Z, 1)
    assert w.top().canonical_form == ((), 1)
    w = witt_green(F3, 1)
    assert w.top().canonical_form == ((3,), 0)


@pytest.mark.parametrize("p,n_exp", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_witt_green_fp_top(p, n_exp):
    w = witt_green(BaseRing.integers_mod(p), p**n_exp)
    assert w.top().canonical_form == ((p ** (n_exp + 1),), 0)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_witt_green_integers_top_free(n):
    w = witt_green(Z, n)
    num_div = len([d for d in range(1, n + 1) if n % d == 0])
    assert w.top().canonical_form == ((), num_div)


def test_witt_green_accepts_green_functor():
    b = burnside(GroupContext(2))
    w = witt_green(b)
    # trivial weyl: W(A) = A
    assert w.top().canonical_form == ((), 2)


def test_witt_green_rejects_relative_case():
    b = burnside(GroupContext(2))
    with pytest.raises(UnsupportedRingError):
        witt_green(b, 4)


@pytest.mark.parametrize("ring", [Z, Z4, F2, F3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_comparison_with_classical(ring, n):
    w = witt_green(ring, n)
    verdict = compare_with_classical(w, ring, n)
    assert verdict.isomorphic, verdict


def test_ghost_of_teichmuller_over_Z():
    for n in (1, 2, 3, 4, 6):
        w = witt_green(Z, n)
        for r in (0, 1, 2, 3):
            t = teichmuller_green(w, r)
            for d in [dd for dd in range(1, n + 1) if n % dd == 0]:
                gv = ghost_coordinate(w, t, d)
                unit_d = dense_row(w.green.unit[d], w.green.level[d].num_generators)
                expected = tuple((r ** (n // d)) * u for u in unit_d)
                assert gv.quotient.same_class(gv.value, nonzeros(expected))


def test_ghost_bottom_is_evaluation():
    w = witt_green(F2, 4)
    gv = ghost_coordinate(w, teichmuller_green(w, 1), 1)
    assert gv.level == 1
    assert gv.quotient.canonical_form == ((2,), 0)


def test_ghost_map_fp_is_quotient():
    # phi_{C_p} on W_{C_p}(F_p): Z/p^2 -> Z/p
    for p in (2, 3):
        w = witt_green(BaseRing.integers_mod(p), p)
        quot, hom = __import__("mackeywitt.wittgreen", fromlist=["ghost_map"]).ghost_map(w, p)
        assert quot.canonical_form == ((p,), 0)
        assert hom.is_surjective()


def test_ghost_map_is_tilde_ef_at_its_level():
    w = witt_green(Z, 6)
    g = w.green
    for d in g.ctx.divisors:
        quot, hom = wittgreen.ghost_map(w, d)
        assert quot == g.level[d].quotient(ef_relations(g, d, d))
        assert hom.rows == g.res_full(6, d).rows


def test_ghost_map_refuses_a_non_divisor():
    with pytest.raises(ValueError, match="3 does not divide 4"):
        wittgreen.ghost_map(witt_green(F2, 4), 3)


def test_teichmuller_multiplicative():
    rng = random.Random(42)
    for ring, n in [(BaseRing.integers_mod(8), 2), (F3, 3)]:
        w = witt_green(ring, n)
        top = w.top()
        for _ in range(100):
            r = rng.randrange(ring.modulus)
            s = rng.randrange(ring.modulus)
            lhs = w.green.multiply(n, teichmuller_green(w, r), teichmuller_green(w, s))
            assert top.same_class(lhs, teichmuller_green(w, r * s))


def test_teichmuller_bottom_restriction_is_power():
    for ring, n in [(Z, 4), (F3, 3), (Z4, 2)]:
        w = witt_green(ring, n)
        for r in range(4):
            t = teichmuller_green(w, r)
            bottom = w.green.res_full(n, 1).apply(t)
            unit = dense_row(w.green.unit[1], w.green.level[1].num_generators)
            expected = tuple((r**n) * u for u in unit)
            assert w.green.level[1].same_class(bottom, nonzeros(expected))


def test_teichmuller_natural_in_ring_quotients():
    # Z -> Z/4: Teichmüller commutes with coefficient reduction on ghost gens
    n = 4
    wz = witt_green(Z, n)
    wm = witt_green(Z4, n)
    for r in (0, 1, 2, 3, 5):
        tz = teichmuller_green(wz, r)
        tm = teichmuller_green(wm, r % 4)
        # reduce the integral witt vector mod 4 and look it up in the finite table
        lvz = wz.norm.witt_levels[n]
        lvm = wm.norm.witt_levels[n]
        w_int = lvz.element(tz)
        from mackeywitt.wittcore import WittVector

        reduced = WittVector(w_int.truncation, Z4, {d: v % 4 for d, v in w_int.components.items()})
        assert wm.top().same_class(lvm.coords(reduced), tm)


# ---------------------------------------------------------------------------
# the comparison certificate refuses inputs with one ingredient broken


def _broken(w, relations=None, gens=None, mult=None, unit=None):
    """w with the top relations, the Witt images, the products or the unit replaced."""
    n = w.ctx.n
    top = w.top()
    if relations is not None:
        top = FgAbGroup(top.num_generators, relations)
    green = SimpleNamespace(
        ctx=w.ctx,
        level={n: top},
        mult={n: w.green.mult[n] if mult is None else mult},
        unit={n: w.green.unit[n] if unit is None else unit},
    )
    norm = w.norm
    if gens is not None:
        lv = copy.copy(norm.witt_levels[n])
        lv.gens = gens
        norm = copy.copy(norm)
        norm.witt_levels = {**norm.witt_levels, n: lv}
    return GreenWittVectors(green, w.source, norm)


def _bump(row, i=0):
    return tuple(c + (k == i) for k, c in enumerate(row))


def _bump_sparse(row, i=0):
    """The sparse row (a product cell or a unit) with 1 added at column i."""
    acc = dict(row)
    acc[i] = acc.get(i, 0) + 1
    return sparse_row(acc)


# (ring, n, c) with c·W_<n>(R) a proper subgroup of W_<n>(R)
CERTIFIED = [(Z4, 4, 2), (F3, 3, 3), (Z, 4, 2)]


@pytest.mark.parametrize("ring,n,c", CERTIFIED)
def test_certificate_accepts_unbroken_stand_in(ring, n, c):
    w = witt_green(ring, n)
    assert repr(compare_with_classical(_broken(w), ring, n)) == repr(compare_with_classical(w, ring, n))


@pytest.mark.parametrize("ring,n", [(Z4, 4), (F3, 3)])
def test_certificate_refuses_removed_relation(ring, n):
    w = witt_green(ring, n)
    verdict = compare_with_classical(_broken(w, relations=w.top().relations[1:]), ring, n)
    assert not verdict.isomorphic
    assert verdict.detail == "orders differ"


def test_certificate_refuses_added_relation_over_Z():
    w = witt_green(Z, 4)
    relations = w.top().relations + ((2, 0, 0),)
    verdict = compare_with_classical(_broken(w, relations=relations), Z, 4)
    assert not verdict.isomorphic
    assert verdict.detail.startswith("additive form")


@pytest.mark.parametrize("ring,n", [(Z4, 4), (F3, 3)])
def test_certificate_refuses_relation_not_mapping_to_zero(ring, n):
    w = witt_green(ring, n)
    relations = list(w.top().relations)
    relations[1] = _bump(relations[1])
    broken = _broken(w, relations=relations)
    assert broken.top().order() == w.top().order()
    verdict = compare_with_classical(broken, ring, n)
    assert not verdict.isomorphic
    assert verdict.detail == "relation 1 does not map to 0"


@pytest.mark.parametrize("ring,n,c", CERTIFIED)
def test_certificate_refuses_images_that_do_not_span(ring, n, c):
    w = witt_green(ring, n)
    gens = [witt_scalar(c, g) for g in w.norm.witt_levels[n].gens]
    verdict = compare_with_classical(_broken(w, gens=gens), ring, n)
    assert not verdict.isomorphic
    assert verdict.detail == "generator images are not a basis"


@pytest.mark.parametrize("ring,n", [(Z4, 4), (F3, 3)])
def test_images_that_fail_the_leads_are_refused_though_they_span(ring, n):
    # −g has leading component m − 1, not 1: the images span W, but only the
    # V_s([1]), unitriangular by construction, are accepted as generators
    w = witt_green(ring, n)
    gens = [witt_scalar(-1, g) for g in w.norm.witt_levels[n].gens]
    verdict = compare_with_classical(_broken(w, gens=gens), ring, n)
    assert not verdict.isomorphic
    assert verdict.detail == "generator images are not a basis"


@pytest.mark.parametrize("ring,n,c", CERTIFIED)
def test_certificate_refuses_perturbed_product(ring, n, c):
    w = witt_green(ring, n)
    mult = [list(rows) for rows in w.green.mult[n]]
    mult[0][0] = _bump_sparse(mult[0][0])
    verdict = compare_with_classical(_broken(w, mult=mult), ring, n)
    assert not verdict.isomorphic
    assert verdict.detail == "product of generators 0,0"


@pytest.mark.parametrize("ring,n,c", CERTIFIED)
def test_certificate_refuses_perturbed_unit(ring, n, c):
    w = witt_green(ring, n)
    verdict = compare_with_classical(_broken(w, unit=_bump_sparse(w.green.unit[n])), ring, n)
    assert not verdict.isomorphic
    assert verdict.detail == "unit mismatch"
