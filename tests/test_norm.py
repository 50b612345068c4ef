import random

import pytest

from mackeywitt.fgab import identity_matrix
from mackeywitt.mackey import check_axioms
from mackeywitt.norm import (
    check_norm_restriction_identity,
    external_norm_element,
    norm_trivial_ring,
)
from mackeywitt.wittcore import BaseRing, UnsupportedRingError

Z = BaseRing.integers()
F2 = BaseRing.integers_mod(2)
F3 = BaseRing.integers_mod(3)


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_fp_norm_table(p, k):
    n = p**k
    nm = norm_trivial_ring(BaseRing.integers_mod(p), n)
    for j in range(k + 1):
        assert nm.level[p**j].canonical_form == ((p ** (j + 1),), 0)
    for (d, e) in nm.res:
        assert nm.res[(d, e)].is_surjective()
        assert nm.tr[(d, e)].is_injective()
    for d in nm.ctx.divisors:
        assert nm.weyl[d] == nm.weyl[d].identity(nm.level[d])


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_fp_norm_tr_res_is_p(p, k):
    n = p**k
    nm = norm_trivial_ring(BaseRing.integers_mod(p), n)
    for (d, e) in nm.res:
        comp = nm.res[(d, e)].compose(nm.tr[(d, e)])
        assert comp == comp.identity(nm.level[e]).scale(p)


def test_norm_n1_is_ring_itself():
    nm = norm_trivial_ring(F3, 1)
    assert nm.level[1].canonical_form == ((3,), 0)
    nm = norm_trivial_ring(Z, 1)
    assert nm.level[1].canonical_form == ((), 1)


def test_norm_integers_c2():
    nm = norm_trivial_ring(Z, 2)
    assert nm.level[1].canonical_form == ((), 1)
    assert nm.level[2].canonical_form == ((), 2)
    # res = F_2 sends the basis (V_1[1], V_2[1]) to (1, 2) in W_<1> = Z:
    # F_2[1] = [1], F_2 V_2 = 2
    res = nm.res[(1, 2)]
    assert res.matrix == ((1,), (2,))
    tr = nm.tr[(1, 2)]
    assert tr.matrix == ((0, 1),)


@pytest.mark.parametrize("ring", [Z, F2, F3, BaseRing.integers_mod(4)])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 12])
def test_norm_axioms(ring, n):
    nm = norm_trivial_ring(ring, n)
    rep = check_axioms(nm)
    assert rep.passed, rep


def test_unsupported_ring():
    with pytest.raises(UnsupportedRingError):
        norm_trivial_ring("Q", 2)


def test_external_norm_element():
    nm = norm_trivial_ring(Z, 2)
    u = external_norm_element(nm, 1)
    assert nm.level[2].elements_equal(u, nm.unit[2])
    # restriction to the bottom is r^n
    for r in (2, 3, -1):
        el = external_norm_element(nm, r)
        bottom = nm.res_full(2, 1).apply(el)
        assert bottom == (r**2,)
    # multiplicativity
    for r, s in ((2, 3), (-1, 5)):
        lhs = nm.multiply(2, external_norm_element(nm, r), external_norm_element(nm, s))
        assert nm.level[2].elements_equal(lhs, external_norm_element(nm, r * s))


def test_external_norm_additive_order_f2():
    nm = norm_trivial_ring(F2, 2)
    u = external_norm_element(nm, 1)
    assert nm.level[2].element_order(u) == 4


@pytest.mark.parametrize(
    "ring,n,j",
    [
        (F2, 2, 2),
        (F2, 4, 2),
        (F2, 4, 1),
        (F3, 3, 1),
        (F2, 6, 3),
        (F3, 6, 2),
        (Z, 4, 2),
        (BaseRing.integers_mod(4), 4, 2),
    ],
)
def test_norm_restriction_identity(ring, n, j):
    rep = check_norm_restriction_identity(ring, n, j)
    assert rep.passed, rep


def test_norm_restriction_levels_f2_4_2():
    from mackeywitt.green import box_power

    pres = box_power(norm_trivial_ring(F2, 2), 2)
    assert pres.mackey.level[2].canonical_form == ((4,), 0)
    assert pres.mackey.level[1].canonical_form == ((2,), 0)
