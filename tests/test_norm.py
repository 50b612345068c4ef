from collections import Counter

import pytest
from witt_enumeration import all_vectors, enumerated_level

from mackeywitt import norm
from mackeywitt.cli import main
from mackeywitt.fgab import dense_row, nonzeros
from mackeywitt.mackey import check_axioms
from mackeywitt.norm import (
    WittLevel,
    check_norm_restriction_identity,
    external_norm_element,
    norm_trivial_ring,
)
from mackeywitt.wittcore import BaseRing, UnsupportedRingError, divisors, witt_scalar

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
    assert nm.level[2].same_class(u, nm.unit[2])
    # restriction to the bottom is r^n
    for r in (2, 3, -1):
        el = external_norm_element(nm, r)
        bottom = nm.res_full(2, 1).apply(el)
        assert dense_row(bottom, 1) == (r**2,)
    # multiplicativity
    for r, s in ((2, 3), (-1, 5)):
        lhs = nm.multiply(2, external_norm_element(nm, r), external_norm_element(nm, s))
        assert nm.level[2].same_class(lhs, external_norm_element(nm, r * s))


def test_external_norm_additive_order_f2():
    nm = norm_trivial_ring(F2, 2)
    u = external_norm_element(nm, 1)
    # N(1) has additive order exactly 4 in N_e^{C_2}(F_2), i.e. W_2(F_2) ≅ Z/4
    top = nm.level[2]
    assert top.same_class(tuple((j, 4 * x) for j, x in u), ())
    assert not top.same_class(tuple((j, 2 * x) for j, x in u), ())


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


# every W_<d>(Z/m) with m^#<d> <= 4096 that the enumeration oracle can walk
ORACLE_LEVELS = [
    (m, d)
    for m in (2, 3, 4, 5, 6, 8, 9)
    for d in range(1, 17)
    if m ** len(divisors(d)) <= 4096
]


@pytest.mark.parametrize("m,d", ORACLE_LEVELS)
def test_verschiebung_presentation_matches_enumeration(m, d):
    ring = BaseRing.integers_mod(m)
    lv = WittLevel(ring, d)
    oracle = enumerated_level(ring, d)
    assert lv.gens == oracle.gens
    assert lv.group.relations == oracle.relations
    for w in all_vectors(lv.truncation, ring):
        c = lv.coords(w)
        assert c == nonzeros(oracle.table[w.component_tuple()])
        assert lv.element(c) == w


# relation rows of W_<6>(Z/4), read as dense rows, replaced by rows that break
# one part of the certificate
PERTURBED_ROWS = {
    "bumped": lambda r: {1: (r[1][0] + 1,) + r[1][1:]},  # does not map to 0
    "doubled": lambda r: {2: tuple(2 * x for x in r[2])},  # determinant 2·4^4
    "upper": lambda r: {1: tuple(x + y for x, y in zip(r[1], r[2]))},  # not lower triangular
}


@pytest.mark.parametrize("name", sorted(PERTURBED_ROWS))
def test_perturbed_relation_row_trips_the_build_certificate(name):
    lv = WittLevel(BaseRing.integers_mod(4), 6)
    lv._certify()
    dense = [dense_row(r, len(lv.gens)) for r in lv._rows]
    changed = PERTURBED_ROWS[name](dense)
    lv._rows = [nonzeros(changed.get(k, r)) for k, r in enumerate(dense)]
    with pytest.raises(AssertionError, match="not presented exactly"):
        lv._certify()


def test_wrong_relation_row_fails_the_build_and_the_cli_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(norm, "witt_scalar", lambda n, g: witt_scalar(n + 1, g))
    with pytest.raises(AssertionError):
        WittLevel(BaseRing.integers_mod(4), 2)
    assert main(["norm", "--ring", "Z/4", "--n", "6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal invariant violation: ") and captured.err.count("\n") == 1


def test_levels_and_edges_are_built_once_per_ring_and_shared():
    Z, F2, Z2, Z4 = (BaseRing.parse(r) for r in ("Z", "F_2", "Z/2", "Z/4"))
    for ring in (Z, F2, Z4):
        six, three = norm_trivial_ring(ring, 6), norm_trivial_ring(ring, 3)
        for d in (1, 3):
            assert six.witt_levels[d] is three.witt_levels[d]
            assert six.level[d] is three.level[d]
            assert six.unit[d] is three.unit[d] and six.mult[d] == three.mult[d]
        assert six.res[(1, 3)] is three.res[(1, 3)] and six.tr[(1, 3)] is three.tr[(1, 3)]
    # F_2 and Z/2 are one ring; Z and Z/4 are not
    assert norm_trivial_ring(F2, 2).witt_levels[2] is norm_trivial_ring(Z2, 4).witt_levels[2]
    assert norm_trivial_ring(F2, 2).res[(1, 2)] is norm_trivial_ring(Z2, 2).res[(1, 2)]
    assert norm_trivial_ring(Z, 2).witt_levels[2] is not norm_trivial_ring(Z4, 2).witt_levels[2]
    assert norm_trivial_ring(Z, 2).tr[(1, 2)] is not norm_trivial_ring(Z4, 2).tr[(1, 2)]


def test_each_level_and_edge_is_built_and_certified_once(monkeypatch):
    certified = Counter()
    certify = WittLevel._certify

    def counting_certify(self):
        certified[(self.ring.modulus, self.d)] += 1
        certify(self)

    monkeypatch.setattr(WittLevel, "_certify", counting_certify)
    ring = BaseRing.integers_mod(4)
    for n in (6, 3, 2, 6):
        norm_trivial_ring(ring, n)
    assert certified == {(4, d): 1 for d in (1, 2, 3, 6)}
    # the edges of C_6, each built (and its res and tr certified) once
    assert norm.witt_edge.cache_info().misses == 4 and norm.witt_edge.cache_info().currsize == 4
