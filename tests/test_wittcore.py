import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witt_enumeration import all_vectors

from mackeywitt.wittcore import (
    _universal_poly,
    BaseRing,
    TorsionRingError,
    TruncationSet,
    UnsupportedRingError,
    divisors,
    frobenius,
    from_ghost,
    ghost,
    ghost_component,
    one,
    teichmuller,
    verschiebung,
    witt,
    witt_add,
    witt_mul,
    witt_neg,
    witt_scalar,
    zero,
)

Z = BaseRing.integers()
F2 = BaseRing.integers_mod(2)
F3 = BaseRing.integers_mod(3)


def W(n):
    return TruncationSet.of(n)


def rand_vector(rng, trunc, ring=Z, bound=5):
    return witt(trunc, ring, [rng.randint(-bound, bound) for _ in trunc.sorted()])


def test_truncation_set():
    assert W(6).sorted() == (1, 2, 3, 6)
    assert W(12).sorted() == (1, 2, 3, 4, 6, 12)
    with pytest.raises(ValueError):
        TruncationSet([2])  # missing 1
    assert W(4).quotient(2).sorted() == (1, 2)
    assert TruncationSet([1, 2, 3, 6]).quotient(6) == W(1)


def test_base_ring_parse():
    assert BaseRing.parse("Z") == Z
    assert BaseRing.parse("Z/4") == BaseRing.integers_mod(4)
    assert BaseRing.parse("F_2") == F2
    with pytest.raises(UnsupportedRingError):
        BaseRing.parse("Q")
    with pytest.raises(UnsupportedRingError):
        BaseRing.integers_mod(1)


def test_ghost_examples():
    # Teichmuller [2] in W_<2>(Z): ghost (2, 4)
    t2 = teichmuller(W(2), Z, 2)
    assert ghost(t2) == {1: 2, 2: 4}
    assert ghost(zero(W(6), Z)) == {1: 0, 2: 0, 3: 0, 6: 0}
    # V_2(1): components (0, 1) -> ghost (0, 2)
    v = witt(W(2), Z, [0, 1])
    assert ghost(v) == {1: 0, 2: 2}


def test_ghost_rejects_torsion():
    with pytest.raises(TorsionRingError):
        ghost_component(one(W(2), F2), 1)


def test_witt_add_one_plus_one():
    a = witt(W(2), Z, [1, 0])
    s = witt_add(a, a)
    assert s.component_tuple() == (2, -1)


def test_unit_laws():
    rng = random.Random(5)
    for n in (1, 2, 4, 6):
        for _ in range(10):
            a = rand_vector(rng, W(n))
            assert witt_add(a, zero(W(n), Z)) == a
            assert witt_mul(a, one(W(n), Z)) == a
            assert witt_add(a, witt_neg(a)) == zero(W(n), Z)


def test_ghost_is_ring_hom():
    rng = random.Random(7)
    for n in (2, 3, 4, 6, 8, 12):
        S = W(n)
        for _ in range(15):
            a = rand_vector(rng, S)
            b = rand_vector(rng, S)
            ga, gb = ghost(a), ghost(b)
            gsum = ghost(witt_add(a, b))
            gprod = ghost(witt_mul(a, b))
            for d in S.sorted():
                assert gsum[d] == ga[d] + gb[d]
                assert gprod[d] == ga[d] * gb[d]


def test_ghost_injective_over_Z():
    rng = random.Random(11)
    S = W(6)
    for _ in range(20):
        a = rand_vector(rng, S)
        assert from_ghost(S, ghost(a)) == a


def test_universal_polynomials_match_ghost_solve():
    # evaluating the mod-m path over a large modulus reproduces the exact path
    rng = random.Random(13)
    big = BaseRing.integers_mod(10**9)
    for n in (2, 4, 6, 12):
        S = W(n)
        for _ in range(8):
            av = [rng.randint(0, 4) for _ in S.sorted()]
            bv = [rng.randint(0, 4) for _ in S.sorted()]
            a, b = witt(S, Z, av), witt(S, Z, bv)
            am, bm = witt(S, big, av), witt(S, big, bv)
            assert witt_add(am, bm).component_tuple() == tuple(
                x % 10**9 for x in witt_add(a, b).component_tuple()
            )
            assert witt_mul(am, bm).component_tuple() == tuple(
                x % 10**9 for x in witt_mul(a, b).component_tuple()
            )


def test_W2_of_F2_is_Z4():
    S = W(2)
    vectors = list(all_vectors(S, F2))
    assert len(vectors) == 4
    u = one(S, F2)
    # additive order of [1] is 4
    acc = zero(S, F2)
    orders = []
    for k in range(1, 5):
        acc = witt_add(acc, u)
        if acc == zero(S, F2):
            orders.append(k)
    assert orders == [4]


def test_group_structure_of_p_typical_points():
    # W_<p^k>(F_p) is cyclic of order p^(k+1), generated by [1]
    for p in (2, 3):
        Fp = BaseRing.integers_mod(p)
        for k in (0, 1, 2, 3):
            S = W(p**k)
            u = one(S, Fp)
            acc = zero(S, Fp)
            order = None
            for i in range(1, p ** (k + 1) + 1):
                acc = witt_add(acc, u)
                if acc == zero(S, Fp):
                    order = i
                    break
            assert order == p ** (k + 1)


def test_frobenius_examples():
    # F_2([3]) = [9] in W_<1>
    t = teichmuller(W(2), Z, 3)
    f = frobenius(2, t)
    assert f.component_tuple() == (9,)
    a = witt(W(4), Z, [1, -2, 3])
    assert frobenius(1, a) == a


def test_frobenius_verschiebung_identities():
    rng = random.Random(17)
    for p in (2, 3):
        S = W(p * p)
        for _ in range(10):
            a = rand_vector(rng, S)
            fv = frobenius(p, verschiebung(p, frobenius(p, a), S))
            # F_p V_p = p; check on x = F_p a in W_{S/p}
            x = frobenius(p, a)
            assert fv == witt_scalar(p, x)


def test_projection_formula():
    rng = random.Random(19)
    S = W(4)
    for r in (2,):
        for _ in range(10):
            x = rand_vector(rng, S)
            y = rand_vector(rng, S.quotient(r))
            lhs = witt_mul(x, verschiebung(r, y, S))
            rhs = verschiebung(r, witt_mul(frobenius(r, x), y), S)
            assert lhs == rhs


def test_teichmuller_multiplicative():
    assert witt_mul(teichmuller(W(6), Z, 2), teichmuller(W(6), Z, 3)) == teichmuller(W(6), Z, 6)
    for d in W(6).sorted():
        assert ghost_component(teichmuller(W(6), Z, 5), d) == 5**d
    rng = random.Random(23)
    for ring in (F3, BaseRing.integers_mod(8)):
        S = W(4)
        for _ in range(10):
            r, s = rng.randrange(ring.modulus), rng.randrange(ring.modulus)
            assert witt_mul(teichmuller(S, ring, r), teichmuller(S, ring, s)) == teichmuller(S, ring, r * s)


def test_verschiebung_formula_and_identity():
    v = verschiebung(2, one(W(1), Z), W(2))
    assert v.component_tuple() == (0, 1)
    a = witt(W(3), Z, [2, 5])
    assert verschiebung(1, a, W(3)) == a


def test_mod_m_ring_axioms():
    rng = random.Random(29)
    ring = BaseRing.integers_mod(4)
    S = W(6)
    vs = [rand_vector(rng, S, ring, 3) for _ in range(6)]
    for a in vs[:3]:
        for b in vs[3:]:
            assert witt_add(a, b) == witt_add(b, a)
            assert witt_mul(a, b) == witt_mul(b, a)
    a, b, c = vs[0], vs[1], vs[2]
    assert witt_add(witt_add(a, b), c) == witt_add(a, witt_add(b, c))
    assert witt_mul(witt_mul(a, b), c) == witt_mul(a, witt_mul(b, c))
    assert witt_mul(a, witt_add(b, c)) == witt_add(witt_mul(a, b), witt_mul(a, c))


def test_divisors_agree_with_trial_division():
    for n in range(-3, 2001):
        assert divisors(n) == tuple(d for d in range(1, n + 1) if n % d == 0)


def test_divisors_of_a_large_number_from_its_prime_factors():
    ds = divisors(10**12)
    assert len(ds) == 13 * 13
    assert ds[:4] == (1, 2, 4, 5) and ds[-1] == 10**12
    assert all(10**12 % d == 0 for d in ds)


# The lift-and-reduce operations over ℤ/m against the symbolic oracle: the
# universal integer polynomial of each operation evaluated at the components.

ORACLE_MODULI = (2, 3, 4, 6, 8, 9, 10**9)


def oracle(op, a, b=None, r=0):
    S = a.truncation.quotient(r) if op == "frob" else a.truncation
    assignment = {("x", e): v for e, v in a.components.items()}
    if b is not None:
        assignment.update({("y", e): v for e, v in b.components.items()})
    return witt(S, a.ring, {d: _universal_poly(op, d, r).evaluate(assignment, a.ring.reduce) for d in S.elements})


def assert_unary_ops_match_oracle(a):
    assert witt_neg(a) == oracle("neg", a)
    for r in (2, 3):
        assert frobenius(r, a) == oracle("frob", a, r=r)


def assert_binary_ops_match_oracle(a, b):
    assert witt_add(a, b) == oracle("add", a, b)
    assert witt_mul(a, b) == oracle("mul", a, b)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ORACLE_MODULI), st.integers(1, 12), st.data())
def test_lifted_operations_match_universal_polynomials(m, n, data):
    ring = BaseRing.integers_mod(m)
    S = W(n)
    comps = st.lists(st.integers(0, m - 1), min_size=len(S.elements), max_size=len(S.elements))
    a = witt(S, ring, data.draw(comps))
    b = witt(S, ring, data.draw(comps))
    assert_unary_ops_match_oracle(a)
    assert_binary_ops_match_oracle(a, b)


def test_lifted_operations_match_universal_polynomials_exhaustively():
    # every vector wherever W_S(ℤ/m) has at most 256; every pair where it has
    # at most 16, and otherwise every vector against four fixed partners
    rng = random.Random(31)
    cases = 0
    for m in ORACLE_MODULI:
        ring = BaseRing.integers_mod(m)
        for n in range(1, 13):
            S = W(n)
            if m ** len(S.elements) > 256:
                continue
            vectors = list(all_vectors(S, ring))
            partners = vectors if len(vectors) <= 16 else rng.sample(vectors, 4)
            for a in vectors:
                assert_unary_ops_match_oracle(a)
                for b in partners:
                    assert_binary_ops_match_oracle(a, b)
            cases += 1
    assert cases == 54


@pytest.mark.parametrize("ring", [Z, BaseRing.integers_mod(4), F3], ids=repr)
def test_witt_scalar_is_iterated_addition(ring):
    rng = random.Random(37)
    for n in (1, 4, 6, 12):
        S = W(n)
        for _ in range(3):
            a = rand_vector(rng, S, ring, 4)
            for k in range(-5, 6):
                acc = zero(S, ring)
                step = a if k >= 0 else witt_neg(a)
                for _ in range(abs(k)):
                    acc = witt_add(acc, step)
                assert witt_scalar(k, a) == acc
