import pytest
from subgroups import same_levels

from mackeywitt.fgab import free_group
from mackeywitt.geomfix import (
    cyclotomic_check_norm,
    edgewise_comparison_norm,
    ef_relations,
    phi,
    phi_box_comparison,
    tilde_ef,
    tr_tower,
)
from mackeywitt.green import box, box_power
from mackeywitt.mackey import (
    GroupContext,
    MackeyHom,
    burnside,
    check_axioms,
    fixed_point_mackey,
    prime_edges,
    representable,
)
from mackeywitt.norm import norm_trivial_ring
from mackeywitt.wittcore import BaseRing

F2 = BaseRing.integers_mod(2)
F3 = BaseRing.integers_mod(3)


@pytest.mark.parametrize("p", [2, 3])
def test_tilde_ef_burnside_cp(p):
    b = burnside(GroupContext(p))
    te = tilde_ef(b, p)
    assert te.level[p].canonical_form == ((), 1)
    assert te.level[1].is_trivial()


def test_tilde_ef_m1_unchanged():
    b = burnside(GroupContext(4))
    te = tilde_ef(b, 1)
    for d in b.ctx.divisors:
        assert te.level[d].canonical_form == b.level[d].canonical_form
    assert same_levels(te, b)


@pytest.mark.parametrize("p,n_exp", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_tilde_ef_norm_fp(p, n_exp):
    n = p**n_exp
    nm = norm_trivial_ring(BaseRing.integers_mod(p), n)
    te = tilde_ef(nm, p)
    assert te.level[1].is_trivial()
    for j in range(1, n_exp + 1):
        assert te.level[p**j].canonical_form == ((p**j,), 0)


def test_tilde_ef_idempotent():
    for obj, m in [
        (burnside(GroupContext(4)), 2),
        (norm_trivial_ring(F2, 4), 2),
        (representable(GroupContext(6), [2]), 3),
    ]:
        once = tilde_ef(obj, m)
        assert same_levels(once, tilde_ef(once, m))


def test_phi_burnside_unit_preservation():
    for n, m in [(2, 2), (4, 2), (6, 2), (6, 3)]:
        b = burnside(GroupContext(n))
        pb = phi(b, m)
        target = burnside(GroupContext(n // m))
        assert check_axioms(pb).passed
        for d in pb.ctx.divisors:
            assert pb.level[d].canonical_form == target.level[d].canonical_form


def test_phi_m1_identity():
    b = burnside(GroupContext(4))
    pb = phi(b, 1)
    for d in b.ctx.divisors:
        assert pb.level[d].canonical_form == b.level[d].canonical_form


@pytest.mark.parametrize("p,n_exp", [(2, 1), (2, 2), (3, 1)])
def test_phi_norm_is_smaller_norm(p, n_exp):
    n = p**n_exp
    nm = norm_trivial_ring(BaseRing.integers_mod(p), n)
    ph = phi(nm, p)
    small = norm_trivial_ring(BaseRing.integers_mod(p), n // p)
    for d in ph.ctx.divisors:
        assert ph.level[d].canonical_form == small.level[d].canonical_form
    assert check_axioms(ph).passed


def test_phi_strong_monoidal_on_box():
    for n, m in [(2, 2), (4, 2), (6, 2), (6, 3)]:
        ctx = GroupContext(n)
        a = burnside(ctx)
        b = representable(ctx, [n])
        hom = phi_box_comparison(a, b, m)
        assert hom.is_isomorphism()


def test_phi_box_with_fixed_point():
    ctx = GroupContext(2)
    m = fixed_point_mackey(ctx, free_group(2), ((0, 1), (1, 0)))
    hom = phi_box_comparison(burnside(ctx), m, 2)
    assert hom.is_isomorphism()


def test_tilde_ef_box_cross_check():
    # tilde_ef as a transfer quotient agrees with boxing against tilde_ef(A)
    for n, m in [(2, 2), (4, 2), (3, 3)]:
        ctx = GroupContext(n)
        a = burnside(ctx)
        te_a = tilde_ef(a, m)
        target = fixed_point_mackey(ctx, free_group(1), ((1,),))
        for probe in (burnside(ctx), representable(ctx, [1])):
            pres = box(probe, te_a)
            te_probe = tilde_ef(probe, m)
            for d in ctx.divisors:
                assert pres.mackey.level[d].canonical_form == te_probe.level[d].canonical_form


# Φ^{C_m} and ẼF_{C_m} are one levelwise quotient: Φ's level d is ẼF's level m·d
EF_INPUTS = {
    "A(C_6)": lambda: burnside(GroupContext(6)),
    "N(F_2) over C_4": lambda: norm_trivial_ring(F2, 4),
    "N(F_3)^2 over C_6": lambda: box_power(norm_trivial_ring(F3, 6), 2).mackey,
}
EF_CASES = [("A(C_6)", 2), ("A(C_6)", 3), ("N(F_2) over C_4", 2), ("N(F_3)^2 over C_6", 3)]


@pytest.mark.parametrize("name,m", EF_CASES)
def test_phi_presents_the_levels_of_tilde_ef_with_c_m(name, m):
    obj = EF_INPUTS[name]()
    te = tilde_ef(obj, m)
    ph = phi(obj, m)
    assert ph.ctx == GroupContext(obj.ctx.n // m)
    assert ph.name == f"phi_{m}({te.name})"
    for d in ph.ctx.divisors:
        assert ph.level[d].num_generators == te.level[m * d].num_generators
        assert ph.level[d].rels == te.level[m * d].rels
        assert ph.weyl[d].rows == te.weyl[m * d].rows
        assert ph.unit[d] == te.unit[m * d]
    for (d, e) in prime_edges(ph.ctx):
        assert ph.res[(d, e)].rows == te.res[(m * d, m * e)].rows
        assert ph.tr[(d, e)].rows == te.tr[(m * d, m * e)].rows


@pytest.mark.parametrize("name,m", EF_CASES)
def test_tilde_ef_kills_the_levels_without_c_m(name, m):
    obj = EF_INPUTS[name]()
    te = tilde_ef(obj, m)
    for d in obj.ctx.divisors:
        if d % m:
            assert te.level[d].num_generators == obj.level[d].num_generators
            assert te.level[d].is_trivial()
        else:
            assert te.level[d] == obj.level[d].quotient(ef_relations(obj, d, m))
    assert check_axioms(te).passed


@pytest.mark.parametrize("operation", [tilde_ef, phi])
def test_tilde_ef_and_phi_refuse_a_non_divisor(operation):
    with pytest.raises(ValueError, match="4 does not divide 6"):
        operation(burnside(GroupContext(6)), 4)


@pytest.mark.parametrize(
    "ring,n,m",
    [(F2, 4, 2), (F2, 6, 2), (F3, 6, 3), (F2, 2, 1), (F3, 6, 2), (F2, 4, 4)],
)
def test_cyclotomic_norm(ring, n, m):
    rep = cyclotomic_check_norm(ring, n, m, 2)
    assert rep.passed, rep


def test_tr_tower_f2_degree0():
    t = tr_tower(F2, 2, 3, 0)
    assert [s.exponent for s in t.stages] == [0, 1, 2]
    assert [s.group.canonical_form for s in t.stages] == [((2,), 0), ((4,), 0), ((8,), 0)]
    assert all(h.is_surjective() for h in t.maps)
    assert t.limit_description.startswith("Z_p")
    j = t.to_json()
    assert j["limit"]["precision"] == 3


@pytest.mark.parametrize("k", [1, 2])
def test_tr_tower_f2_higher_degrees_vanish(k):
    t = tr_tower(F2, 2, 2, k)
    assert all(s.group.is_trivial() for s in t.stages)
    assert t.limit_description == "0"


def test_tr_tower_f3_degree0():
    t = tr_tower(F3, 3, 2, 0)
    assert [s.group.canonical_form for s in t.stages] == [((3,), 0), ((9,), 0)]
    assert all(h.is_surjective() for h in t.maps)


def test_tr_tower_stage0_is_classical_hh0():
    t = tr_tower(F2, 2, 1, 0)
    assert t.stages[0].group.canonical_form == ((2,), 0)


def test_edgewise_comparison_c4_over_c2():
    rep = edgewise_comparison_norm(F2, 4, 2, 2)
    assert rep.passed, rep


def test_edgewise_comparison_c6_over_c3():
    rep = edgewise_comparison_norm(F2, 6, 3, 1)
    assert rep.passed, rep


def test_edgewise_comparison_sd1_trivial():
    rep = edgewise_comparison_norm(F3, 3, 3, 1)
    assert rep.passed, rep


@pytest.fixture
def naturality_calls(monkeypatch):
    """(source name, target name) of each naturality certificate computed."""
    calls = []
    failures = MackeyHom.naturality_failures

    def counting(self):
        calls.append((self.source.name, self.target.name))
        return failures(self)

    monkeypatch.setattr(MackeyHom, "naturality_failures", counting)
    return calls


def test_cyclotomic_comparison_certifies_naturality_once_per_degree(naturality_calls):
    rep = cyclotomic_check_norm(F3, 6, 3, 2)
    assert rep.passed, rep
    psi_calls = [c for c in naturality_calls if c[0].startswith("phi_")]
    assert len(psi_calls) == 3
    assert [msg for _, msg in rep.checks if "natural" in msg] == [
        f"degree {j}: comparison natural" for j in range(3)
    ]


def test_edgewise_comparison_certifies_naturality_once_per_degree(naturality_calls):
    rep = edgewise_comparison_norm(F2, 4, 2, 2)
    assert rep.passed, rep
    assert len([c for c in naturality_calls if c[1].startswith("res_")]) == 3


def test_tr_tower_keeps_the_naturality_certificate_of_each_map(naturality_calls):
    t = tr_tower(F2, 2, 3, 0)
    assert len([c for c in naturality_calls if c[0].startswith("phi_")]) == len(t.maps) == 2
