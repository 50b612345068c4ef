"""Span calculus for the Burnside category of a cyclic group C_n.

Subgroups are identified with divisors of n; the orbit G/C_t is the cyclic
set ℤ/(n/t).  A span from G/C_t to G/C_s with transitive middle G/C_c is
normalized so its left leg sends the basepoint to 0; what remains is the
translation class of the right leg,

    basis element  =  (c, y)   with c | gcd(t, s),  y ∈ ℤ/gcd(n/t, n/s).

Composition runs over the pullback orbits, one point each, in closed form.
These spans are the morphisms of the Burnside category, so they drive
representable Mackey functors and the Yoneda-style evaluation of arbitrary
spans on Mackey functor values.
"""

from __future__ import annotations

from collections import Counter
from math import gcd

from .fgab import row_mul
from .wittcore import divisors


def span_basis(n: int, t: int, s: int) -> tuple[tuple[int, int], ...]:
    """Basis spans of 𝒜(G/C_t, G/C_s), ordered (middle ascending, translation)."""
    out = []
    for c in divisors(gcd(t, s)):
        for y in range(gcd(n // t, n // s)):
            out.append((c, y))
    return tuple(out)


def normalize_y(n: int, t: int, s: int, y: int) -> int:
    return y % gcd(n // t, n // s)


def compose_spans(n: int, t: int, s: int, u: int, sp1: tuple[int, int], sp2: tuple[int, int]) -> Counter:
    """Composite of basis spans t → s → u as a sum of basis spans t → u.

    The middle of the composite is the pullback of the two right/left legs
    over G/C_s; each of its orbits contributes one basis span.
    """
    c1, y1 = sp1
    c2, y2 = sp2
    g = gcd(c1, c2)
    out: Counter = Counter()
    for b in _pullback_orbits(n, c1, c2, s, y1):
        out[(g, normalize_y(n, t, u, b + y2))] += 1
    return out


def _pullback_orbits(n: int, c1: int, c2: int, s: int, start: int) -> range:
    """One b per orbit of the pullback of G/C_{c1} → G/C_s ← G/C_{c2}, the one with a = 0.

    The pullback is {(a, b) ∈ ℤ/(n/c1) × ℤ/(n/c2) : b ≡ a + start (mod n/s)}
    under the diagonal shift; at a = 0, b runs over start mod n/s, and two
    such b lie in one orbit iff they agree mod gcd(n/c1, n/c2), which n/s
    divides: so the b below that gcd are one per orbit.
    """
    return range(start % (n // s), gcd(n // c1, n // c2), n // s)


def restriction_span(n: int, e: int, d: int) -> tuple[int, int]:
    """The span G/C_e ← G/C_d → G/C_d in 𝒜(G/C_e, G/C_d), for d | e."""
    if e % d:
        raise ValueError("restriction requires d | e")
    return (d, 0)


def transfer_span(n: int, d: int, e: int) -> tuple[int, int]:
    """The span G/C_d ← G/C_d → G/C_e in 𝒜(G/C_d, G/C_e), for d | e."""
    if e % d:
        raise ValueError("transfer requires d | e")
    return (d, 0)


def weyl_span(n: int, d: int) -> tuple[int, int]:
    """Translation by the distinguished generator on G/C_d."""
    return (d, normalize_y(n, d, d, 1))


def apply_span(mackey, t: int, s: int, span: tuple[int, int], value):
    """Evaluate M(σ) on a sparse row at level t for a basis span σ : G/C_t → G/C_s.

    Every basis span factors as (transfer) ∘ (generator translation)^y ∘
    (restriction), which is how a Mackey functor consumes it.
    """
    c, y = span
    v = row_mul(value, mackey.twisted_res(t, c, y).rows)
    return row_mul(v, mackey.tr_full(c, s).rows)


def solve_crt(a1: int, m1: int, a2: int, m2: int) -> int:
    """One w with w ≡ a1 (mod m1) and w ≡ a2 (mod m2); inputs must be consistent."""
    g = gcd(m1, m2)
    if (a2 - a1) % g:
        raise ValueError("inconsistent congruences")
    # w = a1 + m1 * t with m1 * t ≡ a2 - a1 (mod m2)
    m1g, m2g = m1 // g, m2 // g
    t = ((a2 - a1) // g * pow(m1g, -1, m2g)) % m2g if m2g > 1 else 0
    return a1 + m1 * t


def product_orbits(n: int, t1: tuple[int, ...], t2: tuple[int, ...]):
    """Orbit decomposition of (⊔ G/C_{t1}) × (⊔ G/C_{t2}).

    Returns (stabilizers, index); index maps a triple (i, j, δ) to a
    position in the orbit list, where δ is the translation class of the
    second coordinate relative to the first.
    """
    stabs = []
    index = {}
    for i, a in enumerate(t1):
        for j, b in enumerate(t2):
            for delta in range(gcd(n // a, n // b)):
                index[(i, j, delta)] = len(stabs)
                stabs.append(gcd(a, b))
    return tuple(stabs), index


def span_product(n, t1, t2, e, sp1, sp2):
    """Image of σ1 ⊗ σ2 under A̅_{T1} □ A̅_{T2} ≅ A̅_{T1×T2} at level e.

    sp1 = (i, c1, y1) is a basis span G/C_{t1[i]} → G/C_e, likewise sp2.
    Returns a Counter over ((i, j, δ), c, y) basis spans of the product.
    """
    i, c1, y1 = sp1
    j, c2, y2 = sp2
    a, b_stab = t1[i], t2[j]
    g_mid, gt, stab = gcd(c1, c2), gcd(n // a, n // b_stab), gcd(a, b_stab)
    out: Counter = Counter()
    for b in _pullback_orbits(n, c1, c2, e, y1 - y2):
        delta = b % gt
        w = solve_crt(0, n // a, b - delta, n // b_stab)
        y = normalize_y(n, stab, e, y1 - w)
        out[((i, j, delta), g_mid, y)] += 1
    return out
