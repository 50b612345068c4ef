"""Classical big Witt vectors over ℤ and ℤ/m.

This is the independent oracle for every Witt-flavored claim downstream.
Components are indexed by a divisor-closed truncation set S; the ghost map

    gh_d(a) = Σ_{e | d, e ∈ S} e · a_e^{d/e}

characterizes the ring structure over ℤ, where every operation is solved
recursively through exactly divisible ghost equations.  Over ℤ/m, where the
ghost map is not injective, an operation reads the stored components (in
[0, m)) as an integer Witt vector, runs the same ghost solve over ℤ and
reduces each component mod m.  This is exact: reduction ℤ → ℤ/m induces the
componentwise ring map W_S(ℤ) → W_S(ℤ/m), which commutes with F_r, so the
universal integer polynomial of an operation, evaluated at the lifts and
reduced, is the ℤ-operation on the lifts, reduced.  The universal
polynomials themselves (`_universal_poly`) are kept only as the symbolic
oracle the tests compare against.
"""

from __future__ import annotations

from functools import lru_cache

Monomial = tuple[tuple[object, int], ...]  # sorted ((variable, exponent), ...)


class TorsionRingError(ValueError):
    """Ghost coordinates requested over a ring with torsion."""


class UnsupportedRingError(ValueError):
    """Base ring outside {ℤ, ℤ/m}."""


class InexactWittDivision(ArithmeticError):
    """Integrality of a Witt solve failed; indicates an implementation bug."""


# The most elements a norm level W_S(ℤ/m) may have, m^{#S}.  The largest
# case in the tests, the acceptance suite, the README and the benchmark is
# W_⟨12⟩(ℤ/4) with 4^6 = 4096; `norm --ring F_2 --n 360` would need 2^24.
# Moduli above it are refused when a ring is parsed.  It also bounds k³ for
# a pointed monoid of k elements, whose associativity check reads every
# triple, so a monoid has at most 40 elements.
ENUMERATION_BUDGET = 1 << 16
# The most tags one level of a box product may have (Σ_{e|d} Π_f gens_f(e)),
# checked before the level is built.  Every command in the tests, the README
# and the benchmark stays at or below 2,316 (`hh --ring F_2 --n 4
# --max-degree 5`); the degree-2 dual-numbers monoid over C_4 would need 22,048.
BOX_TAG_BUDGET = 1 << 13


class EnumerationBudgetError(ValueError):
    """An enumeration or box level over its budget, refused before it starts."""


def require_enumerable(modulus: int, length: int) -> None:
    """Refuse W_S(ℤ/modulus), #S = length, with more elements than the budget."""
    if modulus**length > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"{modulus}^{length} Witt vectors exceed the enumeration budget of {ENUMERATION_BUDGET}"
        )


def divisors(n: int) -> tuple[int, ...]:
    """The positive divisors of n in increasing order (none for n < 1)."""
    if n < 1:
        return ()
    out = [1]
    for p in prime_factors(n):
        e = 0
        while n % p ** (e + 1) == 0:
            e += 1
        out = [d * p**i for d in out for i in range(e + 1)]
    return tuple(sorted(out))


def prime_factors(n: int) -> tuple[int, ...]:
    out = []
    p = 2
    while p * p <= n:
        while n % p == 0:
            if p not in out:
                out.append(p)
            n //= p
        p += 1
    if n > 1 and n not in out:
        out.append(n)
    return tuple(out)


def is_prime(n: int) -> bool:
    return n > 1 and prime_factors(n) == (n,)


class TruncationSet:
    """A finite, divisor-closed set of positive integers."""

    __slots__ = ("elements",)

    def __init__(self, elements):
        els = frozenset(int(x) for x in elements)
        for d in els:
            if d < 1:
                raise ValueError("truncation sets contain positive integers")
            for e in range(1, d + 1):
                if d % e == 0 and e not in els:
                    raise ValueError(f"not divisor-closed: {e} | {d} missing")
        self.elements = els

    @staticmethod
    def of(n: int) -> "TruncationSet":
        """⟨n⟩: the divisors of n."""
        return TruncationSet(divisors(n))

    def quotient(self, r: int) -> "TruncationSet":
        """S/r = {d : rd ∈ S}."""
        return TruncationSet(d // r for d in self.elements if d % r == 0)

    def sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.elements))

    def __contains__(self, d):
        return d in self.elements

    def __eq__(self, other):
        return isinstance(other, TruncationSet) and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return f"TruncationSet({sorted(self.elements)})"


class BaseRing:
    """ℤ or ℤ/m, the coefficient rings supported by this artifact."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: int = 0):
        modulus = int(modulus)
        if modulus == 1 or modulus < 0:
            raise UnsupportedRingError("modulus must be 0 (for ℤ) or ≥ 2")
        self.modulus = modulus

    @staticmethod
    def integers() -> "BaseRing":
        return BaseRing(0)

    @staticmethod
    def integers_mod(m: int) -> "BaseRing":
        if m < 2:
            raise UnsupportedRingError("m ≥ 2 required")
        return BaseRing(m)

    @property
    def is_torsion_free(self) -> bool:
        return self.modulus == 0

    def reduce(self, x: int) -> int:
        return int(x) if self.modulus == 0 else int(x) % self.modulus

    def elements(self):
        if self.modulus == 0:
            raise ValueError("ℤ is infinite")
        return range(self.modulus)

    def __eq__(self, other):
        return isinstance(other, BaseRing) and self.modulus == other.modulus

    def __hash__(self):
        return hash(("BaseRing", self.modulus))

    def __repr__(self):
        return "Z" if self.modulus == 0 else f"Z/{self.modulus}"

    @staticmethod
    def parse(text: str) -> "BaseRing":
        """``Z``, ``Z/m`` with m ≥ 2, or the prime field ``F_p`` (also ``Fp``).

        A modulus over ENUMERATION_BUDGET raises EnumerationBudgetError.
        """
        t = text.strip().replace(" ", "")
        if t in ("Z", "ℤ"):
            return BaseRing.integers()
        for prefix in ("Z/", "F_", "F"):
            if t.startswith(prefix):
                digits = t[len(prefix):]
                if not (digits.isascii() and digits.isdigit()):
                    raise UnsupportedRingError(
                        f"cannot parse ring {text!r}: {digits!r} is not a positive integer"
                    )
                m = int(digits)
                if m > ENUMERATION_BUDGET:
                    raise EnumerationBudgetError(
                        f"ring {text!r}: modulus {m} exceeds the enumeration budget "
                        f"of {ENUMERATION_BUDGET}"
                    )
                if prefix != "Z/" and not is_prime(m):
                    raise UnsupportedRingError(
                        f"cannot parse ring {text!r}: F_q needs q prime, got {m}"
                    )
                return BaseRing.integers_mod(m)
        raise UnsupportedRingError(f"cannot parse ring {text!r}")


class WittVector:
    """Witt vector with components indexed exactly by the truncation set."""

    __slots__ = ("truncation", "ring", "components")

    def __init__(self, truncation: TruncationSet, ring: BaseRing, components: dict):
        if set(components) != truncation.elements:
            raise ValueError("component index set must equal the truncation set")
        self.truncation = truncation
        self.ring = ring
        self.components = {d: ring.reduce(v) for d, v in components.items()}

    def component_tuple(self) -> tuple[int, ...]:
        return tuple(self.components[d] for d in self.truncation.sorted())

    def __eq__(self, other):
        return (
            isinstance(other, WittVector)
            and self.truncation == other.truncation
            and self.ring == other.ring
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.truncation, self.ring, self.component_tuple()))

    def __repr__(self):
        return f"W{sorted(self.truncation.elements)}({self.components})"


def witt(truncation, ring, components) -> WittVector:
    if isinstance(components, dict):
        return WittVector(truncation, ring, components)
    comps = dict(zip(truncation.sorted(), components))
    return WittVector(truncation, ring, comps)


def zero(truncation: TruncationSet, ring: BaseRing) -> WittVector:
    return WittVector(truncation, ring, {d: 0 for d in truncation.elements})


def teichmuller(truncation: TruncationSet, ring: BaseRing, x: int) -> WittVector:
    """[x] = (x, 0, ..., 0); multiplicative in x."""
    return WittVector(
        truncation, ring, {d: (x if d == 1 else 0) for d in truncation.elements}
    )


def one(truncation: TruncationSet, ring: BaseRing) -> WittVector:
    return teichmuller(truncation, ring, 1)


# ---------------------------------------------------------------------------
# ghost coordinates over ℤ


def _lift_ghost(w: WittVector, d: int) -> int:
    """gh_d of w's components read as integers (w's own ghost over ℤ)."""
    return sum(e * a ** (d // e) for e, a in w.components.items() if d % e == 0)


def ghost_component(w: WittVector, d: int) -> int:
    if not w.ring.is_torsion_free:
        raise TorsionRingError("ghost coordinates require a torsion-free base ring")
    if d not in w.truncation:
        raise ValueError(f"{d} not in truncation set")
    return _lift_ghost(w, d)


def ghost(w: WittVector) -> dict[int, int]:
    return {d: ghost_component(w, d) for d in w.truncation.sorted()}


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise InexactWittDivision(f"{num} not divisible by {den}")
    return q


def _solve_ghost(truncation: TruncationSet, gh: dict[int, int]) -> dict[int, int]:
    comps: dict[int, int] = {}
    for d in truncation.sorted():
        partial = sum(e * a ** (d // e) for e, a in comps.items() if d % e == 0)
        comps[d] = _exact_div(gh[d] - partial, d)
    return comps


def from_ghost(truncation: TruncationSet, gh: dict[int, int]) -> WittVector:
    """The unique integral Witt vector with the given ghost coordinates.

    Raises InexactWittDivision when no integral solution exists, which for
    ghosts produced by ring operations on integral vectors is a bug.
    """
    return WittVector(truncation, BaseRing.integers(), _solve_ghost(truncation, gh))


# ---------------------------------------------------------------------------
# sparse multivariate integer polynomials (the universal operations, a test oracle)


class Poly:
    """Sparse multivariate polynomial over ℤ: {monomial: coefficient}."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, int] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @staticmethod
    def const(c: int) -> "Poly":
        return Poly({(): c} if c else {})

    @staticmethod
    def var(name) -> "Poly":
        return Poly({((name, 1),): 1})

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) - c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            d1 = dict(m1)
            for m2, c2 in other.terms.items():
                d = dict(d1)
                for v, e in m2:
                    d[v] = d.get(v, 0) + e
                key = tuple(sorted(d.items()))
                out[key] = out.get(key, 0) + c1 * c2
        return Poly(out)

    def scale(self, c: int) -> "Poly":
        return Poly({m: c * v for m, v in self.terms.items()})

    def pow(self, k: int) -> "Poly":
        out = Poly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def exact_div(self, c: int) -> "Poly":
        out = {}
        for m, v in self.terms.items():
            q, r = divmod(v, c)
            if r:
                raise InexactWittDivision(f"coefficient {v} not divisible by {c}")
            out[m] = q
        return Poly(out)

    def evaluate(self, assignment: dict, reduce=lambda x: x) -> int:
        total = 0
        for m, c in self.terms.items():
            t = c
            for v, e in m:
                t *= assignment[v] ** e
            total = reduce(total + t)
        return reduce(total)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __repr__(self):
        return f"Poly({self.terms})"


def _sym_ghost(prefix: str, d: int) -> Poly:
    """gh_d of the generic vector with components prefix_e, e | d."""
    acc = Poly()
    for e in divisors(d):
        acc = acc + Poly.var((prefix, e)).pow(d // e).scale(e)
    return acc


@lru_cache(maxsize=None)
def _universal_poly(op: str, d: int, r: int = 0) -> Poly:
    """Component-d polynomial for a Witt operation, solved via symbolic ghosts.

    The symbolic test oracle: no ring operation evaluates it.  The tests
    check that each operation over ℤ/m, computed on integer lifts, equals
    this polynomial evaluated at the components and reduced mod m.

    op ∈ {"add", "mul", "neg", "frob"}; "frob" takes the extra parameter r.
    Memoized per (op, d, r); the recursion only ever consults smaller d.
    """
    if op == "add":
        target = _sym_ghost("x", d) + _sym_ghost("y", d)
    elif op == "mul":
        target = _sym_ghost("x", d) * _sym_ghost("y", d)
    elif op == "neg":
        target = -_sym_ghost("x", d)
    elif op == "frob":
        target = _sym_ghost("x", r * d)
    else:
        raise ValueError(op)
    for e in divisors(d):
        if e != d:
            target = target - _universal_poly(op, e, r).pow(d // e).scale(e)
    return target.exact_div(d)


def _require_compatible(a: WittVector, b: WittVector):
    if a.truncation != b.truncation or a.ring != b.ring:
        raise ValueError("mismatched truncation sets or base rings")


def witt_add(a: WittVector, b: WittVector) -> WittVector:
    _require_compatible(a, b)
    return witt_combination((1, 1), (a, b))


def witt_mul(a: WittVector, b: WittVector) -> WittVector:
    _require_compatible(a, b)
    gh = {d: _lift_ghost(a, d) * _lift_ghost(b, d) for d in a.truncation.elements}
    return WittVector(a.truncation, a.ring, _solve_ghost(a.truncation, gh))


def witt_neg(a: WittVector) -> WittVector:
    return witt_combination((-1,), (a,))


def witt_sub(a: WittVector, b: WittVector) -> WittVector:
    return witt_add(a, witt_neg(b))


def witt_scalar(n: int, a: WittVector) -> WittVector:
    """n-fold Witt sum of a (n may be negative): one scaling of the ghosts."""
    return witt_combination((n,), (a,))


def witt_combination(coeffs, vectors) -> WittVector:
    """The Witt sum Σ c_i·v_i of vectors over one truncation set and ring: one ghost solve."""
    S, ring = vectors[0].truncation, vectors[0].ring
    gh = dict.fromkeys(S.elements, 0)
    for c, v in zip(coeffs, vectors):
        for d in gh if c else ():
            gh[d] += c * _lift_ghost(v, d)
    return WittVector(S, ring, _solve_ghost(S, gh))


def v_coordinates(w: WittVector) -> list[int]:
    """The a_s, s ∈ S ascending, with w = Σ_s a_s·V_s([1]) (for the lift of w's
    components over ℤ/m).  W_S(ℤ) is free on the V_s([1]) (Dress–Siebeneicher),
    and gh_t(V_s[1]) is s for s | t, else 0: the ghost equations are triangular."""
    divs = w.truncation.sorted()
    a: list[int] = []
    for t in divs:
        lower = sum(s * x for s, x in zip(divs, a) if t % s == 0)
        a.append(_exact_div(_lift_ghost(w, t) - lower, t))
    return a


def frobenius(r: int, w: WittVector) -> WittVector:
    """F_r : W_S → W_{S/r}, characterized by gh_d(F_r w) = gh_{rd}(w)."""
    S_out = w.truncation.quotient(r)
    gh = {d: _lift_ghost(w, r * d) for d in S_out.elements}
    return WittVector(S_out, w.ring, _solve_ghost(S_out, gh))


def verschiebung(r: int, w: WittVector, out_truncation: TruncationSet) -> WittVector:
    """V_r : W_{S/r} → W_S, (V_r w)_d = w_{d/r} if r | d else 0."""
    if w.truncation != out_truncation.quotient(r):
        raise ValueError("verschiebung source must be S/r")
    comps = {
        d: (w.components[d // r] if d % r == 0 else 0) for d in out_truncation.elements
    }
    return WittVector(out_truncation, w.ring, comps)

