"""Quintic trinomials x^5 + ax + b: equivalence, discriminants, families.

Two trinomials are equivalent when one is a rescaling lam^-5 f(lam x) of
the other; for a, b both nonzero the invariant is t = a^5/b^4 and the
normalized representative is x^5 + tx + t.  Pure trinomials (a = 0) are
classified by the fifth-power class of the constant term.

The generators at the bottom produce the classical one-parameter
families: the Weber frobenius-of-order-20 family, its dihedral
sub-family u = s - 1/s (the letter s avoids clashing with the
equivalence parameter t), the Spearman-Williams radical pairs, and the
two-trinomial family whose root identity is verified exactly in the
quotient algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .qpoly import UniPoly, is_rational_square, format_rational
from .factor import cycle_types, factor_over_Q, fifth_power_class, primes_below
from .numberfield import theta_coordinates, vanishes


@dataclass(frozen=True)
class Trinomial:
    """Monic x^5 + a*x + b."""

    a: Fraction
    b: Fraction

    def __init__(self, a, b):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    @staticmethod
    def from_coefficients(lead, a, b) -> "Trinomial":
        """Accept lead*x^5 + a*x + b and normalize to the monic form."""
        lead = Fraction(lead)
        if lead == 0:
            raise ValueError("leading coefficient must be nonzero")
        return Trinomial(Fraction(a) / lead, Fraction(b) / lead)

    def as_unipoly(self) -> UniPoly:
        return UniPoly([self.b, self.a, 0, 0, 0, 1])

    def scaled(self, lam: Fraction) -> "Trinomial":
        """The equivalent trinomial lam^-5 f(lam x)."""
        lam = Fraction(lam)
        if lam == 0:
            raise ValueError("scaling factor must be nonzero")
        return Trinomial(self.a / lam ** 4, self.b / lam ** 5)

    def to_json(self) -> Dict[str, str]:
        return {"a": format_rational(self.a), "b": format_rational(self.b)}

    def __str__(self):
        return str(self.as_unipoly())


@dataclass(frozen=True)
class ScaledTrinomial:
    """lead*x^5 + a*x + b, kept unreduced (families produce these)."""

    lead: Fraction
    a: Fraction
    b: Fraction

    def __init__(self, lead, a, b):
        if Fraction(lead) == 0:
            raise ValueError("leading coefficient must be nonzero")
        object.__setattr__(self, "lead", Fraction(lead))
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def monic(self) -> Trinomial:
        return Trinomial(self.a / self.lead, self.b / self.lead)

    def as_unipoly(self) -> UniPoly:
        return UniPoly([self.b, self.a, 0, 0, 0, self.lead])

    def to_json(self) -> Dict[str, str]:
        return {"lead": format_rational(self.lead),
                "a": format_rational(self.a), "b": format_rational(self.b)}

    def __str__(self):
        return str(self.as_unipoly())


GENERIC = "generic"
PURE = "pure"
LINEAR_ONLY = "linear-only"
DEGENERATE = "degenerate"


@dataclass(frozen=True)
class EquivClass:
    """Equivalence invariant: kind plus the classifying value.

    generic carries t = a^5/b^4; pure carries the fifth-power class of
    b; linear-only (b = 0, always reducible) and degenerate (a = b = 0)
    carry no value.  Trinomials are equivalent iff their EquivClass
    values are equal.
    """

    kind: str
    value: Optional[Fraction] = None

    def to_json(self) -> Dict[str, Optional[str]]:
        return {"kind": self.kind,
                "value": None if self.value is None else format_rational(self.value)}

    def __str__(self):
        return self.kind if self.value is None else f"{self.kind}({self.value})"


def equiv_class(f: Trinomial) -> EquivClass:
    if f.a == 0 and f.b == 0:
        return EquivClass(DEGENERATE)
    if f.b == 0:
        return EquivClass(LINEAR_ONLY)
    if f.a == 0:
        return EquivClass(PURE, fifth_power_class(f.b))
    return EquivClass(GENERIC, f.a ** 5 / f.b ** 4)


class NotTForm(ValueError):
    """Raised when a trinomial has no x^5 + tx + t representative."""

    def __init__(self, cls: EquivClass):
        super().__init__(f"no t-form representative for class {cls}")
        self.equiv_class = cls


def normalize_t_form(f: Trinomial) -> Tuple[Trinomial, Fraction]:
    """The x^5 + tx + t representative and the scaling witness lam = b/a.

    Requires a, b nonzero; otherwise NotTForm carries the class instead.
    """
    if f.a == 0 or f.b == 0:
        raise NotTForm(equiv_class(f))
    t = f.a ** 5 / f.b ** 4
    lam = f.b / f.a
    normalized = f.scaled(lam)
    if normalized != Trinomial(t, t):
        raise ArithmeticError(f"scaling {f} by {lam} gave {normalized}, not the t-form of t = {t}")
    return normalized, lam


def trinomial_disc(f: Trinomial) -> Fraction:
    """Closed form 256 a^5 + 3125 b^4 of the quintic trinomial discriminant."""
    return 256 * f.a ** 5 + 3125 * f.b ** 4


# ---------------------------------------------------------------------------
# Galois type heuristic via factorization cycle types
# ---------------------------------------------------------------------------

# transitive quintic groups, by order; True = contained in A5 (square disc)
_GROUPS: List[Tuple[str, bool, frozenset]] = [
    ("C5", True, frozenset({(1, 1, 1, 1, 1), (5,)})),
    ("D10", True, frozenset({(1, 1, 1, 1, 1), (1, 2, 2), (5,)})),
    ("F20", False, frozenset({(1, 1, 1, 1, 1), (1, 2, 2), (1, 4), (5,)})),
    ("A5", True, frozenset({(1, 1, 1, 1, 1), (1, 1, 3), (1, 2, 2), (5,)})),
    ("S5", False, frozenset({(1, 1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 3), (1, 2, 2),
                             (1, 4), (2, 3), (5,)})),
]


@dataclass(frozen=True)
class GaloisEvidence:
    disc_is_square: bool
    cycle_types: Tuple[Tuple[int, ...], ...]
    primes_used: int

    def to_json(self):
        return {"disc_is_square": self.disc_is_square,
                "cycle_types": [list(t) for t in self.cycle_types],
                "primes_used": self.primes_used}


def galois_type_heuristic(f: Trinomial, prime_bound: int = 500) -> Tuple[str, GaloisEvidence]:
    """Smallest transitive quintic group compatible with the observed evidence.

    Evidence: whether the discriminant is a rational square, and the
    factorization cycle types modulo all good primes below the bound, at
    which the reduction is squarefree, read by `cycle_types` off the monic
    integral rescaling, which has the same cycle types there.  Reducible f
    raises; f is factored over Q only when the types leave a factor possible.
    This is an upper-confidence identification, not a proof.
    """
    poly = f.as_unipoly()
    disc = trinomial_disc(f)
    square = is_rational_square(disc)
    d, monic = poly.integral_rescaling()
    good = [p for p in primes_below(prime_bound)
            if d % p and disc.numerator % p and disc.denominator % p]
    observed = set(cycle_types(monic, good))
    # a factor of degree k over Q makes k a sum of parts of every cycle type
    # (Cohen, GTM 138, ch. 3): a 5-cycle rules out k = 1, 2, and so do
    # (1, 4) and (2, 3) together
    proven = (5,) in observed or {(1, 4), (2, 3)} <= observed
    if not proven and not factor_over_Q(poly).is_irreducible:
        raise ValueError(f"{f} is reducible over Q")
    evidence = GaloisEvidence(square, tuple(sorted(observed)), len(good))
    for name, in_a5, allowed in _GROUPS:
        if in_a5 == square and observed <= allowed:
            return name, evidence
    # every cycle type is an S5 type, so only a square-disc oddity lands here
    return ("A5", evidence) if square else ("S5", evidence)


# ---------------------------------------------------------------------------
# parametrized families
# ---------------------------------------------------------------------------

def weber_family(u: Fraction) -> Trinomial:
    """(4u^2+16) x^5 + (5u^2-5) x + (4u^2+10u+6), normalized monic.

    When irreducible, the generated trinomial has Galois group inside
    the order-20 Frobenius group.
    """
    u = Fraction(u)
    lead = 4 * u ** 2 + 16
    return Trinomial.from_coefficients(lead, 5 * u ** 2 - 5, 4 * u ** 2 + 10 * u + 6)


def dihedral_family(s: Fraction) -> Trinomial:
    """weber_family at u = s - 1/s: the dihedral-of-order-10 sub-family."""
    s = Fraction(s)
    if s == 0:
        raise ValueError("parameter must be nonzero")
    return weber_family(s - 1 / s)


def sw2_family(r: Fraction) -> Tuple[Fraction, Trinomial]:
    """Radical pair: the radicand m = r^3 (r+1)(r-1)^4 and a trinomial
    sharing the field of the fifth root of m.

    Excluded parameters r in {0, 1, -1} collapse the radicand.
    """
    r = Fraction(r)
    if r in (0, 1, -1):
        raise ValueError("parameter must avoid 0, 1, -1")
    m = r ** 3 * (r + 1) * (r - 1) ** 4
    denom = (r ** 2 + 1) ** 4
    a = -80 * r * (r ** 2 - 1) * (r ** 2 + r - 1) * (r ** 2 - 4 * r - 1) / denom
    b = -32 * r * (r ** 2 - 1) * (r ** 4 + 22 * r ** 3 - 6 * r ** 2 - 22 * r + 1) / denom
    return m, Trinomial(a, b)


@dataclass(frozen=True)
class TrinomialPair:
    """Output of the two-trinomial family: h(beta) = 0 in Q[x]/(f)."""

    f: ScaledTrinomial
    beta_coords: Tuple[Fraction, ...]
    h: ScaledTrinomial
    f_irreducible: bool
    verified: bool


def _vanishes_at(h: ScaledTrinomial, beta, f: ScaledTrinomial) -> bool:
    """Whether h(beta) = 0 in Q[x]/(f): with theta = e alpha a root of G, the monic integral
    rescaling of f, and H that of h, H(d beta) = 0 for d beta = k(theta) / S."""
    e, G = f.as_unipoly().integral_rescaling()
    d, H = h.as_unipoly().integral_rescaling()
    S, k = theta_coordinates([d * c for c in beta], e)
    return vanishes(H, G, k, S)


def two_trinomial_family(a: Fraction) -> TrinomialPair:
    """A field with two inequivalent trinomials, from one parameter.

    f = (4a+32)x^5 + (-5a^2+5a)x - a^3 + a^2 has the root alpha; the
    explicit combination beta of alpha-powers is a root of
    h = (a^3+7a^2-8a)x^5 + (10a^2+115a-125)x + 2a^2-76a-250.
    The identity h(beta) = 0 is checked exactly in Q[x]/(f), in integers,
    which is valid verbatim in the etale algebra even when f is reducible
    (the reducible case is flagged, not rejected).
    """
    a = Fraction(a)
    if a in (0, 1, -8):
        raise ValueError("parameter must avoid 0, 1, -8")
    f = ScaledTrinomial(4 * a + 32, -5 * a ** 2 + 5 * a, -a ** 3 + a ** 2)
    pref = 1 / (a ** 2 + 4 * a - 8)
    beta = (
        pref * Fraction(-4 * a + 16),
        pref * (2 * a + 4),
        pref * (-2 * a - 16),
        pref * (8 * a + 64) / a,
        pref * (4 * a ** 2 + 16 * a - 128) / (a ** 2 - a),
    )
    h = ScaledTrinomial(a ** 3 + 7 * a ** 2 - 8 * a,
                        10 * a ** 2 + 115 * a - 125,
                        2 * a ** 2 - 76 * a - 250)
    irreducible = factor_over_Q(f.as_unipoly()).is_irreducible
    return TrinomialPair(f, beta, h, irreducible, _vanishes_at(h, beta, f))
