"""Weierstrass curves over Q: invariants and quadratic twists.

Just the sanity layer the trinomial work needs: exact b/c invariants
and j, and quadratic-twist identification via the c4/c6 ratios (valid
away from j = 0 and j = 1728, which is all the curves of interest here;
the relevant j value is -25/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .factor import power_class
from .qpoly import format_rational, format_terms, is_rational_square


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6, nonsingular."""

    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a6: Fraction

    def __init__(self, a1=0, a2=0, a3=0, a4=0, a6=0):
        for name, v in zip(("a1", "a2", "a3", "a4", "a6"), (a1, a2, a3, a4, a6)):
            object.__setattr__(self, name, Fraction(v))
        if self.discriminant == 0:
            raise ValueError("singular curve")

    @staticmethod
    def short(a4, a6) -> "WeierstrassCurve":
        return WeierstrassCurve(0, 0, 0, a4, a6)

    @property
    def b2(self) -> Fraction:
        return self.a1 ** 2 + 4 * self.a2

    @property
    def b4(self) -> Fraction:
        return 2 * self.a4 + self.a1 * self.a3

    @property
    def b6(self) -> Fraction:
        return self.a3 ** 2 + 4 * self.a6

    @property
    def b8(self) -> Fraction:
        return (self.a1 ** 2 * self.a6 + 4 * self.a2 * self.a6
                - self.a1 * self.a3 * self.a4 + self.a2 * self.a3 ** 2 - self.a4 ** 2)

    @property
    def c4(self) -> Fraction:
        return self.b2 ** 2 - 24 * self.b4

    @property
    def c6(self) -> Fraction:
        return -self.b2 ** 3 + 36 * self.b2 * self.b4 - 216 * self.b6

    @property
    def discriminant(self) -> Fraction:
        b2, b4, b6, b8 = self.b2, self.b4, self.b6, self.b8
        return -b2 ** 2 * b8 - 8 * b4 ** 3 - 27 * b6 ** 2 + 9 * b2 * b4 * b6

    def to_json(self):
        return {"a1": format_rational(self.a1), "a2": format_rational(self.a2),
                "a3": format_rational(self.a3), "a4": format_rational(self.a4),
                "a6": format_rational(self.a6)}

    def __str__(self):
        lhs = format_terms(((1, "y^2"), (self.a1, "x*y"), (self.a3, "y")))
        rhs = format_terms(((1, "x^3"), (self.a2, "x^2"), (self.a4, "x"), (self.a6, "")))
        return f"{lhs} = {rhs}"


def j_invariant(curve: WeierstrassCurve) -> Fraction:
    """j = c4^3 / discriminant (the curve is nonsingular by construction)."""
    return curve.c4 ** 3 / curve.discriminant


def quadratic_twist(curve: WeierstrassCurve, d: Fraction) -> WeierstrassCurve:
    """The twist by the square class of d, as a short model."""
    d = Fraction(d)
    if d == 0:
        raise ValueError("twist by zero")
    return WeierstrassCurve.short(-27 * d ** 2 * curve.c4, -54 * d ** 3 * curve.c6)


def squarefree_class(x: Fraction) -> int:
    """The squarefree integer representing x modulo nonzero rational squares."""
    return power_class(x, 2)


def is_isomorphic_over_Q(e1: WeierstrassCurve, e2: WeierstrassCurve) -> bool:
    """Isomorphism test via u^4 c4, u^6 c6 scaling (j away from 0, 1728)."""
    if j_invariant(e1) != j_invariant(e2):
        return False
    c4a, c6a, c4b, c6b = e1.c4, e1.c6, e2.c4, e2.c6
    if c4a == 0 or c6a == 0:
        raise ValueError("j in {0, 1728} not supported")
    u2 = (c6b / c6a) / (c4b / c4a)
    if u2 <= 0 or not is_rational_square(u2):
        return False
    return c4b == u2 ** 2 * c4a and c6b == u2 ** 3 * c6a


def quadratic_twist_factor(e1: WeierstrassCurve, e2: WeierstrassCurve) -> Optional[int]:
    """d (a squarefree integer) with e2 isomorphic to the d-twist of e1.

    None when the curves are not quadratic twists (different j).  Curves
    with j in {0, 1728} have extra twists and are not supported.
    """
    j1, j2 = j_invariant(e1), j_invariant(e2)
    if j1 in (Fraction(0), Fraction(1728)) or j2 in (Fraction(0), Fraction(1728)):
        raise ValueError("j in {0, 1728}: quartic/sextic twists not supported")
    if j1 != j2:
        return None
    d_raw = (e2.c6 / e1.c6) * (e1.c4 / e2.c4)
    d = squarefree_class(d_raw)
    if not is_isomorphic_over_Q(quadratic_twist(e1, d), e2):
        raise ArithmeticError(f"twist invariant broken: the {d}-twist of {e1} is not {e2}")
    return d


# the two anchor curves of the construction: the conductor-50 curve with
# j = -25/2, and its -10 quadratic twist
E0 = WeierstrassCurve.short(-675, -79650)
E_TWIST_MINUS10 = WeierstrassCurve(0, -1, 0, -833, 109537)
