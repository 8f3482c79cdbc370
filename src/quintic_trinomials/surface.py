"""The degree-6 surface indexing fields with extra trinomials.

Eliminating the parameter t from the curve's quadric and cubic
(`curve.T_FORM_QUADRIC` and `curve.T_FORM_CUBIC`, over (a, b, c, d, t))
yields a projective surface X in (a : b : c : d).  The quadric is linear
in t, so a point of X determines (when the t coefficient is nonzero) the
t value where the quadric vanishes, and the point then lies on the
corresponding curve, so the field Q[x]/(x^5+tx+t) carries a second
trinomial class.  Points of X are `CurvePoint`s with four coordinates.
The surface is very singular; it contains five lines (three of them
carrying the degenerate t values 0, infinity and -3125/256, one inside
the singular locus) and at least five explicit rational curves.

The 30-term sextic form is transcribed once below and guarded by a
transcription test against `curve.T_FORM_*`: the resultant in t of the
two curve forms, divided by the common factor 5a, must reproduce it up
to a rational unit.  The forms are split by their powers of t into
integer tables (`curve.split_by_variable`) and the resultant is the
search engine's own (`curve.table_resultant`); the t^0 and t^1 tables of
the quadric also give t at a point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Tuple

from .multipoly import MultiPoly
from .curve import (CURVE_VARS, CurvePoint, T_EXCLUDED, T_FORM_CUBIC, T_FORM_QUADRIC,
                    cleared_table, curve_from_t, form_value, split_by_variable, table_resultant)

SURFACE_VARS = CURVE_VARS

# the sextic form cutting out X, one monomial per row
SURFACE_FORM = MultiPoly.from_spec(SURFACE_VARS, [
    (20, {"a": 3, "c": 1, "d": 2}),
    (15, {"a": 3, "d": 3}),
    (128, {"a": 2, "b": 2, "d": 2}),
    (128, {"a": 2, "b": 1, "c": 2, "d": 1}),
    (240, {"a": 2, "b": 1, "c": 1, "d": 2}),
    (-100, {"a": 2, "b": 1, "d": 3}),
    (32, {"a": 2, "c": 4}),
    (320, {"a": 2, "c": 3, "d": 1}),
    (700, {"a": 2, "c": 2, "d": 2}),
    (250, {"a": 2, "c": 1, "d": 3}),
    (-128, {"a": 1, "b": 3, "c": 1, "d": 1}),
    (-480, {"a": 1, "b": 3, "d": 2}),
    (-64, {"a": 1, "b": 2, "c": 3}),
    (-720, {"a": 1, "b": 2, "c": 2, "d": 1}),
    (-600, {"a": 1, "b": 2, "c": 1, "d": 2}),
    (-500, {"a": 1, "b": 2, "d": 3}),
    (-160, {"a": 1, "b": 1, "c": 4}),
    (-600, {"a": 1, "b": 1, "c": 3, "d": 1}),
    (-1500, {"a": 1, "b": 1, "c": 2, "d": 2}),
    (-2500, {"a": 1, "b": 1, "c": 1, "d": 3}),
    (400, {"a": 1, "c": 5}),
    (2000, {"a": 1, "c": 4, "d": 1}),
    (2500, {"a": 1, "c": 3, "d": 2}),
    (1280, {"b": 4, "c": 1, "d": 1}),
    (1600, {"b": 4, "d": 2}),
    (640, {"b": 3, "c": 3}),
    (4000, {"b": 3, "c": 2, "d": 1}),
    (2000, {"b": 3, "c": 1, "d": 2}),
    (800, {"b": 2, "c": 4}),
    (2000, {"b": 2, "c": 3, "d": 1}),
])

_SEXTIC = cleared_table(SURFACE_FORM, SURFACE_VARS)

# the curve forms as integer tables over (t, a, b, c, d), split by powers of
# t: the quadric is linear in t and the cubic quadratic
_QUADRIC_IN_T, _CUBIC_IN_T = (split_by_variable(cleared_table(form, ("t", *SURFACE_VARS)), n)
                              for form, n in ((T_FORM_QUADRIC, 1), (T_FORM_CUBIC, 2)))

# the quadric is den*t - num, so t = num/den at a point of the surface;
# its t^0 and t^1 coefficients as integer tables over (a, b, c, d)
_T_COEFFICIENTS = tuple(tuple((e[1:], k) for e, k in part) for part in _QUADRIC_IN_T)


def _coordinates(point: CurvePoint) -> Tuple[int, ...]:
    if len(point.coords) != 4:
        raise ValueError(f"{point} is not a point of P^3: need 4 coordinates")
    return point.coords


def on_surface(point: CurvePoint) -> bool:
    """Exact evaluation of the sextic form."""
    return form_value(_SEXTIC, _coordinates(point)) == 0


def t_parts(point: CurvePoint) -> Tuple[int, int]:
    """Integer numerator and denominator of t, read off the curve quadric.

    Where both vanish (the base locus: all of R4 and R5, for instance)
    t is 0/0 and no single value is attached to the point.
    """
    coords = _coordinates(point)
    minus_num, den = (form_value(table, coords) for table in _T_COEFFICIENTS)
    return -minus_num, den


def recover_t(point: CurvePoint) -> Optional[Fraction]:
    """The t where the curve quadric vanishes; None when t is infinity or undetermined.

    Only defined on the surface (usage error otherwise).
    """
    if not on_surface(point):
        raise ValueError(f"{point} is not on the surface")
    num, den = t_parts(point)
    if den == 0:
        return None
    return Fraction(num, den)


# five lines; each coordinate is a row (x, y) standing for x u + y v, for
# the two projective parameters (u : v), denominators cleared per line
_LINES = {
    # a = 10b, c = -3b/5: t = 0
    "t0-a": ((50, 0), (5, 0), (-3, 0), (0, 5)),
    # a = b = 0: t = 0
    "t0-b": ((0, 0), (0, 0), (1, 0), (0, 1)),
    # b = 21d/32, c = -3d/4: t = infinity
    "t-inf": ((32, 0), (0, 21), (0, -24), (0, 32)),
    # a = 125d/16, c = -5d/4: t = -3125/256 (reducible quintic)
    "t-reducible": ((0, 125), (16, 0), (0, -20), (0, 16)),
    # c = d = 0: inside the singular locus, no t value attached
    "singular": ((1, 0), (0, 1), (0, 0), (0, 0)),
}

LINE_NAMES = tuple(_LINES)

# annotated t values for the three lines that carry one ("inf" is symbolic)
LINE_T_VALUES = {"t0-a": Fraction(0), "t0-b": Fraction(0),
                 "t-inf": None, "t-reducible": T_EXCLUDED}


def line_point(name: str, u, v) -> CurvePoint:
    """A point of one of the five lines; (u, v) projective on the line."""
    if name not in _LINES:
        raise ValueError(f"unknown line {name!r}; choose from {LINE_NAMES}")
    u, v = Fraction(u), Fraction(v)
    # (u : v) as the integer pair (U : V), scaled by the positive u.den v.den
    U, V = u.numerator * v.denominator, v.numerator * u.denominator
    return CurvePoint.from_integers([x * U + y * V for x, y in _LINES[name]])


# five explicit rational curves; each coordinate is a row of coefficients of
# s^0, ..., s^4, denominators cleared per curve, read at s = u/w as the
# degree-4 form sum_i row[i] u^i w^(4-i)
_CURVES = {
    "R1": ((0, 0, 500, -100, -15), (0, -500, 100, 15, 0), (0, 0, 0, 0, 0), (1600, 480, 128, 0, 0)),
    "R2": ((0, 10000, 2500, 100, 35), (-10000, -2500, -100, -35, 0),
           (4000, -400, -320, 0, 0), (-1600, 160, 128, 0, 0)),
    "R3": ((1250, -625, 100, -5, 0), (125, 0, -5, 0, 0), (-200, 80, 0, 0, 0), (160, -64, 0, 0, 0)),
    "R4": ((0, 0, 0, 0, 0), (0, -5, -2, 0, 0), (0, 4, 0, 0, 0), (4, 0, 0, 0, 0)),
    "R5": ((0, -50, -20, 0, 0), (0, -5, -2, 0, 0), (0, 4, 0, 0, 0), (4, 0, 0, 0, 0)),
}

CURVE_NAMES = ("R1", "R2", "R3", "R4", "R5")


def rational_curve(name: str, s) -> CurvePoint:
    """Point of one of the five rational curves on X at parameter s.

    No rational s makes every coordinate vanish: d has no rational root on
    R1 and R2 and is constant on R4 and R5, and b is nonzero at R3's s = 5/2.
    """
    if name not in _CURVES:
        raise ValueError(f"unknown curve {name!r}; choose from {CURVE_NAMES}")
    # the point times the positive w^4, s = u/w in lowest terms
    u, w = Fraction(s).as_integer_ratio()
    powers = [u ** i * w ** (4 - i) for i in range(5)]
    return CurvePoint.from_integers([sum(c * m for c, m in zip(row, powers))
                                     for row in _CURVES[name]])


def consistency_with_curve(point: CurvePoint,
                           t: Optional[Fraction]) -> Optional[Tuple[Fraction, CurvePoint]]:
    """View a surface point on its curve; None for degenerate t.

    `t` is recover_t(point), which has checked that the point lies on the
    surface.  For t outside {0, infinity, -3125/256} the point satisfies
    both forms of curve_from_t(t) exactly (checked).
    """
    if t is None or t == 0 or t == T_EXCLUDED:
        return None
    if not curve_from_t(t).contains(point):
        raise ArithmeticError(
            f"surface-curve invariant broken: {point} fails the curve forms at t = {t}")
    return t, point


def eliminate_t_from_curve_forms() -> MultiPoly:
    """Rebuild the sextic by eliminating t from the two curve forms.

    The resultant in t of the (linear-in-t) quadric and (quadratic-in-t)
    cubic is 5a times the surface form; the quotient is returned for
    comparison against the transcription.
    """
    rest, linear = _QUADRIC_IN_T
    resultant = table_resultant(0, linear, rest, _CUBIC_IN_T)
    if any(e[1] == 0 for e, _ in resultant):
        raise ArithmeticError("elimination invariant broken: the resultant is not divisible by a")
    # drop the t slot, which the resultant has eliminated, and one power of a
    return MultiPoly(SURFACE_VARS, {(e[1] - 1, *e[2:]): k for e, k in resultant})
