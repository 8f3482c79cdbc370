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
to a rational unit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Tuple

from .multipoly import MultiPoly, resultant_in
from .curve import (CURVE_VARS, CurvePoint, T_EXCLUDED, T_FORM_CUBIC, T_FORM_QUADRIC,
                    _form_value, _table, curve_from_t)

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


# points of the surface are points of P^3, as on the curves
SurfacePoint = CurvePoint

# the quadric is den*t - num, so t = num/den at a point of the surface;
# its t^0 and t^1 coefficients as integer tables over (a, b, c, d)
_T_COEFFICIENTS = tuple(_table(T_FORM_QUADRIC.coefficient_of("t", k), CURVE_VARS) for k in (0, 1))


def _coordinates(point: CurvePoint) -> Tuple[int, ...]:
    if len(point.coords) != 4:
        raise ValueError(f"{point} is not a point of P^3: need 4 coordinates")
    return point.coords


def on_surface(point: CurvePoint) -> bool:
    """Exact evaluation of the sextic form."""
    return SURFACE_FORM.evaluate(dict(zip(SURFACE_VARS, _coordinates(point)))) == 0


def t_parts(point: CurvePoint) -> Tuple[int, int]:
    """Integer numerator and denominator of t, read off the curve quadric.

    Where both vanish (the base locus: all of R4 and R5, for instance)
    t is 0/0 and no single value is attached to the point.
    """
    coords = _coordinates(point)
    minus_num, den = (_form_value(table, coords) for table in _T_COEFFICIENTS)
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


# five lines; each entry maps two projective parameters (u : v) to a point
_LINES = {
    # a = 10b, c = -3b/5: t = 0
    "t0-a": lambda u, v: (10 * u, u, Fraction(-3, 5) * u, v),
    # a = b = 0: t = 0
    "t0-b": lambda u, v: (0, 0, u, v),
    # b = 21d/32, c = -3d/4: t = infinity
    "t-inf": lambda u, v: (u, Fraction(21, 32) * v, Fraction(-3, 4) * v, v),
    # a = 125d/16, c = -5d/4: t = -3125/256 (reducible quintic)
    "t-reducible": lambda u, v: (Fraction(125, 16) * v, u, Fraction(-5, 4) * v, v),
    # c = d = 0: inside the singular locus, no t value attached
    "singular": lambda u, v: (u, v, 0, 0),
}

LINE_NAMES = tuple(_LINES)

# annotated t values for the three lines that carry one ("inf" is symbolic)
LINE_T_VALUES = {"t0-a": Fraction(0), "t0-b": Fraction(0),
                 "t-inf": None, "t-reducible": T_EXCLUDED}


def line_point(name: str, u, v) -> CurvePoint:
    """A point of one of the five lines; (u, v) projective on the line."""
    if name not in _LINES:
        raise ValueError(f"unknown line {name!r}; choose from {LINE_NAMES}")
    coords = _LINES[name](Fraction(u), Fraction(v))
    return CurvePoint.from_rationals(coords)


# five explicit rational curves, by parametrization degree in s
_CURVES = {
    "R1": lambda s: (
        Fraction(-3, 100) * s ** 4 - Fraction(1, 5) * s ** 3 + s ** 2,
        Fraction(3, 100) * s ** 3 + Fraction(1, 5) * s ** 2 - s,
        Fraction(0),
        Fraction(32, 125) * s ** 2 + Fraction(24, 25) * s + Fraction(16, 5),
    ),
    "R2": lambda s: (
        Fraction(7, 2000) * s ** 4 + Fraction(1, 100) * s ** 3 + Fraction(1, 4) * s ** 2 + s,
        -Fraction(7, 2000) * s ** 3 - Fraction(1, 100) * s ** 2 - Fraction(1, 4) * s - 1,
        Fraction(-5, 2) * (Fraction(8, 625) * s ** 2 + Fraction(2, 125) * s - Fraction(4, 25)),
        Fraction(8, 625) * s ** 2 + Fraction(2, 125) * s - Fraction(4, 25),
    ),
    "R3": lambda s: (
        Fraction(-1, 250) * s ** 3 + Fraction(2, 25) * s ** 2 - Fraction(1, 2) * s + 1,
        Fraction(-1, 250) * s ** 2 + Fraction(1, 10),
        Fraction(-5, 4) * (Fraction(-32, 625) * s + Fraction(16, 125)),
        Fraction(-32, 625) * s + Fraction(16, 125),
    ),
    "R4": lambda s: (
        Fraction(0),
        Fraction(-1, 2) * s ** 2 - Fraction(5, 4) * s,
        s,
        Fraction(1),
    ),
    "R5": lambda s: (
        -5 * s ** 2 - Fraction(25, 2) * s,
        Fraction(-1, 2) * s ** 2 - Fraction(5, 4) * s,
        s,
        Fraction(1),
    ),
}

CURVE_NAMES = ("R1", "R2", "R3", "R4", "R5")


def rational_curve(name: str, s) -> CurvePoint:
    """Point of one of the five rational curves on X at parameter s.

    Raises when every coordinate vanishes (finitely many excluded s).
    """
    if name not in _CURVES:
        raise ValueError(f"unknown curve {name!r}; choose from {CURVE_NAMES}")
    coords = _CURVES[name](Fraction(s))
    if all(v == 0 for v in coords):
        raise ValueError(f"parameter s = {s} excluded on {name}: all coordinates vanish")
    return CurvePoint.from_rationals(coords)


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
    res = resultant_in("t", T_FORM_QUADRIC, T_FORM_CUBIC)
    quotient = res.divide_by_variable("a")
    if quotient is None:
        raise ArithmeticError("elimination invariant broken: the resultant is not divisible by a")
    if quotient.degree_in("t") > 0:
        raise ArithmeticError("elimination invariant broken: t survives in the resultant")
    # drop the now-unused t slot
    return MultiPoly(SURFACE_VARS, {e[:4]: c for e, c in quotient.terms.items()})
