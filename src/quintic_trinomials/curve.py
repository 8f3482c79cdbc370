"""The projective curve classifying trinomials with a root in a quintic field.

For K = Q[alpha] with alpha a root of x^5 + tx + t, elements
beta = a + b alpha + c alpha^2 + d alpha^3 + e alpha^4 whose
characteristic polynomial is a trinomial x^5 + rx + s correspond to the
points of a genus-four curve in P^3: the trace condition eliminates e
(4te = 5a), and the x^3- and x^2-coefficient conditions cut out a
quadric and a cubic in (a : b : c : d).

For a general quintic field the forms come from integer trace forms on
the trace hyperplane.  The trace condition Tr(beta) = sum s_i x_i = 0,
with s_n = Tr(alpha^n), eliminates one coordinate x_k; there
s_k beta = sum x_i gamma_i over the live i, gamma_i = s_k alpha^i - s_i alpha^k,
and since Tr(beta) = 0 the x^3 and x^2 coefficients of the
characteristic polynomial are -Tr(beta^2)/2 and -Tr(beta^3)/3 (Newton's
identities; H. Cohen, GTM 138, section 4.2).  Each monomial's coefficient
is a trace of a product of two or three gamma_i, a sum of 4 or 8
products of power sums, computed in integers from the power sums of the
monic integral rescaling of g.  The t-form constructor instead stores a cubic
already reduced by a multiple of the quadric (same ideal, fewer monomials).

Point search is one engine for both kinds of curve.  One live variable
v, with a square term if any has one, is solved from the quadric; the
other three are enumerated in a half box as row, column and slice, and a
rational v exists iff the integer discriminant of the quadric in v is a
perfect square.  (A quadric linear in v, as on pure quintics, gives v by
one division, or every v where both its coefficients vanish.)  A cell
that carries a point of the curve is also a zero of R = Res_v(quadric,
cubic), a form in (x, y, z).  The engine sieves the whole curve, not only
its quadric, modulo five small primes with bit-packed rows, as M. Stoll's
`ratpoints` does for its curves: once per search, for every prime p, z
residue and x residue it packs "disc is a square mod p and R = 0 mod p"
over the columns y into 64-bit words, and a row (z, x) of the box is then
the AND of five packed rows.  Rows are sieved in tiles of a fixed size,
so working memory grows as O(H), not with the (2H+1)^2 cells of a slice.
A multiple of a cell carries the same projective points as the cell, and
the primitive cell of a point survives the sieve too, so only primitive
survivors are confirmed, each once, in Python integers: an exact square
root of disc, and the quadric, the cubic and the height bound on the
curve's output coordinates.  Its integer coefficient tables are the
curve's own forms with denominators cleared.  The slices are split into
chunks for a process pool only when the half box has more than
_CELLS_PER_WORKER cells, enough to pay for the workers' start-up; jobs,
the CPU count and the slices bound the workers, and smaller boxes are
searched in-process.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .qpoly import UniPoly, integer_power_sums
from .factor import factor_over_Q
from .multipoly import MultiPoly
from .numberfield import NumberField, FieldElement, charpoly_mod
from .trinomial import Trinomial, EquivClass, equiv_class

CURVE_VARS = ("a", "b", "c", "d")
FULL_VARS = ("a", "b", "c", "d", "e")

T_EXCLUDED = Fraction(-3125, 256)

# The t-form curve's quadric and (reduced) cubic for every t at once, over
# (a, b, c, d, t); curve_from_t puts in a value of t, and eliminating t
# gives the surface of fields with an extra trinomial.
T_FORM_VARS = CURVE_VARS + ("t",)
T_FORM_QUADRIC = MultiPoly.from_spec(T_FORM_VARS, [
    (-5, {"a": 2}), (50, {"a": 1, "b": 1}),
    (32, {"b": 1, "d": 1, "t": 1}), (16, {"c": 2, "t": 1}), (40, {"c": 1, "d": 1, "t": 1}),
])
T_FORM_CUBIC = MultiPoly.from_spec(T_FORM_VARS, [
    (-10, {"a": 3}), (25, {"a": 2, "b": 1}), (-125, {"a": 2, "c": 1}),
    (-160, {"a": 1, "c": 1, "d": 1, "t": 1}), (-100, {"a": 1, "d": 2, "t": 1}),
    (64, {"b": 2, "c": 1, "t": 1}), (80, {"b": 2, "d": 1, "t": 1}), (80, {"b": 1, "c": 2, "t": 1}),
    (-64, {"c": 1, "d": 2, "t": 2}), (-48, {"d": 3, "t": 2}),
])


class DegeneratePoint(Exception):
    """The element at this point is rational; no quintic trinomial arises."""


@dataclass(frozen=True, order=True)
class CurvePoint:
    """Primitive integer projective tuple, first nonzero coordinate positive."""

    coords: Tuple[int, ...]

    @staticmethod
    def from_integers(values: Sequence[int]) -> "CurvePoint":
        g = math.gcd(*values)
        if g == 0:
            raise ValueError("all coordinates vanish")
        ints = [v // g for v in values]
        if next(v for v in ints if v) < 0:
            ints = [-v for v in ints]
        return CurvePoint(tuple(ints))

    @staticmethod
    def from_rationals(values: Sequence[Fraction]) -> "CurvePoint":
        vals = [Fraction(v) for v in values]
        den = math.lcm(*(v.denominator for v in vals))
        return CurvePoint.from_integers([int(v * den) for v in vals])

    @property
    def height(self) -> int:
        return max(abs(v) for v in self.coords)

    def to_json(self):
        return list(self.coords)

    def __str__(self):
        return "(" + " : ".join(str(v) for v in self.coords) + ")"


@dataclass(frozen=True)
class TrinomialCurve:
    """The t-form curve in P^3 with its elimination relation e = 5a/(4t)."""

    t: Fraction
    quadric: MultiPoly
    cubic: MultiPoly

    @property
    def defining_poly(self) -> UniPoly:
        return UniPoly([self.t, self.t, 0, 0, 0, 1])

    @property
    def field(self) -> NumberField:
        return NumberField(self.defining_poly)

    def e_coordinate(self, a: Fraction) -> Fraction:
        return 5 * Fraction(a) / (4 * self.t)

    def beta_coords(self, point: CurvePoint) -> Tuple[Fraction, ...]:
        a, b, c, d = (Fraction(v) for v in point.coords)
        return (a, b, c, d, self.e_coordinate(a))

    def contains(self, point: CurvePoint) -> bool:
        return _forms_vanish((self.quadric, self.cubic), point.coords)


def curve_from_t(t: Fraction) -> TrinomialCurve:
    """The quadric and cubic cutting out the curve for K = Q[x]/(x^5+tx+t).

    t = 0 degenerates the elimination and t = -3125/256 makes the
    quintic inseparable; both are rejected.
    """
    t = Fraction(t)
    if t == 0:
        raise ValueError("t = 0 degenerates the trace elimination")
    if t == T_EXCLUDED:
        raise ValueError("t = -3125/256: the defining quintic has a repeated root")
    # no two terms of a t-form share their (a, b, c, d) part
    quadric, cubic = (MultiPoly(CURVE_VARS, {e[:4]: c * t ** e[4] for e, c in form.terms.items()})
                      for form in (T_FORM_QUADRIC, T_FORM_CUBIC))
    return TrinomialCurve(t=t, quadric=quadric, cubic=cubic)


# ---------------------------------------------------------------------------
# general fields: trace forms on the trace hyperplane
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneralCurve:
    """Trace-hyperplane section for an arbitrary quintic field.

    Keeps all five coordinates: `linear` is the trace condition,
    `quadric`/`cubic` are the raw x^3/x^2 conditions with the chosen
    variable eliminated through the linear relation.  Points are primitive
    integer 5-tuples on the intersection.
    """

    g: UniPoly
    linear: MultiPoly
    quadric: MultiPoly
    cubic: MultiPoly
    eliminated: str
    elimination_expr: MultiPoly  # the eliminated variable as a linear form

    @property
    def live_vars(self) -> Tuple[str, ...]:
        return tuple(v for v in FULL_VARS if v != self.eliminated)

    @property
    def field(self) -> NumberField:
        return NumberField(self.g)

    def contains(self, coords: Sequence[Fraction]) -> bool:
        return _forms_vanish((self.linear, self.quadric, self.cubic), coords)


def _forms_vanish(forms: Sequence[MultiPoly], coords: Sequence[Fraction]) -> bool:
    """Whether the homogeneous forms all vanish at the coordinates, one per
    variable: rational ones are scaled to integers by the lcm of their
    denominators, and each form is checked as its integer table."""
    if len(coords) != len(forms[0].vars):
        raise ValueError(f"need {len(forms[0].vars)} coordinates, got {len(coords)}")
    if not all(isinstance(v, int) for v in coords):
        values = [Fraction(v) for v in coords]
        den = math.lcm(*(v.denominator for v in values))
        coords = [v.numerator * (den // v.denominator) for v in values]
    return not any(form_value(cleared_table(f, f.vars), coords) for f in forms)


def curve_from_field(g: UniPoly, eliminate: Optional[str] = None) -> GeneralCurve:
    """The curve conditions for K = Q[x]/(g), from integer trace forms.

    The variable eliminated via the linear trace condition defaults to
    the one with the largest absolute coefficient, ties to the later
    variable; x^5+tx+t fields therefore eliminate the alpha^4 coordinate
    whenever |4t| >= 5.

    With s_n = Tr(alpha^n) = T_n / d^n, T_n = Tr(theta^n) for the root
    theta = d alpha of the monic integer G = d^5 g(x / d), scaled to
    integers S_n = L s_n = T_n d^(12 - n) with L = d^12 (n <= 12), and x_k
    the eliminated coordinate, the trace hyperplane gives
    S_k beta = sum x_i gamma_i over the live i, with
    gamma_i = S_k alpha^i - S_i alpha^k.  The x^3 and x^2 conditions are
    -Tr(beta^n)/n for n = 2, 3: the monomial prod_I x_i (I a multiset of
    n live indices, c its multinomial count) has the coefficient
    c T_I / (-n S_k^n L), where T_I = L Tr(prod_I gamma_i) is an integer
    sum of 2^n products of the S_m; it does not depend on the choice of L.
    """
    if g.degree != 5 or g.lc != 1:
        raise ValueError("need a monic quintic")
    if eliminate is not None and eliminate not in FULL_VARS:
        raise ValueError(f"cannot eliminate {eliminate!r}: not one of {', '.join(FULL_VARS)}")
    if not factor_over_Q(g).is_irreducible:
        raise ValueError(f"{g} is reducible over Q")
    d, G = g.integral_rescaling()
    traces = integer_power_sums(G, 12)
    sums = [Fraction(t, d ** m) for m, t in enumerate(traces[:5])]
    # linear = -Tr(beta) = -sum s_i x_i
    coeffs = {name: -s for name, s in zip(FULL_VARS, sums)}
    if eliminate is None:
        best = max(abs(c) for c in coeffs.values())
        eliminate = [n for n in FULL_VARS if abs(coeffs[n]) == best][-1]
    if coeffs[eliminate] == 0:
        raise ValueError(f"cannot eliminate {eliminate}: zero trace coefficient")
    k = FULL_VARS.index(eliminate)
    units = [tuple(int(i == j) for j in range(5)) for i in range(5)]
    linear = MultiPoly(FULL_VARS, {units[i]: -s for i, s in enumerate(sums[:5])})
    # x_k = -sum s_i x_i / s_k over the live i
    expr = MultiPoly(FULL_VARS, {units[i]: -sums[i] / sums[k] for i in range(5) if i != k})
    scale = d ** 12
    S = [t * d ** (12 - m) for m, t in enumerate(traces)]
    # gamma_i as its two (coefficient, power of alpha) terms
    gamma = {i: ((S[k], i), (-S[i], k)) for i in range(5) if i != k}
    forms = []
    for n in (2, 3):
        den = -n * S[k] ** n * scale
        terms = {}
        for idx in itertools.combinations_with_replacement(gamma, n):
            # scale * Tr(gamma_i1 ... gamma_in), each S_m standing for scale * s_m
            trace = sum(math.prod(c for c, _ in choice) * S[sum(p for _, p in choice)]
                        for choice in itertools.product(*(gamma[i] for i in idx)))
            exps = tuple(idx.count(i) for i in range(5))
            count = math.factorial(n) // math.prod(map(math.factorial, exps))
            terms[exps] = Fraction(count * trace, den)
        forms.append(MultiPoly(FULL_VARS, terms))
    quadric, cubic = forms
    return GeneralCurve(g=g, linear=linear, quadric=quadric, cubic=cubic,
                        eliminated=eliminate, elimination_expr=expr)


# ---------------------------------------------------------------------------
# point <-> trinomial translation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointImage:
    """A curve point translated to its trinomial data."""

    point: CurvePoint
    trinomial: Trinomial
    cls: EquivClass
    rho: Tuple[Fraction, Fraction]  # (gamma^5, delta^4), the degree-120 map image
    char_poly: UniPoly


def point_to_trinomial(curve: TrinomialCurve, point: CurvePoint) -> PointImage:
    """Translate (a : b : c : d) to its trinomial x^5 + gamma x + delta.

    The characteristic polynomial of beta must have vanishing x^4, x^3,
    x^2 coefficients (guaranteed on the curve); DegeneratePoint signals
    a rational beta.
    """
    coords = curve.beta_coords(point)
    if all(c == 0 for c in coords[1:]):
        raise DegeneratePoint(f"{point} has rational beta")
    cp = charpoly_mod(curve.defining_poly, coords)
    if any(cp[i] != 0 for i in (2, 3, 4)):
        raise ValueError(f"{point} is not on the curve: characteristic polynomial {cp}")
    gamma, delta = cp[1], cp[0]
    tri = Trinomial(gamma, delta)
    return PointImage(point=point, trinomial=tri, cls=equiv_class(tri),
                      rho=(gamma ** 5, delta ** 4), char_poly=cp)


def trinomial_to_point(curve: TrinomialCurve, beta: FieldElement) -> CurvePoint:
    """The projective point of an element whose characteristic polynomial is a trinomial."""
    if beta.field.defining_poly != curve.defining_poly:
        raise ValueError("element does not live in the curve's field")
    cp = beta.char_poly()
    if any(cp[i] != 0 for i in (2, 3, 4)):
        raise ValueError(f"characteristic polynomial {cp} is not of trinomial shape")
    a, b, c, d, e = beta.coords
    if e != curve.e_coordinate(a):
        raise ArithmeticError(f"trace relation broken: e = {e}, expected {curve.e_coordinate(a)}")
    return CurvePoint.from_rationals((a, b, c, d))


def field_L_polynomial(t: Fraction) -> UniPoly:
    """Degree-10 polynomial defining the quadratic-times-cubic splitting field."""
    t = Fraction(t)
    if t == 0:
        raise ValueError("t must be nonzero")
    return UniPoly([-t ** 2, 4 * t ** 2, -4 * t ** 2, 0, 0, -11 * t, -3 * t, 0, 0, 0, 1])


# ---------------------------------------------------------------------------
# point search, one engine for t-form and general curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchResult:
    points: Tuple[CurvePoint, ...]
    degenerate: Tuple[CurvePoint, ...]
    height_bound: int


# (exponents, integer coefficient) pairs
_Table = Tuple[Tuple[Tuple[int, ...], int], ...]

# The sieve's prime moduli, and _SQUARES[k][r] for r < m^2 + 2m: is r a square
# mod m = _MODULI[k].  With the resultant in the sieve, more or larger moduli
# cost more than the survivors they remove.
_MODULI = (11, 17, 19, 23, 29)
_SQUARES = tuple(np.isin(np.arange(m * m + 2 * m) % m, np.arange(m) ** 2 % m) for m in _MODULI)
# The packed rows of modulus _MODULI[k] start at _OFFSETS[k], m^2 rows per modulus
_OFFSETS = np.cumsum((0, *(m * m for m in _MODULI)))

# The largest height bound a search takes: the packed sieve is 2141 rows of
# ceil((2H + 1) / 64) 64-bit words, 8.8 MB at this bound
MAX_HEIGHT_BOUND = 1 << 14

# A tile of the search reads at most this many bytes of packed rows, one
# modulus at a time, and the rows are packed in groups of at most as many
# cells: working memory is the packed rows, O(H), plus O(_TILE_BYTES).
_TILE_BYTES = 2 ** 18

# A search starts a process pool only when its half box has more than this
# many cells; a smaller box is searched in-process.  The half box of height
# H has (H + 1)(2H + 1)^2 cells, and a pool costs 10-25 ms to start.
# Measured on 2 CPUs (Python 3.11), jobs 2 took this many times the wall
# time of jobs 1 on t = 6/5, 19/14 and -3125/20736:
#   H = 200: 2.4, 2.0          H = 350: 1.6, 1.1, 1.0     H = 400: 1.4, 0.8, 0.8
#   H = 450-500: 0.7-0.9 (one run 1.2)                    H = 550-1000: 0.5-0.8
# so two workers break even near H = 400-450, 0.5-0.7 times 2^29 cells;
# 2^29 (a pool from H = 512) keeps the searches of doubtful gain in-process.
# Above it the pool is sized as before, by jobs, the CPUs and the slices.
_CELLS_PER_WORKER = 2 ** 29


@dataclass(frozen=True)
class _SearchForms:
    """Integer tables of a curve for the search engine, denominators cleared.

    The engine tables are over the live coordinates (v, x, y, z): the
    quadric is lead*v^2 + linear*v + rest, and (x, y, z) are enumerated as
    row, column and slice.  disc = linear^2 - 4 lead rest, divided by
    root_scale^2.  `resultant` is Res_v(quadric, cubic), a form in (x, y, z)
    that vanishes at every cell of a point of the curve.  `coordinate_map`
    sends live coordinates to the curve's output coordinates, where every
    form of `checks` must vanish.
    """

    lead: int
    linear: _Table
    rest: _Table
    disc: _Table
    root_scale: int
    cubic_in_v: Tuple[_Table, ...]  # the cubic's coefficients of v^0, ..., v^3
    resultant: _Table
    coordinate_map: Tuple[Tuple[int, ...], ...]
    checks: Tuple[_Table, ...]


def cleared_table(form: MultiPoly, order: Sequence[str]) -> _Table:
    """The form times the lcm of its denominators, with exponents over the
    variables `order` (any other variable of the form must not occur)."""
    scale = math.lcm(*(c.denominator for c in form.terms.values()))
    pos = [form.vars.index(n) for n in order]
    return tuple(sorted((tuple(e[i] for i in pos), c.numerator * (scale // c.denominator))
                        for e, c in form.terms.items()))


def _split_by_v(table: _Table, degree: int) -> Tuple[_Table, ...]:
    """The coefficients of v^0, ..., v^degree of a table over (v, x, y, z),
    each a table with the exponent of v zero."""
    parts = [[] for _ in range(degree + 1)]
    for e, k in table:
        parts[e[0]].append(((0, *e[1:]), k))
    return tuple(map(tuple, parts))


# Res_v(a v^2 + b v + c, d v^3 + e v^2 + f v + g) by Sylvester's formula, as
# (coefficient, power of a, factors) terms: a = lead, b = linear, c = rest
# and d, e, f, g the cubic's coefficients of v^3, v^2, v, 1
_RESULTANT_TERMS = (
    (1, 3, "gg"), (-1, 2, "bfg"), (-2, 2, "ceg"), (1, 2, "cff"), (1, 1, "bbeg"), (3, 1, "bcdg"),
    (-1, 1, "bcef"), (-2, 1, "ccdf"), (1, 1, "ccee"), (-1, 0, "bbbdg"), (1, 0, "bbcdf"),
    (-1, 0, "bccde"), (1, 0, "cccdd"))


def _resultant(lead: int, linear: _Table, rest: _Table, cubic_in_v) -> _Table:
    """Res_v(quadric, cubic) over its content, in integer arithmetic: a form in
    the coordinates after v.  The resultant is A quadric + B cubic for integer
    forms A and B, so it vanishes wherever both do, at every rational v.

    With a = 0 Sylvester's formula is -d Res_v(b v + c, cubic), identically
    zero when d is; a quadric linear in v takes the sum of the cubic's
    coefficients of v^k times (-c)^k b^(n - k) instead, n the cubic's degree in v.
    """
    # an exponent of (x, y, z) is one int of three base-16 digits, so that a
    # product adds them; terms share the products of their common prefixes
    factors = {name: {(e[1] << 8) + (e[2] << 4) + e[3]: k for e, k in table}
               for name, table in zip("bcgfed", (linear, rest, *cubic_in_v))}
    products = {"": {0: 1}}
    total: Dict[int, int] = {}
    terms = _RESULTANT_TERMS
    if not lead:
        n = max(k for k, table in enumerate(cubic_in_v) if table)
        terms = tuple(((-1) ** k, 0, "b" * (n - k) + "c" * k + "gfed"[k]) for k in range(n + 1))
    for coeff, power, names in terms:
        for i in range(1, len(names) + 1):
            if names[:i] not in products:
                product: Dict[int, int] = {}
                for e1, k1 in products[names[:i - 1]].items():
                    for e2, k2 in factors[names[i - 1]].items():
                        product[e1 + e2] = product.get(e1 + e2, 0) + k1 * k2
                products[names[:i]] = product
        scale = coeff * lead ** power
        for e, k in products[names].items():
            total[e] = total.get(e, 0) + scale * k
    # without its content, the form vanishes at the same cells and sieves
    # moduli that share a factor with the content
    content = math.gcd(*total.values()) or 1
    return tuple(sorted(((0, e >> 8, e >> 4 & 15, e & 15), k // content)
                        for e, k in total.items() if k))


def _search_forms(curve) -> _SearchForms:
    """Engine tables of a TrinomialCurve or a GeneralCurve.

    The solved variable v is the first live variable with a square term,
    else the first of degree 1; for t-form curves (v; x, y, z) = (a; b, c, d).
    """
    if isinstance(curve, GeneralCurve):
        live, expr = curve.live_vars, curve.elimination_expr
        checks = (curve.linear, curve.quadric, curve.cubic)
    else:
        live, expr = CURVE_VARS, MultiPoly.zero(CURVE_VARS)
        checks = (curve.quadric, curve.cubic)
    names = curve.quadric.vars
    exponents = [[e[names.index(n)] for e in curve.quadric.terms] for n in live]
    solve = (next((n for n, es in zip(live, exponents) if 2 in es), None)
             or next((n for n, es in zip(live, exponents) if max(es, default=-1) == 1), None))
    if solve is None:
        raise ValueError("quadric involves no live variable")
    order = (solve, *(n for n in live if n != solve))
    rest, linear, square = _split_by_v(cleared_table(curve.quadric, order), 2)
    lead = next((k for e, k in square if not any(e)), 0)
    # disc = linear^2 - 4 lead rest, in integers
    terms: Dict[Tuple[int, ...], int] = {}
    for (e1, k1), (e2, k2) in itertools.product(linear, repeat=2):
        e = tuple(map(sum, zip(e1, e2)))
        terms[e] = terms.get(e, 0) + k1 * k2
    for e, k in rest:
        terms[e] = terms.get(e, 0) - 4 * lead * k
    disc = tuple(sorted((e, k) for e, k in terms.items() if k))
    # A square factor of the content hides residues from the sieve, so the
    # engine sieves disc / root_scale^2 and scales its square roots back.
    # disc = 0 (content 0) makes the quadric a double plane, with the one
    # root v = -linear / (2 lead) at every cell.
    content = math.gcd(*(k for _, k in disc))
    root_scale = 1
    for ell in _MODULI if content else ():
        while content % (root_scale * ell) ** 2 == 0:
            root_scale *= ell
    # live -> output coordinates, scaled by the elimination's denominator;
    # the eliminated coordinate (if any) is a linear form in the live ones
    den = math.lcm(*(c.denominator for c in expr.terms.values()))
    weights = {names[e.index(1)]: int(c * den) for e, c in expr.terms.items()}
    coordinate_map = tuple(
        tuple(den * (n == m) if n in order else weights.get(m, 0) for m in order) for n in names)
    cubic_in_v = _split_by_v(cleared_table(curve.cubic, order), 3)
    return _SearchForms(
        lead=lead, linear=linear, rest=rest,
        disc=tuple((e, k // root_scale ** 2) for e, k in disc), root_scale=root_scale,
        cubic_in_v=cubic_in_v, resultant=_resultant(lead, linear, rest, cubic_in_v),
        coordinate_map=coordinate_map,
        checks=tuple(cleared_table(f, names) for f in checks))


def form_value(table: _Table, coords) -> int:
    """The value of an integer table at integer coordinates."""
    total = 0
    for exps, k in table:
        for x, e in zip(coords, exps):
            if e:
                k *= x ** e
        total += k
    return total


def _sieve_tables(forms: _SearchForms, layers: int) -> Iterator[np.ndarray]:
    """For each m of _MODULI in turn, the table T with T[r, x, y] = (disc(x, y, r)
    is a square mod m and resultant(x, y, r) = 0 mod m), for residues x, y
    and r < min(m, layers)."""
    disc = {e[1:]: k for e, k in forms.disc}
    degree = max((sum(e) for e, _ in forms.resultant), default=0)
    for m, squares in zip(_MODULI, _SQUARES):
        kxx, kxy, kyy, kxz, kyz, kzz = (
            disc.get(e, 0) % m
            for e in ((2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)))
        x, y = np.arange(m)[:, None], np.arange(m)[None, :]
        r = np.arange(min(m, layers))[:, None, None]
        # each part is reduced before the sum, which stays below len(squares)
        table = squares[((kxx * x + kxy * y) * x + kyy * y * y) % m + kzz * r * r % m
                        + r * ((kxz * x + kyz * y) % m)]
        # resultant(x, y, r) = powers[x] . R_r . powers[y], with R_r[i, j] the sum
        # over k of its x^i y^j z^k coefficient times r^k; m^degree < 2^63
        coeffs = np.zeros((degree + 1,) * 3, dtype=np.int64)
        for e, k in forms.resultant:
            coeffs[e[1:]] = k % m
        powers = x ** np.arange(degree + 1) % m
        by_layer = np.moveaxis(coeffs @ powers[:len(table)].T % m, 2, 0)
        table &= powers @ by_layer % m @ powers.T % m == 0
        yield table


def _packed_rows(forms: _SearchForms, height_bound: int) -> np.ndarray:
    """The packed sieve: rows[_OFFSETS[k] + r * m + a] has bit j of word w set
    iff the cell (a, y, r) passes the table of m = _MODULI[k] (`_sieve_tables`),
    at y = 64 w + j - H, for every x residue a and every z residue r <= H (rows
    of larger r, which no slice reads, stay zero); the bits past column 2H are
    zero.

    The cells take one byte each before packing, in groups of at most
    _TILE_BYTES.
    """
    H = height_bound
    width = 2 * H + 1
    rows = np.zeros((int(_OFFSETS[-1]), -(-width // 64)), dtype="<u8")
    octets = rows.view(np.uint8)
    for m, table, start in zip(_MODULI, _sieve_tables(forms, H + 1), _OFFSETS):
        # column j of a row reads y residue (j - H) mod m, a period of m columns
        table, columns, periods = table.reshape(-1, m), np.arange(-H, m - H) % m, -(-width // m)
        group = max(1, _TILE_BYTES // (m * periods))
        for i in range(0, len(table), group):
            bits = np.tile(table[i:i + group, columns], periods)[:, :width]
            octets[start + i:start + i + len(bits), :-(-width // 8)] = np.packbits(
                bits, axis=1, bitorder="little")
    return rows


@dataclass(frozen=True)
class _Sieve:
    """A search's forms, height bound and packed sieve rows, built once per search."""

    forms: _SearchForms
    height_bound: int
    rows: np.ndarray


def _add_if_on_curve(forms: _SearchForms, height_bound: int, live, out: set) -> None:
    """Map live integer coordinates to the output, normalize, and check exactly."""
    pt = CurvePoint.from_integers(
        [sum(k * w for k, w in zip(row, live)) for row in forms.coordinate_map])
    if pt.height <= height_bound and not any(form_value(t, pt.coords) for t in forms.checks):
        out.add(pt)


def _confirm(forms: _SearchForms, height_bound: int, cell, out: set) -> None:
    """The points of the curve on the line (v : x : y : z) of a primitive cell.

    disc is a quadratic form and linear is linear in (x, y, z), so at a
    multiple k (x, y, z) the roots v scale by k: the check of a primitive
    cell finds the points of all its multiples.  When the quadric vanishes
    on the whole line (lead = linear = rest = 0), its points are the roots
    p / q of the cubic along the line, (p : q x : q y : q z); if the cubic
    vanishes there too, every such point in the box is tested.
    """
    H = height_bound
    live = (0, *cell)
    lin = form_value(forms.linear, live)
    if forms.lead:
        disc = form_value(forms.disc, live)
        s = math.isqrt(max(disc, 0))
        if s * s == disc:
            scale = 2 * forms.lead
            s *= forms.root_scale
            for v in {s - lin, -s - lin}:
                _add_if_on_curve(forms, H, (v, *(scale * w for w in cell)), out)
        return
    rest = form_value(forms.rest, live)
    if lin:
        _add_if_on_curve(forms, H, (-rest, *(lin * w for w in cell)), out)
        return
    if rest:
        return
    cubic = UniPoly([form_value(table, live) for table in forms.cubic_in_v])
    if cubic.is_zero:
        candidates = [(p, q) for q in range(1, H // max(map(abs, cell)) + 1)
                      for p in range(-H, H + 1) if math.gcd(p, q) == 1]
    elif cubic.degree < 1:
        candidates = []
    else:
        roots = (-f[0] for f, _ in factor_over_Q(cubic).factors if f.degree == 1)
        candidates = [(root.numerator, root.denominator) for root in roots]
    for p, q in candidates:
        _add_if_on_curve(forms, H, (p, *(q * w for w in cell)), out)


def _search_chunk(sieve: _Sieve, z_lo: int, z_hi: int) -> set:
    """Points from the half-box cells with z_lo <= z < z_hi; exact everywhere.

    The rows (z, x) of the chunk are sieved in tiles: a row is the AND of
    its packed rows, one per modulus, and only its nonzero bytes are
    unpacked.  Only primitive survivors are confirmed: a multiple k c of a
    cell c carries the points of c, and if c carries a point it survives
    too (R(c) = 0 and disc(c) is a square), in whichever chunk holds it.
    Half box: z >= 0, with y >= 0 when z = 0 and x > 0 when y = z = 0;
    negated cells give the same points.  The zero cell (0, 0, 0) can only
    hold the unit point of v, which the chunk holding z = 0 checks once.
    """
    forms, H, rows = sieve.forms, sieve.height_bound, sieve.rows
    width, words = 2 * H + 1, rows.shape[1]
    out = set()
    if z_lo == 0 < z_hi:
        _add_if_on_curve(forms, H, (1, 0, 0, 0), out)
    # the packed row of modulus k at (z, x) is rows[by_z[k, z - z_lo] + by_x[k, x + H]]
    moduli = np.array(_MODULI)[:, None]
    by_z = np.arange(z_lo, z_hi) % moduli * moduli
    by_x = _OFFSETS[:-1, None] + np.arange(-H, H + 1) % moduli
    # a tile is a run of rows in (z, x) order, so it reads the same number of
    # bytes at every height, one modulus at a time
    tile, n = max(1, _TILE_BYTES // (8 * len(_MODULI) * words)), (z_hi - z_lo) * width
    for lo in range(0, n, tile):
        z, x = np.divmod(np.arange(lo, min(lo + tile, n)), width)
        index = np.take(by_z, z, axis=1) + np.take(by_x, x, axis=1)
        acc = np.take(rows, index[0], axis=0)
        for more in index[1:]:
            acc &= np.take(rows, more, axis=0)
        # the nonzero words of the AND, their nonzero bytes, and their bits
        hits = np.flatnonzero(acc)
        octets = acc.ravel()[hits].view(np.uint8)
        hit = np.flatnonzero(octets)
        if hit.size:
            j = np.flatnonzero(np.unpackbits(octets[hit], bitorder="little"))
            k = hit[j >> 3]
            row, column = np.divmod(64 * hits[k >> 3] + 8 * (k & 7) + (j & 7), 64 * words)
            for cell in zip((x[row] - H).tolist(), (column - H).tolist(), (z_lo + z[row]).tolist()):
                if ((cell[2] > 0 or cell[1] > 0 or (cell[1] == 0 and cell[0] > 0))
                        and math.gcd(*cell) == 1):
                    _confirm(forms, H, cell, out)
    return out


# The sieve of the search that a pool worker serves, set in the worker by
# the pool's initializer
_worker_sieve: Optional[_Sieve] = None


def _set_worker_sieve(sieve: _Sieve) -> None:
    global _worker_sieve
    _worker_sieve = sieve


def _worker_chunk(z_lo: int, z_hi: int) -> set:
    return _search_chunk(_worker_sieve, z_lo, z_hi)


def worker_count(jobs: int, tasks: int) -> int:
    """Worker processes for `tasks` tasks at parallelism `jobs`, capped at the CPU count.

    The one helper for every process pool: search chunks here, and the
    criterion tasks of `report`.
    """
    return max(1, min(jobs, tasks, os.cpu_count() or 1))


def _search(curve, height_bound: int, jobs: int) -> set:
    """The engine: its slices split into chunks, run serially or in a process pool."""
    if not 0 <= height_bound <= MAX_HEIGHT_BOUND:
        raise ValueError(f"height bound must be in [0, {MAX_HEIGHT_BOUND}]")
    H = height_bound
    forms = _search_forms(curve)
    sieve = _Sieve(forms, H, _packed_rows(forms, H))
    # a pool only for a half box above _CELLS_PER_WORKER cells; one chunk
    # when serial, else four per worker, so that a worker on a slower CPU
    # does not hold up the rest.  The sieve is built once, here, and
    # reaches each worker once, through the pool's initializer.
    cells = (H + 1) * (2 * H + 1) ** 2
    workers = worker_count(jobs, H + 1) if cells > _CELLS_PER_WORKER else 1
    n_chunks = 4 * workers if workers > 1 else 1
    edges = [(H + 1) * i // n_chunks for i in range(n_chunks)] + [H + 1]
    lows, highs = zip(*((lo, hi) for lo, hi in zip(edges, edges[1:]) if lo < hi))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_set_worker_sieve,
                                 initargs=(sieve,)) as pool:
            partials = list(pool.map(_worker_chunk, lows, highs))
    else:
        partials = [_search_chunk(sieve, lo, hi) for lo, hi in zip(lows, highs)]
    return set().union(*partials)


def _by_height(pt: CurvePoint):
    return pt.height, pt.coords


def point_search(curve: TrinomialCurve, height_bound: int, jobs: int = 1) -> SearchResult:
    """All primitive points with max |coordinate| <= height_bound.

    Enumerates (b, c, d) in a half box and solves the quadric for a
    (constant leading coefficient).  The discriminant and the resultant
    of the quadric and the cubic in a are sieved modulo small primes;
    each primitive survivor cell gets an exact integer square root, and
    both roots are normalized by gcd and sign and checked on the height
    bound, the quadric and the cubic in exact integer arithmetic.  No
    completeness beyond the height bound is claimed.  A half box of at
    most _CELLS_PER_WORKER cells is searched in-process; a larger one by
    at most `jobs` worker processes, and no more than the CPUs or the
    slices.  Results are independent of the partitioning
    into parallel chunks.  A bound below 0 or above MAX_HEIGHT_BOUND
    raises ValueError; bound 0 gives an empty result.
    """
    points, degenerate = [], []
    for pt in _search(curve, height_bound, jobs):
        # b = c = d = 0 would make beta rational; cannot occur on the curve,
        # but route it to the degenerate list rather than dropping silently
        (degenerate if not any(pt.coords[1:]) else points).append(pt)
    return SearchResult(points=tuple(sorted(points, key=_by_height)),
                        degenerate=tuple(sorted(degenerate, key=_by_height)),
                        height_bound=height_bound)


def general_point_search(curve: GeneralCurve, height_bound: int) -> List[CurvePoint]:
    """Primitive integer 5-tuples on a general curve with height <= height_bound.

    The same engine as `point_search`, run serially: the live coordinates
    other than the solved one are enumerated in [-H, H], the solved one
    comes from the quadric (both roots of a square discriminant, or the
    single root when the quadric is linear in it, as on pure quintics),
    and the eliminated coordinate from the trace condition.  Each
    primitive survivor cell is confirmed once: its candidates are checked
    on the linear, quadric and cubic forms and the height bound on the
    full 5-tuple exactly.  A bound below 0 or above MAX_HEIGHT_BOUND
    raises ValueError; bound 0 gives an empty list.
    """
    return sorted(_search(curve, height_bound, 1), key=_by_height)
