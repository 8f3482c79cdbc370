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
the AND of five packed rows.  Both forms are homogeneous, so that test
is the same at every cell of a line through the origin mod p: it is
evaluated once at each of the p^2 + p + 1 points of P^2(F_p), and the
p^3 residue cells read it through an index of their lines that depends
only on p.  The same evaluation says which rows are live: for
z != 0 mod p the row (z, x) has a cell that passes mod p iff x / z mod p
lies in the set of x where some (x : y : 1) passes, and the row z = 0 is
read from the line at infinity, so each prime gives one p x p table.  A
search makes one pass over its primes, one evaluation each, and ANDs the
liveness of the rows first, a coarse test before the fine one as in
`ratpoints`, then gathers only the rows left (10-14% on the paper's
curves).  On a half box above _LIVENESS_CELLS cells four more primes, 31,
37, 41 and 43, join that coarse test with no packed rows; they leave 2-4%
of the rows live.  The liveness of each prime is packed over the columns
x like the sieve over y, so a tile's coarse test is an AND of words.
Rows are sieved in tiles of a fixed size, so working memory grows as
O(H), not with the (2H+1)^2 cells of a slice.
A multiple of a cell carries the same projective points as the cell, and
the primitive cell of a point survives the sieve too, so only primitive
survivors are confirmed, each once, in Python integers: an exact square
root of disc, and the quadric, the cubic and the height bound on the
curve's output coordinates.  Its integer coefficient tables are the
numerators of the curve's own forms.  The slices are split into
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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .qpoly import UniPoly, clear_denominators, integer_power_sums
from .factor import factor_over_Q
from .multipoly import MultiPoly
from .numberfield import FieldElement, charpoly_mod
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
        return CurvePoint.from_integers(clear_denominators([Fraction(v) for v in values])[1])

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
    # no two terms of a t-form share their (a, b, c, d) part; t = p/q enters
    # as p^k q^(2 - k) over q^2, t having degree at most 2 in either form
    p, q = t.numerator, t.denominator
    powers = (q * q, p * q, p * p)
    quadric, cubic = (MultiPoly(CURVE_VARS, {e[:4]: k * powers[e[4]] for e, k in form.terms.items()},
                                q * q)
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

    def contains(self, coords: Sequence[Fraction]) -> bool:
        return _forms_vanish((self.linear, self.quadric, self.cubic), coords)


def _forms_vanish(forms: Sequence[MultiPoly], coords: Sequence[Fraction]) -> bool:
    """Whether the numerators of homogeneous forms all vanish at the
    coordinates, one per variable: rational ones are scaled to integers by
    the lcm of their denominators."""
    width = len(forms[0].vars)
    if len(coords) != width:
        raise ValueError(f"need {width} coordinates, got {len(coords)}")
    if not all(isinstance(v, int) for v in coords):
        coords = clear_denominators([Fraction(v) for v in coords])[1]
    return not any(form_value(form.terms.items(), coords) for form in forms)


def curve_from_field(g: UniPoly) -> GeneralCurve:
    """The curve conditions for K = Q[x]/(g), from integer trace forms.

    The linear trace condition eliminates the coordinate x_k with the
    largest |Tr(alpha^k)|, the later one on a tie; x^5+tx+t fields
    therefore eliminate the alpha^4 coordinate whenever |4t| >= 5.  The
    choice changes how the curve is written, not which curve it is, and
    S_k is never 0, as |S_k| >= S_0 = 5 d^12.

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
    if not factor_over_Q(g).is_irreducible:
        raise ValueError(f"{g} is reducible over Q")
    d, G = g.integral_rescaling()
    scale = d ** 12
    S = [t * d ** (12 - m) for m, t in enumerate(integer_power_sums(G, 12))]
    k = max(range(5), key=lambda i: (abs(S[i]), i))
    units = [tuple(int(i == j) for j in range(5)) for i in range(5)]
    # linear = -Tr(beta) = -sum s_i x_i, and x_k = -sum s_i x_i / s_k over the live i
    linear = MultiPoly(FULL_VARS, {units[i]: -S[i] for i in range(5)}, scale)
    expr = MultiPoly(FULL_VARS, {units[i]: -S[i] for i in range(5) if i != k}, S[k])
    # gamma_i as its two (coefficient, power of alpha) terms
    gamma = {i: ((S[k], i), (-S[i], k)) for i in range(5) if i != k}
    forms = []
    for n in (2, 3):
        terms = {}
        for idx in itertools.combinations_with_replacement(gamma, n):
            # scale * Tr(gamma_i1 ... gamma_in), each S_m standing for scale * s_m
            trace = sum(math.prod(c for c, _ in choice) * S[sum(p for _, p in choice)]
                        for choice in itertools.product(*(gamma[i] for i in idx)))
            exps = tuple(idx.count(i) for i in range(5))
            count = math.factorial(n) // math.prod(map(math.factorial, exps))
            terms[exps] = count * trace
        forms.append(MultiPoly(FULL_VARS, terms, -n * S[k] ** n * scale))
    quadric, cubic = forms
    return GeneralCurve(g=g, linear=linear, quadric=quadric, cubic=cubic,
                        eliminated=FULL_VARS[k], elimination_expr=expr)


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

# The sieve's prime moduli.  With the resultant in the sieve, more or larger
# packed moduli cost more than the survivors they remove.  A modulus costs
# each search about m^2 evaluations of the two forms and one gather of m^3
# cells.
_MODULI = (11, 17, 19, 23, 29)

# The liveness-only primes: on a large box each sieves whole rows (z, x)
# through one m x m table, with no packed rows and no gather of m^3 cells.
_LIVENESS_MODULI = (31, 37, 41, 43)

# _SQUARES[m][r] for r < m: is r a square mod m, for every sieve prime m
_SQUARES = {m: np.isin(np.arange(m), np.arange(m) ** 2 % m) for m in _MODULI + _LIVENESS_MODULI}

# The product of every sieve prime, below 2^43: a form's coefficients are
# reduced modulo it once per search, then modulo each prime in int64.
_MODULUS_PRODUCT = math.prod(_MODULI + _LIVENESS_MODULI)


def _orbit_index(m: int) -> np.ndarray:
    """I[r, x, y], the point of P^2(F_m) on the line through the residue cell
    (x, y, r) for the prime m: x' m + y' for (x' : y' : 1), m^2 + x' for
    (x' : 1 : 0), m^2 + m for (1 : 0 : 0) and m^2 + m + 1 for the zero cell."""
    inverse = np.array([0, *(pow(r, -1, m) for r in range(1, m))])
    residues, units = np.arange(m), inverse[1:, None, None]
    index = np.empty((m, m, m), dtype=np.uint16)
    index[1:] = residues[:, None] * units % m * m + residues * units % m
    index[0] = m * m + residues[:, None] * inverse % m
    index[0, :, 0] = m * m + m
    index[0, 0, 0] = m * m + m + 1
    return index


def _slope_index(m: int) -> np.ndarray:
    """S[r, x] = x / r mod m for the prime m and r != 0: the cell (x, y, r) lies
    on the line of (S[r, x] : y' : 1) for y' = y / r.  The row r = 0 is zero."""
    inverse = np.array([0, *(pow(r, -1, m) for r in range(1, m))])
    return (np.arange(m) * inverse[:, None] % m).astype(np.uint8)


# _ORBITS[k] = _orbit_index(_MODULI[k]) and _SLOPES[k] = _slope_index(m) for the
# k-th m of _MODULI + _LIVENESS_MODULI, built once at import: they depend on m,
# not on a curve
_ORBITS = tuple(_orbit_index(m) for m in _MODULI)
_SLOPES = tuple(_slope_index(m) for m in _MODULI + _LIVENESS_MODULI)

# The packed rows of modulus _MODULI[k] start at _OFFSETS[k], m^2 rows per modulus
_OFFSETS = np.cumsum((0, *(m * m for m in _MODULI)))

# The largest height bound a search takes: the packed sieve is 2141 rows of
# ceil((2H + 1) / 64) 64-bit words, 8.8 MB at this bound
MAX_HEIGHT_BOUND = 1 << 14

# A tile of the search holds at most this many bytes of live-row positions
# (or one slice) and reads at most this many bytes of packed rows at a time,
# and the rows are packed in groups of at most as many cells: working memory
# is the packed rows, O(H), plus O(_TILE_BYTES).
_TILE_BYTES = 2 ** 18

# A search starts a process pool only when its half box has more than this
# many cells; a smaller box is searched in-process.  The half box of height
# H has (H + 1)(2H + 1)^2 cells, and a pool costs 10-25 ms to start.
# Measured on 2 CPUs (Python 3.11), with the liveness rows of
# _LIVENESS_MODULI, jobs 2 took this many times the wall time of jobs 1 on
# t = 6/5, 19/14 and -3125/20736 (medians of 5-7 runs, two rounds):
#   H = 512: 3.0-3.4    H = 600: 2.5-2.7    H = 700: 2.1-2.4    H = 800: 1.1-2.2
#   H = 900: 0.9-1.7    H = 1000: 0.86-1.03    H = 1024: 0.96-1.12
#   H = 1200: 0.70-0.92    H = 1600: 0.65-0.80
# so two workers break even near H = 1000, about 2^32 cells; 2^32 (a pool
# from H = 1024) keeps the searches that mostly lose in-process.
_CELLS_PER_WORKER = 2 ** 32

# A search adds the rows of _LIVENESS_MODULI to its liveness masks only when
# its half box has more than this many cells: their four tables cost about
# 0.3 ms a search to build.  Measured on 2 CPUs (Python 3.11), point_search
# on t = 6/5, -3125/20736, 19/14, 7/3, 2/5 and -17/8 took this many times its
# time without them (the six searches' medians of 11 alternating runs):
#   H = 30: 1.33    H = 60: 1.27    H = 80: 1.18    H = 100: 1.12
#   H = 120: 1.04   H = 150: 0.90   H = 200: 0.72   H = 300: 0.50
# so they break even near H = 130, about 2^23 cells (tables from H = 128).
_LIVENESS_CELLS = 2 ** 23


@dataclass(frozen=True)
class _SearchForms:
    """Integer tables of a curve for the search engine, the forms' numerators.

    The engine tables are over the live coordinates (v, x, y, z): the
    quadric is lead*v^2 + linear*v + rest, and (x, y, z) are enumerated as
    row, column and slice.  disc = linear^2 - 4 lead rest, divided by
    root_scale^2.  `resultant` is `table_resultant`'s Res_v(quadric, cubic)
    divided by its content, a form in (x, y, z) that vanishes at every cell
    of a point of the curve.  Both come from one product kernel over the
    tables `split_by_variable` cuts from the forms.  `coordinate_map`
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


def split_by_variable(table: _Table, degree: int) -> Tuple[_Table, ...]:
    """The coefficients of v^0, ..., v^degree of a table whose first exponent
    is that of v, each a table with the exponent of v zero."""
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

# the discriminant b^2 - 4 a c of the quadric in v, in the same terms
_DISCRIMINANT_TERMS = ((1, 0, "bb"), (-4, 1, "c"))


def _sum_of_products(lead: int, factors: Dict[str, _Table], terms) -> _Table:
    """The sum over the (coefficient, power, names) terms of coefficient times
    lead^power times the product of the named tables, in integer arithmetic.
    The tables are over (v, ...) with the exponent of v zero, and so is the sum.
    """
    # the exponents after v are one int, a byte each, so that a product adds
    # them (every exponent here is at most 7); `products` holds each factor
    # and the product of each prefix of a term's names, shared by the terms
    width = next((len(e) - 1 for table in factors.values() for e, _ in table), 0)
    products = {name: {int.from_bytes(bytes(e[1:]), "big"): k for e, k in table}
                for name, table in factors.items()}
    total: Dict[int, int] = {}
    for coeff, power, names in terms:
        for i in range(2, len(names) + 1):
            if names[:i] not in products:
                product: Dict[int, int] = {}
                for e1, k1 in products[names[:i - 1]].items():
                    for e2, k2 in products[names[i - 1]].items():
                        product[e1 + e2] = product.get(e1 + e2, 0) + k1 * k2
                products[names[:i]] = product
        scale = coeff * lead ** power
        for e, k in products[names].items():
            total[e] = total.get(e, 0) + scale * k
    return tuple(sorted(((0, *e.to_bytes(width, "big")), k) for e, k in total.items() if k))


def table_resultant(lead: int, linear: _Table, rest: _Table, cubic_in_v) -> _Table:
    """Res_v(lead v^2 + linear v + rest, cubic) in integer arithmetic, for a
    cubic of degree at most 3 in v given as its coefficients of v^0, v^1, ...:
    a table over (v, ...) with the exponent of v zero, content not divided out.
    The resultant is A quadric + B cubic for integer forms A and B, so it
    vanishes wherever both do, at every rational v (H. Cohen, GTM 138, 3.3).

    With lead = 0 Sylvester's formula is -d Res_v(linear v + rest, cubic),
    identically zero when d is; a quadric linear in v takes the sum of the
    cubic's coefficients of v^k times (-rest)^k linear^(n - k) instead, n the
    cubic's degree in v.
    """
    terms = _RESULTANT_TERMS
    if not lead:
        n = max(k for k, table in enumerate(cubic_in_v) if table)
        terms = tuple(((-1) ** k, 0, "b" * (n - k) + "c" * k + "gfed"[k]) for k in range(n + 1))
    return _sum_of_products(lead, dict(zip("bcgfed", (linear, rest, *cubic_in_v))), terms)


def _search_forms(curve) -> _SearchForms:
    """Engine tables of a TrinomialCurve or a GeneralCurve.

    The solved variable v is the first live variable with a square term,
    else the first of degree 1; for t-form curves (v; x, y, z) = (a; b, c, d).
    """
    if isinstance(curve, GeneralCurve):
        live, expr = curve.live_vars, curve.elimination_expr
        checks = (curve.linear, curve.quadric, curve.cubic)
    else:
        live, expr = CURVE_VARS, MultiPoly(CURVE_VARS)
        checks = (curve.quadric, curve.cubic)
    names = curve.quadric.vars
    exponents = [[e[names.index(n)] for e in curve.quadric.terms] for n in live]
    solve = (next((n for n, es in zip(live, exponents) if 2 in es), None)
             or next((n for n, es in zip(live, exponents) if max(es, default=-1) == 1), None))
    if solve is None:
        raise ValueError("quadric involves no live variable")
    order = (solve, *(n for n in live if n != solve))
    rest, linear, square = split_by_variable(curve.quadric.table(order), 2)
    lead = next((k for e, k in square if not any(e)), 0)
    disc = _sum_of_products(lead, {"b": linear, "c": rest}, _DISCRIMINANT_TERMS)
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
    weights = {names[e.index(1)]: k for e, k in expr.terms.items()}
    coordinate_map = tuple(
        tuple(expr.den * (n == m) if n in order else weights.get(m, 0) for m in order)
        for n in names)
    cubic_in_v = split_by_variable(curve.cubic.table(order), 3)
    resultant = table_resultant(lead, linear, rest, cubic_in_v)
    # without its content, the resultant vanishes at the same cells and sieves
    # moduli that share a factor with the content
    res_content = math.gcd(*(k for _, k in resultant)) or 1
    return _SearchForms(
        lead=lead, linear=linear, rest=rest,
        disc=tuple((e, k // root_scale ** 2) for e, k in disc), root_scale=root_scale,
        cubic_in_v=cubic_in_v, resultant=tuple((e, k // res_content) for e, k in resultant),
        coordinate_map=coordinate_map,
        checks=tuple(f.table(names) for f in checks))


def form_value(table: _Table, coords) -> int:
    """The value at integer coordinates of an integer table, or of any
    (exponents, int) pairs, such as a form's `terms.items()`."""
    total = 0
    for exps, k in table:
        total += k * math.prod(map(pow, coords, exps))
    return total


def _reduced_forms(forms: _SearchForms) -> np.ndarray:
    """C[f, i, j, k], the x^i y^j z^k coefficient of disc (f = 0) and of the
    resultant (f = 1), reduced modulo _MODULUS_PRODUCT."""
    degree = max((sum(e) for e, _ in forms.resultant), default=0)
    cubes = np.zeros((2, *(max(degree + 1, 3),) * 3), dtype=np.int64)
    for f, table in enumerate((forms.disc, forms.resultant)):
        for e, k in table:
            cubes[(f, *e[1:])] = k % _MODULUS_PRODUCT
    return cubes


def _predicate(reduced: np.ndarray, m: int) -> np.ndarray:
    """Whether disc is a square mod m and resultant = 0 mod m at each point of
    P^2(F_m) and at the zero cell, numbered as in _orbit_index: (x : y : 1) at
    x m + y, (x : 1 : 0) at m^2 + x, (1 : 0 : 0) and the zero cell last.  Both
    forms are homogeneous, so the test is the same at every cell of a line
    through the origin."""
    cubes = reduced % m
    # a form at (x, y, z) is powers[x] . C_z . powers[y], with C_z[i, j] the
    # sum over k of its x^i y^j z^k coefficient times z^k: C_1 sums over k,
    # and C_0 is the slice k = 0; powers[1] = (1, 1, ...), powers[0] = (1, 0, ...)
    powers = np.arange(m)[:, None] ** np.arange(cubes.shape[-1]) % m
    flat = cubes[..., 0]
    values = np.concatenate((
        (powers @ (cubes.sum(axis=3) % m) % m @ powers.T).reshape(2, -1),
        flat.sum(axis=2) % m @ powers.T, flat[:, :, 0].sum(axis=1)[:, None],
        flat[:, :1, 0]), axis=1) % m
    return _SQUARES[m][values[0]] & (values[1] == 0)


def _pack_columns(table: np.ndarray, height_bound: int, out: np.ndarray) -> None:
    """Pack the rows of an n x m table over the 2H + 1 columns of a slice: row
    i of `out`, of 64-bit words, gets bit j of word w set iff
    table[i, (64 w + j - H) mod m], a period of m columns; the bits past
    column 2H stay zero.  The cells take one byte each before packing, in
    groups of at most _TILE_BYTES."""
    H, m = height_bound, table.shape[1]
    width = 2 * H + 1
    octets = out.view(np.uint8)
    columns, periods = np.arange(-H, m - H) % m, -(-width // m)
    group = max(1, _TILE_BYTES // (m * periods))
    for i in range(0, len(table), group):
        bits = np.tile(table[i:i + group, columns], periods)[:, :width]
        octets[i:i + len(bits), :-(-width // 8)] = np.packbits(bits, axis=1, bitorder="little")


@dataclass(frozen=True)
class _Sieve:
    """A search's forms, height bound, packed sieve rows and packed row
    liveness, built once per search by `_build_sieve`.

    rows[_OFFSETS[k] + r m + a] has bit j of word w set iff the cell (a, y, r)
    passes the sieve test mod m = _MODULI[k], at y = 64 w + j - H, for every x
    residue a and every z residue r <= H (rows of larger r, which no slice
    reads, stay zero); the bits past column 2H are zero.  A row (z, x) is
    live modulo m when some y residue passes at (x, y, z) mod m, for the five
    packed moduli and, on a half box above _LIVENESS_CELLS cells, the primes
    of _LIVENESS_MODULI.  live[k][r] packs the liveness of the rows (r, x) mod
    the k-th of these moduli over the columns x + H of a slice, as
    `_pack_columns` packs; a row that is not live modulo some m holds no
    survivor.  When 2H + 1 < m a live row can have an empty packed row, which
    the AND of the packed rows drops."""

    forms: _SearchForms
    height_bound: int
    rows: np.ndarray
    live: Tuple[np.ndarray, ...]


def _build_sieve(forms: _SearchForms, height_bound: int) -> _Sieve:
    """One pass over the search's moduli, one `_predicate` evaluation each.

    For r != 0 the cell (a, y, r) lies on the line of (a / r : y / r : 1), and
    y / r runs over every residue, so the row (r, a) is live iff a / r lies in
    the set of x where some (x : y : 1) passes.  The row r = 0 reads the line
    at infinity: (a : y : 0) is (1 : 0 : 0) or some (x : 1 : 0) with x != 0
    when a != 0, and the zero cell or (0 : 1 : 0) when a = 0.
    """
    H = height_bound
    moduli = _MODULI + _LIVENESS_MODULI if _half_box(H) > _LIVENESS_CELLS else _MODULI
    reduced = _reduced_forms(forms)
    words = -(-(2 * H + 1) // 64)
    rows = np.zeros((int(_OFFSETS[-1]), words), dtype="<u8")
    live = tuple(np.zeros((m, words), dtype="<u8") for m in moduli)
    for k, (m, slopes, packed) in enumerate(zip(moduli, _SLOPES, live)):
        passes = _predicate(reduced, m)
        if k < len(_MODULI):
            _pack_columns(np.take(passes, _ORBITS[k][:H + 1]).reshape(-1, m), H,
                          rows[_OFFSETS[k]:_OFFSETS[k + 1]])
        table = np.take(passes[:m * m].reshape(m, m).any(axis=1), slopes)
        table[0] = passes[m * m + 1:m * m + m + 1].any()
        table[0, 0] = passes[m * m] | passes[m * m + m + 1]
        _pack_columns(table, H, packed)
    return _Sieve(forms, H, rows, live)


def _half_box(height_bound: int) -> int:
    """The cells (x, y, z) with z in [0, H] and x, y in [-H, H]."""
    return (height_bound + 1) * (2 * height_bound + 1) ** 2


def _set_bits(words: np.ndarray) -> np.ndarray:
    """The positions 64 w + j of the set bits j of the words w of an array of
    64-bit words, in increasing order; a bit of a 2-D array of W words a row
    is at row * 64 W + column.  Only the nonzero words and their nonzero
    bytes are unpacked."""
    hits = np.flatnonzero(words)
    octets = words.ravel()[hits].view(np.uint8)
    hit = np.flatnonzero(octets)
    j = np.flatnonzero(np.unpackbits(octets[hit], bitorder="little"))
    k = hit[j >> 3]
    return 64 * hits[k >> 3] + 8 * (k & 7) + (j & 7)


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

    The rows (z, x) of the chunk are sieved in tiles of slices.  A tile's
    live rows are the set bits of the AND of each slice's liveness rows,
    live[k][z mod m] for the five packed moduli, and the four liveness-only
    primes on a large box; other rows have no cell that passes the sieve
    modulo some m.  Only the live rows are gathered: each is the AND of its
    five packed rows, and only the nonzero bytes of either AND are unpacked.
    Only primitive survivors are confirmed: a multiple k c of a cell c
    carries the points of c, and if c carries a point it survives too
    (R(c) = 0 and disc(c) is a square), in whichever chunk holds it.
    Half box: z >= 0, with y >= 0 when z = 0 and x > 0 when y = z = 0;
    negated cells give the same points.  The zero cell (0, 0, 0) can only
    hold the unit point of v, which the chunk holding z = 0 checks once.
    """
    forms, H, rows = sieve.forms, sieve.height_bound, sieve.rows
    width, words = 2 * H + 1, rows.shape[1]
    out = set()
    if z_lo == 0 < z_hi:
        _add_if_on_curve(forms, H, (1, 0, 0, 0), out)
    # the moduli of the liveness rows, the five packed ones first
    moduli = np.array([len(live) for live in sieve.live])[:, None]
    packed = moduli[:len(_MODULI)]
    # x mod m at each column x + H of a slice, one row per packed modulus
    residues = (np.arange(-H, H + 1) % packed).astype(np.uint8)
    # live-row positions take 8 bytes each
    slices = max(1, _TILE_BYTES // (8 * width))
    group = max(1, _TILE_BYTES // (8 * len(_MODULI) * words))
    for z0 in range(z_lo, z_hi, slices):
        z_residues = np.arange(z0, min(z0 + slices, z_hi)) % moduli
        mask = sieve.live[0][z_residues[0]]
        for live, zs in zip(sieve.live[1:], z_residues[1:]):
            mask &= live[zs]
        live_rows = _set_bits(mask)
        # the packed row of modulus k at (z0 + i, x) is rows[firsts[k, i] + residues[k, x + H]]
        firsts = _OFFSETS[:-1, None] + z_residues[:len(_MODULI)] * packed
        for lo in range(0, live_rows.size, group):
            z, x = np.divmod(live_rows[lo:lo + group], 64 * words)
            index = np.take(firsts, z, axis=1) + np.take(residues, x, axis=1)
            acc = np.take(rows, index[0], axis=0)
            for more in index[1:]:
                acc &= np.take(rows, more, axis=0)
            row, column = np.divmod(_set_bits(acc), 64 * words)
            for cell in zip((x[row] - H).tolist(), (column - H).tolist(), (z0 + z[row]).tolist()):
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
    sieve = _build_sieve(forms, H)
    # a pool only for a half box above _CELLS_PER_WORKER cells; one chunk
    # when serial, else four per worker, so that a worker on a slower CPU
    # does not hold up the rest.  The sieve is built once, here, and
    # reaches each worker once, through the pool's initializer.
    workers = worker_count(jobs, H + 1) if _half_box(H) > _CELLS_PER_WORKER else 1
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
