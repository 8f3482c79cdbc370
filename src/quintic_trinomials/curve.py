"""The projective curve classifying trinomials with a root in a quintic field.

For K = Q[alpha] with alpha a root of x^5 + tx + t, elements
beta = a + b alpha + c alpha^2 + d alpha^3 + e alpha^4 whose
characteristic polynomial is a trinomial x^5 + rx + s correspond to the
points of a genus-four curve in P^3: the trace condition eliminates e
(4te = 5a), and the x^3- and x^2-coefficient conditions cut out a
quadric and a cubic in (a : b : c : d).

For a general quintic field the same construction is done symbolically:
the x^4, x^3, x^2 coefficients of the characteristic polynomial of a
generic element come from its trace forms Tr(beta^k), k = 1, 2, 3, which
are polynomials in the five coordinates with the power sums Tr(alpha^n)
as coefficients; one variable is eliminated through the (linear) trace
condition, and the raw quadric/cubic conditions are returned.  The
t-form constructor instead stores a cubic already reduced by a multiple
of the quadric (same ideal, fewer monomials); `normal_form_cubic`
reconciles the two presentations for comparisons.

Point search is one engine for both kinds of curve.  One live variable
v, with a square term if any has one, is solved from the quadric; the
other three are enumerated in a half box as row, column and slice, and a
rational v exists iff the integer discriminant of the quadric in v is a
perfect square.  (A quadric linear in v, as on pure quintics, gives v by
one division, or every v where both its coefficients vanish.)  The
engine sieves the discriminant modulo eleven small moduli with bit-packed
rows, as M. Stoll's `ratpoints` does: once per search, for every modulus,
z residue and x residue it packs "disc is a square mod m" over the columns
y into 64-bit words, and a row (z, x) of the box is then the AND of eleven
packed rows.  Rows are sieved in tiles of bounded size, so working memory
grows as O(H), not with the (2H+1)^2 cells of a slice.  Survivors of many
slices are confirmed in one block: exact square roots (int64 when a
precomputed bound allows, Python ints otherwise), the cubic modulo a
prime, and exact integer arithmetic on the curve's output coordinates for
the few remaining candidates.  Its integer coefficient tables are the
curve's own forms with denominators cleared.
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

from .qpoly import UniPoly
from .factor import factor_int, factor_over_Q
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


def _normal_form_mod_quadric(cubic: MultiPoly, quadric: MultiPoly) -> MultiPoly:
    """Reduce the cubic modulo the quadric, lex order, leading-term division."""
    lead_exp = max(quadric.terms)
    lead_coeff = quadric.terms[lead_exp]
    current = cubic
    while True:
        divisible = [e for e in current.terms
                     if all(x >= y for x, y in zip(e, lead_exp))]
        if not divisible:
            return current
        e = max(divisible)
        shift = tuple(x - y for x, y in zip(e, lead_exp))
        factor = MultiPoly(current.vars, {shift: current.terms[e] / lead_coeff})
        current = current - factor * quadric


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
        values = dict(zip(CURVE_VARS, (Fraction(v) for v in point.coords)))
        return (self.quadric.evaluate(values) == 0
                and self.cubic.evaluate(values) == 0)

    def normal_form_cubic(self) -> MultiPoly:
        return _normal_form_mod_quadric(self.cubic, self.quadric)


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
# general fields: symbolic construction
# ---------------------------------------------------------------------------

def _trace_form(power_sums, k: int) -> MultiPoly:
    """Tr(beta^k) for the generic beta = sum x_i alpha^i: sum of s_(i1+...+ik) x_i1...x_ik."""
    terms: Dict[Tuple[int, ...], Fraction] = {}
    for idx in itertools.product(range(5), repeat=k):
        key = tuple(idx.count(i) for i in range(5))
        terms[key] = terms.get(key, Fraction(0)) + power_sums[sum(idx)]
    return MultiPoly(FULL_VARS, terms)


def _generic_conditions(g: UniPoly) -> Tuple[MultiPoly, MultiPoly, MultiPoly]:
    """x^4, x^3, x^2 coefficients of the generic characteristic polynomial.

    With p_k = Tr(beta^k) these are -p1, (p1^2 - p2)/2 and
    -(p1^3 - 3 p1 p2 + 2 p3)/6 (Newton's identities).
    """
    sums = g.power_sums(12)
    p1, p2, p3 = (_trace_form(sums, k) for k in (1, 2, 3))
    return (-p1, (p1 * p1 - p2) * Fraction(1, 2),
            (p1 * p1 * p1 - 3 * p1 * p2 + 2 * p3) * Fraction(-1, 6))


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

    def full_coords(self, live_values: Dict[str, Fraction]) -> Tuple[Fraction, ...]:
        values = dict(live_values)
        values[self.eliminated] = self.elimination_expr.evaluate(
            {**values, self.eliminated: Fraction(0)})
        return tuple(values[v] for v in FULL_VARS)

    def contains(self, coords: Sequence[Fraction]) -> bool:
        values = dict(zip(FULL_VARS, (Fraction(v) for v in coords)))
        return (self.linear.evaluate(values) == 0
                and self.quadric.evaluate(values) == 0
                and self.cubic.evaluate(values) == 0)

    def normal_form_cubic(self) -> MultiPoly:
        return _normal_form_mod_quadric(self.cubic, self.quadric)


def curve_from_field(g: UniPoly, eliminate: Optional[str] = None) -> GeneralCurve:
    """Symbolic construction of the curve conditions for K = Q[x]/(g).

    The variable eliminated via the linear trace condition defaults to
    the one with the largest absolute coefficient, ties to the later
    variable; x^5+tx+t fields therefore eliminate the alpha^4 coordinate
    whenever |4t| >= 5.
    """
    if g.degree != 5 or g.lc != 1:
        raise ValueError("need a monic quintic")
    if not factor_over_Q(g).is_irreducible:
        raise ValueError(f"{g} is reducible over Q")
    linear, quad_raw, cubic_raw = _generic_conditions(g)
    coeffs = {}
    for name in FULL_VARS:
        c = linear.coefficient_of(name, 1)
        coeffs[name] = c.terms.get((0, 0, 0, 0, 0), Fraction(0))
    if eliminate is None:
        best = max(abs(c) for c in coeffs.values())
        eliminate = [n for n in FULL_VARS if abs(coeffs[n]) == best][-1]
    if coeffs[eliminate] == 0:
        raise ValueError(f"cannot eliminate {eliminate}: zero trace coefficient")
    # eliminated = -(rest of linear)/coeff
    rest = linear - MultiPoly.variable(FULL_VARS, eliminate) * coeffs[eliminate]
    expr = rest * (Fraction(-1) / coeffs[eliminate])
    return GeneralCurve(
        g=g,
        linear=linear,
        quadric=quad_raw.substitute(eliminate, expr),
        cubic=cubic_raw.substitute(eliminate, expr),
        eliminated=eliminate,
        elimination_expr=expr,
    )


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

# Sieve moduli, and _SQUARES[k][r] for r < m^2 + 2m: is r a square mod m = _MODULI[k]
_MODULI = (64, 63, 65, 11, 17, 19, 23, 29, 31, 37, 41)
_MODULI_PRIMES = {p for m in _MODULI for p in factor_int(m)}
_SQUARES = tuple(np.isin(np.arange(m * m + 2 * m) % m, np.arange(m) ** 2 % m) for m in _MODULI)
# The packed rows of modulus _MODULI[k] start at _OFFSETS[k], m^2 rows per modulus
_OFFSETS = np.cumsum((0, *(m * m for m in _MODULI)))

# A tile of the search gathers at most this many bytes of packed rows, and
# the rows are packed in groups of at most as many cells: working memory is
# the packed rows, O(H), plus O(_TILE_BYTES).  About _BLOCK sieve survivors
# are confirmed at once.
_TILE_BYTES = 2 ** 18
_BLOCK = 4096

# The cubic prefilter modulus: a product of two residues stays below 2^62.
_CUBIC_PRIME = 2 ** 31 - 1


@dataclass(frozen=True)
class _SearchForms:
    """Integer tables of a curve for the search engine, denominators cleared.

    The engine tables are over the live coordinates (v, x, y, z): the
    quadric is lead*v^2 + linear*v + rest, and (x, y, z) are enumerated as
    row, column and slice.  disc = linear^2 - 4 lead rest, divided by
    root_scale^2.  `coordinate_map` sends live coordinates to the curve's
    output coordinates, where every form of `checks` must vanish.
    """

    lead: int
    linear: _Table
    rest: _Table
    disc: _Table
    root_scale: int
    cubic_in_v: Tuple[_Table, ...]  # the cubic's coefficients of v^0, ..., v^3
    coordinate_map: Tuple[Tuple[int, ...], ...]
    checks: Tuple[_Table, ...]


def _cleared(form: MultiPoly) -> MultiPoly:
    return form * math.lcm(*(c.denominator for c in form.terms.values()))


def _table(form: MultiPoly, order: Sequence[str]) -> _Table:
    """The integral form's terms, with exponents over the variables `order`."""
    pos = [form.vars.index(n) for n in order]
    return tuple(sorted((tuple(e[i] for i in pos), int(c)) for e, c in form.terms.items()))


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
    quadric, cubic = _cleared(curve.quadric), _cleared(curve.cubic)
    names = quadric.vars
    solve = (next((n for n in live if quadric.coefficient_of(n, 2)), None)
             or next((n for n in live if quadric.degree_in(n) == 1), None))
    if solve is None:
        raise ValueError("quadric involves no live variable")
    order = (solve, *(n for n in live if n != solve))
    lead = quadric.coefficient_of(solve, 2).terms.get((0,) * len(names), 0)
    linear, rest = quadric.coefficient_of(solve, 1), quadric.coefficient_of(solve, 0)
    disc = _table(linear * linear - rest * (4 * lead), order)
    # A square factor of the content hides residues from the sieve, so the
    # engine sieves disc / root_scale^2 and scales its square roots back.
    content = math.gcd(*(k for _, k in disc))
    root_scale = 1
    for ell in _MODULI_PRIMES:
        while content % (root_scale * ell) ** 2 == 0:
            root_scale *= ell
    # live -> output coordinates, scaled by the elimination's denominator;
    # the eliminated coordinate (if any) is a linear form in the live ones
    den = math.lcm(*(c.denominator for c in expr.terms.values()))
    weights = {names[e.index(1)]: int(c * den) for e, c in expr.terms.items()}
    coordinate_map = tuple(
        tuple(den * (n == m) if n in order else weights.get(m, 0) for m in order) for n in names)
    return _SearchForms(
        lead=int(lead), linear=_table(linear, order), rest=_table(rest, order),
        disc=tuple((e, k // root_scale ** 2) for e, k in disc), root_scale=root_scale,
        cubic_in_v=tuple(_table(cubic.coefficient_of(solve, n), order) for n in range(4)),
        coordinate_map=coordinate_map,
        checks=tuple(_table(_cleared(f), names) for f in checks))


def _form_value(table: _Table, coords) -> int:
    total = 0
    for exps, k in table:
        for x, e in zip(coords, exps):
            for _ in range(e):
                k = k * x
        total += k
    return total


def _form_residues(table: _Table, coords, modulus: int):
    """The form modulo `modulus` < 2^31 at int64 arrays of absolute value
    below 2^32, reduced after every product."""
    total = 0
    for exps, k in table:
        k %= modulus
        for x, e in zip(coords, exps):
            for _ in range(e):
                k = k * x % modulus
        total = (total + k) % modulus
    return total


def _sieve_tables(disc: _Table, layers: int) -> Iterator[np.ndarray]:
    """For each m of _MODULI in turn, the table T with T[r, x, y] = (disc(x, y, r)
    is a square mod m), for residues x, y and r < min(m, layers)."""
    coeffs = {e[1:]: k for e, k in disc}
    for m, squares in zip(_MODULI, _SQUARES):
        kxx, kxy, kyy, kxz, kyz, kzz = (
            coeffs.get(e, 0) % m
            for e in ((2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)))
        x, y = np.arange(m)[:, None], np.arange(m)[None, :]
        fixed, by_z = ((kxx * x + kxy * y) * x + kyy * y * y) % m, (kxz * x + kyz * y) % m
        table = np.empty((min(m, layers), m, m), dtype=bool)
        for r in range(len(table)):
            # each part is reduced before the sum, which stays below len(squares)
            table[r] = squares[fixed + kzz * r * r % m + r * by_z]
        yield table


def _packed_rows(disc: _Table, height_bound: int) -> np.ndarray:
    """The packed sieve: rows[_OFFSETS[k] + r * m + a] has bit j of word w set iff
    disc(a, y, r) is a square mod m = _MODULI[k], at y = 64 w + j - H, for
    every x residue a and every z residue r <= H (rows of larger r, which no
    slice reads, stay zero); the bits past column 2H are zero.

    The cells take one byte each before packing, in groups of at most
    _TILE_BYTES.
    """
    H = height_bound
    width = 2 * H + 1
    words, nbytes = -(-width // 64), -(-width // 8)
    rows = np.zeros((int(_OFFSETS[-1]), words), dtype=np.uint64)
    group = max(1, _TILE_BYTES // width)
    for m, table, start in zip(_MODULI, _sieve_tables(disc, H + 1), _OFFSETS):
        # column j of a row reads y residue (j - H) mod m, a period of m columns
        table, columns = table.reshape(-1, m), np.arange(-H, m - H) % m
        for i in range(0, len(table), group):
            bits = np.tile(table[i:i + group, columns], -(-width // m))[:, :width]
            packed = np.zeros((len(bits), 8 * words), dtype=np.uint8)
            packed[:, :nbytes] = np.packbits(bits, axis=1, bitorder="little")
            rows[start + i:start + i + len(bits)] = packed.view("<u8")
    return rows


@dataclass(frozen=True)
class _Sieve:
    """A search's forms, height bound and packed sieve rows, built once per search."""

    forms: _SearchForms
    height_bound: int
    rows: np.ndarray


def _mod_p(values) -> np.ndarray:
    return (values % _CUBIC_PRIME).astype(np.int64)


def _add_if_on_curve(forms: _SearchForms, height_bound: int, live, out: set) -> None:
    """Map live integer coordinates to the output, normalize, and check exactly."""
    pt = CurvePoint.from_integers(
        [sum(k * w for k, w in zip(row, live)) for row in forms.coordinate_map])
    if pt.height <= height_bound and not any(_form_value(t, pt.coords) for t in forms.checks):
        out.add(pt)


def _add_roots(forms: _SearchForms, height_bound: int, out: set, x, y, z, scale, roots):
    """The candidates (v : scale x : scale y : scale z), v in each array of `roots`.

    x, y, z are int64 arrays, |x|, |y|, |z| <= height_bound.  The cubic is
    homogeneous, so at a candidate it is the sum of v^n scale^(3 - n)
    c_n(x, y, z), c_n its coefficient of v^n.  The sum is taken modulo a
    prime by Horner in v, and the few candidates where it vanishes are
    checked exactly.
    """
    P = _CUBIC_PRIME
    # the c_n are exact in int64 below this bound, else taken by residues
    exact = ((height_bound + 1) ** 3 * sum(abs(k) for table in forms.cubic_in_v for _, k in table)
             < 2 ** 63)
    cell, pscale = (0, x, y, z), _mod_p(scale)
    terms, power = [], 1
    for table in reversed(forms.cubic_in_v):
        c = _mod_p(x * 0 + _form_value(table, cell)) if exact else _form_residues(table, cell, P)
        terms.append(c * power % P)
        power = power * pscale % P
    for v in roots:
        pv = _mod_p(v)
        value = 0
        for term in terms:
            value = (value * pv + term) % P
        for i in np.flatnonzero(value == 0):
            s = int(scale[i])
            _add_if_on_curve(forms, height_bound,
                             (int(v[i]), s * int(x[i]), s * int(y[i]), s * int(z[i])), out)


def _confirm(forms: _SearchForms, height_bound: int, dtype, x, y, z, out: set) -> None:
    """Solve the quadric for v at the sieve survivors (x, y, z) and test the cubic.

    Half box: z >= 0, with y >= 0 when z = 0 and x > 0 when y = z = 0;
    negated cells give the same projective points.
    """
    H = height_bound
    keep = (z > 0) | (y > 0) | ((y == 0) & (x > 0))
    x, y, z = x[keep], y[keep], z[keep]
    cell = (0, *(w.astype(dtype) for w in (x, y, z)))
    zero = cell[1] * 0
    lin = zero + _form_value(forms.linear, cell)
    if forms.lead:
        disc = zero + _form_value(forms.disc, cell)
        keep = disc >= 0
        x, y, z, lin, disc = x[keep], y[keep], z[keep], lin[keep], disc[keep]
        if dtype is object:
            s = np.array([math.isqrt(v) for v in disc], dtype=object)
        else:
            # for disc = n^2 < 2^61 the float root is within 2^-22 of n, so
            # rounding recovers n; a non-square fails the test below either way
            s = np.rint(np.sqrt(disc.astype(np.float64))).astype(np.int64)
        keep = s * s == disc
        x, y, z, lin, s = x[keep], y[keep], z[keep], lin[keep], s[keep] * forms.root_scale
        _add_roots(forms, H, out, x, y, z, lin * 0 + 2 * forms.lead, (s - lin, -s - lin))
    else:
        # a quadric linear in v: v = -rest / lin, and every v where both vanish
        rest = zero + _form_value(forms.rest, cell)
        solved, free = lin != 0, (lin == 0) & (rest == 0)
        _add_roots(forms, H, out, x[solved], y[solved], z[solved], lin[solved],
                   (-rest[solved],))
        n, width = int(free.sum()), 2 * H + 1
        _add_roots(forms, H, out, *(np.repeat(w[free], width) for w in (x, y, z)),
                   np.ones(n * width, dtype=dtype),
                   (np.tile(np.arange(-H, H + 1).astype(dtype), n),))


def _search_chunk(sieve: _Sieve, z_lo: int, z_hi: int) -> set:
    """Points from the half-box cells with z_lo <= z < z_hi; exact everywhere.

    The rows (z, x) of the chunk are sieved in tiles: a row is the AND of
    its eleven packed rows, one per modulus, and only its nonzero bytes are
    unpacked.  Survivors of consecutive tiles are confirmed together, in
    blocks of about _BLOCK cells.  The zero cell (0, 0, 0) can only hold
    the unit point of v, which the chunk holding z = 0 checks once.
    """
    forms, H, rows = sieve.forms, sieve.height_bound, sieve.rows
    width, words = 2 * H + 1, rows.shape[1]
    # every exact value of `_confirm` fits int64 when this bound does
    bound = (H + 1) ** 2 * (forms.root_scale ** 2 * sum(abs(k) for _, k in forms.disc)
                            + sum(abs(k) for _, k in forms.linear + forms.rest)
                            + 2 * abs(forms.lead))
    dtype = np.int64 if bound < 2 ** 61 else object
    out = set()
    if z_lo == 0 < z_hi:
        _add_if_on_curve(forms, H, (1, 0, 0, 0), out)
    # the packed row of modulus k at (z, x) is rows[by_z[k, z] + by_x[k, x + H]]
    moduli = np.array(_MODULI)[:, None]
    by_z = np.arange(z_hi) % moduli * moduli
    by_x = _OFFSETS[:-1, None] + np.arange(-H, H + 1) % moduli
    # a tile is a rectangle of rows: whole slices, or part of one slice
    tile = max(1, _TILE_BYTES // (8 * len(_MODULI) * words))
    z_step, x_step = max(1, tile // width), min(tile, width)
    block, count = [], 0
    for z0 in range(z_lo, z_hi, z_step):
        for x0 in range(0, width, x_step):
            index = by_z[:, z0:z0 + z_step, None] + by_x[:, None, x0:x0 + x_step]
            acc = np.bitwise_and.reduce(rows[index.reshape(len(_MODULI), -1)], axis=0)
            # the nonzero words of the AND, their nonzero bytes, and their bits
            hits = np.flatnonzero(acc)
            octets = acc.ravel()[hits].astype("<u8", copy=False).view(np.uint8)
            hit = np.flatnonzero(octets)
            if hit.size:
                j = np.flatnonzero(np.unpackbits(octets[hit], bitorder="little"))
                k = hit[j >> 3]
                row, column = np.divmod(64 * hits[k >> 3] + 8 * (k & 7) + (j & 7), 64 * words)
                dz, dx = np.divmod(row, index.shape[2])
                block.append((x0 + dx - H, column - H, z0 + dz))
                count += row.size
            if count >= _BLOCK or (block and z0 + z_step >= z_hi and x0 + x_step >= width):
                _confirm(forms, H, dtype, *(np.concatenate(w) for w in zip(*block)), out)
                block, count = [], 0
    return out


# The sieve of the search that a pool worker serves, set in the worker by
# the pool's initializer
_worker_sieve: Optional[_Sieve] = None


def _set_worker_sieve(sieve: _Sieve) -> None:
    global _worker_sieve
    _worker_sieve = sieve


def _worker_chunk(z_lo: int, z_hi: int) -> set:
    return _search_chunk(_worker_sieve, z_lo, z_hi)


def _worker_count(jobs: int, tasks: int) -> int:
    """Worker processes for `tasks` tasks at parallelism `jobs`, capped at the CPU count.

    The one helper for every process pool: search chunks here, and the
    criterion tasks of `report`.
    """
    return max(1, min(jobs, tasks, os.cpu_count() or 1))


def _search(curve, height_bound: int, jobs: int) -> set:
    """The engine: its slices split into chunks, run serially or in a process pool."""
    if height_bound < 0:
        raise ValueError("height bound must be >= 0")
    H = height_bound
    forms = _search_forms(curve)
    sieve = _Sieve(forms, H, _packed_rows(forms.disc, H))
    # one chunk when serial; else four per worker, so that a worker on a
    # slower CPU does not hold up the rest.  The sieve is built once, here,
    # and reaches each worker once, through the pool's initializer.
    workers = _worker_count(jobs, H + 1)
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
    (constant leading coefficient).  The discriminant is sieved modulo
    small moduli, survivors get exact integer square roots, both roots
    are tested against the cubic modulo a prime, and the few that pass
    are normalized by gcd and sign and re-checked on the height bound,
    the quadric and the cubic in exact integer arithmetic.  No
    completeness beyond the height bound is claimed.  Results are
    independent of the partitioning into parallel chunks.  A negative
    bound raises ValueError; bound 0 gives an empty result.
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
    and the eliminated coordinate from the trace condition.  Candidates
    pass the cubic modulo a prime, then the linear, quadric and cubic
    forms and the height bound on the full 5-tuple exactly.  A negative
    bound raises ValueError; bound 0 gives an empty list.
    """
    return sorted(_search(curve, height_bound, 1), key=_by_height)
