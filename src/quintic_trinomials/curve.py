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

Point search on a t-form curve enumerates integer (b, c, d) in a half
box and solves the quadric for a: a rational root exists iff the
integer discriminant is a perfect square.  One engine serves every t.
It sieves the discriminant modulo small moduli, takes exact square
roots of the survivors (int64 when a precomputed bound allows, Python
ints otherwise), tests the cubic modulo a prime, and confirms the few
remaining candidates in exact integer arithmetic.  Its integer
coefficient tables are the curve's own forms with denominators cleared.
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

from .qpoly import UniPoly, is_rational_square
from .factor import factor_over_Q
from .multipoly import MultiPoly
from .numberfield import NumberField, FieldElement, charpoly_mod
from .trinomial import Trinomial, EquivClass, equiv_class

CURVE_VARS = ("a", "b", "c", "d")
FULL_VARS = ("a", "b", "c", "d", "e")

T_EXCLUDED = Fraction(-3125, 256)


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
    quadric = MultiPoly.from_spec(CURVE_VARS, [
        (-5, {"a": 2}), (50, {"a": 1, "b": 1}),
        (32 * t, {"b": 1, "d": 1}), (16 * t, {"c": 2}), (40 * t, {"c": 1, "d": 1}),
    ])
    cubic = MultiPoly.from_spec(CURVE_VARS, [
        (-10, {"a": 3}), (25, {"a": 2, "b": 1}), (-125, {"a": 2, "c": 1}),
        (-160 * t, {"a": 1, "c": 1, "d": 1}), (-100 * t, {"a": 1, "d": 2}),
        (64 * t, {"b": 2, "c": 1}), (80 * t, {"b": 2, "d": 1}), (80 * t, {"b": 1, "c": 2}),
        (-64 * t ** 2, {"c": 1, "d": 2}), (-48 * t ** 2, {"d": 3}),
    ])
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
    assert e == curve.e_coordinate(a), "trace relation must hold for trinomial shape"
    return CurvePoint.from_rationals((a, b, c, d))


def field_L_polynomial(t: Fraction) -> UniPoly:
    """Degree-10 polynomial defining the quadratic-times-cubic splitting field."""
    t = Fraction(t)
    if t == 0:
        raise ValueError("t must be nonzero")
    return UniPoly([-t ** 2, 4 * t ** 2, -4 * t ** 2, 0, 0, -11 * t, -3 * t, 0, 0, 0, 1])


# ---------------------------------------------------------------------------
# point search on t-form curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchResult:
    points: Tuple[CurvePoint, ...]
    degenerate: Tuple[CurvePoint, ...]
    height_bound: int


# (exponents over (a, b, c, d), integer coefficient) pairs
_Table = Tuple[Tuple[Tuple[int, ...], int], ...]

# Sieve moduli.  _SQUARE_SUMS[m][i, j] says whether i + j is a square mod m,
# so one row of a d-slice is one gather from a row of the table.
_MODULI = (64, 63, 65, 11, 17, 19, 23, 29, 31, 37, 41)


def _square_sums(m: int) -> np.ndarray:
    squares = np.zeros(m, dtype=bool)
    squares[[r * r % m for r in range(m)]] = True
    r = np.arange(m)
    return squares[(r[:, None] + r[None, :]) % m]


_SQUARE_SUMS = {m: _square_sums(m) for m in _MODULI}

# The cubic prefilter modulus: a product of two residues stays below 2^62.
_CUBIC_PRIME = 2 ** 31 - 1


@dataclass(frozen=True)
class _SearchForms:
    """Integer tables of a t-form curve, denominators cleared.

    With the quadric written lead*a^2 + linear*a + rest, integer (b, c, d)
    gives a = (-linear +- s) / (2 lead) where s^2 is the discriminant
    linear^2 - 4 lead rest = root_scale^2 (row(b; disc_b) + row(c; disc_c)),
    see `_row`.
    """

    quadric: _Table
    cubic: _Table
    cubic_in_a: Tuple[_Table, ...]  # the cubic's coefficients of a^0, ..., a^3
    lead: int
    linear: _Table
    root_scale: int
    disc_b: Tuple[int, int, int]
    disc_c: Tuple[int, int, int]


def _cleared(form: MultiPoly) -> MultiPoly:
    return form * math.lcm(*(c.denominator for c in form.terms.values()))


def _table(form: MultiPoly) -> _Table:
    return tuple(sorted((e, int(c)) for e, c in form.terms.items()))


def _search_forms(curve: TrinomialCurve) -> _SearchForms:
    quadric = _cleared(curve.quadric)
    lead = quadric.coefficient_of("a", 2)
    linear = quadric.coefficient_of("a", 1)
    disc = linear * linear - lead * quadric.coefficient_of("a", 0) * 4
    k = {e[1:]: int(c) for e, c in disc.terms.items()}
    if k.get((1, 1, 0)):
        raise ValueError("the discriminant has a b*c term: its rows do not separate")
    # A square factor of the content hides residues from the sieve, so the
    # engine sieves disc / root_scale^2 and scales its square roots back.
    content = math.gcd(*k.values())
    root_scale = 1
    for ell in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):  # primes of the moduli
        while content % (root_scale * ell) ** 2 == 0:
            root_scale *= ell
    k = {e: v // root_scale ** 2 for e, v in k.items()}
    cubic = _cleared(curve.cubic)
    return _SearchForms(
        quadric=_table(quadric), cubic=_table(cubic),
        cubic_in_a=tuple(_table(cubic.coefficient_of("a", n)) for n in range(4)),
        lead=int(lead.terms[(0, 0, 0, 0)]), linear=_table(linear), root_scale=root_scale,
        disc_b=(k.get((2, 0, 0), 0), k.get((1, 0, 1), 0), k.get((0, 0, 2), 0)),
        disc_c=(k.get((0, 2, 0), 0), k.get((0, 1, 1), 0), 0))


def _row(k, x, d):
    """k[0] x^2 + k[1] x d + k[2] d^2: one row of the quadric discriminant."""
    return (k[0] * x + k[1] * d) * x + k[2] * d * d


def _form_value(table: _Table, coords) -> int:
    total = 0
    for exps, k in table:
        for x, e in zip(coords, exps):
            k = k * x ** e
        total += k
    return total


def _form_residues(table: _Table, coords, modulus: int):
    """The form at residue arrays in [0, modulus), reduced after every product."""
    total = 0
    for exps, k in table:
        k %= modulus
        for x, e in zip(coords, exps):
            for _ in range(e):
                k = k * x % modulus
        total = (total + k) % modulus
    return total


def _search_chunk(forms: _SearchForms, height_bound: int, d_lo: int, d_hi: int) -> set:
    """Points from the half-box cells with d_lo <= d < d_hi; exact everywhere.

    Half box: d >= 0, with c >= 0 when d = 0 and b > 0 when d = c = 0;
    negated triples give the same projective points and (0, 0, 0) gives
    none, so nothing is lost.
    """
    H = height_bound
    xs = np.arange(-H, H + 1, dtype=np.int64)
    # residues of both discriminant rows for every modulus at once, from
    # coefficients and coordinates already reduced, so no t can overflow
    mods = np.array(_MODULI, dtype=np.int64)[:, None]
    xm = xs % mods
    kb, kc = (np.array([[k % m for k in ks] for m in _MODULI], dtype=np.int64).T[:, :, None]
              for ks in (forms.disc_b, forms.disc_c))
    # exact square roots in int64 while the unscaled discriminant provably fits
    bound = H * H * forms.root_scale ** 2 * sum(map(abs, forms.disc_b + forms.disc_c))
    dtype = np.int64 if bound < 2 ** 61 else object
    P = _CUBIC_PRIME
    two_lead = 2 * forms.lead
    out = set()
    for d in range(d_lo, d_hi):
        lo = H if d == 0 else 0
        rb = _row(kb, xm, d % mods) % mods
        rc = _row(kc, xm[:, lo:], d % mods) % mods
        mask = np.ones((xs.size, xs.size - lo), dtype=bool)
        for m, row_b, row_c in zip(_MODULI, rb, rc):
            mask &= np.take(_SQUARE_SUMS[m][:, row_c], row_b, axis=0)
        bi, ci = np.divmod(np.flatnonzero(mask), xs.size - lo)
        b, c = xs[bi].astype(dtype), xs[lo:][ci].astype(dtype)
        if d == 0:
            keep = (c > 0) | (b > 0)
            b, c = b[keep], c[keep]

        disc = _row(forms.disc_b, b, d) + _row(forms.disc_c, c, d)
        keep = disc >= 0
        b, c, disc = b[keep], c[keep], disc[keep]
        if dtype is object:
            s = np.array([math.isqrt(v) for v in disc], dtype=object)
        else:
            # for disc = n^2 < 2^61 the float root is within 2^-22 of n, so
            # rounding recovers n; a non-square fails the test below either way
            s = np.rint(np.sqrt(disc.astype(np.float64))).astype(np.int64)
        keep = s * s == disc
        if not keep.any():
            continue
        b, c, s = b[keep], c[keep], s[keep] * forms.root_scale

        # the cubic modulo a prime at (-linear +- s : 2 lead b : 2 lead c : 2 lead d),
        # the point scaled by 2 lead; the cubic is homogeneous, so its vanishing is kept
        pb, pc, ps = ((x % P).astype(np.int64) for x in (b, c, s))
        plin = _form_residues(forms.linear, (0, pb, pc, d % P), P)
        scaled = (0, *(two_lead % P * x % P for x in (pb, pc, d % P)))
        coeffs = [_form_residues(k, scaled, P) for k in reversed(forms.cubic_in_a)]
        for sign in (1, -1):
            pa = (sign * ps - plin) % P
            value = 0
            for k in coeffs:
                value = (value * pa + k) % P
            for i in np.flatnonzero(value == 0):
                b_i, c_i = int(b[i]), int(c[i])
                a = sign * int(s[i]) - _form_value(forms.linear, (0, b_i, c_i, d))
                pt = CurvePoint.from_integers((a, two_lead * b_i, two_lead * c_i, two_lead * d))
                if (pt.height <= H and _form_value(forms.quadric, pt.coords) == 0
                        and _form_value(forms.cubic, pt.coords) == 0):
                    out.add(pt)
    return out


def _worker_count(jobs: int, chunks: int) -> int:
    """Worker processes for `chunks` tasks at parallelism `jobs`, capped at the CPU count."""
    return max(1, min(jobs, chunks, os.cpu_count() or 1))


def point_search(curve: TrinomialCurve, height_bound: int, jobs: int = 1) -> SearchResult:
    """All primitive points with max |coordinate| <= height_bound.

    Enumerates (b, c, d) in a half box and solves the quadric for a
    (constant leading coefficient).  The discriminant is sieved modulo
    small moduli, survivors get exact integer square roots, both roots
    are tested against the cubic modulo a prime, and the few that pass
    are normalized by gcd and sign and re-checked on the height bound,
    the quadric and the cubic in exact integer arithmetic.  No
    completeness beyond the height bound is claimed.  Results are
    independent of the partitioning into parallel chunks.
    """
    if height_bound < 1:
        raise ValueError("height bound must be >= 1")
    H = height_bound
    forms = _search_forms(curve)
    n_chunks = max(1, min(4 * jobs, H + 1))
    edges = [(H + 1) * i // n_chunks for i in range(n_chunks)] + [H + 1]
    ranges = [(lo, hi) for lo, hi in zip(edges, edges[1:]) if lo < hi]
    columns = ([forms] * len(ranges), [H] * len(ranges), *zip(*ranges))
    workers = _worker_count(jobs, len(ranges))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_search_chunk, *columns))
    else:
        partials = list(map(_search_chunk, *columns))
    merged = set()
    for part in partials:
        merged |= part
    points, degenerate = [], []
    for pt in merged:
        # b = c = d = 0 would make beta rational; cannot occur on the curve,
        # but route it to the degenerate list rather than dropping silently
        if pt.coords[1] == 0 and pt.coords[2] == 0 and pt.coords[3] == 0:
            degenerate.append(pt)
        else:
            points.append(pt)
    key = lambda pt: (pt.height, pt.coords)
    return SearchResult(points=tuple(sorted(points, key=key)),
                        degenerate=tuple(sorted(degenerate, key=key)),
                        height_bound=H)


# ---------------------------------------------------------------------------
# point search on general curves (exact, small boxes)
# ---------------------------------------------------------------------------

def general_point_search(curve: GeneralCurve, height_bound: int) -> List[CurvePoint]:
    """Primitive integer 5-tuples on a general curve, searched exactly.

    The quadric is solved for a live variable that appears squared
    (quadratic branch) or, failing that, linearly (pure quintics yield a
    bilinear quadric); the remaining three live variables are
    enumerated.  Exact Fraction arithmetic throughout.
    """
    H = height_bound
    live = curve.live_vars
    sq_name = None
    for name in live:
        exps = [0] * 5
        exps[FULL_VARS.index(name)] = 2
        if tuple(exps) in curve.quadric.terms:
            sq_name = name
            break
    solve_name = sq_name
    if solve_name is None:
        for name in live:
            if curve.quadric.degree_in(name) == 1:
                solve_name = name
                break
    if solve_name is None:
        raise ValueError("quadric involves no live variable")
    others = [v for v in live if v != solve_name]
    found = set()

    def push(values: Dict[str, Fraction]):
        coords = curve.full_coords(values)
        if all(v == 0 for v in coords):
            return
        pt = CurvePoint.from_rationals(coords)
        if pt.height <= H and curve.contains(pt.coords):
            found.add(pt)

    quad = curve.quadric
    cubic = curve.cubic
    for x1 in range(-H, H + 1):
        for x2 in range(-H, H + 1):
            for x3 in range(-H, H + 1):
                values = {others[0]: Fraction(x1), others[1]: Fraction(x2),
                          others[2]: Fraction(x3)}
                restricted = quad.partial_evaluate(values)
                c2 = restricted.coefficient_of(solve_name, 2).terms.get((0,) * 5, Fraction(0))
                c1 = restricted.coefficient_of(solve_name, 1).terms.get((0,) * 5, Fraction(0))
                c0 = restricted.coefficient_of(solve_name, 0).terms.get((0,) * 5, Fraction(0))
                roots: List[Fraction] = []
                if c2 != 0:
                    disc = c1 * c1 - 4 * c2 * c0
                    if disc >= 0 and is_rational_square(disc):
                        s = Fraction(math.isqrt(disc.numerator), math.isqrt(disc.denominator))
                        roots = [(-c1 + s) / (2 * c2), (-c1 - s) / (2 * c2)]
                elif c1 != 0:
                    roots = [-c0 / c1]
                elif c0 == 0:
                    roots = [Fraction(v) for v in range(-H, H + 1)]
                for root in roots:
                    vals = dict(values)
                    vals[solve_name] = root
                    full = {**vals, curve.eliminated: Fraction(0)}
                    if cubic.evaluate(full) == 0:
                        push(vals)
    key = lambda pt: (pt.height, pt.coords)
    return sorted(found, key=key)
