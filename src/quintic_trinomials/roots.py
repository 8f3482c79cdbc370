"""Certified complex root isolation and rational reconstruction.

Roots are located by simultaneous (Durand-Kerner/Weierstrass) iteration
in mpmath arbitrary-precision arithmetic, then wrapped in ComplexBall
disks whose radii come from an a-posteriori bound: the union of the
disks |x - z_j| <= n*|w_j|, with w_j the Weierstrass correction
evaluated through conservative interval arithmetic, contains all roots,
and pairwise disjoint disks each contain exactly one.  Precision doubles
until the certificate succeeds.

Rational reconstruction finds the unique smallest-denominator rational
inside a real interval by the continued-fraction walk, with Farey
neighbours ruling out second candidates below the denominator bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Tuple

import mpmath

from .qpoly import UniPoly, count_real_roots, discriminant


class PrecisionExhausted(Exception):
    """Working precision could not separate the roots; retry higher."""


def _mpf_to_fraction(x) -> Fraction:
    """Exact Fraction from an mpmath float (dyadic rational)."""
    if x == 0:
        return Fraction(0)
    sign, man, exp, _ = x._mpf_
    man, exp = int(man), int(exp)  # gmpy2 backend yields mpz mantissas
    man = -man if sign else man
    if exp >= 0:
        return Fraction(man * (1 << exp))
    return Fraction(man, 1 << -exp)


class ComplexBall:
    """Disk {z : |z - mid| <= rad} with an exact dyadic midpoint.

    Arithmetic is conservative: result disks always contain the exact
    value, with rounding slack folded into the radius.
    """

    __slots__ = ("re", "im", "rad", "prec")

    def __init__(self, re, im, rad, prec: int):
        self.prec = prec
        with mpmath.workprec(prec):
            self.re = +mpmath.mpf(re)
            self.im = +mpmath.mpf(im)
            # nudge the radius up so conversion rounding never shrinks it
            self.rad = mpmath.mpf(rad) * (1 + mpmath.mpf(2) ** (-prec + 2))
        if self.rad < 0:
            raise ValueError("negative radius")

    # slack factor covering midpoint rounding of one operation
    def _eps(self):
        return mpmath.mpf(2) ** (-self.prec + 2)

    @staticmethod
    def from_fraction(x: Fraction, prec: int) -> "ComplexBall":
        with mpmath.workprec(prec):
            mid = mpmath.mpf(x.numerator) / x.denominator
            rad = abs(mid) * mpmath.mpf(2) ** (-prec + 2)
        return ComplexBall(mid, 0, rad, prec)

    @property
    def mid(self):
        # build at the ball's own precision: mpc() rounds at the ambient one
        with mpmath.workprec(self.prec):
            return mpmath.mpc(self.re, self.im)

    def magnitude_upper(self):
        with mpmath.workprec(self.prec):
            return (abs(self.mid) + self.rad) * (1 + self._eps())

    def __add__(self, other):
        other = self._coerce(other)
        with mpmath.workprec(self.prec):
            re = self.re + other.re
            im = self.im + other.im
            rad = self.rad + other.rad + (abs(re) + abs(im)) * self._eps()
        return ComplexBall(re, im, rad, self.prec)

    def __sub__(self, other):
        other = self._coerce(other)
        with mpmath.workprec(self.prec):
            re = self.re - other.re
            im = self.im - other.im
            rad = self.rad + other.rad + (abs(re) + abs(im)) * self._eps()
        return ComplexBall(re, im, rad, self.prec)

    def __mul__(self, other):
        other = self._coerce(other)
        with mpmath.workprec(self.prec):
            z = self.mid * other.mid
            a1, a2 = abs(self.mid), abs(other.mid)
            rad = (a1 * other.rad + a2 * self.rad + self.rad * other.rad
                   + abs(z) * self._eps())
        return ComplexBall(z.real, z.imag, rad, self.prec)

    def _coerce(self, other):
        if isinstance(other, ComplexBall):
            return other
        if isinstance(other, (int, Fraction)):
            return ComplexBall.from_fraction(Fraction(other), self.prec)
        raise TypeError(f"cannot combine ComplexBall with {type(other).__name__}")

    def contains_zero(self) -> bool:
        with mpmath.workprec(self.prec):
            return abs(self.mid) <= self.rad

    def real_interval(self) -> Tuple[Fraction, Fraction]:
        r = _mpf_to_fraction(self.rad)
        m = _mpf_to_fraction(self.re)
        return m - r, m + r

    def imag_contains_zero(self) -> bool:
        with mpmath.workprec(self.prec):
            return abs(self.im) <= self.rad

    def __repr__(self):
        return f"ComplexBall({self.re}, {self.im}, rad={self.rad})"


def _ball_eval(p: UniPoly, z: ComplexBall) -> ComplexBall:
    """Evaluate p at a ball, coefficients converted conservatively."""
    acc = ComplexBall.from_fraction(p.coeffs[-1], z.prec)
    for c in reversed(p.coeffs[:-1]):
        acc = acc * z + ComplexBall.from_fraction(c, z.prec)
    return acc


def _durand_kerner(p: UniPoly, prec: int):
    """Simultaneous iteration for all roots of monic squarefree p."""
    n = p.degree
    with mpmath.workprec(prec + 20):
        coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in p.coeffs]
        radius = 1 + max(abs(c) for c in coeffs[:-1])
        seed = mpmath.mpc("0.4", "0.9")
        zs = [radius * seed ** k for k in range(1, n + 1)]

        def evaluate(z):
            acc = coeffs[-1]
            for c in reversed(coeffs[:-1]):
                acc = acc * z + c
            return acc

        tol = mpmath.mpf(2) ** (-prec + 4) * radius
        for _ in range(60 + 6 * prec // 8):
            shift = mpmath.mpf(0)
            for j in range(n):
                denom = mpmath.mpf(1)
                for k in range(n):
                    if k != j:
                        denom *= zs[j] - zs[k]
                if denom == 0:
                    zs[j] += mpmath.mpc(tol, tol)
                    shift = radius
                    continue
                w = evaluate(zs[j]) / denom
                zs[j] -= w
                shift = max(shift, abs(w))
            if shift < tol:
                break
        return zs


def complex_roots(p: UniPoly, precision_bits: int = 128) -> List[ComplexBall]:
    """Isolating disks for all roots of a squarefree polynomial.

    Returned in canonical order: real roots ascending, then conjugate
    pairs (upper-half member first) by ascending imaginary part of the
    upper member, ties broken by real part.  Raises PrecisionExhausted
    if certification keeps failing after several precision doublings.
    """
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    if not discriminant(p):
        raise ValueError("polynomial must be squarefree")
    monic = p.monic()
    n = monic.degree
    n_real = count_real_roots(monic)
    prec = max(64, precision_bits)
    for _ in range(8):
        try:
            return _certified_balls(monic, n, n_real, prec, precision_bits)
        except PrecisionExhausted:
            prec *= 2
    raise PrecisionExhausted(f"root isolation failed for {p} at {prec} bits")


def _certified_balls(monic, n, n_real, prec, precision_bits):
    zs = _durand_kerner(monic, prec)
    with mpmath.workprec(prec + 20):
        # classify and symmetrize: real candidates get exact zero imaginary
        # part, complex candidates are paired with their conjugates
        order = sorted(range(n), key=lambda j: (abs(zs[j].imag), j))
        real_idx = order[:n_real]
        reals = [zs[j].real for j in real_idx]
        complex_idx = [j for j in range(n) if j not in real_idx]
        uppers = [zs[j] for j in complex_idx if zs[j].imag > 0]
        lowers = [zs[j] for j in complex_idx if zs[j].imag <= 0]
        if len(uppers) != len(lowers):
            raise PrecisionExhausted("conjugate pairing failed")
        pairs = []
        used = set()
        for u in uppers:
            best, best_d = None, None
            for i, l in enumerate(lowers):
                if i in used:
                    continue
                d = abs(mpmath.conj(l) - u)
                if best_d is None or d < best_d:
                    best, best_d = i, d
            used.add(best)
            pairs.append((u + mpmath.conj(lowers[best])) / 2)
        points = ([mpmath.mpc(r, 0) for r in sorted(reals)]
                  + [w for u in sorted(pairs, key=lambda w: (w.imag, w.real))
                     for w in (u, mpmath.conj(u))])

        # a-posteriori radii via ball evaluation at the adjusted points
        balls = []
        for j, z in enumerate(points):
            zb = ComplexBall(z.real, z.imag, 0, prec)
            num = _ball_eval(monic, zb).magnitude_upper()
            den = mpmath.mpf(1)
            for k, w in enumerate(points):
                if k != j:
                    d = abs(z - w) * (1 - mpmath.mpf(2) ** (-prec + 4))
                    if d <= 0:
                        raise PrecisionExhausted("coincident approximations")
                    den *= d
            rad = n * num / den
            balls.append(ComplexBall(z.real, z.imag, rad, prec))

        # disjointness certifies one root per disk
        for a in range(n):
            for b in range(a + 1, n):
                dist = abs(points[a] - points[b])
                if dist <= (balls[a].rad + balls[b].rad) * (1 + mpmath.mpf(2) ** (-prec + 4)):
                    raise PrecisionExhausted("isolation disks overlap")
        # real/complex classification must be consistent with the disks:
        # a disk around a genuinely complex point must stay off the axis
        for j, ball in enumerate(balls):
            is_real_slot = j < n_real
            if is_real_slot and ball.im != 0:
                raise PrecisionExhausted("real slot drifted")
            if not is_real_slot and abs(ball.im) <= ball.rad:
                raise PrecisionExhausted("complex root disk touches the real axis")
        # tighten reported radius to the requested precision scale if needed
        target = mpmath.mpf(2) ** (-precision_bits)
        scale = max(abs(z) for z in points) + 1
        if any(b.rad > target * scale for b in balls):
            raise PrecisionExhausted("radii above requested resolution")
        return balls


# ---------------------------------------------------------------------------
# rational reconstruction
# ---------------------------------------------------------------------------

def _smallest_denominator_in(lo: Fraction, hi: Fraction) -> Fraction:
    """The (a) rational with smallest denominator in [lo, hi]."""
    n = math.ceil(lo)
    if n <= hi:
        return Fraction(n)
    k = math.floor(lo)
    inner = _smallest_denominator_in(1 / (hi - k), 1 / (lo - k))
    return k + 1 / inner


def _farey_neighbors(x: Fraction, bound: int):
    """Left and right neighbours of x in the Farey sequence of order bound."""
    p, q = x.numerator, x.denominator
    if q > bound:
        raise ValueError("denominator exceeds bound")
    if q == 1:
        return x - Fraction(1, bound), x + Fraction(1, bound)
    inv = pow(p % q, -1, q)
    b = inv + q * ((bound - inv) // q)          # p*b = 1 mod q, b <= bound maximal
    left = Fraction((p * b - 1) // q, b)
    b2 = (q - inv) + q * ((bound - (q - inv)) // q)  # p*b2 = -1 mod q
    right = Fraction((p * b2 + 1) // q, b2)
    return left, right


def rational_in_interval(lo: Fraction, hi: Fraction, bound: int) -> Optional[Fraction]:
    """The unique rational with denominator <= bound in [lo, hi], else None."""
    if lo > hi:
        return None
    if math.floor(hi) - math.ceil(lo) >= 1:
        return None  # two integers inside: never unique
    x = _smallest_denominator_in(lo, hi)
    if x.denominator > bound:
        return None
    left, right = _farey_neighbors(x, bound)
    if left >= lo or right <= hi:
        return None  # a second candidate shares the interval
    return x


def rational_reconstruct(ball: ComplexBall, denominator_bound: int) -> Optional[Fraction]:
    """Lift a ball straddling the real axis to the unique simple rational inside.

    None when the interval holds no rational with denominator below the
    bound, or more than one (ambiguous).
    """
    if not ball.imag_contains_zero():
        raise ValueError("ball does not meet the real axis")
    lo, hi = ball.real_interval()
    return rational_in_interval(lo, hi, denominator_bound)


def reconstruct_float(value, denominator_bound: int, slack_bits: int = 16) -> Optional[Fraction]:
    """Best-effort rational candidate for an mpmath real, by interval widening.

    The interval half-width is |value|-relative at `slack_bits` below the
    working precision; the caller must verify the candidate exactly.
    """
    v = _mpf_to_fraction(mpmath.mpf(value))
    prec = mpmath.mp.prec
    width = Fraction(2) ** (-(prec - slack_bits)) * (abs(v) + 1)
    return rational_in_interval(v - width, v + width, denominator_bound)
