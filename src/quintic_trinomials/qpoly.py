"""Univariate polynomials over Q with exact arithmetic.

Coefficients are `fractions.Fraction` stored in ascending degree order;
the zero polynomial has an empty coefficient tuple.  Everything here is
exact.  Resultants, discriminants and real-root counts clear denominators
once and run a remainder sequence in Python integers: the subresultant
sequence for the first two (G. E. Collins, J. ACM 14, 1967; H. Cohen,
GTM 138, section 3.3), a primitive pseudo-remainder Sturm sequence for
the count.  The power sums of the roots of a monic integer polynomial
come from Newton's identities in integers (`integer_power_sums`).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence, Tuple, Union

Rat = Union[int, Fraction]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class UniPoly:
    """A polynomial sum(c[i] * x^i) with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple = tuple(cs)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly(())

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly((1,))

    @staticmethod
    def constant(c: Rat) -> "UniPoly":
        return UniPoly((c,))

    # -- basic queries --------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Fraction:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == UniPoly((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other) -> "UniPoly":
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self[i] + other[i] for i in range(n))

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly(-c for c in self.coeffs)

    def __sub__(self, other) -> "UniPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "UniPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "UniPoly":
        other = self._coerce(other)
        if self.is_zero or other.is_zero:
            return UniPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = UniPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly.zero(), self
        quo = [Fraction(0)] * (dq + 1)
        inv_lc = 1 / other.lc
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] * inv_lc
            quo[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return UniPoly(quo), UniPoly(rem)

    def __floordiv__(self, other) -> "UniPoly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "UniPoly":
        return divmod(self, other)[1]

    def _coerce(self, other) -> "UniPoly":
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UniPoly((other,))
        raise TypeError(f"cannot combine UniPoly with {type(other).__name__}")

    # -- calculus and evaluation -------------------------------------------

    def derivative(self) -> "UniPoly":
        return UniPoly(i * c for i, c in enumerate(self.coeffs) if i)

    def __call__(self, x):
        """Horner evaluation; works for Fraction, complex, mpmath or field values."""
        if self.is_zero:
            return 0 * x if not isinstance(x, (int, Fraction)) else Fraction(0)
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        return acc

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        if self.lc == 1:
            return self
        inv = 1 / self.lc
        return UniPoly(c * inv for c in self.coeffs)

    def scale_argument(self, lam: Rat) -> "UniPoly":
        """Return p(lam * x)."""
        lam = _frac(lam)
        powers = Fraction(1)
        out = []
        for c in self.coeffs:
            out.append(c * powers)
            powers *= lam
        return UniPoly(out)

    # -- integer normal forms ------------------------------------------------

    def integral_rescaling(self) -> Tuple[int, list]:
        """(d, coefficients of d^n q(x / d)), q = p / lc(p) of degree n: a monic integer polynomial.

        Its roots are d times those of q, so modulo a prime not dividing d it
        factors with the same degrees.  d is built up coefficient by
        coefficient so that each d^i q[n-i] is integral; its primes are
        those of q's denominators.
        """
        q = self.monic()
        n, d = q.degree, 1
        for i in range(1, n + 1):
            den = q[n - i].denominator
            d *= den // math.gcd(den, d ** i)
        return d, [int(c * d ** (n - i)) for i, c in enumerate(q.coeffs)]

    @staticmethod
    def from_int_coeffs(ints: Sequence[int]) -> "UniPoly":
        return UniPoly(Fraction(v) for v in ints)

    # -- gcd --------------------------------------------------------------------

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd over Q."""
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic() if not a.is_zero else a

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)!r})"

    def __str__(self):
        return format_terms((self[i], "x" if i == 1 else f"x^{i}" if i else "")
                            for i in range(self.degree, -1, -1))


def format_terms(terms: Iterable[Tuple[Fraction, str]]) -> str:
    """Render (coefficient, monomial) pairs in the order given, as "-2/3*x^2*y + y^3 - 1".

    The monomial "" stands for 1; a unit coefficient prints as its sign
    alone, zero terms are skipped, and no terms at all print as "0".
    """
    parts = []
    for c, mono in terms:
        if not c:
            continue
        if not mono:
            body = f"{abs(c)}"
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) or "0"


def _cleared(p: UniPoly) -> Tuple[int, list]:
    """(D, coefficients of D p): the least D > 0 that makes p integral."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    return den, [c.numerator * (den // c.denominator) for c in p.coeffs]


def _prem(a: list, b: list) -> list:
    """The pseudo-remainder lc(b)^(deg a - deg b + 1) a mod b in Z[x], deg a >= deg b >= 0."""
    a, lead, db = a[:], b[-1], len(b) - 1
    for k in range(len(a) - len(b), -1, -1):
        top = a.pop()
        a = [lead * c for c in a]
        for j in range(db):
            a[k + j] -= top * b[j]
    while a and a[-1] == 0:
        a.pop()
    return a


def _int_resultant(a: list, b: list) -> int:
    """Res(a, b) of nonzero integer polynomials by the subresultant PRS (H. Cohen, GTM 138,
    Alg. 3.3.7; G. E. Collins, J. ACM 14, 1967): every division in it is exact."""
    if len(a) < len(b):
        return (-1) ** ((len(a) - 1) * (len(b) - 1)) * _int_resultant(b, a)
    if len(b) == 1:
        return b[0] ** (len(a) - 1)
    sign, g, h = 1, 1, 1
    while len(b) > 1:
        delta = len(a) - len(b)
        if len(a) % 2 == 0 and len(b) % 2 == 0:  # both degrees odd
            sign = -sign
        r = _prem(a, b)
        if not r:
            return 0
        a, b = b, [c // (g * h ** delta) for c in r]
        g = a[-1]
        h = g ** delta // h ** (delta - 1) if delta else h
    return sign * b[0] ** (len(a) - 1) // h ** (len(a) - 2)


def resultant(p: UniPoly, q: UniPoly) -> Fraction:
    """Res(p, q); zero exactly when p and q share a complex root.

    Res(D p, E q) = D^deg q E^deg p Res(p, q) for the integral D p and E q.
    """
    if p.is_zero and q.is_zero:
        raise ValueError("resultant of two zero polynomials is undefined")
    if p.is_zero or q.is_zero:
        return Fraction(0)
    (d, a), (e, b) = _cleared(p), _cleared(q)
    return Fraction(_int_resultant(a, b), d ** q.degree * e ** p.degree)


def integer_discriminant(ints: Sequence[int]) -> int:
    """disc P = (-1)^(n(n-1)/2) Res(P, P') / lc(P) of the integer P = sum ints[i] x^i, n >= 1."""
    n = len(ints) - 1
    res = _int_resultant(list(ints), [i * c for i, c in enumerate(ints)][1:])
    return (-1) ** (n * (n - 1) // 2) * res // ints[-1]


def integer_power_sums(ints: Sequence[int], count: int) -> list:
    """[T_0, ..., T_count], T_m the sum of the m-th powers of the roots of the monic
    integer P = sum ints[i] x^i of degree n, by Newton's identities
    T_m = -m P[n-m] - sum_(0<i<m, i<=n) P[n-i] T_(m-i), with P[n-m] = 0 for m > n."""
    n = len(ints) - 1
    sums = [n]
    for m in range(1, count + 1):
        sums.append((-m * ints[n - m] if m <= n else 0)
                    - sum(ints[n - i] * sums[m - i] for i in range(1, min(m, n + 1))))
    return sums


def discriminant(p: UniPoly) -> Fraction:
    """disc(p), zero iff p has a repeated root: disc(D p) / D^(2n-2) for the integral D p."""
    n = p.degree
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    d, ints = _cleared(p)
    return Fraction(integer_discriminant(ints), d ** (2 * n - 2))


def _sign_variations(values) -> int:
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_real_roots(p: UniPoly) -> int:
    """Number of distinct real roots of p (exact, via Sturm).

    The Sturm sequence of p and p' counts distinct roots also when one
    repeats.  It runs on the integer D p as a primitive pseudo-remainder
    sequence: a pseudo-remainder of b is lc(b)^(delta+1) times the
    remainder, so it is negated once more where that multiplier is negative.
    """
    if p.degree < 1:
        return 0
    a = _cleared(p)[1]
    chain = [a, [i * c for i, c in enumerate(a)][1:]]
    while len(chain[-1]) > 1 and (r := _prem(*chain[-2:])):
        a, b = chain[-2:]
        sign = 1 if b[-1] < 0 and (len(a) - len(b)) % 2 == 0 else -1
        content = math.gcd(*r)
        chain.append([sign * c // content for c in r])
    at_minus_inf = _sign_variations([c[-1] if len(c) % 2 else -c[-1] for c in chain])
    return at_minus_inf - _sign_variations([c[-1] for c in chain])


def is_rational_square(x: Fraction) -> bool:
    """True when x is the square of a rational."""
    if x < 0:
        return False
    if x == 0:
        return True
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    return rn * rn == x.numerator and rd * rd == x.denominator


def format_rational(x: Fraction) -> str:
    """Canonical "p/q" string; bare integer when q = 1."""
    x = _frac(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[+-]?\d+)?$")


def parse_rational(s: str) -> Fraction:
    """Parse "p/q" or "p" (exact; decimal or float forms are rejected)."""
    s = s.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"malformed rational {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {s!r}") from exc


def poly_to_strings(p: UniPoly):
    """Serialize as ascending-degree "p/q" coefficient strings."""
    return [format_rational(c) for c in p.coeffs]
