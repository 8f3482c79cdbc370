"""Univariate polynomials over Q with exact arithmetic.

Coefficients are `fractions.Fraction` stored in ascending degree order;
the zero polynomial has an empty coefficient tuple.  Everything here is
exact: resultants and discriminants come from a polynomial remainder
sequence, real-root counting from Sturm chains.
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
    def x() -> "UniPoly":
        return UniPoly((0, 1))

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

    def power_sums(self, count: int) -> list:
        """[s_0, ..., s_count], s_m the sum of the m-th powers of the roots (Newton)."""
        p = self.monic()
        n = p.degree
        sums = [Fraction(n)]
        for m in range(1, count + 1):
            s = -m * p[n - m] if m <= n else Fraction(0)
            for i in range(1, min(m, n + 1)):
                s -= p[n - i] * sums[m - i]
            sums.append(s)
        return sums

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

    def content_and_primitive(self):
        """Write p = content * P with P primitive in Z[x] and lc(P) > 0.

        Returns (content: Fraction, primitive integer coefficient list).
        Zero polynomial yields (0, []).
        """
        if self.is_zero:
            return Fraction(0), []
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * den) for c in self.coeffs]
        g = math.gcd(*(abs(v) for v in ints))
        sign = -1 if ints[-1] < 0 else 1
        ints = [v // (sign * g) for v in ints]
        return Fraction(sign * g, den), ints

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

    # -- gcd, resultants, Sturm ------------------------------------------------

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd over Q."""
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic() if not a.is_zero else a

    def squarefree_part(self) -> "UniPoly":
        """Monic product of the distinct irreducible factors."""
        if self.degree < 1:
            return self.monic()
        return (self // self.gcd(self.derivative())).monic()

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


def resultant(p: UniPoly, q: UniPoly) -> Fraction:
    """Res(p, q); zero exactly when p and q share a complex root.

    Euclidean remainder sequence with the standard transformation rules,
    exact over Q.
    """
    if p.is_zero and q.is_zero:
        raise ValueError("resultant of two zero polynomials is undefined")
    if p.is_zero or q.is_zero:
        return Fraction(0)
    m, n = p.degree, q.degree
    if m == 0:
        return p.lc ** n
    if n == 0:
        return q.lc ** m
    if m < n:
        return (-1) ** (m * n) * resultant(q, p)
    r = p % q
    if r.is_zero:
        return Fraction(0)
    return (-1) ** (m * n) * q.lc ** (m - r.degree) * resultant(q, r)


def discriminant(p: UniPoly) -> Fraction:
    """disc(p) = (-1)^(n(n-1)/2) Res(p, p') / lc(p); zero iff p has a repeated root."""
    n = p.degree
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(p, p.derivative()) / p.lc


def _sign_variations(values) -> int:
    count = 0
    prev = 0
    for v in values:
        if v == 0:
            continue
        s = 1 if v > 0 else -1
        if prev and s != prev:
            count += 1
        prev = s
    return count


def sturm_chain(p: UniPoly):
    """Sturm sequence of the squarefree part of p."""
    f = p.squarefree_part()
    chain = [f, f.derivative()]
    while not chain[-1].is_zero:
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return chain


def count_real_roots(p: UniPoly) -> int:
    """Number of distinct real roots of p (exact, via Sturm)."""
    if p.degree < 1:
        return 0
    chain = sturm_chain(p)
    at_minus_inf = _sign_variations(
        [(-1) ** f.degree * f.lc for f in chain])
    at_plus_inf = _sign_variations([f.lc for f in chain])
    return at_minus_inf - at_plus_inf


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
