"""Fraction references for the integer kernels of `qpoly`.

`resultant` and `discriminant` run a subresultant sequence,
`count_real_roots` a primitive pseudo-remainder Sturm sequence and
`integer_power_sums` Newton's identities, all in integers.  The
Euclidean sequences and Newton's identities over Q are kept here as
independent references, with the helpers that only they and the tests
call.
"""

import math
from fractions import Fraction

from quintic_trinomials.qpoly import UniPoly


def content_and_primitive(p: UniPoly):
    """Write p = content * P with P primitive in Z[x] and lc(P) > 0.

    Returns (content: Fraction, primitive integer coefficient list).
    Zero polynomial yields (0, []).
    """
    if p.is_zero:
        return Fraction(0), []
    den = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * den) for c in p.coeffs]
    g = math.gcd(*(abs(v) for v in ints))
    sign = -1 if ints[-1] < 0 else 1
    ints = [v // (sign * g) for v in ints]
    return Fraction(sign * g, den), ints


def power_sums(p: UniPoly, count: int) -> list:
    """[s_0, ..., s_count], s_m the sum of the m-th powers of the roots of p (Newton)."""
    p = p.monic()
    n = p.degree
    sums = [Fraction(n)]
    for m in range(1, count + 1):
        s = -m * p[n - m] if m <= n else Fraction(0)
        for i in range(1, min(m, n + 1)):
            s -= p[n - i] * sums[m - i]
        sums.append(s)
    return sums


def squarefree_part(p: UniPoly) -> UniPoly:
    """Monic product of the distinct irreducible factors."""
    if p.degree < 1:
        return p.monic()
    return (p // p.gcd(p.derivative())).monic()


def resultant_reference(p: UniPoly, q: UniPoly) -> Fraction:
    """Res(p, q) by the Euclidean remainder sequence over Q with the standard
    transformation rules."""
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
        return (-1) ** (m * n) * resultant_reference(q, p)
    r = p % q
    if r.is_zero:
        return Fraction(0)
    return (-1) ** (m * n) * q.lc ** (m - r.degree) * resultant_reference(q, r)


def discriminant_reference(p: UniPoly) -> Fraction:
    """disc(p) = (-1)^(n(n-1)/2) Res(p, p') / lc(p)."""
    n = p.degree
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant_reference(p, p.derivative()) / p.lc


def sturm_chain(p: UniPoly):
    """Sturm sequence of the squarefree part of p."""
    f = squarefree_part(p)
    chain = [f, f.derivative()]
    while not chain[-1].is_zero:
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return chain


def _sign_variations(values) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_real_roots_reference(p: UniPoly) -> int:
    """Distinct real roots of p: sign variations of the Sturm chain at -oo minus at +oo."""
    if p.degree < 1:
        return 0
    chain = sturm_chain(p)
    at_minus_inf = _sign_variations([(-1) ** f.degree * f.lc for f in chain])
    return at_minus_inf - _sign_variations([f.lc for f in chain])
