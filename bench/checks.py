"""Exact checks of the library's outputs, written independently of it.

Elements of Q[x]/(g) are ascending coefficient lists of Fractions.  The
characteristic polynomial of beta has vanishing x^4, x^3 and x^2
coefficients exactly when the power sums Tr(beta), Tr(beta^2) and
Tr(beta^3) vanish (Newton's identities); then it reads
x^5 - (p4/4) x - p5/5 with p_k = Tr(beta^k).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple


def mulmod(x: Sequence[Fraction], y: Sequence[Fraction], g: Sequence[int]) -> List[Fraction]:
    """x * y reduced modulo the monic g (all ascending)."""
    n = len(g) - 1
    prod = [Fraction(0)] * (len(x) + len(y) - 1)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                prod[i + j] += xi * yj
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k]
        if c:
            for i in range(n):
                prod[k - n + i] -= c * g[i]
        prod[k] = Fraction(0)
    return (prod + [Fraction(0)] * n)[:n]


def trace(x: Sequence[Fraction], g: Sequence[int]) -> Fraction:
    """Trace of multiplication by x on Q[x]/(g), basis 1, alpha, ..., alpha^(n-1)."""
    n = len(g) - 1
    total = Fraction(0)
    for j in range(n):
        basis = [Fraction(0)] * n
        basis[j] = Fraction(1)
        total += mulmod(x, basis, g)[j]
    return total


def power_sums(beta: Sequence[Fraction], g: Sequence[int], count: int = 5) -> List[Fraction]:
    """[Tr(beta), Tr(beta^2), ..., Tr(beta^count)]."""
    sums = []
    acc = [Fraction(v) for v in beta]
    for _ in range(count):
        sums.append(trace(acc, g))
        acc = mulmod(acc, beta, g)
    return sums


def trinomial_of(beta: Sequence[Fraction], g: Sequence[int]):
    """(gamma, delta) with charpoly x^5 + gamma x + delta, or None when it is not a trinomial."""
    p1, p2, p3, p4, p5 = power_sums([Fraction(v) for v in beta], g)
    if p1 or p2 or p3:
        return None
    return -p4 / 4, -p5 / 5


def evaluates_to_zero(f: Sequence, beta: Sequence[Fraction], g: Sequence[int]) -> bool:
    """f(beta) == 0 in Q[x]/(g), by Horner's rule."""
    n = len(g) - 1
    beta = [Fraction(v) for v in beta]
    acc = [Fraction(0)] * n
    for c in reversed(f):
        acc = mulmod(acc, beta, g)
        acc[0] += Fraction(c)
    return not any(acc)


def form_value(terms: Dict[Tuple[int, ...], Fraction], values: Sequence) -> Fraction:
    """Value of a polynomial given as {exponent tuple: coefficient}."""
    total = Fraction(0)
    for exps, coeff in terms.items():
        prod = Fraction(coeff)
        for v, e in zip(values, exps):
            if e:
                prod *= Fraction(v) ** e
        total += prod
    return total


def is_primitive_normalized(coords: Sequence[int]) -> bool:
    """Integer tuple with gcd 1 whose first nonzero entry is positive."""
    first = next((v for v in coords if v), 0)
    return first > 0 and math.gcd(*coords) == 1


def is_square(x: Fraction) -> bool:
    if x < 0:
        return False
    n, d = x.numerator, x.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


def half_box_cells(height: int) -> int:
    """(b, c, d) cells of the half box |b|, |c|, |d| <= H up to sign.

    d > 0 with any b, c; d = 0 with c > 0 and any b; d = c = 0 with b >= 0.
    """
    side = 2 * height + 1
    return height * side * side + height * side + height + 1
