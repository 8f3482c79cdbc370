"""Exact polynomial layer: resultants, discriminants, Sturm counting.

The integer resultant (subresultant sequence) is checked against an
independent Sylvester-matrix determinant oracle, against sympy's
resultant, and with the discriminant and the Sturm count against the
Fraction Euclidean sequences kept in `qpoly_reference`.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from quintic_trinomials.qpoly import (UniPoly, resultant, discriminant,
                                      count_real_roots, is_rational_square,
                                      format_rational, parse_rational,
                                      poly_to_strings)
from quintic_trinomials.factor import factor_int, factor_over_Q
from quintic_trinomials import cli
from qpoly_reference import (count_real_roots_reference, discriminant_reference,
                             resultant_reference, squarefree_part)


def exact_det(rows):
    """Fraction Gaussian elimination with partial pivoting."""
    m = [row[:] for row in rows]
    n = len(m)
    det = F(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, n):
            if m[i][col]:
                factor = m[i][col] * inv
                m[i] = [a - factor * b for a, b in zip(m[i], m[col])]
    return det


def sylvester_resultant(p, q):
    """Independent oracle: determinant of the Sylvester matrix."""
    m, n = p.degree, q.degree
    size = m + n
    pdesc = [p[m - i] for i in range(m + 1)]
    qdesc = [q[n - i] for i in range(n + 1)]
    rows = []
    for i in range(n):
        rows.append([F(0)] * i + pdesc + [F(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([F(0)] * i + qdesc + [F(0)] * (size - n - 1 - i))
    return exact_det(rows)


def test_resultant_linear_factors():
    assert resultant(UniPoly([-2, 1]), UniPoly([-3, 1])) == -1


def test_resultant_shared_roots_vanishes():
    p = UniPoly([1, 0, 1])
    assert resultant(p, p) == 0


def test_resultant_discriminant_relation():
    f = UniPoly([12, -5, 0, 0, 0, 1])
    res = resultant(f, f.derivative())
    assert res == 64000000  # disc = (-1)^10 * res / lc
    assert sylvester_resultant(f, f.derivative()) == res


def test_resultant_both_zero_rejected():
    with pytest.raises(ValueError):
        resultant(UniPoly.zero(), UniPoly.zero())


def test_resultant_matches_sylvester_oracle():
    rng = random.Random(11)
    for _ in range(60):
        p = UniPoly([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(2, 7))])
        q = UniPoly([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(2, 7))])
        if p.degree < 1 or q.degree < 1:
            continue
        assert resultant(p, q) == sylvester_resultant(p, q)


def test_resultant_matches_root_product():
    # against sympy's resultant, lc(p)^deg q times the product of q over the
    # roots of p.  sympy 1.14 returns Res(q, p) for odd degrees deg p < deg q,
    # so it is asked for the other order and Res(p, q) = (-1)^(deg p deg q) Res(q, p)
    rng = random.Random(12)
    done = 0
    while done < 12:
        p = UniPoly([rng.randint(-8, 8) for _ in range(rng.randint(3, 7))])
        q = UniPoly([rng.randint(-8, 8) for _ in range(rng.randint(3, 7))])
        if p.degree < 1 or q.degree < 1:
            continue
        sympy, x, ps = _to_sympy(p)
        _, _, qs = _to_sympy(q)
        if p.degree >= q.degree:
            expected = sympy.resultant(ps, qs)
        else:
            expected = (-1) ** (p.degree * q.degree) * sympy.resultant(qs, ps)
        got = resultant(p, q)
        assert sympy.Rational(got.numerator, got.denominator) == expected
        done += 1


def test_discriminant_anchors():
    assert discriminant(UniPoly([-1, 0, 1])) == 4
    t = F(-3125, 256)
    assert discriminant(UniPoly([t, t, 0, 0, 0, 1])) == 0
    disc = discriminant(UniPoly([12, -5, 0, 0, 0, 1]))
    assert disc == 64000000
    assert is_rational_square(disc)  # 8000^2


def test_discriminant_constant_rejected():
    with pytest.raises(ValueError):
        discriminant(UniPoly([3]))


def test_discriminant_zero_iff_repeated_factor():
    rng = random.Random(13)
    checked = 0
    while checked < 200:
        p = UniPoly([F(rng.randint(-6, 6)) for _ in range(rng.randint(3, 7))])
        if p.degree < 1:
            continue
        repeated = any(m > 1 for _, m in factor_over_Q(p).factors)
        assert (discriminant(p) == 0) == repeated
        checked += 1


def test_sturm_real_root_counts():
    assert count_real_roots(UniPoly([-18, 0, 0, 0, 0, 1])) == 1
    assert count_real_roots(UniPoly([F(6, 5), F(6, 5), 0, 0, 0, 1])) == 1
    assert count_real_roots(UniPoly([12, -5, 0, 0, 0, 1])) == 1
    assert count_real_roots(UniPoly([-1, 0, 1])) == 2
    assert count_real_roots(UniPoly([1, 0, 1])) == 0
    # x(x-1)(x+1)(x-2)(x+2)
    p = UniPoly([0, 1]) * UniPoly([-1, 1]) * UniPoly([1, 1]) * UniPoly([-2, 1]) * UniPoly([2, 1])
    assert count_real_roots(p) == 5


def test_division_and_gcd():
    f = UniPoly([2, 3, 1])          # (x+1)(x+2)
    g = UniPoly([1, 1])
    quo, rem = divmod(f, g)
    assert rem.is_zero and quo == UniPoly([2, 1])
    assert f.gcd(UniPoly([-1, 0, 1])) == UniPoly([1, 1])
    assert squarefree_part(f * g) == f.monic()


def test_power_sums_match_roots():
    rng = random.Random(12)
    for _ in range(20):
        roots = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 6))]
        lead = F(rng.choice([-3, 1, 2]), rng.choice([1, 5]))
        p = UniPoly([lead])
        for r in roots:
            p = p * UniPoly([-r, 1])
        assert p.power_sums(9) == [sum(r ** m for r in roots) for m in range(10)]
    assert UniPoly([-18, 0, 0, 0, 0, 1]).power_sums(10) == [5, 0, 0, 0, 0, 90, 0, 0, 0, 0, 1620]


def test_scale_argument():
    f = UniPoly([12, -5, 0, 0, 0, 1])
    lam = F(12, -5)
    scaled = f.scale_argument(lam) * lam ** -5
    t = F(-3125, 20736)
    assert scaled == UniPoly([t, t, 0, 0, 0, 1])


def _primes_of(n):
    return set(factor_int(n)) if n > 1 else set()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(max_denominator=60).filter(lambda c: abs(c) <= 1000),
                min_size=1, max_size=7))
def test_integral_rescaling_is_monic_integral_with_the_denominators_primes(low):
    p = UniPoly(low + [1])
    d, ints = p.integral_rescaling()
    n = p.degree
    assert d >= 1 and ints[-1] == 1 and len(ints) == n + 1
    assert all(isinstance(c, int) for c in ints)
    # P(x) = d^n p(x / d)
    assert UniPoly(ints) == p.scale_argument(F(1, d)) * d ** n
    assert _primes_of(d) == set().union(*(_primes_of(c.denominator) for c in p.coeffs))
    # a scalar multiple has the same monic rescaling
    assert (p * F(-7, 3)).integral_rescaling() == (d, ints)


def test_integral_rescaling_anchors():
    # x^5 + x/2 + 1/4: d = 2 makes it integral, while the primitive part
    # 4x^5 + 2x + 1 has leading coefficient 4
    assert UniPoly([F(1, 4), F(1, 2), 0, 0, 0, 1]).integral_rescaling() == (2, [8, 8, 0, 0, 0, 1])
    assert UniPoly([105, 75, 0, 0, 0, 1]).integral_rescaling() == (1, [105, 75, 0, 0, 0, 1])


def test_rational_serialization_roundtrip():
    assert format_rational(F(-3, 7)) == "-3/7"
    assert format_rational(F(5)) == "5"
    assert parse_rational("-3125/20736") == F(-3125, 20736)
    with pytest.raises(ValueError):
        parse_rational("1.5")
    p = UniPoly([F(1, 2), 0, -3])
    assert cli._parse_poly(",".join(poly_to_strings(p))) == p


# degree 1..6, integer or rational coefficients, nonzero leading coefficient
_COEFFS = st.one_of(st.integers(-40, 40).map(F),
                    st.fractions(min_value=-12, max_value=12, max_denominator=9))
_POLYS = st.lists(_COEFFS, min_size=2, max_size=7).filter(lambda cs: cs[-1] != 0).map(UniPoly)


def _to_sympy(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy, x, sympy.Poly(coeffs, x)


def _from_sympy(value):
    return F(int(value.p), int(value.q))


@settings(max_examples=60, deadline=None)
@given(_POLYS)
def test_discriminant_matches_sympy(p):
    sympy, x, ps = _to_sympy(p)
    assert discriminant(p) == _from_sympy(sympy.discriminant(ps))


@settings(max_examples=60, deadline=None)
@given(_POLYS, _POLYS)
def test_resultant_matches_sympy(p, q):
    # sympy.resultant(p, q) drops the sign (-1)^(mn) of the Sylvester
    # determinant when deg p < deg q (sympy 1.14), so compare with deg p >= deg q
    if p.degree < q.degree:
        p, q = q, p
    sympy, x, ps = _to_sympy(p)
    _, _, qs = _to_sympy(q)
    assert resultant(p, q) == _from_sympy(sympy.resultant(ps, qs))
    assert resultant(q, p) == (-1) ** (p.degree * q.degree) * resultant(p, q)


@settings(max_examples=60, deadline=None)
@given(_POLYS, st.lists(st.integers(-3, 3), max_size=3))
def test_count_real_roots_matches_sympy(p, repeated_roots):
    # repeated rational roots exercise the squarefree part of the Sturm chain
    for r in repeated_roots:
        p = p * UniPoly([-r, 1]) ** 2
    sympy, x, ps = _to_sympy(p)
    assert count_real_roots(p) == ps.count_roots()


def test_str_prints_signs_units_and_zero():
    assert str(UniPoly([F(-1, 2), 0, -1, 1])) == "x^3 - x^2 - 1/2"
    assert str(UniPoly([F(5, 3), -1, 0, 0, 0, -2])) == "-2*x^5 - x + 5/3"
    assert str(UniPoly([0, 1])) == "x"
    assert str(UniPoly([0, F(-7, 4)])) == "-7/4*x"
    assert str(UniPoly([-3])) == "-3"
    assert str(UniPoly.zero()) == "0"


# half of the coefficients zero: sparse polynomials make remainder sequences
# skip degrees, where the signs and divisors of the integer sequences differ
_SMALL_COEFFS = st.just(F(0)) | st.builds(F, st.integers(-30, 30), st.sampled_from([1, 2, 3, 7]))
_LEADS = st.builds(F, st.integers(1, 30) | st.integers(-30, -1), st.sampled_from([1, 2, 5]))


def _poly_of_degree(low, high):
    return st.builds(lambda cs, lead: UniPoly(cs + [lead]),
                     st.lists(_SMALL_COEFFS, min_size=low, max_size=high), _LEADS)


@st.composite
def _with_repeated_factors(draw):
    """Degree 1..8, a leading coefficient of either sign; half of them q^k r with k = 2 or 3."""
    if draw(st.booleans()):
        return draw(_poly_of_degree(1, 8))
    k, q = draw(st.integers(2, 3)), draw(_poly_of_degree(1, 2))
    return q ** k * draw(_poly_of_degree(0, 8 - k * q.degree))


@settings(max_examples=100, deadline=None)
@given(_with_repeated_factors(), _with_repeated_factors(), st.sampled_from([1, -1, F(-2, 3)]))
# the Sturm sequence of x^4 + x drops from degree 3 to 1, and the next
# multiplier lc^3 is negative; the subresultant sequence of x^7 and
# x^6 + 2x^5 + 1 drops from degree 5 to 2, where h = g^3 / h^2 divides by 16
@example(UniPoly([0, 1, 0, 0, 1]), UniPoly([1, 1]), 1)
@example(UniPoly([0, 0, 0, 0, 0, 0, 0, 1]), UniPoly([1, 0, 0, 0, 0, 2, 1]), 1)
def test_integer_sequences_match_the_fraction_references(p, q, scale):
    p = p * scale
    assert resultant(p, q) == resultant_reference(p, q)
    assert resultant(q, p) == resultant_reference(q, p)
    assert resultant(p, p.derivative() * scale) == resultant_reference(p, p.derivative() * scale)
    assert discriminant(p) == discriminant_reference(p)
    assert count_real_roots(p) == count_real_roots_reference(p)
    assert count_real_roots(-p) == count_real_roots(p)


def test_integer_sequences_raise_like_the_references():
    zero, c = UniPoly.zero(), UniPoly([F(-3, 2)])
    for fn in (resultant, resultant_reference):
        with pytest.raises(ValueError, match="two zero polynomials"):
            fn(zero, zero)
        assert fn(zero, c) == fn(c, zero) == 0
    for fn in (discriminant, discriminant_reference):
        for p in (zero, c):
            with pytest.raises(ValueError, match="degree >= 1"):
                fn(p)
    assert count_real_roots(zero) == count_real_roots(c) == count_real_roots_reference(c) == 0
    assert resultant(c, UniPoly([1, 2, 3])) == resultant_reference(c, UniPoly([1, 2, 3])) == F(9, 4)
    assert resultant(c, c) == resultant_reference(c, c) == 1
