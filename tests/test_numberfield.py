"""Quintic field arithmetic, characteristic polynomials, root certificates."""

import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from quintic_trinomials.qpoly import UniPoly, count_real_roots, discriminant
from quintic_trinomials.factor import (cycle_type_mod_p, factor_mod_p, factor_over_Q,
                                       frobenius_traces, gf_p2_roots, primes_below)
from quintic_trinomials import numberfield
from quintic_trinomials.numberfield import (NumberField, has_root_in_field, charpoly_mod,
                                            _interpolated_roots, _lifted_roots, _root_bound,
                                            _sqrt_div, _sqrt_horner, _sqrt_mul)
from quintic_trinomials.curve import curve_from_t, point_search

from fraction_reference import field_product
from qpoly_reference import power_sums
from trager_oracle import monic_from_power_sums, trager_has_root, trager_norm

K18 = NumberField(UniPoly([-18, 0, 0, 0, 0, 1]))


def test_constructor_rejects_bad_polynomials():
    with pytest.raises(ValueError):
        NumberField(UniPoly([1, 1]))
    with pytest.raises(ValueError):
        NumberField(UniPoly([1, 1, 0, 0, 0, 2]))
    with pytest.raises(ValueError):
        NumberField(UniPoly([1, 1, 0, 0, 0, 1]))  # reducible


def test_multiplication_reduction():
    a = K18.generator
    assert a * a ** 4 == 18
    assert (1 + a) * (1 - a) == K18.element((1, 0, -1, 0, 0))
    t = F(6, 5)
    kt = NumberField(UniPoly([t, t, 0, 0, 0, 1]))
    at = kt.generator
    assert at * at ** 4 == kt.element((-t, -t, 0, 0, 0))


def test_mismatched_fields_rejected():
    other = NumberField(UniPoly([12, -5, 0, 0, 0, 1]))
    with pytest.raises(ValueError):
        K18.generator * other.generator


def test_trace_anchors():
    assert (K18.generator ** 2).trace() == 0
    q = F(-7, 3)
    assert K18.rational(q).trace() == 5 * q
    assert K18.generator.trace() == 0


def test_char_poly_anchors():
    q = F(3, 2)
    assert K18.rational(q).char_poly() == UniPoly([-q, 1]) ** 5
    assert K18.generator.char_poly() == K18.defining_poly
    assert K18.generator.norm() == 18


def test_char_poly_of_classified_point_element():
    t = F(6, 5)
    kt = NumberField(UniPoly([t, t, 0, 0, 0, 1]))
    a = F(-8, 65)
    beta = kt.element((a, F(20, 39), F(-16, 39), 1, F(5) * a / (4 * t)))
    cp = beta.char_poly()
    assert cp[4] == cp[3] == cp[2] == 0
    assert cp[1] == 0  # pure trinomial
    from quintic_trinomials.factor import fifth_power_class
    assert fifth_power_class(-cp[0]) == 24


def _random_fields(rng, count):
    fields = []
    while len(fields) < count:
        g = UniPoly([rng.randint(-6, 6) for _ in range(5)] + [1])
        if g.degree == 5 and factor_over_Q(g).is_irreducible:
            fields.append(NumberField(g))
    return fields


def test_char_poly_annihilates_element():
    rng = random.Random(41)
    for field in _random_fields(rng, 10):
        for _ in range(10):
            beta = field.element([F(rng.randint(-9, 9), rng.randint(1, 4))
                                  for _ in range(5)])
            cp = beta.char_poly()
            acc = field.rational(0)
            for coeff in reversed(cp.coeffs):
                acc = acc * beta + field.rational(coeff)
            assert acc.is_zero


def test_char_poly_irreducible_for_irrational_elements():
    rng = random.Random(42)
    for field in _random_fields(rng, 3):
        for _ in range(5):
            coords = [F(rng.randint(-5, 5)) for _ in range(5)]
            if all(c == 0 for c in coords[1:]):
                coords[1] = F(1)
            beta = field.element(coords)
            assert factor_over_Q(beta.char_poly()).is_irreducible


def test_trace_norm_match_embeddings():
    # for monic g, Res_x(g(x), y - h(x)) is the product of y - h(alpha) over
    # the embeddings alpha of the generator: the char poly of beta = h(alpha)
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    rng = random.Random(43)
    for field in _random_fields(rng, 3):
        beta = field.element([F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(5)])
        g, h = (sum(sympy.Rational(c.numerator, c.denominator) * x ** i for i, c in enumerate(cs))
                for cs in (field.defining_poly.coeffs, beta.coords))
        expected = sympy.Poly(sympy.resultant(g, y - h, x), y).all_coeffs()
        assert [sympy.Rational(c.numerator, c.denominator)
                for c in reversed(beta.char_poly().coeffs)] == expected
        trace, norm = beta.trace(), beta.norm()
        assert sympy.Rational(trace.numerator, trace.denominator) == -expected[1]
        assert sympy.Rational(norm.numerator, norm.denominator) == -expected[5]


def test_root_certificates_in_radical_field():
    # roots: alpha, alpha^2, alpha^3/3, alpha^4/3 and the discovered quintic
    expectations = [
        (UniPoly([-18, 0, 0, 0, 0, 1]), (0, 1, 0, 0, 0)),
        (UniPoly([-324, 0, 0, 0, 0, 1]), (0, 0, 1, 0, 0)),
        (UniPoly([-24, 0, 0, 0, 0, 1]), (0, 0, 0, F(1, 3), 0)),
        (UniPoly([-432, 0, 0, 0, 0, 1]), (0, 0, 0, 0, F(1, 3))),
    ]
    for f, coords in expectations:
        res = has_root_in_field(f, K18)
        assert res.certified
        assert res.witness.coords == tuple(F(c) for c in coords)
    res = has_root_in_field(UniPoly([3750, 750, 0, 0, 0, 1]), K18)
    assert res.certified
    beta = res.witness
    assert (beta ** 5 + 750 * beta + 3750).is_zero


def test_certificates_reverify_exactly():
    res = has_root_in_field(UniPoly([-324, 0, 0, 0, 0, 1]), K18)
    assert (res.witness ** 5).coords == (F(324), 0, 0, 0, 0)


def test_degree_obstruction_absent():
    for f in (UniPoly([1, 1, 1]), UniPoly([-2, 0, 0, 1]), UniPoly([2, 0, 0, 0, 1])):
        res = has_root_in_field(f, K18)
        assert res.status == "absent"


def test_signature_obstruction_absent():
    # x^5 - 15x + 3 is totally real... compute: it has 3 real roots; K18 has 1
    f = UniPoly([3, -15, 0, 0, 0, 1])
    from quintic_trinomials.qpoly import count_real_roots
    assert count_real_roots(f) == 3
    res = has_root_in_field(f, K18)
    assert res.status == "absent"
    assert "signature" in res.detail


def test_rational_root_certificate():
    res = has_root_in_field(UniPoly([-6, 1]) * UniPoly([1, 0, 1]), K18)
    assert res.certified and res.witness == K18.rational(6)


def test_inconclusive_never_wrong():
    # x^5 - 2 has the same signature as the dihedral field, so only the
    # prime scan can prove that it has no root there: x^5 - 2 has a root
    # mod 7 and x^5 - 5x + 12 has none
    field = NumberField(UniPoly([12, -5, 0, 0, 0, 1]))
    res = has_root_in_field(UniPoly([-2, 0, 0, 0, 0, 1]), field)
    assert res.status == "absent" and res.witness is None
    assert res.detail == "root counts mod 7 differ: 1 for f, 0 for the field polynomial"


def test_charpoly_mod_matches_field_elements():
    rng = random.Random(44)
    g = UniPoly([105, 75, 0, 0, 0, 1])
    field = NumberField(g)
    for _ in range(5):
        coords = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)]
        assert charpoly_mod(g, coords) == field.element(coords).char_poly()


def _charpoly_reference(g, coords):
    """The Fraction computation: traces of the powers of beta mod g, then Newton."""
    traces = power_sums(g, g.degree - 1)
    beta = UniPoly(coords) % g
    power = UniPoly.one()
    psums = [F(g.degree)]
    for _ in range(g.degree):
        power = (power * beta) % g
        psums.append(sum(power[i] * traces[i] for i in range(g.degree)))
    return monic_from_power_sums(psums)


_rationals = st.builds(F, st.integers(-40, 40), st.integers(1, 24))


@settings(max_examples=150, deadline=None)
@given(low=st.lists(_rationals, min_size=5, max_size=5),
       coords=st.one_of(st.lists(_rationals, min_size=5, max_size=5),
                        _rationals.map(lambda q: [q, 0, 0, 0, 0]),
                        st.just([0, 0, 0, 0, 0])))
def test_integer_charpoly_matches_the_fraction_reference(low, coords):
    # monic quintics with rational coefficients: the rescaling d of G = d^5 g(x / d)
    # exceeds 1 whenever a coefficient has a denominator; random, rational and zero elements
    g = UniPoly([*low, 1])
    assert charpoly_mod(g, coords) == _charpoly_reference(g, coords)


def test_integer_charpoly_matches_the_fraction_reference_on_the_t65_points():
    curve = curve_from_t(F(6, 5))
    points = point_search(curve, 200).points
    assert len(points) == 5
    for pt in points:
        coords = curve.beta_coords(pt)
        assert charpoly_mod(curve.defining_poly, coords) == _charpoly_reference(
            curve.defining_poly, coords)
    # x^5 + 6/5 x + 6/5 rescales with d = 5: theta = 5 alpha
    assert curve.defining_poly.integral_rescaling()[0] == 5


def test_certification_roundtrip_on_random_fields():
    # construct the answer: f = char_poly(beta) always has the root beta
    rng = random.Random(123)
    done = 0
    while done < 10:
        g = UniPoly([rng.randint(-6, 6) for _ in range(5)] + [1])
        if g.degree != 5 or not factor_over_Q(g).is_irreducible:
            continue
        field = NumberField(g)
        coords = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(5)]
        if all(c == 0 for c in coords[1:]):
            coords[1] = F(1)
        beta = field.element(coords)
        res = has_root_in_field(beta.char_poly(), field)
        assert res.certified, (g, coords, res.detail)
        done += 1


def test_certification_in_totally_real_field():
    # minimal polynomial of 2cos(2pi/11): a cyclic field with five real
    # embeddings, so f = char_poly(beta) has all five of its roots in it
    g = UniPoly([1, 3, -3, -4, 1, 1])
    assert count_real_roots(g) == 5
    field = NumberField(g)
    beta = field.element((F(1, 2), 1, 0, -1, F(1, 3)))
    res = has_root_in_field(beta.char_poly(), field)
    assert res.certified
    assert res.witness.char_poly() == beta.char_poly()


def _is_root(f, beta):
    acc = beta.field.rational(0)
    for c in reversed(f.coeffs):
        acc = acc * beta + c
    return acc.is_zero


def test_results_are_certified_or_absent_only():
    res = has_root_in_field(UniPoly([-18, 0, 0, 0, 0, 1]), K18)
    assert res.precision_bits is None and res.denominator_bound is None
    rng = random.Random(45)
    for field in _random_fields(rng, 2):
        for _ in range(3):
            f = UniPoly([rng.randint(-20, 20) for _ in range(5)] + [1])
            res = has_root_in_field(f, field)
            assert res.status in ("certified", "absent"), res
            assert res.status == "absent" or _is_root(f, res.witness)


def test_trager_norm_roots_are_shifted_sums():
    # x^5 - 18 against itself: N_k(x) = prod (zeta^j + k zeta^i) 18^(1/5)
    g = K18.defining_poly
    n2 = trager_norm(g, g, 2)
    assert n2.degree == 25 and n2.lc == 1
    # the diagonal i = j contributes ((x / 3)^5 - 18) * 3^5 = x^5 - 18 * 3^5
    assert (n2 % UniPoly([-18 * 3 ** 5, 0, 0, 0, 0, 1])).is_zero
    # k = 1 pairs (i, j) with (j, i): N_1 has repeated factors
    assert not all(m == 1 for _, m in factor_over_Q(trager_norm(g, g, 1)).factors)


def _sympy_norm(f, g, k):
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    fs = sum(sympy.Rational(c.numerator, c.denominator) * (x - k * y) ** i
             for i, c in enumerate(f.coeffs))
    gs = sum(sympy.Rational(c.numerator, c.denominator) * y ** i
             for i, c in enumerate(g.coeffs))
    return sympy, x, sympy.Poly(sympy.resultant(gs, sympy.expand(fs), y), x)


_DIFFERENTIAL_CASES = [
    (K18.defining_poly, UniPoly([3750, 750, 0, 0, 0, 1]), 1),
    (K18.defining_poly, UniPoly([-2, 0, 0, 0, 0, 1]), 1),
    (UniPoly([12, -5, 0, 0, 0, 1]), UniPoly([-2, 0, 0, 0, 0, 1]), 1),
    (UniPoly([105, 75, 0, 0, 0, 1]), UniPoly([465, -75, 0, 0, 0, 1]), 2),
    (UniPoly([F(6, 5), F(6, 5), 0, 0, 0, 1]), UniPoly([F(1, 3), -1, F(2, 7), 0, 1, 1]), 3),
]


@pytest.mark.parametrize("g, f, k", _DIFFERENTIAL_CASES)
def test_trager_norm_matches_sympy_resultant(g, f, k):
    sympy, x, expected = _sympy_norm(f, g, k)
    ours = trager_norm(f, g, k)
    assert [sympy.Rational(c.numerator, c.denominator) for c in reversed(ours.coeffs)] \
        == expected.all_coeffs()


@pytest.mark.parametrize("g, f, k", _DIFFERENTIAL_CASES[:4])
def test_norm_criterion_matches_sympy_factor_degrees(g, f, k):
    sympy, x, norm = _sympy_norm(f, g, k)
    _, factors = sympy.factor_list(norm.as_expr(), x)
    degrees = sorted(sympy.degree(h, x) for h, m in factors for _ in range(m))
    ours = sorted(h.degree for h, m in factor_over_Q(trager_norm(f, g, k)).factors
                  for _ in range(m))
    assert ours == degrees
    if all(m == 1 for _, m in factors):
        res = has_root_in_field(f, NumberField(g))
        assert res.certified == (5 in degrees)


_PROPERTY_FIELDS = [K18, NumberField(UniPoly([105, 75, 0, 0, 0, 1])),
                    NumberField(UniPoly([F(6, 5), F(6, 5), 0, 0, 0, 1])),
                    NumberField(UniPoly([1, 3, -3, -4, 1, 1]))]


_COORDS = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3),
                   min_size=5, max_size=5)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(_PROPERTY_FIELDS), _COORDS)
def test_char_poly_of_any_element_is_certified(field, coords):
    beta = field.element(coords)
    f = beta.char_poly()
    res = has_root_in_field(f, field)
    assert res.certified and _is_root(f, res.witness)
    assert res.witness.char_poly() == f


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_PROPERTY_FIELDS), _COORDS, _COORDS, _COORDS)
def test_products_are_multiplicative_and_distributive(field, x, y, z):
    beta, gamma, delta = field.element(x), field.element(y), field.element(z)
    assert (beta * gamma).norm() == beta.norm() * gamma.norm()
    assert (beta + gamma) * delta == beta * delta + gamma * delta


# fields with rational coefficients, where theta = e alpha has e > 1
_PRODUCT_FIELDS = _PROPERTY_FIELDS + [NumberField(UniPoly([F(1, 3), F(1, 2), 0, 0, 0, 1])),
                                      NumberField(UniPoly([F(-2, 7), F(5, 3), F(1, 4), 0,
                                                           F(-1, 2), 1]))]

_WIDE_COORDS = st.one_of(
    st.lists(st.fractions(min_value=-60, max_value=60, max_denominator=45), min_size=5,
             max_size=5),
    st.fractions(min_value=-9, max_value=9, max_denominator=9).map(lambda q: [q, 0, 0, 0, 0]))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_PRODUCT_FIELDS), _WIDE_COORDS, _WIDE_COORDS)
def test_products_match_the_fraction_reference(field, x, y):
    # the product in Z[theta]/(G) against the Fraction product reduced mod g
    product = field.element(x) * field.element(y)
    assert product.coords == field_product(field.defining_poly, x, y)
    assert (field.element(y) * field.element(x)).coords == product.coords


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_PRODUCT_FIELDS), _WIDE_COORDS, st.integers(0, 7))
def test_powers_match_repeated_fraction_products(field, x, n):
    expected = (1, 0, 0, 0, 0)
    for _ in range(n):
        expected = field_product(field.defining_poly, expected, x)
    assert (field.element(x) ** n).coords == expected


def test_str_of_elements():
    assert str(K18.element((F(-1, 2), 1, 0, -3, F(2, 7)))) == "-1/2 + a - 3*a^3 + 2/7*a^4"
    assert str(K18.element((0, -1, 0, 0, 1))) == "-a + a^4"
    assert str(K18.element((0, 0, F(3, 5), 0, -1))) == "3/5*a^2 - a^4"
    assert str(K18.rational(0)) == "0"
    assert str(K18.rational(-1)) == "-1"


def _common_prime(F, G, k):
    """The first good prime p where F and G both have all five roots in GF(p^k)."""
    bad = discriminant(UniPoly(F)) * discriminant(UniPoly(G))
    primes = [p for p in primes_below(5000) if p > 5 and bad % p]
    traces = frobenius_traces([F, G], primes, k)[..., k - 1]
    return next(p for i, p in enumerate(primes) if traces[0, i] == traces[1, i] == 5)


def test_interpolation_at_a_split_prime_finds_the_root_or_proves_none():
    # k = 1: a prime where both split completely; k = 2: both have their roots in GF(p^2)
    G = [-18, 0, 0, 0, 0, 1]
    disc = int(discriminant(UniPoly(G)))
    for k in (1, 2):
        # alpha^2 is the root of x^5 - 324: h = disc * x^2
        F = [-324, 0, 0, 0, 0, 1]
        assert _interpolated_roots(F, G, disc, _common_prime(F, G, k)) == [[0, 0, disc, 0, 0]]
        # Q(2^(1/5)) is not Q(18^(1/5)): no compatible matching survives
        F = [-2, 0, 0, 0, 0, 1]
        assert _interpolated_roots(F, G, disc, _common_prime(F, G, k)) == []


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_PROPERTY_FIELDS), st.lists(st.integers(-4, 4), min_size=5, max_size=5))
def test_root_coordinates_lie_within_the_interpolation_bound(field, coords):
    # beta has the integers disc(G) c_j in the basis of theta = e alpha, the
    # root of the rescaled G; they must lie within B, and interpolation at
    # the least precision p^k > 2B 2^64 must give them back
    assume(any(coords[1:]))
    beta = field.element(coords)
    d, F = beta.char_poly().integral_rescaling()
    e, G = field.defining_poly.integral_rescaling()
    disc = int(discriminant(UniPoly(G)))
    scaled = [disc * d * c / e ** j for j, c in enumerate(beta.coords)]
    assert all(c.denominator == 1 for c in scaled)
    h = [int(c) for c in scaled]
    assert max(map(abs, h)) <= _root_bound(F, G, disc)
    assert h in _interpolated_roots(F, G, disc, _common_prime(F, G, 2))


def _conjugations():
    """Every involution of five roots with 5, 3 or 1 fixed points: types 1^5, 1^3 2 and 1 2^2."""
    out = []
    for swaps in range(3):
        for pairs in itertools.combinations(itertools.combinations(range(5), 2), swaps):
            conj = list(range(5))
            for i, j in pairs:
                conj[i], conj[j] = j, i
            if len({i for pair in pairs for i in pair}) == 2 * swaps:
                out.append(tuple(conj))
    return out


def test_frobenius_matchings_are_the_permutations_that_commute_with_conjugation():
    conjugations = _conjugations()
    assert len(conjugations) == 1 + 10 + 15
    for conj_g, conj_f in itertools.product(conjugations, repeat=2):
        kept = {match for match in itertools.permutations(range(5))
                if all(match[conj_g[i]] == conj_f[m] for i, m in enumerate(match))}
        enumerated = list(numberfield._frobenius_matchings(conj_g, conj_f))
        assert len(enumerated) == len(set(enumerated))
        assert set(enumerated) == kept
        fixed = sum(i == c for i, c in enumerate(conj_g))
        if fixed == sum(i == c for i, c in enumerate(conj_f)):
            assert len(kept) == {5: 120, 3: 12, 1: 8}[fixed]
        else:
            assert not kept


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(-20, 20), st.integers(-10 ** 40, 10 ** 40)),
                min_size=5, max_size=5))
def test_root_modulus_bound_covers_every_root_and_never_exceeds_cauchy(low):
    # Fujiwara's bound, computed in integers, holds every complex root (numpy's
    # roots as an oracle, with a relative margin for their rounding) and is at
    # most Cauchy's 1 + max |a_i|, so the interpolation precision never grows
    P = low + [1]
    bound = numberfield._root_modulus_bound(P)
    assert 1 <= bound <= 1 + max(map(abs, low))
    largest = max(abs(np.roots([float(c) for c in reversed(P)])))
    assert largest <= bound * (1 + 1e-6)
    for c in low:
        for k in range(1, 6):
            m = numberfield._ceil_root(abs(c), k)
            assert m ** k >= abs(c) and (m == 0 or (m - 1) ** k < abs(c))


def _non_residue(p):
    return next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)


def test_split_prime_roots_by_evaluation_match_factorization():
    # at primes where G has all its roots in GF(p^2), split or not, the roots
    # (a, b) = a + b sqrt(n) give back the factors mod p: x - a for b = 0 and
    # x^2 - 2a x + a^2 - n b^2 for a conjugate pair
    for field in _PROPERTY_FIELDS:
        _, G = field.defining_poly.integral_rescaling()
        disc = discriminant(UniPoly(G))
        primes = [p for p in primes_below(3000) if p > 5 and disc % p]
        traces = frobenius_traces([G], primes, 2)[0].tolist()
        stops = [p for p, (_, t2) in zip(primes, traces) if t2 == 5][:4]
        stops.append(next(p for p, (t1, _) in zip(primes, traces) if t1 == 5))
        for p in stops:
            n = _non_residue(p)
            roots = gf_p2_roots(G, n, p)
            factors = sorted([-a % p, 1] if b == 0 else [(a * a - n * b * b) % p, -2 * a % p, 1]
                             for a, b in roots if b <= p - b)
            assert factors == sorted(g for g, _ in factor_mod_p(G, p))


def test_lifted_roots_need_a_split_prime():
    # x^5 - 18 mod p has the cycle type 1 2^2 for p = 4 mod 5 and 1 4 for
    # p = 2, 3 mod 5, and is irreducible or split for p = 1 mod 5; 3 and 5
    # divide its discriminant
    G = [-18, 0, 0, 0, 0, 1]
    types = {cycle_type_mod_p(G, p): p for p in primes_below(200) if p > 5}
    assert types.keys() == {(1, 1, 1, 1, 1), (1, 2, 2), (1, 4), (5,)}
    for cycle_type in ((1, 4), (5,)):
        p = types[cycle_type]
        with pytest.raises(ArithmeticError, match="does not split"):
            gf_p2_roots(G, _non_residue(p), p)
    for p in (3, 5):
        with pytest.raises(ArithmeticError, match="does not split"):
            gf_p2_roots(G, 2, p)


def test_lift_roots_doubles_to_the_target_precision():
    # x^5 - 18 splits into five linear factors mod 131; 2 is not a square mod 131
    ints = [-18, 0, 0, 0, 0, 1]
    roots = [-g[0] % 131 for g, _ in factor_mod_p(ints, 131)]
    assert len(roots) == 5
    lifted = _lifted_roots(ints, [(r, 0) for r in roots], 2, 131, 20)
    assert [(a % 131, b) for a, b in lifted] == [(r, 0) for r in roots]
    assert all(_sqrt_horner(ints, r, 2, 131 ** 20)[-1] == (0, 0) for r in lifted)
    with pytest.raises(ArithmeticError, match="lift invariant broken"):
        _lifted_roots(ints, [(3, 0)], 2, 131, 4)


def test_lift_roots_in_the_quadratic_extension():
    # x^2 + 1 has the roots +-sqrt(-1) = +-sqrt(3) * 4 mod 7 (3 is not a square mod 7,
    # 3 * 4^2 = 48 = -1), which lift to the square roots of -1 in Z/7^12[sqrt 3]
    q = 7 ** 12
    lifted = _lifted_roots([1, 0, 1], [(0, 4), (0, 3)], 3, 7, 12)
    assert [(a % 7, b % 7) for a, b in lifted] == [(0, 4), (0, 3)]
    for r in lifted:
        assert _sqrt_mul(r, r, 3, q) == (q - 1, 0)
    assert lifted[1] == (0, -lifted[0][1] % q)
    assert _sqrt_div((1, 0), lifted[0], 3, q) == (0, -lifted[0][1] % q)
    # Horner's sums at a root are the quotient by x - r: (x - r)(x + r) = x^2 + 1
    assert _sqrt_horner([1, 0, 1], lifted[0], 3, q) == [(1, 0), lifted[0], (0, 0)]


# (G, p): fields whose first prime with every root in GF(p^2) has each
# cycle type: split, 1^3 2 and 1 2^2
_STOP_PRIMES = [([979, 2310, -55, -110, 0, 1], 23, (1, 1, 1, 1, 1)),
                ([105, 75, 0, 0, 0, 1], 7, (1, 1, 1, 2)),
                ([-18, 0, 0, 0, 0, 1], 19, (1, 2, 2))]


@pytest.mark.parametrize("G, p, cycle_type", _STOP_PRIMES)
def test_roots_in_the_quadratic_extension_at_each_stop_cycle_type(G, p, cycle_type):
    disc = int(discriminant(UniPoly(G)))
    assert _common_prime(G, G, 2) == p and cycle_type_mod_p(G, p) == cycle_type
    n, k = _non_residue(p), 30
    q = p ** k
    roots = _lifted_roots(G, gf_p2_roots(G, n, p), n, p, k)
    assert all(_sqrt_horner(G, r, n, q)[-1] == (0, 0) for r in roots)
    assert len({(a % p, b % p) for a, b in roots}) == 5
    assert sorted((a, -b % q) for a, b in roots) == sorted(roots)
    assert sum(b == 0 for _, b in roots) == cycle_type.count(1)
    # the roots of G in Q(theta) are theta and its images under the automorphisms
    roots_in_field = _interpolated_roots(G, G, disc, p)
    assert [0, disc, 0, 0, 0] in roots_in_field
    assert len(roots_in_field) == (5 if cycle_type == (1, 1, 1, 1, 1) else 1)


def test_signature_is_counted_once_per_field(monkeypatch):
    field = NumberField(UniPoly([105, 75, 0, 0, 0, 1]))
    calls = []
    monkeypatch.setattr(numberfield, "count_real_roots",
                        lambda g: calls.append(g) or count_real_roots(g))
    assert field.signature == (1, 2)
    for f in (UniPoly([465, -75, 0, 0, 0, 1]), UniPoly([-2, 0, 0, 0, 0, 1])):
        has_root_in_field(f, field)
    assert field.signature == (1, 2)
    assert calls.count(field.defining_poly) == 1


# minimal polynomial of 2cos(2pi/11): a cyclic field, whose automorphisms
# are generated by alpha -> alpha^2 - 2 (2cos(2t) = (2cos t)^2 - 2)
_CYCLIC = UniPoly([1, 3, -3, -4, 1, 1])


def _conjugates(beta):
    """The images of beta under the five automorphisms of the cyclic field."""
    field = beta.field
    images, image_of_alpha = [], field.generator
    for _ in range(5):
        acc = field.rational(0)
        for c in reversed(beta.coords):
            acc = acc * image_of_alpha + c
        images.append(acc)
        image_of_alpha = image_of_alpha ** 2 - 2
    return images


def _height(beta):
    den = math.lcm(*(c.denominator for c in beta.coords))
    return max([den] + [abs(c * den) for c in beta.coords])


def _least_height(elements):
    return min(elements, key=lambda b: (_height(b), b.coords))


def test_cyclic_field_witness_is_the_least_height_root():
    field = NumberField(_CYCLIC)
    rng = random.Random(47)
    for _ in range(10):
        coords = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)]
        coords[1] = coords[1] or F(1)
        beta = field.element(coords)
        roots = _conjugates(beta)
        assert len(set(roots)) == 5 and all(_is_root(beta.char_poly(), r) for r in roots)
        res = has_root_in_field(beta.char_poly(), field)
        assert res.certified and res.witness == _least_height(roots)


_ORACLE_FIELDS = [K18.defining_poly, UniPoly([105, 75, 0, 0, 0, 1]),
                  UniPoly([12, -5, 0, 0, 0, 1]), _CYCLIC]


@st.composite
def _oracle_fields(draw):
    if draw(st.booleans()):
        return NumberField(draw(st.sampled_from(_ORACLE_FIELDS)))
    g = UniPoly(draw(st.lists(st.integers(-6, 6), min_size=5, max_size=5)) + [1])
    assume(factor_over_Q(g).is_irreducible)
    return NumberField(g)


@settings(max_examples=30, deadline=None)
@given(_oracle_fields(),
       st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                min_size=5, max_size=5),
       st.lists(st.integers(-30, 30), min_size=5, max_size=5),
       st.booleans())
def test_decision_agrees_with_trager_oracle(field, coords, low, from_element):
    f = field.element(coords).char_poly() if from_element else UniPoly(low + [1])
    res = has_root_in_field(f, field)
    assert res.certified == trager_has_root(f, field.defining_poly), res.detail
    if res.certified:
        assert _is_root(f, res.witness)
        if field.defining_poly == _CYCLIC:
            roots = [b for b in _conjugates(res.witness) if _is_root(f, b)]
            assert res.witness == _least_height(roots)


_K_REM = NumberField(UniPoly([105, 75, 0, 0, 0, 1]))
_K_FRACTIONAL = NumberField(UniPoly([F(1, 4), F(1, 2), 0, 0, 0, 1]))
_COUNTS_DIFFER = "root counts mod {} differ: {} for f, {} for the field polynomial"

# (field, a, b, status, detail, witness) of x^5 + a x + b: the 13 paper
# certificates and one absent case per way the decision can end
_PINNED_DECISIONS = [
    (K18, 0, -18, "certified", "verified exactly", ["0", "1", "0", "0", "0"]),
    (K18, 0, -324, "certified", "verified exactly", ["0", "0", "1", "0", "0"]),
    (K18, 0, -24, "certified", "verified exactly", ["0", "0", "0", "1/3", "0"]),
    (K18, 0, -432, "certified", "verified exactly", ["0", "0", "0", "0", "1/3"]),
    (K18, 750, 3750, "certified", "verified exactly", ["0", "-1", "1", "-1/3", "-1/3"]),
    (_K_REM, 75, 105, "certified", "verified exactly", ["0", "1", "0", "0", "0"]),
    (_K_REM, -75, 465, "certified", "verified exactly",
     ["-240/79", "-23/79", "-32/79", "7/79", "-4/79"]),
    (_K_REM, -1125, 3825, "certified", "verified exactly",
     ["-240/79", "135/79", "-32/79", "7/79", "-4/79"]),
    (_K_REM, -2025, 65205, "certified", "verified exactly",
     ["-780/79", "24/79", "54/79", "3/79", "-13/79"]),
    (_K_REM, 2025, 10665, "certified", "verified exactly",
     ["-180/79", "42/79", "-24/79", "25/79", "-3/79"]),
    (_K_REM, -10125, 83025, "certified", "verified exactly",
     ["-660/79", "75/79", "-9/79", "39/79", "-11/79"]),
    (_K_REM, 28125, -39375, "certified", "verified exactly",
     ["-180/79", "-195/79", "55/79", "25/79", "-3/79"]),
    (_K_REM, -3410625, 86685375, "certified", "verified exactly",
     ["-3180/79", "110/79", "50/79", "152/79", "-53/79"]),
    # counts differ before the first prime where K's roots lie in GF(p^2)
    (K18, 1, 3, "absent", _COUNTS_DIFFER.format(7, 0, 1), None),
    # x^5 + 2 has its roots in GF(19^2) too, and counts differ at the split prime
    (K18, 0, 2, "absent", _COUNTS_DIFFER.format(131, 0, 5), None),
    # at 19, f's roots are not all in GF(19^2)
    (K18, 7, 12, "absent", _COUNTS_DIFFER.format(37, 0, 1), None),
    (K18, 0, 19, "absent", "no root interpolated at the split prime 131 verifies", None),
    # the first prime where K's roots lie in GF(p^2) is 7, and counts differ at 11
    (_K_REM, -11, 14, "absent", _COUNTS_DIFFER.format(11, 0, 2), None),
    # fractional coefficients, where the integral rescaling d differs from the
    # leading coefficient of the primitive part (16 against 32, 2 against 4)
    (_K_REM, F(75, 16), F(105, 32), "certified", "verified exactly", ["0", "1/2", "0", "0", "0"]),
    (_K_FRACTIONAL, F(1, 2), F(1, 4), "certified", "verified exactly", ["0", "1", "0", "0", "0"]),
    (_K_REM, F(1, 2), F(1, 4), "absent", _COUNTS_DIFFER.format(19, 2, 0), None),
    (_K_FRACTIONAL, F(75, 16), F(105, 32), "absent", _COUNTS_DIFFER.format(19, 0, 2), None),
]


@pytest.mark.parametrize("field, a, b, status, detail, witness", _PINNED_DECISIONS)
def test_decisions_are_pinned(field, a, b, status, detail, witness):
    res = has_root_in_field(UniPoly([b, a, 0, 0, 0, 1]), field)
    assert (res.status, res.detail) == (status, detail)
    assert (res.witness and [str(c) for c in res.witness.coords]) == witness


@pytest.mark.parametrize("field, a, b, primes", [
    (_K_REM, 75, 105, [7]),    # certified at 7, where x^5 + 75x + 105 has the cycle type 1^3 2
    (K18, 0, -324, [19]),      # certified at 19, cycle type 1 2^2; G splits first at 131
    (K18, 0, 2, [19]),         # no root at 19 proves absence; counts differ at 131
    (K18, 7, 12, []),          # f's roots are not all in GF(19^2): nothing to interpolate
])
def test_decision_interpolates_at_the_first_prime_with_roots_in_gf_p2(monkeypatch, field, a, b,
                                                                       primes):
    seen, interpolate = [], numberfield._interpolated_roots
    monkeypatch.setattr(numberfield, "_interpolated_roots",
                        lambda F, G, disc, p: seen.append(p) or interpolate(F, G, disc, p))
    has_root_in_field(UniPoly([b, a, 0, 0, 0, 1]), field)
    assert seen == primes
