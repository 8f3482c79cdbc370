"""Factorization over Q, mod-p cycle types, fifth-power classes."""

import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from quintic_trinomials.qpoly import UniPoly, discriminant, integer_discriminant
from quintic_trinomials import factor, qpoly
from quintic_trinomials.factor import (factor_over_Q, is_irreducible, factor_int,
                                       fifth_power_class, cycle_type_mod_p, factor_mod_p,
                                       is_prime, primes_below)
from qpoly_reference import content_and_primitive
from trager_oracle import trager_norm


def test_cyclotomic_split():
    fac = factor_over_Q(UniPoly([1, 0, 0, 0, 0, 1]))
    assert fac.unit == 1
    assert [f.coeffs for f, _ in fac.factors] == [
        (F(1), F(1)),
        (F(1), F(-1), F(1), F(-1), F(1)),
    ]


def test_known_irreducible_quintics():
    assert is_irreducible(UniPoly([12, -5, 0, 0, 0, 1]))
    assert is_irreducible(UniPoly([-18, 0, 0, 0, 0, 1]))
    assert is_irreducible(UniPoly([105, 75, 0, 0, 0, 1]))


def test_x10_minus_1_cyclotomics():
    fac = factor_over_Q(UniPoly([-1] + [0] * 9 + [1]))
    degrees = sorted(f.degree for f, _ in fac.factors)
    assert degrees == [1, 1, 4, 4]
    assert fac.expand() == UniPoly([-1] + [0] * 9 + [1])


def test_trinomial_with_reducible_split():
    fac = factor_over_Q(UniPoly([1, 1, 0, 0, 0, 1]))
    assert [f.coeffs for f, _ in fac.factors] == [
        (F(1), F(1), F(1)),
        (F(1), F(0), F(-1), F(1)),
    ]


def test_multiplicities_and_unit():
    p = UniPoly([F(3)]) * UniPoly([1, 1]) ** 2 * UniPoly([2, 0, 1]) ** 3
    fac = factor_over_Q(p)
    assert fac.unit == 3
    assert dict((f.coeffs, m) for f, m in fac.factors) == {
        (F(1), F(1)): 2, (F(2), F(0), F(1)): 3}
    assert fac.expand() == p


def test_random_products_multiply_back():
    rng = random.Random(21)
    pool = [UniPoly([1, 1]), UniPoly([-2, 1]), UniPoly([1, 0, 1]),
            UniPoly([1, 1, 1]), UniPoly([-2, 0, 1]), UniPoly([1, -1, 0, 1]),
            UniPoly([2, 0, 0, 1])]
    checked = 0
    while checked < 200:
        parts = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        unit = F(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 7]))
        p = UniPoly([unit])
        for part in parts:
            p = p * part
        if p.degree < 1 or p.degree > 8:
            continue
        fac = factor_over_Q(p)
        assert fac.expand() == p
        assert all(f.lc == 1 for f, _ in fac.factors)
        assert all(is_irreducible(f) for f, _ in fac.factors)
        checked += 1


def test_squarefree_shortcut_matches_yun():
    # a nonzero discriminant skips Yun's rational gcds exactly when no factor
    # repeats, and mod p it is the squarefree test of the Hensel-prime scan
    rng = random.Random(22)
    pool = [UniPoly([1, 1]), UniPoly([-2, 1]), UniPoly([1, 0, 1]), UniPoly([3, 1, 1]),
            UniPoly([-2, 0, 1]), UniPoly([1, -1, 0, 1]), UniPoly([2, 0, 0, 0, 0, 1]),
            UniPoly([F(1, 3), -1, F(2, 7), 0, 1])]
    polys = []
    for _ in range(40):
        p = UniPoly([F(rng.choice([-2, 1, 3]), rng.choice([1, 4]))])
        for _ in range(rng.randint(1, 4)):
            p = p * rng.choice(pool)
        polys.append(p)
    for p in polys:
        fac = factor_over_Q(p)
        assert (discriminant(p) == 0) == any(m > 1 for _, m in fac.factors)
        # Yun's split, which the shortcut skips, leaves exactly a squarefree p whole
        assert (factor._yun_squarefree(p.monic()) == [(p.monic(), 1)]) == (discriminant(p) != 0)
        _, ints = p.integral_rescaling()
        disc = integer_discriminant(ints)
        assert [q for q in primes_below(60) if disc % q] == [
            q for q in primes_below(60) if factor._gf_is_squarefree([c % q for c in ints], q)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=10),
       st.lists(st.integers(-50, 50), min_size=1, max_size=5))
def test_monic_division_in_z_x(a, low):
    # a = q b + r with deg r < deg b, the remainder keeping its zero coefficients
    b = low + [1]
    q, r = factor.z_divmod(a, b)
    assert len(r) == min(len(a), len(b) - 1)
    total = factor.z_mul(q, b) or [0] * len(a)
    for i, c in enumerate(r):
        total[i] += c
    assert total == a


def test_squarefree_input_takes_one_discriminant(monkeypatch):
    # factor_over_Q computes disc of the monic integral rescaling once, and
    # the Hensel-prime scan reuses it; only a zero one splits by Yun's gcds,
    # with one more discriminant per squarefree part.  Both names are spied
    # on, `qpoly`'s own being the one `qpoly.discriminant` calls.
    calls = []
    integer_discriminant = qpoly.integer_discriminant

    def spy(ints):
        calls.append(ints)
        return integer_discriminant(ints)

    monkeypatch.setattr(factor, "integer_discriminant", spy)
    monkeypatch.setattr(qpoly, "integer_discriminant", spy)
    for coeffs in ([-18, 0, 0, 0, 0, 1], [105, 75, 0, 0, 0, 1], [F(1, 3), F(1, 2), 0, 0, 0, 1],
                   [1, 0, 0, 0, 0, 1], [-1, -1, 0, 0, 0, 1]):
        calls.clear()
        factor_over_Q(UniPoly(coeffs))
        assert len(calls) == 1, coeffs
    calls.clear()
    fac = factor_over_Q(UniPoly([1, 0, 1]) ** 2 * UniPoly([0, 1]))  # x (x^2 + 1)^2
    assert fac.factors == ((UniPoly([0, 1]), 1), (UniPoly([1, 0, 1]), 2))
    assert len(calls) == 3 and integer_discriminant(calls[0]) == 0


def test_factorization_order_is_deterministic():
    p = UniPoly([-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1])
    a = factor_over_Q(p)
    b = factor_over_Q(p)
    assert a == b
    degrees = [f.degree for f, _ in a.factors]
    assert degrees == sorted(degrees)


def test_non_monic_rational_coefficients():
    p = UniPoly([F(1, 3), F(5, 6), F(1, 2)])  # (1/2)(x+2)(x+1/3)... expand check
    fac = factor_over_Q(p)
    assert fac.expand() == p


def test_degree_ten_supported():
    t = F(6, 5)
    ell = UniPoly([-t ** 2, 4 * t ** 2, -4 * t ** 2, 0, 0, -11 * t, -3 * t, 0, 0, 0, 1])
    fac = factor_over_Q(ell)
    assert fac.expand() == ell


def test_cycle_types():
    assert cycle_type_mod_p([12, -5, 0, 0, 0, 1], 7) == (5,)
    assert cycle_type_mod_p([-18, 0, 0, 0, 0, 1], 7) == (1, 4)
    assert cycle_type_mod_p([-18, 0, 0, 0, 0, 1], 11) == (5,)
    assert cycle_type_mod_p([-18, 0, 0, 0, 0, 1], 131) == (1, 1, 1, 1, 1)
    # p = 2 path (trace-map splitting)
    assert cycle_type_mod_p([1, 1, 0, 0, 0, 1], 2) == (2, 3)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-60, 60), min_size=1, max_size=25),
       st.sampled_from(primes_below(102)[1:]))
def test_distinct_degree_count_and_cycle_type_match_full_factorization(low, p):
    ints = low + [1]
    fbar = [c % p for c in ints]
    assume(factor._gf_is_squarefree(fbar, p))
    full = factor_mod_p(ints, p)
    assert all(m == 1 for _, m in full)
    parts = factor._distinct_degree(fbar, p)
    assert sum((len(part) - 1) // d for part, d in parts) == len(full)
    assert cycle_type_mod_p(ints, p) == tuple(sorted(len(g) - 1 for g, _ in full))


def test_hensel_prime_has_fewest_factors_and_is_the_only_prime_split(monkeypatch):
    # (x^2 - 3x - 3)(x^3 - 2x^2 - 3x - 3) has 3, 2, 4, 5 and 3 factors mod
    # the first five good odd primes 5, 11, 13, 17, 19; mod 17 all five
    # factors have degree 1, so the distinct-degree split has one part.
    # The counts come from root counts and discriminant parity, so only the
    # chosen prime gets a Frobenius matrix
    quad, cubic = [-3, -3, 1], [-3, -3, -2, 1]
    ints = factor.z_mul(quad, cubic)
    good = [p for p in primes_below(30)[1:] if factor._gf_is_squarefree(ints, p)][:5]
    assert good == [5, 11, 13, 17, 19]
    assert len(factor._distinct_degree([c % 17 for c in ints], 17)) == 1
    best = min((len(cycle_type_mod_p(ints, p)), p) for p in good)[1]
    assert best == 11
    frobenius, lifted_at = [], []
    frobenius_rows, hensel_lift = factor._frobenius_rows, factor._hensel_lift

    def rows_spy(f, p):
        frobenius.append(p)
        return frobenius_rows(f, p)

    def lift_spy(f_ints, factors_p, p, k):
        lifted_at.append(p)
        return hensel_lift(f_ints, factors_p, p, k)

    def no_full_factorization(*args):
        raise AssertionError("factor_mod_p ran on a squarefree input")

    monkeypatch.setattr(factor, "_frobenius_rows", rows_spy)
    monkeypatch.setattr(factor, "_hensel_lift", lift_spy)
    monkeypatch.setattr(factor, "factor_mod_p", no_full_factorization)
    fac = factor_over_Q(UniPoly.from_int_coeffs(ints))
    assert [f.coeffs for f, _ in fac.factors] == [tuple(map(F, quad)), tuple(map(F, cubic))]
    assert frobenius == [11]
    assert lifted_at == [11]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.integers(-10 ** 4, 10 ** 4), min_size=n, max_size=n)))
def test_factor_count_from_roots_and_parity_matches_the_factorization(low):
    # up to degree 5 the root count mod p and Stickelberger's parity of the
    # discriminant fix the number of factors, at p <= n (3 and 5) too
    ints = low + [1]
    disc = integer_discriminant(ints)
    assume(disc)
    for p in primes_below(60)[1:]:
        if disc % p:
            assert factor._factor_count(ints, disc, p) == len(factor_mod_p(ints, p)), (ints, p)


def test_sextic_factor_count_comes_from_the_split(monkeypatch):
    # above degree 5 the root count and parity no longer fix the count: mod 7
    # the types (6) and (2, 2, 2) both have no root and (disc / 7) = -1
    sextics = {(6,): [-2, 9, 8, -5, 2, 6, 1], (2, 2, 2): [-9, -9, -9, 6, -9, -8, 1],
               (3, 3): [-5, 6, -3, -1, 4, 0, 1], (2, 4): [4, -5, -9, 0, 4, 4, 1]}
    split = []
    distinct_degree = factor._distinct_degree

    def spy(f, p):
        split.append(p)
        return distinct_degree(f, p)

    monkeypatch.setattr(factor, "_distinct_degree", spy)
    for cycle_type, ints in sextics.items():
        disc = integer_discriminant(ints)
        assert cycle_type_mod_p(ints, 7) == cycle_type
        if len(cycle_type) != 2:
            assert factor._gf_roots(ints, 7) == [] and pow(disc % 7, 3, 7) == 6
        split.clear()
        assert factor._factor_count(ints, disc, 7) == len(cycle_type)
        assert split == [7]


def test_cycle_type_of_non_squarefree_reduction_uses_full_factorization(monkeypatch):
    calls = []

    def spy(ints, p):
        calls.append(p)
        return factor_mod_p(ints, p)

    monkeypatch.setattr(factor, "factor_mod_p", spy)
    # x^5 - 18 is x^5 mod 2 and 3, and (x - 3)^5 mod 5
    for p in (2, 3, 5):
        assert cycle_type_mod_p([-18, 0, 0, 0, 0, 1], p) == (1, 1, 1, 1, 1)
    assert calls == [2, 3, 5]
    assert cycle_type_mod_p([-18, 0, 0, 0, 0, 1], 7) == (1, 4)
    assert calls == [2, 3, 5]


def test_hensel_lift_rejects_a_non_factorization():
    # (x + 1)(x + 2) is not x^2 + 1 mod 5, whose factors are x + 2 and x + 3
    with pytest.raises(ArithmeticError, match="lift invariant broken"):
        factor._hensel_lift([1, 0, 1], [[1, 1], [2, 1]], 5, 3)
    lifted, modulus = factor._hensel_lift([1, 0, 1], [[2, 1], [3, 1]], 5, 3)
    assert modulus == 125
    assert [c % 125 for c in factor.z_mul(*lifted)] == [1, 0, 1]


def test_batched_xpow_p_matches_powmod():
    rng = random.Random(31)
    primes = primes_below(400)[1:] + [(1 << 30) - 35]
    polys = [[rng.randint(-10 ** 30, 10 ** 30) for _ in range(5)] + [1] for _ in range(2)]
    powers = factor._BatchMod(polys, primes).xpow_p()
    for lane, poly in enumerate(polys):
        for i, p in enumerate(primes):
            expected = factor._gf_powmod([0, 1], p, [c % p for c in poly], p)
            assert factor._gf_trim(powers[lane, i].tolist()) == expected, (poly, p)
    with pytest.raises(ValueError):
        factor._BatchMod(polys, [1 << 30])


@pytest.mark.parametrize("n", [2, 5, 7])
def test_batched_mul_matches_gf_mul_at_the_lane_limit(n):
    # one reduction matrix product sums n - 1 products below p^2 plus one
    # residue: the int64 bound at n = 7 and p = 2^30 - 35
    rng = random.Random(n)
    primes = [(1 << 30) - 35, 1009, 11]
    polys = [[rng.randint(-10 ** 12, 10 ** 12) for _ in range(n)] + [1] for _ in range(3)]
    polys.append([rng.randint(0, 1) * ((1 << 30) - 36) for _ in range(n)] + [1])
    a = np.array([[[rng.randrange(p) for _ in range(n)] for p in primes] for _ in polys])
    b = np.array([[[rng.choice((p - 1, rng.randrange(p))) for _ in range(n)] for p in primes]
                  for _ in polys])
    prod = factor._BatchMod(polys, primes).mul(a, b)
    for lane, poly in enumerate(polys):
        for i, p in enumerate(primes):
            expected = factor._gf_mod(factor.z_mul(a[lane, i].tolist(), b[lane, i].tolist()),
                                      [c % p for c in poly], p)
            assert factor._gf_trim(prod[lane, i].tolist()) == expected, (poly, p)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=7),
       st.sampled_from([p for p in primes_below(300) if p > 2]))
def test_roots_by_evaluation_match_linear_factors(low, p):
    ints = low + [1]
    expected = sorted(-g[0] % p for g, _ in factor_mod_p(ints, p) if len(g) == 2)
    assert factor._gf_roots(ints, p) == expected


def test_roots_by_evaluation_cross_residue_chunks():
    # p > 2^16 takes two evaluation chunks; roots on both sides of the seam
    p = 131071
    ints = [1]
    for root in (0, 5, 65535, 65536, 131070):
        ints = factor.z_mul(ints, [-root, 1])
    ints = factor.z_mul(ints, [1, 0, 1])  # p = 3 mod 4: x^2 + 1 has no root mod p
    assert factor._gf_roots(ints, p) == [0, 5, 65535, 65536, 131070]
    assert factor._gf_roots(ints, p) == sorted(-g[0] % p for g, _ in factor_mod_p(ints, p)
                                              if len(g) == 2)
    with pytest.raises(ValueError):
        factor._gf_roots(ints, 1 << 30)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-200, 200), min_size=5, max_size=5), min_size=1, max_size=3))
def test_root_counts_by_frobenius_trace_match_gcd(lows):
    polys = [low + [1] for low in lows]
    primes = [p for p in primes_below(300) if p > 5 and all(
        factor._gf_is_squarefree([c % p for c in poly], p) for poly in polys)]
    assume(primes)
    counts = factor.frobenius_traces(polys, primes, 1)[..., 0]
    for lane, poly in enumerate(polys):
        for i, p in enumerate(primes):
            xp = factor._gf_powmod([0, 1], p, poly, p)
            roots = len(factor._gf_gcd(poly, factor._z_sub(xp, [0, 1]), p)) - 1
            assert counts[lane, i] == roots, (poly, p)


def _good_primes(ints, primes):
    """Primes at which the integer polynomial stays squarefree of full degree."""
    return [p for p in primes if ints[-1] % p
            and factor._gf_is_squarefree([c % p for c in ints], p)]


def _assert_batch_matches_per_prime(ints, primes):
    """`cycle_types` of the monic rescaling, and the batched kernel at the primes above
    the degree, equal `cycle_type_mod_p` of ints."""
    _, monic = UniPoly.from_int_coeffs(ints).integral_rescaling()
    assert factor.cycle_types(monic, primes) == [cycle_type_mod_p(ints, p) for p in primes]
    n = len(ints) - 1
    large = [p for p in primes if p > n]
    if not large:
        return
    types = factor._cycle_types_batch([monic], large)[0]
    traces = factor.frobenius_traces([monic], large, n)[0]
    for p, batched, row in zip(large, types, traces.tolist()):
        expected = cycle_type_mod_p(ints, p)
        assert batched == expected, (ints, p)
        # trace(Q^k) counts the roots in GF(p^k) for every k, not only k <= n/2
        assert row == [sum(d for d in expected if k % d == 0) for k in range(1, n + 1)], (ints, p)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7).flatmap(
    lambda n: st.lists(st.integers(-50, 50), min_size=n, max_size=n)))
def test_batched_cycle_types_match_per_prime_on_monic_polys(low):
    ints = low + [1]
    primes = _good_primes(ints, primes_below(200))
    assume(primes)
    _assert_batch_matches_per_prime(ints, primes)


@settings(max_examples=40, deadline=None)
@given(st.integers(-2 ** 70, 2 ** 70), st.integers(-2 ** 70, 2 ** 70),
       st.integers(-2 ** 70, 2 ** 70))
def test_batched_cycle_types_match_per_prime_on_rescaled_trinomials(lead, a, b):
    # x -> x/lc turns lead x^5 + a x + b into a monic polynomial whose
    # coefficients far exceed int64; the kernel reduces them mod p first
    assume(lead and b)
    ints = [b, a, 0, 0, 0, lead]
    primes = _good_primes(ints, primes_below(400))
    assume(primes)
    _assert_batch_matches_per_prime(ints, primes)


def test_batched_cycle_types_near_the_lane_limit():
    # Q Q sums n products below p^2: the int64 bound at n = 7 and p just below 2^30
    primes = []
    p = factor._BATCH_PRIME_LIMIT - 1
    while len(primes) < 4:
        if is_prime(p):
            primes.append(p)
        p -= 2
    rng = random.Random(41)
    polys = [[-18, 0, 0, 0, 0, 1], [105, 75, 0, 0, 0, 1]]
    polys += [[rng.randint(-10 ** 12, 10 ** 12) for _ in range(n)] + [1] for n in (2, 5, 7, 7)]
    for ints in polys:
        _assert_batch_matches_per_prime(ints, _good_primes(ints, primes))


@pytest.mark.parametrize("ints", [[-1, -1, 0, 0, 0, 1], [105, 75, 0, 0, 0, 1], [1, 2, 0, 0, 0, 4],
                                  [5, -3, 2, 0, 1, 0, 7]])
def test_cycle_types_cross_the_degree_and_the_prime_block(ints):
    # primes on both sides of the degree, and more of them above it than one
    # block of the batched kernel holds
    primes = _good_primes(ints, primes_below(2000))
    assert min(primes) < len(ints) - 1 and sum(p > len(ints) - 1 for p in primes) > 256
    _assert_batch_matches_per_prime(ints, primes)


def test_batched_cycle_types_need_primes_above_the_degree():
    with pytest.raises(ValueError, match="p > deg P"):
        factor._cycle_types_batch([[-18, 0, 0, 0, 0, 1]], [7, 5])
    with pytest.raises(ValueError, match="p > deg P"):
        factor.frobenius_traces([[1, 1, 0, 1]], [3], 1)
    with pytest.raises(ValueError, match="p > deg P"):
        factor.frobenius_traces([[1, 0, 1]], [2], 1)
    assert factor._cycle_types_batch([[1, 0, 1]], [3, 5]) == [[(2,), (1, 1)]]


def test_batched_cycle_types_reject_a_repeated_factor():
    # (x - 1)^2 (x - 2)^2 (x - 3) is not squarefree: Frobenius has trace 3 and
    # trace 3 on its square, which leaves degree 2 to no factor of degree <= 2
    ints = [1]
    for root in (1, 1, 2, 2, 3):
        ints = factor.z_mul(ints, [-root, 1])
    assert factor.frobenius_traces([ints], [7], 2).tolist() == [[[3, 3]]]
    with pytest.raises(ArithmeticError, match="cycle type invariant broken"):
        factor._cycle_types_batch([ints], [7])



@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=6),
                min_size=2, max_size=11))
def test_factor_over_Q_expands_back(coeffs):
    assume(coeffs[-1] != 0)
    p = UniPoly(coeffs)
    fac = factor_over_Q(p)
    assert fac.expand() == p
    assert all(f.lc == 1 and m >= 1 for f, m in fac.factors)


def _sympy_factors(poly):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
               for i, c in enumerate(poly.coeffs))
    _, factors = sympy.factor_list(expr, x)
    return {(tuple(int(c) for c in reversed(sympy.Poly(h, x).all_coeffs())), m)
            for h, m in factors}


def _our_factors(poly):
    return {(tuple(content_and_primitive(f)[1]), m) for f, m in factor_over_Q(poly).factors}


def test_factor_over_Q_matches_sympy_on_random_products():
    pytest.importorskip("sympy")
    rng = random.Random(23)
    for _ in range(12):
        p = UniPoly([F(rng.choice([-3, 1, 2]), rng.choice([1, 5]))])
        target = rng.randint(6, 25)
        while p.degree < target:
            d = rng.randint(1, min(6, 25 - p.degree))
            p = p * UniPoly([rng.randint(-9, 9) for _ in range(d)] + [rng.choice([1, 2, 3])])
        assert _our_factors(p) == _sympy_factors(p)


@pytest.mark.parametrize("g, f", [
    ([-18, 0, 0, 0, 0, 1], [3750, 750, 0, 0, 0, 1]),
    ([-18, 0, 0, 0, 0, 1], [-2, 0, 0, 0, 0, 1]),
    ([105, 75, 0, 0, 0, 1], [465, -75, 0, 0, 0, 1]),
    ([105, 75, 0, 0, 0, 1], [105, 75, 0, 0, 0, 1]),
    ([12, -5, 0, 0, 0, 1], [-2, 0, 0, 0, 0, 1]),
])
def test_factor_over_Q_matches_sympy_on_trager_norms(g, f):
    norm = trager_norm(UniPoly(f), UniPoly(g), 1)
    assert _our_factors(norm) == _sympy_factors(norm)


@pytest.mark.parametrize("ints", [[-18, 0, 0, 0, 0, 1], [105, 75, 0, 0, 0, 1],
                                  [12, -5, 0, 0, 0, 1]])
def test_cycle_types_match_sympy_at_good_primes(ints):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    expr = sum(c * x ** i for i, c in enumerate(ints))
    disc = int(sympy.discriminant(expr, x))
    for p in primes_below(500):
        if disc % p == 0:
            continue
        _, factors = sympy.Poly(expr, x, modulus=p).factor_list()
        expected = tuple(sorted(h.degree() for h, m in factors for _ in range(m)))
        assert cycle_type_mod_p(ints, p) == expected, p


def test_prime_utilities():
    assert primes_below(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert is_prime(2 ** 31 - 1)
    assert not is_prime(2 ** 32 + 1)
    assert factor_int(64000000) == {2: 12, 5: 6}
    assert factor_int(-18) == {2: 1, 3: 2}
    with pytest.raises(ValueError):
        factor_int(0)


def test_fifth_power_class_anchors():
    assert fifth_power_class(F(32)) == 1
    assert fifth_power_class(F(18)) == 18
    assert fifth_power_class(F(324, 18)) == 18
    assert fifth_power_class(F(18) / (F(18, 32))) == 1
    assert fifth_power_class(F(9, 16)) == 18
    assert fifth_power_class(F(-18)) == 18  # -1 is itself a fifth power
    assert fifth_power_class(F(324)) == 324
    with pytest.raises(ValueError):
        fifth_power_class(F(0))


def test_fifth_power_class_invariance():
    rng = random.Random(22)
    for _ in range(100):
        x = F(rng.randint(1, 400) * rng.choice([-1, 1]), rng.randint(1, 60))
        y = F(rng.randint(1, 30) * rng.choice([-1, 1]), rng.randint(1, 9))
        assert fifth_power_class(x * y ** 5) == fifth_power_class(x)
