"""Factorization over Q and supporting integer arithmetic.

The rational factorization pipeline is the classical small-degree route:
clear denominators, take the squarefree decomposition, factor each
squarefree part modulo a good odd prime, Hensel-lift past the
Landau-Mignotte coefficient bound, and recombine modular factors by
subset search.  Degrees here never exceed 25 (the norms of root-in-field
queries), so the subset search stays cheap and no lattice machinery is
involved.  A squarefreeness proof modulo a small prime skips the
rational gcd of the squarefree decomposition.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .qpoly import UniPoly

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Fixed seed keeps equal-degree splitting reproducible run to run.
_EDF_SEED = 0x5EED5


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the sizes used here."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_below(bound: int):
    """Ascending primes < bound (simple sieve)."""
    if bound <= 2:
        return []
    sieve = bytearray([1]) * bound
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(bound - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return [i for i in range(bound) if sieve[i]]


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"failed to split {n}")


def factor_int(n: int) -> Dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; n must be nonzero."""
    if n == 0:
        raise ValueError("cannot factor zero")
    n = abs(n)
    out: Dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 5
    while p * p <= n and p < 100000:
        for q in (p, p + 2):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        p += 6
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def fifth_power_class(x: Fraction) -> Fraction:
    """Canonical representative of x modulo nonzero rational fifth powers.

    Every prime exponent is reduced mod 5; the sign is folded away since
    -1 = (-1)^5 lies in the fifth powers.  The result is always a
    positive integer (denominator exponents -e become (-e) mod 5).
    """
    x = Fraction(x)
    if x == 0:
        raise ValueError("zero has no fifth-power class")
    exps: Dict[int, int] = {}
    for p, e in factor_int(x.numerator).items():
        exps[p] = exps.get(p, 0) + e
    for p, e in factor_int(x.denominator).items():
        exps[p] = exps.get(p, 0) - e
    out = 1
    for p, e in exps.items():
        out *= p ** (e % 5)
    return Fraction(out)


# ---------------------------------------------------------------------------
# arithmetic in GF(p)[x]: dense integer coefficient lists, ascending degree
# ---------------------------------------------------------------------------

def _gf_trim(a: List[int]) -> List[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_sub(a, b, p):
    n = max(len(a), len(b))
    return _gf_trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                     for i in range(n)])


def _gf_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _gf_trim(out)


def _gf_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError
    a = [c % p for c in a]
    db, da = len(b) - 1, len(_gf_trim(a)) - 1
    if da < db:
        return [], _gf_trim(a)
    inv = pow(b[-1], p - 2, p)
    quo = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        c = a[k + db] * inv % p
        quo[k] = c
        if c:
            for j in range(db + 1):
                a[k + j] = (a[k + j] - c * b[j]) % p
    return _gf_trim(quo), _gf_trim(a)


def _gf_mod(a, b, p):
    return _gf_divmod(a, b, p)[1]


def _gf_gcd(a, b, p):
    a, b = _gf_trim([c % p for c in a]), _gf_trim([c % p for c in b])
    while b:
        a, b = b, _gf_mod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a


def _gf_monic(a, p):
    a = _gf_trim([c % p for c in a])
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _gf_powmod(base, e, mod, p):
    result = [1]
    base = _gf_mod(base, mod, p)
    while e:
        if e & 1:
            result = _gf_mod(_gf_mul(result, base, p), mod, p)
        base = _gf_mod(_gf_mul(base, base, p), mod, p)
        e >>= 1
    return result


def _gf_deriv(a, p):
    return _gf_trim([i * c % p for i, c in enumerate(a)][1:])


def _gf_extended_gcd(a, b, p):
    """(g, s, t) with s*a + t*b = g, g the monic gcd in GF(p)[x]."""
    r0, r1 = _gf_trim([c % p for c in a]), _gf_trim([c % p for c in b])
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _gf_sub(s0, _gf_mul(q, s1, p), p)
        t0, t1 = t1, _gf_sub(t0, _gf_mul(q, t1, p), p)
    if r0:
        inv = pow(r0[-1], p - 2, p)
        r0 = [c * inv % p for c in r0]
        s0 = [c * inv % p for c in s0]
        t0 = [c * inv % p for c in t0]
    return r0, s0, t0


def _distinct_degree(f, p):
    """Split monic squarefree f into (product of its degree-d factors, d) parts."""
    out = []
    h = [0, 1]
    k = 0
    f = f[:]
    while len(f) - 1 >= 2 * (k + 1):
        k += 1
        h = _gf_powmod(h, p, f, p)
        g = _gf_gcd(_gf_sub(h, [0, 1], p), f, p)
        if len(g) > 1:
            out.append((g, k))
            f = _gf_divmod(f, g, p)[0]
            h = _gf_mod(h, f, p)
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree_split(f, d, p, rng):
    """Cantor-Zassenhaus split of monic squarefree f with all factors of degree d."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        t = [rng.randrange(p) for _ in range(n)] + [1]
        if p == 2:
            # trace map t + t^2 + ... + t^(2^(d-1)); sub == add mod 2
            acc = _gf_mod(t, f, p)
            sq = acc
            for _ in range(d - 1):
                sq = _gf_mod(_gf_mul(sq, sq, p), f, p)
                acc = _gf_sub(acc, sq, p)
            g = _gf_gcd(acc, f, p)
        else:
            h = _gf_powmod(t, (p ** d - 1) // 2, f, p)
            g = _gf_gcd(_gf_sub(h, [1], p), f, p)
        if 1 < len(g) < len(f):
            left = _gf_monic(g, p)
            right = _gf_divmod(f, left, p)[0]
            return (_equal_degree_split(left, d, p, rng)
                    + _equal_degree_split(right, d, p, rng))


def factor_mod_p(int_coeffs: Sequence[int], p: int) -> List[Tuple[List[int], int]]:
    """Factor an integer polynomial modulo a prime p (p must not divide the lc).

    Returns [(monic_factor_coeffs, multiplicity)], deterministically sorted
    by degree then coefficients.
    """
    f = _gf_monic([c % p for c in int_coeffs], p)
    if len(f) <= 1:
        raise ValueError("polynomial is constant modulo p")
    rng = random.Random(_EDF_SEED)
    result: List[Tuple[List[int], int]] = []

    def rec(g, mult):
        if len(g) <= 1:
            return
        dg = _gf_deriv(g, p)
        if not dg:
            # g(x) = w(x^p) = w(x)^p over GF(p)
            rec(_gf_trim([g[i] for i in range(0, len(g), p)]), mult * p)
            return
        squarefree = _gf_divmod(g, _gf_gcd(g, dg, p), p)[0]
        rest = g
        for part, d in _distinct_degree(squarefree, p):
            for irr in _equal_degree_split(part, d, p, rng):
                m = 0
                while True:
                    q, r = _gf_divmod(rest, irr, p)
                    if r:
                        break
                    rest = q
                    m += 1
                result.append((irr, m * mult))
        rec(rest, mult)

    rec(f, 1)
    result.sort(key=lambda gm: (len(gm[0]), gm[0]))
    return result


def cycle_type_mod_p(int_coeffs: Sequence[int], p: int) -> Tuple[int, ...]:
    """Sorted factor degrees of the reduction mod p, with multiplicity."""
    degs = []
    for g, m in factor_mod_p(int_coeffs, p):
        degs.extend([len(g) - 1] * m)
    return tuple(sorted(degs))


# ---------------------------------------------------------------------------
# Hensel lifting (multi-factor linear lift, monic case) and recombination
# ---------------------------------------------------------------------------

def _z_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _z_sub(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]


def _z_centered(a, m):
    half = m // 2
    return [((c + half) % m) - half for c in a]


def _hensel_lift(f_ints, factors_p, p, k):
    """Lift the monic pairwise-coprime factorization of monic f mod p to mod p^k.

    Linear lift: at modulus p^j the error (f - prod)/p^j is spread over the
    factors through precomputed Bezout inverses mod p.
    """
    gs = [g[:] for g in factors_p]
    ells = []
    for i, gi in enumerate(gs):
        prod_others = [1]
        for j, gj in enumerate(gs):
            if j != i:
                prod_others = _gf_mod(_gf_mul(prod_others, gj, p), gi, p)
        _, inv, _ = _gf_extended_gcd(prod_others, gi, p)
        ells.append(_gf_mod(inv, gi, p))
    lifted = [g[:] for g in gs]
    modulus = p
    target = p ** k
    while modulus < target:
        prod = [1]
        for g in lifted:
            prod = _z_mul(prod, g)
        diff = _z_sub(f_ints, prod)
        assert all(c % modulus == 0 for c in diff), "lift invariant broken"
        e = [(c // modulus) % p for c in diff]
        for i in range(len(lifted)):
            delta = _gf_mod(_gf_mul(e, ells[i], p), gs[i], p)
            g = lifted[i]
            for j, c in enumerate(delta):
                g[j] += modulus * c
        modulus *= p
    prod = [1]
    for g in lifted:
        prod = _z_mul(prod, g)
    assert all(c % modulus == 0 for c in _z_sub(f_ints, prod))
    return lifted, modulus


def _mignotte_bound(ints: Sequence[int]) -> int:
    norm2 = math.isqrt(sum(c * c for c in ints)) + 1
    return 2 ** len(ints) * norm2 * abs(ints[-1])


def _factor_squarefree_monic_int(ints: List[int]) -> List[List[int]]:
    """Irreducible factors in Z[x] of a monic squarefree integer polynomial."""
    n = len(ints) - 1
    if n == 1:
        return [ints]
    # choose among the first few good odd primes the one with fewest factors
    candidates = []
    p = 3
    while len(candidates) < 5:
        if is_prime(p):
            fbar = _gf_trim([c % p for c in ints])
            if len(fbar) == len(ints):
                dfbar = _gf_deriv(fbar, p)
                if dfbar and len(_gf_gcd(fbar, dfbar, p)) == 1:
                    mods = factor_mod_p(ints, p)
                    candidates.append((len(mods), p, mods))
        p += 2
    _, p, modular = min(candidates, key=lambda c: (c[0], c[1]))
    factors_mod = [g for g, _ in modular]
    if len(factors_mod) == 1:
        return [ints]
    bound = _mignotte_bound(ints)
    k = 1
    while p ** k < 2 * bound + 1:
        k += 1
    lifted, modulus = _hensel_lift(ints, factors_mod, p, k)

    remaining = list(range(len(lifted)))
    out: List[List[int]] = []
    current = ints
    size = 1
    while remaining:
        if size > len(remaining) // 2:
            out.append(current)
            break
        hit = None
        for subset in itertools.combinations(remaining, size):
            cand = [1]
            for i in subset:
                cand = [c % modulus for c in _z_mul(cand, lifted[i])]
            cand = _z_centered(cand, modulus)
            quo, rem = divmod(UniPoly.from_int_coeffs(current),
                              UniPoly.from_int_coeffs(cand))
            if rem.is_zero and all(c.denominator == 1 for c in quo.coeffs):
                hit = (subset, cand, [int(c) for c in quo.coeffs])
                break
        if hit is None:
            size += 1
            continue
        subset, cand, current = hit[0], hit[1], hit[2]
        out.append(cand)
        remaining = [i for i in remaining if i not in subset]
        if not remaining:
            # `current` is now constant 1; the full polynomial was consumed
            break
    return out


# ---------------------------------------------------------------------------
# public factorization over Q
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Factorization:
    """unit * prod(factor^multiplicity) reproduces the input exactly."""

    unit: Fraction
    factors: Tuple[Tuple[UniPoly, int], ...]

    def expand(self) -> UniPoly:
        out = UniPoly.constant(self.unit)
        for f, m in self.factors:
            out = out * f ** m
        return out

    @property
    def is_irreducible(self) -> bool:
        return len(self.factors) == 1 and self.factors[0][1] == 1

    def __str__(self):
        parts = [] if self.unit == 1 and self.factors else [str(self.unit)]
        for f, m in self.factors:
            parts.append(f"({f})" + (f"^{m}" if m > 1 else ""))
        return " * ".join(parts) if parts else "1"


def _squarefree_mod_small_prime(ints: Sequence[int]) -> bool:
    """Squarefree modulo a small prime not dividing the lc, hence squarefree over Q."""
    for p in _SMALL_PRIMES:
        if ints[-1] % p:
            fbar = [c % p for c in ints]
            dfbar = _gf_deriv(fbar, p)
            if dfbar and len(_gf_gcd(fbar, dfbar, p)) == 1:
                return True
    return False


def _yun_squarefree(f: UniPoly) -> List[Tuple[UniPoly, int]]:
    """Yun decomposition of monic f: [(squarefree factor, multiplicity)]."""
    if _squarefree_mod_small_prime(f.content_and_primitive()[1]):
        return [(f, 1)]
    fp = f.derivative()
    a0 = f.gcd(fp)
    if a0.degree == 0:
        return [(f, 1)]
    out = []
    b = f // a0
    c = fp // a0
    d = c - b.derivative()
    i = 1
    while b.degree > 0:
        a = b.gcd(d)
        if a.degree > 0:
            out.append((a, i))
        b = b // a
        c = d // a
        d = c - b.derivative()
        i += 1
    return out


def factor_over_Q(p: UniPoly) -> Factorization:
    """Complete factorization into monic irreducibles over Q times a unit.

    Deterministic output: factors sorted by degree, then by the
    ascending-degree coefficient tuple.
    """
    if p.degree < 1:
        raise ValueError("factorization needs degree >= 1")
    unit = p.lc
    collected: List[Tuple[UniPoly, int]] = []
    for sqfree, mult in _yun_squarefree(p.monic()):
        _, ints = sqfree.content_and_primitive()
        lc = ints[-1]
        if lc != 1:
            # x -> x/lc rescaling produces a monic integer polynomial
            n = len(ints) - 1
            hat = [ints[i] * lc ** (n - 1 - i) for i in range(n)] + [1]
            for fac in _factor_squarefree_monic_int(hat):
                back = UniPoly.from_int_coeffs(fac).scale_argument(Fraction(lc)).monic()
                collected.append((back, mult))
        else:
            for fac in _factor_squarefree_monic_int(ints):
                collected.append((UniPoly.from_int_coeffs(fac), mult))
    merged: Dict[UniPoly, int] = {}
    for f, m in collected:
        merged[f] = merged.get(f, 0) + m
    ordered = sorted(merged.items(), key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return Factorization(unit=unit, factors=tuple(ordered))


def is_irreducible(p: UniPoly) -> bool:
    return factor_over_Q(p).is_irreducible
