"""Factorization over Q and supporting integer arithmetic.

The rational factorization pipeline is the classical small-degree route:
clear denominators, take the squarefree decomposition, lift a modular
factorization past the Landau-Mignotte coefficient bound, and recombine
the lifted factors by subset search.  The library factors quintics, so
the subset search stays cheap and no lattice machinery is involved.  The
integer discriminant is the one squarefree test: a nonzero one skips the
rational gcds of the squarefree split, and good primes do not divide it.

Splitting modulo p starts from the Frobenius matrix of f: its rows are
x^(ip) mod f, built from one x^p mod f.  Distinct-degree splitting gets
each x^(p^k) by one product with the matrix; its parts, the products of
the degree-d factors, give the cycle type of a squarefree f mod p.  The
number of factors of f up to degree 5 needs no split: its root count mod
p and Stickelberger's parity of disc(f) fix it (`_factor_count`).  So the
Hensel prime (fewest factors among the first five good odd primes,
smallest p on a tie) is chosen from counts alone, a count of one proves
irreducibility at once, and only at the chosen prime do distinct- and
equal-degree splitting (Cantor-Zassenhaus) separate the factors.
Recombination divides candidate factors exactly in Z[x], after a
constant-term divisibility test.

Root counts and cycle types over many primes p > deg f at once run in
numpy int64 lanes, one per (polynomial, prime): x^p mod f by
square-and-multiply gives the Frobenius matrix Q, and trace(Q^k) is the
number of roots in GF(p^k).  Each product of two residues is reduced by
one matrix product with a per-lane table of x^k mod (f, p) for k = n..2n-2.
The k = 1 trace is the root count; the traces for k <= deg f / 2 give
the cycle type of a squarefree reduction by Moebius inversion.  The roots
themselves come from evaluating f at every residue mod p.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .qpoly import UniPoly, integer_discriminant

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


def power_class(x: Fraction, k: int) -> int:
    """Canonical integer representative of x modulo nonzero rational k-th powers.

    Every prime exponent is reduced mod k (denominator exponents -e become
    (-e) mod k).  For odd k the sign is folded away, since -1 = (-1)^k is
    a k-th power; for even k it is kept.
    """
    x = Fraction(x)
    if x == 0:
        raise ValueError("zero has no power class")
    out = -1 if x < 0 and k % 2 == 0 else 1
    for p, e in factor_int(x.numerator).items():
        out *= p ** (e % k)
    for p, e in factor_int(x.denominator).items():
        out *= p ** (-e % k)
    return out


def fifth_power_class(x: Fraction) -> Fraction:
    """Canonical representative of x modulo nonzero rational fifth powers: a positive integer."""
    return Fraction(power_class(x, 5))


# ---------------------------------------------------------------------------
# arithmetic in Z[x] and GF(p)[x]: dense integer coefficient lists, ascending degree
# ---------------------------------------------------------------------------

def _gf_trim(a: List[int]) -> List[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def z_mul(a, b):
    """The product in Z[x] of two ascending coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def z_divmod(a, b):
    """(q, r) with a = q b + r in Z[x], for ascending coefficient lists and a
    monic b of degree n >= 1; r keeps min(len(a), n) coefficients, zeros too."""
    n = len(b) - 1
    r = list(a)
    q = [0] * max(len(a) - n, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r.pop()
        if c:
            for j in range(n):
                r[k + j] -= c * b[j]
    return q, r


def _z_sub(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]


def _gf_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError
    a = [c % p for c in a]
    db, da = len(b) - 1, len(_gf_trim(a)) - 1
    if da < db:
        return [], _gf_trim(a)
    inv = 1 if b[-1] == 1 else pow(b[-1], p - 2, p)
    quo = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        c = a[k + db] % p * inv % p
        quo[k] = c
        if c:
            for j in range(db):
                a[k + j] -= c * b[j]
    return _gf_trim(quo), _gf_trim([c % p for c in a[:db]])


def _gf_mod(a, b, p):
    return _gf_divmod(a, b, p)[1]


def _gf_gcd(a, b, p):
    a, b = _gf_trim([c % p for c in a]), _gf_trim([c % p for c in b])
    while b:
        a, b = b, _gf_mod(a, b, p)
    return _gf_monic(a, p)


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
            result = _gf_mod(z_mul(result, base), mod, p)
        e >>= 1
        if e:
            base = _gf_mod(z_mul(base, base), mod, p)
    return result


def _gf_deriv(a, p):
    return _gf_trim([i * c % p for i, c in enumerate(a)][1:])


def _gf_is_squarefree(f, p) -> bool:
    df = _gf_deriv(f, p)
    return bool(df) and len(_gf_gcd(f, df, p)) == 1


def _gf_extended_gcd(a, b, p):
    """(g, s) with s*a = g mod b, g the monic gcd in GF(p)[x]."""
    r0, r1 = _gf_trim([c % p for c in a]), _gf_trim([c % p for c in b])
    s0, s1 = [1], []
    while r1:
        q, r = _gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _gf_trim([c % p for c in _z_sub(s0, z_mul(q, s1))])
    if r0:
        inv = pow(r0[-1], p - 2, p)
        r0 = [c * inv % p for c in r0]
        s0 = [c * inv % p for c in s0]
    return r0, s0


def _frobenius_rows(f, p):
    """Rows x^(ip) mod f, 0 <= i < deg f: the matrix of h -> h^p on GF(p)[x]/(f)."""
    xp = _gf_powmod([0, 1], p, f, p)
    rows = [[1]]
    for _ in range(len(f) - 2):
        rows.append(_gf_mod(z_mul(rows[-1], xp), f, p))
    return rows


# n products below p^2 sum below 2^63 for p < 2^30 and n <= 7
_BATCH_PRIME_LIMIT = 1 << 30
_BATCH_MAX_DEGREE = 7


class _BatchMod:
    """Reduction modulo (P, p) for stacked monic integer polys P and primes p, in int64 lanes.

    Lane (l, j) works modulo polys[l] and primes[j]; a residue is an array
    of shape (len(polys), len(primes), n) of ascending coefficients.
    """

    def __init__(self, polys: Sequence[Sequence[int]], primes: Sequence[int]):
        n = self.n = len(polys[0]) - 1
        if not primes or max(primes) >= _BATCH_PRIME_LIMIT or not 2 <= n <= _BATCH_MAX_DEGREE:
            raise ValueError(f"need primes below {_BATCH_PRIME_LIMIT} and degree 2 to "
                             f"{_BATCH_MAX_DEGREE}")
        self.primes = np.array(primes, dtype=np.int64)
        self.mod = self.primes[None, :, None]
        self.low = np.array([[[c % p for c in poly[:n]] for p in primes] for poly in polys],
                            dtype=np.int64)
        # convolution as a 0/1 matrix: (coefficient i, coefficient j) -> degree i + j
        self.conv = np.zeros((n * n, 2 * n - 1), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                self.conv[i * n + j, i + j] = 1
        # per lane, row k - n holds x^k mod (P, p) for k = n..2n-2
        self.red = np.empty(self.low.shape[:-1] + (n - 1, n), dtype=np.int64)
        power = -self.low % self.mod  # x^n = -(P - x^n)
        for row in range(n - 1):
            self.red[..., row, :] = power
            power = self.times_x(power)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a * b mod (P, p); each matrix product sums at most n terms below p^2."""
        n = self.n
        outer = (a[..., :, None] * b[..., None, :]).reshape(a.shape[:-1] + (n * n,))
        prod = (outer @ self.conv) % self.mod
        high = prod[..., None, n:] @ self.red
        return (prod[..., :n] + high[..., 0, :]) % self.mod

    def times_x(self, a: np.ndarray) -> np.ndarray:
        shifted = np.concatenate((np.zeros_like(a[..., :1]), a[..., :-1]), axis=-1)
        return (shifted - a[..., -1, None] * self.low) % self.mod

    def xpow_p(self) -> np.ndarray:
        """x^p mod (P, p) in every lane, by square-and-multiply over the bits of p."""
        acc = np.zeros(self.low.shape, dtype=np.int64)
        acc[..., 0] = 1
        for bit in range(int(self.primes.max()).bit_length() - 1, -1, -1):
            acc = self.mul(acc, acc)
            odd = ((self.primes >> bit) & 1).astype(bool)[None, :, None]
            acc = np.where(odd, self.times_x(acc), acc)
        return acc


def frobenius_traces(polys: Sequence[Sequence[int]], primes: Sequence[int],
                     k: int) -> np.ndarray:
    """trace(Q^j) mod p for j = 1..k, Q the Frobenius matrix of each monic P mod each p > deg P.

    Q has the rows x^(ip) mod P.  For P squarefree mod p, GF(p)[x]/(P) is
    a product of fields GF(p^d), and h -> h^p permutes a normal basis of
    each cyclically, so trace(Q^j) = N_j, the number of roots of P in
    GF(p^j), modulo p; N_j <= deg P < p makes it exact.  Every product of
    two matrices sums n terms below p^2, inside the int64 bound of
    `_BatchMod`.  Shape (len(polys), len(primes), k).
    """
    ring = _BatchMod(polys, primes)
    if min(primes) <= ring.n:
        raise ValueError("Frobenius traces need p > deg P")
    xp = ring.xpow_p()
    frob = np.zeros(xp.shape + (ring.n,), dtype=np.int64)
    frob[..., 0, 0] = 1
    frob[..., 1, :] = xp
    for i in range(2, ring.n):
        frob[..., i, :] = ring.mul(frob[..., i - 1, :], xp)
    traces = np.empty(xp.shape[:-1] + (k,), dtype=np.int64)
    power = frob
    for j in range(k):
        if j:
            power = (power @ frob) % ring.mod[..., None]
        traces[..., j] = np.einsum("...ii->...", power)
    return traces % ring.mod


def _cycle_types_batch(polys: Sequence[Sequence[int]],
                       primes: Sequence[int]) -> List[List[Tuple[int, ...]]]:
    """Cycle types of every monic P of one degree n, squarefree mod every p > n.

    With c_d the number of degree-d factors mod p, the root counts N_j =
    sum of d c_d over d | j give c_d for d <= n/2 by Moebius inversion;
    what is left is no factor or a single one of larger degree.  The
    result is indexed [polynomial][prime], as `cycle_type_mod_p` sorts.
    """
    n = len(polys[0]) - 1
    half = n // 2
    counts = frobenius_traces(polys, primes, half)
    c = {}
    left, broken = n, False
    for d in range(1, half + 1):
        rest = counts[..., d - 1] - sum(e * c[e] for e in c if d % e == 0)
        broken = broken | (rest < 0) | (rest % d != 0)
        c[d] = rest // d
        left = left - rest
    if (broken | (left < 0) | ((left > 0) & (left <= half))).any():
        raise ArithmeticError("cycle type invariant broken: root counts "
                              "do not come from a factorization")
    factors = np.stack(list(c.values()), axis=-1).tolist()
    return [[tuple(d for d, cd in enumerate(cs, 1) for _ in range(cd)) + ((r,) if r else ())
             for cs, r in zip(per_poly, left_poly)]
            for per_poly, left_poly in zip(factors, left.tolist())]


_ROOT_SCAN_CHUNK = 1 << 16


def _gf_roots(int_coeffs: Sequence[int], p: int) -> List[int]:
    """Ascending roots mod p < 2^30 of an integer polynomial, by evaluation at every residue.

    One int64 Horner pass over at most 2^16 residues at a time: every
    step multiplies two residues below p and adds one, below 2^61.
    """
    if p >= _BATCH_PRIME_LIMIT:
        raise ValueError(f"need a prime below {_BATCH_PRIME_LIMIT}")
    coeffs = [c % p for c in reversed(int_coeffs)]
    roots: List[int] = []
    for start in range(0, p, _ROOT_SCAN_CHUNK):
        x = np.arange(start, min(start + _ROOT_SCAN_CHUNK, p), dtype=np.int64)
        acc = np.zeros_like(x)
        for c in coeffs:
            acc = (acc * x + c) % p
        roots.extend((start + np.flatnonzero(acc == 0)).tolist())
    return roots


def _frobenius_apply(rows, h, p):
    """h^p mod f for h of degree < deg f, one matrix-vector product."""
    out = [0] * len(rows)
    for hi, row in zip(h, rows):
        if hi:
            for j, c in enumerate(row):
                out[j] += hi * c
    return _gf_trim([c % p for c in out])


def _distinct_degree(f, p):
    """Split monic squarefree f into (product of its degree-d factors, d) parts.

    h = x^(p^k) comes from one product with the Frobenius matrix of f per
    degree.  h stays reduced modulo the original f; the shrinking remainder
    divides it, so its gcd with h - x is unchanged.
    """
    out = []
    rows = _frobenius_rows(f, p)
    h = [0, 1]
    k = 0
    while len(f) - 1 >= 2 * (k + 1):
        k += 1
        h = _frobenius_apply(rows, h, p)
        g = _gf_gcd(_z_sub(h, [0, 1]), f, p)
        if len(g) > 1:
            out.append((g, k))
            f = _gf_divmod(f, g, p)[0]
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
                sq = _gf_mod(z_mul(sq, sq), f, p)
                acc = _z_sub(acc, sq)
            g = _gf_gcd(acc, f, p)
        else:
            h = _gf_powmod(t, (p ** d - 1) // 2, f, p)
            g = _gf_gcd(_z_sub(h, [1]), f, p)
        if 1 < len(g) < len(f):
            return (_equal_degree_split(g, d, p, rng)
                    + _equal_degree_split(_gf_divmod(f, g, p)[0], d, p, rng))


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
    """Sorted factor degrees of the reduction mod p, with multiplicity.

    A squarefree reduction needs only its distinct-degree split; any other
    is factored in full by `factor_mod_p`.
    """
    f = _gf_monic([c % p for c in int_coeffs], p)
    degs = []
    if len(f) > 1 and _gf_is_squarefree(f, p):
        for part, d in _distinct_degree(f, p):
            degs.extend([d] * ((len(part) - 1) // d))
    else:
        for g, m in factor_mod_p(int_coeffs, p):
            degs.extend([len(g) - 1] * m)
    return tuple(sorted(degs))


# primes per call of the batched kernels: keeps their lane memory independent
# of the prime count (`cycle_types` here, `numberfield`'s root-count scans)
PRIME_BLOCK = 256


def cycle_types(ints: Sequence[int], primes: Sequence[int]) -> List[Tuple[int, ...]]:
    """`cycle_type_mod_p` of a monic integer polynomial at each prime, where it is squarefree.

    Primes p <= deg are factored one at a time; the rest go, in blocks of
    at most PRIME_BLOCK, to the batched Frobenius-trace kernel.
    """
    n = len(ints) - 1
    large = [p for p in primes if p > n]
    batched = (t for i in range(0, len(large), PRIME_BLOCK)
               for t in _cycle_types_batch([ints], large[i:i + PRIME_BLOCK])[0])
    return [cycle_type_mod_p(ints, p) if p <= n else next(batched) for p in primes]


def gf_p2_roots(ints: Sequence[int], n: int, p: int) -> List[Tuple[int, int]]:
    """The roots in GF(p^2) = GF(p)[sqrt n] of a monic integer polynomial with simple roots there.

    n is a non-residue mod p > 2; a root a + b sqrt(n) is the pair (a, b).
    The roots in GF(p) come by evaluation, and the quadratic factors of the
    rest, x^2 + s x + t, give (-s +- c sqrt(n)) / 2 with c^2 = (s^2 - 4t) / n.
    """
    f = [c % p for c in ints]
    if _gf_powmod([0, 1], p * p, f, p) != [0, 1]:  # f divides x^(p^2) - x
        raise ArithmeticError(f"root invariant broken: {ints} does not split in GF({p}^2)")
    roots = [(r, 0) for r in _gf_roots(f, p)]
    for r, _ in roots:
        f = _gf_divmod(f, [-r % p, 1], p)[0]
    half = (p + 1) // 2
    for t, s, _ in _equal_degree_split(f, 2, p, random.Random(_EDF_SEED)) if f[1:] else ():
        c = _gf_roots([-(s * s - 4 * t) * pow(n, -1, p), 0, 1], p)[0]
        roots += [(-s * half % p, c * half % p), (-s * half % p, -c * half % p)]
    return roots


# ---------------------------------------------------------------------------
# Hensel lifting (multi-factor linear lift, monic case) and recombination
# ---------------------------------------------------------------------------

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
                prod_others = _gf_mod(z_mul(prod_others, gj), gi, p)
        _, inv = _gf_extended_gcd(prod_others, gi, p)
        ells.append(_gf_mod(inv, gi, p))
    lifted = [g[:] for g in gs]
    modulus = p
    target = p ** k
    while modulus < target:
        prod = [1]
        for g in lifted:
            prod = z_mul(prod, g)
        diff = _z_sub(f_ints, prod)
        if any(c % modulus for c in diff):
            raise ArithmeticError(f"lift invariant broken modulo {modulus}")
        e = [(c // modulus) % p for c in diff]
        for i in range(len(lifted)):
            delta = _gf_mod(z_mul(e, ells[i]), gs[i], p)
            g = lifted[i]
            for j, c in enumerate(delta):
                g[j] += modulus * c
        modulus *= p
    prod = [1]
    for g in lifted:
        prod = z_mul(prod, g)
    if any(c % modulus for c in _z_sub(f_ints, prod)):
        raise ArithmeticError(f"lift invariant broken modulo {modulus}")
    return lifted, modulus


def _mignotte_bound(ints: Sequence[int]) -> int:
    norm2 = math.isqrt(sum(c * c for c in ints)) + 1
    return 2 ** len(ints) * norm2 * abs(ints[-1])


def _factor_count(f, disc: int, p: int) -> int:
    """Number of irreducible factors of monic f mod an odd prime p not dividing its disc.

    Above degree 5 the distinct-degree split counts them.  Up to degree 5
    the root count N_1, by evaluation at every residue, leaves n - N_1 in
    factors of degree >= 2: none, one for 2 or 3, and for 4 or 5 one or
    two, told apart by Stickelberger's (disc / p) = (-1)^(n - r), r the
    number of factors (R. G. Swan, Pacific J. Math. 12, 1962).
    """
    f = [c % p for c in f]
    n = len(f) - 1
    if n > 5:
        return sum((len(part) - 1) // d for part, d in _distinct_degree(f, p))
    roots = 0
    for x in range(p):
        acc = 0
        for c in reversed(f):
            acc = acc * x + c
        roots += acc % p == 0
    rest = n - roots
    if rest < 4:
        return roots + (rest > 0)
    odd = pow(disc % p, (p - 1) // 2, p) != 1  # n - r is odd
    return roots + 1 + (rest - 1 - odd) % 2


def _factor_squarefree_monic_int(ints: List[int], disc: int) -> List[List[int]]:
    """Irreducible factors in Z[x] of a monic squarefree integer polynomial of discriminant disc."""
    n = len(ints) - 1
    if n == 1:
        return [ints]
    # among the first few good odd primes, where the monic ints stay squarefree
    # as they do not divide disc, lift at the one with the fewest factors;
    # one factor proves irreducibility, and only the chosen prime is split
    candidates = []
    p = 3
    while len(candidates) < 5:
        if disc % p and is_prime(p):
            count = _factor_count(ints, disc, p)
            if count == 1:
                return [ints]
            candidates.append((count, p))
        p += 2
    p = min(candidates)[1]
    rng = random.Random(_EDF_SEED)
    factors_mod = [irr for part, d in _distinct_degree([c % p for c in ints], p)
                   for irr in _equal_degree_split(part, d, p, rng)]
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
                cand = [c % modulus for c in z_mul(cand, lifted[i])]
            cand = _z_centered(cand, modulus)
            # cand divides current only if its constant term divides current's
            if current[0] % cand[0] if cand[0] else current[0]:
                continue
            quo, rem = z_divmod(current, cand)
            if not any(rem):
                hit = (subset, cand, quo)
                break
        if hit is None:
            size += 1
            continue
        subset, cand, current = hit
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


def _yun_squarefree(f: UniPoly) -> List[Tuple[UniPoly, int]]:
    """Yun decomposition of monic f: [(squarefree factor, multiplicity)]."""
    fp = f.derivative()
    a0 = f.gcd(fp)
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
    # the factors of d^n q(x / d) are those of q, their roots scaled by d;
    # a squarefree p, of nonzero discriminant, is its own squarefree part
    d, ints = p.integral_rescaling()
    disc = integer_discriminant(ints)
    for sqfree, mult in [(p, 1)] if disc else _yun_squarefree(p.monic()):
        if not disc:
            d, ints = sqfree.integral_rescaling()
        for fac in _factor_squarefree_monic_int(ints, disc or integer_discriminant(ints)):
            back = UniPoly.from_int_coeffs(fac)
            collected.append((back.scale_argument(d).monic() if d > 1 else back, mult))
    merged: Dict[UniPoly, int] = {}
    for f, m in collected:
        merged[f] = merged.get(f, 0) + m
    ordered = sorted(merged.items(), key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return Factorization(unit=unit, factors=tuple(ordered))


def is_irreducible(p: UniPoly) -> bool:
    return factor_over_Q(p).is_irreducible
