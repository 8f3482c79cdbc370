"""Arithmetic in quintic number fields K = Q[x]/(g).

Elements are coordinate vectors over the power basis 1, alpha, ...,
alpha^4.  The characteristic polynomial of the multiplication-by-beta
map is computed from the traces of the powers of beta by Newton's
identities; it equals the minimal polynomial of beta whenever beta is
irrational (degree five is prime, so there are no intermediate fields).

Whether an irreducible quintic f has a root in K is decided at a totally
split prime (Cohen, "A Course in Computational Algebraic Number Theory",
ch. 3-4; Belabas, J. Theor. Nombres Bordeaux 16, 2004).  f has a root in K
exactly when Q[x]/(f) and K are isomorphic, so at every prime not dividing
the discriminants f and g have equally many roots: one prime where the
root counts differ proves absence.  The scan, batched over blocks of
primes, stops at the first prime p where g splits completely.  There the
roots of f and g are found by evaluating at every residue mod p, lifted
p-adically past a proven coefficient bound, and each of the 120 matchings
of the roots gives a candidate root by interpolation.  The bound is
sqrt|disc g| times Hadamard's bound on the columns of a Cramer
determinant (see `_interpolated_roots`).  Candidates are verified by
exact evaluation in K, and when none verifies, "absent" is proven.  Of
several roots (K cyclic) the one of least height is returned, ties broken
by coordinates.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .qpoly import UniPoly, count_real_roots, discriminant
from .factor import (_gf_roots, _gf_root_counts_batch, _lift_roots, _z_mul, factor_over_Q,
                     primes_below)


def multiplication_matrix_mod(g: UniPoly, coords: Sequence[Fraction]):
    """Matrix of multiplication by sum(coords[k] alpha^k) on Q[x]/(g), columns = images of alpha^j."""
    n = g.degree
    beta = UniPoly(coords)
    cols = []
    acc = beta % g
    for j in range(n):
        cols.append([acc[i] for i in range(n)])
        acc = (acc * UniPoly.x()) % g
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def charpoly_mod(g: UniPoly, coords: Sequence[Fraction]) -> UniPoly:
    """Characteristic polynomial of multiplication by the element with given coords.

    Its roots are the conjugates of beta, so its power sums are the
    traces Tr(beta^m) = sum_i [alpha^i] beta^m * Tr(alpha^i).
    """
    traces = g.power_sums(g.degree - 1)
    beta = UniPoly(coords) % g
    power = UniPoly.one()
    psums = [Fraction(g.degree)]
    for _ in range(g.degree):
        power = (power * beta) % g
        psums.append(sum(power[i] * traces[i] for i in range(g.degree)))
    return _monic_from_power_sums(psums)


def _monic_from_power_sums(psums: Sequence[Fraction]) -> UniPoly:
    """The monic polynomial of degree n whose roots have power sums psums[1..n] (Newton)."""
    n = len(psums) - 1
    e = [Fraction(1)]  # elementary symmetric functions of the roots
    for m in range(1, n + 1):
        e.append(sum((-1) ** (i - 1) * e[m - i] * psums[i] for i in range(1, m + 1)) / m)
    return UniPoly((-1) ** m * e[m] for m in range(n, -1, -1))


class NumberField:
    """K = Q[alpha] with alpha a root of a monic irreducible quintic."""

    def __init__(self, defining_poly: UniPoly):
        if defining_poly.degree != 5 or defining_poly.lc != 1:
            raise ValueError("defining polynomial must be monic of degree 5")
        if not factor_over_Q(defining_poly).is_irreducible:
            raise ValueError(f"defining polynomial {defining_poly} is reducible over Q")
        self.defining_poly = defining_poly
        # reduction table: coordinates of alpha^k for k = 0..8
        self._alpha_powers: List[Tuple[Fraction, ...]] = []
        acc = UniPoly.one()
        for _ in range(9):
            self._alpha_powers.append(tuple(acc[i] for i in range(5)))
            acc = (acc * UniPoly.x()) % defining_poly

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.defining_poly == other.defining_poly

    def __hash__(self):
        return hash(self.defining_poly)

    def __repr__(self):
        return f"NumberField({self.defining_poly})"

    def element(self, coords) -> "FieldElement":
        return FieldElement(self, coords)

    @property
    def generator(self) -> "FieldElement":
        return self.element((0, 1, 0, 0, 0))

    def rational(self, q) -> "FieldElement":
        return self.element((q, 0, 0, 0, 0))

    @functools.cached_property
    def signature(self) -> Tuple[int, int]:
        """(real embeddings, conjugate pairs), counted once per field."""
        r = count_real_roots(self.defining_poly)
        return r, (5 - r) // 2


class FieldElement:
    """An element c0 + c1*alpha + c2*alpha^2 + c3*alpha^3 + c4*alpha^4 of K."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords):
        cs = tuple(Fraction(c) for c in coords)
        if len(cs) != 5:
            raise ValueError("need exactly 5 coordinates")
        self.field = field
        self.coords = cs

    def _check(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        raise TypeError(f"cannot combine FieldElement with {type(other).__name__}")

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.rational(other)
        return (isinstance(other, FieldElement)
                and self.field == other.field and self.coords == other.coords)

    def __hash__(self):
        return hash((self.field, self.coords))

    def __add__(self, other):
        other = self._check(other)
        return FieldElement(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.field, tuple(a * other for a in self.coords))
        other = self._check(other)
        conv = [Fraction(0)] * 9
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    conv[i + j] += a * b
        out = [Fraction(0)] * 5
        for k, c in enumerate(conv):
            if c:
                pw = self.field._alpha_powers[k]
                for i in range(5):
                    out[i] += c * pw[i]
        return FieldElement(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers not supported")
        result = self.field.rational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    @property
    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def multiplication_matrix(self):
        """5x5 rational matrix of x -> beta*x; column j holds beta*alpha^j."""
        return multiplication_matrix_mod(self.field.defining_poly, self.coords)

    def char_poly(self) -> UniPoly:
        """Monic degree-5 characteristic polynomial of the multiplication map."""
        return charpoly_mod(self.field.defining_poly, self.coords)

    def trace(self) -> Fraction:
        m = self.multiplication_matrix()
        return sum(m[i][i] for i in range(5))

    def norm(self) -> Fraction:
        return -self.char_poly()[0]  # det of the multiplication matrix

    def inverse(self) -> "FieldElement":
        """1/beta by Cayley-Hamilton: beta^5 + c1 beta^4 + ... + c4 beta + c5 = 0, c5 = -norm."""
        cp = self.char_poly()
        if cp[0] == 0:
            raise ZeroDivisionError("zero has no inverse in the field")
        acc = self.field.rational(0)
        for c in reversed(cp.coeffs[1:]):
            acc = acc * self + c
        return acc * (-1 / cp[0])

    def __repr__(self):
        return f"FieldElement({self.coords})"

    def __str__(self):
        names = ("", "a", "a^2", "a^3", "a^4")
        parts = []
        for c, n in zip(self.coords, names):
            if c == 0:
                continue
            if not n:
                body = str(abs(c))
            elif abs(c) == 1:
                body = n
            else:
                body = f"{abs(c)}*{n}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# root-in-field certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootSearchResult:
    """Outcome of a root-in-field query.

    status is "certified" (witness verifies f(witness) = 0 exactly) or
    "absent" (proven).  precision_bits and denominator_bound are always
    None; they are kept for callers that build results positionally.
    """

    status: str
    witness: Optional[FieldElement]
    precision_bits: Optional[int] = None
    denominator_bound: Optional[int] = None
    detail: str = ""

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def has_root_in_field(f: UniPoly, K: NumberField) -> RootSearchResult:
    """Find beta in K with f(beta) = 0, or prove that there is none.

    Each irreducible factor of f over Q is decided on its own: a linear
    factor gives a rational root, a factor of degree 2, 3 or 4 has no
    root in a quintic field, an irreducible quintic whose real/complex
    signature differs from K's has none, and any other quintic is
    decided at a totally split prime.  Certificates are verified by exact
    evaluation in K before being returned.
    """
    if f.degree < 1 or f.degree > 5:
        raise ValueError("degree must be between 1 and 5")
    fac = factor_over_Q(f.monic())
    if fac.is_irreducible:
        return _root_of_irreducible(fac.factors[0][0], K)
    for p, _ in fac.factors:
        out = _root_of_irreducible(p, K)
        if out.certified:
            return out
    return RootSearchResult("absent", None,
                            detail="no irreducible factor has a root in the field")


def _root_of_irreducible(f: UniPoly, K: NumberField) -> RootSearchResult:
    if f.degree == 1:
        return RootSearchResult("certified", K.rational(-f[0]), detail="rational root")
    if f.degree in (2, 3, 4):
        return RootSearchResult("absent", None,
                                detail=f"irreducible degree {f.degree} does not divide 5")
    r_f = count_real_roots(f)
    r_g, _ = K.signature
    if r_f != r_g:
        return RootSearchResult(
            "absent", None,
            detail=f"signature mismatch: {r_f} real roots vs {r_g} real embeddings")
    return _decide_at_split_prime(f, K)


def _integral_coeffs(p: UniPoly) -> Tuple[int, List[int]]:
    """(d, coefficients of d^n p(x / d)), d > 0 making that integral, for monic p of degree n."""
    n = p.degree
    d = 1
    for i in range(1, n + 1):
        den = p[n - i].denominator
        d *= den // math.gcd(den, d ** i)
    return d, [int(c * d ** (n - i)) for i, c in enumerate(p.coeffs)]


def _scan_primes(bad: int):
    """Primes p > 5 not dividing bad, ascending, from sieves of doubling length."""
    low, high = 7, 1 << 12
    while True:
        yield from (p for p in primes_below(high) if p >= low and bad % p)
        low, high = high, 2 * high


def _blocks(items):
    """Consecutive lists of items of lengths 8, 16, ..., 256, 256, ...

    Most absent roots show within a few primes; a split prime of an S5
    field comes after about 120.
    """
    size = 8
    while True:
        yield list(itertools.islice(items, size))
        size = min(2 * size, 256)


def _decide_at_split_prime(f: UniPoly, K: NumberField) -> RootSearchResult:
    """Root of a monic irreducible quintic f in K, or a proof that there is none.

    f has a root in K exactly when Q[x]/(f) and K are isomorphic.  With F
    and G the monic integer rescalings of f and g, a prime p not dividing
    disc(F) disc(G) then splits alike in both, so F and G have equally
    many roots mod p: a prime where the counts differ proves absence.  The
    scan stops at the first prime where G (and so F) has five roots.
    """
    d, F = _integral_coeffs(f)
    e, G = _integral_coeffs(K.defining_poly)
    disc_g = int(discriminant(UniPoly(G)))
    bad = int(discriminant(UniPoly(F))) * disc_g
    for block in _blocks(_scan_primes(bad)):
        counts = _gf_root_counts_batch([F, G], block)
        for p, count_f, count_g in zip(block, counts[0].tolist(), counts[1].tolist()):
            if count_f != count_g:
                return RootSearchResult(
                    "absent", None,
                    detail=f"root counts mod {p} differ: {count_f} for f, "
                           f"{count_g} for the field polynomial")
            if count_g == 5:
                roots = [K.element([Fraction(c * e ** j, disc_g * d) for j, c in enumerate(h)])
                         for h in _interpolated_roots(F, G, disc_g, p)]
                if not roots:
                    return RootSearchResult(
                        "absent", None,
                        detail=f"no root interpolated at the split prime {p} verifies")
                return RootSearchResult("certified", min(roots, key=_height_key),
                                        detail="verified exactly")


def _lifted_roots(ints: List[int], p: int, k: int) -> List[int]:
    """The roots mod p^k of a monic integer polynomial with deg-many simple roots mod p.

    The roots mod p are found by evaluation at every residue (`_gf_roots`),
    which costs O(p), no more than the prime scan that reached p; their
    number equal to the degree proves that they are simple.  Newton's
    iteration lifts them.
    """
    roots = _gf_roots(ints, p)
    if len(roots) != len(ints) - 1:
        raise ArithmeticError(f"split prime invariant broken: {ints} does not split mod {p}")
    return _lift_roots(ints, roots, p, k)


def _root_bound(F: List[int], G: List[int], disc_g: int) -> int:
    """B >= |disc_g c_j| for every root sum c_j theta^j of F in Q(theta), theta a root of G.

    Derived in `_interpolated_roots`: (isqrt|D| + 1) 56 M_G^10 M_F with the
    Cauchy root bounds M_F, M_G of the monic integer quintics F and G.
    """
    cauchy_f = 1 + max(abs(c) for c in F[:-1])
    cauchy_g = 1 + max(abs(c) for c in G[:-1])
    return (math.isqrt(abs(disc_g)) + 1) * 56 * cauchy_g ** 10 * cauchy_f


def _interpolated_roots(F: List[int], G: List[int], disc_g: int, p: int) -> List[List[int]]:
    """Every h in Z[x] of degree < 5 with F(h(theta) / disc_g) = 0, theta a root of G.

    F and G are monic integer quintics that split into distinct linear
    factors mod p, and disc_g = D = disc(G).  A root phi of F in Q(theta)
    is sum c_j theta^j, so V c = (phi_i) for the Vandermonde matrix V of
    the roots theta_i of G and the conjugates phi_i.  Cramer's rule gives
    D c_j = det(V) det(V_j), with V_j the matrix V whose column j is
    replaced by (phi_i), and D c_j is a rational integer because phi lies
    in O_K and D O_K lies in Z[theta].  Both factors are bounded:

    - det(V)^2 = D exactly, so |det V| = sqrt|D| <= isqrt|D| + 1;
    - Hadamard's inequality on the columns of V_j: column m of V has norm
      at most sqrt(5) M_G^m and the column of the phi_i at most sqrt(5) M_F,
      with M_G and M_F the Cauchy root bounds 1 + max |coefficient| of G
      and F, so |det V_j| <= 5^(5/2) M_G^(10 - j) M_F <= 56 M_G^10 M_F.

    Hence |D c_j| <= B = (isqrt|D| + 1) 56 M_G^10 M_F (`_root_bound`).
    Each of the 120 matchings of the roots mod p^k gives D c_j by
    Lagrange interpolation; once p^k > 2B the symmetric residues of a true
    matching are the D c_j.  The extra factor 2^64 leaves a false matching
    a chance of about 2^-64 per coordinate to pass the bound, and every
    candidate is verified exactly.
    """
    bound = _root_bound(F, G, disc_g)
    k = 1
    while p ** k <= (2 * bound) << 64:
        k += 1
    q = p ** k
    thetas, phis = _lifted_roots(G, p, k), _lifted_roots(F, p, k)
    # D times the Lagrange basis at the thetas, ascending coefficients mod q
    basis = []
    for i, ti in enumerate(thetas):
        num, den = [1], 1
        for j, tj in enumerate(thetas):
            if j != i:
                num = [(a - tj * b) % q for a, b in zip([0] + num, num + [0])]
                den = den * (ti - tj) % q
        scale = disc_g * pow(den, -1, q) % q
        basis.append([c * scale % q for c in num])
    terms = [[[phi * c % q for c in b] for phi in phis] for b in basis]
    roots = []
    for match in itertools.permutations(range(5)):
        coords = []
        for j in range(5):
            c = sum(terms[i][m][j] for i, m in enumerate(match)) % q
            c = c - q if 2 * c > q else c
            if abs(c) > bound:
                break
            coords.append(c)
        else:
            if _vanishes(F, G, coords, disc_g):
                roots.append(coords)
    return roots


def _vanishes(F: List[int], G: List[int], h: List[int], scale: int) -> bool:
    """Whether F(h(theta) / scale) = 0 in Z[theta] = Z[x]/(G), F and G monic integer.

    Horner's rule on scale^n F(h / scale) = sum F_i scale^(n-i) h^i, with
    every product reduced modulo G: an exact evaluation in K.
    """
    n = len(G) - 1
    acc = [1]
    for i in range(len(F) - 2, -1, -1):
        prod = _z_mul(acc, h)
        for top in range(len(prod) - 1, n - 1, -1):  # x^top = x^(top-n) (x^n - G) mod G
            c = prod.pop()
            for j in range(n):
                prod[top - n + j] -= c * G[j]
        acc = prod
        acc[0] += F[i] * scale ** (len(F) - 1 - i)
    return not any(acc)


def _height_key(beta: FieldElement):
    """Order roots by height max(den, |den c_j|) (den the common denominator), then coordinates."""
    den = math.lcm(*(c.denominator for c in beta.coords))
    return max(den, *(abs(c.numerator) * (den // c.denominator) for c in beta.coords)), beta.coords
