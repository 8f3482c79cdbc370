"""Arithmetic in quintic number fields K = Q[x]/(g).

Elements are coordinate vectors over the power basis 1, alpha, ...,
alpha^4; a product is the polynomial product reduced mod g.  The
characteristic polynomial of the multiplication-by-beta map is computed
in integers, from the traces of the powers of an integral multiple of
beta by Newton's identities (`charpoly_mod`); it equals the minimal
polynomial of beta whenever beta is irrational (degree five is prime, so
there are no intermediate fields).

Whether an irreducible quintic f has a root in K is decided at a prime
(Cohen, "A Course in Computational Algebraic Number Theory", ch. 3-4;
Belabas, J. Theor. Nombres Bordeaux 16, 2004).  Root counts mod p that
differ prove absence.  At the first prime where g has all five roots in
GF(p^2), of density at least 1/5 whatever the Galois group (a totally
split prime of an S5 field has 1/120), the roots of f in K are
interpolated p-adically under a proven bound and verified exactly
(`_decide_at_prime`); when none verifies, "absent" is proven.  Of several
roots (K cyclic) the one of least height is returned, ties broken by
coordinates.  K's signature, rescaling G and disc(G) are computed once.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .qpoly import (UniPoly, count_real_roots, format_terms, integer_discriminant,
                    integer_power_sums)
from .factor import (PRIME_BLOCK, factor_over_Q, frobenius_traces, gf_p2_roots, primes_below,
                     z_divmod, z_mul)


def charpoly_mod(g: UniPoly, coords: Sequence[Fraction]) -> UniPoly:
    """Characteristic polynomial of multiplication by the element with given coords.

    Computed in integers: theta = d alpha is a root of the monic integer
    G = `g.integral_rescaling()`, and D beta = sum B_i theta^i with integer
    B_i for the least such D.  Its roots are the conjugates of beta, so with
    p_m = Tr((D beta)^m) = sum_i [theta^i] (D beta)^m * Tr(theta^i), every
    power reduced modulo G, Newton's identities m e_m = sum_i (-1)^(i-1)
    e_(m-i) p_i give the elementary symmetric functions e_m of the
    conjugates of D beta, integers as D beta is integral over Z, by exact
    division; the coefficient of x^(n-m) is (-1)^m e_m / D^m (H. Cohen,
    GTM 138, section 4.2).
    """
    d, G = g.integral_rescaling()
    n = len(G) - 1
    scaled = [Fraction(c) / d ** i for i, c in enumerate(coords)]
    D = math.lcm(*(c.denominator for c in scaled))
    B = z_divmod([c.numerator * (D // c.denominator) for c in scaled], G)[1]
    traces = integer_power_sums(G, n - 1)
    e, psums, power = [1], [], [1]
    for m in range(1, n + 1):
        power = z_divmod(z_mul(power, B), G)[1]
        psums.append(sum(c * s for c, s in zip(power, traces)))
        e.append(sum((-1) ** (i - 1) * e[m - i] * psums[i - 1] for i in range(1, m + 1)) // m)
    return UniPoly(Fraction((-1) ** m * e[m], D ** m) for m in range(n, -1, -1))


class NumberField:
    """K = Q[alpha] with alpha a root of a monic irreducible quintic."""

    def __init__(self, defining_poly: UniPoly):
        if defining_poly.degree != 5 or defining_poly.lc != 1:
            raise ValueError("defining polynomial must be monic of degree 5")
        if not factor_over_Q(defining_poly).is_irreducible:
            raise ValueError(f"defining polynomial {defining_poly} is reducible over Q")
        self.defining_poly = defining_poly

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

    @functools.cached_property
    def integral_model(self) -> Tuple[int, List[int], int]:
        """(e, G, disc(G)), G = e^5 g(x / e) the monic integral rescaling, once per field."""
        e, G = self.defining_poly.integral_rescaling()
        return e, G, integer_discriminant(G)


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
        product = UniPoly(self.coords) * UniPoly(other.coords) % self.field.defining_poly
        return FieldElement(self.field, (product[i] for i in range(5)))

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
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def char_poly(self) -> UniPoly:
        """Monic degree-5 characteristic polynomial of the multiplication map."""
        return charpoly_mod(self.field.defining_poly, self.coords)

    def trace(self) -> Fraction:
        return -self.char_poly()[4]

    def norm(self) -> Fraction:
        return -self.char_poly()[0]  # det of the multiplication matrix

    def __repr__(self):
        return f"FieldElement({self.coords})"

    def __str__(self):
        return format_terms(zip(self.coords, ("", "a", "a^2", "a^3", "a^4")))


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
    decided at a prime (`_decide_at_prime`).  Certificates are verified
    by exact evaluation in K before being returned.
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
    return _decide_at_prime(f, K)


def _prime_blocks(bad: int, degree: int):
    """Ascending primes p > degree not dividing bad, in lists of 8, 16, ..., 128, then PRIME_BLOCK.

    Most decisions need a few primes; naming an S5 field's split prime takes about 120.
    """
    primes = (p for e in itertools.count(3) for p in primes_below(1 << e)
              if p > degree and p >= 1 << e - 1 and bad % p)
    for size in itertools.chain((8, 16, 32, 64, 128), itertools.repeat(PRIME_BLOCK)):
        yield list(itertools.islice(primes, size))


def _decide_at_prime(f: UniPoly, K: NumberField) -> RootSearchResult:
    """Root of a monic irreducible quintic f in K, or a proof that there is none.

    f has a root in K exactly when Q[x]/(f) and K are isomorphic, and then
    the monic integer rescalings F and G of f and g have equally many
    roots mod every prime not dividing disc(F) disc(G).  The roots of F in
    K are interpolated at the first prime where G's roots lie in GF(p^2),
    if F's do too.  Without a root, the scan goes on only to name the
    first prime where the root counts differ, or else where G splits.
    """
    d, F = f.integral_rescaling()
    e, G, disc_g = K.integral_model
    roots = None
    for block in _prime_blocks(integer_discriminant(F) * disc_g, len(F) - 1):
        traces = frobenius_traces([F, G], block, 2).tolist()
        for p, (f1, f2), (g1, g2) in zip(block, *traces):
            if f1 != g1:
                return RootSearchResult("absent", None, detail=f"root counts mod {p} differ: "
                                        f"{f1} for f, {g1} for the field polynomial")
            if roots is None and g2 == 5:
                roots = [K.element([Fraction(c * e ** j, disc_g * d) for j, c in enumerate(h)])
                         for h in (_interpolated_roots(F, G, disc_g, p) if f2 == 5 else ())]
                if roots:
                    return RootSearchResult("certified", min(roots, key=_height_key),
                                            detail="verified exactly")
            if g1 == 5:
                return RootSearchResult("absent", None, detail="no root interpolated at the "
                                        f"split prime {p} verifies")


def _sqrt_mul(u, v, n, q):
    """u v in Z/q[sqrt n], an element a + b sqrt(n) being the pair (a, b)."""
    return (u[0] * v[0] + n * u[1] * v[1]) % q, (u[0] * v[1] + u[1] * v[0]) % q


def _sqrt_div(u, v, n, q):
    """u / v in Z/q[sqrt n] for a unit v = (c, d): u (c - d sqrt(n)) / (c^2 - n d^2)."""
    w = pow(v[0] * v[0] - n * v[1] * v[1], -1, q)
    return _sqrt_mul(u, (v[0] * w, -v[1] * w), n, q)


def _sqrt_horner(coeffs, r, n, q):
    """Horner's sums at r in Z/q[sqrt n]: the quotient by x - r from the top, then the value."""
    (x, y), a, b, sums = r, 0, 0, []
    for c in reversed(coeffs):
        a, b = (a * x + n * b * y + c) % q, (a * y + b * x) % q
        sums.append((a, b))
    return sums


def _lifted_roots(f_ints, roots, n, p, k):
    """Lift simple roots (a, b) = a + b sqrt(n) mod p of an integer polynomial to p^k.

    n is a non-residue mod p; Newton's iteration r <- r - f(r) / f'(r),
    f'(r) a unit as the roots are simple, doubles the precision each step.
    """
    target = p ** k
    deriv = [i * c for i, c in enumerate(f_ints)][1:]
    lifted = []
    for r in roots:
        modulus = p
        while modulus < target:
            modulus = min(modulus * modulus, target)
            a, b = _sqrt_div(_sqrt_horner(f_ints, r, n, modulus)[-1],
                             _sqrt_horner(deriv, r, n, modulus)[-1], n, modulus)
            r = ((r[0] - a) % modulus, (r[1] - b) % modulus)
        if any(_sqrt_horner(f_ints, r, n, target)[-1]):
            raise ArithmeticError(f"lift invariant broken modulo {target}")
        lifted.append(r)
    return lifted


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

    F and G are monic integer quintics with simple roots mod p, all in
    GF(p^2), and D = disc_g = disc(G).  A root phi = sum c_j theta^j of F
    has V c = (phi_i), V the Vandermonde matrix of the roots theta_i of G,
    so by Cramer D c_j = det(V) det(V_j), V_j being V with column j
    replaced by (phi_i); D c_j is an integer as phi is in O_K and D O_K in
    Z[theta].  det(V)^2 = D, and column m of V has norm at most sqrt(5)
    M_G^m, so Hadamard gives |det V_j| <= 5^(5/2) M_G^(10 - j) M_F <= 56
    M_G^10 M_F, M_G and M_F the Cauchy root bounds 1 + max |coefficient|
    of G and F: |D c_j| <= B of `_root_bound`.

    In Z/p^k[sqrt n], n a non-residue mod p, conjugation is Frobenius; h is
    rational, so the matching theta_i -> h(theta_i) / D commutes with it.
    Only such matchings are interpolated: 120 when G splits mod p, 12 for
    the cycle type 1^3 2, 8 for 1 2^2.  Once p^k > 2B, a true one gives the
    D c_j as symmetric residues with a zero sqrt(n) part; the factor 2^64
    leaves a false one a chance of about 2^-64 per coordinate to pass the
    bound, and every candidate is verified exactly.
    """
    bound = _root_bound(F, G, disc_g)
    k = next(k for k in itertools.count(1) if p ** k > (2 * bound) << 64)
    q = p ** k
    n = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
    thetas, phis = (_lifted_roots(H, gf_p2_roots(H, n, p), n, p, k) for H in (G, F))
    # terms[i][m][j]: phi_m times coefficient j of D G(x) / ((x - theta_i) G'(theta_i))
    deriv = [i * c for i, c in enumerate(G)][1:]
    terms = []
    for theta in thetas:
        scale = _sqrt_div((disc_g, 0), _sqrt_horner(deriv, theta, n, q)[-1], n, q)
        basis = [_sqrt_mul(c, scale, n, q) for c in _sqrt_horner(G, theta, n, q)[-2::-1]]
        terms.append([[_sqrt_mul(phi, c, n, q) for c in basis] for phi in phis])
    conj_g, conj_f = ([rs.index((a, -b % q)) for a, b in rs] for rs in (thetas, phis))
    roots = []
    for match in itertools.permutations(range(5)):
        if any(match[conj_g[i]] != conj_f[m] for i, m in enumerate(match)):
            continue
        coords = []
        for j in range(5):
            a, b = (sum(t) % q for t in zip(*(terms[i][m][j] for i, m in enumerate(match))))
            a = a - q if 2 * a > q else a
            if b or abs(a) > bound:
                break
            coords.append(a)
        else:
            if _vanishes(F, G, coords, disc_g):
                roots.append(coords)
    return roots


def _vanishes(F: List[int], G: List[int], h: List[int], scale: int) -> bool:
    """Whether F(h(theta) / scale) = 0 in Z[theta] = Z[x]/(G), F and G monic integer.

    Horner's rule on scale^n F(h / scale) = sum F_i scale^(n-i) h^i, with
    every product reduced modulo G: an exact evaluation in K.
    """
    acc = [1]
    for i in range(len(F) - 2, -1, -1):
        acc = z_divmod(z_mul(acc, h), G)[1]
        acc[0] += F[i] * scale ** (len(F) - 1 - i)
    return not any(acc)


def _height_key(beta: FieldElement):
    """Order roots by height max(den, |den c_j|) (den the common denominator), then coordinates."""
    den = math.lcm(*(c.denominator for c in beta.coords))
    return max(den, *(abs(c.numerator) * (den // c.denominator) for c in beta.coords)), beta.coords
