"""Arithmetic in quintic number fields K = Q[x]/(g).

Elements are coordinate vectors over the power basis 1, alpha, ...,
alpha^4.  The characteristic polynomial of the multiplication-by-beta
map is computed from the traces of the powers of beta by Newton's
identities; it equals the minimal polynomial of beta whenever beta is
irrational (degree five is prime, so there are no intermediate fields).

Whether f has a root in K is decided exactly by Trager's norm criterion
(Trager, SYMSAC 1976; Cohen, "A Course in Computational Algebraic Number
Theory", 3.6): for an irreducible quintic f and k with
N_k(x) = Norm_{K/Q} f(x - k alpha) squarefree, f has a root in K exactly
when N_k has an irreducible factor h of degree 5 over Q, and the root is
the common root of f(x) and h(x + k alpha), found by Euclid over K.  N_k
is built from power sums: its roots are beta_j + k alpha_i.  Roots are
re-verified by exact evaluation in K; "absent" is always proven.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .qpoly import UniPoly, count_real_roots
from .factor import factor_over_Q


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

    def __init__(self, defining_poly: UniPoly, check_irreducible: bool = True):
        if defining_poly.degree != 5 or defining_poly.lc != 1:
            raise ValueError("defining polynomial must be monic of degree 5")
        if check_irreducible and not factor_over_Q(defining_poly).is_irreducible:
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

    @property
    def signature(self) -> Tuple[int, int]:
        """(real embeddings, conjugate pairs)."""
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
    decided by the norm criterion.  Certificates re-verify by exact
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
    k, beta = _norm_criterion(f, K)
    if beta is None:
        return RootSearchResult(
            "absent", None, detail=f"norm N_{k} has no irreducible factor of degree 5")
    return RootSearchResult("certified", beta, detail="verified exactly")


def trager_norm(f: UniPoly, g: UniPoly, k: int) -> UniPoly:
    """N_k(x) = Res_y(g(y), f(x - k y)) = Norm f(x - k alpha), alpha a root of g.

    f and g must be monic.  The roots of N_k are beta_j + k alpha_i, so
    its power sums are P_m = sum_r C(m, r) k^(m-r) s_f(r) s_g(m-r), and
    Newton's identities turn them into coefficients.
    """
    n = f.degree * g.degree
    sf, sg = f.power_sums(n), g.power_sums(n)
    return _monic_from_power_sums(
        [sum(math.comb(m, r) * k ** (m - r) * sf[r] * sg[m - r] for r in range(m + 1))
         for m in range(n + 1)])


def _integral_scale(p: UniPoly) -> int:
    """A positive integer D with D^n p(x / D) in Z[x] (p monic of degree n)."""
    n = p.degree
    d = 1
    for i in range(1, n + 1):
        den = p[n - i].denominator
        d *= den // math.gcd(den, d ** i)
    return d


def _norm_criterion(f: UniPoly, K: NumberField) -> Tuple[int, Optional[FieldElement]]:
    """(k, root of f in K or None) for a monic irreducible quintic f, by Trager's criterion.

    f and the generator are first scaled to algebraic integers, D beta and
    E alpha, so N_k is a monic integer polynomial.
    """
    d = _integral_scale(f)
    e = _integral_scale(K.defining_poly)
    f_int = f.scale_argument(Fraction(1, d)) * d ** 5
    g_int = K.defining_poly.scale_argument(Fraction(1, e)) * e ** 5
    theta = K.generator * e
    k = 0
    while True:
        k += 1
        fac = factor_over_Q(trager_norm(f_int, g_int, k))
        if all(m == 1 for _, m in fac.factors):
            break
    for h, _ in fac.factors:
        if h.degree == 5:
            shifted = _compose_shift(h, theta * k)
            gcd = _gcd_over_field([K.rational(c) for c in f_int.coeffs], shifted)
            beta = -gcd[0] * Fraction(1, d)
            if len(gcd) != 2 or not f(beta).is_zero:
                raise ArithmeticError(f"norm factor {h} of {f} gave no root in {K}")
            return k, beta
    return k, None


def _compose_shift(h: UniPoly, c: FieldElement) -> List[FieldElement]:
    """Coefficients of h(x + c) over K, ascending, by Horner's rule."""
    out: List[FieldElement] = []
    for coeff in reversed(h.coeffs):
        out = [c.field.rational(0)] + out  # times x ...
        for i in range(len(out) - 1):
            out[i] = out[i] + c * out[i + 1]  # ... plus c times the old value
        out[0] = out[0] + coeff
    return out


def _gcd_over_field(a: List[FieldElement], b: List[FieldElement]) -> List[FieldElement]:
    """Monic gcd of two nonzero polynomials over K (ascending coefficient lists)."""
    a = a[:]
    while True:
        if b[-1] != 1:
            inv = b[-1].inverse()
            b = [c * inv for c in b]
        while len(a) >= len(b):  # a <- a mod b, b monic
            c = a.pop()
            shift = len(a) - len(b) + 1
            for i in range(len(b) - 1):
                a[shift + i] = a[shift + i] - c * b[i]
            while a and a[-1].is_zero:
                a.pop()
        if not a:
            return b
        a, b = b, a
