"""Fraction references for the integer paths of `numberfield`, `trinomial` and `surface`.

Field products run in Z[theta]/(G), the two-trinomial identity through
`numberfield.vanishes`, the surface's curves and lines as integer rows,
and the Galois heuristic factors over Q only when the cycle types leave
a factor possible.  The computations they replaced are kept here: the
polynomial product reduced mod g over Q, Horner's rule in Q[x]/(f), the
parametrizations as Fraction maps, and the heuristic that factors first.
"""

from fractions import Fraction

from quintic_trinomials.factor import cycle_types, factor_over_Q, primes_below
from quintic_trinomials.qpoly import UniPoly, is_rational_square
from quintic_trinomials.trinomial import GaloisEvidence, _GROUPS, trinomial_disc


def field_product(g: UniPoly, x, y) -> tuple:
    """The coordinates of x y in Q[alpha]/(g), by the Fraction product reduced mod g."""
    product = UniPoly(x) * UniPoly(y) % g
    return tuple(product[i] for i in range(g.degree))


def pair_identity(f: UniPoly, beta, h: UniPoly) -> bool:
    """Whether h(beta) = 0 in Q[x]/(f), by Horner's rule over Q."""
    fm = f.monic()
    beta_poly = UniPoly(beta) % fm
    acc = UniPoly.zero()
    for coeff in reversed(h.coeffs):
        acc = (acc * beta_poly + UniPoly.constant(coeff)) % fm
    return acc.is_zero


# the five lines of the surface; each maps two projective parameters (u : v) to a point
LINES = {
    "t0-a": lambda u, v: (10 * u, u, Fraction(-3, 5) * u, v),
    "t0-b": lambda u, v: (0, 0, u, v),
    "t-inf": lambda u, v: (u, Fraction(21, 32) * v, Fraction(-3, 4) * v, v),
    "t-reducible": lambda u, v: (Fraction(125, 16) * v, u, Fraction(-5, 4) * v, v),
    "singular": lambda u, v: (u, v, 0, 0),
}

# the five rational curves of the surface, by parametrization degree in s
CURVES = {
    "R1": lambda s: (
        Fraction(-3, 100) * s ** 4 - Fraction(1, 5) * s ** 3 + s ** 2,
        Fraction(3, 100) * s ** 3 + Fraction(1, 5) * s ** 2 - s,
        Fraction(0),
        Fraction(32, 125) * s ** 2 + Fraction(24, 25) * s + Fraction(16, 5),
    ),
    "R2": lambda s: (
        Fraction(7, 2000) * s ** 4 + Fraction(1, 100) * s ** 3 + Fraction(1, 4) * s ** 2 + s,
        -Fraction(7, 2000) * s ** 3 - Fraction(1, 100) * s ** 2 - Fraction(1, 4) * s - 1,
        Fraction(-5, 2) * (Fraction(8, 625) * s ** 2 + Fraction(2, 125) * s - Fraction(4, 25)),
        Fraction(8, 625) * s ** 2 + Fraction(2, 125) * s - Fraction(4, 25),
    ),
    "R3": lambda s: (
        Fraction(-1, 250) * s ** 3 + Fraction(2, 25) * s ** 2 - Fraction(1, 2) * s + 1,
        Fraction(-1, 250) * s ** 2 + Fraction(1, 10),
        Fraction(-5, 4) * (Fraction(-32, 625) * s + Fraction(16, 125)),
        Fraction(-32, 625) * s + Fraction(16, 125),
    ),
    "R4": lambda s: (
        Fraction(0),
        Fraction(-1, 2) * s ** 2 - Fraction(5, 4) * s,
        s,
        Fraction(1),
    ),
    "R5": lambda s: (
        -5 * s ** 2 - Fraction(25, 2) * s,
        Fraction(-1, 2) * s ** 2 - Fraction(5, 4) * s,
        s,
        Fraction(1),
    ),
}


def galois_type_factoring_first(f, prime_bound: int = 500):
    """`galois_type_heuristic` as it was: factor over Q first, then read the cycle types."""
    poly = f.as_unipoly()
    if not factor_over_Q(poly).is_irreducible:
        raise ValueError(f"{f} is reducible over Q")
    disc = trinomial_disc(f)
    square = is_rational_square(disc)
    d, monic = poly.integral_rescaling()
    good = [p for p in primes_below(prime_bound)
            if d % p and disc.numerator % p and disc.denominator % p]
    observed = set(cycle_types(monic, good))
    evidence = GaloisEvidence(square, tuple(sorted(observed)), len(good))
    for name, in_a5, allowed in _GROUPS:
        if in_a5 == square and observed <= allowed:
            return name, evidence
    return ("A5", evidence) if square else ("S5", evidence)
