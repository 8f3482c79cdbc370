"""Trager's norm criterion, kept as an independent oracle for root-in-field decisions.

For monic f and g with alpha a root of g, N_k(x) = Norm f(x - k alpha) =
Res_y(g(y), f(x - k y)).  When N_k is squarefree, the irreducible factors
of f over K = Q(alpha) correspond to those of N_k over Q, with degrees
multiplied by 5; so f has a root in K exactly when N_k has an
irreducible factor of degree 5 (Trager, SYMSAC 1976).

Both the norms here and the Fraction reference of `charpoly_mod` in the
tests are monic polynomials built from power sums by Newton's identities.
"""

import math
from fractions import Fraction

from quintic_trinomials.factor import factor_over_Q
from quintic_trinomials.qpoly import UniPoly
from qpoly_reference import squarefree_part


def monic_from_power_sums(psums):
    """The monic polynomial of degree n whose roots have power sums psums[1..n] (Newton)."""
    n = len(psums) - 1
    e = [Fraction(1)]  # elementary symmetric functions of the roots
    for m in range(1, n + 1):
        e.append(sum((-1) ** (i - 1) * e[m - i] * psums[i] for i in range(1, m + 1)) / m)
    return UniPoly((-1) ** m * e[m] for m in range(n, -1, -1))


def trager_norm(f, g, k):
    """N_k(x) for monic f and g, from power sums: its roots are beta_j + k alpha_i."""
    n = f.degree * g.degree
    sf, sg = f.power_sums(n), g.power_sums(n)
    return monic_from_power_sums(
        [sum(math.comb(m, r) * k ** (m - r) * sf[r] * sg[m - r] for r in range(m + 1))
         for m in range(n + 1)])


def trager_has_root(f, g):
    """Whether f has a root in Q[x]/(g), by the first k = 1, 2, ... with N_k squarefree."""
    f = squarefree_part(f)
    k = 1
    while True:
        fac = factor_over_Q(trager_norm(f, g.monic(), k))
        if all(m == 1 for _, m in fac.factors):
            return any(h.degree == 5 for h, _ in fac.factors)
        k += 1
