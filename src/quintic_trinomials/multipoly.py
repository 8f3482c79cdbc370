"""Sparse multivariate forms over Q: the curve and surface forms.

A form is integer numerators `terms` {exponent tuple: int} over a fixed
variable list and one denominator `den` > 0, with gcd(den, content) = 1.
There is no ring arithmetic: evaluation, the split by powers of one
variable and the resultant run on `table` through `curve`.  Terms print
in descending exponent order, so output is deterministic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .qpoly import format_terms


class MultiPoly:
    __slots__ = ("vars", "terms", "den")

    def __init__(self, variables: Sequence[str], terms: Dict[Tuple[int, ...], int] = None,
                 den: int = 1):
        self.vars = tuple(variables)
        terms = terms or {}
        if any(len(e) != len(self.vars) for e in terms):
            raise ValueError("exponent tuple length mismatch")
        if not den:
            raise ValueError("zero denominator")
        g = math.gcd(den, *terms.values())
        if den < 0:
            g = -g
        self.terms = {tuple(e): k // g for e, k in terms.items() if k}
        self.den = den // g

    @staticmethod
    def from_spec(variables, spec, den: int = 1) -> "MultiPoly":
        """Build from [(numerator, {varname: exponent}), ...] over `den`."""
        variables = tuple(variables)
        terms: Dict[Tuple[int, ...], int] = {}
        for k, powers in spec:
            exps = [0] * len(variables)
            for name, e in powers.items():
                exps[variables.index(name)] = e
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + k
        return MultiPoly(variables, terms, den)

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.vars == other.vars
                and self.den == other.den and self.terms == other.terms)

    def __hash__(self):
        return hash((self.vars, self.den, tuple(sorted(self.terms.items()))))

    def table(self, order: Sequence[str]):
        """The numerators as sorted (exponents, int) pairs, exponents over the
        variables `order` (any other variable of the form must not occur)."""
        pos = [self.vars.index(n) for n in order]
        return tuple(sorted((tuple(e[i] for i in pos), k) for e, k in self.terms.items()))

    def partial_evaluate(self, values: Dict[str, Fraction]) -> "MultiPoly":
        """The form with the named variables put in: v = p/q enters as
        p^e q^(n - e) over q^n, n the top degree of v in the form."""
        subs = {self.vars.index(n): Fraction(v) for n, v in values.items()}
        top = {i: max((e[i] for e in self.terms), default=0) for i in subs}
        terms: Dict[Tuple[int, ...], int] = {}
        for e, k in self.terms.items():
            key = list(e)
            for i, v in subs.items():
                k *= v.numerator ** e[i] * v.denominator ** (top[i] - e[i])
                key[i] = 0
            key = tuple(key)
            terms[key] = terms.get(key, 0) + k
        return MultiPoly(self.vars, terms, self.den * math.prod(
            v.denominator ** top[i] for i, v in subs.items()))

    def proportionality(self, other: "MultiPoly") -> Optional[Fraction]:
        """Return r with self = r * other, or None if not proportional."""
        if other.vars != self.vars:
            raise ValueError("mixed variable sets")
        if self.terms.keys() != other.terms.keys():
            return None
        if not self.terms:
            return Fraction(1)
        e0 = next(iter(self.terms))
        k0, m0 = self.terms[e0], other.terms[e0]
        if any(k * m0 != k0 * other.terms[e] for e, k in self.terms.items()):
            return None
        return Fraction(k0 * other.den, m0 * self.den)

    def sorted_terms(self):
        """(exponents, Fraction coefficient) pairs, in descending order of exponents."""
        return [(e, Fraction(self.terms[e], self.den)) for e in sorted(self.terms, reverse=True)]

    def __str__(self):
        return format_terms((c, "*".join(f"{n}^{k}" if k > 1 else n
                                         for n, k in zip(self.vars, e) if k))
                            for e, c in self.sorted_terms())

    def __repr__(self):
        return f"MultiPoly({self.vars}, {self.terms!r}, {self.den})"
