"""Sparse multivariate polynomials over Q, as a container for the curve
and surface forms.

Terms are {exponent tuple: Fraction} over a fixed variable list, with
partial evaluation and proportionality testing; there is no ring
arithmetic.  Every computation with a form runs on its integer table
(`curve.cleared_table`): evaluation at a point by `curve.form_value`, the
split by powers of one variable by `curve.split_by_variable`, and the
resultant by `curve.table_resultant`.  Term order (lexicographic on
exponent tuples) is fixed, so serialized output is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .qpoly import format_terms


class MultiPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Dict[Tuple[int, ...], Fraction] = None):
        self.vars = tuple(variables)
        clean = {}
        for exps, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                if len(exps) != len(self.vars):
                    raise ValueError("exponent tuple length mismatch")
                clean[tuple(exps)] = c
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(variables) -> "MultiPoly":
        return MultiPoly(variables, {})

    @staticmethod
    def from_spec(variables, spec: Iterable[Tuple[object, Dict[str, int]]]) -> "MultiPoly":
        """Build from [(coeff, {varname: exponent}), ...]."""
        variables = tuple(variables)
        terms: Dict[Tuple[int, ...], Fraction] = {}
        for coeff, powers in spec:
            exps = [0] * len(variables)
            for name, e in powers.items():
                exps[variables.index(name)] = e
            key = tuple(exps)
            terms[key] = terms.get(key, Fraction(0)) + Fraction(coeff)
        return MultiPoly(variables, terms)

    # -- comparison -------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, MultiPoly) and self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # -- substitution ------------------------------------------------------------

    def partial_evaluate(self, values: Dict[str, Fraction]) -> "MultiPoly":
        terms: Dict[Tuple[int, ...], Fraction] = {}
        idx = {self.vars.index(n): Fraction(v) for n, v in values.items()}
        for e, c in self.terms.items():
            coeff = c
            key = list(e)
            for i, v in idx.items():
                if e[i]:
                    coeff *= v ** e[i]
                key[i] = 0
            k = tuple(key)
            terms[k] = terms.get(k, Fraction(0)) + coeff
        return MultiPoly(self.vars, terms)

    def proportionality(self, other: "MultiPoly") -> Optional[Fraction]:
        """Return r with self = r * other, or None if not proportional."""
        if other.vars != self.vars:
            raise ValueError("mixed variable sets")
        if self.is_zero and other.is_zero:
            return Fraction(1)
        if self.is_zero or other.is_zero:
            return None
        if set(self.terms) != set(other.terms):
            return None
        items = iter(self.terms.items())
        e0, c0 = next(items)
        r = c0 / other.terms[e0]
        for e, c in items:
            if c != r * other.terms[e]:
                return None
        return r

    # -- presentation -----------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda ec: ec[0], reverse=True)

    def __str__(self):
        return format_terms((c, "*".join(f"{n}^{k}" if k > 1 else n
                                         for n, k in zip(self.vars, e) if k))
                            for e, c in self.sorted_terms())

    def __repr__(self):
        return f"MultiPoly({self.vars}, {self.terms!r})"

