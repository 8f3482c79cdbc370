"""Sparse multivariate polynomials over Q.

Just enough ring machinery for the curve and surface constructions:
terms are {exponent tuple: Fraction} over a fixed variable list, with
partial evaluation, exact division by a variable, and proportionality
testing.  A form is evaluated at a point as the integer table of
`curve.cleared_table`, by `curve.form_value`.  Term order (lexicographic
on exponent tuples) is fixed, so serialized output is deterministic.
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
    def constant(variables, c) -> "MultiPoly":
        return MultiPoly(variables, {(0,) * len(variables): Fraction(c)})

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

    # -- ring operations -----------------------------------------------------

    def _check(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.vars != self.vars:
                raise ValueError("mixed variable sets")
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(self.vars, other)
        raise TypeError(f"cannot combine MultiPoly with {type(other).__name__}")

    def __add__(self, other):
        other = self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return MultiPoly(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MultiPoly(self.vars, {e: c * other for e, c in self.terms.items()})
        other = self._check(other)
        terms: Dict[Tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
        return MultiPoly(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = MultiPoly.constant(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.vars, other)
        return isinstance(other, MultiPoly) and self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    # -- substitution ------------------------------------------------------------

    def _vindex(self, name: str) -> int:
        return self.vars.index(name)

    def degree_in(self, name: str) -> int:
        i = self._vindex(name)
        return max((e[i] for e in self.terms), default=-1)

    def coefficient_of(self, name: str, power: int) -> "MultiPoly":
        """Coefficient of name^power, as a polynomial with that variable cleared."""
        i = self._vindex(name)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == power:
                key = e[:i] + (0,) + e[i + 1:]
                terms[key] = terms.get(key, Fraction(0)) + c
        return MultiPoly(self.vars, terms)

    def partial_evaluate(self, values: Dict[str, Fraction]) -> "MultiPoly":
        terms: Dict[Tuple[int, ...], Fraction] = {}
        idx = {self._vindex(n): Fraction(v) for n, v in values.items()}
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

    def divide_by_variable(self, name: str) -> Optional["MultiPoly"]:
        """Exact quotient by the variable, or None if some term lacks it."""
        i = self._vindex(name)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                return None
            terms[e[:i] + (e[i] - 1,) + e[i + 1:]] = c
        return MultiPoly(self.vars, terms)

    def proportionality(self, other: "MultiPoly") -> Optional[Fraction]:
        """Return r with self = r * other, or None if not proportional."""
        other = self._check(other)
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


def resultant_in(name: str, p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Resultant of p (degree 1) and q (degree <= 2) viewed in one variable.

    Only the low-degree cases the elimination needs; coefficients stay in
    the ambient ring.  For p = p1*v + p0 and q = q2*v^2 + q1*v + q0:
    Res_v = q2*p0^2 - q1*p0*p1 + q0*p1^2.
    """
    if p.degree_in(name) != 1:
        raise ValueError("first argument must be linear in the variable")
    dq = q.degree_in(name)
    if dq > 2:
        raise ValueError("second argument must have degree <= 2 in the variable")
    p1 = p.coefficient_of(name, 1)
    p0 = p.coefficient_of(name, 0)
    q2 = q.coefficient_of(name, 2)
    q1 = q.coefficient_of(name, 1)
    q0 = q.coefficient_of(name, 0)
    return q2 * p0 * p0 - q1 * p0 * p1 + q0 * p1 * p1
