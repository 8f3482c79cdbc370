"""Sparse multivariate forms: integer numerators over one denominator."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from quintic_trinomials.curve import T_FORM_QUADRIC, T_FORM_VARS
from quintic_trinomials.multipoly import MultiPoly
from quintic_trinomials.qpoly import format_terms

V = ("x", "y", "z")


def test_equality_hash_and_zero():
    p = MultiPoly.from_spec(V, [(2, {"x": 2}), (-2, {"y": 2}), (1, {"x": 1, "z": 1})], den=2)
    q = MultiPoly(V, {(1, 0, 1): 1, (0, 2, 0): -2, (2, 0, 0): 2, (0, 0, 2): 0}, 2)
    # a common factor of the numerators and the denominator is divided out,
    # and the sign of the denominator moves to the numerators
    r = MultiPoly(V, {(1, 0, 1): -3, (0, 2, 0): 6, (2, 0, 0): -6}, -6)
    assert p == q == r and hash(p) == hash(q) == hash(r)
    assert (r.den, r.terms) == (2, {(1, 0, 1): 1, (0, 2, 0): -2, (2, 0, 0): 2})
    assert p != MultiPoly(("x", "y", "w"), q.terms, 2)
    assert p != MultiPoly(V, q.terms, 3)
    # repeated monomials add up, and cancel to zero
    assert MultiPoly.from_spec(V, [(3, {"y": 1}), (-3, {"y": 1})]) == MultiPoly(V)
    assert MultiPoly(V).terms == {} and p.terms
    assert MultiPoly(V, {}, 7) == MultiPoly(V) and MultiPoly(V, {}, 7).den == 1
    with pytest.raises(ValueError, match="length mismatch"):
        MultiPoly(V, {(1, 0): 1})
    # the length is checked on every key, zero coefficients included
    with pytest.raises(ValueError, match="length mismatch"):
        MultiPoly(V, {(1, 0, 0): 1, (1, 0): 0})
    with pytest.raises(ValueError, match="zero denominator"):
        MultiPoly(V, {(1, 0, 0): 1}, 0)


def test_evaluate_and_partial_evaluate():
    p = MultiPoly.from_spec(V, [(1, {"x": 2}), (3, {"y": 1, "z": 1})])
    values = {"x": F(2), "y": F(-1), "z": F(3)}
    assert p.partial_evaluate(values) == MultiPoly.from_spec(V, [(4 - 9, {})])
    partial = p.partial_evaluate({"y": F(-1)})
    assert partial == MultiPoly.from_spec(V, [(1, {"x": 2}), (-3, {"z": 1})])
    # y = -1/2 in (x^2 + 3yz) / 5: (2 x^2 - 3z) / 10
    assert MultiPoly(V, p.terms, 5).partial_evaluate({"y": F(-1, 2)}) == MultiPoly.from_spec(
        V, [(2, {"x": 2}), (-3, {"z": 1})], den=10)


def test_proportionality():
    p = MultiPoly.from_spec(V, [(3, {"x": 1, "y": 1}), (-6, {"y": 2})])
    q, r = (MultiPoly.from_spec(V, [(1, {"x": 1, "y": 1}), (k, {"y": 2})]) for k in (-2, 1))
    assert p.proportionality(q) == 3
    assert p.proportionality(r) is None
    assert p.proportionality(MultiPoly(V)) is None
    assert MultiPoly(V).proportionality(MultiPoly(V)) == 1
    assert MultiPoly(V, q.terms, 7).proportionality(MultiPoly(V, p.terms, 2)) == F(2, 21)


def test_mixed_variable_sets_rejected():
    with pytest.raises(ValueError, match="mixed variable sets"):
        MultiPoly.from_spec(V, [(1, {"x": 1})]).proportionality(
            MultiPoly.from_spec(("a", "b"), [(1, {"a": 1})]))


def reference_evaluate(poly, values):
    """Per-term Fraction evaluation, the definition that the integer tables
    of `MultiPoly.table` and `curve.form_value` must match."""
    xs = [F(values[name]) for name in poly.vars]
    total = F(0)
    for e, k in poly.terms.items():
        prod = F(k, poly.den)
        for x, n in zip(xs, e):
            if n:
                prod *= x ** n
        total += prod
    return total


def reference_table(variables, coefficients, order):
    """The form {exponents: Fraction} times the lcm of its denominators, with
    exponents over the variables `order`: the integer tables that the
    search engine reads from `MultiPoly.table` must be these."""
    scale = math.lcm(*(c.denominator for c in coefficients.values()))
    pos = [variables.index(n) for n in order]
    return tuple(sorted((tuple(e[i] for i in pos), c.numerator * (scale // c.denominator))
                        for e, c in coefficients.items() if c))


def from_fractions(variables, coefficients):
    """The form of a {exponents: Fraction} dict, over the lcm of its denominators."""
    den = math.lcm(*(c.denominator for c in coefficients.values()))
    return MultiPoly(variables, {e: int(c * den) for e, c in coefficients.items()}, den)


def test_str_prints_signs_units_and_zero():
    assert str(T_FORM_QUADRIC) == "-5*a^2 + 50*a*b + 32*b*d*t + 16*c^2*t + 40*c*d*t"
    assert str(MultiPoly(T_FORM_VARS)) == "0"
    assert str(MultiPoly.from_spec(T_FORM_VARS, [(-1, {})])) == "-1"
    form = MultiPoly.from_spec(("x", "y"), [(-2, {"x": 2, "y": 1}), (3, {"y": 3}), (-3, {})], den=3)
    assert str(form) == "-2/3*x^2*y + y^3 - 1"


_exponents = st.tuples(*[st.integers(0, 3)] * len(V))
_coefficients = st.one_of(
    st.just(F(0)), st.fractions(max_denominator=10),
    st.builds(F, st.integers(-2 ** 80, 2 ** 80), st.integers(1, 2 ** 70)))
_forms = st.dictionaries(_exponents, _coefficients, max_size=8)


def _monomial(e):
    return "*".join(f"{n}^{k}" if k > 1 else n for n, k in zip(V, e) if k)


@settings(max_examples=200, deadline=None)
@given(_forms, _forms)
def test_forms_match_their_fraction_coefficients(coefficients, other):
    reference = {e: c for e, c in coefficients.items() if c}
    form = from_fractions(V, coefficients)
    assert form.den > 0 and all(isinstance(k, int) and k for k in form.terms.values())
    assert math.gcd(form.den, *form.terms.values()) == 1
    assert {e: F(k, form.den) for e, k in form.terms.items()} == reference
    assert [c for _, c in form.sorted_terms()] == [reference[e] for e in sorted(reference, reverse=True)]
    assert str(form) == format_terms((reference[e], _monomial(e))
                                     for e in sorted(reference, reverse=True))
    for order in (V, ("z", "x", "y")):
        assert form.table(order) == reference_table(V, coefficients, order)
    # equality and hash follow the coefficient dicts
    second = from_fractions(V, other)
    assert (form == second) == (reference == {e: c for e, c in other.items() if c})
    twice = from_fractions(V, {e: 2 * c for e, c in reference.items()})
    assert form == from_fractions(V, reference) and hash(form) == hash(from_fractions(V, reference))
    assert twice.proportionality(form) == (2 if reference else 1)
    # proportionality by the Fraction coefficients
    ratios = {c / other[e] for e, c in reference.items() if other.get(e)}
    proportional = (set(reference) == {e for e, c in other.items() if c} and len(ratios) <= 1)
    expected = (None if not proportional else F(1) if not reference else ratios.pop())
    assert form.proportionality(second) == expected


@settings(max_examples=100, deadline=None)
@given(_forms, st.dictionaries(st.sampled_from(V), st.fractions(max_denominator=50), max_size=2))
def test_partial_evaluate_matches_the_fraction_reference(coefficients, values):
    expected = {}
    for e, c in coefficients.items():
        key = tuple(0 if n in values else k for n, k in zip(V, e))
        expected[key] = expected.get(key, F(0)) + c * math.prod(
            values[n] ** k for n, k in zip(V, e) if n in values)
    got = from_fractions(V, coefficients).partial_evaluate(values)
    assert got == from_fractions(V, expected) and got.vars == V
