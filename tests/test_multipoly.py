"""Sparse multivariate polynomial helper."""

from fractions import Fraction as F

import pytest

from quintic_trinomials.curve import T_FORM_QUADRIC, T_FORM_VARS
from quintic_trinomials.multipoly import MultiPoly

V = ("x", "y", "z")


def test_equality_hash_and_zero():
    p = MultiPoly.from_spec(V, [(1, {"x": 2}), (-1, {"y": 2}), (F(1, 2), {"x": 1, "z": 1})])
    q = MultiPoly(V, {(1, 0, 1): F(1, 2), (0, 2, 0): -1, (2, 0, 0): 1, (0, 0, 2): 0})
    assert p == q and hash(p) == hash(q)
    assert p != MultiPoly(("x", "y", "w"), q.terms)
    # repeated monomials add up, and cancel to zero
    assert MultiPoly.from_spec(V, [(3, {"y": 1}), (-3, {"y": 1})]) == MultiPoly.zero(V)
    assert MultiPoly.zero(V).is_zero and not p.is_zero
    with pytest.raises(ValueError, match="length mismatch"):
        MultiPoly(V, {(1, 0): 1})


def test_evaluate_and_partial_evaluate():
    p = MultiPoly.from_spec(V, [(1, {"x": 2}), (3, {"y": 1, "z": 1})])
    values = {"x": F(2), "y": F(-1), "z": F(3)}
    assert p.partial_evaluate(values) == MultiPoly.from_spec(V, [(4 - 9, {})])
    partial = p.partial_evaluate({"y": F(-1)})
    assert partial == MultiPoly.from_spec(V, [(1, {"x": 2}), (-3, {"z": 1})])


def test_proportionality():
    p = MultiPoly.from_spec(V, [(3, {"x": 1, "y": 1}), (-6, {"y": 2})])
    q, r = (MultiPoly.from_spec(V, [(1, {"x": 1, "y": 1}), (k, {"y": 2})]) for k in (-2, 1))
    assert p.proportionality(q) == 3
    assert p.proportionality(r) is None
    assert p.proportionality(MultiPoly.zero(V)) is None
    assert MultiPoly.zero(V).proportionality(MultiPoly.zero(V)) == 1


def test_mixed_variable_sets_rejected():
    with pytest.raises(ValueError, match="mixed variable sets"):
        MultiPoly.from_spec(V, [(1, {"x": 1})]).proportionality(
            MultiPoly.from_spec(("a", "b"), [(1, {"a": 1})]))


def reference_evaluate(poly, values):
    """Per-term Fraction evaluation, the definition the integer tables of
    `curve.cleared_table` and `curve.form_value` must match."""
    xs = [F(values[name]) for name in poly.vars]
    total = F(0)
    for e, c in poly.terms.items():
        prod = c
        for x, k in zip(xs, e):
            if k:
                prod *= x ** k
        total += prod
    return total


def test_str_prints_signs_units_and_zero():
    assert str(T_FORM_QUADRIC) == "-5*a^2 + 50*a*b + 32*b*d*t + 16*c^2*t + 40*c*d*t"
    assert str(MultiPoly.zero(T_FORM_VARS)) == "0"
    assert str(MultiPoly.from_spec(T_FORM_VARS, [(-1, {})])) == "-1"
    form = MultiPoly.from_spec(("x", "y"), [(F(-2, 3), {"x": 2, "y": 1}), (1, {"y": 3}), (-1, {})])
    assert str(form) == "-2/3*x^2*y + y^3 - 1"
