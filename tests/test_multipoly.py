"""Sparse multivariate polynomial helper."""

from fractions import Fraction as F

import pytest

from quintic_trinomials.curve import T_FORM_QUADRIC, T_FORM_VARS
from quintic_trinomials.multipoly import MultiPoly, resultant_in

V = ("x", "y", "z")


def test_arithmetic_and_equality():
    x = MultiPoly.variable(V, "x")
    y = MultiPoly.variable(V, "y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert p - p == 0
    assert MultiPoly.zero(V).is_zero


def test_evaluate_and_partial_evaluate():
    x, y, z = (MultiPoly.variable(V, n) for n in V)
    p = x * x + 3 * y * z
    values = {"x": F(2), "y": F(-1), "z": F(3)}
    assert p.partial_evaluate(values) == 4 - 9
    partial = p.partial_evaluate({"y": F(-1)})
    assert partial == x * x - 3 * z


def test_coefficient_extraction_and_degrees():
    x, y, z = (MultiPoly.variable(V, n) for n in V)
    p = 2 * x * x * y + x * z - 5 * y
    assert p.degree_in("x") == 2
    assert p.coefficient_of("x", 2) == 2 * y
    assert p.coefficient_of("x", 1) == z
    assert p.coefficient_of("x", 0) == -5 * y
    assert p.total_degree() == 3
    assert not p.is_homogeneous()
    assert (x * y + z * z).is_homogeneous()


def test_divide_by_variable():
    x, y, _ = (MultiPoly.variable(V, n) for n in V)
    p = x * x * y + 2 * x
    assert p.divide_by_variable("x") == x * y + 2
    assert (p + y).divide_by_variable("x") is None


def test_proportionality():
    x, y, _ = (MultiPoly.variable(V, n) for n in V)
    p = 3 * x * y - 6 * y * y
    assert p.proportionality(x * y - 2 * y * y) == 3
    assert p.proportionality(x * y + y * y) is None
    assert p.proportionality(MultiPoly.zero(V)) is None


def test_resultant_in_low_degrees():
    x, y, t = (MultiPoly.variable(("x", "y", "t"), n) for n in ("x", "y", "t"))
    # res_t( x*t + y, t^2 - x ) = x^2 * ((y/x)^2 - x)... cleared: y^2 - x^3
    lin = x * t + y
    quad = t * t - x
    res = resultant_in("t", lin, quad)
    assert res == y * y - x ** 3
    with pytest.raises(ValueError):
        resultant_in("t", quad, lin)


def test_mixed_variable_sets_rejected():
    with pytest.raises(ValueError):
        MultiPoly.variable(V, "x") + MultiPoly.variable(("a", "b"), "a")


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
    assert str(MultiPoly.constant(T_FORM_VARS, -1)) == "-1"
    form = MultiPoly.from_spec(("x", "y"), [(F(-2, 3), {"x": 2, "y": 1}), (1, {"y": 3}), (-1, {})])
    assert str(form) == "-2/3*x^2*y + y^3 - 1"
