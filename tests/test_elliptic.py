"""Weierstrass invariants and twist identification."""

import random
from fractions import Fraction as F

import pytest

from quintic_trinomials import elliptic
from quintic_trinomials.elliptic import (WeierstrassCurve, E0, E_TWIST_MINUS10,
                                         j_invariant, quadratic_twist,
                                         quadratic_twist_factor, squarefree_class)


def test_j_invariant_anchors():
    assert j_invariant(E0) == F(-25, 2)
    assert j_invariant(WeierstrassCurve.short(1, 0)) == 1728
    assert j_invariant(WeierstrassCurve.short(0, 1)) == 0
    assert j_invariant(E_TWIST_MINUS10) == F(-25, 2)


def test_str_prints_signed_terms():
    assert str(E0) == "y^2 = x^3 - 675*x - 79650"
    assert str(E_TWIST_MINUS10) == "y^2 = x^3 - x^2 - 833*x + 109537"
    assert str(WeierstrassCurve(-1, 0, -1, 1, 1)) == "y^2 - x*y - y = x^3 + x + 1"
    assert str(WeierstrassCurve(F(1, 2), F(-2, 3), 3)) == "y^2 + 1/2*x*y + 3*y = x^3 - 2/3*x^2"


def test_singular_curve_rejected():
    with pytest.raises(ValueError):
        WeierstrassCurve.short(0, 0)
    with pytest.raises(ValueError):
        WeierstrassCurve.short(-3, 2)  # x^3 - 3x + 2 = (x-1)^2 (x+2)


def test_twist_factor_anchors():
    assert quadratic_twist_factor(E0, E0) == 1
    assert quadratic_twist_factor(E0, E_TWIST_MINUS10) == -10
    other = WeierstrassCurve.short(-20, 30)  # j generic, different from E0's
    assert j_invariant(other) != j_invariant(E0)
    assert quadratic_twist_factor(E0, other) is None


def test_twist_factor_unsupported_j():
    with pytest.raises(ValueError):
        quadratic_twist_factor(E0, WeierstrassCurve.short(1, 0))
    with pytest.raises(ValueError):
        quadratic_twist_factor(WeierstrassCurve.short(0, 1), E0)


def test_twist_roundtrip_random_d():
    rng = random.Random(71)
    for _ in range(20):
        d = 0
        while d in (0,):
            d = rng.randint(-30, 30)
        twisted = quadratic_twist(E0, F(d))
        assert j_invariant(twisted) == j_invariant(E0)
        assert quadratic_twist_factor(E0, twisted) == squarefree_class(F(d))


def test_squarefree_class():
    assert squarefree_class(F(-10, 9)) == -10
    assert squarefree_class(F(4)) == 1
    assert squarefree_class(F(12)) == 3
    assert squarefree_class(F(1, 2)) == 2
    with pytest.raises(ValueError):
        squarefree_class(F(0))


def test_j_invariant_stable_under_twist():
    rng = random.Random(73)
    curve = WeierstrassCurve(1, -2, 3, -4, 6)
    for _ in range(10):
        d = rng.choice([-15, -10, -6, -2, -1, 2, 3, 5, 7, 11])
        assert j_invariant(quadratic_twist(curve, F(d))) == j_invariant(curve)


def test_long_form_invariants():
    curve = E_TWIST_MINUS10
    assert curve.c4 == 40000
    assert curve.c6 == -94400000
    assert curve.discriminant != 0


def test_broken_twist_invariant_raises_arithmetic_error(monkeypatch):
    monkeypatch.setattr(elliptic, "is_isomorphic_over_Q", lambda e1, e2: False)
    with pytest.raises(ArithmeticError, match="twist invariant broken"):
        quadratic_twist_factor(E0, E_TWIST_MINUS10)
