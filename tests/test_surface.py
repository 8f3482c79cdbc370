"""Surface membership, t recovery, lines, rational curves, elimination."""

import gc
import json
import random
from fractions import Fraction as F

import pytest

from quintic_trinomials.surface import (SURFACE_FORM, on_surface, recover_t, t_parts,
                                        rational_curve, line_point, consistency_with_curve,
                                        eliminate_t_from_curve_forms,
                                        LINE_NAMES, CURVE_NAMES, LINE_T_VALUES)
from quintic_trinomials import cli, report, surface
from quintic_trinomials.curve import CurvePoint, T_FORM_QUADRIC, curve_from_t, point_search

from fraction_reference import CURVES, LINES
from test_multipoly import reference_evaluate


def test_transcription_against_elimination():
    rebuilt = eliminate_t_from_curve_forms()
    ratio = rebuilt.proportionality(SURFACE_FORM)
    assert ratio is not None
    assert len(SURFACE_FORM.terms) == 30
    assert {sum(e) for e in SURFACE_FORM.terms} == {6}


def test_membership_anchors():
    assert on_surface(CurvePoint.from_rationals((10, 1, F(-3, 5), 0)))
    assert on_surface(CurvePoint.from_rationals((0, 0, 1, 1)))
    assert not on_surface(CurvePoint((1, 1, 1, 1)))


def test_homogeneity():
    rng = random.Random(61)
    for _ in range(25):
        values = {v: F(rng.randint(-9, 9), rng.randint(1, 4)) for v in "abcd"}
        lam = F(rng.randint(1, 9), rng.randint(1, 9))
        scaled = {v: lam * x for v, x in values.items()}
        assert reference_evaluate(SURFACE_FORM, scaled) == lam ** 6 * reference_evaluate(
            SURFACE_FORM, values)


def _criterion_7_samples():
    """The sample points of verify-paper criterion 7, as their parametrizations give them."""
    for name in CURVE_NAMES:
        for k in range(1, 51):
            yield CURVES[name](F(k, 3))
    for name in LINE_NAMES:
        for k in range(1, 51):
            yield LINES[name](F(k), F(k + 1))


def test_membership_agrees_with_reference_near_criterion_7_samples():
    # each sample and its 8 neighbours (one coordinate moved by +-1), at
    # the parametrization's rational coordinates: exact values must match
    # the per-term reference, and membership of the primitive point too
    checked = off = 0
    for coords in _criterion_7_samples():
        for i, shift in [(None, 0)] + [(i, s) for i in range(4) for s in (-1, 1)]:
            moved = [x + shift if j == i else x for j, x in enumerate(coords)]
            if not any(moved):
                continue
            values = dict(zip(surface.SURFACE_VARS, moved))
            expected = reference_evaluate(SURFACE_FORM, values)
            assert on_surface(CurvePoint.from_rationals(moved)) == (expected == 0), moved
            assert i is not None or expected == 0, coords
            checked += 1
            off += expected != 0
    assert checked == 500 * 9 and off > 3000


_PARAMETERS = [F(k, q) for k in range(-12, 13) for q in (1, 2, 3, 7)]


def test_rational_curves_match_the_fraction_parametrizations():
    # negative s and s = 0 included: the integer rows homogenized in (u : w)
    for name in CURVE_NAMES:
        for s in _PARAMETERS:
            assert rational_curve(name, s) == CurvePoint.from_rationals(CURVES[name](s)), (name, s)


def test_lines_match_the_fraction_parametrizations():
    # v = 0 and u = 0 included; u = v = 0 leaves no point on either side
    for name in LINE_NAMES:
        for u in _PARAMETERS[::3]:
            for v in _PARAMETERS[1::5] + [F(0)]:
                if u == v == 0:
                    continue
                expected = CurvePoint.from_rationals(LINES[name](u, v))
                assert line_point(name, u, v) == expected, (name, u, v)
        with pytest.raises(ValueError):
            line_point(name, 0, 0)


def test_lines_vanish_and_recover_annotated_t():
    # along each line the composed form has degree <= 6 in the parameter,
    # so 50 exact zeros prove identical vanishing
    for name in LINE_NAMES:
        for k in range(1, 51):
            pt = line_point(name, F(k), F(k + 1))
            assert on_surface(pt), (name, k)
            if name != "singular":
                assert recover_t(pt) == LINE_T_VALUES[name], (name, k)


def test_singular_line_reports_no_t():
    pt = line_point("singular", 3, 5)
    assert on_surface(pt)
    assert recover_t(pt) is None


def test_rational_curves_vanish():
    # coordinate degree <= 4, so the composed sextic has degree <= 24 in s;
    # vanishing at 50 distinct samples is a complete identity proof
    for name in CURVE_NAMES:
        for k in range(-25, 26):
            if k == 0 and name in ("R4", "R5"):
                continue  # all-zero tuple at s = 0
            pt = rational_curve(name, F(k, 3))
            assert on_surface(pt), (name, k)


def test_rational_curve_anchors():
    assert rational_curve("R4", 1) == CurvePoint((0, 7, -4, -4))
    r3 = rational_curve("R3", 0)
    assert r3 == CurvePoint.from_rationals((1, F(1, 10), F(-4, 25), F(16, 125)))
    assert rational_curve("R5", 2) == CurvePoint.from_rationals((-45, F(-9, 2), 2, 1))


def test_rational_curve_names_and_degenerate_parameter():
    with pytest.raises(ValueError):
        rational_curve("bogus", 1)
    # no rational parameter collapses these parametrizations to all-zero;
    # s = 0 on R4/R5 lands on the surface point (0:0:0:1)
    assert rational_curve("R4", 0) == CurvePoint((0, 0, 0, 1))
    assert on_surface(rational_curve("R4", 0))


def test_recover_t_rejects_off_surface():
    with pytest.raises(ValueError):
        recover_t(CurvePoint((1, 1, 1, 1)))


@pytest.mark.parametrize("coords", [(1, 2, 3), (0, 1, 0, 0, 1)])
def test_points_need_four_coordinates(coords):
    # a 5-tuple must not be silently truncated to its first four coordinates
    with pytest.raises(ValueError, match="need 4 coordinates"):
        on_surface(CurvePoint(coords))
    with pytest.raises(ValueError, match="need 4 coordinates"):
        t_parts(CurvePoint(coords))


def test_search_points_lie_on_surface_with_matching_t():
    checked = 0
    for t, bound in ((F(6, 5), 100), (F(-3125, 20736), 40), (F(7, 3), 40)):
        curve = curve_from_t(t)
        for pt in point_search(curve, bound).points:
            assert on_surface(pt)
            recovered = recover_t(pt)
            if recovered is not None:
                assert recovered == t
                checked += 1
    assert checked >= 1  # the non-base t = 6/5 point carries its t


def test_consistency_with_curve():
    # R1-R3 points with generic t land on the matching curve exactly;
    # R4 and R5 sit where numerator and denominator of t both vanish
    verified = 0
    for name in ("R1", "R2", "R3"):
        for k in range(1, 11):
            pt = rational_curve(name, F(k, 2))
            view = consistency_with_curve(pt, recover_t(pt))
            if view is None:
                continue  # t in {0, infinity, -3125/256}
            t, cpt = view
            assert curve_from_t(t).contains(cpt)
            verified += 1
    assert verified >= 25
    for name in ("R4", "R5"):
        for k in range(1, 11):
            pt = rational_curve(name, F(k, 2))
            assert recover_t(pt) is None and t_parts(pt) == (0, 0)


def _is_the_sextic(table):
    """Whether a table is a view of SURFACE_FORM's own numerators."""
    return type(table) is type({}.items()) and gc.get_referents(table)[0] is SURFACE_FORM.terms


def test_criterion_7_evaluates_the_sextic_once_per_sample(monkeypatch):
    # 250 curve samples and 250 line samples; recover_t checks membership itself,
    # and reads t off the quadric's two t-coefficients; every form is an integer
    # table evaluated by `form_value`
    sextic, evaluations = [], []
    form_value = surface.form_value

    def spy(table, coords):
        (sextic if _is_the_sextic(table) else evaluations).append(coords)
        return form_value(table, coords)

    monkeypatch.setattr(surface, "form_value", spy)
    assert report._c7_surface().passed
    assert len(sextic) == 500
    assert len(evaluations) == 2 * 200  # the t^0 and t^1 tables at the four lines with a t


def test_t_parts_match_the_evaluated_quadric_coefficients():
    # on criterion 7's samples of R1-R5 and of the five lines, t's numerator
    # and denominator are the quadric's t^0 and t^1 coefficients evaluated
    # term by term (the quadric is linear in t: its values at t = 0 and the
    # difference at t = 1); all of R4 and R5 lie in the base locus (0/0)
    points = [rational_curve(name, F(k, 3)) for name in CURVE_NAMES for k in range(1, 51)]
    points += [line_point(name, F(k), F(k + 1)) for name in LINE_NAMES for k in range(1, 51)]
    base_locus = 0
    for pt in points:
        at_0, at_1 = (reference_evaluate(T_FORM_QUADRIC, dict(zip("abcd", pt.coords), t=t))
                      for t in (0, 1))
        minus_num, den = at_0, at_1 - at_0
        assert t_parts(pt) == (-minus_num, den)
        base_locus += t_parts(pt) == (0, 0)
    assert base_locus >= 100


@pytest.mark.parametrize("argv, on_curve", [
    (("curve", "--name", "R1", "--s", "1/2"), True),  # a generic t
    (("check", "--point", "10,1,-3/5,0"), False),  # t = 0
    (("check", "--point", "1,1,1,1"), False),  # off the surface
])
def test_surface_command_evaluates_the_sextic_once(monkeypatch, capsys, argv, on_curve):
    tables = []
    form_value = surface.form_value
    monkeypatch.setattr(surface, "form_value",
                        lambda table, coords: tables.append(table) or form_value(table, coords))
    assert cli.main(["surface", *argv]) == 0
    assert ("on_curve" in json.loads(capsys.readouterr().out)) == on_curve
    assert [_is_the_sextic(table) for table in tables].count(True) == 1


def test_t_zero_line_is_degenerate_for_consistency():
    pt = line_point("t0-a", 2, 3)
    assert consistency_with_curve(pt, recover_t(pt)) is None


def test_broken_invariants_raise_arithmetic_error(monkeypatch):
    class OffCurve:
        def contains(self, point):
            return False

    monkeypatch.setattr(surface, "curve_from_t", lambda t: OffCurve())
    pt = rational_curve("R1", F(1, 2))
    with pytest.raises(ArithmeticError, match="surface-curve invariant broken"):
        consistency_with_curve(pt, recover_t(pt))
    # a resultant over (t, a, b, c, d) with a term free of a
    monkeypatch.setattr(surface, "table_resultant",
                        lambda lead, linear, rest, cubic_in_v: (((0, 0, 1, 0, 0), 1),))
    with pytest.raises(ArithmeticError, match="elimination invariant broken"):
        eliminate_t_from_curve_forms()
