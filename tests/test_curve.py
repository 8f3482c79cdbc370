"""Curve construction, point search, and the point/trinomial dictionary."""

import functools
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from quintic_trinomials.qpoly import UniPoly, is_rational_square
from quintic_trinomials.factor import factor_over_Q
from quintic_trinomials.multipoly import MultiPoly
from quintic_trinomials.numberfield import NumberField, charpoly_mod, has_root_in_field
from quintic_trinomials.trinomial import EquivClass
from quintic_trinomials import curve as curve_module
from quintic_trinomials.curve import (CurvePoint, GeneralCurve, TrinomialCurve, curve_from_t,
                                      curve_from_field, point_search, general_point_search,
                                      point_to_trinomial, trinomial_to_point,
                                      field_L_polynomial, CURVE_VARS, FULL_VARS, MAX_HEIGHT_BOUND,
                                      SearchResult, _search_chunk,
                                      _search_forms, _sieve_tables, worker_count, _MODULI,
                                      _OFFSETS, _Sieve, _packed_rows)

from qpoly_reference import power_sums
from test_multipoly import reference_evaluate

T65 = F(6, 5)


def _on_curve(curve, coords):
    """Membership by per-term Fraction evaluation, independent of the integer
    tables that `contains` and the search engine share."""
    forms = ((curve.linear, curve.quadric, curve.cubic) if isinstance(curve, GeneralCurve)
             else (curve.quadric, curve.cubic))
    values = dict(zip(curve.quadric.vars, coords))
    return all(reference_evaluate(form, values) == 0 for form in forms)


def _full_coords(curve, live):
    """A general curve's five coordinates from its live ones: the eliminated
    one from the trace condition."""
    values = {**live, curve.eliminated: 0}
    values[curve.eliminated] = reference_evaluate(curve.elimination_expr, values)
    return tuple(values[v] for v in FULL_VARS)


def test_curve_point_normalization():
    pt = CurvePoint.from_rationals((F(-168, 55), F(9, 11), F(19, 11), 1))
    assert pt.coords == (168, -45, -95, -55)
    assert pt.height == 168
    assert CurvePoint.from_rationals((0, 3, 0, 0)).coords == (0, 1, 0, 0)
    with pytest.raises(ValueError):
        CurvePoint.from_rationals((0, 0, 0, 0))


def test_curve_from_t_quadric_coefficients():
    curve = curve_from_t(T65)
    expected = MultiPoly.from_spec(("a", "b", "c", "d"), [
        (-5, {"a": 2}), (50, {"a": 1, "b": 1}), (F(192, 5), {"b": 1, "d": 1}),
        (F(96, 5), {"c": 2}), (48, {"c": 1, "d": 1})])
    assert curve.quadric == expected
    # an independent transcription of the cubic at t = 6/5, since curve_from_t
    # reads the shared t-forms
    expected_cubic = MultiPoly.from_spec(("a", "b", "c", "d"), [
        (-10, {"a": 3}), (25, {"a": 2, "b": 1}), (-125, {"a": 2, "c": 1}),
        (-192, {"a": 1, "c": 1, "d": 1}), (-120, {"a": 1, "d": 2}),
        (F(384, 5), {"b": 2, "c": 1}), (96, {"b": 2, "d": 1}), (96, {"b": 1, "c": 2}),
        (F(-2304, 25), {"c": 1, "d": 2}), (F(-1728, 25), {"d": 3})])
    assert curve.cubic == expected_cubic


def test_base_point_on_every_t_form_curve():
    base = CurvePoint((0, 1, 0, 0))
    for t in (T65, F(2), F(-3125, 20736), F(7, 3)):
        assert curve_from_t(t).contains(base)


def test_excluded_parameters():
    with pytest.raises(ValueError):
        curve_from_t(0)
    with pytest.raises(ValueError):
        curve_from_t(F(-3125, 256))


def test_known_points_on_t65_curve():
    curve = curve_from_t(T65)
    for coords in ((F(-168, 55), F(9, 11), F(19, 11), 1),
                   (F(36, 35), F(-30, 7), F(24, 7), 1),
                   (F(-22, 15), F(-7, 6), F(-5, 4), 1),
                   (F(-8, 65), F(20, 39), F(-16, 39), 1)):
        assert curve.contains(CurvePoint.from_rationals(coords))


def test_point_search_small_heights():
    curve = curve_from_t(T65)
    assert [pt.coords for pt in point_search(curve, 1).points] == [(0, 1, 0, 0)]
    res = point_search(curve, 100)
    assert {pt.coords for pt in res.points} == {(0, 1, 0, 0), (88, 70, 75, -60)}
    assert res.degenerate == ()


def _partition_searches():
    # T65 has small coefficients, the large t coefficients above 2^63; the
    # pure field's quadric is linear in the solved variable, and the dense
    # field's discriminant has a b*c term
    searches = [(curve_from_t(t), 40, lambda c, H: point_search(c, H).points)
                for t in (T65, F(2 ** 66 + 1, 7))]
    searches += [(curve_from_field(UniPoly(g)), 6, general_point_search)
                 for g in ([-18, 0, 0, 0, 0, 1], [-20, 5, -5, -10, -5, 1])]
    return searches


def _sieve(curve, H):
    forms = _search_forms(curve)
    return _Sieve(forms, H, _packed_rows(forms, H))


def _pieces(H):
    return (0, 1), (1, H // 3), (H // 3, H), (H, H + 1)


def test_point_search_partition_invariance():
    for curve, H, search in _partition_searches():
        sieve = _sieve(curve, H)
        full = _search_chunk(sieve, 0, H + 1)
        pieces = set()
        for lo, hi in _pieces(H):
            pieces |= _search_chunk(sieve, lo, hi)
        assert pieces == full
        assert full == set(search(curve, H))


@pytest.mark.parametrize("tile_rows", [1, 7])
def test_search_chunk_is_tile_invariant(monkeypatch, tile_rows):
    # tiles of 1 and 7 rows cut slices at every row and mid-slice.  At H = 88 the
    # point (88 : 70 : 75 : -60) of T65 has no multiple in the box, and its
    # cell lies in the middle of a slice (run with 7-row tiles only, for time).
    searches = [(curve, H) for curve, H, _ in _partition_searches()]
    if tile_rows > 1:
        searches.append((curve_from_t(T65), 88))
    for curve, H in searches:
        sieve = _sieve(curve, H)
        expected = [_search_chunk(sieve, lo, hi) for lo, hi in ((0, H + 1), *_pieces(H))]
        words = sieve.rows.shape[1]
        with monkeypatch.context() as patch:
            patch.setattr(curve_module, "_TILE_BYTES", tile_rows * 8 * len(_MODULI) * words)
            tiled = _sieve(curve, H)
            assert np.array_equal(tiled.rows, sieve.rows)
            got = [_search_chunk(tiled, lo, hi) for lo, hi in ((0, H + 1), *_pieces(H))]
        assert got == expected
        assert H != 88 or CurvePoint((88, 70, 75, -60)) in expected[0]


@pytest.fixture
def pooled(monkeypatch):
    # a box of any size pays for workers, so jobs >= 2 runs the pool path
    monkeypatch.setattr(curve_module, "_CELLS_PER_WORKER", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def test_point_search_parallel_matches_serial(pooled):
    curve = curve_from_t(T65)
    serial = point_search(curve, 60)
    parallel = point_search(curve, 60, jobs=2)
    assert serial == parallel


class _Refused(Exception):
    pass


def _refusing_pool(sizes):
    """A stand-in for ProcessPoolExecutor that records max_workers and starts nothing."""
    def pool(*args, max_workers, **kwargs):
        sizes.append(max_workers)
        raise _Refused
    return pool


def test_search_below_the_box_threshold_starts_no_pool(monkeypatch):
    sizes = []
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(curve_module, "ProcessPoolExecutor", _refusing_pool(sizes))
    curve = curve_from_t(T65)
    assert point_search(curve, 200, jobs=2) == point_search(curve, 200)
    assert sizes == []


def _half_box(H):
    return (H + 1) * (2 * H + 1) ** 2


@pytest.mark.parametrize("jobs, cpus, H, cells_per_worker, workers", [
    (8, 3, 5, 1, 3),  # the CPU count binds
    (2, 3, 5, 1, 2),  # jobs binds
    (8, 3, 1, 1, 2),  # two slices, so two chunks
    (8, 3, 20, _half_box(20) - 1, 3),  # a box just above the threshold: a full pool
    (8, 3, 20, _half_box(20), 1),  # a box at the threshold: no pool
])
def test_pool_size_is_the_least_of_jobs_cpus_and_chunks_above_the_box_threshold(
        monkeypatch, jobs, cpus, H, cells_per_worker, workers):
    sizes = []
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(curve_module, "_CELLS_PER_WORKER", cells_per_worker)
    monkeypatch.setattr(curve_module, "ProcessPoolExecutor", _refusing_pool(sizes))
    curve = curve_from_t(T65)
    if workers == 1:
        assert point_search(curve, H, jobs=jobs) == point_search(curve, H)
    else:
        with pytest.raises(_Refused):
            point_search(curve, H, jobs=jobs)
    assert sizes == ([workers] if workers > 1 else [])


def test_point_search_python_path_on_large_t():
    # a t whose cleared cubic has coefficients above 2^63
    t = F(123456789012345, 987654321098765)
    curve = curve_from_t(t)
    res = point_search(curve, 2)
    assert (0, 1, 0, 0) in {pt.coords for pt in res.points}


def _line_curve(cubic_spec):
    """A curve with quadric a b + c d: the engine solves it for a, linear in
    a, and the quadric vanishes on the lines of the cells (0, c, 0) and
    (0, 0, d), where the engine takes the points from the cubic alone."""
    quadric = MultiPoly.from_spec(CURVE_VARS, [(1, {"a": 1, "b": 1}), (1, {"c": 1, "d": 1})])
    return TrinomialCurve(t=F(1), quadric=quadric, cubic=MultiPoly.from_spec(CURVE_VARS, cubic_spec))


def _brute_force_points(curve, H):
    """Every nonzero (a, b, c, d) in [-H, H]^4 on both forms, normalized."""
    found = set()
    for coords in itertools.product(range(-H, H + 1), repeat=4):
        if any(coords) and _on_curve(curve, coords):
            found.add(CurvePoint.from_integers(coords))
    return found


def test_search_finds_the_rational_roots_of_the_cubic_on_a_line_of_the_quadric():
    # the cubic is (2a - 3c)(a^2 + c^2) on b = d = 0, with the root a / c = 3 / 2,
    # and 2a^3 + 5d^3, without a rational root, on b = c = 0
    curve = _line_curve([
        (2, {"a": 3}), (-3, {"a": 2, "c": 1}), (2, {"a": 1, "c": 2}), (-3, {"c": 3}),
        (1, {"b": 2, "d": 1}), (5, {"d": 3}), (-1, {"a": 1, "b": 1, "c": 1})])
    result = point_search(curve, 3)
    assert set(result.points + result.degenerate) == _brute_force_points(curve, 3)
    assert CurvePoint((3, 0, 2, 0)) in result.points


# (a + b)^2 and b^3 + c^2 d
_DOUBLE_PLANE_SPECS = ([(1, {"a": 2}), (2, {"a": 1, "b": 1}), (1, {"b": 2})],
                       [(1, {"b": 3}), (1, {"c": 2, "d": 1})])
_DOUBLE_PLANE_SEARCH = f"""
import json, sys
from fractions import Fraction
from quintic_trinomials.curve import CURVE_VARS, TrinomialCurve, point_search
from quintic_trinomials.multipoly import MultiPoly
quadric, cubic = (MultiPoly.from_spec(CURVE_VARS, spec) for spec in {_DOUBLE_PLANE_SPECS!r})
result = point_search(TrinomialCurve(t=Fraction(1), quadric=quadric, cubic=cubic), 4)
print(json.dumps([pt.coords for pt in result.points + result.degenerate]))
"""


def test_search_of_a_double_plane_quadric_terminates_with_its_points():
    # the quadric (a + b)^2 has discriminant 0 in a at every cell, one root
    # a = -b and no content to take square factors from.  The search runs in
    # a child under a timeout, as a hang would stop the whole test run.
    src = Path(curve_module.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _DOUBLE_PLANE_SEARCH], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    found = {CurvePoint(tuple(coords)) for coords in json.loads(proc.stdout)}
    quadric, cubic = (MultiPoly.from_spec(CURVE_VARS, spec) for spec in _DOUBLE_PLANE_SPECS)
    curve = TrinomialCurve(t=F(1), quadric=quadric, cubic=cubic)
    assert found == _brute_force_points(curve, 4) == {
        CurvePoint(c) for c in ((0, 0, 0, 1), (0, 0, 1, 0), (1, -1, 1, 1), (1, -1, -1, 1))}


def test_search_finds_every_point_of_a_line_on_the_curve():
    # b (a^2 + c^2) + d (ac - 2b^2) vanishes on both lines b = d = 0 and
    # b = c = 0, so every point (p : 0 : q : 0) and (p : 0 : 0 : q) in the box
    # lies on the curve
    curve = _line_curve([(1, {"a": 2, "b": 1}), (1, {"b": 1, "c": 2}),
                         (1, {"a": 1, "c": 1, "d": 1}), (-2, {"b": 2, "d": 1})])
    result = point_search(curve, 3)
    found = set(result.points + result.degenerate)
    assert found == _brute_force_points(curve, 3)
    assert len(found) == 34


def test_search_confirms_each_primitive_cell_once(monkeypatch):
    # of the 440 sieve survivors of t = 6/5 at H = 200 only the primitive
    # cells of the half box are confirmed, each once
    H, cells = 200, []
    confirm = curve_module._confirm

    def spy(forms, height_bound, cell, out):
        cells.append(cell)
        confirm(forms, height_bound, cell, out)

    monkeypatch.setattr(curve_module, "_confirm", spy)
    result = point_search(curve_from_t(T65), H)
    assert {pt.coords for pt in result.points} == {
        (0, 1, 0, 0), (168, -45, -95, -55), (36, -150, 120, 35), (88, 70, 75, -60),
        (24, -100, 80, -195)}
    assert 0 < len(cells) <= 20
    assert len(set(cells)) == len(cells)
    for x, y, z in cells:
        assert math.gcd(x, y, z) == 1
        assert max(map(abs, (x, y, z))) <= H
        assert z > 0 or y > 0 or (y == 0 and x > 0)


def _split_live(curve):
    """The cleared quadric and cubic, the variable v that the engine solves
    for (the first live one with a square term, else of degree 1), and the
    other live variables, enumerated as (x, y, z)."""
    quadric, cubic = (f * math.lcm(*(k.denominator for k in f.terms.values()))
                      for f in (curve.quadric, curve.cubic))
    live = curve.live_vars if isinstance(curve, GeneralCurve) else quadric.vars
    v = (next((n for n in live if quadric.coefficient_of(n, 2)), None)
         or next(n for n in live if quadric.degree_in(n) == 1))
    return quadric, cubic, v, [n for n in live if n != v]


def _sympy_sieve_forms(curve):
    """The discriminant of the quadric in v and the primitive part of
    Res_v(quadric, cubic), both computed by sympy, as polynomials in (x, y, z)."""
    sympy = pytest.importorskip("sympy")
    quadric, cubic, v, others = _split_live(curve)
    symbols = dict(zip(quadric.vars, sympy.symbols(quadric.vars)))

    def expression(form):
        return sum(int(k) * sympy.prod([symbols[n] ** e for n, e in zip(form.vars, exps)])
                   for exps, k in form.terms.items())

    q, c = expression(quadric), expression(cubic)
    c2, c1, c0 = (sympy.expand(q).coeff(symbols[v], n) for n in (2, 1, 0))
    gens = [symbols[n] for n in others]
    disc = sympy.Poly(sympy.expand(c1 * c1 - 4 * c2 * c0), *gens)
    _, resultant = sympy.Poly(sympy.resultant(q, c, symbols[v]), *gens).primitive()
    return disc, resultant


def _residues(poly, m, x, y, z):
    return sum(int(k) % m * x ** i * y ** j * z ** l for (i, j, l), k in poly.terms()) % m


def _random_curve(rng, bits):
    """Every monomial of degree 2 and 3 in (a, b, c, d) with random
    coefficients of `bits` bits, as a quadric and a cubic; the engine reads
    only the two forms of a TrinomialCurve."""
    def form(degree):
        return MultiPoly(CURVE_VARS, {e: rng.choice((-1, 1)) * rng.randrange(2 ** (bits - 1), 2 ** bits)
                                      for e in itertools.product(range(degree + 1), repeat=4)
                                      if sum(e) == degree})
    return TrinomialCurve(t=F(1), quadric=form(2), cubic=form(3))


def _sieve_curves():
    # a b*c term in the discriminant, the paper's curve, coefficients above
    # 2^70, and a quadric linear in v (lead = 0) whose cubic has no v^3 term
    return [curve_from_field(UniPoly([-20, 5, -5, -10, -5, 1])), curve_from_t(T65),
            _random_curve(random.Random(5), 72), curve_from_field(UniPoly([-18, 0, 0, 0, 0, 1]))]


def _oracle(curve):
    """The predicate of the sieve, from sympy: at residue arrays (x, y, z),
    disc / root_scale^2 is a square mod m and the primitive resultant
    vanishes mod m."""
    disc, resultant = _sympy_sieve_forms(curve)
    disc = disc.exquo_ground(_search_forms(curve).root_scale ** 2)

    def passes(m, x, y, z):
        squares = list({r * r % m for r in range(m)})
        return (np.isin(_residues(disc, m, x, y, z), squares)
                & (_residues(resultant, m, x, y, z) == 0))
    return passes


def test_sieve_tables_match_the_resultant_oracle():
    # the table entry of a residue triple is True exactly when the cell passes
    # both tests of the oracle; every layer r < m is built at height 200
    for curve in _sieve_curves():
        forms, passes = _search_forms(curve), _oracle(curve)
        assert forms.resultant
        for m, table in zip(_MODULI, _sieve_tables(forms, 200)):
            assert table.shape == (m, m, m)
            r, x, y = np.meshgrid(*[np.arange(m)] * 3, indexing="ij")
            assert (table == passes(m, x, y, r)).all()


@pytest.mark.parametrize("H", [31, 70])
def test_packed_rows_match_the_resultant_oracle(H):
    # bit y + H of the row (r, a) of modulus m is set exactly when the cell
    # (a, y, r) passes the oracle mod m, for every z residue r <= H (r > m / 2
    # included) and every x residue a; the bits past column 2H are zero.
    # 2H + 1 = 63 and 141 leave 1 and 51 padding bits.
    width = 2 * H + 1
    for curve in _sieve_curves():
        rows, passes = _packed_rows(_search_forms(curve), H), _oracle(curve)
        bits = np.unpackbits(rows.astype("<u8").view(np.uint8), axis=1, bitorder="little")
        assert not bits[:, width:].any()
        for m, start in zip(_MODULI, itertools.accumulate((m * m for m in _MODULI), initial=0)):
            layers = min(m, H + 1)
            r, a, y = np.meshgrid(np.arange(layers), np.arange(m), np.arange(-H, H + 1) % m,
                                  indexing="ij")
            got = bits[start:start + layers * m, :width].reshape(layers, m, width)
            assert (got == passes(m, a, y, r)).all()


@functools.lru_cache(maxsize=None)
def _general_points(g, H):
    return general_point_search(curve_from_field(UniPoly(list(g))), H)


def _passes_rows(rows, H, cell):
    x, y, z = cell
    return all(rows[_OFFSETS[k] + z % m * m + x % m, (y + H) // 64] >> np.uint64((y + H) % 64) & 1
               for k, m in enumerate(_MODULI))


@pytest.mark.parametrize("source, H, count", [
    (T65, 200, 5), (F(-3125, 20736), 200, 1),
    ((-18, 0, 0, 0, 0, 1), 100, 5), ((105, 75, 0, 0, 0, 1), 800, 7)])
def test_sieve_drops_no_cell_of_a_found_point(source, H, count):
    # the cell of every point found, and every multiple of it in the box,
    # passes the packed rows: the sieve never rejects a cell of a point
    general = isinstance(source, tuple)
    curve = curve_from_field(UniPoly(list(source))) if general else curve_from_t(source)
    points = _general_points(source, H) if general else point_search(curve, H).points
    forms = _search_forms(curve)
    assert forms.resultant
    rows = _packed_rows(forms, H)
    others = _split_live(curve)[3]
    names = FULL_VARS if general else CURVE_VARS
    assert len(points) == count
    for pt in points:
        values = dict(zip(names, pt.coords))
        cell = [values[n] for n in others]
        g = math.gcd(*cell)
        if not g:
            continue  # the unit point of v, checked apart from the sieve
        cell = [w // g if cell[2] >= 0 else -w // g for w in cell]
        for k in range(1, H // max(map(abs, cell)) + 1):
            # the slice z = 0 holds both signs of a cell
            for multiple in ((k, -k) if cell[2] == 0 else (k,)):
                assert _passes_rows(rows, H, [multiple * w for w in cell]), (pt, multiple)


def test_general_search_finds_the_seven_classes_of_x5_75x_105_below_800():
    # the eight classes of x^5 + 75x + 105 have points of height 1, 180, 195,
    # 240, 240, 660, 780 and 3180; H = 800 finds the first seven
    points = _general_points((105, 75, 0, 0, 0, 1), 800)
    assert [pt.height for pt in points] == [1, 180, 195, 240, 240, 660, 780]
    assert [pt.coords for pt in points] == [
        (0, 1, 0, 0, 0), (180, -42, 24, -25, 3), (180, 195, -55, -25, 3), (240, -135, 32, -7, 4),
        (240, 23, 32, -7, 4), (660, -75, 9, -39, 11), (780, -24, -54, -3, 13)]
    assert [pt.coords for pt in _general_points((-18, 0, 0, 0, 0, 1), 100)] == [
        (0, 0, 0, 0, 1), (0, 0, 0, 1, 0), (0, 0, 1, 0, 0), (0, 1, 0, 0, 0), (0, 3, -3, 1, 1)]


def test_worker_count_is_capped(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert worker_count(10 ** 9, 201) == 2
    assert worker_count(8, 1) == 1
    assert worker_count(1, 4) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count(4, 16) == 1


def _reference_search(curve, H):
    """Brute force in Fractions: the half box of (b, c, d), the quadric solved
    exactly for a, then normalization, the height bound and both forms."""
    found = set()
    for d in range(0, H + 1):
        for c in range(0 if d == 0 else -H, H + 1):
            for b in range(0 if d == c == 0 else -H, H + 1):
                coeff = [F(0), F(0), F(0)]
                for (ea, eb, ec, ed), k in curve.quadric.terms.items():
                    coeff[ea] += k * b ** eb * c ** ec * d ** ed
                c0, c1, c2 = coeff
                disc = c1 * c1 - 4 * c2 * c0
                if disc < 0 or not is_rational_square(disc):
                    continue
                s = F(math.isqrt(disc.numerator), math.isqrt(disc.denominator))
                for a in ((-c1 + s) / (2 * c2), (-c1 - s) / (2 * c2)):
                    try:
                        pt = CurvePoint.from_rationals((a, b, c, d))
                    except ValueError:
                        continue
                    if pt.height <= H and _on_curve(curve, pt.coords):
                        found.add(pt)
    degenerate = {pt for pt in found if not any(pt.coords[1:])}
    key = lambda pt: (pt.height, pt.coords)
    return SearchResult(points=tuple(sorted(found - degenerate, key=key)),
                        degenerate=tuple(sorted(degenerate, key=key)), height_bound=H)


@pytest.mark.parametrize("t, H, jobs", [
    (T65, 12, 1), (F(-3125, 20736), 10, 1), (F(7, 3), 10, 1), (F(-1), 10, 1),
    (F(2 ** 66 + 1, 7), 10, 1), (F(3, 2 ** 44 + 5), 10, 1), (F(2 ** 66 + 1, 7), 8, 2),
])
def test_point_search_matches_fraction_reference(pooled, t, H, jobs):
    curve = curve_from_t(t)
    assert point_search(curve, H, jobs=jobs) == _reference_search(curve, H)


@settings(max_examples=25, deadline=None)
@given(p=st.integers(-60, 60).filter(bool), q=st.integers(1, 300), H=st.integers(1, 8))
def test_point_search_points_are_normalized_curve_points(p, q, H):
    curve = curve_from_t(F(p, q))  # |p| <= 60 never gives the excluded -3125/256
    for pt in point_search(curve, H).points:
        assert math.gcd(*pt.coords) == 1
        assert next(v for v in pt.coords if v) > 0
        assert pt.height <= H
        assert _on_curve(curve, pt.coords)
        point_to_trinomial(curve, pt)


def _unsieved_reference(curve, H):
    """Brute force without a sieve: the quadric is solved for its first live
    variable with a square term at every cell of the other three in
    [-H, H]^3, with an exact perfect-square test of the integer
    discriminant on all cells; the roots are taken in Fractions, normalized,
    and checked against the height bound and every form of the curve.  Only
    for curves whose discriminant stays below 2^61 on the box."""
    general = isinstance(curve, GeneralCurve)
    live = curve.live_vars if general else curve.quadric.vars
    v = next(n for n in live if curve.quadric.coefficient_of(n, 2))
    others = [n for n in live if n != v]
    quadric = curve.quadric * math.lcm(*(k.denominator for k in curve.quadric.terms.values()))
    grid = dict(zip(others, np.meshgrid(*[np.arange(-H, H + 1)] * 3, indexing="ij")))
    coeffs, sizes = [], []
    for n in range(3):
        terms = quadric.coefficient_of(v, n).terms.items()
        sizes.append(sum(abs(int(k)) for _, k in terms) * H ** (2 - n))
        coeff = np.zeros_like(grid[others[0]])
        for e, k in terms:
            coeff = coeff + int(k) * math.prod(grid[name] ** x for name, x in zip(quadric.vars, e)
                                               if x and name != v)
        coeffs.append(coeff)
    assert sizes[1] ** 2 + 4 * sizes[2] * sizes[0] < 2 ** 61
    c0, c1, c2 = coeffs
    disc = c1 * c1 - 4 * c2 * c0
    # below 2^61 the float root is off by less than 1: n^2 = disc for n = root or root + 1
    root = np.floor(np.sqrt(np.maximum(disc, 0))).astype(np.int64)
    root += (root + 1) ** 2 <= disc
    found = set()
    for i in np.flatnonzero((disc >= 0) & (root * root == disc)):
        cell = {name: F(int(grid[name].flat[i])) for name in others}
        b, a, s = int(c1.flat[i]), int(c2.flat[i]), int(root.flat[i])
        for value in (F(-b + s, 2 * a), F(-b - s, 2 * a)):
            values = {**cell, v: value}
            coords = (_full_coords(curve, values) if general
                      else tuple(values[name] for name in curve.quadric.vars))
            if any(coords):
                pt = CurvePoint.from_rationals(coords)
                if pt.height <= H and _on_curve(curve, pt.coords):
                    found.add(pt)
    return found


def test_unsieved_reference_matches_the_fraction_references():
    for t in (F(19, 14), T65):
        curve = curve_from_t(t)
        expected = _reference_search(curve, 6)
        assert _unsieved_reference(curve, 6) == set(expected.points + expected.degenerate)
    curve = curve_from_field(UniPoly([-20, 5, -5, -10, -5, 1]))
    assert _unsieved_reference(curve, 3) == set(_general_reference(curve, 3))


@pytest.mark.parametrize("H", [31, 32, 63, 64])
def test_searches_match_reference_across_word_boundaries(H):
    # 2H + 1 = 63, 65, 127, 129: one column short of, or one past, a 64-bit word
    curve = curve_from_t(F(19, 14))
    result = point_search(curve, H)
    assert set(result.points + result.degenerate) == _unsieved_reference(curve, H)
    assert result.points and not result.degenerate
    curve = curve_from_field(UniPoly([-20, 5, -5, -10, -5, 1]))
    expected = sorted(_unsieved_reference(curve, H), key=lambda pt: (pt.height, pt.coords))
    assert general_point_search(curve, H) == expected


def test_point_to_trinomial_base_point():
    curve = curve_from_t(T65)
    image = point_to_trinomial(curve, CurvePoint((0, 1, 0, 0)))
    assert image.trinomial.a == T65 and image.trinomial.b == T65
    assert image.cls == EquivClass("generic", T65)
    assert image.rho == (T65 ** 5, T65 ** 4)


def test_point_to_trinomial_classified_points():
    curve = curve_from_t(T65)
    cases = [
        ((F(-168, 55), F(9, 11), F(19, 11), 1), EquivClass("pure", F(18))),
        ((F(36, 35), F(-30, 7), F(24, 7), 1), EquivClass("pure", F(432))),
        ((F(-22, 15), F(-7, 6), F(-5, 4), 1), EquivClass("pure", F(324))),
        ((F(-8, 65), F(20, 39), F(-16, 39), 1), EquivClass("pure", F(24))),
    ]
    for coords, expected in cases:
        image = point_to_trinomial(curve, CurvePoint.from_rationals(coords))
        assert image.cls == expected
        assert image.char_poly[2] == image.char_poly[3] == image.char_poly[4] == 0


def test_point_class_invariant_under_rescaling():
    curve = curve_from_t(T65)
    base = (F(-168, 55), F(9, 11), F(19, 11), 1)
    scaled = tuple(F(7, 3) * v for v in base)
    a = point_to_trinomial(curve, CurvePoint.from_rationals(base)).cls
    b = point_to_trinomial(curve, CurvePoint.from_rationals(scaled)).cls
    assert a == b


def test_trinomial_to_point_roundtrip():
    curve = curve_from_t(T65)
    field = curve.field
    res = has_root_in_field(UniPoly([-324, 0, 0, 0, 0, 1]), field)
    assert res.certified
    pt = trinomial_to_point(curve, res.witness)
    expected = CurvePoint.from_rationals((F(-22, 15), F(-7, 6), F(-5, 4), 1))
    assert pt == expected
    # roundtrip preserves the class
    assert point_to_trinomial(curve, pt).cls == EquivClass("pure", F(324))


def test_trinomial_to_point_generator_and_scaling():
    curve = curve_from_t(T65)
    field = curve.field
    assert trinomial_to_point(curve, field.generator).coords == (0, 1, 0, 0)
    assert trinomial_to_point(curve, field.generator * 2).coords == (0, 1, 0, 0)


def test_trinomial_to_point_rejects_non_trinomial_shape():
    curve = curve_from_t(T65)
    beta = curve.field.element((1, 1, 0, 0, 0))
    with pytest.raises(ValueError):
        trinomial_to_point(curve, beta)


def test_field_L_polynomial():
    assert field_L_polynomial(1) == UniPoly([-1, 4, -4, 0, 0, -11, -3, 0, 0, 0, 1])
    t = T65
    ell = field_L_polynomial(t)
    assert ell.degree == 10 and ell.lc == 1
    assert ell[6] == -3 * t and ell[5] == -11 * t
    assert ell[2] == -4 * t ** 2 and ell[1] == 4 * t ** 2 and ell[0] == -t ** 2
    with pytest.raises(ValueError):
        field_L_polynomial(0)


def _lift(form4):
    return MultiPoly(FULL_VARS, {e + (0,): c for e, c in form4.terms.items()})


def test_general_construction_matches_t_form():
    # same quadric up to scale, and cubics that agree modulo it: their
    # remainders on division by the quadric (lex order, sympy) are proportional
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(FULL_VARS)

    def expression(form):
        return sympy.Poly.from_dict({e: sympy.Rational(c.numerator, c.denominator)
                                     for e, c in form.terms.items()}, *gens).as_expr()

    for t in (F(2), T65):
        curve_t = curve_from_t(t)
        general = curve_from_field(UniPoly([t, t, 0, 0, 0, 1]), eliminate="e")
        ratio_q = general.quadric.proportionality(_lift(curve_t.quadric))
        assert ratio_q is not None
        quadric = expression(general.quadric)
        rem_general, rem_t = (sympy.reduced(expression(cubic), [quadric], *gens, order="lex")[1]
                              for cubic in (general.cubic, _lift(curve_t.cubic)))
        ratio = sympy.cancel(rem_general / rem_t)
        assert ratio.is_Rational and ratio != 0


def test_general_construction_auto_elimination():
    assert curve_from_field(UniPoly([2, 2, 0, 0, 0, 1])).eliminated == "e"
    assert curve_from_field(UniPoly([105, 75, 0, 0, 0, 1])).eliminated == "e"
    pure = curve_from_field(UniPoly([-18, 0, 0, 0, 0, 1]))
    assert pure.eliminated == "a"
    assert pure.linear.proportionality(MultiPoly.variable(FULL_VARS, "a")) is not None


def test_general_forms_are_charpoly_coefficients_on_the_trace_hyperplane():
    rng = random.Random(7)
    fields = [UniPoly([-18, 0, 0, 0, 0, 1]), UniPoly([105, 75, 0, 0, 0, 1]),
              UniPoly([T65, T65, 0, 0, 0, 1]), UniPoly([F(1, 2), F(3, 7), -2, 0, F(5, 3), 1])]
    for g in fields:
        for eliminate in (None, "a"):
            curve = curve_from_field(g, eliminate=eliminate)
            for _ in range(5):
                live = {v: F(rng.randint(-9, 9), rng.randint(1, 4)) for v in curve.live_vars}
                coords = _full_coords(curve, live)
                values = dict(zip(FULL_VARS, coords))
                cp = charpoly_mod(g, coords)
                assert cp[4] == 0
                assert reference_evaluate(curve.quadric, values) == cp[3]
                assert reference_evaluate(curve.cubic, values) == cp[2]


def test_general_construction_rejects_reducible():
    with pytest.raises(ValueError):
        curve_from_field(UniPoly([1, 1, 0, 0, 0, 1]))
    # an unknown variable to eliminate is bad input too, and the error names a-e
    with pytest.raises(ValueError, match="a, b, c, d, e"):
        curve_from_field(UniPoly([2, 2, 0, 0, 0, 1]), eliminate="z")


def _substitute(form, name, value):
    """The form with the variable `name` replaced by the form `value`."""
    i = form.vars.index(name)
    out = MultiPoly.zero(form.vars)
    for e, c in form.terms.items():
        out = out + MultiPoly(form.vars, {e[:i] + (0,) + e[i + 1:]: c}) * value ** e[i]
    return out


def _newton_reference(g, eliminate=None):
    """An independent construction by Newton's identities: p_k = Tr(beta^k)
    for the generic beta = sum x_i alpha^i, expanded in five variables as
    sum s_(i1+...+ik) x_i1...x_ik; the x^4, x^3 and x^2 coefficients of the
    characteristic polynomial are -p1, (p1^2 - p2)/2 and
    -(p1^3 - 3 p1 p2 + 2 p3)/6, and the eliminated variable is substituted
    from the trace condition -p1 = 0.  Returns (linear, quadric, cubic,
    eliminated, elimination_expr); raises ValueError as curve_from_field does."""
    if g.degree != 5 or g.lc != 1:
        raise ValueError("need a monic quintic")
    if eliminate is not None and eliminate not in FULL_VARS:
        raise ValueError(f"cannot eliminate {eliminate!r}: not one of {', '.join(FULL_VARS)}")
    if not factor_over_Q(g).is_irreducible:
        raise ValueError(f"{g} is reducible over Q")
    sums = power_sums(g, 12)

    def trace_form(k):
        terms = {}
        for idx in itertools.product(range(5), repeat=k):
            key = tuple(idx.count(i) for i in range(5))
            terms[key] = terms.get(key, F(0)) + sums[sum(idx)]
        return MultiPoly(FULL_VARS, terms)

    p1, p2, p3 = (trace_form(k) for k in (1, 2, 3))
    linear = -p1
    quadric = (p1 * p1 - p2) * F(1, 2)
    cubic = (p1 * p1 * p1 - 3 * p1 * p2 + 2 * p3) * F(-1, 6)
    coeffs = {n: linear.terms.get(tuple(int(m == n) for m in FULL_VARS), F(0)) for n in FULL_VARS}
    if eliminate is None:
        best = max(abs(c) for c in coeffs.values())
        eliminate = [n for n in FULL_VARS if abs(coeffs[n]) == best][-1]
    if coeffs[eliminate] == 0:
        raise ValueError(f"cannot eliminate {eliminate}: zero trace coefficient")
    expr = (linear - MultiPoly.variable(FULL_VARS, eliminate) * coeffs[eliminate]) * (-1 / coeffs[eliminate])
    return (linear, _substitute(quadric, eliminate, expr), _substitute(cubic, eliminate, expr),
            eliminate, expr)


def _construction_or_error(build, g, eliminate):
    try:
        built = build(g, eliminate)
    except ValueError as error:
        return str(error)
    if isinstance(built, GeneralCurve):
        return (built.linear, built.quadric, built.cubic, built.eliminated, built.elimination_expr)
    return built


# the two fields of the paper, six dense Eisenstein quintics (at 2, 3, 5, 7,
# 2, 3), and a field with Tr(alpha) = Tr(alpha^3) = 0
_DIFFERENTIAL_FIELDS = (
    (-18, 0, 0, 0, 0, 1), (105, 75, 0, 0, 0, 1),
    (6, -4, 2, -2, 4, 1), (-15, 3, -6, 6, -3, 1), (10, -5, 10, 5, -10, 1),
    (14, 7, -14, 7, 14, 1), (-6, 2, 4, -2, -4, 1), (12, -3, 6, 3, -6, 1),
    (F(1, 2), F(3, 7), 0, F(-5, 3), 0, 1),
)


@pytest.mark.parametrize("g", _DIFFERENTIAL_FIELDS)
def test_trace_form_construction_matches_newton_reference(g):
    # the same forms, expression and eliminated name, or the same error, for
    # every choice of the eliminated variable
    g = UniPoly(list(g))
    for eliminate in (None, *FULL_VARS):
        assert (_construction_or_error(curve_from_field, g, eliminate)
                == _construction_or_error(_newton_reference, g, eliminate))


_rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@settings(max_examples=40, deadline=None)
@given(st.lists(_rationals, min_size=5, max_size=5), st.sampled_from([None, *FULL_VARS]))
def test_trace_form_construction_matches_newton_reference_on_random_fields(low, eliminate):
    g = UniPoly(low + [1])
    assert (_construction_or_error(curve_from_field, g, eliminate)
            == _construction_or_error(_newton_reference, g, eliminate))


def test_construction_errors_name_the_cause():
    g = UniPoly([F(1, 2), F(3, 7), 0, F(-5, 3), 0, 1])
    for eliminate in ("b", "d"):
        with pytest.raises(ValueError) as error:
            curve_from_field(g, eliminate=eliminate)
        assert str(error.value) == f"cannot eliminate {eliminate}: zero trace coefficient"
    reducible = UniPoly([1, 1, 0, 0, 0, 1])
    with pytest.raises(ValueError) as error:
        curve_from_field(reducible)
    assert str(error.value) == f"{reducible} is reducible over Q"
    with pytest.raises(ValueError, match="need a monic quintic"):
        curve_from_field(UniPoly([1, 1, 0, 0, 1]))


def _general_reference(curve, H):
    """Brute force in Fractions: every live tuple in [-H, H]^4, the eliminated
    coordinate from the trace condition, then normalization, the height bound
    and the linear, quadric and cubic forms."""
    found = set()
    for live in itertools.product(range(-H, H + 1), repeat=4):
        if any(live):
            coords = _full_coords(curve, dict(zip(curve.live_vars, map(F, live))))
            pt = CurvePoint.from_rationals(coords)
            if pt.height <= H and _on_curve(curve, pt.coords):
                found.add(pt)
    return sorted(found, key=lambda pt: (pt.height, pt.coords))


@pytest.mark.parametrize("g, eliminate, H", [
    ([-18, 0, 0, 0, 0, 1], None, 4),  # a quadric linear in v, and the zero cell
    ([105, 75, 0, 0, 0, 1], None, 4),
    ([105, 75, 0, 0, 0, 1], "a", 4),
    ([-20, 5, -5, -10, -5, 1], None, 3),  # a b*c term in the discriminant
    ([F(1, 2), F(3, 7), -2, 0, F(5, 3), 1], None, 3),
    ([F(-5, 2), F(-5, 2), 0, 0, 0, 1], None, 4),  # (4 : -2 : -1 : 2 : -2), eliminated e = -2
])
def test_general_point_search_matches_fraction_reference(g, eliminate, H):
    curve = curve_from_field(UniPoly(g), eliminate=eliminate)
    for h in (0, H):
        assert general_point_search(curve, h) == _general_reference(curve, h)


def _traced_peaks(search, heights):
    peaks = []
    for H in heights:
        tracemalloc.start()
        try:
            search(H)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_search_memory_grows_linearly_with_height():
    # The packed rows grow as O(H), tiles are bounded, and survivors are
    # confirmed one at a time.  A (2H+1)^2 mask per slice would grow the
    # peak as H^2: the growth from H = 200 to 400 would be about four times
    # that from 100 to 200, not two.  x^5 + 75x + 105 has many survivors,
    # t = 19/14 few, so there the sieve's own memory shows.
    curve = curve_from_field(UniPoly([105, 75, 0, 0, 0, 1]))
    low, high = _traced_peaks(lambda H: general_point_search(curve, H), (200, 400))
    assert high < 3 * low
    curve = curve_from_t(F(19, 14))
    p100, p200, p400 = _traced_peaks(lambda H: point_search(curve, H), (100, 200, 400))
    assert p400 - p200 < 3 * (p200 - p100)


def test_height_bound_is_validated_alike_by_both_entry_points():
    t_curve = curve_from_t(T65)
    g_curve = curve_from_field(UniPoly([105, 75, 0, 0, 0, 1]))
    with pytest.raises(ValueError):
        point_search(t_curve, -1)
    with pytest.raises(ValueError):
        general_point_search(g_curve, -1)
    assert point_search(t_curve, 0) == SearchResult(points=(), degenerate=(), height_bound=0)
    assert general_point_search(g_curve, 0) == []
    # above the cap both raise before any sieve is built
    assert MAX_HEIGHT_BOUND == 1 << 14
    with pytest.raises(ValueError, match="height bound"):
        point_search(t_curve, MAX_HEIGHT_BOUND + 1)
    with pytest.raises(ValueError, match="height bound"):
        general_point_search(g_curve, 10 ** 7)


def test_pure_field_search_finds_all_five_classes():
    from quintic_trinomials.trinomial import Trinomial, equiv_class
    curve = curve_from_field(UniPoly([-18, 0, 0, 0, 0, 1]))
    pts = general_point_search(curve, 4)
    assert len(pts) >= 5
    classes = set()
    g = UniPoly([-18, 0, 0, 0, 0, 1])
    for pt in pts:
        cp = charpoly_mod(g, [F(v) for v in pt.coords])
        assert cp[2] == cp[3] == cp[4] == 0
        classes.add(equiv_class(Trinomial(cp[1], cp[0])))
    assert EquivClass("pure", F(18)) in classes
    assert EquivClass("pure", F(324)) in classes
    assert EquivClass("pure", F(24)) in classes
    assert EquivClass("pure", F(432)) in classes
    assert EquivClass("generic", T65) in classes


@st.composite
def _small_quintic_fields(draw):
    """(g, s): a monic quintic g with coefficients in [-3, 3] and s = None, or
    g = T(x - s) for a trinomial T = x^5 + ax + b with |a|, |b|, |s| <= 3,
    whose root alpha gives the point (-s : 1 : 0 : 0 : 0), beta = alpha - s."""
    small = st.integers(-3, 3)
    shift = draw(st.none() | small)
    if shift is None:
        low = draw(st.lists(small, min_size=5, max_size=5))
        return UniPoly(low + [1]), None
    a, b = draw(small), draw(small)
    x_minus_s = UniPoly([-shift, 1])
    return x_minus_s ** 5 + x_minus_s * a + b, shift


@settings(max_examples=60, deadline=None)
@given(_small_quintic_fields(), st.sampled_from([None, "a"]), st.integers(1, 3))
def test_general_points_have_vanishing_trace_power_sums(field, eliminate, H):
    # every point gives beta with Tr(beta) = Tr(beta^2) = Tr(beta^3) = 0,
    # that is a characteristic polynomial without x^4, x^3 and x^2 terms
    g, shift = field
    assume(g[0] != 0 and factor_over_Q(g).is_irreducible)
    points = general_point_search(curve_from_field(g, eliminate=eliminate), H)
    for pt in points:
        assert pt.height <= H
        cp = charpoly_mod(g, [F(v) for v in pt.coords])
        assert cp[4] == cp[3] == cp[2] == 0, (g, eliminate, pt)
    if shift is not None and abs(shift) <= H:
        assert CurvePoint.from_rationals((-shift, 1, 0, 0, 0)) in points


def test_point_search_against_brute_force_oracle():
    # independent oracle: enumerate all primitive integer 4-tuples in the box
    # and evaluate both curve forms directly
    t = T65
    H = 8
    curve = curve_from_t(t)
    p, q = t.numerator, t.denominator
    expected = set()
    for a in range(-H, H + 1):
        for b in range(-H, H + 1):
            for c in range(-H, H + 1):
                for d in range(-H, H + 1):
                    if (a, b, c, d) == (0, 0, 0, 0):
                        continue
                    quad = -5 * q * a * a + 50 * q * a * b + p * (32 * b * d + 16 * c * c + 40 * c * d)
                    if quad != 0:
                        continue
                    cub = (q * q * (-10 * a ** 3 + 25 * a * a * b - 125 * a * a * c)
                           + p * q * (-160 * a * c * d - 100 * a * d * d + 64 * b * b * c
                                      + 80 * b * b * d + 80 * b * c * c)
                           + p * p * (-64 * c * d * d - 48 * d ** 3))
                    if cub == 0:
                        expected.add(CurvePoint.from_rationals((a, b, c, d)))
    expected = {pt for pt in expected if pt.height <= H
                and not (pt.coords[1] == 0 and pt.coords[2] == 0 and pt.coords[3] == 0)}
    got = set(point_search(curve, H).points)
    assert got == expected


@functools.lru_cache(maxsize=None)
def _curves_with_points():
    """T-form and general curves, with points on each: alpha on the curve of a
    field of a trinomial, and 79 times the root of x^5 - 75x + 465 in the field
    of x^5 + 75x + 105; the last field has d > 1 power sums."""
    t_forms = [(curve_from_t(T65), ((88, 70, 75, -60), (F(-168, 55), F(9, 11), F(19, 11), 1),
                                    (F(36, 35), F(-30, 7), F(24, 7), 1))),
               (curve_from_t(F(-3125, 20736)), ((0, 1, 0, 0),))]
    general = [(curve_from_field(UniPoly(g)), ((0, 1, 0, 0, 0), *extra)) for g, extra in (
        ([-18, 0, 0, 0, 0, 1], ((0, 3, -3, 1, 1),)),
        ([105, 75, 0, 0, 0, 1], ((-240, -23, -32, 7, -4),)),
        ([F(1, 3), F(1, 2), 0, 0, 0, 1], ()))]
    return t_forms + general


@pytest.mark.parametrize("index", range(5))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_contains_agrees_with_the_per_term_reference(index, data):
    # integer and rational points, the zero vector, rational multiples of
    # points on the curve, and those points with one coordinate moved off it
    curve, points = _curves_with_points()[index]
    n = len(curve.quadric.vars)
    kind = data.draw(st.sampled_from(["integer", "rational", "zero", "on", "off"]))
    if kind == "integer":
        coords = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    elif kind == "rational":
        coords = data.draw(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9),
                                    min_size=n, max_size=n))
    elif kind == "zero":
        coords = [0] * n
    else:
        point = data.draw(st.sampled_from(points))
        scale = data.draw(st.builds(F, st.integers(-12, 12).filter(bool), st.integers(1, 12)))
        i = data.draw(st.integers(0, n - 1))
        coords = [scale * v + (kind == "off" and j == i) for j, v in enumerate(point)]
    expected = _on_curve(curve, coords)
    assert expected or kind not in ("zero", "on")
    if isinstance(curve, TrinomialCurve):
        assert curve.contains(CurvePoint(tuple(coords))) == expected, coords
    else:
        assert curve.contains(coords) == expected, coords
    with pytest.raises(ValueError, match=f"need {n} coordinates"):
        curve.contains(CurvePoint(tuple(coords[1:])) if n == 4 else coords[1:])
