"""Curve construction, point search, and the point/trinomial dictionary."""

import dataclasses
import functools
import gc
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
                                      SearchResult, _search_chunk, split_by_variable,
                                      table_resultant,
                                      _search_forms, worker_count, _MODULI,
                                      form_value, _LIVENESS_MODULI, _orbit_index, _predicate,
                                      _reduced_forms, _ORBITS, _OFFSETS, _build_sieve)

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
        (-25, {"a": 2}), (250, {"a": 1, "b": 1}), (192, {"b": 1, "d": 1}),
        (96, {"c": 2}), (240, {"c": 1, "d": 1})], den=5)
    assert curve.quadric == expected and (curve.quadric.den, curve.quadric.terms) == (
        5, {(2, 0, 0, 0): -25, (1, 1, 0, 0): 250, (0, 1, 0, 1): 192, (0, 0, 2, 0): 96,
            (0, 0, 1, 1): 240})
    # an independent transcription of the cubic at t = 6/5, since curve_from_t
    # reads the shared t-forms
    expected_cubic = MultiPoly.from_spec(("a", "b", "c", "d"), [
        (-250, {"a": 3}), (625, {"a": 2, "b": 1}), (-3125, {"a": 2, "c": 1}),
        (-4800, {"a": 1, "c": 1, "d": 1}), (-3000, {"a": 1, "d": 2}),
        (1920, {"b": 2, "c": 1}), (2400, {"b": 2, "d": 1}), (2400, {"b": 1, "c": 2}),
        (-2304, {"c": 1, "d": 2}), (-1728, {"d": 3})], den=25)
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
    return _build_sieve(_search_forms(curve), H)


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


def _reference_chunk(sieve, lo, hi):
    """The confirmed cells and the points of the slices lo <= z < hi, with
    every row (z, x) the AND of its five packed rows, read from sieve.rows
    as `_passes_rows` reads them, and no step that skips rows on the packed
    moduli: survivors in the half box that are primitive are confirmed, and
    the chunk holding z = 0 checks the unit point of v.  A sieve that carries
    the liveness of the liveness-only primes (a box above the threshold) also
    clears every row (z, x) that one of them leaves dead in sieve.live."""
    forms, H, rows = sieve.forms, sieve.height_bound, sieve.rows
    z, x = (a.ravel() for a in np.meshgrid(np.arange(lo, hi), np.arange(-H, H + 1), indexing="ij"))
    acc = np.bitwise_and.reduce([rows[_OFFSETS[k] + z % m * m + x % m]
                                 for k, m in enumerate(_MODULI)])
    unpacked, _ = _unpacked_live(sieve)
    for m, bits in zip(_LIVENESS_MODULI, unpacked[len(_MODULI):]):
        acc[~bits[z % m, x + H]] = 0
    nonzero = np.flatnonzero(acc.any(axis=1))
    bits = np.unpackbits(acc[nonzero].view(np.uint8), axis=1, bitorder="little")[:, :2 * H + 1]
    row, column = np.nonzero(bits)
    row = nonzero[row]
    cells = [cell for cell in zip(x[row].tolist(), (column - H).tolist(), z[row].tolist())
             if (cell[2] > 0 or cell[1] > 0 or (cell[1] == 0 and cell[0] > 0))
             and math.gcd(*cell) == 1]
    out = set()
    if lo == 0 < hi:
        curve_module._add_if_on_curve(forms, H, (1, 0, 0, 0), out)
    for cell in cells:
        curve_module._confirm(forms, H, cell, out)
    return cells, out


def _scan_curves():
    # the sieve's curves (the double plane, and lead = 0 with a cubic of degree
    # 2 in v among them), two random t and three general fields
    rng = random.Random(27)
    return [*_sieve_curves(),
            *(curve_from_t(F(rng.randint(-50, 50) or 1, rng.randint(1, 50))) for _ in range(2)),
            *(curve_from_field(UniPoly(g)) for g in ([105, 75, 0, 0, 0, 1], [6, -4, 2, -2, 4, 1],
                                                     [F(1, 2), F(3, 7), -2, 0, F(5, 3), 1]))]


# rows of one word (H = 0, 1), one bit short of two words (63), one and three
# bits past them (64, 65) and the default height, at the default tiles and at
# tiles of 1 and 7 rows (1-row tiles up to H = 63 and none at H = 200, for time)
@pytest.mark.parametrize("H, tile_rows", [
    (0, None), (0, 1), (0, 7), (1, None), (1, 1), (1, 7), (63, None), (63, 1), (63, 7),
    (64, None), (64, 7), (65, None), (65, 7), (200, None)])
def test_search_chunk_matches_the_unskipped_row_reference(monkeypatch, H, tile_rows):
    # skipping the rows that some modulus leaves without a bit confirms the
    # same cells, in the same order, and finds the same points as ANDing all
    # five packed rows of every row, over the whole half box and its chunk
    # splits; at H = 200, above the threshold, the reference also drops the
    # rows of the liveness-only primes
    assert (len(_sieve(curve_from_t(T65), H).live) > len(_MODULI)) == (H == 200)
    confirmed = []
    confirm = curve_module._confirm

    def spy(forms, height_bound, cell, out):
        confirmed.append(cell)
        confirm(forms, height_bound, cell, out)

    chunks = ((0, H + 1), *_pieces(H))
    for curve in _scan_curves():
        sieve = _sieve(curve, H)
        expected = [_reference_chunk(sieve, lo, hi) for lo, hi in chunks]
        with monkeypatch.context() as patch:
            if tile_rows:
                patch.setattr(curve_module, "_TILE_BYTES",
                              tile_rows * 8 * len(_MODULI) * sieve.rows.shape[1])
            patch.setattr(curve_module, "_confirm", spy)
            for (lo, hi), (cells, points) in zip(chunks, expected):
                confirmed.clear()
                assert _search_chunk(sieve, lo, hi) == points, (curve, lo, hi)
                assert confirmed == cells, (curve, lo, hi)


def _unpacked_live(sieve):
    """L[k][r, x + H], whether the row (z, x) with z = r mod m is live modulo
    the k-th modulus of the sieve, unpacked from sieve.live."""
    width = 2 * sieve.height_bound + 1
    return [np.unpackbits(live.view(np.uint8), axis=1, bitorder="little").astype(bool)
            for live in sieve.live], width


def _liveness_curves():
    # random t, t with 31, 37, 41 or 43 in the numerator or the denominator
    # (a prime dividing q or p can make a form vanish mod it), the sieve's
    # curves and three general fields
    rng = random.Random(30)
    ts = [F(rng.randint(-99, 99) or 1, rng.randint(1, 99)) for _ in range(4)]
    ts += [F(m * rng.randint(1, 9), rng.randint(1, 20)) for m in _LIVENESS_MODULI]
    ts += [F(-rng.randint(1, 30), m * rng.randint(1, 3)) for m in _LIVENESS_MODULI]
    return [*map(curve_from_t, ts), *_sieve_curves(),
            *(curve_from_field(UniPoly(g)) for g in ([105, 75, 0, 0, 0, 1], [6, -4, 2, -2, 4, 1],
                                                     [F(1, 2), F(3, 7), -2, 0, F(5, 3), 1]))]


def _brute_liveness(reduced, m):
    """L[r, a], whether some y residue passes the predicate of m at the residue
    cell (a, y, r): every cell read through _orbit_index(m), no slope rule."""
    return np.take(_predicate(reduced, m), _orbit_index(m)).any(axis=2)


def test_liveness_tables_are_whether_some_column_of_a_row_passes():
    # a box above the threshold packs the liveness of the liveness-only
    # primes after that of the five packed moduli; bit x + H of live[k][r] is
    # whether some y residue passes at (x, y, r) mod m.  On the sieve's
    # curves the predicate itself is the resultant oracle's at every cell.
    H = 200
    x = np.arange(-H, H + 1)
    for curve in _liveness_curves():
        forms = _search_forms(curve)
        reduced = _reduced_forms(forms)
        unpacked, width = _unpacked_live(_build_sieve(forms, H))
        assert len(unpacked) == len(_MODULI) + len(_LIVENESS_MODULI)
        for m, bits in zip(_LIVENESS_MODULI, unpacked[len(_MODULI):]):
            expected = _brute_liveness(reduced, m)[:, x % m]
            assert np.array_equal(bits[:, :width], expected), (curve, m)
    for curve in _sieve_curves():
        forms, passes = _search_forms(curve), _oracle(curve)
        for m in _LIVENESS_MODULI:
            r, x, y = np.meshgrid(*[np.arange(m)] * 3, indexing="ij")
            cells = np.take(_predicate(_reduced_forms(forms), m), _orbit_index(m))
            assert (cells == passes(m, x, y, r)).all(), (curve, m)


@pytest.mark.parametrize("H", [5, 40, 200])
def test_liveness_of_every_prime_is_whether_some_y_residue_passes(monkeypatch, H):
    # with the threshold at 0 every box carries all nine primes, each packed
    # as m rows over the columns x + H, bits past column 2H zero.  The row
    # (r, x) is live iff some y residue passes mod m, also where 2H + 1 < m
    # hides residues from the packed rows (H = 5) and for z residues r > H,
    # which no slice reads.
    monkeypatch.setattr(curve_module, "_LIVENESS_CELLS", 0)
    x = np.arange(-H, H + 1)
    for curve in _liveness_curves():
        forms = _search_forms(curve)
        reduced = _reduced_forms(forms)
        sieve = _build_sieve(forms, H)
        unpacked, width = _unpacked_live(sieve)
        assert len(sieve.live) == len(_MODULI) + len(_LIVENESS_MODULI)
        for m, live, bits in zip(_MODULI + _LIVENESS_MODULI, sieve.live, unpacked):
            assert live.shape == (m, sieve.rows.shape[1]) and live.dtype == np.uint64
            expected = _brute_liveness(reduced, m)[:, x % m]
            assert np.array_equal(bits[:, :width], expected), (curve, m)
            assert not bits[:, width:].any()


@pytest.mark.parametrize("H, calls", [(45, 5), (200, 9)])
def test_a_search_reduces_its_forms_once_and_evaluates_each_modulus_once(monkeypatch, H, calls):
    # one pass over the moduli: H = 45 is below the threshold, H = 200 above
    counts = {"_reduced_forms": 0, "_predicate": 0}
    for name in counts:
        def spy(*args, name=name, wrapped=getattr(curve_module, name)):
            counts[name] += 1
            return wrapped(*args)
        monkeypatch.setattr(curve_module, name, spy)
    assert point_search(curve_from_t(T65), H).points
    assert counts == {"_reduced_forms": 1, "_predicate": calls}


@pytest.mark.parametrize("H", [0, 1, 63, 64, 65, 200])
def test_liveness_primes_keep_the_points_of_the_five_prime_sieve(monkeypatch, H):
    # with the threshold at 0 every box carries the liveness tables: the
    # chunks find the points of the five-prime unskipped reference, and every
    # cell they confirm passes all nine primes, each as the sieve tests it:
    # the cell passes the oracle modulo the five packed primes, and its row
    # (z, x) has a y residue that passes modulo each liveness-only prime
    confirmed = []
    confirm = curve_module._confirm

    def spy(forms, height_bound, cell, out):
        confirmed.append(cell)
        confirm(forms, height_bound, cell, out)

    for curve in _scan_curves():
        five = _sieve(curve, H)
        assert len(five.live) == len(_MODULI) or H == 200
        chunks = ((0, H + 1), *_pieces(H))
        expected = [_reference_chunk(dataclasses.replace(five, live=five.live[:len(_MODULI)]),
                                     lo, hi)[1] for lo, hi in chunks]
        passes = _oracle(curve)
        with monkeypatch.context() as patch:
            patch.setattr(curve_module, "_LIVENESS_CELLS", 0)
            nine = _sieve(curve, H)
            assert len(nine.live) == len(_MODULI) + len(_LIVENESS_MODULI)
            patch.setattr(curve_module, "_confirm", spy)
            for (lo, hi), points in zip(chunks, expected):
                confirmed.clear()
                assert _search_chunk(nine, lo, hi) == points, (curve, lo, hi)
                for x, y, z in confirmed:
                    for m in _MODULI:
                        assert passes(m, x % m, y % m, z % m), (curve, (x, y, z), m)
                    for m in _LIVENESS_MODULI:
                        assert passes(m, x % m, np.arange(m), z % m).any(), (curve, (x, y, z), m)


@pytest.fixture
def pooled(monkeypatch):
    # a box of any size pays for workers, so jobs >= 2 runs the pool path
    monkeypatch.setattr(curve_module, "_CELLS_PER_WORKER", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def test_point_search_parallel_matches_serial(pooled, monkeypatch):
    # the liveness tables reach the workers inside the sieve: with every
    # table of a liveness-only prime emptied, which drops every row, the
    # pool confirms no cell and finds no point
    monkeypatch.setattr(curve_module, "_LIVENESS_CELLS", 0)
    curve = curve_from_t(T65)
    serial = point_search(curve, 60)
    parallel = point_search(curve, 60, jobs=2)
    assert serial == parallel and serial.points
    build = curve_module._build_sieve

    def emptied(forms, height_bound):
        sieve = build(forms, height_bound)
        assert len(sieve.live) == len(_MODULI) + len(_LIVENESS_MODULI)
        dead = tuple(np.zeros_like(table) for table in sieve.live[len(_MODULI):])
        return dataclasses.replace(sieve, live=sieve.live[:len(_MODULI)] + dead)

    monkeypatch.setattr(curve_module, "_build_sieve", emptied)
    assert point_search(curve, 60, jobs=2) == SearchResult((), (), 60)


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
    # of the 435 sieve survivors of t = 6/5 at H = 200 (with the
    # liveness-only primes) only the primitive cells of the half box are
    # confirmed, each once
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


def _degrees(form, name):
    """The exponents of the variable `name` in the terms of the form."""
    i = form.vars.index(name)
    return {e[i] for e in form.terms}


def _split_live(curve):
    """The quadric and cubic, the variable v that the engine solves for (the
    first live one with a square term, else of degree 1), and the other live
    variables, enumerated as (x, y, z)."""
    quadric, cubic = curve.quadric, curve.cubic
    live = curve.live_vars if isinstance(curve, GeneralCurve) else quadric.vars
    v = (next((n for n in live if 2 in _degrees(quadric, n)), None)
         or next(n for n in live if max(_degrees(quadric, n)) == 1))
    return quadric, cubic, v, [n for n in live if n != v]


def _sympy_sieve_forms(curve):
    """The discriminant of the quadric in v and the primitive part of
    Res_v(quadric, cubic), both computed by sympy, as polynomials in (x, y, z)."""
    sympy = pytest.importorskip("sympy")
    quadric, cubic, v, others = _split_live(curve)
    symbols = dict(zip(quadric.vars, sympy.symbols(quadric.vars)))

    def expression(form):
        """The numerators of the form, the form with its denominators cleared."""
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
    # 2^70, a quadric linear in v (lead = 0) whose cubic has no v^3 term, the
    # double-plane quadric (a + b)^2 (disc = 0 at every cell), and the quadric
    # a b + c d with a cubic of degree 2 in v = a (lead = 0, a resultant of
    # degree 5)
    quadric, cubic = (MultiPoly.from_spec(CURVE_VARS, spec) for spec in _DOUBLE_PLANE_SPECS)
    double_plane = TrinomialCurve(t=F(1), quadric=quadric, cubic=cubic)
    quadratic_cubic = _line_curve([
        (3, {"a": 2, "c": 1}), (-2, {"a": 2, "d": 1}), (1, {"a": 1, "b": 2}), (5, {"b": 3}),
        (-7, {"c": 2, "d": 1}), (1, {"d": 3}), (4, {"a": 1, "c": 1, "d": 1})])
    return [curve_from_field(UniPoly([-20, 5, -5, -10, -5, 1])), curve_from_t(T65),
            _random_curve(random.Random(5), 72), curve_from_field(UniPoly([-18, 0, 0, 0, 0, 1])),
            double_plane, quadratic_cubic]


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


def _packed_cells(sieve, k):
    """P[r, a, y + H], bit y + H of the packed row (r, a) of the k-th packed
    modulus m, for the z residues r <= H, every x residue a, and every bit
    of the row's words, past column 2H too."""
    m, H = _MODULI[k], sieve.height_bound
    layers = min(m, H + 1)
    rows = sieve.rows[_OFFSETS[k]:_OFFSETS[k] + layers * m]
    return np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little").reshape(layers, m, -1)


def test_sieve_tables_match_the_resultant_oracle():
    # the packed rows at height 200 hold every layer r < m and every column
    # residue y of each modulus: bit y + H of the row (r, a) is set exactly
    # when the cell (a, y, r) passes both tests of the oracle
    H = 200
    for curve in _sieve_curves():
        forms, passes = _search_forms(curve), _oracle(curve)
        assert forms.resultant
        sieve = _build_sieve(forms, H)
        for k, m in enumerate(_MODULI):
            cells = _packed_cells(sieve, k)[:, :, H:H + m]
            assert cells.shape == (m, m, m)
            r, x, y = np.meshgrid(*[np.arange(m)] * 3, indexing="ij")
            assert (cells == passes(m, x, y, r)).all()


@pytest.mark.parametrize("layers", [1, 6, 12, 28])
def test_sieve_tables_below_m_layers_match_the_resultant_oracle(layers):
    # the heights H = 0, 5, 11 and 27 keep layers r <= H of every modulus above
    # H, and the rows of larger r stay zero
    H = layers - 1
    double_plane, quadratic_cubic = map(_search_forms, _sieve_curves()[-2:])
    assert not double_plane.disc
    assert quadratic_cubic.lead == 0 and max(sum(e) for e, _ in quadratic_cubic.resultant) == 5
    for curve in _sieve_curves():
        forms, passes = _search_forms(curve), _oracle(curve)
        sieve = _build_sieve(forms, H)
        for k, m in enumerate(_MODULI):
            cells = _packed_cells(sieve, k)[:, :, :2 * H + 1]
            assert cells.shape == (min(m, layers), m, 2 * H + 1)
            r, x, y = np.meshgrid(np.arange(min(m, layers)), np.arange(m), np.arange(-H, H + 1) % m,
                                  indexing="ij")
            assert (cells == passes(m, x, y, r)).all()
            assert not sieve.rows[_OFFSETS[k] + min(m, layers) * m:_OFFSETS[k + 1]].any()


def test_sieve_tables_are_constant_on_lines_through_the_origin():
    # the tables are built once per point of P^2(F_m): this rests on the
    # oracle's predicate being constant on {l c : l in F_m^*} for every residue
    # cell c, and the packed rows keep it.  _ORBITS[k] takes one value on each
    # such line and on the zero cell, and a different one on each of the
    # m^2 + m + 2 of them.
    for m, orbits in zip(_MODULI, _ORBITS):
        assert orbits.shape == (m, m, m)
        assert len(np.unique(orbits)) == m * m + m + 2
    H = 200
    for curve in _sieve_curves():
        forms, passes = _search_forms(curve), _oracle(curve)
        sieve = _build_sieve(forms, H)
        for k, (m, orbits) in enumerate(zip(_MODULI, _ORBITS)):
            table = _packed_cells(sieve, k)[:, :, H:H + m]
            r, x, y = np.meshgrid(*[np.arange(m)] * 3, indexing="ij")
            expected = passes(m, x, y, r)
            for unit in range(2, m):
                line = (unit * r % m, unit * x % m, unit * y % m)
                assert (passes(m, line[1], line[2], line[0]) == expected).all()
                assert (table[line] == table).all()
                assert (orbits[line] == orbits).all()


@pytest.mark.parametrize("H", [31, 70])
def test_packed_rows_match_the_resultant_oracle(H):
    # bit y + H of the row (r, a) of modulus m is set exactly when the cell
    # (a, y, r) passes the oracle mod m, for every z residue r <= H (r > m / 2
    # included) and every x residue a; the bits past column 2H are zero.
    # 2H + 1 = 63 and 141 leave 1 and 51 padding bits.
    width = 2 * H + 1
    for curve in _sieve_curves():
        sieve, passes = _build_sieve(_search_forms(curve), H), _oracle(curve)
        for k, m in enumerate(_MODULI):
            cells = _packed_cells(sieve, k)
            assert not cells[:, :, width:].any()
            r, a, y = np.meshgrid(np.arange(m), np.arange(m), np.arange(-H, H + 1) % m,
                                  indexing="ij")
            assert (cells[:, :, :width] == passes(m, a, y, r)).all()


def test_table_resultant_in_low_degrees():
    # Res_t(x t + y, t^2 - x) = y^2 - x^3, over (t, x, y)
    order = ("t", "x", "y")
    rest, linear = split_by_variable(
        MultiPoly.from_spec(order, [(1, {"x": 1, "t": 1}), (1, {"y": 1})]).table(order), 1)
    quadratic = split_by_variable(
        MultiPoly.from_spec(order, [(1, {"t": 2}), (-1, {"x": 1})]).table(order), 2)
    assert table_resultant(0, linear, rest, quadratic) == (((0, 0, 2), 1), ((0, 3, 0), -1))


def _sympy_table(sympy, expression, gens):
    return tuple(sorted((e, int(k)) for e, k in sympy.Poly(expression, *gens).terms()))


@pytest.mark.parametrize("shape", [
    "surface",  # linear and quadratic in v, forms of degree 2 and 3 in four coordinates
    "lead",  # the engine's quadric with lead != 0 and a cubic in v
    "linear-cubic",  # the engine's quadric with lead = 0 and a cubic in v
    "linear-quadratic",  # lead = 0 and a cubic of degree 2 in v
])
def test_table_resultant_matches_sympy(shape):
    # the raw resultant, content kept; sympy.resultant(p, q) drops the sign
    # (-1)^(mn) when deg p < deg q (sympy 1.14), so the cubic goes first and
    # the sign of the swap is put back
    sympy = pytest.importorskip("sympy")
    rng = random.Random(shape)
    v, *coords = sympy.symbols("v a b c d" if shape == "surface" else "v x y z")

    def form(degree):
        return sympy.Add(*(rng.randint(-9, 9) * sympy.Mul(*(x ** k for x, k in zip(coords, e)))
                           for e in itertools.product(range(degree + 1), repeat=len(coords))
                           if sum(e) == degree))

    for _ in range(4):
        lead, top = rng.choice((-3, -1, 2, 5)), rng.choice((-2, 1, 7))
        if shape == "surface":
            quadric, cubic = form(2) * v + form(2), form(3) * v ** 2 + form(3) * v + form(3)
        else:
            quadric = (lead * v ** 2 if shape == "lead" else 0) + form(1) * v + form(2)
            cubic = ((0 if shape == "linear-quadratic" else top * v ** 3)
                     + form(1) * v ** 2 + form(2) * v + form(3))
        gens = (v, *coords)
        rest, linear, square = split_by_variable(_sympy_table(sympy, quadric, gens), 2)
        cubic_in_v = split_by_variable(_sympy_table(sympy, cubic, gens), 3)
        sign = (-1) ** (sympy.degree(quadric, v) * sympy.degree(cubic, v))
        expected = _sympy_table(sympy, sign * sympy.resultant(cubic, quadric, v), gens)
        assert expected
        assert table_resultant(dict(square).get((0,) * len(gens), 0), linear, rest,
                               cubic_in_v) == expected


@functools.lru_cache(maxsize=None)
def _general_points(g, H):
    return general_point_search(curve_from_field(UniPoly(list(g))), H)


def _bit(words, i):
    return words[i // 64] >> np.uint64(i % 64) & 1


def _passes_sieve(sieve, cell):
    """Whether the cell passes the packed rows, and its row (z, x) is live
    modulo every modulus of the sieve."""
    (x, y, z), H = cell, sieve.height_bound
    return (all(_bit(sieve.rows[_OFFSETS[k] + z % m * m + x % m], y + H)
                for k, m in enumerate(_MODULI))
            and all(_bit(live[z % len(live)], x + H) for live in sieve.live))


@pytest.mark.parametrize("source, H, count", [
    (T65, 200, 5), (F(-3125, 20736), 200, 1),
    ((-18, 0, 0, 0, 0, 1), 100, 5), ((105, 75, 0, 0, 0, 1), 800, 7)])
def test_sieve_drops_no_cell_of_a_found_point(source, H, count):
    # the cell of every point found, and every multiple of it in the box,
    # passes the packed rows and lies in a live row: the sieve never rejects
    # a cell of a point (H = 200 and 800 carry the liveness-only primes)
    general = isinstance(source, tuple)
    curve = curve_from_field(UniPoly(list(source))) if general else curve_from_t(source)
    points = _general_points(source, H) if general else point_search(curve, H).points
    forms = _search_forms(curve)
    assert forms.resultant
    sieve = _build_sieve(forms, H)
    nine = _half_box(H) > curve_module._LIVENESS_CELLS
    assert len(sieve.live) == len(_MODULI) + len(_LIVENESS_MODULI) * nine
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
                assert _passes_sieve(sieve, [multiple * w for w in cell]), (pt, multiple)


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
                    coeff[ea] += F(k, curve.quadric.den) * b ** eb * c ** ec * d ** ed
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
    v = next(n for n in live if 2 in _degrees(curve.quadric, n))
    others = [n for n in live if n != v]
    quadric, iv = curve.quadric, curve.quadric.vars.index(v)
    grid = dict(zip(others, np.meshgrid(*[np.arange(-H, H + 1)] * 3, indexing="ij")))
    coeffs, sizes = [], []
    for n in range(3):
        terms = [(e, k) for e, k in quadric.terms.items() if e[iv] == n]
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
    field = NumberField(curve.defining_poly)
    res = has_root_in_field(UniPoly([-324, 0, 0, 0, 0, 1]), field)
    assert res.certified
    pt = trinomial_to_point(curve, res.witness)
    expected = CurvePoint.from_rationals((F(-22, 15), F(-7, 6), F(-5, 4), 1))
    assert pt == expected
    # roundtrip preserves the class
    assert point_to_trinomial(curve, pt).cls == EquivClass("pure", F(324))


def test_trinomial_to_point_generator_and_scaling():
    curve = curve_from_t(T65)
    field = NumberField(curve.defining_poly)
    assert trinomial_to_point(curve, field.generator).coords == (0, 1, 0, 0)
    assert trinomial_to_point(curve, field.generator * 2).coords == (0, 1, 0, 0)


def test_trinomial_to_point_rejects_non_trinomial_shape():
    curve = curve_from_t(T65)
    beta = NumberField(curve.defining_poly).element((1, 1, 0, 0, 0))
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
    return MultiPoly(FULL_VARS, {e + (0,): k for e, k in form4.terms.items()}, form4.den)


def test_general_construction_matches_t_form():
    # same quadric up to scale, and cubics that agree modulo it: their
    # remainders on division by the quadric (lex order, sympy) are proportional
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(FULL_VARS)

    def expression(form):
        return sympy.Poly.from_dict({e: sympy.Rational(k, form.den)
                                     for e, k in form.terms.items()}, *gens).as_expr()

    # both fields eliminate e: |Tr(alpha^4)| = |4t| is 8, and 5 for t = 5/4,
    # a tie with Tr(1) = 5 that goes to the later coordinate
    for t in (F(2), F(5, 4)):
        curve_t = curve_from_t(t)
        general = curve_from_field(UniPoly([t, t, 0, 0, 0, 1]))
        assert general.eliminated == "e"
        ratio_q = general.quadric.proportionality(_lift(curve_t.quadric))
        assert ratio_q is not None
        quadric = expression(general.quadric)
        rem_general, rem_t = (sympy.reduced(expression(cubic), [quadric], *gens, order="lex")[1]
                              for cubic in (general.cubic, _lift(curve_t.cubic)))
        ratio = sympy.cancel(rem_general / rem_t)
        assert ratio.is_Rational and ratio != 0


# fields whose curves eliminate a, c, d and e: the coordinate with the largest
# |Tr(alpha^k)|, the later one on a tie (x^5 + 5x/4 + 5/4 ties at k = 0 and 4)
_ELIMINATION_FIELDS = (
    ((2, 0, 0, -1, 0, 1), "a"),  # traces 5, 0, 2, 0, 2
    ((-1, 4, 0, 3, 0, 1), "c"),  # 5, 0, -6, 0, 2
    ((1, 1, 2, -1, 0, 1), "d"),  # 5, 0, 2, -6, -2
    ((1, 0, 0, 2, 0, 1), "e"),  # 5, 0, -4, 0, 8
    ((F(5, 4), F(5, 4), 0, 0, 0, 1), "e"),  # 5, 0, 0, 0, -5
)


def test_general_construction_auto_elimination():
    for g, eliminated in _ELIMINATION_FIELDS:
        assert curve_from_field(UniPoly(list(g))).eliminated == eliminated, g
    assert curve_from_field(UniPoly([2, 2, 0, 0, 0, 1])).eliminated == "e"
    assert curve_from_field(UniPoly([105, 75, 0, 0, 0, 1])).eliminated == "e"
    assert curve_from_field(UniPoly([T65, T65, 0, 0, 0, 1])).eliminated == "a"
    pure = curve_from_field(UniPoly([-18, 0, 0, 0, 0, 1]))
    assert pure.eliminated == "a"
    assert pure.linear.proportionality(MultiPoly.from_spec(FULL_VARS, [(1, {"a": 1})])) is not None


def test_general_forms_are_charpoly_coefficients_on_the_trace_hyperplane():
    rng = random.Random(7)
    fields = [UniPoly(list(g)) for g, _ in _ELIMINATION_FIELDS] + [
        UniPoly([-18, 0, 0, 0, 0, 1]), UniPoly([105, 75, 0, 0, 0, 1]),
        UniPoly([T65, T65, 0, 0, 0, 1]), UniPoly([F(1, 2), F(3, 7), -2, 0, F(5, 3), 1])]
    for g in fields:
        curve = curve_from_field(g)
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


def _newton_reference(g):
    """An independent construction by Newton's identities, in sympy: p_k =
    Tr(beta^k) for the generic beta = sum x_i alpha^i, expanded in five
    variables as sum s_(i1+...+ik) x_i1...x_ik; the x^4, x^3 and x^2
    coefficients of the characteristic polynomial are -p1, (p1^2 - p2)/2
    and -(p1^3 - 3 p1 p2 + 2 p3)/6, and the eliminated variable is
    the one with the largest |Tr(alpha^k)|, the later on a tie, substituted
    from the trace condition -p1 = 0.  Returns (linear, quadric,
    cubic, eliminated, elimination_expr) as MultiPolys; raises ValueError as
    curve_from_field does."""
    sympy = pytest.importorskip("sympy")
    if g.degree != 5 or g.lc != 1:
        raise ValueError("need a monic quintic")
    if not factor_over_Q(g).is_irreducible:
        raise ValueError(f"{g} is reducible over Q")
    _, *xs = sympy.ring(FULL_VARS, sympy.QQ)
    sums = [sympy.QQ(s.numerator, s.denominator) for s in power_sums(g, 12)]

    def trace_form(k):
        return sum(sums[sum(idx)] * math.prod(xs[i] for i in idx)
                   for idx in itertools.product(range(5), repeat=k))

    def multipoly(poly):
        den = math.lcm(*(int(c.denominator) for _, c in poly.terms()))
        return MultiPoly(FULL_VARS, {e: int(c * den) for e, c in poly.terms()}, den)

    p1, p2, p3 = (trace_form(k) for k in (1, 2, 3))
    linear = -p1
    quadric = (p1 * p1 - p2) / 2
    cubic = -(p1 * p1 * p1 - 3 * p1 * p2 + 2 * p3) / 6
    coeffs = {n: linear.coeff(x) for n, x in zip(FULL_VARS, xs)}
    best = max(abs(c) for c in coeffs.values())
    eliminate = [n for n in FULL_VARS if abs(coeffs[n]) == best][-1]
    x = xs[FULL_VARS.index(eliminate)]
    expr = (linear - coeffs[eliminate] * x) / -coeffs[eliminate]
    return (multipoly(linear), multipoly(quadric.compose(x, expr)),
            multipoly(cubic.compose(x, expr)), eliminate, multipoly(expr))


def _construction_or_error(build, g):
    try:
        built = build(g)
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


@pytest.mark.parametrize("g", _DIFFERENTIAL_FIELDS + tuple(g for g, _ in _ELIMINATION_FIELDS))
def test_trace_form_construction_matches_newton_reference(g):
    # the same forms, expression and eliminated name, or the same error
    g = UniPoly(list(g))
    assert _construction_or_error(curve_from_field, g) == _construction_or_error(_newton_reference, g)


_rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@settings(max_examples=40, deadline=None)
@given(st.lists(_rationals, min_size=5, max_size=5))
def test_trace_form_construction_matches_newton_reference_on_random_fields(low):
    g = UniPoly(low + [1])
    assert _construction_or_error(curve_from_field, g) == _construction_or_error(_newton_reference, g)


def test_construction_errors_name_the_cause():
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


@pytest.mark.parametrize("g, eliminated, H", [
    ([-18, 0, 0, 0, 0, 1], None, 4),  # a quadric linear in v, and the zero cell
    ([105, 75, 0, 0, 0, 1], None, 4),
    ([-1, 4, 0, 3, 0, 1], "c", 4),  # a, b, d and e are searched
    ([-20, 5, -5, -10, -5, 1], None, 3),  # a b*c term in the discriminant
    ([F(1, 2), F(3, 7), -2, 0, F(5, 3), 1], None, 3),
    ([F(-5, 2), F(-5, 2), 0, 0, 0, 1], None, 4),  # (4 : -2 : -1 : 2 : -2), eliminated e = -2
    ([1, 1, 2, -1, 0, 1], "d", 4),
])
def test_general_point_search_matches_fraction_reference(g, eliminated, H):
    # `eliminated` pins the coordinate of a case that is there for it
    curve = curve_from_field(UniPoly(g))
    assert eliminated in (None, curve.eliminated)
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
    # peak as H^2: the growth from H = 800 to 1600 would be about four times
    # that from 400 to 800, not two.  x^5 + 75x + 105 has many survivors,
    # t = 19/14 few, so there the sieve's own memory shows.  From H = 400 the
    # packing's tiles are full and the box is above _LIVENESS_CELLS, so the
    # growth is that of the packed rows alone; below, the peak moves between
    # the packing and the scan's tiles, which fill at different heights.
    curve = curve_from_field(UniPoly([105, 75, 0, 0, 0, 1]))
    low, high = _traced_peaks(lambda H: general_point_search(curve, H), (200, 400))
    assert high < 3 * low
    curve = curve_from_t(F(19, 14))
    p400, p800, p1600 = _traced_peaks(lambda H: point_search(curve, H), (400, 800, 1600))
    assert p1600 - p800 < 3 * (p800 - p400)


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
@given(_small_quintic_fields(), st.integers(1, 3))
def test_general_points_have_vanishing_trace_power_sums(field, H):
    # every point gives beta with Tr(beta) = Tr(beta^2) = Tr(beta^3) = 0,
    # that is a characteristic polynomial without x^4, x^3 and x^2 terms
    g, shift = field
    assume(g[0] != 0 and factor_over_Q(g).is_irreducible)
    points = general_point_search(curve_from_field(g), H)
    for pt in points:
        assert pt.height <= H
        cp = charpoly_mod(g, [F(v) for v in pt.coords])
        assert cp[4] == cp[3] == cp[2] == 0, (g, pt)
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


def test_contains_converts_nothing_per_call_and_checks_every_form(monkeypatch):
    # contains reads each form's stored integers: no table, form or Fraction
    # is built per call, and the forms are evaluated in turn up to the first
    # that does not vanish, so all of them at a point of the curve
    evaluated, converted = [], []
    monkeypatch.setattr(curve_module, "form_value",
                        lambda table, coords: evaluated.append(table) or form_value(table, coords))
    for name in ("__init__", "table"):
        method = getattr(MultiPoly, name)
        monkeypatch.setattr(MultiPoly, name, lambda self, *args, method=method, name=name:
                            converted.append(name) or method(self, *args))
    monkeypatch.setattr(curve_module, "Fraction",
                        lambda *args: converted.append("Fraction") or F(*args))

    def check(curve, coords, forms, on_curve):
        values = dict(zip(forms[0].vars, getattr(coords, "coords", coords)))
        vanish = [reference_evaluate(form, values) == 0 for form in forms]
        assert all(vanish) == on_curve
        expected = forms[:vanish.index(False) + 1] if False in vanish else forms
        for _ in range(3):
            evaluated.clear()
            assert curve.contains(coords) == on_curve
            # each table is a view of the form's own dict of numerators
            assert all(type(table) is type({}.items()) for table in evaluated)
            assert len(evaluated) == len(expected) and all(
                gc.get_referents(table)[0] is form.terms for table, form in zip(evaluated, expected))

    for t in (T65, F(-3125, 20736), F(7, 3)):
        curve = curve_from_t(t)
        converted.clear()
        forms = [curve.quadric, curve.cubic]
        # (0 : 0 : -5 : 2) is on every t-form quadric and off every cubic
        check(curve, CurvePoint((0, 0, -5, 2)), forms, False)
        check(curve, CurvePoint((0, 1, 0, 0)), forms, True)
        assert converted == []
    general = curve_from_field(UniPoly([-18, 0, 0, 0, 0, 1]))
    converted.clear()
    forms = [general.linear, general.quadric, general.cubic]
    check(general, (0, 1, 0, 0, 0), forms, True)
    check(general, (0, 3, -3, 1, 1), forms, True)
    check(general, (0, 3, -3, 1, 2), forms, False)
    # on the linear form and the quadric, off the cubic
    check(general, (0, 1, 1, 0, 0), forms, False)
    assert converted == []
