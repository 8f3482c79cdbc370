"""Requests of each workload: what they run, and how their outputs are checked.

A request is timed from the first library call to its last (`execute`);
checks run afterwards, untimed (`check`).  Curve and field construction
happen inside requests because the CLI pays them on every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple

from quintic_trinomials import curve as qc
from quintic_trinomials import numberfield as qn
from quintic_trinomials import trinomial as qt
from quintic_trinomials.qpoly import UniPoly

import checks
import inputs

ROOT = Path(__file__).resolve().parent.parent
PRIME_BOUND = 500
# `quintrin --jobs 2 verify paper` through a launcher that only adds speed
# ticks and timings (bench/run.py --paper-child).
PAPER_COMMAND = (str(Path(__file__).resolve().parent / "run.py"), "--paper-child")
# sha256 of the `verify paper` report; the report is byte-identical across
# runs and parallelism degrees, so any other digest is a wrong output.
PAPER_REPORT_SHA256 = "b8719a29a1b58dffc8f79802a7c01a4429827a1b7bf59d19ddb7e886332d35be"
GALOIS_GROUPS = {"C5", "D10", "F20", "A5", "S5"}


@dataclass(frozen=True)
class Request:
    kind: str     # search, general, rif, classify or paper
    label: str    # the latency group the request is reported under
    args: tuple
    jobs: int = 1

    @property
    def key(self) -> str:
        """The request's inputs, without jobs: outputs must not depend on jobs."""
        return json.dumps([self.kind, self.label.split(".")[0], [_jsonable(a) for a in self.args]])


@dataclass
class Outcome:
    canonical: str
    counts: Dict[str, int] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    undecided: bool = False


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, tuple):
        return [_jsonable(v) for v in x]
    return x


def library_charpoly(g, coords) -> Tuple[int, ...]:
    """Integer characteristic polynomial of an element of Z[alpha], via the library."""
    beta = qn.NumberField(UniPoly(list(g))).element(coords)
    return tuple(int(c) for c in beta.char_poly().coeffs)


def build_requests(workload: str, seed: int, jobs1_only: bool = False) -> List[Request]:
    """The request list of one pass; jobs1_only drops the jobs=2 searches (traced runs)."""
    if workload == "deep-search":
        jobs = (1,) if jobs1_only else (1, 2)
        return [Request("search", f"search.j{j}", (t, h), j)
                for t, h in inputs.deep_search_inputs(seed) for j in jobs]
    if workload == "sweep":
        sweep = inputs.sweep_inputs(seed)
        return ([Request("search", "tform", (t, h)) for t, h in sweep.tform]
                + [Request("general", "general", (g, h)) for g, h in sweep.general])
    if workload == "field-queries":
        fq = inputs.field_query_inputs(seed, library_charpoly)
        return ([Request("rif", f"rif.{q.category}", (q.field, q.poly)) for q in fq.rif]
                + [Request("classify", "classify", ab) for ab in fq.classify])
    if workload == "paper":
        return [Request("paper", "paper", (), inputs.PAPER_JOBS)]
    raise ValueError(f"unknown workload {workload}")


# ---------------------------------------------------------------------------
# execution (timed)
# ---------------------------------------------------------------------------

def _search(req):
    t, height = req.args
    curve = qc.curve_from_t(t)
    result = qc.point_search(curve, height, jobs=req.jobs)
    images = []
    for pt in result.points:
        try:
            images.append(qc.point_to_trinomial(curve, pt))
        except qc.DegeneratePoint:
            images.append(None)
    return curve, result, images


def _general(req):
    g, height = req.args
    gc = qc.curve_from_field(UniPoly(list(g)))
    return gc, qc.general_point_search(gc, height)


def _rif(req):
    g, f = req.args
    field_ = qn.NumberField(UniPoly(list(g)))
    return qn.has_root_in_field(UniPoly(list(f)), field_)


def _classify(req):
    tri = qt.Trinomial(*req.args)
    return qt.equiv_class(tri), qt.trinomial_disc(tri), qt.galois_type_heuristic(tri, PRIME_BOUND)


def paper_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _paper(req):
    return subprocess.run([sys.executable, *PAPER_COMMAND], cwd=ROOT, env=paper_env(),
                          capture_output=True, text=True, timeout=170)


_EXECUTE = {"search": _search, "general": _general, "rif": _rif,
            "classify": _classify, "paper": _paper}


def execute(req: Request):
    """(seconds, raw result) of one request."""
    start = time.perf_counter()
    raw = _EXECUTE[req.kind](req)
    return time.perf_counter() - start, raw


# ---------------------------------------------------------------------------
# checks (untimed)
# ---------------------------------------------------------------------------

def _check_search(req, raw) -> Outcome:
    t, height = req.args
    curve, result, images = raw
    g = (t, t, 0, 0, 0, 1)
    out = Outcome("")
    lines = []
    classes = {}
    for pt, image in zip(result.points, images):
        coords = pt.coords
        if max(abs(v) for v in coords) > height or not checks.is_primitive_normalized(coords):
            out.problems.append(f"{coords}: not a normalized point of height <= {height}")
        if checks.form_value(curve.quadric.terms, coords) or checks.form_value(curve.cubic.terms, coords):
            out.problems.append(f"{coords}: off the quadric or the cubic")
        a = Fraction(coords[0])
        tri = checks.trinomial_of((a, *coords[1:], 5 * a / (4 * t)), g)
        if tri is None:
            out.problems.append(f"{coords}: characteristic polynomial is not a trinomial")
        if image is None:
            out.problems.append(f"{coords}: reported degenerate")
            lines.append(json.dumps({"point": list(coords), "degenerate": True}))
            continue
        gamma, delta = image.trinomial.a, image.trinomial.b
        if tri is not None and (gamma, delta) != tri:
            out.problems.append(f"{coords}: trinomial {gamma}, {delta} but charpoly gives {tri}")
        cls = image.cls
        if gamma and delta and (cls.kind, cls.value) != ("generic", gamma ** 5 / delta ** 4):
            out.problems.append(f"{coords}: class {cls} is not t = a^5/b^4")
        classes[coords] = (cls.kind, cls.value)
        lines.append(json.dumps({"point": list(coords), "trinomial": [str(gamma), str(delta)],
                                 "class": [cls.kind, None if cls.value is None else str(cls.value)]}))
    for pt in result.degenerate:
        lines.append(json.dumps({"point": list(pt.coords), "degenerate": True}))
    if t == inputs.ANCHOR_T and height == inputs.DEEP_HEIGHT and classes != inputs.ANCHOR_POINTS:
        out.problems.append(f"t = 6/5 at height 200 found {sorted(classes)}, not the paper's five points")
    group = "tform" if req.label == "tform" else f"j{req.jobs}"
    out.counts = {f"cells.{group}": checks.half_box_cells(height),
                  f"points.{group}": len(result.points),
                  f"degenerate.{group}": len(result.degenerate)}
    out.canonical = "\n".join(lines)
    return out


def _check_general(req, raw) -> Outcome:
    g, height = req.args
    gc, points = raw
    out = Outcome("")
    for pt in points:
        coords = pt.coords
        if max(abs(v) for v in coords) > height or not checks.is_primitive_normalized(coords):
            out.problems.append(f"{coords}: not a normalized point of height <= {height}")
        if any(checks.form_value(form.terms, coords) for form in (gc.linear, gc.quadric, gc.cubic)):
            out.problems.append(f"{coords}: off the general curve")
        if checks.trinomial_of(coords, g) is None:
            out.problems.append(f"{coords}: characteristic polynomial is not a trinomial")
    out.canonical = json.dumps([list(pt.coords) for pt in points])
    out.counts = {"general_cells": (2 * height + 1) ** 3, "general_points": len(points)}
    return out


def _check_rif(req, raw) -> Outcome:
    g, f = req.args
    category = req.label.split(".")[1]
    out = Outcome("", {f"rif.{category}.{raw.status}": 1}, [], raw.status == "inconclusive")
    witness = None
    if raw.status == "certified":
        witness = [str(c) for c in raw.witness.coords]
        if not checks.evaluates_to_zero(f, raw.witness.coords, g):
            out.problems.append(f"witness {witness} is not a root of {f}")
    elif raw.status == "absent" and category == "hit":
        out.problems.append(f"{f} has a known root in Q[x]/{g} but was reported absent")
    elif raw.status not in ("absent", "inconclusive"):
        out.problems.append(f"unknown status {raw.status}")
    out.canonical = json.dumps({"status": raw.status, "root": witness})
    return out


def _check_classify(req, raw) -> Outcome:
    a, b = req.args
    cls, disc, (name, evidence) = raw
    out = Outcome("", {f"classify.{name}": 1})
    expected_disc = 256 * Fraction(a) ** 5 + 3125 * Fraction(b) ** 4
    if disc != expected_disc:
        out.problems.append(f"discriminant {disc}, expected {expected_disc}")
    expected_cls = ("generic", Fraction(a) ** 5 / Fraction(b) ** 4) if a else ("pure", cls.value)
    if (cls.kind, cls.value) != expected_cls:
        out.problems.append(f"class {cls}, expected {expected_cls}")
    if name not in GALOIS_GROUPS or evidence.disc_is_square != checks.is_square(expected_disc):
        out.problems.append(f"galois type {name} with square flag {evidence.disc_is_square}")
    if any(sum(ct) != 5 for ct in evidence.cycle_types):
        out.problems.append(f"cycle types {evidence.cycle_types} are not partitions of 5")
    out.canonical = json.dumps([cls.kind, str(cls.value), str(disc), name,
                                [list(ct) for ct in evidence.cycle_types], evidence.primes_used])
    return out


def _check_paper(req, raw) -> Outcome:
    report = raw.stdout
    out = Outcome(report, {"criteria_passed": report.count("  PASS  ")})
    digest = hashlib.sha256(report.encode()).hexdigest()
    if raw.returncode != 0 or not report.endswith("10/10 criteria passed\n"):
        out.problems.append(f"verify paper exited {raw.returncode}: {report[-200:]!r} {raw.stderr[-200:]!r}")
    elif digest != PAPER_REPORT_SHA256:
        out.problems.append(f"report digest {digest} differs from the recorded report")
    return out


_CHECK = {"search": _check_search, "general": _check_general, "rif": _check_rif,
          "classify": _check_classify, "paper": _check_paper}


def check(req: Request, raw) -> Outcome:
    return _CHECK[req.kind](req, raw)

