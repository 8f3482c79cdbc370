"""In-memory spans around calls into the library's public functions.

The tracer wraps functions from outside the package: it replaces each
target in its defining module and in every package module that imported
it by name (so `numberfield.complex_roots` and `report.point_search` are
traced too), and restores the originals on exit.  Nothing under `src/`
changes.  Spans are only visible in this process, so a traced run must
use jobs=1: work inside ProcessPoolExecutor workers is not recorded.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from checks import half_box_cells

PACKAGE = "quintic_trinomials"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: str
    info: object = None


def _status(args, kwargs, result):
    return result.status


def _not_none(args, kwargs, result):
    return result is not None


def _height_arg(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs["height_bound"]


def _search_info(args, kwargs, result):
    return _height_arg(args, kwargs, result), len(result.points)


# (module, attribute path, span info recorder or None)
TARGETS = (
    ("curve", "curve_from_t", None),
    ("curve", "curve_from_field", None),
    ("curve", "point_search", _search_info),
    ("curve", "general_point_search", _height_arg),
    ("curve", "point_to_trinomial", None),
    ("multipoly", "MultiPoly.partial_evaluate", None),
    ("numberfield", "NumberField.__init__", None),
    ("numberfield", "has_root_in_field", _status),
    ("numberfield", "charpoly_mod", None),
    ("roots", "complex_roots", None),
    ("roots", "reconstruct_float", _not_none),
    ("factor", "factor_over_Q", None),
    ("factor", "factor_mod_p", None),
    ("factor", "cycle_type_mod_p", None),
    ("qpoly", "count_real_roots", None),
    ("trinomial", "equiv_class", None),
    ("trinomial", "trinomial_disc", None),
    ("trinomial", "galois_type_heuristic", None),
    ("surface", "on_surface", None),
    ("report", "run_criteria", None),
    ("report", "run_acceptance", None),
)


class Tracer:
    """Records spans while installed; `with tracer:` installs and restores."""

    def __init__(self):
        self.spans: List[Span] = []
        self.request = "setup"
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    def _wrap(self, name: str, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else None, self.request)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    span.info = info(args, kwargs, result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def __enter__(self):
        # Import every target module first: a module imported while the
        # wrappers are installed would keep a wrapper after they are removed.
        for module_name, _, _ in TARGETS:
            importlib.import_module(f"{PACKAGE}.{module_name}")
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module_name, path, info in TARGETS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner)[attr]
            wrapper = self._wrap(f"{module_name}.{attr}", original, info)
            holders = [owner] if owner_name else [m for m in modules if vars(m).get(attr) is original]
            for holder in holders:
                setattr(holder, attr, wrapper)
                self._undo.append(functools.partial(setattr, holder, attr, original))
        return self

    def __exit__(self, *exc):
        while self._undo:
            self._undo.pop()()
        return False


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer calls, self times and ratios from a list of spans.

    A span's self time is its duration minus the durations of its direct
    children; children run synchronously inside their parent, so they
    never overlap.
    """
    child_time = defaultdict(float)
    children: Dict[int, List[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
            children[s.parent].append(i)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    cells = general_cells = points = 0
    useful_reconstructions = 0
    for i, s in enumerate(spans):
        keys = [s.name]
        if s.name == "numberfield.has_root_in_field" and s.info is not None:
            keys.append(f"{s.name}.{s.info}")
        for key in keys:
            calls[key] += 1
            self_s[key] += (s.end - s.start) - child_time[i]
            total_s[key] += s.end - s.start
        if s.name == "curve.point_search" and s.info is not None:
            height, found = s.info
            cells += half_box_cells(height)
            points += found
        elif s.name == "curve.general_point_search" and s.info is not None:
            general_cells += (2 * s.info + 1) ** 3
        elif s.name == "numberfield.has_root_in_field" and s.info == "certified":
            # The witness comes from the last assignment tried: its five
            # coordinate reconstructions are the ones that verified.
            recon = [spans[c] for c in children[i] if spans[c].name == "roots.reconstruct_float"]
            useful_reconstructions += sum(1 for c in recon[-5:] if c.info)

    def ratio(num, den):
        return num / den if den else 0.0

    out: Dict[str, float] = {}
    for name in ("curve.point_search", "curve.point_to_trinomial", "multipoly.partial_evaluate",
                 "numberfield.charpoly_mod", "roots.complex_roots", "factor.factor_over_Q",
                 "factor.factor_mod_p", "qpoly.count_real_roots", "trinomial.galois_type_heuristic"):
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.calls"] = calls[name]
    for name in ("curve.curve_from_t", "curve.curve_from_field", "curve.general_point_search",
                 "surface.on_surface", "report.run_criteria"):
        out[f"{name}.self_s"] = self_s[name]
    for status in ("certified", "absent", "inconclusive"):
        key = f"numberfield.has_root_in_field.{status}"
        out[f"{key}.self_s"] = self_s[key]
        out[f"{key}.calls"] = calls[key]
    out["curve.cells"] = cells
    out["curve.cells_per_s"] = ratio(cells, self_s["curve.point_search"])
    out["curve.points_found"] = points
    out["curve.general_cells"] = general_cells
    out["numberfield.field_init_s"] = total_s["numberfield.__init__"]  # NumberField.__init__
    out["roots.complex_roots.calls_per_decision"] = ratio(
        calls["roots.complex_roots"], calls["numberfield.has_root_in_field"])
    out["roots.reconstruct_float.calls"] = calls["roots.reconstruct_float"]
    out["roots.reconstruct_float.useful_ratio"] = ratio(
        useful_reconstructions, calls["roots.reconstruct_float"])
    out["factor.cycle_type_mod_p.calls"] = calls["factor.cycle_type_mod_p"]
    out["trinomial.equiv_class.calls"] = calls["trinomial.equiv_class"]
    return out
