"""Module boundaries: no module reaches into a sibling's private names, the
package itself imports none of its modules, and the names and form data that
the benchmark reads from the package are still there."""

import ast
import importlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import quintic_trinomials

PACKAGE_DIR = Path(quintic_trinomials.__file__).parent


def _private_imports(path):
    """(line, module, name) of each underscore-prefixed name imported from a package module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.lineno, node.module or ".", alias.name)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").startswith("quintic_trinomials"))
            for alias in node.names if alias.name.startswith("_")]


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) > 10
    crossings = [f"{path.name}:{line}: from {module} import {name}"
                 for path in modules for line, module, name in _private_imports(path)]
    assert crossings == []


def test_the_package_imports_no_module():
    # a fresh interpreter: importing one layer loads only it and the layers below
    code = ("import sys, quintic_trinomials.numberfield; print(sorted(name for name in "
            "('curve', 'surface', 'elliptic') if 'quintic_trinomials.' + name in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}).stdout
    assert out.strip() == "[]"


BENCH_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracer_targets():
    """(module, attribute path) of each entry of the benchmark tracer's TARGETS,
    read from its source without importing it."""
    tree = ast.parse(BENCH_TRACING.read_text(), filename=str(BENCH_TRACING))
    value = next(node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and any(getattr(target, "id", None) == "TARGETS" for target in node.targets))
    return [tuple(ast.literal_eval(item) for item in entry.elts[:2]) for entry in value.elts]


@pytest.mark.skipif(not BENCH_TRACING.exists(), reason="no benchmark tracer in this checkout")
def test_every_benchmark_tracer_target_is_defined_where_the_tracer_looks():
    # the tracer takes vars(owner)[attr], so a method must be defined on the
    # class itself and a function in its module, not only reachable from them
    targets = _tracer_targets()
    assert ("multipoly", "MultiPoly.partial_evaluate") in targets and len(targets) > 10
    missing = []
    for module_name, path in targets:
        owner = importlib.import_module(f"quintic_trinomials.{module_name}")
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name, None)
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(f"{module_name}.{path}")
    assert missing == []


def _terms_value(terms, coords):
    """A form's value from its `.terms` items, in Fractions, as the benchmark's
    checks evaluate it."""
    return sum(Fraction(k) * math.prod(Fraction(v) ** e for v, e in zip(coords, exps))
               for exps, k in terms.items())


@pytest.mark.skipif(not BENCH_TRACING.exists(), reason="no benchmark tracer in this checkout")
def test_form_terms_vanish_exactly_on_the_curve_as_the_benchmark_reads_them():
    from quintic_trinomials.curve import curve_from_field, curve_from_t
    from quintic_trinomials.qpoly import UniPoly

    curve = curve_from_t(Fraction(6, 5))
    for point, on in (((88, 70, 75, -60), True), ((88, 70, 75, -61), False)):
        values = [_terms_value(form.terms, point) for form in (curve.quadric, curve.cubic)]
        assert (not any(values)) == on
    general = curve_from_field(UniPoly([-18, 0, 0, 0, 0, 1]))
    for point, on in (((0, 3, -3, 1, 1), True), ((0, 3, -3, 1, 2), False)):
        values = [_terms_value(form.terms, point)
                  for form in (general.linear, general.quadric, general.cubic)]
        assert (not any(values)) == on
