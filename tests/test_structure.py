"""Module boundaries: no module reaches into a sibling's private names, and the
package itself imports none of its modules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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
