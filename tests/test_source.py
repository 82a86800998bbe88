"""Rules about the package source that keep each rule in one place."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import tourcraft as tc

PACKAGE = Path(tc.__file__).resolve().parent


def test_only_errors_module_names_floating_point_error():
    # a float out of range becomes a typed error through errors._FloatErrors;
    # another module that names FloatingPointError has its own copy
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "errors.py" in modules
    owners = [p.name for p in modules
              if "FloatingPointError" in p.read_text()]
    assert owners == ["errors.py"]


def test_only_instance_module_calls_setflags():
    # every array an Instance or DistanceMatrix keeps is frozen by the one
    # intake in instance.py; another module that freezes arrays has its own
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "instance.py" in modules
    owners = [p.name for p in modules if "setflags" in p.read_text()]
    assert owners == ["instance.py"]


def test_only_errors_module_checks_real_numbers():
    # a finite real number is errors._real; another module that imports
    # numbers or calls math.isfinite has its own rule for one
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "errors.py" in modules
    owners = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Import)
                    and any(a.name == "numbers" for a in node.names)
                    or isinstance(node, ast.ImportFrom)
                    and (node.module == "numbers" or node.module == "math"
                         and any(a.name == "isfinite" for a in node.names))
                    or isinstance(node, ast.Attribute)
                    and node.attr == "isfinite"
                    and ast.unparse(node.value) == "math"):
                owners.add(path.name)
    assert sorted(owners) == ["errors.py"]


def test_only_instance_module_sorts():
    # every (value, index) ranking is instance._ranked, one stable argsort;
    # another module that sorts can break its ties its own way
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "instance.py" in modules
    owners = [p.name for p in modules
              if "argsort" in p.read_text() or "lexsort" in p.read_text()]
    assert owners == ["instance.py"]


def test_only_bounds_module_names_upper_bound_hint():
    # a reference is computed from the instance alone; another module that
    # passes a hint can feed a method's tour back into the bound
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "bounds.py" in modules
    owners = [p.name for p in modules if "upper_bound_hint" in p.read_text()]
    assert owners == ["bounds.py"]


def test_only_instance_module_decides_what_a_city_index_is():
    # one rule for a city index, errors._integer's type test: instance._city
    # checks one and instance._tour_order a whole order; a module with its
    # own check or its own operator.index can take a bool or 2.0 as a city
    modules = sorted(PACKAGE.glob("*.py"))
    assert {PACKAGE / "instance.py", PACKAGE / "baselines.py",
            PACKAGE / "svgplot.py"} <= set(modules)
    defined, imported = set(), set()
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in (
                    "_city", "_tour_order"):
                defined.add((path.name, node.name))
            if isinstance(node, ast.ImportFrom) and node.module == "instance":
                imported.update((path.name, alias.name)
                                for alias in node.names)
    assert defined == {("instance.py", "_city"),
                       ("instance.py", "_tour_order")}
    assert {("baselines.py", "_city"),
            ("svgplot.py", "_tour_order")} <= imported
    owners = [p.name for p in modules
              if re.search(r"\boperator\b", p.read_text())]
    assert owners == ["instance.py"]


def test_imports_are_module_level_and_skip_the_construction():
    # the baselines and the bounds read the partial tour and the tie rule
    # from instance.py, not from the construction above them, and every
    # import is at module level, where an import cycle fails at once
    modules = sorted(PACKAGE.glob("*.py"))
    assert {PACKAGE / "baselines.py", PACKAGE / "bounds.py"} <= set(modules)
    problems = set()
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                problems.update(
                    f"{path.name}:{node.lineno} imports inside a function"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom)))
        if path.name in ("baselines.py", "bounds.py"):
            problems.update(
                f"{path.name}:{node.lineno} imports the construction"
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and re.search(r"\bconstruction\b", ast.unparse(node)))
    assert sorted(problems) == []


def test_cli_import_leaves_out_network_modules():
    # xml.sax.saxutils, say for escaping, imports urllib.request and with it
    # http.client, ssl and email: about 3 MB more resident at every start
    heavy = ["xml.sax", "urllib.request", "http.client", "ssl", "email"]
    code = ("import sys, tourcraft.cli; "
            f"print(sorted(m for m in {heavy!r} if m in sys.modules))")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
