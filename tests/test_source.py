"""Rules about the package source that keep each rule in one place."""

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


def test_only_bounds_module_names_upper_bound_hint():
    # a reference is computed from the instance alone; another module that
    # passes a hint can feed a method's tour back into the bound
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "bounds.py" in modules
    owners = [p.name for p in modules if "upper_bound_hint" in p.read_text()]
    assert owners == ["bounds.py"]
