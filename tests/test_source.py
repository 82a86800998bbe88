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
