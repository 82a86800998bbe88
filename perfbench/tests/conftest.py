import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture
def bench_module(monkeypatch):
    """tourcraft.bench, with the solver attributes a workload's capture
    replaces restored after the test."""
    import tourcraft.bench
    from perfbench.workloads import TourCapture
    for attr in TourCapture.SOLVERS:
        monkeypatch.setattr(tourcraft.bench, attr,
                            getattr(tourcraft.bench, attr))
    return tourcraft.bench
