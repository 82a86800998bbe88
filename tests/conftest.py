import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tourcraft as tc

DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "tsplib"


def instance_path(name: str) -> Path:
    return DATA_DIR / f"{name}.tsp"


def load_instance(name: str) -> tc.Instance:
    path = instance_path(name)
    if not path.exists():
        pytest.fail(
            f"instance data {name!r} is not available under {DATA_DIR}; "
            f"drop the TSPLIB file there to run this check "
            f"(see README, 'Benchmark data')")
    return tc.parse_tsplib(path.read_text())


def random_matrix(n: int, seed: int, box: float = 1000.0) -> tc.DistanceMatrix:
    inst = tc.generate_random_euclidean(n, seed, box)
    return tc.build_distance_matrix(inst)


def unrounded_matrix(coords) -> tc.DistanceMatrix:
    """Exact Euclidean distances, bypassing the TSPLIB rounding rules."""
    pts = np.asarray(coords, dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(d, 0.0)
    return tc.DistanceMatrix(len(pts), d)


def memory_slack(n: int) -> int:
    """Bytes a peak-memory check allows beyond its n x n arrays: numpy's
    iteration buffers (64 KiB per buffered operand, two of them) and the
    per-city vectors, lists and tuples of a construction."""
    return 2 * 65536 + 800 * n


def traced_peak(fn) -> int:
    """Peak bytes that numpy and Python allocate while `fn()` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def brute_force_optimum(matrix: tc.DistanceMatrix) -> float:
    """Independent oracle: enumerate all (n-1)!/2 distinct tours."""
    n = matrix.n
    best = float("inf")
    for perm in itertools.permutations(range(1, n)):
        if perm[0] > perm[-1]:
            continue  # each tour appears once per direction
        length = tc.tour_length((0,) + perm, matrix)
        if length < best:
            best = length
    return best


@pytest.fixture
def square_exact() -> tc.DistanceMatrix:
    """Unit square corners with exact (unrounded) Euclidean distances."""
    return unrounded_matrix([(0, 0), (1, 0), (1, 1), (0, 1)])


@pytest.fixture
def triangle_345() -> tc.DistanceMatrix:
    """Explicit 3-4-5 triangle distances."""
    d = np.array([[0.0, 3.0, 4.0], [3.0, 0.0, 5.0], [4.0, 5.0, 0.0]])
    return tc.DistanceMatrix(3, d)
