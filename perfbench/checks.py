"""Output checks that share no code with tourcraft.

Tour lengths, tour files and lower bounds are recomputed here from the raw
coordinates with the TSPLIB rounding rules, so a defect in the program
cannot hide behind its own `validate_tour` or distance code.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from typing import List, Sequence, Tuple

import numpy as np

# the default exponent grid {0, 0.5, 1}^5
GRID = frozenset(itertools.product((0.0, 0.5, 1.0), repeat=5))


def read_tsplib_coords(text: str) -> Tuple[str, np.ndarray]:
    """EDGE_WEIGHT_TYPE and the (n, 2) coordinates of a TSPLIB file."""
    kind = ""
    coords: List[Tuple[float, float]] = []
    in_coords = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line == "EOF":
            break
        if in_coords:
            _, x, y = line.split()[:3]
            coords.append((float(x), float(y)))
        elif line.upper().startswith("NODE_COORD_SECTION"):
            in_coords = True
        elif line.upper().startswith("EDGE_WEIGHT_TYPE"):
            kind = line.split(":", 1)[1].strip().upper()
    return kind, np.array(coords, dtype=float)


def edge_lengths(kind: str, coords: np.ndarray, a, b) -> np.ndarray:
    """TSPLIB distances between the cities a[k] and b[k]."""
    diff = coords[a] - coords[b]
    sq = diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1]
    if kind == "EUC_2D":
        return np.floor(np.sqrt(sq) + 0.5)
    if kind == "CEIL_2D":
        return np.ceil(np.sqrt(sq))
    if kind == "ATT":
        r = np.sqrt(sq / 10.0)
        t = np.floor(r + 0.5)
        return np.where(t >= r, t, t + 1.0)
    raise ValueError(f"no distance rule for {kind!r}")


def tour_length(order: Sequence[int], kind: str,
                coords: np.ndarray) -> Tuple[List[str], float]:
    """Problems with `order` as a tour of the instance, and its length."""
    idx = np.asarray(order)
    n = len(coords)
    if idx.shape != (n,) or not np.array_equal(np.sort(idx), np.arange(n)):
        return [f"order is not a permutation of 0..{n - 1}"], math.nan
    return [], float(edge_lengths(kind, coords, idx, np.roll(idx, -1)).sum())


def same_length(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-9)


def one_tree_bound(kind: str, coords: np.ndarray) -> float:
    """Minimum 1-tree (no potentials): a lower bound on every tour.

    Prim over cities 1..n-1, rows computed on the fly in O(n) memory, plus
    the two shortest edges at city 0.
    """
    n = len(coords)
    everyone = np.arange(n)
    best = edge_lengths(kind, coords, np.full(n, 1), everyone)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[:2] = True
    total = 0.0
    for _ in range(n - 2):
        j = int(np.argmin(np.where(in_tree, np.inf, best)))
        total += best[j]
        in_tree[j] = True
        best = np.minimum(best, edge_lengths(kind, coords, np.full(n, j),
                                             everyone))
    at_zero = edge_lengths(kind, coords, np.zeros(n - 1, dtype=int),
                           everyone[1:])
    return total + float(np.partition(at_zero, 1)[:2].sum())


def read_tour_file(text: str) -> List[int]:
    """0-based order from a TSPLIB .tour file."""
    lines = [line.strip() for line in text.splitlines()]
    start = lines.index("TOUR_SECTION") + 1
    order: List[int] = []
    for line in lines[start:]:
        if line == "-1":
            return order
        order.append(int(line) - 1)
    raise ValueError("tour section has no -1 terminator")


def csv_digest(csv_text: str) -> str:
    """sha256 of a bench CSV with its last column, wall_millis, removed."""
    stripped = "\n".join(line.rsplit(",", 1)[0]
                         for line in csv_text.splitlines())
    return hashlib.sha256(stripped.encode()).hexdigest()
