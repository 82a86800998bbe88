"""Two-step priority-driven tour construction with exponent grid search.

Each city gets a static priority mu^alpha * sigma^beta from its distance
statistics; cities are processed in descending priority, and each one is
connected to the neighbor maximizing (mu^delta * sigma^epsilon) / d^gamma
among neighbors that keep the partial tour a disjoint set of paths. Step 1
gives every city at least one edge, step 2 raises every degree to exactly 2,
closing a single loop. The whole construction is repeated over a grid of
exponent combinations and the shortest tour wins.

Conventions (fixed for determinism):

* 0^0 = 1, so a zero exponent always neutralizes its factor.
* Zero distance with gamma > 0 scores +inf (coincident cities connect first).
* Ties in city priority break toward the lower city index; ties in neighbor
  score break toward the lower neighbor index; ties between equally good grid
  points break toward the earlier combo in lexicographic
  (alpha, beta, gamma, delta, epsilon) order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, DegenerateInstanceError
from .instance import CityStats, DistanceMatrix, Tour, make_tour

DEFAULT_EXPONENT_VALUES = (0.0, 0.5, 1.0)


@dataclass(frozen=True, order=True)
class ExponentCombo:
    """One grid point of the two priority power functions."""

    alpha: float
    beta: float
    gamma: float
    delta: float
    epsilon: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in self.as_tuple()):
            raise ConfigError(f"exponents must be finite, got {self.as_tuple()}")

    def as_tuple(self) -> Tuple[float, float, float, float, float]:
        return (self.alpha, self.beta, self.gamma, self.delta, self.epsilon)


def default_grid(values: Sequence[float] = DEFAULT_EXPONENT_VALUES,
                 ) -> List[ExponentCombo]:
    """Full Cartesian grid in lexicographic (alpha..epsilon) order."""
    if not values:
        raise ConfigError("exponent value set must be non-empty")
    vals = sorted(float(v) for v in values)
    return [ExponentCombo(*combo) for combo in itertools.product(vals, repeat=5)]


class PathEndTracker:
    """The partial tour: a disjoint union of paths, grown one edge at a time
    and closed into one loop by its final edge.

    While the partial tour is a disjoint union of paths, other_end[x]
    holds the opposite endpoint of x's path for every endpoint x (and x itself
    for singletons). Connecting the two ends of the same path is allowed only
    for the final, loop-closing edge (E == n - 1). `degree`, `other_end` and
    `adjacent` (city x's neighbours in slots 2x and 2x + 1, in connect order)
    are lists, read one city at a time; `open` is the boolean array of the
    cities with degree < 2.
    """

    __slots__ = ("n", "other_end", "degree", "adjacent", "open", "edge_count")

    def __init__(self, n: int):
        self.n = n
        self.other_end = list(range(n))
        self.degree = [0] * n
        self.adjacent = [-1] * (2 * n)
        self.open = np.ones(n, dtype=bool)
        self.edge_count = 0

    def can_connect(self, a: int, b: int) -> bool:
        """Whether edge a-b keeps the partial tour a set of paths, or is the
        edge that closes them into one loop."""
        if a == b or self.degree[a] >= 2 or self.degree[b] >= 2:
            return False
        return self.other_end[a] != b or self.edge_count == self.n - 1

    def connect(self, a: int, b: int) -> None:
        assert self.can_connect(a, b), f"illegal connect {a}-{b}"
        end_a = self.other_end[a]
        end_b = self.other_end[b]
        self.other_end[end_a] = end_b
        self.other_end[end_b] = end_a
        for x, y in ((a, b), (b, a)):
            self.adjacent[2 * x + self.degree[x]] = y
            self.degree[x] += 1
            if self.degree[x] == 2:
                self.open[x] = False
        self.edge_count += 1

    def cycle(self, start: int = 0) -> List[int]:
        """The closed loop's cities from `start`, first along its first
        edge."""
        assert self.edge_count == self.n, "the tour is not closed"
        adjacent = self.adjacent
        order = [start]
        prev, cur = start, adjacent[2 * start]
        for _ in range(self.n - 1):
            order.append(cur)
            nxt = adjacent[2 * cur]
            prev, cur = cur, (nxt if nxt != prev else adjacent[2 * cur + 1])
        return order


@dataclass
class ConstructionResult:
    """Tour plus the combo that produced it and some run accounting."""

    tour: Tour
    combo: ExponentCombo
    neighbor_evaluations: int = 0


def _numerator_vector(stats: CityStats, exp_mu: float, exp_sigma: float,
                      ) -> np.ndarray:
    n = len(stats.mu)
    out = np.ones(n)
    if exp_mu != 0.0:
        out = out * stats.mu ** exp_mu
    if exp_sigma != 0.0:
        out = out * stats.sigma ** exp_sigma
    return out


def _city_order(stats: CityStats, alpha: float, beta: float,
                ) -> Tuple[int, ...]:
    """Cities by descending eq. 1 priority, ties toward the lower index."""
    p = _numerator_vector(stats, alpha, beta)
    return tuple(np.lexsort((np.arange(len(p)), -p)).tolist())


def _nonpositive_cells(heuristic: np.ndarray) -> np.ndarray:
    """Flat indices of the cells where eq. 2 has no finite ratio."""
    return np.flatnonzero(~(heuristic > 0.0))


def _score_rows(matrix: DistanceMatrix, stats: CityStats, gamma: float,
                delta: float, epsilon: float,
                out: Optional[np.ndarray] = None,
                nonpositive: Optional[np.ndarray] = None) -> np.ndarray:
    """eq. 2 scores of every (city, neighbour) pair: row i holds
    mu_j^delta * sigma_j^epsilon / d_ij^gamma over j.

    Where d_ij <= 0 the score is +inf for gamma > 0 and 0 for gamma < 0.
    The matrix is filled into `out` (allocated if not given), with
    `nonpositive` the flat indices of those cells (found if not given).
    With gamma = 0 every row is the numerator: a read-only view is
    returned and nothing is filled.
    """
    num = _numerator_vector(stats, delta, epsilon)
    h = matrix.heuristic
    if gamma == 0.0:
        return np.broadcast_to(num, h.shape)
    if nonpositive is None:
        nonpositive = _nonpositive_cells(h)
    if out is None:
        out = np.empty_like(h)
    # 0/0 and x/0 arise only on the cells overwritten below
    with np.errstate(divide="ignore", invalid="ignore"):
        np.power(h, gamma, out=out)
        np.divide(num, out, out=out)
    out.flat[nonpositive] = np.inf if gamma > 0.0 else 0.0
    return out


def _connect_pass(step: int, order: Sequence[int], scores: np.ndarray,
                  tracker: PathEndTracker) -> int:
    """Join each city of `order` still below `step` connections to its best
    admissible neighbour, the first maximum of its row of `scores`; returns
    the neighbour evaluations made.

    Cities are visited once in descending static priority (the statistics
    never change within a pass, so pre-sorting is equivalent to the
    repeated max-scan).
    """
    degree, other_end, is_open = tracker.degree, tracker.other_end, tracker.open
    last = tracker.n - 1
    connected = 0
    for city in order:
        if degree[city] >= step:
            continue
        row = np.where(is_open, scores[city], -np.inf)
        row[city] = -np.inf
        if tracker.edge_count != last:
            row[other_end[city]] = -np.inf
        tracker.connect(city, int(row.argmax()))  # first max: lowest index
        connected += 1
    return connected * last


def construct_tour(matrix: DistanceMatrix, stats: CityStats,
                   combo: ExponentCombo,
                   order: Optional[Sequence[int]] = None,
                   scores: Optional[np.ndarray] = None) -> ConstructionResult:
    """Run both main passes on a fresh tracker and walk the resulting cycle.

    `order` (the cities by descending eq. 1 priority) and `scores` (row i
    holds city i's eq. 2 neighbour scores) are those of `combo`; they are
    computed here unless given, as `grid_search` gives them to share them
    between grid points.
    """
    n = matrix.n
    if n < 3:
        raise DegenerateInstanceError(f"tour construction needs n >= 3, got {n}")
    if order is None:
        order = _city_order(stats, combo.alpha, combo.beta)
    if scores is None:
        scores = _score_rows(matrix, stats, combo.gamma, combo.delta,
                             combo.epsilon)
    tracker = PathEndTracker(n)
    evals = _connect_pass(1, order, scores, tracker)
    assert min(tracker.degree) >= 1, "step 1 left an isolated city"
    evals += _connect_pass(2, order, scores, tracker)
    assert tracker.edge_count == n and tracker.degree == [2] * n, \
        "step 2 did not close a 2-regular cycle"
    tour = make_tour(tracker.cycle(), matrix)
    return ConstructionResult(tour=tour, combo=combo, neighbor_evaluations=evals)


def grid_search(matrix: DistanceMatrix, stats: CityStats,
                grid: Optional[Iterable[ExponentCombo]] = None,
                ) -> ConstructionResult:
    """Best construction over the exponent grid (first combo wins ties).

    A construction depends on its combo only through the city order of
    (alpha, beta) and the score matrix of (gamma, delta, epsilon). Each
    distinct pair of the two is constructed once, for the first grid point
    that has it, and every later grid point with the same pair has the same
    tour. Score matrices are filled one at a time into one buffer.
    `neighbor_evaluations` counts the constructions actually run.
    """
    combos = list(grid) if grid is not None else default_grid()
    if not combos:
        raise ConfigError("exponent grid must be non-empty")
    for combo in combos:
        for exp, base in ((combo.alpha, stats.mu), (combo.beta, stats.sigma),
                          (combo.delta, stats.mu), (combo.epsilon, stats.sigma)):
            if exp < 0 and np.any(base == 0.0):
                raise ConfigError(
                    f"negative exponent {exp} with a zero statistic would "
                    f"divide by zero")
    # (gamma, delta, epsilon) -> {city order: index of its first grid point};
    # orders are compared as exact index sequences, not by their exponents
    orders = {}
    first = {}
    for i, combo in enumerate(combos):
        ab = (combo.alpha, combo.beta)
        if ab not in orders:
            orders[ab] = _city_order(stats, combo.alpha, combo.beta)
        first.setdefault(combo.as_tuple()[2:], {}).setdefault(orders[ab], i)
    h = matrix.heuristic
    nonpositive = _nonpositive_cells(h)
    buffer = np.empty_like(h)
    best: Optional[ConstructionResult] = None
    best_index = -1
    total_evals = 0
    for (gamma, delta, epsilon), runs in first.items():
        scores = _score_rows(matrix, stats, gamma, delta, epsilon, buffer,
                             nonpositive)
        for order, i in runs.items():
            result = construct_tour(matrix, stats, combos[i], order, scores)
            total_evals += result.neighbor_evaluations
            # shortest tour, earliest grid point on ties: what a scan in grid
            # order that keeps each strictly shorter tour picks
            if best is None or \
                    (result.tour.length, i) < (best.tour.length, best_index):
                best, best_index = result, i
    assert best is not None
    best.neighbor_evaluations = total_evals
    return best
