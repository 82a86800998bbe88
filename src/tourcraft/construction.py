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
    """Degrees, edge count and other-end mapping for O(1) subcycle prevention.

    While the partial solution is a disjoint union of paths, other_end[x]
    holds the opposite endpoint of x's path for every endpoint x (and x itself
    for singletons). Connecting the two ends of the same path is allowed only
    for the final, loop-closing edge (E == n - 1).
    """

    __slots__ = ("n", "other_end", "degree", "edge_count")

    def __init__(self, n: int):
        self.n = n
        self.other_end = np.arange(n)
        self.degree = np.zeros(n, dtype=int)
        self.edge_count = 0

    def can_connect(self, city: int, neighbor: int) -> bool:
        if self.degree[neighbor] >= 2:
            return False
        return self.other_end[city] != neighbor or self.edge_count == self.n - 1

    def connect(self, city: int, neighbor: int) -> None:
        assert city != neighbor
        assert self.degree[city] < 2 and self.can_connect(city, neighbor), \
            f"illegal connect {city}-{neighbor}"
        a = self.other_end[city]
        b = self.other_end[neighbor]
        self.other_end[a] = b
        self.other_end[b] = a
        self.degree[city] += 1
        self.degree[neighbor] += 1
        self.edge_count += 1


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


def run_main_step(step: int, matrix: DistanceMatrix, stats: CityStats,
                  combo: ExponentCombo, tracker: PathEndTracker,
                  edges: List[Tuple[int, int]]) -> int:
    """One main pass of the construction; returns neighbor evaluations made.

    Cities with degree < 2 are ranked once by the static priority (the
    statistics never change within a pass, so pre-sorting is equivalent to
    the repeated max-scan). A popped city still below `step` connections is
    joined to its best admissible neighbor.
    """
    if step not in (1, 2):
        raise ConfigError(f"step must be 1 or 2, got {step}")
    n = matrix.n
    d = matrix.heuristic

    p = _numerator_vector(stats, combo.alpha, combo.beta)
    candidates = np.flatnonzero(tracker.degree < 2)
    # descending priority, ties toward the lower city index
    order = candidates[np.lexsort((candidates, -p[candidates]))]

    num = _numerator_vector(stats, combo.delta, combo.epsilon)
    evaluations = 0
    indices = np.arange(n)
    for city in order:
        if tracker.degree[city] >= step:
            continue
        if combo.gamma == 0.0:
            scores = num.copy()
        else:
            drow = d[city]
            at_zero = np.inf if combo.gamma > 0.0 else 0.0
            with np.errstate(divide="ignore"):
                scores = np.where(drow > 0.0, num / drow ** combo.gamma, at_zero)
        mask = (tracker.degree < 2) & (indices != city)
        if tracker.edge_count != n - 1:
            mask[tracker.other_end[city]] = False
        evaluations += n - 1
        assert mask.any(), \
            f"no admissible neighbor for city {city} (E={tracker.edge_count})"
        scores[~mask] = -np.inf
        neighbor = int(np.argmax(scores))  # first max = lowest index on ties
        tracker.connect(int(city), neighbor)
        edges.append((int(city), neighbor))
    return evaluations


def _edges_to_order(edges: Sequence[Tuple[int, int]], n: int) -> List[int]:
    adj: List[List[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    order = [0]
    prev = -1
    cur = 0
    for _ in range(n - 1):
        nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
        order.append(nxt)
        prev, cur = cur, nxt
    return order


def construct_tour(matrix: DistanceMatrix, stats: CityStats,
                   combo: ExponentCombo) -> ConstructionResult:
    """Run both main passes on a fresh tracker and walk the resulting cycle."""
    n = matrix.n
    if n < 3:
        raise DegenerateInstanceError(f"tour construction needs n >= 3, got {n}")
    tracker = PathEndTracker(n)
    edges: List[Tuple[int, int]] = []
    evals = run_main_step(1, matrix, stats, combo, tracker, edges)
    assert int(tracker.degree.min()) >= 1, "step 1 left an isolated city"
    evals += run_main_step(2, matrix, stats, combo, tracker, edges)
    assert tracker.edge_count == n and int(tracker.degree.min()) == 2 \
        and int(tracker.degree.max()) == 2, "step 2 did not close a 2-regular cycle"
    order = _edges_to_order(edges, n)
    tour = make_tour(order, matrix)
    return ConstructionResult(tour=tour, combo=combo, neighbor_evaluations=evals)


def grid_search(matrix: DistanceMatrix, stats: CityStats,
                grid: Optional[Iterable[ExponentCombo]] = None,
                ) -> ConstructionResult:
    """Best construction over the exponent grid (first combo wins ties)."""
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
    best: Optional[ConstructionResult] = None
    total_evals = 0
    for combo in combos:
        result = construct_tour(matrix, stats, combo)
        total_evals += result.neighbor_evaluations
        if best is None or result.tour.length < best.tour.length:
            best = result
    assert best is not None
    best.neighbor_evaluations = total_evals
    return best
