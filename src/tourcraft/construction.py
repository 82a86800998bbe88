"""Two-step priority-driven tour construction with exponent grid search.

Each city gets a static priority mu^alpha * sigma^beta from its distance
statistics; cities are processed in descending priority, and each one is
connected to the neighbor maximizing (mu^delta * sigma^epsilon) / d^gamma
among neighbors that keep the partial tour a disjoint set of paths. Step 1
gives every city at least one edge, step 2 raises every degree to exactly 2,
closing a single loop. The whole construction is repeated over a grid of
exponent combinations and the shortest tour wins.

Each step reads a short candidate list instead of the whole row of
neighbour scores, with the same result. A score matrix is ranked once per
grid and shared by every city order run against it: row i lists the
neighbours scoring strictly above the row's (K+1)-th largest score (K =
CANDIDATES), ordered by (-score, index). The strict cut keeps or drops a
tie as a whole, so when a listed neighbour is admissible, the first one in
list order is exactly the first maximum of the masked row; when every
listed neighbour is closed, the step masks and scans the whole row. With
gamma = 0 every row is the same numerator vector, so one ranking serves
every row and each pass walks it from its first city below degree 2.

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
CANDIDATES = 8  # K: neighbours ranked per score row
CANDIDATE_BLOCK = 64  # score rows ranked at a time


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
        other_end, degree, adjacent = self.other_end, self.degree, self.adjacent
        end_a = other_end[a]
        end_b = other_end[b]
        other_end[end_a] = end_b
        other_end[end_b] = end_a
        deg = degree[a]
        adjacent[2 * a + deg] = b
        degree[a] = deg + 1
        if deg:
            self.open[a] = False
        deg = degree[b]
        adjacent[2 * b + deg] = a
        degree[b] = deg + 1
        if deg:
            self.open[b] = False
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
    """mu^exp_mu * sigma^exp_sigma per city, with 0^0 = 1; a negative
    exponent on a zero statistic is a ConfigError."""
    out = np.ones(len(stats.mu))
    for base, exp in ((stats.mu, exp_mu), (stats.sigma, exp_sigma)):
        if exp != 0.0:
            if exp < 0 and np.any(base == 0.0):
                raise ConfigError(
                    f"negative exponent {exp} with a zero statistic would "
                    f"divide by zero")
            out = out * base ** exp
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


class RankedScores:
    """An eq. 2 score matrix with the candidates each step walks first.

    For gamma != 0, `rows[i]` holds every neighbour j != i whose score in
    row i is strictly above the (K+1)-th largest score of that row, with
    K = CANDIDATES, ordered by (-score, index). For gamma = 0 every row is
    the same numerator vector: `rows` is None and `ranking` orders all
    cities by (-numerator, index).
    """

    __slots__ = ("scores", "rows", "ranking")

    def __init__(self, scores: np.ndarray, gamma: float):
        self.scores = scores
        if gamma == 0.0:
            num = scores[0]
            self.rows = None
            self.ranking = np.lexsort((np.arange(len(num)), -num)).tolist()
        else:
            self.rows = _candidate_rows(scores)
            self.ranking = None


def _candidate_rows(scores: np.ndarray) -> List[List[int]]:
    """Each row's neighbours scoring strictly above the row's (K+1)-th
    largest score, by (-score, index); every neighbour when n <= K + 1.

    The strict cut never splits a tie: every neighbour left out scores at
    most the cut and every listed one above it, so the first admissible
    neighbour in list order, if any, is the first maximum of the masked
    row. Rows are ranked CANDIDATE_BLOCK at a time, so no n x n index
    array is held.
    """
    n = len(scores)
    k = CANDIDATES
    if n <= k + 1:
        index = np.arange(n)
        return [[j for j in np.lexsort((index, -row)).tolist() if j != i]
                for i, row in enumerate(scores)]
    rows: List[List[int]] = []
    for lo in range(0, n, CANDIDATE_BLOCK):
        block = scores[lo:lo + CANDIDATE_BLOCK]
        # the K+1 largest of each row, the (K+1)-th largest in column 0; a
        # copy, so the block's full index array goes before the next one's
        top = np.argpartition(block, n - k - 1, axis=1)[:, n - k - 1:].copy()
        values = np.take_along_axis(block, top, axis=1)
        keep = values[:, 1:] > values[:, :1]
        keep &= top[:, 1:] != np.arange(lo, lo + len(block))[:, None]
        row, col = np.nonzero(keep)
        col += 1
        cand, score = top[row, col], values[row, col]
        flat = cand[np.lexsort((cand, -score, row))].tolist()
        ends = np.cumsum(keep.sum(axis=1)).tolist()
        rows.extend(flat[a:b] for a, b in zip([0] + ends, ends))
    return rows


def _connect_pass(step: int, order: Sequence[int], ranked: RankedScores,
                  tracker: PathEndTracker) -> int:
    """Join each city of `order` still below `step` connections to its best
    admissible neighbour, the first maximum of its row of scores; returns
    the paper's nominal count of neighbour evaluations, n - 1 per
    connection, not the number of candidates read.

    Cities are visited once in descending static priority (the statistics
    never change within a pass, so pre-sorting is equivalent to the
    repeated max-scan). A step takes the first admissible neighbour of its
    row's candidate list, which is the row's first admissible maximum; when
    every candidate is closed it masks and scans the whole row. With
    gamma = 0 it walks the one ranking from `head`, the first city not yet
    at degree 2 (cities never reopen).
    """
    degree, other_end, is_open = tracker.degree, tracker.other_end, tracker.open
    scores, rows, ranking = ranked.scores, ranked.rows, ranked.ranking
    last = tracker.n - 1
    head = 0
    connected = 0
    for city in order:
        if degree[city] >= step:
            continue
        # the far end of city's path may close the loop only on the last edge
        end = other_end[city] if tracker.edge_count != last else city
        if rows is None:
            while degree[ranking[head]] == 2:
                head += 1
            k = head
            best = ranking[k]
            while best == city or best == end or degree[best] == 2:
                k += 1
                best = ranking[k]
        else:
            for best in rows[city]:
                if degree[best] < 2 and best != end:
                    break
            else:
                row = np.where(is_open, scores[city], -np.inf)
                row[city] = -np.inf
                row[end] = -np.inf
                best = int(row.argmax())  # first max: lowest index
        tracker.connect(city, best)
        connected += 1
    return connected * last


def construct_tour(matrix: DistanceMatrix, stats: CityStats,
                   combo: ExponentCombo,
                   order: Optional[Sequence[int]] = None,
                   scores: Optional[RankedScores] = None) -> ConstructionResult:
    """Run both main passes on a fresh tracker and walk the resulting cycle.

    `order` (the cities by descending eq. 1 priority) and `scores` (the
    ranked eq. 2 neighbour scores) are those of `combo`; they are computed
    here unless given, as `grid_search` gives them to share them between
    grid points. A negative exponent on a zero statistic is a ConfigError,
    as in `grid_search`. `neighbor_evaluations` is the paper's nominal
    n(n - 1) scan, not the number of candidates the steps read.
    """
    n = matrix.n
    if n < 3:
        raise DegenerateInstanceError(f"tour construction needs n >= 3, got {n}")
    if order is None:
        order = _city_order(stats, combo.alpha, combo.beta)
    if scores is None:
        scores = RankedScores(_score_rows(matrix, stats, combo.gamma,
                                          combo.delta, combo.epsilon),
                              combo.gamma)
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
    tour. Score matrices are filled one at a time into one buffer and
    ranked once for all the orders run against them.
    `neighbor_evaluations` counts the constructions actually run.
    """
    combos = list(grid) if grid is not None else default_grid()
    if not combos:
        raise ConfigError("exponent grid must be non-empty")
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
        ranked = RankedScores(_score_rows(matrix, stats, gamma, delta, epsilon,
                                          buffer, nonpositive), gamma)
        for order, i in runs.items():
            result = construct_tour(matrix, stats, combos[i], order, ranked)
            total_evals += result.neighbor_evaluations
            # shortest tour, earliest grid point on ties: what a scan in grid
            # order that keeps each strictly shorter tour picks
            if best is None or \
                    (result.tour.length, i) < (best.tour.length, best_index):
                best, best_index = result, i
        del ranked  # its lists go before the next matrix is ranked
    assert best is not None
    best.neighbor_evaluations = total_evals
    return best
