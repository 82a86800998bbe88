"""Two-step priority-driven tour construction with exponent grid search.

Each city gets a static priority mu^alpha * sigma^beta from its distance
statistics; cities are processed in descending priority, and each one is
connected to the neighbor maximizing (mu^delta * sigma^epsilon) / d^gamma
among those that the partial tour, `instance.PathEndTracker`, admits. Step 1
gives every city at least one edge, step 2 raises every degree to exactly 2,
closing a single loop; `_construct` runs both steps in one loop that writes
each join inline on the tracker's lists. The whole construction is repeated
over a grid of exponent combinations and the shortest tour wins. The grid
prices its closed loops a chunk at a time, across neighbour rules, with the
summation `tour_length` uses, and only the winner's loop becomes a
validated Tour.

Each step reads a short candidate list instead of the whole row of
neighbour scores, with the same result. A score matrix, whose -inf own
cells (written by `scores._divide_powers`) keep a city from being its own
neighbour, is ranked once per grid into a `RankedScores` record, however
many constructions read it. Every such matrix draws its lists from one
neighbour set per row, built once per grid: the M = CANDIDATES nearest
other cities by the heuristic geometry, whatever the sign of gamma. Row i
lists the cities of its set that score strictly above every city outside
it, by (-score, index), so every city left out scores strictly below every
listed one, whatever the set holds, and the first admissible listed
neighbour is the first maximum of the masked row; when every listed one is
closed, the step scans the whole row, as almost every step of a gamma < 0
rule does. With n - 1 <= CANDIDATES a set would hold every other city, so
every matrix is ranked whole instead and no step scans a row. With
gamma = 0 every row is the numerator, ranked as the eq. 1 order of
(delta, epsilon), so such a neighbour rule is keyed by that ranking,
(0.0, ranking); any other is keyed by its exponents, (gamma, delta,
epsilon), or, where it is ranked whole, by its rows. `construct_tour` is
the grid of one point.

With n - 1 > CANDIDATES no score matrix is held. A grid reads each row
block of `instance.BLOCK_BYTES` of the heuristic geometry at most twice:
one pass takes the city statistics and the neighbour sets together, and
one scores every gamma != 0 rule, d^gamma once per block for each run of
consecutive rules of one gamma; each rule keeps only its compact candidate
lists until its constructions run. When one block holds every row, each
rule's rows are divided again into that block for its constructions; past
one block, a step whose listed neighbours are all closed recomputes its one
row, and the rule keeps its last few blocks' worth of such rows. So no
grid holds a score matrix larger than one row block, and on a coordinate
build past one block, no n x n table; where one block holds every row,
the grid makes the heuristic table, which is that block, once.

Conventions (fixed for determinism):

* 0^0 = 1, so a zero exponent always neutralizes its factor.
* Zero distance with gamma > 0 scores +inf (coincident cities connect first),
  and with gamma < 0 scores 0.
* An exponent whose power overflows or underflows a float is a ConfigError.
* Ties in city priority break toward the lower city index; ties in neighbor
  score break toward the lower neighbor index; ties between equally good grid
  points break toward the earlier combo in lexicographic
  (alpha, beta, gamma, delta, epsilon) order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, _real
from .instance import (CityStats, DistanceMatrix, PathEndTracker, Tour,
                       _block_rows, _loop_lengths, _ranked, _require_n,
                       city_stats, make_tour)
from .scores import _numerator_vector, _Numerators, _ranked_run, _score_rows

DEFAULT_EXPONENT_VALUES = (0.0, 0.5, 1.0)
CANDIDATES = 16  # M: cities in each row's neighbour set
_EXPONENT = "exponents must be finite real numbers, got {!r}"


@dataclass(frozen=True, order=True)
class ExponentCombo:
    """One grid point of the two priority power functions."""

    alpha: float
    beta: float
    gamma: float
    delta: float
    epsilon: float

    def __post_init__(self) -> None:
        for f in fields(self):  # frozen: set directly
            object.__setattr__(self, f.name,
                               _real(getattr(self, f.name), _EXPONENT))

    def as_tuple(self) -> Tuple[float, float, float, float, float]:
        return (self.alpha, self.beta, self.gamma, self.delta, self.epsilon)


def default_grid(values: Sequence[float] = DEFAULT_EXPONENT_VALUES,
                 ) -> List[ExponentCombo]:
    """Full Cartesian grid in lexicographic (alpha..epsilon) order."""
    if not values:
        raise ConfigError("exponent value set must be non-empty")
    vals = sorted(_real(v, _EXPONENT) for v in values)
    return [ExponentCombo(*combo) for combo in itertools.product(vals, repeat=5)]


DEFAULT_GRID = tuple(default_grid())


@dataclass
class ConstructionResult:
    """Tour plus the combo that produced it and some run accounting."""

    tour: Tour
    combo: ExponentCombo
    neighbor_evaluations: int = 0


def _city_order(num: np.ndarray) -> Tuple[int, ...]:
    """Cities by descending priority `num`, ties toward the lower index."""
    return tuple(_ranked(-num).tolist())


@dataclass(eq=False)
class RankedScores:
    """The eq. 2 neighbour ranking of one grid rule, as its steps read it.
    A gamma != 0 rule has `rows`, its candidate lists, and `scores`, whose
    `scores[city]` is the row a step reads when every candidate of `city`
    is closed; where each row lists every other city no step reads one,
    and `scores` is None. A gamma = 0 rule, whose every row is
    mu^delta * sigma^epsilon, has only `ranking`, that eq. 1 order."""

    rows: Optional[List[List[int]]] = None
    scores: Optional[Sequence] = None
    ranking: Optional[Sequence[int]] = None


def _neighbour_sets(matrix: DistanceMatrix,
                    ) -> Tuple[CityStats, np.ndarray]:
    """The city statistics and each row's M = CANDIDATES (or n - 1 if
    smaller) nearest other cities by the heuristic geometry, the sets of
    every gamma != 0 rule, as an n x M array whose rows are ascending
    indices, both from `city_stats`'s one pass over the row blocks. A tie
    at the M-th distance goes either way: `_ranked_run` lists exactly for
    any set."""
    n = matrix.n
    m = min(CANDIDATES, n - 1)
    sets = np.empty((n, m), dtype=np.intp)

    def nearest(lo: int, rows: np.ndarray) -> None:
        block = rows if rows.flags.writeable else rows.copy()
        block.flat[lo::n + 1] = np.inf  # the city itself last
        sets[lo:lo + len(block)] = np.argpartition(block, m - 1, axis=1)[:, :m]

    stats = city_stats(matrix, nearest)
    sets.sort(axis=1)
    return stats, sets


def _construct(order: Sequence[int], ranked: RankedScores) -> List[int]:
    """The closed loop of both passes over the cities of `order` on a fresh
    tracker, walked from city 0. Pass `step` joins each city still below
    `step` connections to its best admissible neighbour, the first maximum
    of its row of scores: the first admissible one of its candidate list,
    or, when every candidate is closed, of the masked whole row, which a
    list of every other city never reaches. With gamma = 0 a step walks the
    one ranking from `head`, the first city not yet at degree 2 (cities
    never reopen). A join runs `PathEndTracker.connect`'s statements in
    place, which saves a call per step."""
    n = len(order)
    tracker = PathEndTracker(n)
    other_end, degree, adjacent = (tracker.other_end, tracker.degree,
                                   tracker.adjacent)
    open_bytes, is_open = tracker.open_bytes, None
    scores, rows, ranking = ranked.scores, ranked.rows, ranked.ranking
    head = edges = 0
    for step in (1, 2):
        for city in order:
            if degree[city] >= step:
                continue
            end = other_end[city]  # the one city it may not join but itself
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
                    if is_open is None:  # made at the first scan only
                        is_open = tracker.open
                    row = np.where(is_open, scores[city], -np.inf)
                    row[end] = -np.inf
                    best = int(row.argmax())  # first max: lowest index
            end_b = other_end[best]
            other_end[end] = end_b
            other_end[end_b] = end
            deg = degree[city]
            adjacent[2 * city + deg] = best
            degree[city] = deg + 1
            if deg:
                open_bytes[city] = 0
            deg = degree[best]
            adjacent[2 * best + deg] = city
            degree[best] = deg + 1
            if deg:
                open_bytes[best] = 0
            edges += 1
            if edges == n - 1:  # all on one path: ends may join
                other_end[end], other_end[end_b] = end, end_b
        assert step == 2 or min(degree) >= 1, "step 1 left an isolated city"
    tracker.edge_count = edges
    assert edges == n and degree == [2] * n, \
        "step 2 did not close a 2-regular cycle"
    return tracker.cycle()


def _grid_points(grid: Optional[Iterable[ExponentCombo]],
                 ) -> Tuple[ExponentCombo, ...]:
    """`grid` as a tuple, `DEFAULT_GRID` if None; a ConfigError unless it is
    non-empty and every point is an ExponentCombo."""
    combos = DEFAULT_GRID if grid is None else tuple(grid)
    if not combos:
        raise ConfigError("exponent grid must be non-empty")
    if grid is not None:  # DEFAULT_GRID holds only ExponentCombos
        for c in combos:
            if not isinstance(c, ExponentCombo):
                raise ConfigError(
                    f"grid points must be ExponentCombo, got {c!r}")
    return combos


def construct_tour(matrix: DistanceMatrix,
                   combo: ExponentCombo) -> ConstructionResult:
    """The tour of both main passes for one combo: the grid of that one
    point."""
    return grid_search(matrix, [combo])


def grid_search(matrix: DistanceMatrix,
                grid: Optional[Iterable[ExponentCombo]] = None,
                ) -> ConstructionResult:
    """Best construction over the exponent grid, `DEFAULT_GRID` unless one
    is given (first combo wins ties). Fewer than 3 cities is a
    DegenerateInstanceError, raised before `city_stats` or any power.

    A construction depends on its combo only through the city order of
    (alpha, beta) and its neighbour rule, the ranking of (gamma, delta,
    epsilon). Orders are compared as exact index sequences. A gamma = 0
    rule reads nothing but its ranking, which is the eq. 1 order of
    (delta, epsilon), so it is keyed by that index sequence too. With
    n - 1 <= CANDIDATES any other rule reads nothing but its whole rows by
    (-score, index), so it is keyed by them, and rules of equal rows, such
    as (0.5, 0.5, 0.5) and (1, 1, 1), are one rule; otherwise it is keyed
    by its exponents. Each distinct pair of order and rule is constructed
    once, for the first grid point that has it, and every later grid point
    with the same pair has the same tour. A larger score matrix is ranked
    once for all the orders run against it, a row block at a time and
    never held whole (see `_candidate_lists`). The closed loops are priced
    a chunk at a time, across rules, with the summation `tour_length` uses,
    and only the winner's loop becomes a validated `Tour`.
    `neighbor_evaluations` is n(n - 1) per construction actually run.
    """
    n = _require_n(matrix)
    combos = _grid_points(grid)
    if _block_rows(n) >= n:
        matrix.heuristic  # one row block holds it: made once, read by all
    if n - 1 > CANDIDATES and any(c.gamma != 0.0 for c in combos):
        stats, sets = _neighbour_sets(matrix)
    else:
        stats, sets = city_stats(matrix), None
    num_of = functools.cache(functools.partial(_numerator_vector, stats))
    order_of = functools.cache(lambda a, b: _city_order(num_of(a, b)))
    city_orders = [order_of(c.alpha, c.beta) for c in combos]
    # neighbour rule -> {city order: index of its first grid point}; a rule
    # key starts with gamma, so a ranking never equals a set of exponents
    first = {}
    for i, c in enumerate(combos):
        rule = ((0.0, order_of(c.delta, c.epsilon)) if c.gamma == 0.0
                else (c.gamma, c.delta, c.epsilon))
        first.setdefault(rule, {}).setdefault(city_orders[i], i)
    rules = (_whole_rankings(matrix, num_of, first) if n - 1 <= CANDIDATES
             else _candidate_lists(matrix, num_of, first, sets))
    built = _constructions(rules)
    best, best_loop, constructions = (math.inf, -1), None, 0
    # loops priced per call, whose index and cell arrays, about 8 n values
    # each, fit one row block: every loop of the default grid up to n = 28
    priced = _block_rows(8 * n)
    while chunk := list(itertools.islice(built, priced)):
        loops, points = zip(*chunk)
        constructions += len(loops)
        prices = _loop_lengths(loops, matrix).tolist()
        for price, i, loop in zip(prices, points, loops):
            # shortest tour, earliest grid point on ties: what a scan in
            # grid order that keeps each strictly shorter tour picks
            if (price, i) < best:
                best, best_loop = (price, i), loop
    length, i = best
    tour = make_tour(best_loop, matrix)
    assert tour.length == length, "the winner's length is not its price"
    return ConstructionResult(
        tour=tour, combo=combos[i],
        neighbor_evaluations=constructions * n * (n - 1))


def _constructions(rules: Iterable[Tuple[RankedScores, dict]],
                   ) -> Iterable[Tuple[List[int], int]]:
    """(closed loop, grid index) of each run of each rule of `rules`, in
    order; a rule's lists go before the next rule's are made."""
    for ranked, runs in rules:
        for order, i in runs.items():
            yield _construct(order, ranked), i
        del ranked


def _whole_rankings(matrix: DistanceMatrix, num_of: _Numerators, first: dict,
                    ) -> Iterable[Tuple[RankedScores, dict]]:
    """Each neighbour rule of `first` as (its RankedScores, its runs), for
    n - 1 <= CANDIDATES, where every row of a gamma != 0 rule lists all the
    other cities. Such a rule reads nothing but those rows, so it is keyed
    by them, as a gamma = 0 rule is by its ranking, and rules with equal
    keys merge their runs, each city order under its earliest grid index.
    Every matrix is scored in `first` order before any construction, each
    d^gamma once, for the first rule of its gamma."""
    merged = {}  # rule key -> (its RankedScores, {city order: grid index})
    power_of = functools.cache(functools.partial(np.power, matrix.heuristic))
    for rule, runs in first.items():
        if rule[0] == 0.0:
            key, ranked = rule, RankedScores(ranking=rule[1])
        else:
            scores = _score_rows(num_of(*rule[1:]), power_of, *rule)
            # the -inf own city, a row's only minimum, sorts last
            rows = _ranked(-scores)[:, :-1].tolist()
            key, ranked = tuple(map(tuple, rows)), RankedScores(rows)
        into = merged.setdefault(key, (ranked, {}))[1]
        for order, i in runs.items():
            into[order] = min(i, into.get(order, i))
    return merged.values()


def _candidate_lists(matrix: DistanceMatrix, num_of: _Numerators, first: dict,
                     sets: Optional[np.ndarray],
                     ) -> Iterable[Tuple[RankedScores, dict]]:
    """Each neighbour rule of `first` as (its RankedScores, its runs), in
    `first` order, for n - 1 > CANDIDATES. The gamma != 0 rules list
    candidates from `sets`, the neighbour sets (None if there are none):
    `_ranked_run` ranks them all in one pass over the row blocks, and holds
    no score matrix beyond its blocks."""
    shared = _ranked_run(matrix, num_of,
                         [rule for rule in first if rule[0] != 0.0], sets)
    for rule, orders in first.items():
        yield (RankedScores(ranking=rule[1]) if rule[0] == 0.0
               else RankedScores(*next(shared))), orders
