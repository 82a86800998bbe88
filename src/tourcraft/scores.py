"""The construction's scores: the eq. 1 and eq. 2 numerator of each city,
the eq. 2 neighbour scores, and the candidate lists ranked from them.

A score matrix is divided by one function, `_divide_powers`, whether it is
filled whole (`_score_rows`), one row block at a time (`_ranked_run`) or
one row at a time (`_RecomputedRows`), so a score's bits do not depend on
how its row was computed. It is also the one place that writes eq. 2's
rule that a city is never its own neighbour: -inf at each row's own city.
`_ranked_run` certifies each list against the best score outside its
neighbour set, so a list is exact for any set `construction` builds.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np

from .errors import ConfigError, _FloatErrors
from .instance import (CityStats, DistanceMatrix, _block_rows,
                       _heuristic_rows, _ranked, _row_blocks)

# (a, b) -> mu^a * sigma^b: a grid's one cache of `_numerator_vector`
_Numerators = Callable[[float, float], np.ndarray]
_EQ2_RANGE = ("exponents overflow or underflow a float: "
              "mu^{:g} * sigma^{:g} / d^{:g}")  # of (delta, epsilon, gamma)

# Row blocks of recomputed rows a rule keeps. On the default grid at
# n = 1000 a rule reads 47 to 143 distinct rows where its listed neighbours
# are all closed; four blocks (128 rows) keep nearly all of their repeats,
# one block about a third, and a gamma < 0 rule, which reads almost every
# row, holds no more than this.
_KEPT_BLOCKS = 4


def _numerator_vector(stats: CityStats, exp_mu: float, exp_sigma: float,
                      ) -> np.ndarray:
    """mu^exp_mu * sigma^exp_sigma per city, with 0^0 = 1; a negative
    exponent on a zero statistic, or an over- or underflow, is a
    ConfigError."""
    out = np.ones(len(stats.mu))
    with _FloatErrors(ConfigError, "exponents overflow or underflow a float: "
                      "mu^{:g} * sigma^{:g}", exp_mu, exp_sigma,
                      over="raise", under="raise"):
        for base, exp in ((stats.mu, exp_mu), (stats.sigma, exp_sigma)):
            if exp != 0.0:
                if exp < 0 and np.any(base == 0.0):
                    raise ConfigError(
                        f"negative exponent {exp:g} with a zero statistic "
                        f"would divide by zero")
                out = out * base ** exp
    return out


def _score_rows(num: np.ndarray, power_of: Callable[[float], np.ndarray],
                gamma: float, delta: float, epsilon: float) -> np.ndarray:
    """eq. 2 scores for gamma != 0: row i holds num_j / d_ij^gamma over j,
    numerator `num` over `power_of(gamma)`, the whole d^gamma, and -inf at
    j = i (a city is never its own neighbour).

    Powers that over- or underflow are a ConfigError, so d_ij^gamma is 0 or
    inf only where d_ij = 0, and the division itself scores such a cell +inf
    for gamma > 0 and 0 for gamma < 0; only a zero numerator over a zero
    distance, 0/0, needs setting to +inf.
    """
    with _eq2_range(delta, epsilon, gamma):
        powers = power_of(gamma)
        out = np.empty_like(powers)
        _divide_powers(num, powers, _nan_is_inf(gamma, num), out, 0)
    return out


def _eq2_range(delta: float, epsilon: float, gamma: float) -> _FloatErrors:
    """The float error guard of the eq. 2 powers and division of rule
    (gamma, delta, epsilon): a zero distance may divide by zero, and a
    result out of float range is a ConfigError naming the rule."""
    return _FloatErrors(ConfigError, _EQ2_RANGE, delta, epsilon, gamma,
                        divide="ignore", invalid="ignore", over="raise",
                        under="raise")


def _nan_is_inf(gamma: float, num: np.ndarray) -> bool:
    """Whether scores of numerator `num` can hold a 0/0, to be set to +inf:
    a zero numerator over a zero distance, which scores 0/0 only for
    gamma > 0."""
    return gamma > 0.0 and not num.all()


def _divide_powers(num: np.ndarray, powers: np.ndarray, nan_is_inf: bool,
                   out: np.ndarray, first: int) -> None:
    """The eq. 2 scores into `out` of the rows of d^gamma `powers`, whose
    first row is city `first`: num / powers, with each 0/0 set to +inf if
    `nan_is_inf`, and -inf at each row's own city, so a city is never its
    own neighbour. A whole matrix, each row block and each row that a step
    recomputes is divided here, so a score's bits do not depend on how its
    row was computed."""
    np.divide(num, powers, out=out)
    if nan_is_inf:
        out[np.isnan(out)] = np.inf
    out.flat[first::out.shape[-1] + 1] = -np.inf  # cell (i, first + i)


class _RecomputedRows:
    """The rows of a score matrix that is not held: a row read is
    recomputed with `_divide_powers` from the city's row of the heuristic
    geometry, and the last `_KEPT_BLOCKS` row blocks' worth of rows
    recomputed are kept for the reads of the rule's other constructions,
    which often repeat them. Its power and division were computed in range
    when the row's block was ranked, so only a zero distance, which divides
    by zero, needs a float error state."""

    __slots__ = ("matrix", "num", "gamma", "nan_is_inf", "kept", "room")

    def __init__(self, matrix: DistanceMatrix, num: np.ndarray, gamma: float,
                 nan_is_inf: bool):
        self.matrix, self.num = matrix, num
        self.gamma, self.nan_is_inf = gamma, nan_is_inf
        self.kept, self.room = {}, _KEPT_BLOCKS * _block_rows(matrix.n)

    def __getitem__(self, city: int) -> np.ndarray:
        row = self.kept.get(city)
        if row is None:
            with np.errstate(divide="ignore", invalid="ignore"):
                row = np.power(_heuristic_rows(self.matrix, city, city + 1)[0],
                               self.gamma)
                _divide_powers(self.num, row, self.nan_is_inf, row, city)
            if len(self.kept) == self.room:  # the oldest row goes
                del self.kept[next(iter(self.kept))]
            self.kept[city] = row
        return row


def _ranked_run(matrix: DistanceMatrix, num_of: _Numerators, rules: list,
                sets: np.ndarray,
                ) -> Iterable[Tuple[List[List[int]], Sequence]]:
    """Each gamma != 0 rule (gamma, delta, epsilon) of `rules` as (its
    candidate lists, its rows of scores), in `rules` order, all ranked by
    `_ranked_blocks` in one pass over the row blocks.

    The lists are kept as compact arrays until that rule's constructions
    run. When one block holds every row, its geometry stays, and each rule
    in turn divides its d^gamma, computed again where the previous rule's
    gamma differs, into the other block, which is its rows of scores until the
    next rule's are made. Otherwise no score matrix is held: the rows are
    `_RecomputedRows`, and a step whose candidates are all closed reads
    its row there. Every numerator is read before the first power."""
    nums = [num_of(delta, epsilon) for _, delta, epsilon in rules]
    nan_is_inf = [_nan_is_inf(rule[0], num) for rule, num in zip(rules, nums)]
    lists, counts, whole = _ranked_blocks(matrix, rules, nums, nan_is_inf,
                                          sets)
    held = rules[-1][0]  # the gamma of the d^gamma in the one block
    for k, (gamma, delta, epsilon) in enumerate(rules):
        ranked = [row[:count] for row, count
                  in zip(lists[k].tolist(), counts[k].tolist())]
        lists[k] = counts[k] = None
        if whole is None:
            yield ranked, _RecomputedRows(matrix, nums[k], gamma,
                                          nan_is_inf[k])
        else:
            geometry, powers, scores = whole
            with _eq2_range(delta, epsilon, gamma):
                if gamma != held:
                    np.power(geometry, gamma, out=powers)
                    held = gamma
                _divide_powers(nums[k], powers, nan_is_inf[k], scores, 0)
            yield ranked, scores
        del ranked


def _ranked_blocks(matrix: DistanceMatrix, rules: list, nums: list,
                   nan_is_inf: list, sets: np.ndarray) -> tuple:
    """The candidate lists and their lengths of each rule, as compact
    arrays, ranked in one pass over `_row_blocks`: each block's d^gamma is
    computed once for each run of consecutive rules of one gamma, and each
    rule divides it by its numerator and lists its candidates from `sets`,
    the neighbour sets. Third, when one block holds every row, (its
    geometry, its d^gamma of the last rule, its score buffer); else None.

    Row i lists the cities of sets[i] that score strictly above every city
    outside the set, by (-score, index); the -inf own city, a row's only
    minimum, is never listed. Every unlisted city scores strictly below
    every listed one, so the first admissible neighbour in list order, if
    any, is the first maximum of the masked row, whatever the sets hold. A
    power out of float range names the first rule of its run, and a
    division the rule it is computed for."""
    n = matrix.n
    step = min(_block_rows(n), n)
    powers, scores = np.empty((step, n)), np.empty((step, n))
    lists = [np.empty(sets.shape, np.min_scalar_type(n)) for _ in rules]
    counts = [np.empty(n, np.min_scalar_type(sets.shape[1])) for _ in rules]
    for lo, geometry in _row_blocks(matrix, powers):
        hi = lo + len(geometry)
        block, power = scores[:hi - lo], powers[:hi - lo]
        rows = np.arange(hi - lo)[:, None]
        cells = rows * n + sets[lo:hi]  # flat index of each set's city
        for k, (gamma, delta, epsilon) in enumerate(rules):
            if k == 0 or gamma != rules[k - 1][0]:
                with _eq2_range(delta, epsilon, gamma):
                    np.power(geometry, gamma, out=power)
            with _eq2_range(delta, epsilon, gamma):
                _divide_powers(nums[k], power, nan_is_inf[k], block, lo)
            inside = block.take(cells)
            block.put(cells, -np.inf)
            outside = block.max(axis=1)
            counts[k][lo:hi] = (inside > outside[:, None]).sum(axis=1)
            # each row of sets ascends, so a stable ranking breaks ties by
            # index; a block whose rows list nothing needs none
            if counts[k][lo:hi].any():
                lists[k][lo:hi] = sets[lo:hi][rows, _ranked(-inside)]
    return lists, counts, (geometry, powers, scores) if step == n else None
