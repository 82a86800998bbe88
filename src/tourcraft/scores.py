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

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .errors import ConfigError, _FloatErrors
from .instance import CityStats, DistanceMatrix, _block_rows, _ranked

_EQ2_RANGE = ("exponents overflow or underflow a float: "
              "mu^{:g} * sigma^{:g} / d^{:g}")  # of (delta, epsilon, gamma)


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


def _score_rows(matrix: DistanceMatrix, stats: CityStats, gamma: float,
                delta: float, epsilon: float) -> np.ndarray:
    """eq. 2 scores for gamma != 0: row i holds mu_j^delta * sigma_j^epsilon
    / d_ij^gamma over j, -inf at j = i (a city is never its own neighbour).

    Powers that over- or underflow are a ConfigError, so d_ij^gamma is 0 or
    inf only where d_ij = 0, and the division itself scores such a cell +inf
    for gamma > 0 and 0 for gamma < 0; only a zero numerator over a zero
    distance, 0/0, needs setting to +inf.
    """
    num = _numerator_vector(stats, delta, epsilon)
    with _eq2_range(delta, epsilon, gamma):
        out = np.power(matrix.heuristic, gamma)
        _divide_powers(num, out, _nan_is_inf(gamma, num), out, 0)
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
    """The rows of a score matrix that is not held: reading row `city`
    recomputes it with `_divide_powers`. Its power and division were
    computed in range when the row's block was ranked, so only a zero
    distance, which divides by zero, needs a float error state."""

    __slots__ = ("heuristic", "num", "gamma", "nan_is_inf")

    def __init__(self, heuristic: np.ndarray, num: np.ndarray, gamma: float,
                 nan_is_inf: bool):
        self.heuristic, self.num = heuristic, num
        self.gamma, self.nan_is_inf = gamma, nan_is_inf

    def __getitem__(self, city: int) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            row = np.power(self.heuristic[city], self.gamma)
            _divide_powers(self.num, row, self.nan_is_inf, row, city)
        return row


def _ranked_run(matrix: DistanceMatrix, stats: CityStats, run: list,
                sets: np.ndarray,
                ) -> Iterable[Tuple[List[List[int]], Sequence, dict]]:
    """Each (rule, runs) of `run`, rules (gamma, delta, epsilon) of one
    gamma, as (its candidate lists, its rows of scores, its runs), in `run`
    order, ranked one row block at a time. A block's d^gamma is computed
    once for the whole run, and each rule divides it by its numerator and
    lists its candidates from `sets`, the neighbour sets.

    Row i lists the cities of sets[i] that score strictly above every city
    outside the set, by (-score, index); the -inf own city, a row's only
    minimum, is never listed. Every unlisted city scores strictly below
    every listed one, so the first admissible neighbour in list order, if
    any, is the first maximum of the masked row, whatever the sets hold.

    The lists are kept as compact arrays until that rule's constructions
    run. When one block holds every row, its d^gamma stays, and each rule
    in turn divides it again into the other block, which is its rows of
    scores until the next rule's are made. Otherwise no score matrix is
    held: the rows are `_RecomputedRows`, and a step whose candidates are
    all closed recomputes its row. Every numerator is computed before the
    first power; a power out of float range names the first rule of the
    run, and a division the rule it is computed for."""
    gamma, n = run[0][0][0], matrix.n
    step = min(_block_rows(n), n)
    powers, scores = np.empty((step, n)), np.empty((step, n))
    heuristic = matrix.heuristic
    nums = [_numerator_vector(stats, delta, epsilon)
            for (_, delta, epsilon), _ in run]
    nan_is_inf = [_nan_is_inf(gamma, num) for num in nums]
    lists = [np.empty(sets.shape, np.min_scalar_type(n)) for _ in run]
    counts = [np.empty(n, np.min_scalar_type(sets.shape[1])) for _ in run]
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        block, power = scores[:hi - lo], powers[:hi - lo]
        rows = np.arange(hi - lo)[:, None]
        cells = rows * n + sets[lo:hi]  # flat index of each set's city
        with _eq2_range(*run[0][0][1:], gamma):
            np.power(heuristic[lo:hi], gamma, out=power)
        for k, ((_, delta, epsilon), _) in enumerate(run):
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
    for k, ((_, delta, epsilon), orders) in enumerate(run):
        ranked = [row[:count] for row, count
                  in zip(lists[k].tolist(), counts[k].tolist())]
        lists[k] = counts[k] = None
        if step < n:
            yield ranked, _RecomputedRows(heuristic, nums[k], gamma,
                                          nan_is_inf[k]), orders
            continue
        with _eq2_range(delta, epsilon, gamma):
            _divide_powers(nums[k], powers, nan_is_inf[k], scores, 0)
        yield ranked, scores, orders
