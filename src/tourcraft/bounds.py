"""Reference values for error computation.

* exact_optimum: dynamic programming over subsets (exact, n <= 15), filled
  one popcount layer at a time. The table is stored k-major, one row per
  start city and one column per subset. A step takes one group of cities
  j of a subset size: one `take`, one add, one min down the gathered
  columns of the subsets without each j, and one `put` (see `_layers`; at
  n = 12 a call holds about 130 KB beside its 180 KB table). Each
  candidate is the same single float addition as in a scalar loop and the
  min is exact, so the table does not depend on the evaluation order or
  the layout. The subset index arrays depend on n alone: they are built
  on the first call for each n and kept read-only.
  The tour is read back by one argmin per step over the same sums,
  operands swapped, so the first minimum is the lowest city that reaches
  the optimum.
* one_tree_value / held_karp_bound: minimum 1-trees with node potentials,
  improved by subgradient ascent. One function builds a 1-tree: Prim's
  step over cities 1..n-1 records the join order and each city's key, the
  weight it joined with; after the loop each city's parent is read back
  from them, and the degrees the ascent needs are counted from those
  parents and city 0's two edges. An ascent builds one workspace (the n x n
  buffer of modified weights, its row views and Prim's vectors) and every
  1-tree reuses it. Any potential vector gives a valid lower bound on the
  optimal tour length; the ascent only tightens it, and stops early once
  its potentials no longer move.

All three run under the one float guard, errors._FloatErrors: an overflow
or invalid operation, from weights whose path sums overflow or from
potentials or a hint too large for the modified weights, is a ConfigError.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .baselines import nearest_neighbor
from .errors import (ConfigError, SizeLimitError, _FloatErrors, _integer,
                     _real)
from .instance import (DistanceMatrix, Tour, _block_rows, _ranked, _read_only,
                       _require_n, make_tour)

EXACT_MAX_N = 15
ASCENT_ITERS = 1000  # the Held-Karp ascent's default iteration budget
_OVERFLOW = {"over": "raise", "invalid": "raise"}
_HINT_OVERFLOW = "potentials or the upper-bound hint overflow the float range"


@dataclass(frozen=True)
class LowerBoundResult:
    """Best 1-tree bound found and the ascent iterations it took."""

    bound: float
    iterations_used: int


_Step = Tuple[int, np.ndarray, np.ndarray]  # (lo, without, cells)


@functools.cache
def _layers(m: int) -> Tuple[np.ndarray, Tuple[_Step, ...]]:
    """The DP's index arrays for m = n - 1 cities, which depend on m alone:
    `bits` (city j is bit j) and one step (lo, without, cells) per subset
    size 2..m and group of cities from lo, in the order the DP fills them:
    row j - lo of `without` lists the subsets of that size that hold j,
    less j, and of `cells` their flat indices at table row j. A group keeps
    m rows of its `without` columns within one numpy buffer, BLOCK_BYTES /
    4 (64 KiB). Built on first use for each m (m = 14: 1.8 MB if every
    size is used) and kept read-only, so every caller can share them."""
    bits = 1 << np.arange(m)
    masks = np.arange(1 << m)
    popcount = np.zeros(1 << m, dtype=int)
    for bit in bits:
        popcount += (masks & bit) != 0
    steps = []
    for size in range(2, m + 1):
        layer = masks[popcount == size]
        has = np.array([layer[(layer & bit) != 0] for bit in bits])
        without = has ^ bits[:, None]
        cells = has + (np.arange(m) << m)[:, None]
        group = _block_rows(4 * m * has.shape[1])
        _read_only(without, cells)  # and so every group's slices
        steps += ((lo, without[lo:lo + group], cells[lo:lo + group])
                  for lo in range(0, m, group))
    _read_only(bits)
    return bits, tuple(steps)


def exact_optimum(matrix: DistanceMatrix) -> Tour:
    """Provably optimal tour by subset DP: the lexicographically smallest
    optimal order from city 0, each step the first argmin of the DP's sums."""
    n = _require_n(matrix)
    if n > EXACT_MAX_N:
        raise SizeLimitError(
            f"exact solver is limited to n <= {EXACT_MAX_N}, got {n}")
    d = matrix.d
    m = n - 1  # cities 1..n-1 mapped to bits 0..m-1
    full = (1 << m) - 1
    bits, steps = _layers(m)
    # ht[k, mask] = shortest path that starts at city k+1, visits exactly
    # the cities in mask (which contains k), and ends at city 0; inf
    # elsewhere, so a min over a whole column only sees the cities in its
    # mask. Stored k-major, so one step gathers its columns with one take.
    ht = np.full((m, full + 1), np.inf)
    inner_t = d[1:, 1:].T  # inner_t[k, j] = d[j+1, k+1]
    with _FloatErrors(ConfigError, "distances too large: the exact DP's path "
                      "lengths overflow the float range", **_OVERFLOW):
        ht[np.arange(m), bits] = d[1:, 0]
        for lo, without, cells in steps:
            w = ht.take(without, axis=1)  # (k, j, subset)
            w += inner_t[:, lo:lo + len(without), None]
            ht.put(cells, w.min(axis=0))

        # h is inf outside each mask, so only cities still to visit compete
        h = ht.T
        order = [0]
        mask = full
        while mask:
            j = int((d[order[-1], 1:] + h[mask]).argmin())
            order.append(j + 1)
            mask ^= 1 << j
    return make_tour(order, matrix)


class _Workspace:
    """What every 1-tree of one ascent reuses, for n cities: the n x n
    buffer of modified weights and the list of its row views, Prim's n-vectors
    and the edge ends 2..n-1."""

    __slots__ = ("buf", "rows", "shut", "best", "key", "order", "tail")

    def __init__(self, n: int):
        self.buf = np.empty((n, n))
        self.rows = list(self.buf)
        self.shut = np.empty(n)
        self.best = np.empty(n)
        self.key = np.empty(n)
        self.order = np.ones(n - 1, dtype=np.intp)  # join order, city 1 first
        self.tail = np.arange(2, n)


def _one_tree(d: np.ndarray, pi: np.ndarray,
              ws: _Workspace) -> Tuple[float, np.ndarray]:
    """1-tree bound and node degrees for potentials pi: the minimum 1-tree
    on the modified weights d[i][j] + pi[i] + pi[j], built in `ws.buf`,
    minus 2 * sum(pi). The 1-tree is a dense Prim MST over cities 1..n-1
    plus the two cheapest edges at city 0; ties go to the lowest index, in
    the MST and at city 0. Call it under the ascent's `_FloatErrors` guard.

    The loop records only the join order and each city's key, the weight
    it joined with; the parents are read back after it. A city's key is
    the least offer of the cities that joined before it, and Prim's strict
    update kept the first of equal offers, so its parent is the first city
    in join order whose row holds its key, even when a city that joined
    later offers the same weight.
    """
    n = d.shape[0]
    buf, rows, shut, best, key, order = (
        ws.buf, ws.rows, ws.shut, ws.best, ws.key, ws.order)
    np.add(d, pi[:, None], out=buf)
    buf += pi[None, :]
    # shut[k]: 0.0 while k is outside the tree, inf once it is in. Each step
    # takes the least of the offers and the joining city's row, then adds
    # shut: the offers to outside cities stay and the tree's cities, the new
    # one included, go back to inf. Adding shut after the minimum gives the
    # bits that adding it to the row first would: x + 0.0 is x for every x
    # but -0.0, which it makes 0.0 either way, and x + inf is inf.
    shut.fill(0.0)
    shut[:2] = np.inf  # city 0 stays out of the MST, city 1 is its root
    np.add(rows[1], shut, out=best)  # cheapest offer, inf once joined
    argmin, minimum, inf = best.argmin, np.minimum, np.inf
    total = 0.0
    for i in range(1, n - 1):
        j = argmin()
        order[i] = j
        key[j] = w = best[j]
        total += w
        shut[j] = inf
        minimum(best, rows[j], out=best)
        best += shut
    # a bool gather: buf[order] would copy n x n floats
    parent = order[(buf[:, 2:] == key[2:])[order].argmax(axis=0)]
    two = _ranked(buf[0, 1:])[:2] + 1
    total += buf[0, two[0]] + buf[0, two[1]]
    # the edge ends: (j, parent[j]) for j = 2..n-1, and city 0's two edges
    ends = np.concatenate((ws.tail, parent, (0, 0), two))
    deg = np.bincount(ends, minlength=n)
    return float(total - 2.0 * pi.sum()), deg


def one_tree_value(matrix: DistanceMatrix,
                   pi: Sequence[float]) -> float:
    """1-tree lower bound for node potentials pi."""
    _require_n(matrix)
    try:
        pi = np.asarray(pi, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError("potentials must be finite numbers") from None
    if pi.shape != (matrix.n,):
        raise ConfigError(f"potentials must have length {matrix.n}")
    if not np.isfinite(pi).all():
        raise ConfigError("potentials must be finite")
    with _FloatErrors(ConfigError, _HINT_OVERFLOW, **_OVERFLOW):
        return _one_tree(matrix.d, pi, _Workspace(matrix.n))[0]


def held_karp_bound(matrix: DistanceMatrix, max_iters: int = ASCENT_ITERS,
                    upper_bound_hint: Optional[float] = None,
                    ) -> LowerBoundResult:
    """Subgradient ascent on the 1-tree bound.

    Step schedule: t_k = lambda_k * (UB - L(pi_k)) / sum((deg_i - 2)^2) with
    lambda_0 = 2, halved after 10 consecutive non-improving iterations. UB
    is `upper_bound_hint`, or without one the nearest-neighbour tour length.
    The returned bound is the best 1-tree value seen, so it never exceeds
    the optimum regardless of the schedule.

    The ascent stops before `max_iters` when the 1-tree is a tour, or when a
    step, a zero one included, no longer moves any potential (a fixed
    point: the remaining iterations could not change the bound, see
    below). `iterations_used` counts the iterations actually run.
    """
    n = _require_n(matrix)
    max_iters = _integer(max_iters, "max_iters", 1)
    if upper_bound_hint is None:
        upper_bound_hint = nearest_neighbor(matrix).length
    # a numpy scalar, so that an overflow in the step raises
    ub = np.float64(_real(upper_bound_hint, "upper_bound_hint must be a "
                          "finite number, got {!r}"))

    d = matrix.d
    ws = _Workspace(n)
    pi = np.zeros(n)
    best = -np.inf
    lam = 2.0
    stale = 0
    iterations = 0
    with _FloatErrors(ConfigError, _HINT_OVERFLOW, **_OVERFLOW):
        for iterations in range(1, max_iters + 1):
            value, deg = _one_tree(d, pi, ws)
            if value > best:
                best = value
                stale = 0
            else:
                stale += 1
                if stale >= 10:
                    lam *= 0.5
                    stale = 0
            g = np.subtract(deg, 2)
            denom = float(np.dot(g, g))
            if denom == 0.0:
                break  # the 1-tree is a tour: bound is tight
            step = lam * max(ub - value, 0.0) / denom
            moved = pi + step * g
            # Fixed point (a zero step is one at once): from here on every
            # iteration would see this same pi, hence the same 1-tree, value
            # and g. lam only shrinks, so the step only shrinks, and
            # floating-point rounding is monotone, so pi + step * g would
            # round back to pi every time. pi never moves again and best
            # never changes: stopping now returns the bound that running all
            # max_iters iterations would.
            if np.array_equal(moved, pi):
                break
            pi = moved
    return LowerBoundResult(bound=best, iterations_used=iterations)
