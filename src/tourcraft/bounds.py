"""Reference values for error computation.

* exact_optimum: dynamic programming over subsets (exact, n <= 15).
* one_tree_value / held_karp_bound: minimum 1-trees with node potentials,
  improved by subgradient ascent. Any potential vector gives a valid lower
  bound on the optimal tour length; the ascent only tightens it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, DegenerateInstanceError, SizeLimitError
from .instance import DistanceMatrix, Tour, make_tour

EXACT_MAX_N = 15


@dataclass(frozen=True)
class LowerBoundResult:
    """Best 1-tree bound found, with the potentials that achieved it."""

    bound: float
    iterations_used: int
    potentials: np.ndarray


def exact_optimum(matrix: DistanceMatrix) -> Tour:
    """Provably optimal tour by subset DP; returns the lexicographically
    smallest optimal order starting at city 0."""
    n = matrix.n
    if n < 3:
        raise DegenerateInstanceError(f"exact solver needs n >= 3, got {n}")
    if n > EXACT_MAX_N:
        raise SizeLimitError(
            f"exact solver is limited to n <= {EXACT_MAX_N}, got {n}")
    d = matrix.d
    m = n - 1  # cities 1..n-1 mapped to bits 0..m-1
    full = (1 << m) - 1
    # h[mask][j] = shortest path that starts at city j+1, visits exactly the
    # cities in mask (which contains j), and ends at city 0.
    h = [[0.0] * m for _ in range(full + 1)]
    for j in range(m):
        h[1 << j][j] = d[j + 1][0]
    for mask in range(1, full + 1):
        if mask & (mask - 1) == 0:
            continue
        row = h[mask]
        for j in range(m):
            bit = 1 << j
            if not mask & bit:
                continue
            sub = mask ^ bit
            hs = h[sub]
            dj = d[j + 1]
            best = min(dj[k + 1] + hs[k]
                       for k in range(m) if sub & (1 << k))
            row[j] = best

    target = min(d[0][j + 1] + h[full][j] for j in range(m))
    order = [0]
    mask_cur = full
    cur = 0
    remaining = target
    while mask_cur:
        for j in range(m):
            if mask_cur & (1 << j) and \
                    d[cur][j + 1] + h[mask_cur][j] == remaining:
                order.append(j + 1)
                remaining = h[mask_cur][j]
                mask_cur ^= 1 << j
                cur = j + 1
                break
        else:  # pragma: no cover - float safety net
            raise AssertionError("exact DP reconstruction failed")
    return make_tour(order, matrix)


def _min_one_tree(dd: np.ndarray) -> Tuple[float, np.ndarray]:
    """Minimum 1-tree value and node degrees for the given weights: dense
    Prim MST over cities 1..n-1 plus the two cheapest edges at city 0."""
    n = dd.shape[0]
    deg = np.zeros(n, dtype=int)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True  # city 0 stays out of the MST
    in_tree[1] = True
    best = dd[1].copy()
    best[0] = np.inf
    best[1] = np.inf
    parent = np.ones(n, dtype=int)
    total = 0.0
    for _ in range(n - 2):
        j = int(np.argmin(np.where(in_tree, np.inf, best)))
        in_tree[j] = True
        total += best[j]
        deg[j] += 1
        deg[parent[j]] += 1
        better = (dd[j] < best) & ~in_tree
        best[better] = dd[j][better]
        parent[better] = j
    two = np.argsort(dd[0, 1:], kind="stable")[:2] + 1
    total += dd[0, two[0]] + dd[0, two[1]]
    deg[0] = 2
    deg[two[0]] += 1
    deg[two[1]] += 1
    return float(total), deg


def _potential_one_tree(matrix: DistanceMatrix,
                        pi: np.ndarray) -> Tuple[float, np.ndarray]:
    """1-tree bound and node degrees for potentials pi: minimum 1-tree on the
    modified weights d[i][j] + pi[i] + pi[j], minus 2 * sum(pi)."""
    total, deg = _min_one_tree(matrix.d + pi[:, None] + pi[None, :])
    return total - 2.0 * float(pi.sum()), deg


def one_tree_value(matrix: DistanceMatrix,
                   pi: Sequence[float]) -> float:
    """1-tree lower bound for node potentials pi."""
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (matrix.n,):
        raise ConfigError(f"potentials must have length {matrix.n}")
    return _potential_one_tree(matrix, pi)[0]


def held_karp_bound(matrix: DistanceMatrix, max_iters: int = 1000,
                    upper_bound_hint: Optional[float] = None,
                    ) -> LowerBoundResult:
    """Subgradient ascent on the 1-tree bound.

    Step schedule: t_k = lambda_k * (UB - L(pi_k)) / sum((deg_i - 2)^2) with
    lambda_0 = 2, halved after 10 consecutive non-improving iterations. The
    returned bound is the best 1-tree value seen, so it never exceeds the
    optimum regardless of the schedule.
    """
    n = matrix.n
    if n < 3:
        raise DegenerateInstanceError(f"need n >= 3, got {n}")
    if max_iters <= 0:
        raise ConfigError(f"max_iters must be positive, got {max_iters}")
    if upper_bound_hint is None:
        # cheap valid upper bound: nearest-neighbor-style greedy walk
        from .baselines import nearest_neighbor
        upper_bound_hint = nearest_neighbor(matrix).length
    ub = float(upper_bound_hint)
    if not np.isfinite(ub):
        raise ConfigError(f"upper_bound_hint must be finite, got {ub}")

    pi = np.zeros(n)
    best = -np.inf
    best_pi = pi.copy()
    lam = 2.0
    stale = 0
    iterations = 0
    for iterations in range(1, max_iters + 1):
        value, deg = _potential_one_tree(matrix, pi)
        if value > best:
            best = value
            best_pi = pi.copy()
            stale = 0
        else:
            stale += 1
            if stale >= 10:
                lam *= 0.5
                stale = 0
        g = deg - 2
        denom = float(np.dot(g, g))
        if denom == 0.0:
            break  # the 1-tree is a tour: bound is tight
        step = lam * max(ub - value, 0.0) / denom
        if step == 0.0:
            break
        pi = pi + step * g
    return LowerBoundResult(bound=best, iterations_used=iterations,
                            potentials=best_pi)
