"""Plain implementations of the reference solvers, the oracle that the
library's `bounds.py` is tested against.

`held_karp_bound` runs every one of its iterations (no fixed-point stop) on
a fresh n x n weight array each time, `min_one_tree` is a dense Prim that
masks the tree with `np.where`, and `exact_optimum` is the subset DP as
nested Python loops over lists. The library must return exactly what these
return: the same bound bits and the same exact order.
"""

from typing import List, Optional, Tuple

import numpy as np

import tourcraft as tc


def exact_optimum(matrix: tc.DistanceMatrix) -> List[int]:
    """Lexicographically smallest optimal order starting at city 0."""
    n = matrix.n
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
        else:
            raise AssertionError("exact DP reconstruction failed")
    return order


def min_one_tree(dd: np.ndarray) -> Tuple[float, np.ndarray]:
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


def held_karp_bound(matrix: tc.DistanceMatrix, max_iters: int = 1000,
                    upper_bound_hint: Optional[float] = None) -> float:
    """Best 1-tree value of the subgradient ascent, run for every iteration
    up to `max_iters` unless the 1-tree is a tour or the step is zero."""
    n = matrix.n
    if upper_bound_hint is None:
        upper_bound_hint = tc.nearest_neighbor(matrix).length
    ub = float(upper_bound_hint)

    pi = np.zeros(n)
    best = -np.inf
    lam = 2.0
    stale = 0
    for _ in range(1, max_iters + 1):
        total, deg = min_one_tree(matrix.d + pi[:, None] + pi[None, :])
        value = total - 2.0 * float(pi.sum())
        if value > best:
            best = value
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
    return best
