"""Literal scalar transcription of the paper's construction, the reference
that the vectorised library code is tested against.

eq. 1 ranks cities by mu^alpha * sigma^beta; eq. 2 scores a neighbour by
(mu^delta * sigma^epsilon) / d^gamma. `construct_order` runs the two passes
as plain loops: a repeated max-scan over the pending cities, a scan over
every neighbour, and connected-component labels in place of the library's
path-end table.
"""

import math


def _pow0(base: float, exp: float) -> float:
    # 0^0 = 1 so a zero exponent always removes its factor
    if exp == 0.0:
        return 1.0
    return base ** exp


def eq1_priority(mu_i: float, sigma_i: float, alpha: float, beta: float) -> float:
    """Static city priority mu^alpha * sigma^beta."""
    return _pow0(mu_i, alpha) * _pow0(sigma_i, beta)


def eq2_priority(mu_j: float, sigma_j: float, d_ij: float,
                 gamma: float, delta: float, epsilon: float) -> float:
    """Neighbor attractiveness (mu^delta * sigma^epsilon) / d^gamma.

    Zero distance with gamma > 0 yields +inf so coincident cities always win.
    """
    num = _pow0(mu_j, delta) * _pow0(sigma_j, epsilon)
    if gamma == 0.0:
        return num
    if d_ij == 0.0:
        # d^gamma -> 0 for gamma > 0 (maximal priority), -> inf for gamma < 0
        return math.inf if gamma > 0.0 else 0.0
    return num / d_ij ** gamma


def construct_order(d, mu, sigma, combo):
    """Visiting order of the two-pass construction on the scoring distances
    `d` (nested lists) and per-city statistics `mu`, `sigma` (lists).

    Ties break toward the lower city index, for cities and neighbours alike.
    The cycle is walked from city 0 toward its first-connected neighbour.
    """
    alpha, beta, gamma, delta, epsilon = combo
    n = len(d)
    degree = [0] * n
    component = list(range(n))
    adjacency = [[] for _ in range(n)]
    edges = 0
    for step in (1, 2):
        pending = [c for c in range(n) if degree[c] < 2]
        while pending:
            city = max(pending, key=lambda c: (
                eq1_priority(mu[c], sigma[c], alpha, beta), -c))
            pending.remove(city)
            if degree[city] >= step:
                continue
            best, best_score = None, -math.inf
            for j in range(n):
                if j == city or degree[j] >= 2:
                    continue
                if component[j] == component[city] and edges != n - 1:
                    continue  # would close a cycle before the last edge
                score = eq2_priority(mu[j], sigma[j], d[city][j],
                                     gamma, delta, epsilon)
                if best is None or score > best_score:
                    best, best_score = j, score
            degree[city] += 1
            degree[best] += 1
            adjacency[city].append(best)
            adjacency[best].append(city)
            old = component[best]
            component = [component[city] if c == old else c
                         for c in component]
            edges += 1
    assert edges == n and all(k == 2 for k in degree)
    order, prev = [0], -1
    for _ in range(n - 1):
        cur = order[-1]
        nxt = adjacency[cur][0] if adjacency[cur][0] != prev else adjacency[cur][1]
        order.append(nxt)
        prev = cur
    return order
