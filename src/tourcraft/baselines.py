"""Classic tour construction baselines: nearest neighbor, greedy edge,
Clarke-Wright savings.

All three are deterministic: every tie breaks toward the lower city index
(or the lexicographically smaller endpoint pair).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .instance import (DistanceMatrix, PathEndTracker, Tour, _city,
                       _ranked, _require_n, city_stats, make_tour)

MERGE_CHUNK = 512  # ranked pairs filtered at a time


def nearest_neighbor(matrix: DistanceMatrix, start: int = 0) -> Tour:
    """Walk greedily to the nearest unvisited city, then close the cycle."""
    n = _require_n(matrix)
    start = _city(start, n, "start city")
    visited = np.zeros(n, dtype=bool)
    order = [start]
    for _ in range(n - 1):
        visited[order[-1]] = True
        row = np.where(visited, np.inf, matrix.d[order[-1]])
        order.append(int(np.argmin(row)))  # first min: lowest index on ties
    return make_tour(order, matrix)


def _merge(n: int, key: np.ndarray, first: np.ndarray,
           second: np.ndarray) -> PathEndTracker:
    """The closed tour of n cities built by connecting the pairs
    (first[k], second[k]) in ascending key[k], ties toward the lower k,
    while `can_connect` admits them, until it holds n edges.

    The ranked pairs are read MERGE_CHUNK at a time, and each chunk first
    drops, in numpy, every pair with an end already at degree 2. That is
    exact: a city at degree 2 never reopens and `can_connect` rejects any
    pair with a closed end, so the same edges join in the same order.
    """
    tracker = PathEndTracker(n)
    is_open = tracker.open
    ranked = _ranked(key)
    for lo in range(0, len(ranked), MERGE_CHUNK):
        chunk = ranked[lo:lo + MERGE_CHUNK]
        a = first[chunk]
        b = second[chunk]
        live = is_open[a] & is_open[b]
        for x, y in zip(a[live].tolist(), b[live].tolist()):
            if tracker.can_connect(x, y):
                tracker.connect(x, y)
                if tracker.edge_count == n:
                    return tracker
    return tracker


def greedy_edge(matrix: DistanceMatrix) -> Tour:
    """Add edges in ascending length while every city keeps degree <= 2 and
    no cycle forms before the final closing edge."""
    n = _require_n(matrix)
    first, second = np.triu_indices(n, k=1)
    tracker = _merge(n, matrix.d[first, second], first, second)
    return make_tour(tracker.cycle(), matrix)


def clarke_wright(matrix: DistanceMatrix, hub: Optional[int] = None) -> Tour:
    """Savings heuristic: merge paths over the non-hub cities in descending
    savings d[h,i] + d[h,j] - d[i,j], then close the path through the hub.
    The hub's pairs are keyed +inf, so they sort after every other pair and
    the merge's last two edges join the hub to the path's ends, the lower
    end first.

    Default hub is the most remote city (maximal mean distance in the
    heuristic geometry, see ``city_stats``; ties toward the lower index).
    The tour is walked from the lowest non-hub city along its first merged
    edge, then rotated to end at the hub.
    """
    n = _require_n(matrix)
    if hub is None:
        hub = int(np.argmax(city_stats(matrix).mu))
    hub = _city(hub, n, "hub")
    d = matrix.d
    first, second = np.triu_indices(n, k=1)
    # minus the savings of pair (i, j), -((d[h, i] + d[h, j]) - d[i, j])
    key = d[hub][first]
    key += d[hub][second]
    key -= d[first, second]
    np.negative(key, out=key)
    key[(first == hub) | (second == hub)] = np.inf
    tracker = _merge(n, key, first, second)
    order = tracker.cycle(start=int(hub == 0))
    k = order.index(hub)
    return make_tour(order[k + 1:] + order[:k + 1], matrix)
