"""Classic tour construction baselines: nearest neighbor, greedy edge,
Clarke-Wright savings.

All three are deterministic: every tie breaks toward the lower city index
(or the lexicographically smaller endpoint pair).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .construction import PathEndTracker, _ranked
from .errors import ConfigError
from .instance import (CityStats, DistanceMatrix, Tour, _require_n,
                       city_stats, make_tour)


def nearest_neighbor(matrix: DistanceMatrix, start: int = 0) -> Tour:
    """Walk greedily to the nearest unvisited city, then close the cycle."""
    n = _require_n(matrix)
    if not 0 <= start < n:
        raise ConfigError(f"start city {start} out of range for n={n}")
    visited = np.zeros(n, dtype=bool)
    visited[start] = True
    order = [start]
    cur = start
    for _ in range(n - 1):
        row = np.where(visited, np.inf, matrix.d[cur])
        cur = int(np.argmin(row))  # first min = lowest index on ties
        visited[cur] = True
        order.append(cur)
    return make_tour(order, matrix)


def _merge(n: int, key: np.ndarray) -> PathEndTracker:
    """The closed tour of n cities built by connecting the pairs i < j in
    ascending key, ties toward the earlier pair, while `can_connect` admits
    them, until it holds n edges. `key` holds one key per pair, in
    np.triu_indices order."""
    first, second = np.triu_indices(n, k=1)
    tracker = PathEndTracker(n)
    for k in _ranked(key):
        if tracker.edge_count == n:
            break
        a = int(first[k])
        b = int(second[k])
        if tracker.can_connect(a, b):
            tracker.connect(a, b)
    return tracker


def greedy_edge(matrix: DistanceMatrix) -> Tour:
    """Add edges in ascending length while every city keeps degree <= 2 and
    no cycle forms before the final closing edge."""
    n = _require_n(matrix)
    tracker = _merge(n, matrix.d[np.triu_indices(n, k=1)])
    return make_tour(tracker.cycle(), matrix)


def clarke_wright(matrix: DistanceMatrix, hub: Optional[int] = None,
                  stats: Optional[CityStats] = None) -> Tour:
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
        st = stats if stats is not None else city_stats(matrix)
        hub = int(np.argmax(st.mu))
    if not 0 <= hub < n:
        raise ConfigError(f"hub {hub} out of range for n={n}")
    d = matrix.d
    key = -(d[hub][:, None] + d[hub] - d)  # minus the savings of pair (i, j)
    key[hub, :] = key[:, hub] = np.inf
    tracker = _merge(n, key[np.triu_indices(n, k=1)])
    order = tracker.cycle(start=int(hub == 0))
    k = order.index(hub)
    return make_tour(order[k + 1:] + order[:k + 1], matrix)
