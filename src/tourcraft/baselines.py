"""Classic tour construction baselines: nearest neighbor, greedy edge,
Clarke-Wright savings.

All three are deterministic: every tie breaks toward the lower city index
(or the lexicographically smaller endpoint pair).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .construction import PathEndTracker
from .errors import ConfigError, DegenerateInstanceError
from .instance import CityStats, DistanceMatrix, Tour, city_stats, make_tour


def _require_n(matrix: DistanceMatrix, minimum: int = 3) -> int:
    if matrix.n < minimum:
        raise DegenerateInstanceError(
            f"need at least {minimum} cities, got {matrix.n}")
    return matrix.n


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


def greedy_edge(matrix: DistanceMatrix) -> Tour:
    """Add edges in ascending length while every city keeps degree <= 2 and
    no cycle forms before the final closing edge."""
    n = _require_n(matrix)
    iu, ju = np.triu_indices(n, k=1)
    weights = matrix.d[iu, ju]
    rank = np.lexsort((ju, iu, weights))
    tracker = PathEndTracker(n)
    for k in rank:
        if tracker.edge_count == n:
            break
        i = int(iu[k])
        j = int(ju[k])
        if tracker.can_connect(i, j):
            tracker.connect(i, j)
    return make_tour(tracker.cycle(), matrix)


def clarke_wright(matrix: DistanceMatrix, hub: Optional[int] = None,
                  stats: Optional[CityStats] = None) -> Tour:
    """Savings heuristic: merge paths over the non-hub cities in descending
    savings d[h,i] + d[h,j] - d[i,j], then close the path through the hub.

    Default hub is the most remote city (maximal mean distance in the
    heuristic geometry, see ``city_stats``; ties toward the lower index).
    The tour starts at the lowest non-hub city and ends at the hub.
    """
    n = _require_n(matrix)
    if hub is None:
        st = stats if stats is not None else city_stats(matrix)
        hub = int(np.argmax(st.mu))
    if not 0 <= hub < n:
        raise ConfigError(f"hub {hub} out of range for n={n}")
    rest = np.delete(np.arange(n), hub)
    ii, jj = np.triu_indices(n - 1, k=1)
    gi = rest[ii]
    gj = rest[jj]
    savings = matrix.d[hub, gi] + matrix.d[hub, gj] - matrix.d[gi, gj]
    rank = np.lexsort((gj, gi, -savings))
    tracker = PathEndTracker(n)
    for k in rank:
        if tracker.edge_count == n - 2:
            break
        a = int(gi[k])
        b = int(gj[k])
        if tracker.can_connect(a, b):
            tracker.connect(a, b)
    for end in np.flatnonzero(tracker.open).tolist():
        if end != hub:
            tracker.connect(hub, end)
    order = tracker.cycle(start=int(hub == 0))
    k = order.index(hub)
    return make_tour(order[k + 1:] + order[:k + 1], matrix)
