"""Classic tour construction baselines: nearest neighbor, greedy edge,
Clarke-Wright savings.

All three are deterministic: every tie breaks toward the lower city index
(or the lexicographically smaller endpoint pair).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .construction import PathEndTracker, _edges_to_order
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
    edges: List[Tuple[int, int]] = []
    for k in rank:
        if tracker.edge_count == n:
            break
        i = int(iu[k])
        j = int(ju[k])
        if tracker.degree[i] < 2 and tracker.can_connect(i, j):
            tracker.connect(i, j)
            edges.append((i, j))
    assert tracker.edge_count == n, "greedy edge did not close a cycle"
    return make_tour(_edges_to_order(edges, n), matrix)


def clarke_wright(matrix: DistanceMatrix, hub: Optional[int] = None,
                  stats: Optional[CityStats] = None) -> Tour:
    """Savings heuristic: merge paths over the non-hub cities in descending
    savings d[h,i] + d[h,j] - d[i,j], then close the path through the hub.

    Default hub is the most remote city (maximal mean distance in the
    heuristic geometry, see ``city_stats``; ties toward the lower index).
    """
    n = _require_n(matrix)
    if hub is None:
        st = stats if stats is not None else city_stats(matrix)
        hub = int(np.argmax(st.mu))
    if not 0 <= hub < n:
        raise ConfigError(f"hub {hub} out of range for n={n}")
    if n == 3:
        return make_tour([0, 1, 2], matrix)

    rest = np.array([c for c in range(n) if c != hub])
    m = len(rest)
    # local tracker over the non-hub cities; a Hamiltonian path needs m-1
    # edges and must never close a cycle, so the final-edge exception is
    # disabled by keeping edge_count below m-1 semantics manual.
    tracker = PathEndTracker(m)
    ii, jj = np.triu_indices(m, k=1)
    gi = rest[ii]
    gj = rest[jj]
    savings = matrix.d[hub, gi] + matrix.d[hub, gj] - matrix.d[gi, gj]
    rank = np.lexsort((jj, ii, -savings))
    edges: List[Tuple[int, int]] = []
    for k in rank:
        if tracker.edge_count == m - 1:
            break
        a = int(ii[k])
        b = int(jj[k])
        if tracker.degree[a] < 2 and tracker.degree[b] < 2 \
                and tracker.other_end[a] != b:
            tracker.connect(a, b)
            edges.append((a, b))
    assert tracker.edge_count == m - 1, "savings merge left a broken path"
    ends = [int(x) for x in np.flatnonzero(tracker.degree < 2)]
    assert len(ends) == 2
    order_local = _edges_to_order(edges + [(ends[0], ends[1])], m)
    # rotate so the cut sits between the two path endpoints, then insert hub
    pos = {c: k for k, c in enumerate(order_local)}
    i0, i1 = sorted((pos[ends[0]], pos[ends[1]]))
    if (i0, i1) != (0, m - 1):
        order_local = order_local[i1:] + order_local[:i1]
    full = [int(rest[c]) for c in order_local] + [hub]
    return make_tour(full, matrix)
