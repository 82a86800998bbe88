import hashlib

import numpy as np
import pytest

import tourcraft as tc
from conftest import (brute_force_optimum, load_instance, memory_slack,
                      random_matrix, tie_heavy_matrix, traced_peak,
                      unrounded_matrix)
from tourcraft import baselines

NOT_CITY_INDICES = [1.5, "2", True, False, np.bool_(True)]


class TestNearestNeighbor:
    def test_equilateral(self):
        d = 2.0 * (np.ones((3, 3)) - np.eye(3))
        m = tc.DistanceMatrix(d)
        assert tc.nearest_neighbor(m, 0).length == 6

    def test_collinear_hand_walk(self):
        m = unrounded_matrix([(0, 0), (1, 0), (3, 0)])
        t = tc.nearest_neighbor(m, 0)
        assert t.order == (0, 1, 2)
        assert t.length == pytest.approx(6.0)

    def test_invalid_start(self):
        m = random_matrix(5, 0)
        for start in [7, -1, *NOT_CITY_INDICES, None]:
            with pytest.raises(tc.ConfigError):
                tc.nearest_neighbor(m, start)

    def test_numpy_integer_start(self):
        m = random_matrix(5, 0)
        assert tc.nearest_neighbor(m, np.int64(2)) == tc.nearest_neighbor(m, 2)


class TestGreedyEdge:
    def test_unit_square(self):
        m = unrounded_matrix([(0, 0), (1, 0), (1, 1), (0, 1)])
        t = tc.greedy_edge(m)
        assert t.length == pytest.approx(4.0)

    def test_triangle(self):
        m = random_matrix(3, 4)
        t = tc.greedy_edge(m)
        assert t.length == pytest.approx(tc.tour_length([0, 1, 2], m))


class TestClarkeWright:
    def test_square_any_hub(self):
        m = unrounded_matrix([(0, 0), (1, 0), (1, 1), (0, 1)])
        # hand-evaluated savings for hub 0: s(1,3)=2-sqrt(2), s(1,2)=s(2,3)=1
        t = tc.clarke_wright(m, hub=0)
        assert tc.validate_tour(t.order, 4)
        assert t.length >= 4.0 - 1e-9

    def test_n3_unique(self):
        m = random_matrix(3, 6)
        assert tc.clarke_wright(m).length == \
            pytest.approx(tc.tour_length([0, 1, 2], m))
        for hub in range(3):  # from the lowest non-hub city, the hub last
            order = tc.clarke_wright(m, hub=hub).order
            assert order[0] == int(hub == 0) and order[-1] == hub

    def test_invalid_hub(self):
        m = random_matrix(6, 0)
        for hub in [9, -1, *NOT_CITY_INDICES]:  # hub=None is the default hub
            with pytest.raises(tc.ConfigError):
                tc.clarke_wright(m, hub=hub)

    def test_numpy_integer_hub(self):
        m = random_matrix(6, 0)
        assert tc.clarke_wright(m, hub=np.int32(2)) == tc.clarke_wright(m, hub=2)

    def test_default_hub_most_remote(self):
        m = unrounded_matrix([(0, 0), (1, 0), (0, 1), (50, 50)])
        stats = tc.city_stats(m)
        assert int(np.argmax(stats.mu)) == 3
        t = tc.clarke_wright(m)
        assert tc.validate_tour(t.order, 4)


@pytest.mark.parametrize("method", ["nn", "greedy", "cw"])
def test_baselines_valid_and_above_optimum(method):
    solvers = {"nn": tc.nearest_neighbor, "greedy": tc.greedy_edge,
               "cw": tc.clarke_wright}
    for seed in range(12):
        n = 5 + seed % 5  # 5..9
        m = random_matrix(n, 200 + seed)
        t = solvers[method](m)
        assert tc.validate_tour(t.order, n)
        assert t.length >= brute_force_optimum(m) - 1e-9


@pytest.mark.parametrize("method", ["nn", "greedy", "cw"])
def test_baselines_deterministic(method):
    solvers = {"nn": tc.nearest_neighbor, "greedy": tc.greedy_edge,
               "cw": tc.clarke_wright}
    m = random_matrix(40, 77)
    assert solvers[method](m) == solvers[method](m)


def test_tour_orders_pinned():
    # sha256 of the orders of the grid and every baseline (Clarke-Wright with
    # its default hub and with hubs 0-5) on the bundled instances and on
    # acceptance criterion 4's first three instances; any change of a tour's
    # order, rotation or direction changes it
    matrices = [tc.build_distance_matrix(load_instance(name)) for name in
                ("att48", "berlin52", "eil51", "eil76", "kroA100")]
    matrices += [tc.build_distance_matrix(
        tc.generate_random_euclidean(100, seed, 1_000_000))
        for seed in (1, 2, 3)]
    orders = []
    for m in matrices:
        orders.append(tc.grid_search(m).tour.order)
        orders.append(tc.nearest_neighbor(m).order)
        orders.append(tc.greedy_edge(m).order)
        orders.append(tc.clarke_wright(m).order)
        orders.extend(tc.clarke_wright(m, hub=h).order for h in range(6))
    assert hashlib.sha256(repr(orders).encode()).hexdigest() == \
        "f4b98a02a04eeac23bfbcad5da93ebc3565164548a19ab7794410847d21ce12e"


def merged_adjacency(n, keyed_pairs, edges):
    """The plain merge loop: take the pairs as sorted((key, i, j)) and keep
    one while both ends have degree < 2 and lie in different paths (a
    union-find), or it is the edge that closes all n cities into one loop,
    until `edges` edges are kept. Each city's neighbours in keep order."""
    parent = list(range(n))
    adjacency = [[] for _ in range(n)]

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    kept = 0
    for _, i, j in sorted(keyed_pairs):
        if kept == edges:
            break
        if len(adjacency[i]) < 2 and len(adjacency[j]) < 2 and \
                (find(i) != find(j) or kept == n - 1):
            parent[find(i)] = find(j)
            adjacency[i].append(j)
            adjacency[j].append(i)
            kept += 1
    return adjacency


def walked(adjacency, start):
    """The loop's cities from `start`, first along its first kept edge."""
    order, prev, cur = [start], start, adjacency[start][0]
    while cur != start:
        order.append(cur)
        a, b = adjacency[cur]
        prev, cur = cur, (a if a != prev else b)
    assert len(order) == len(adjacency)
    return order


def greedy_reference(m):
    d = m.d.tolist()
    pairs = [(d[i][j], i, j) for i in range(m.n) for j in range(i + 1, m.n)]
    return walked(merged_adjacency(m.n, pairs, m.n), 0)


def clarke_wright_reference(m, hub):
    d, n = m.d.tolist(), m.n
    rest = [c for c in range(n) if c != hub]
    pairs = [(-(d[hub][i] + d[hub][j] - d[i][j]), i, j)
             for a, i in enumerate(rest) for j in rest[a + 1:]]
    adjacency = merged_adjacency(n, pairs, n - 2)
    for end in rest:  # the hub joins the path's two ends, lower one first
        if len(adjacency[end]) < 2:
            adjacency[hub].append(end)
            adjacency[end].append(hub)
    order = walked(adjacency, int(hub == 0))
    k = order.index(hub)
    return order[k + 1:] + order[:k + 1]


def float_matrices(n, seed):
    """Exact Euclidean distances between random points, and the same
    rounded to 0.1, which still ties some pairs."""
    pts = np.random.default_rng(seed).uniform(0, 10, (n, 2))
    exact = unrounded_matrix(pts)
    return [exact, tc.DistanceMatrix(np.round(exact.d, 1))]


def assert_merges_match_references(n, seed):
    # weights 1-3: most pairs tie on length and on savings, so every tour
    # below depends on ties going to the smaller (i, j) pair; on float
    # weights a savings key summed in another order rounds differently
    for m in [tie_heavy_matrix(n, 300 + 10 * n + seed),
              *float_matrices(n, 700 + 10 * n + seed)]:
        assert tc.greedy_edge(m).order == tuple(greedy_reference(m))
        default_hub = int(np.argmax(tc.city_stats(m).mu))
        assert tc.clarke_wright(m).order == \
            tuple(clarke_wright_reference(m, default_hub))
        for hub in sorted({*range(min(4, n)), n - 1}):
            assert tc.clarke_wright(m, hub=hub).order == \
                tuple(clarke_wright_reference(m, hub)), (seed, hub)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12, 20, 40, 60, 100])
def test_merge_loop_matches_plain_reference_on_ties(n):
    for seed in range(3):
        assert_merges_match_references(n, seed)


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("n", [3, 4, 5, 8, 12, 20])
def test_merge_chunk_boundaries_match_plain_reference(monkeypatch, chunk, n):
    # with one or three pairs per chunk, accepted edges, rejected pairs and
    # the closing edge each fall on a chunk boundary, so a pair whose end
    # closes in the chunk before is dropped by the filter, not by can_connect
    monkeypatch.setattr(baselines, "MERGE_CHUNK", chunk)
    for seed in range(3):
        assert_merges_match_references(n, seed)


@pytest.mark.parametrize("method", [tc.greedy_edge, tc.clarke_wright])
def test_merge_holds_two_matrices_of_pairs(method):
    # the pair index arrays (n(n-1)/2 int64 each) and the key and its
    # ranking: two n x n float arrays' worth of bytes, nothing n x n beyond
    n = 300
    m = random_matrix(n, 4)
    method(m)  # warm numpy up
    peak = traced_peak(lambda: method(m))
    assert peak <= 16 * n * n + memory_slack(n)
