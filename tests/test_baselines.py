import hashlib

import numpy as np
import pytest

import tourcraft as tc
from conftest import (brute_force_optimum, load_instance, random_matrix,
                      unrounded_matrix)


class TestNearestNeighbor:
    def test_equilateral(self):
        d = 2.0 * (np.ones((3, 3)) - np.eye(3))
        m = tc.DistanceMatrix(3, d)
        assert tc.nearest_neighbor(m, 0).length == 6

    def test_collinear_hand_walk(self):
        m = unrounded_matrix([(0, 0), (1, 0), (3, 0)])
        t = tc.nearest_neighbor(m, 0)
        assert t.order == (0, 1, 2)
        assert t.length == pytest.approx(6.0)

    def test_invalid_start(self):
        m = random_matrix(5, 0)
        with pytest.raises(tc.ConfigError):
            tc.nearest_neighbor(m, 7)


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
        assert tc.validate_tour(t.order, 4).ok
        assert t.length >= 4.0 - 1e-9

    def test_n3_unique(self):
        m = random_matrix(3, 6)
        assert tc.clarke_wright(m).length == \
            pytest.approx(tc.tour_length([0, 1, 2], m))
        for hub in range(3):  # from the lowest non-hub city, the hub last
            order = tc.clarke_wright(m, hub=hub).order
            assert order[0] == int(hub == 0) and order[-1] == hub

    def test_invalid_hub(self):
        with pytest.raises(tc.ConfigError):
            tc.clarke_wright(random_matrix(6, 0), hub=9)

    def test_default_hub_most_remote(self):
        m = unrounded_matrix([(0, 0), (1, 0), (0, 1), (50, 50)])
        stats = tc.city_stats(m)
        assert int(np.argmax(stats.mu)) == 3
        t = tc.clarke_wright(m)
        assert tc.validate_tour(t.order, 4).ok


@pytest.mark.parametrize("method", ["nn", "greedy", "cw"])
def test_baselines_valid_and_above_optimum(method):
    solvers = {"nn": tc.nearest_neighbor, "greedy": tc.greedy_edge,
               "cw": tc.clarke_wright}
    for seed in range(12):
        n = 5 + seed % 5  # 5..9
        m = random_matrix(n, 200 + seed)
        t = solvers[method](m)
        assert tc.validate_tour(t.order, n).ok
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
        orders.append(tc.grid_search(m, tc.city_stats(m)).tour.order)
        orders.append(tc.nearest_neighbor(m).order)
        orders.append(tc.greedy_edge(m).order)
        orders.append(tc.clarke_wright(m).order)
        orders.extend(tc.clarke_wright(m, hub=h).order for h in range(6))
    assert hashlib.sha256(repr(orders).encode()).hexdigest() == \
        "f4b98a02a04eeac23bfbcad5da93ebc3565164548a19ab7794410847d21ce12e"
