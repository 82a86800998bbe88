import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tourcraft as tc
import tourcraft.construction as construction
from conftest import (brute_force_optimum, load_instance, memory_slack,
                      random_matrix, traced_peak, triangle_345,
                      unrounded_matrix)
from paper_oracle import construct_order, eq1_priority, eq2_priority


class TestEq1:
    def test_simple_product(self):
        assert eq1_priority(4, 9, 0.5, 1) == 18

    def test_zero_exponent_neutralizes(self):
        assert eq1_priority(5, 0, 1, 0) == 5

    def test_all_zero(self):
        assert eq1_priority(0, 0, 0, 0) == 1


class TestEq2:
    def test_simple_ratio(self):
        assert eq2_priority(9, 4, 3, 1, 0.5, 0) == 1

    def test_all_zero_exponents(self):
        assert eq2_priority(12.3, 4.5, 6.7, 0, 0, 0) == 1

    def test_zero_distance_maximal(self):
        assert eq2_priority(1, 1, 0, 1, 0, 0) == math.inf

    def test_monotone_in_distance(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            mu, sigma = rng.uniform(0.1, 10, 2)
            d1, d2 = sorted(rng.uniform(0.1, 10, 2))
            if d1 == d2:
                continue
            gamma = rng.uniform(0.1, 2)
            assert eq2_priority(mu, sigma, d1, gamma, 1, 1) > \
                eq2_priority(mu, sigma, d2, gamma, 1, 1)


class PathOracle:
    """Naive connected-component mirror of the tracker, for cross-checking."""

    def __init__(self, n):
        self.components = [{i} for i in range(n)]
        self.degree = [0] * n

    def find(self, x):
        for comp in self.components:
            if x in comp:
                return comp
        raise AssertionError(x)

    def connect(self, a, b):
        ca, cb = self.find(a), self.find(b)
        self.degree[a] += 1
        self.degree[b] += 1
        if ca is cb:
            return  # closed the final loop
        self.components.remove(cb)
        ca |= cb

    def endpoints(self, comp):
        return sorted(x for x in comp if self.degree[x] < 2)


class TestTracker:
    def test_fresh_pair_connectable(self):
        t = tc.PathEndTracker(5)
        assert t.can_connect(0, 3)

    def test_two_cycle_blocked(self):
        t = tc.PathEndTracker(4)
        t.connect(0, 1)
        assert not t.can_connect(0, 1)

    def test_full_city_blocked_on_either_side(self):
        t = tc.PathEndTracker(5)
        t.connect(0, 1)
        t.connect(0, 2)
        assert t.degree[0] == 2
        assert not t.can_connect(0, 3)
        assert not t.can_connect(3, 0)

    def test_final_edge_exception(self):
        t = tc.PathEndTracker(4)
        t.connect(0, 1)
        t.connect(1, 2)
        t.connect(2, 3)
        assert t.edge_count == 3 == t.n - 1
        assert t.can_connect(3, 0)

    def test_singleton_connect_sets_ends(self):
        t = tc.PathEndTracker(4)
        t.connect(0, 1)
        assert t.other_end[0] == 1 and t.other_end[1] == 0

    def test_endpoint_relinking(self):
        t = tc.PathEndTracker(4)
        t.connect(0, 2)  # path 0-2
        t.connect(1, 3)  # path 1-3
        t.connect(2, 3)  # join at the x/y ends
        assert t.other_end[0] == 1 and t.other_end[1] == 0

    def test_involution_against_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = 8
            t = tc.PathEndTracker(n)
            oracle = PathOracle(n)
            connected = set()
            while t.edge_count < n:
                pairs = [(a, b) for a in range(n) for b in range(n)
                         if a != b and t.degree[a] < 2 and t.can_connect(a, b)]
                if not pairs:
                    break
                a, b = pairs[rng.integers(len(pairs))]
                # before the final edge the pair must span two components
                if t.edge_count < n - 1:
                    assert oracle.find(a) is not oracle.find(b)
                t.connect(a, b)
                oracle.connect(a, b)
                connected.add(frozenset((a, b)))
                for comp in oracle.components:
                    ends = oracle.endpoints(comp)
                    if len(ends) == 1:          # singleton
                        assert t.other_end[ends[0]] == ends[0]
                    elif len(ends) == 2:        # path: ends point at each other
                        assert t.other_end[ends[0]] == ends[1]
                        assert t.other_end[ends[1]] == ends[0]
                assert sum(t.degree) == 2 * t.edge_count
                assert t.open.tolist() == [k < 2 for k in t.degree]
            assert t.edge_count == n
            for s in range(n):
                order = t.cycle(s)
                assert order[0] == s and sorted(order) == list(range(n))
                walked = {frozenset(p) for p in zip(order, order[1:] +
                                                    order[:1])}
                assert walked == connected


class TestMainSteps:
    def test_triangle_unique_cycle(self, triangle_345):
        stats = tc.city_stats(triangle_345)
        for combo in (tc.ExponentCombo(0, 0, 0, 0, 0),
                      tc.ExponentCombo(1, 1, 1, 1, 1)):
            tour = tc.construct_tour(triangle_345, stats, combo).tour
            assert sorted(tour.order) == [0, 1, 2]
            assert tour.length == 12

    def test_unit_square_nearest_attraction(self):
        # combo (0,0,1,0,0) reduces the neighbor score to 1/d: hand-simulating
        # the two passes on 4 symmetric points yields the perimeter
        m = unrounded_matrix([(0, 0), (1, 0), (1, 1), (0, 1)])
        stats = tc.city_stats(m)
        result = tc.construct_tour(m, stats, tc.ExponentCombo(0, 0, 1, 0, 0))
        assert result.tour.length == pytest.approx(4.0)
        assert brute_force_optimum(m) == pytest.approx(4.0)

    def test_degrees_after_each_step(self):
        # construct_tour asserts every degree >= 1 after step 1 and a
        # 2-regular cycle of n edges after step 2
        rng = np.random.default_rng(23)
        for seed in range(100):
            m = random_matrix(5, seed)
            stats = tc.city_stats(m)
            combo = tc.ExponentCombo(*rng.choice([0, 0.5, 1], size=5))
            tour = tc.construct_tour(m, stats, combo).tour
            assert sorted(tour.order) == list(range(5))


class TestConstructTour:
    def test_triangle_forced(self, triangle_345):
        stats = tc.city_stats(triangle_345)
        r = tc.construct_tour(triangle_345, stats, tc.ExponentCombo(1, 0, 1, 0, 0))
        assert r.tour.length == 12

    def test_never_beats_brute_force(self):
        for seed in range(15):
            n = 4 + seed % 6  # n in 4..9
            m = random_matrix(n, 100 + seed)
            stats = tc.city_stats(m)
            opt = brute_force_optimum(m)
            for combo in (tc.ExponentCombo(0, 0.5, 1, 0, 0.5),
                          tc.ExponentCombo(1, 1, 1, 1, 1)):
                r = tc.construct_tour(m, stats, combo)
                assert tc.validate_tour(r.tour.order, n).ok
                assert r.tour.length >= opt - 1e-9

    def test_deterministic(self):
        m = random_matrix(40, 9)
        stats = tc.city_stats(m)
        combo = tc.ExponentCombo(0.5, 1, 1, 0.5, 0)
        a = tc.construct_tour(m, stats, combo)
        b = tc.construct_tour(m, stats, combo)
        assert a.tour == b.tour

    def test_single_cycle_structure(self):
        m = random_matrix(25, 3)
        stats = tc.city_stats(m)
        r = tc.construct_tour(m, stats, tc.ExponentCombo(0.5, 0.5, 1, 0.5, 0))
        assert tc.validate_tour(r.tour.order, 25).ok

    def test_rejects_degenerate(self):
        m = tc.DistanceMatrix(2, np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(tc.DegenerateInstanceError):
            tc.construct_tour(m, tc.city_stats(m), tc.ExponentCombo(0, 0, 0, 0, 0))

    def test_coincident_cities_connect(self):
        inst = tc.Instance("dup", 4, "EUC_2D",
                           coords=((0, 0), (0, 0), (10, 0), (10, 10)))
        m = tc.build_distance_matrix(inst)
        stats = tc.city_stats(m)
        r = tc.construct_tour(m, stats, tc.ExponentCombo(0, 0, 1, 0, 0))
        order = list(r.tour.order)
        pos = {c: i for i, c in enumerate(order)}
        assert abs(pos[0] - pos[1]) in (1, 3)  # zero-distance pair adjacent


def test_scores_on_exact_geometry_and_measures_rounded():
    # rounded, city 0 is 1 from both 1 and 2 and the tie picks 1; exactly,
    # 2 (0.6 away) is nearer than 1 (1.4 away)
    coords = ((0, 0), (1.4, 0), (0, 0.6), (1.4, 2), (0, 2))
    combo = tc.ExponentCombo(0, 0, 1, 0, 0)
    m = tc.build_distance_matrix(tc.Instance("r", 5, "EUC_2D", coords=coords))
    exact = unrounded_matrix(coords)
    rounded_only = tc.DistanceMatrix(5, m.d)
    r = tc.construct_tour(m, tc.city_stats(m), combo)
    want = tc.construct_tour(exact, tc.city_stats(exact), combo).tour.order
    wrong = tc.construct_tour(rounded_only, tc.city_stats(rounded_only),
                              combo).tour.order
    # step 1 joins city 0 first, to 2, and the walk leaves 0 along that edge
    assert r.tour.order[1] == 2
    assert r.tour.order == want != wrong
    assert r.tour.length == tc.tour_length(r.tour.order, rounded_only)


class TestGridSearch:
    def test_singleton_grid(self):
        m = random_matrix(12, 8)
        stats = tc.city_stats(m)
        combo = tc.ExponentCombo(0.5, 0, 1, 0.5, 0)
        single = tc.grid_search(m, stats, [combo])
        direct = tc.construct_tour(m, stats, combo)
        assert single.tour == direct.tour and single.combo == combo

    def test_superset_dominance(self):
        m = random_matrix(20, 13)
        stats = tc.city_stats(m)
        small = tc.grid_search(m, stats, tc.default_grid([0, 1]))
        full = tc.grid_search(m, stats, tc.default_grid([0, 0.5, 1]))
        assert full.tour.length <= small.tour.length

    def test_best_bounds_every_combo(self):
        m = random_matrix(10, 21)
        stats = tc.city_stats(m)
        grid = tc.default_grid([0, 1])
        best = tc.grid_search(m, stats, grid)
        for combo in grid:
            assert best.tour.length <= \
                tc.construct_tour(m, stats, combo).tour.length + 1e-9

    def test_empty_grid_rejected(self):
        m = random_matrix(5, 1)
        with pytest.raises(tc.ConfigError):
            tc.grid_search(m, tc.city_stats(m), [])

    def test_negative_exponent_with_zero_stat_rejected(self):
        d = np.ones((4, 4)) - np.eye(4)  # sigma = 0 everywhere
        m = tc.DistanceMatrix(4, d)
        stats = tc.city_stats(m)
        with pytest.raises(tc.ConfigError):
            tc.grid_search(m, stats, [tc.ExponentCombo(0, -1, 0, 0, 0)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_exponent_rejected(self, bad):
        with pytest.raises(tc.ConfigError, match="finite"):
            tc.ExponentCombo(0, 0, bad, 0, 0)
        with pytest.raises(tc.ConfigError, match="finite"):
            tc.default_grid([0, bad])

    def test_grid_order_lexicographic(self):
        grid = tc.default_grid([1, 0])
        assert grid[0] == tc.ExponentCombo(0, 0, 0, 0, 0)
        assert grid[-1] == tc.ExponentCombo(1, 1, 1, 1, 1)
        assert len(grid) == 32


def brute_grid(m, grid, order_of):
    """(order, combo) of a scan over `grid` in its order that keeps the
    first strictly shorter tour; `order_of(combo)` gives the tour."""
    best = None
    for combo in grid:
        order = tuple(order_of(combo))
        length = tc.tour_length(order, m)
        if best is None or length < best[0]:
            best = (length, order, combo)
    return best[1], best[2]


def oracle(m, stats):
    d, mu, sigma = m.heuristic.tolist(), stats.mu.tolist(), stats.sigma.tolist()
    return lambda combo: construct_order(d, mu, sigma, combo.as_tuple())


def assert_grid_matches_brute_grid(m, grid=None, reference=oracle):
    stats = tc.city_stats(m)
    combos = tc.default_grid() if grid is None else grid
    got = tc.grid_search(m, stats, grid)
    want = brute_grid(m, combos, reference(m, stats))
    assert (got.tour.order, got.combo) == want


def criterion_5_matrices(count):
    rng = np.random.default_rng(2024)  # acceptance criterion 5's instances
    for _ in range(count):
        n = int(rng.integers(4, 13))
        yield tc.build_distance_matrix(tc.generate_random_euclidean(
            n, int(rng.integers(1 << 30)), 1000.0))


def coincident_matrix():
    coords = ((0, 0), (5, 5), (0, 0), (10, 0), (5, 5), (0, 10), (10, 10))
    return tc.build_distance_matrix(tc.Instance("dup", 7, "EUC_2D",
                                                coords=coords))


def equidistant_matrix(n=5):
    return tc.DistanceMatrix(n, np.ones((n, n)) - np.eye(n))  # sigma = 0


class TestGridMatchesBruteGrid:
    """grid_search shares orders and score matrices between grid points;
    it must pick what a plain scan of every grid point picks."""

    @pytest.mark.parametrize("make", [
        lambda: tc.build_distance_matrix(load_instance("att48")),
        lambda: tc.build_distance_matrix(load_instance("eil51")),
        coincident_matrix, equidistant_matrix,
    ], ids=["att48", "eil51", "coincident", "equidistant"])
    def test_default_grid_against_oracle(self, make):
        assert_grid_matches_brute_grid(make())

    def test_criterion_5_instances_against_oracle(self):
        for m in criterion_5_matrices(20):
            assert_grid_matches_brute_grid(m)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_criterion_4_instances_against_construct_tour(self, seed):
        m = tc.build_distance_matrix(
            tc.generate_random_euclidean(100, seed, 1_000_000))
        assert_grid_matches_brute_grid(m, reference=lambda m, stats: (
            lambda combo: tc.construct_tour(m, stats, combo).tour.order))

    @pytest.mark.parametrize("grid", [
        tc.default_grid([0, 1]),
        list(reversed(tc.default_grid([0, 1]))),
        tc.default_grid([0, 1]) * 2,
        [tc.ExponentCombo(0.5, 1, 1, 0.5, 0)],
    ], ids=["binary", "reversed", "repeated", "singleton"])
    def test_other_grids_against_oracle(self, grid):
        for m in (random_matrix(30, 5), coincident_matrix()):
            assert_grid_matches_brute_grid(m, grid)

    def test_constructs_each_distinct_pair_once(self, monkeypatch):
        m = random_matrix(20, 13)
        stats = tc.city_stats(m)
        mu, sigma = stats.mu.tolist(), stats.sigma.tolist()
        orders = {tuple(sorted(range(20), key=lambda c: (
            -eq1_priority(mu[c], sigma[c], a, b), c)))
            for a in (0, 0.5, 1) for b in (0, 0.5, 1)}
        calls = []

        def counted(*args):
            calls.append(args[2])
            return tc.construct_tour(*args)

        monkeypatch.setattr(construction, "construct_tour", counted)
        result = tc.grid_search(m, stats)
        assert len(calls) == len(set(calls)) == 27 * len(orders) < 243
        assert result.neighbor_evaluations == len(calls) * 20 * 19

    def test_sigma_zero_raises_no_warning(self):
        m = equidistant_matrix()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tc.grid_search(m, tc.city_stats(m))

    def test_sigma_zero_solve_writes_nothing_to_stderr(self, tmp_path):
        f = tmp_path / "eq.tsp"
        f.write_text("NAME: eq\nTYPE: TSP\nDIMENSION: 4\n"
                     "EDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_WEIGHT_FORMAT: UPPER_ROW\n"
                     "EDGE_WEIGHT_SECTION\n5 5 5 5 5 5\nEOF\n")
        src = Path(tc.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "tourcraft.cli", "solve", str(f)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.startswith("eq: length 20 ")


def test_grid_search_holds_one_extra_matrix():
    n = 300
    m = random_matrix(n, 4)
    stats = tc.city_stats(m)
    tc.grid_search(m, stats, tc.default_grid([1]))  # warm numpy up
    peak = traced_peak(lambda: tc.grid_search(m, stats))
    assert peak <= 8 * n * n + memory_slack(n)


def test_eq1_order_scale_invariance():
    rng = np.random.default_rng(31)
    for _ in range(100):
        mu = rng.uniform(0.1, 50, 12)
        sigma = rng.uniform(0.0, 20, 12)
        alpha, beta = rng.choice([0, 0.5, 1], size=2)
        scale = rng.uniform(0.01, 100)
        base = [eq1_priority(m, s, alpha, beta) for m, s in zip(mu, sigma)]
        scaled = [eq1_priority(m * scale, s, alpha, beta)
                  for m, s in zip(mu, sigma)]
        assert np.array_equal(np.argsort(base, kind="stable"),
                              np.argsort(scaled, kind="stable"))


def test_neighbor_evaluations_exactly_quadratic():
    # each of the n placed edges costs one scan of the n-1 other cities
    for n, seed in ((20, 1), (50, 2), (100, 3)):
        m = random_matrix(n, seed)
        stats = tc.city_stats(m)
        r = tc.construct_tour(m, stats, tc.ExponentCombo(0.5, 1, 1, 0.5, 0))
        assert r.neighbor_evaluations == n * (n - 1)


@pytest.mark.parametrize("n,seed", [(51, None), (12, 1), (17, 2), (21, 3),
                                    (26, 4), (30, 5)])
def test_matches_paper_transcription_on_default_grid(n, seed):
    # eil51 (seed None) and five random instances, every default grid point
    if seed is None:
        m = tc.build_distance_matrix(load_instance("eil51"))
    else:
        m = random_matrix(n, seed)
    stats = tc.city_stats(m)
    d, mu, sigma = m.heuristic.tolist(), stats.mu.tolist(), stats.sigma.tolist()
    rounded = m.d.tolist()
    for combo in tc.default_grid():
        got = tc.construct_tour(m, stats, combo).tour
        want = construct_order(d, mu, sigma, combo.as_tuple())
        assert got.order == tuple(want), combo
        assert got.length == sum(rounded[a][b]
                                 for a, b in zip(want, want[1:] + want[:1]))
