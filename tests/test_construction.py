import itertools
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import tourcraft as tc
import tourcraft.construction as construction
from tourcraft.errors import _FloatErrors
from conftest import (brute_force_optimum, fractional_matrix, load_instance,
                      memory_slack, random_matrix, tie_heavy_matrix,
                      traced_peak, triangle_345, uniform_matrix,
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
        # n = 5, so the joined path 0-2-3-1 leaves city 4 out
        t = tc.PathEndTracker(5)
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
                    elif len(ends) == 2 and len(comp) == n:
                        # one path through every city (E = n - 1): its ends
                        # point at themselves, so the final edge may join them
                        assert t.other_end[ends[0]] == ends[0]
                        assert t.other_end[ends[1]] == ends[1]
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

    def test_can_connect_against_component_rule(self):
        # the rule as it read before connect kept the final-edge exception
        # as state: a != b, both below degree 2, and either two components
        # or the final edge (E = n - 1)
        rng = np.random.default_rng(29)
        for _ in range(30):
            for n in range(3, 13):
                t = tc.PathEndTracker(n)
                oracle = PathOracle(n)
                while t.edge_count < n:
                    pairs = [(a, b) for a in range(n) for b in range(n)
                             if t.can_connect(a, b)]
                    a, b = pairs[rng.integers(len(pairs))]
                    t.connect(a, b)
                    oracle.connect(a, b)
                    for a, b in itertools.product(range(n), repeat=2):
                        admitted = (
                            a != b and oracle.degree[a] < 2
                            and oracle.degree[b] < 2
                            and (oracle.find(a) is not oracle.find(b)
                                 or t.edge_count == n - 1))
                        assert t.can_connect(a, b) == admitted, \
                            (n, t.edge_count, a, b)

    @pytest.mark.parametrize("start", [-1, 3, True, 1.0])
    def test_cycle_start_is_a_city_index(self, start):
        # on a closed 3-city tracker cycle(-1) walked from city -1,
        # cycle(True) returned [True, 0, 2], and cycle(99) raised an
        # untyped IndexError
        t = tc.PathEndTracker(3)
        for a, b in ((0, 1), (1, 2), (2, 0)):
            t.connect(a, b)
        assert t.cycle() == t.cycle(0) == [0, 1, 2]
        assert t.cycle(np.int64(1)) == [1, 0, 2]
        with pytest.raises(tc.ConfigError, match="start city"):
            t.cycle(start)

    def test_cycle_refuses_two_loops(self):
        # connect trusts its caller to pass only what can_connect admits;
        # six edges that close two triangles are caught by the walk
        t = tc.PathEndTracker(6)
        for a, b in ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)):
            t.connect(a, b)
        assert t.edge_count == 6 and t.degree == [2] * 6
        for s in range(6):
            with pytest.raises(AssertionError, match="loop of 3 of 6"):
                t.cycle(s)


class TestMainSteps:
    def test_triangle_unique_cycle(self, triangle_345):
        for combo in (tc.ExponentCombo(0, 0, 0, 0, 0),
                      tc.ExponentCombo(1, 1, 1, 1, 1)):
            tour = tc.construct_tour(triangle_345, combo).tour
            assert sorted(tour.order) == [0, 1, 2]
            assert tour.length == 12

    def test_unit_square_nearest_attraction(self):
        # combo (0,0,1,0,0) reduces the neighbor score to 1/d: hand-simulating
        # the two passes on 4 symmetric points yields the perimeter
        m = unrounded_matrix([(0, 0), (1, 0), (1, 1), (0, 1)])
        result = tc.construct_tour(m, tc.ExponentCombo(0, 0, 1, 0, 0))
        assert result.tour.length == pytest.approx(4.0)
        assert brute_force_optimum(m) == pytest.approx(4.0)

    def test_degrees_after_each_step(self):
        # construct_tour asserts every degree >= 1 after step 1 and a
        # 2-regular cycle of n edges after step 2
        rng = np.random.default_rng(23)
        for seed in range(100):
            m = random_matrix(5, seed)
            combo = tc.ExponentCombo(*rng.choice([0, 0.5, 1], size=5))
            tour = tc.construct_tour(m, combo).tour
            assert sorted(tour.order) == list(range(5))


class TestConstructTour:
    def test_triangle_forced(self, triangle_345):
        r = tc.construct_tour(triangle_345, tc.ExponentCombo(1, 0, 1, 0, 0))
        assert r.tour.length == 12

    def test_never_beats_brute_force(self):
        for seed in range(15):
            n = 4 + seed % 6  # n in 4..9
            m = random_matrix(n, 100 + seed)
            opt = brute_force_optimum(m)
            for combo in (tc.ExponentCombo(0, 0.5, 1, 0, 0.5),
                          tc.ExponentCombo(1, 1, 1, 1, 1)):
                r = tc.construct_tour(m, combo)
                assert tc.validate_tour(r.tour.order, n)
                assert r.tour.length >= opt - 1e-9

    def test_deterministic(self):
        m = random_matrix(40, 9)
        combo = tc.ExponentCombo(0.5, 1, 1, 0.5, 0)
        a = tc.construct_tour(m, combo)
        b = tc.construct_tour(m, combo)
        assert a.tour == b.tour

    def test_single_cycle_structure(self):
        m = random_matrix(25, 3)
        r = tc.construct_tour(m, tc.ExponentCombo(0.5, 0.5, 1, 0.5, 0))
        assert tc.validate_tour(r.tour.order, 25)

    def test_rejects_degenerate(self):
        # at n = 2 sigma is 0, so beta = -1 would be a ConfigError; every
        # path to a tour checks the city count first
        m = tc.DistanceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(tc.DegenerateInstanceError):
            tc.grid_search(m)
        for combo in (tc.ExponentCombo(0, 0, 0, 0, 0),
                      tc.ExponentCombo(0, -1, 1, 0, 0)):
            with pytest.raises(tc.DegenerateInstanceError):
                tc.construct_tour(m, combo)
            with pytest.raises(tc.DegenerateInstanceError):
                tc.grid_search(m, [combo])

    def test_coincident_cities_connect(self):
        inst = tc.Instance("dup", "EUC_2D",
                           coords=((0, 0), (0, 0), (10, 0), (10, 10)))
        m = tc.build_distance_matrix(inst)
        r = tc.construct_tour(m, tc.ExponentCombo(0, 0, 1, 0, 0))
        order = list(r.tour.order)
        pos = {c: i for i, c in enumerate(order)}
        assert abs(pos[0] - pos[1]) in (1, 3)  # zero-distance pair adjacent


def test_scores_on_exact_geometry_and_measures_rounded():
    # rounded, city 0 is 1 from both 1 and 2 and the tie picks 1; exactly,
    # 2 (0.6 away) is nearer than 1 (1.4 away)
    coords = ((0, 0), (1.4, 0), (0, 0.6), (1.4, 2), (0, 2))
    combo = tc.ExponentCombo(0, 0, 1, 0, 0)
    m = tc.build_distance_matrix(tc.Instance("r", "EUC_2D", coords=coords))
    exact = unrounded_matrix(coords)
    rounded_only = tc.DistanceMatrix(m.d)
    r = tc.construct_tour(m, combo)
    want = tc.construct_tour(exact, combo).tour.order
    wrong = tc.construct_tour(rounded_only, combo).tour.order
    # step 1 joins city 0 first, to 2, and the walk leaves 0 along that edge
    assert r.tour.order[1] == 2
    assert r.tour.order == want != wrong
    assert r.tour.length == tc.tour_length(r.tour.order, rounded_only)


class TestGridSearch:
    def test_singleton_grid(self):
        m = random_matrix(12, 8)
        combo = tc.ExponentCombo(0.5, 0, 1, 0.5, 0)
        single = tc.grid_search(m, [combo])
        direct = tc.construct_tour(m, combo)
        assert single.tour == direct.tour and single.combo == combo

    def test_superset_dominance(self):
        m = random_matrix(20, 13)
        small = tc.grid_search(m, tc.default_grid([0, 1]))
        full = tc.grid_search(m, tc.default_grid([0, 0.5, 1]))
        assert full.tour.length <= small.tour.length

    def test_best_bounds_every_combo(self):
        m = random_matrix(10, 21)
        grid = tc.default_grid([0, 1])
        best = tc.grid_search(m, grid)
        for combo in grid:
            assert best.tour.length <= \
                tc.construct_tour(m, combo).tour.length + 1e-9

    def test_empty_grid_rejected(self):
        m = random_matrix(5, 1)
        with pytest.raises(tc.ConfigError):
            tc.grid_search(m, [])

    def test_negative_exponent_with_zero_stat_rejected(self):
        d = np.ones((4, 4)) - np.eye(4)  # sigma = 0 everywhere
        m = tc.DistanceMatrix(d)
        with pytest.raises(tc.ConfigError):
            tc.grid_search(m, [tc.ExponentCombo(0, -1, 0, 0, 0)])

    @pytest.mark.parametrize("combo", [tc.ExponentCombo(0, -1, 0, 0, 0),
                                       tc.ExponentCombo(0, 0, 1, 0, -1)],
                             ids=["beta", "epsilon"])
    def test_construct_tour_rejects_negative_exponent_on_zero_stat(self,
                                                                   combo):
        d = np.ones((3, 3)) - np.eye(3)  # equilateral: sigma = 0 everywhere
        m = tc.DistanceMatrix(d)
        with pytest.raises(tc.ConfigError, match="zero statistic"):
            tc.construct_tour(m, combo)

    @pytest.mark.parametrize("combo", [tc.ExponentCombo(0, 0, 1000, 0, 0),
                                       tc.ExponentCombo(1000, 0, 0, 0, 0),
                                       tc.ExponentCombo(0, 0, 1, 1000, 1000),
                                       tc.ExponentCombo(0, 0, -1000, 0, 0)],
                             ids=["gamma", "alpha", "delta-epsilon",
                                  "negative-gamma"])
    def test_overflowing_power_rejected(self, combo):
        m = random_matrix(20, 0, box=10.0)  # distances 0.15 to 14
        with pytest.raises(tc.ConfigError, match=r"overflow.*\^-?1000"):
            tc.construct_tour(m, combo)
        with pytest.raises(tc.ConfigError, match=r"overflow.*\^-?1000"):
            tc.grid_search(m, [tc.ExponentCombo(0, 0, 0, 0, 0), combo])

    @pytest.mark.parametrize("scale,combo", [
        (1, tc.ExponentCombo(0, 0, -1000, 0, 0)),
        (1, tc.ExponentCombo(-1000, 0, 0, 0, 0)),
        (1, tc.ExponentCombo(0, 0, 1, -1000, 0)),
        (1, tc.ExponentCombo(0, 0, 90, -100, 0)),
        (1 / 5000, tc.ExponentCombo(0, 0, 1000, 0, 0)),
    ], ids=["negative-gamma", "negative-alpha", "negative-delta", "ratio",
            "gamma-small-distances"])
    def test_underflowing_power_rejected(self, scale, combo):
        # distances 15 to 1358 (0.003 to 0.27 scaled), mu 394 to 813: each
        # power, or the ratio mu^-100 / d^90, is below the smallest float
        d = random_matrix(20, 0).d * scale
        m = tc.DistanceMatrix(d)
        with pytest.raises(tc.ConfigError, match=r"underflow.*\^-?\d+"):
            tc.construct_tour(m, combo)
        with pytest.raises(tc.ConfigError, match=r"underflow.*\^-?\d+"):
            tc.grid_search(m, [tc.ExponentCombo(0, 0, 0, 0, 0), combo])

    @pytest.mark.parametrize("combo,powers", [
        (tc.ExponentCombo(1000, 0, 0, 0, 0), "mu^1000 * sigma^0"),
        (tc.ExponentCombo(0, 0, 1000, 0.5, 0), "mu^0.5 * sigma^0 / d^1000"),
    ], ids=["eq1", "eq2"])
    def test_float_range_message(self, combo, powers):
        # word for word, each exponent printed as given
        m = random_matrix(20, 0, box=10.0)
        with pytest.raises(tc.ConfigError) as err:
            tc.construct_tour(m, combo)
        assert str(err.value) == \
            f"exponents overflow or underflow a float: {powers}"

    def test_float_range_message_formatted_only_when_raised(self):
        formatted = []

        class Exponent:
            def __format__(self, spec):
                formatted.append(spec)
                return "x"

        def guard():
            return _FloatErrors(tc.ConfigError, "mu^{} * sigma^{}",
                                Exponent(), Exponent(), over="raise")

        with guard():
            np.float64(2.0) * 2.0
        assert formatted == []
        with pytest.raises(tc.ConfigError, match=r"^mu\^x \* sigma\^x$"):
            with guard():
                np.float64(1e308) * 10.0
        assert formatted == ["", ""]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400],
                             ids=["nan", "inf", "-inf", "huge-int"])
    def test_non_finite_exponent_rejected(self, bad):
        # an int too large for a float raised an untyped OverflowError
        with pytest.raises(tc.ConfigError, match="finite"):
            tc.ExponentCombo(0, 0, bad, 0, 0)
        with pytest.raises(tc.ConfigError, match="finite"):
            tc.default_grid([0, bad])

    @pytest.mark.parametrize("n", [12, 20])
    def test_real_exponents_are_stored_as_floats(self, n):
        # a Fraction, a numpy scalar or a bool is a real number: a combo
        # stores it as its float, so it constructs and renders as that float
        # does, on whole rankings (n = 12) and on candidate lists (n = 20)
        inst = tc.generate_random_euclidean(n, 3, 1000)
        m = tc.build_distance_matrix(inst)
        floats = [(0.5, 1, 0.5, 1, 0.5), (1, 0.5, 1, 0.5, 0),
                  (1, 0.5, 0, 1, 0.5)]
        want = [tc.ExponentCombo(*combo) for combo in floats]

        def cells(grid):
            config = tc.RunConfig(instances=[inst], grid=grid, bound_iters=1)
            report = tc.render_report(tc.run_benchmark(config))
            return [row.rsplit(",", 1)[0] for row in report.splitlines()]

        for half, one in ((Fraction(1, 2), True),
                          (np.float32(0.5), np.int64(1))):
            grid = [tc.ExponentCombo(*({0.5: half, 1: one}.get(v, v)
                                       for v in combo)) for combo in floats]
            for got, combo in zip(grid, want):
                assert all(type(v) is float for v in got.as_tuple()), got
                assert got == combo
                a, b = (tc.construct_tour(m, c).tour for c in (got, combo))
                assert (a.order, a.length) == (b.order, b.length), combo
            assert cells(grid) == cells(want), half

    @pytest.mark.parametrize("call,message", [
        (lambda m: tc.construct_tour(m, (0.5, 1, 1, 0.5, 0)), "ExponentCombo"),
        (lambda m: tc.grid_search(m, [(0, 0, 1, 0, 0)]), "ExponentCombo"),
        (lambda m: tc.ExponentCombo("1", 0, 0, 0, 0), "real numbers"),
        (lambda m: tc.default_grid(["x"]), "real numbers"),
    ], ids=["construct_tour-tuple", "grid_search-tuple", "combo-string",
            "value-set-string"])
    def test_misuse_is_config_error(self, call, message):
        # a tuple for a combo, or a string for an exponent, is a typed error
        # and not an AttributeError, TypeError or ValueError
        with pytest.raises(tc.ConfigError, match=message):
            call(random_matrix(5, 1))

    @pytest.mark.parametrize("values", [[], ()])
    def test_empty_value_set_rejected(self, values):
        with pytest.raises(tc.ConfigError, match="must be non-empty"):
            tc.default_grid(values)

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
    got = tc.grid_search(m, grid)
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
    return tc.build_distance_matrix(tc.Instance("dup", "EUC_2D",
                                                coords=coords))


def equidistant_matrix(n=5):
    return uniform_matrix(n, 1.0)  # sigma = 0


def all_coincident_matrix(n=5):
    return tc.build_distance_matrix(tc.Instance("same", "EUC_2D",
                                                coords=[(3, 3)] * n))


def zero_row_matrix(n=6):
    w = tie_heavy_matrix(n, 9).d.copy()
    w[2, :] = w[:, 2] = 0.0  # city 2: mu = sigma = 0
    return tc.build_distance_matrix(tc.Instance("zrow", "EXPLICIT",
                                                explicit_weights=w))


@pytest.mark.parametrize("make", [all_coincident_matrix, zero_row_matrix],
                         ids=["all-coincident", "zero-row"])
def test_zero_numerator_over_zero_distance_scores_inf(make):
    # a zero numerator over a zero distance is 0/0; like every zero
    # distance at gamma > 0 it scores +inf, never NaN
    m = make()
    stats = tc.city_stats(m)
    zero = (m.heuristic == 0.0) & ~np.eye(m.n, dtype=bool)
    for gamma in (0.5, 1, 2):
        for delta, epsilon in ((1, 0), (0, 1), (0.5, 0.5)):
            scores = construction._score_rows(m, stats, gamma, delta, epsilon)
            assert not np.isnan(scores).any(), (gamma, delta, epsilon)
            assert (scores[zero] == np.inf).all(), (gamma, delta, epsilon)


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
            lambda combo: tc.construct_tour(m, combo).tour.order))

    @pytest.mark.parametrize("grid", [
        tc.default_grid([0, 1]),
        list(reversed(tc.default_grid([0, 1]))),
        tc.default_grid([0, 1]) * 2,
        [tc.ExponentCombo(0.5, 1, 1, 0.5, 0)],
    ], ids=["binary", "reversed", "repeated", "singleton"])
    def test_other_grids_against_oracle(self, grid):
        for m in (random_matrix(30, 5), coincident_matrix()):
            assert_grid_matches_brute_grid(m, grid)

    @staticmethod
    def counted_constructions(monkeypatch):
        """The (order, ranked scores) of every construction run from now."""
        calls = []
        construct = construction._construct

        def counted(order, ranked):
            # the ranked scores are kept alive, so none shares another's id
            calls.append((order, ranked))
            return construct(order, ranked)

        monkeypatch.setattr(construction, "_construct", counted)
        return calls

    def test_constructs_each_distinct_pair_once(self, monkeypatch):
        m = random_matrix(20, 13)
        stats = tc.city_stats(m)
        mu, sigma = stats.mu.tolist(), stats.sigma.tolist()
        orders = {tuple(sorted(range(20), key=lambda c: (
            -eq1_priority(mu[c], sigma[c], a, b), c)))
            for a in (0, 0.5, 1) for b in (0, 0.5, 1)}
        calls = self.counted_constructions(monkeypatch)
        result = tc.grid_search(m)
        # 18 gamma != 0 rules, and one gamma = 0 rule per distinct ranking:
        # the (delta, epsilon) rankings are the same len(orders) sequences
        assert len(calls) == len(set(calls)) == \
            (18 + len(orders)) * len(orders) < 243
        assert result.neighbor_evaluations == len(calls) * 20 * 19

    def test_equal_gamma_zero_rankings_construct_once(self, monkeypatch):
        # mu and mu^2 rank the cities alike, so the gamma = 0 rules of
        # (delta, epsilon) = (1, 0) and (2, 0) are one rule: each city order
        # is constructed with it once, for its first grid point
        m = random_matrix(20, 13)
        stats = tc.city_stats(m)
        assert construction._city_order(stats, 1, 0) == \
            construction._city_order(stats, 2, 0)
        grid = [tc.ExponentCombo(a, 0, 0, delta, 0)
                for a in (0, 1) for delta in (1, 2)]
        calls = self.counted_constructions(monkeypatch)
        result = tc.grid_search(m, grid)
        assert len(calls) == len(set(calls)) == 2
        assert len({id(ranked) for _, ranked in calls}) == 1
        assert result.combo in (grid[0], grid[2])
        assert result.neighbor_evaluations == 2 * 20 * 19
        assert_grid_matches_brute_grid(m, grid)

    def test_distinct_gamma_zero_rankings_each_construct(self, monkeypatch):
        # rankings by index, mu, sigma and mu * sigma all differ here, so
        # every grid point keeps its own construction
        m = random_matrix(20, 13)
        stats = tc.city_stats(m)
        pairs = ((0, 0), (1, 0), (0, 1), (1, 1))
        rankings = {construction._city_order(stats, *p) for p in pairs}
        assert len(rankings) == len(pairs)
        grid = [tc.ExponentCombo(a, 0, 0, *p) for a in (0, 1) for p in pairs]
        calls = self.counted_constructions(monkeypatch)
        result = tc.grid_search(m, grid)
        assert len(calls) == len(set(calls)) == len(grid)
        assert {ranked.ranking for _, ranked in calls} == rankings
        assert result.neighbor_evaluations == len(grid) * 20 * 19
        assert_grid_matches_brute_grid(m, grid)

    def test_equal_whole_rankings_construct_once(self, monkeypatch):
        # at n = 12 every gamma != 0 row lists all the other cities, so a
        # rule is its whole (-score, index) ranking; squared scores rank
        # alike, so (0.5, 0.5, 0.5) and (1, 1, 1) are one rule, and so on
        n = 12
        m = random_matrix(n, 13)
        stats = tc.city_stats(m)
        values = (0, 0.5, 1)
        orders = {construction._city_order(stats, a, b)
                  for a in values for b in values}
        whole = set()
        for gamma in (0.5, 1):
            for delta in values:
                for epsilon in values:
                    scores = construction._score_rows(m, stats, gamma, delta,
                                                      epsilon).tolist()
                    whole.add(tuple(tuple(j for _, j in sorted(
                        (-s, j) for j, s in enumerate(row) if j != i))
                        for i, row in enumerate(scores)))
        assert len(whole) == 18 - 4
        calls = self.counted_constructions(monkeypatch)
        result = tc.grid_search(m)
        assert len(calls) == len(set(calls)) == \
            (len(whole) + len(orders)) * len(orders)
        assert result.neighbor_evaluations == len(calls) * n * (n - 1)
        assert_grid_matches_brute_grid(m)

    def test_merged_rules_keep_each_earliest_grid_point(self):
        # (1, 1, 1) and (0.5, 0.5, 0.5) are one rule at n = 12; a city order
        # run against both keeps the earlier of its two grid points, also
        # where the rule met first in the grid has the later one
        m = random_matrix(12, 13)
        whole, half = (1, 1, 1), (0.5, 0.5, 0.5)
        longer, shorter = sorted(((0, 0), (1, 0)), reverse=True,
                                 key=lambda pair: tc.construct_tour(
                                     m, tc.ExponentCombo(*pair, *whole)
                                 ).tour.length)
        grid = [tc.ExponentCombo(*longer, *whole),
                tc.ExponentCombo(*shorter, *half),
                tc.ExponentCombo(*shorter, *whole)]
        lengths = [tc.construct_tour(m, c).tour.length for c in grid]
        assert lengths[0] > lengths[1] == lengths[2]
        assert tc.grid_search(m, grid).combo == grid[1]
        assert_grid_matches_brute_grid(m, grid)

    def test_sigma_zero_raises_no_warning(self):
        m = equidistant_matrix()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tc.grid_search(m)

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


# gamma negative, zero and positive, each with and without a numerator
CANDIDATE_GRID = [tc.ExponentCombo(*combo) for combo in itertools.product(
    (0, 1), (0, 1), (-1, -0.5, 0, 0.5, 1), (0, 1), (0, 1))]


# one-point grids of both gamma signs, each with a numerator
ONE_POINTS = (tc.ExponentCombo(0.5, 1, 1, 0.5, 0),
              tc.ExponentCombo(1, 0, -0.5, 1, 1))


def assert_rows_are_certified(scores, sets, rows):
    """Row i is a prefix of its (-score, index) order of the other cities,
    drawn from sets[i], and every listed score is strictly above every
    unlisted one: exactly the cities of sets[i] that score strictly above
    every city outside it."""
    for i, row in enumerate(scores.tolist()):
        ranked = sorted((-s, j) for j, s in enumerate(row) if j != i)
        got = rows[i]
        assert i not in got, i
        assert got == [j for _, j in ranked[:len(got)]], i
        unlisted = [-s for s, j in ranked[len(got):]]
        if got and unlisted:
            assert row[got[-1]] > max(unlisted), i
        inside = set(sets[i].tolist())
        outside = max((s for j, s in enumerate(row)
                       if j != i and j not in inside), default=-math.inf)
        assert got == [j for s, j in ranked if j in inside and -s > outside], i


def ranked_rule(m, stats, rule, sets):
    """The RankedScores the grid makes of a rule past CANDIDATES + 1
    cities: for gamma = 0 its ranking, and for gamma != 0 the candidate
    lists `_ranked_run` ranks from `sets` and its rows of scores."""
    if rule[0] == 0.0:
        return construction.RankedScores(ranking=rule[1])
    (rows, scores), = construction._ranked_run(m, stats, [rule], sets)
    return construction.RankedScores(rows, scores)


def random_sets(matrix, seed=0):
    """M = CANDIDATES (or n - 1) other cities per row, drawn at random and
    ascending."""
    rng = np.random.default_rng(seed)
    n = matrix.n
    m = min(construction.CANDIDATES, n - 1)
    return np.array([sorted(rng.choice(np.delete(np.arange(n), i), m,
                                       replace=False)) for i in range(n)])


def farthest_sets(matrix):
    """Each row's M = CANDIDATES (or n - 1) farthest other cities by the
    heuristic distance, ascending: for gamma > 0 the cities that score
    lowest, so almost every step scans its row."""
    m = min(construction.CANDIDATES, matrix.n - 1)
    d = -matrix.heuristic
    np.fill_diagonal(d, np.inf)  # the city itself last
    return np.sort(np.argpartition(d, m - 1, axis=1)[:, :m], axis=1)


class TestCandidateLists:
    """A step takes the first admissible entry of its row's candidate list
    and scans the whole row only when every candidate is closed. With one
    or two cities per neighbour set most steps scan, and on weights 1-3
    ties sit at the set's edge; 8 cities is a set smaller than the default
    CANDIDATES."""

    @pytest.fixture(params=sorted({1, 2, 8, construction.CANDIDATES}))
    def k(self, request, monkeypatch):
        monkeypatch.setattr(construction, "CANDIDATES", request.param)
        return request.param

    @staticmethod
    def matrices(k):
        yield tie_heavy_matrix(12, 1)
        yield tie_heavy_matrix(15, 2)
        yield coincident_matrix()
        for n in sorted({3, k, k + 1, k + 2} - {1, 2}):
            yield random_matrix(n, 40 + n)
            yield tie_heavy_matrix(n, 50 + n)

    def test_rows_hold_the_strict_top(self, k):
        for m in self.matrices(k):
            stats = tc.city_stats(m)
            for gamma, delta in ((1, 0), (-1, 0), (0.5, 1)):
                scores = construction._score_rows(m, stats, gamma, delta, 0)
                for sets in (construction._neighbour_sets(m)[1],
                             farthest_sets(m), random_sets(m)):
                    rows = ranked_rule(m, stats, (gamma, delta, 0),
                                       sets).rows
                    assert_rows_are_certified(scores, sets, rows)

    def test_construct_tour_against_oracle(self, k):
        for m in self.matrices(k):
            stats = tc.city_stats(m)
            order_of = oracle(m, stats)
            for combo in CANDIDATE_GRID:
                got = tc.construct_tour(m, combo).tour.order
                assert got == tuple(order_of(combo)), (m.n, combo)

    def test_grid_search_against_oracle(self, k):
        for m in self.matrices(k):
            assert_grid_matches_brute_grid(m, CANDIDATE_GRID)

    def test_ranked_construction_against_oracle(self, k):
        # every combo's rule, listed from its neighbour sets as the grid
        # lists it past CANDIDATES + 1 cities, gives the oracle's tour, also
        # at the n where the grid ranks the rule whole
        for m in self.matrices(k):
            stats = tc.city_stats(m)
            order_of = oracle(m, stats)
            for combo in CANDIDATE_GRID:
                g, d, e = combo.gamma, combo.delta, combo.epsilon
                rule = ((0.0, construction._city_order(stats, d, e))
                        if g == 0 else (g, d, e))
                sets = construction._neighbour_sets(m)[1]
                got = construction._construct(
                    construction._city_order(stats, combo.alpha, combo.beta),
                    ranked_rule(m, stats, rule, sets))
                assert tuple(got) == tuple(order_of(combo)), (m.n, combo)


    @pytest.mark.parametrize("sets", ["farthest", "random"])
    def test_poor_sets_against_oracle(self, sets, monkeypatch):
        # the lists are exact for any neighbour set: with the farthest cities
        # almost every gamma > 0 step scans its row (as a gamma < 0 step does
        # with the grid's own nearest sets), and random sets list whatever
        # they happen to certify
        poor = {"farthest": farthest_sets, "random": random_sets}[sets]
        monkeypatch.setattr(construction, "_neighbour_sets",
                            lambda m: (tc.city_stats(m), poor(m)))
        for m in self.matrices(construction.CANDIDATES):
            assert_grid_matches_brute_grid(m, CANDIDATE_GRID)
            stats = tc.city_stats(m)
            order_of = oracle(m, stats)
            for combo in CANDIDATE_GRID:
                if combo.gamma == 0:
                    continue
                ranked = ranked_rule(
                    m, stats, (combo.gamma, combo.delta, combo.epsilon),
                    construction._neighbour_sets(m)[1])
                got = construction._construct(
                    construction._city_order(stats, combo.alpha, combo.beta),
                    ranked)
                assert tuple(got) == tuple(order_of(combo)), (m.n, combo)


def test_ranking_leaves_scores_bit_identical():
    # a ranked rule's steps read rows with the bits of the whole matrix, in
    # one held row block and recomputed from blocks of 7 rows, and -inf sits
    # at each row's own city alone, also where a zero numerator over a zero
    # distance, 0/0, meets it (all-coincident and zero-row)
    for m in (tie_heavy_matrix(40, 3), all_coincident_matrix(40),
              zero_row_matrix(40)):
        stats = tc.city_stats(m)
        own = np.eye(m.n, dtype=bool)
        for gamma in (1, -0.5):
            before = construction._score_rows(m, stats, gamma, 1, 0)
            assert (np.isneginf(before) == own).all(), gamma
            for sets, budget in itertools.product(
                    (construction._neighbour_sets(m)[1], farthest_sets(m)),
                    (tc.instance.BLOCK_BYTES, 8 * m.n * 7)):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(tc.instance, "BLOCK_BYTES", budget)
                    scores = ranked_rule(m, stats, (gamma, 1, 0),
                                         sets).scores
                    rows = np.array([scores[i] for i in range(m.n)])
                assert (np.isneginf(rows) == own).all(), (gamma, budget)
                assert rows.tobytes() == before.tobytes(), (gamma, budget)


@pytest.mark.parametrize("n", range(3, construction.CANDIDATES + 2))
def test_small_instances_list_every_other_city(n):
    # with n <= M + 1 a set holds every other city, nothing lies outside it,
    # and each row lists all n - 1 others by (-score, index)
    for m in (random_matrix(n, n), tie_heavy_matrix(n, n)):
        stats = tc.city_stats(m)
        for gamma in (1, -1):
            scores = construction._score_rows(m, stats, gamma, 1, 1)
            (ranked, _), = construction._whole_rankings(
                m, stats, {(gamma, 1, 1): {}})
            rows = ranked.rows
            for i, row in enumerate(scores.tolist()):
                assert rows[i] == [j for _, j in sorted(
                    (-s, j) for j, s in enumerate(row) if j != i)], (n, i)


def test_one_point_grids_against_oracle():
    # construct_tour and a grid of one point rank their one score matrix as
    # any grid does: from neighbour sets at n = 40, and whole at
    # n <= CANDIDATES + 1
    for m in (random_matrix(40, 3), tie_heavy_matrix(15, 4),
              coincident_matrix()):
        stats = tc.city_stats(m)
        order_of = oracle(m, stats)
        for combo in CANDIDATE_GRID:
            want = tuple(order_of(combo))
            assert tc.construct_tour(m, combo).tour.order == want
            assert tc.grid_search(m, [combo]).tour.order == want


def test_grid_joins_inline_and_merges_through_connect(monkeypatch):
    # a construction writes each join on the tracker's own lists and open
    # bytes, so no grid calls connect: at n = 12 on whole rankings, and at
    # n = 40 on candidate lists, where a gamma = -0.5 step finds its listed
    # cities closed and scans its row through the open view, still giving
    # the oracle's tour; the baselines' merge joins through connect
    calls = []

    def counted(self, a, b, connect=tc.PathEndTracker.connect):
        calls.append((a, b))
        connect(self, a, b)

    monkeypatch.setattr(tc.PathEndTracker, "connect", counted)
    scan = tc.ExponentCombo(1, 0, -0.5, 1, 0)
    for n in (12, 40):
        m = random_matrix(n, n)
        assert tc.grid_search(m, [scan]).tour.order == \
            tuple(oracle(m, tc.city_stats(m))(scan))
        tc.grid_search(m)
        assert calls == [], n
        for baseline in (tc.greedy_edge, tc.clarke_wright):
            baseline(m)
            assert len(calls) == n, (n, baseline)
            calls.clear()


def small_matrices(n):
    """Random, tie-heavy, coincident, zero-row and fractional matrices of n
    cities."""
    yield random_matrix(n, 60 + n)
    yield tie_heavy_matrix(n, 70 + n)
    coords = np.random.default_rng(n).integers(0, 3, (n, 2)).tolist()
    yield tc.build_distance_matrix(tc.Instance("dup", "EUC_2D",
                                               coords=coords))
    w = tie_heavy_matrix(n, 80 + n).d.copy()
    w[1, :] = w[:, 1] = 0.0  # city 1: mu = sigma = 0
    yield tc.build_distance_matrix(tc.Instance("zrow", "EXPLICIT",
                                               explicit_weights=w))
    yield fractional_matrix(n, n)


@pytest.mark.parametrize("n", range(3, construction.CANDIDATES + 3))
def test_whole_rankings_against_oracle(n):
    # n <= CANDIDATES + 1 ranks every gamma != 0 matrix whole and merges the
    # rules of equal rankings, n = CANDIDATES + 2 draws candidate lists from
    # neighbour sets; on both sides the grid picks the brute grid's tour and
    # combo, and every one-point construction is the oracle's
    for m in small_matrices(n):
        order_of = oracle(m, tc.city_stats(m))
        for grid in (None, CANDIDATE_GRID):
            assert_grid_matches_brute_grid(m, grid)
        for combo in CANDIDATE_GRID:
            assert tc.construct_tour(m, combo).tour.order == \
                tuple(order_of(combo)), (m.n, combo)


def test_whole_rankings_switch_at_candidates(monkeypatch):
    # with n <= CANDIDATES + 1 a neighbour set would hold every other city,
    # so the grid builds no set and no candidate list; one city more, it
    # does, also when it is the grid of one point, and a grid of both signs
    # of gamma builds one set table
    calls = []
    for name in ("_neighbour_sets", "_ranked_run"):
        def counted(*args, build=getattr(construction, name), name=name):
            calls.append(name)
            return build(*args)

        monkeypatch.setattr(construction, name, counted)
    k = construction.CANDIDATES
    for n in (3, k, k + 1):
        for m in (random_matrix(n, n), tie_heavy_matrix(n, n)):
            tc.grid_search(m)
            tc.grid_search(m, CANDIDATE_GRID)
            for combo in ONE_POINTS:
                tc.construct_tour(m, combo)
    assert calls == []
    m = random_matrix(k + 2, 1)
    tc.grid_search(m)
    assert set(calls) == {"_neighbour_sets", "_ranked_run"}
    calls.clear()
    tc.grid_search(m, CANDIDATE_GRID)
    assert calls.count("_neighbour_sets") == 1
    for combo in ONE_POINTS:
        calls.clear()
        tc.construct_tour(m, combo)
        assert set(calls) == {"_neighbour_sets", "_ranked_run"}, combo


@pytest.mark.parametrize("grid", [None, CANDIDATE_GRID],
                         ids=["default", "gamma-signs"])
def test_grid_prices_fractional_weights_exactly(grid):
    # the grid prices each closed loop; its winner, combo and length must be
    # those of a plain scan of construct_tour's validated tours. For n = 11,
    # 14, 23, 25 and 49, on one grid or both, two grid points walk the
    # winning loop in opposite directions, whose sums differ in the last bit
    combos = tc.default_grid() if grid is None else grid
    for n, seed in ((5, 1), (11, 0), (14, 2), (23, 0), (25, 0), (49, 2)):
        m = fractional_matrix(n, seed)
        want = None
        for combo in combos:
            tour = tc.construct_tour(m, combo).tour
            if want is None or tour.length < want[0].length:
                want = (tour, combo)
        got = tc.grid_search(m, grid)
        assert (got.tour.order, got.combo, got.tour.length) == \
            (want[0].order, want[1], want[0].length), n


@pytest.mark.parametrize("k", sorted({1, 2, 8, construction.CANDIDATES}))
def test_rows_list_k_neighbours(k, monkeypatch):
    # a set holds the k nearest other cities in ascending order; with
    # delta = 0 a score falls as the distance grows (rises for gamma < 0),
    # and on a random instance no distance ties, so every row lists its
    # whole set (nothing for gamma < 0: every city outside the set scores
    # above every city in it), and with a numerator a certified prefix
    monkeypatch.setattr(construction, "CANDIDATES", k)
    m = random_matrix(50, 9)
    stats = tc.city_stats(m)
    d = m.heuristic
    fused, sets = construction._neighbour_sets(m)
    assert (fused.mu.tobytes(), fused.sigma.tobytes()) == \
        (stats.mu.tobytes(), stats.sigma.tobytes())
    assert sets.shape == (50, k)
    for i, row in enumerate(sets.tolist()):
        assert row == sorted(row) and i not in row
        others = np.delete(d[i], row + [i])
        assert d[i, row].max() <= others.min(), i
    for gamma, delta in ((1, 0), (0.5, 0), (-1, 0), (1, 1), (0.5, 1), (-1, 1)):
        scores = construction._score_rows(m, stats, gamma, delta, 0)
        rows = ranked_rule(m, stats, (gamma, delta, 0), sets).rows
        assert_rows_are_certified(scores, sets, rows)
        if delta == 0:
            want = sets.tolist() if gamma > 0 else [[]] * m.n
            assert [sorted(row) for row in rows] == want, gamma


@pytest.mark.parametrize("n,rows", [(18, 18), (40, 7)])
def test_blocks_that_list_nothing_are_not_ranked(n, rows, block_rows,
                                                 monkeypatch):
    # with delta = epsilon = 0 a gamma < 0 score rises with the distance, so
    # no city of a nearest set scores above every city outside it: no row
    # lists a city, and no block of such a rule is ranked, in one block or
    # in several; gamma = 1 ranks each block. The tours are the oracle's
    ranked = []

    def spy(key, rank=tc.scores._ranked):
        ranked.append(len(key))
        return rank(key)

    monkeypatch.setattr(tc.scores, "_ranked", spy)
    block_rows(n, rows)
    for m in (random_matrix(n, 5), tie_heavy_matrix(n, 6)):
        order_of = oracle(m, tc.city_stats(m))
        for gamma, blocks in ((-1, 0), (-0.5, 0), (1, -(-n // rows))):
            ranked.clear()
            combo = tc.ExponentCombo(1, 0, gamma, 0, 0)
            assert tc.grid_search(m, [combo]).tour.order == \
                tuple(order_of(combo)), (m.n, gamma)
            assert len(ranked) == blocks, (m.n, gamma)


def test_gamma_zero_walk_skips_the_closed_prefix():
    # with gamma = 0 every row is one ranking, and each pass keeps a head at
    # its first city below degree 2, so a construction reads O(n) entries of
    # the ranking where rescanning the closed prefix would read O(n^2)
    class CountingList(list):
        reads = 0

        def __getitem__(self, k):
            self.reads += 1
            return super().__getitem__(k)

    n = 400
    m = random_matrix(n, 7)
    stats = tc.city_stats(m)
    combo = tc.ExponentCombo(1, 0, 0, 1, 0)
    order = construction._city_order(stats, 1, 0)
    ranked = construction.RankedScores(ranking=CountingList(order))
    got = construction._construct(order, ranked)
    assert tuple(got) == tc.construct_tour(m, combo).tour.order
    assert ranked.ranking.reads <= 10 * n, ranked.ranking.reads


def test_grid_search_holds_one_extra_matrix():
    # beyond the tables a matrix holds, which the grid reads in place
    n = 300
    built = random_matrix(n, 4)
    m = tc.DistanceMatrix(built.d, built.heuristic)
    tc.grid_search(m, tc.default_grid([1]))  # warm numpy up
    peak = traced_peak(lambda: tc.grid_search(m))
    assert peak <= 8 * n * n + memory_slack(n)


def test_default_grid_holds_no_score_matrix():
    # past one row block (n = 800 takes several) each score matrix is
    # scored a block at a time, also for a grid of one point: beyond the
    # two distance tables a grid holds a few blocks and compact lists,
    # under half a matrix
    n = 800
    m = random_matrix(n, 4)
    tc.grid_search(m, tc.default_grid([1]))  # warm numpy up
    for grid in (None, *([combo] for combo in ONE_POINTS)):
        peak = traced_peak(lambda: tc.grid_search(m, grid))
        assert peak <= 4 * n * n + memory_slack(n), grid


def test_grid_never_rounds_the_objective():
    # a fresh EUC_2D matrix holds no table: a grid reads row blocks of the
    # exact geometry and prices its loops, its winner included, on the
    # rounded cells they sum, so build and grid together make neither
    # table and hold less than one
    n = 800
    inst = tc.generate_random_euclidean(n, 4, 1000.0)
    tc.grid_search(tc.build_distance_matrix(inst), tc.default_grid([1]))
    built = []

    def build_and_search():
        built.append(tc.build_distance_matrix(inst))
        tc.grid_search(built[0])

    peak = traced_peak(build_and_search)
    assert not {"d", "heuristic"} & set(vars(built[0]))
    assert peak < 8 * n * n


@pytest.fixture
def block_rows(monkeypatch):
    """`set(n, rows)` makes a row block hold `rows` rows of n floats, by
    setting instance.BLOCK_BYTES for this test; a spy counts the row block
    runs of shared rules the grids ask for."""
    runs = []
    ranked_run = construction._ranked_run

    def spy(*args):
        runs.append(args[2])
        return ranked_run(*args)

    def set_rows(n, rows):
        monkeypatch.setattr(tc.instance, "BLOCK_BYTES", 8 * n * rows)
        assert tc.instance._block_rows(n) == rows

    monkeypatch.setattr(construction, "_ranked_run", spy)
    set_rows.runs = runs
    return set_rows


def assert_grid_and_lengths_match(m, grid):
    """grid_search's tour, combo and length equal the brute grid's over the
    oracle's tours."""
    combos = tc.default_grid() if grid is None else grid
    got = tc.grid_search(m, grid)
    order, combo = brute_grid(m, combos, oracle(m, tc.city_stats(m)))
    assert (got.tour.order, got.combo, got.tour.length) == \
        (order, combo, tc.tour_length(order, m))


# gamma values of both signs, consecutive in first order and interleaved,
# with numerators that break the distance order, read by three city orders,
# and rules that a single city order reads
GAMMAS = (-1, -0.5, 0.3, 0.5, 1, 1.7)
NUMERATORS = ((0, 0), (1, 0), (0.5, 1))
INTERLEAVED = [(0.5, 0, 0), (1, 0, 0), (0.5, 1, 0), (-1, 0, 0), (1, 1, 0),
               (1.7, 0.5, 1), (-1, 1, 0), (0.3, 1, 0), (-0.5, 0.5, 1),
               (0.5, 0.5, 1), (0.3, 0, 0), (-0.5, 0, 0)]
GAMMA_GRIDS = {
    "consecutive": [tc.ExponentCombo(a, b, g, d, e)
                    for a, b in ((0, 0), (1, 0), (0, 1)) for g in GAMMAS
                    for d, e in NUMERATORS],
    "interleaved": [tc.ExponentCombo(a, b, *rule)
                    for a, b in ((0, 0), (1, 0), (0, 1))
                    for rule in INTERLEAVED]
    + [tc.ExponentCombo(1, 1, 1.7, 1, 0), tc.ExponentCombo(0.5, 0, -1, 0, 1),
       tc.ExponentCombo(0, 0.5, 0.5, 1, 1)],
}


@pytest.mark.parametrize("n,rows", [(17, 1), (18, 18), (18, 17), (18, 1),
                                    (24, 24), (25, 24), (26, 13), (40, 7)])
def test_row_blocks_against_oracle(n, rows, block_rows):
    # n = 17 ranks whole rankings; from 18 on, shared matrices are scored a
    # row block at a time: in one block that holds every row when n <= rows,
    # otherwise in blocks that end at n or short of it. On random,
    # tie-heavy, coincident, zero-row and fractional matrices the grids pick
    # the brute grid's tour, combo and length, and construct_tour gives the
    # oracle's tour
    block_rows(n, rows)
    for m in small_matrices(n):
        order_of = oracle(m, tc.city_stats(m))
        for grid in (None, *GAMMA_GRIDS.values()):
            assert_grid_and_lengths_match(m, grid)
        for combo in GAMMA_GRIDS["interleaved"][:15]:
            assert tc.construct_tour(m, combo).tour.order == \
                tuple(order_of(combo)), (m.n, combo)
    assert bool(block_rows.runs) == (18 <= n)


def coordinate_sets(n, seed):
    """Real coordinates, and integer ones on a 6 x 6 grid, whose distances
    tie and whose first two cities coincide."""
    rng = np.random.default_rng(seed)
    yield rng.random((n, 2)) * 1000
    pts = rng.integers(0, 6, (n, 2)).astype(float)
    pts[1] = pts[0]
    yield pts


@pytest.mark.parametrize("kind", ["EUC_2D", "CEIL_2D", "ATT"])
@pytest.mark.parametrize("n", [12, 40, 150, 400])
def test_coordinate_rows_match_held_tables(n, kind):
    # a coordinate build computes each row block, row and set of cells it
    # is read for; a matrix that holds its two tables reads them. The
    # statistics, neighbour sets, every rule's candidate lists and rows of
    # scores, loop lengths and the grid's winner agree byte for byte, with
    # whole rankings at n = 12, in one row block at 40 and 150 and in
    # several at 400, on the default grid and a gamma < 0 point
    assert tc.instance._block_rows(150) >= 150 > tc.instance._block_rows(400)
    scan = tc.ExponentCombo(1, 0, -0.5, 1, 0)
    rules = sorted({(c.gamma, c.delta, c.epsilon)
                    for c in tc.default_grid() + [scan] if c.gamma != 0})
    first = {rule: {(0,): 0} for rule in rules}
    rng = np.random.default_rng(n)
    orders = [rng.permutation(n) for _ in range(3)]
    for pts in coordinate_sets(n, n):
        inst = tc.Instance("r", kind, coords=pts)
        built = tc.build_distance_matrix(inst)
        tables = tc.build_distance_matrix(inst)
        held = tc.DistanceMatrix(tables.d, tables.heuristic)
        seen = []
        for m in (built, held):
            stats = tc.city_stats(m)
            got = [stats.mu.tobytes(), stats.sigma.tobytes()]
            if n - 1 > construction.CANDIDATES:
                fused, sets = construction._neighbour_sets(m)
                got += [fused.mu.tobytes(), fused.sigma.tobytes(),
                        sets.tobytes()]
                for ranked, _ in construction._candidate_lists(
                        m, stats, first, sets):
                    got += [ranked.rows] + [ranked.scores[city].tobytes()
                                            for city in range(0, n, 7)]
            else:
                got += [ranked.rows for ranked, _ in
                        construction._whole_rankings(m, stats, first)]
            got.append(construction._loop_lengths(orders, m).tobytes())
            for grid in (None, [scan]):
                r = tc.grid_search(m, grid)
                got.append((r.tour.order, r.combo, r.tour.length))
            seen.append(got)
        assert seen[0] == seen[1]
        # a grid makes the heuristic table only where one block holds it
        assert "d" not in vars(built)
        assert ("heuristic" in vars(built)) == (n <= 150)


def test_default_budget_row_blocks_against_construct_tour():
    # the first n whose matrix is past one row block of the default budget:
    # two blocks, of 180 rows and of 2
    n = 182
    assert tc.instance._block_rows(n) == 180
    m = random_matrix(n, 11)
    got = tc.grid_search(m)
    want = None
    for combo in tc.default_grid():
        tour = tc.construct_tour(m, combo).tour
        if want is None or tour.length < want[0].length:
            want = (tour, combo)
    assert (got.tour.order, got.combo, got.tour.length) == \
        (want[0].order, want[1], want[0].length)


@pytest.mark.parametrize("k", range(5), ids=["random", "tie-heavy",
                                             "coincident", "zero-row",
                                             "fractional"])
def test_row_blocks_list_and_score_as_the_whole_matrix(k, block_rows):
    # a rule ranked one row block at a time lists exactly the cities of its
    # set that its whole matrix scores above every city outside the set,
    # and each row a step reads, held or recomputed, has the whole matrix's
    # bits; in a block of 7 rows and in one block of all 40, where every
    # gamma's rules are ranked in one pass over the blocks
    m = list(small_matrices(40))[k]
    stats, sets = construction._neighbour_sets(m)
    rules = [(g, d, e) for g in GAMMAS for d, e in NUMERATORS]
    first = {rule: {(0,): 0, (1,): 1} for rule in rules}
    for rows in (7, 40):
        block_rows(m.n, rows)
        block_rows.runs.clear()
        seen = []
        for ranked, runs in construction._candidate_lists(m, stats, first,
                                                          sets):
            rule = rules[len(seen)]
            whole = construction._score_rows(m, stats, *rule)
            assert_rows_are_certified(whole, sets, ranked.rows)
            for city in range(m.n):
                assert ranked.scores[city].tobytes() == \
                    whole[city].tobytes(), (rows, rule, city)
            seen.append(runs)
        assert seen == list(first.values())
        assert block_rows.runs == [rules]


def shared(*rules):
    """Each rule under two city orders, so that several orders read it."""
    return [tc.ExponentCombo(a, 0, *rule) for a in (0, 1) for rule in rules]


@pytest.mark.parametrize("rules,powers", [
    ([(1000, 0, 0)], "mu^0 * sigma^0 / d^1000"),
    ([(1, 0, 0), (1, 1000, 1000)], "mu^1000 * sigma^1000"),
    ([(-1000, 0, 0), (-1000, 1, 0)], "mu^0 * sigma^0 / d^-1000"),
    ([(90, 0, 0), (90, -100, 0), (90, 1, 0)], "mu^-100 * sigma^0 / d^90"),
    ([(1, 0, 0), (1000, 1, 0), (1000, 0.5, 0)], "mu^1 * sigma^0 / d^1000"),
], ids=["power", "numerator", "negative-power", "ratio", "later-run"])
def test_row_blocks_raise_the_failing_rules_error(rules, powers, block_rows):
    # scored a row block at a time, a grid in which one rule's numerator,
    # power or division leaves the float range raises that rule's error,
    # word for word; a power out of range fails for the first rule of its
    # gamma, as it did for the whole matrix
    m = random_matrix(20, 0)  # distances 15 to 1358, mu 394 to 813
    block_rows(20, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(tc.ConfigError) as err:
            tc.grid_search(m, [tc.ExponentCombo(0, 0, 0, 0, 0)]
                           + shared(*rules))
    assert str(err.value) == \
        f"exponents overflow or underflow a float: {powers}"
    assert block_rows.runs


def test_row_blocks_raise_a_later_rules_numerator_first(block_rows):
    # rule A = (90, -100, 0) underflows in its division and rule B =
    # (90, 200, 0) overflows in its numerator. Scoring each matrix whole, A
    # then B, would name A; a run of row blocks computes every numerator
    # before its first power and names B, in one block or in several. Each
    # rule alone names itself
    m = random_matrix(20, 0)
    first_fails = "exponents overflow or underflow a float: "
    for rows in (20, 3):
        block_rows(20, rows)
        with pytest.raises(tc.ConfigError) as both:
            tc.grid_search(m, shared((90, -100, 0), (90, 200, 0)))
        assert str(both.value) == first_fails + "mu^200 * sigma^0"
        with pytest.raises(tc.ConfigError) as alone:
            tc.grid_search(m, shared((90, -100, 0)))
        assert str(alone.value) == first_fails + "mu^-100 * sigma^0 / d^90"
    assert block_rows.runs


def test_row_blocks_leave_the_float_error_state(block_rows, monkeypatch):
    # a grid that stops between two rules of a run of row blocks, here by
    # an exception in pricing the run's first rule, leaves numpy's error
    # state as it found it while its exception, and with it the suspended
    # ranking, is still held
    class Stop(Exception):
        pass

    loop_lengths = construction._loop_lengths

    def stop_in_a_run(loops, matrix):
        if block_rows.runs:
            raise Stop
        return loop_lengths(loops, matrix)

    monkeypatch.setattr(construction, "_loop_lengths", stop_in_a_run)
    block_rows(20, 3)
    before = np.geterr()
    with pytest.raises(Stop) as err:
        tc.grid_search(random_matrix(20, 0))
    assert np.geterr() == before
    assert err.traceback


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
    # the paper's nominal cost: one scan of the n-1 other cities for each of
    # the n placed edges, whatever the candidate lists save
    for n, seed in ((20, 1), (50, 2), (100, 3)):
        m = random_matrix(n, seed)
        r = tc.construct_tour(m, tc.ExponentCombo(0.5, 1, 1, 0.5, 0))
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
        got = tc.construct_tour(m, combo).tour
        want = construct_order(d, mu, sigma, combo.as_tuple())
        assert got.order == tuple(want), combo
        assert got.length == sum(rounded[a][b]
                                 for a, b in zip(want, want[1:] + want[:1]))
