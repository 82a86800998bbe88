import math
import warnings

import numpy as np
import pytest

import bounds_oracle
import tourcraft as tc
from tourcraft import bounds
from tourcraft.bounds import EXACT_MAX_N
from conftest import (brute_force_optimum, fractional_matrix, load_instance,
                      memory_slack, random_matrix, tie_heavy_matrix,
                      traced_peak, uniform_matrix, unrounded_matrix)


class TestExactOptimum:
    def test_unit_square(self):
        m = unrounded_matrix([(0, 0), (1, 0), (1, 1), (0, 1)])
        t = tc.exact_optimum(m)
        assert t.length == pytest.approx(4.0)
        assert t.order[0] == 0

    def test_triangle(self):
        m = random_matrix(3, 0)
        assert tc.exact_optimum(m).length == \
            pytest.approx(tc.tour_length([0, 1, 2], m))

    def test_matches_enumeration_n9(self):
        m = random_matrix(9, 42)
        assert tc.exact_optimum(m).length == \
            pytest.approx(brute_force_optimum(m))

    def test_matches_enumeration_small_sweep(self):
        for seed in range(8):
            n = 4 + seed % 4
            m = random_matrix(n, 300 + seed)
            assert tc.exact_optimum(m).length == \
                pytest.approx(brute_force_optimum(m))

    def test_deterministic_lexicographic(self):
        m = random_matrix(8, 5)
        a = tc.exact_optimum(m)
        b = tc.exact_optimum(m)
        assert a == b and a.order[0] == 0

    def test_overflowing_path_sums_rejected(self):
        # every path sum overflows to inf: the read-back then matched cities
        # outside its mask and re-added them with the XOR, so it never ended
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(tc.ConfigError, match="overflow"):
                tc.exact_optimum(uniform_matrix(5, 1e308))

    def test_largest_finite_path_sums(self):
        t = tc.exact_optimum(uniform_matrix(5, 1e307))
        assert t.order == (0, 1, 2, 3, 4) and t.length == 5e307

    def test_size_limit(self):
        m = random_matrix(16, 1)
        with pytest.raises(tc.SizeLimitError):
            tc.exact_optimum(m)


class TestOneTree:
    def test_345_triangle_equals_tour(self):
        d = np.array([[0, 3, 4], [3, 0, 5], [4, 5, 0]], dtype=float)
        m = tc.DistanceMatrix(d)
        # MST over {1,2} is the 5-edge; plus both edges at city 0: 3+4+5
        assert tc.one_tree_value(m, [0, 0, 0]) == 12

    def test_lower_bounds_optimum(self):
        for seed in range(10):
            n = 5 + seed % 8  # 5..12
            m = random_matrix(n, 400 + seed)
            opt = tc.exact_optimum(m).length
            assert tc.one_tree_value(m, np.zeros(n)) <= opt + 1e-9

    def test_constant_shift_invariance(self):
        m = random_matrix(10, 7)
        rng = np.random.default_rng(9)
        pi = rng.normal(0, 50, 10)
        base = tc.one_tree_value(m, pi)
        for c in (-100.0, 3.5, 1e4):
            assert tc.one_tree_value(m, pi + c) == pytest.approx(base)

    def test_matches_independent_mst(self):
        # cross-check the internal dense Prim against a simple Kruskal
        def kruskal_mst(d, nodes):
            edges = sorted((d[i][j], i, j)
                           for i in nodes for j in nodes if i < j)
            parent = {v: v for v in nodes}

            def find(v):
                while parent[v] != v:
                    parent[v] = parent[parent[v]]
                    v = parent[v]
                return v

            total = 0.0
            for w, i, j in edges:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
                    total += w
            return total

        for seed in range(6):
            m = random_matrix(9, 500 + seed)
            mst = kruskal_mst(m.d, list(range(1, 9)))
            two = np.sort(m.d[0, 1:])[:2].sum()
            assert tc.one_tree_value(m, np.zeros(9)) == \
                pytest.approx(mst + two)

    @pytest.mark.parametrize("n", [1, 2])
    def test_rejects_fewer_than_3_cities(self, n):
        # a 1-tree needs city 0's two edges; n = 1 and 2 raised IndexError
        m = tc.DistanceMatrix(np.ones((n, n)) - np.eye(n))
        with pytest.raises(tc.DegenerateInstanceError):
            tc.one_tree_value(m, np.zeros(n))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, "a"])
    def test_rejects_non_finite_potentials(self, bad):
        # such a potential returned a NaN bound, and a string raised an
        # untyped ValueError
        pi = [0.0] * 10
        pi[4] = bad
        with pytest.raises(tc.ConfigError, match="finite"):
            tc.one_tree_value(random_matrix(10, 0), pi)

    @pytest.mark.parametrize("pi", [np.zeros(9), np.zeros(11),
                                    np.zeros((10, 1)), 0.0])
    def test_rejects_potentials_of_wrong_length(self, pi):
        with pytest.raises(tc.ConfigError, match="length 10"):
            tc.one_tree_value(random_matrix(10, 0), pi)

    @pytest.mark.parametrize("pi", [[1e308] * 6,
                                    [1e308, -1e308, 0, 0, 0, 0]])
    def test_rejects_overflowing_potentials(self, pi):
        # the modified weights overflow: these returned nan and -inf
        m = tc.build_distance_matrix(tc.generate_random_euclidean(6, 1, 100.0))
        with pytest.raises(tc.ConfigError, match="overflow"):
            tc.one_tree_value(m, pi)


class TestHeldKarpBound:
    def test_single_iteration_is_plain_one_tree(self):
        m = random_matrix(12, 3)
        r = tc.held_karp_bound(m, max_iters=1)
        assert r.bound == pytest.approx(tc.one_tree_value(m, np.zeros(12)))

    def test_sandwich_against_exact(self):
        for seed in range(10):
            n = 6 + seed % 7  # 6..12
            m = random_matrix(n, 600 + seed)
            opt = tc.exact_optimum(m).length
            plain = tc.one_tree_value(m, np.zeros(n))
            r = tc.held_karp_bound(m, max_iters=300, upper_bound_hint=opt)
            assert plain - 1e-9 <= r.bound <= opt + 1e-9

    def test_rejects_bad_iters(self):
        # a non-integer raised a bare TypeError, and True ran one iteration
        for bad in (0, 2.5, True, "3", np.float64(4.0)):
            with pytest.raises(tc.ConfigError, match="max_iters"):
                tc.held_karp_bound(random_matrix(5, 0), max_iters=bad)
        with pytest.raises(tc.ConfigError, match="max_iters must be >= 1"):
            tc.held_karp_bound(random_matrix(5, 0), max_iters=0)

    def test_numpy_integer_iters_accepted(self):
        m = random_matrix(8, 1)
        assert tc.held_karp_bound(m, max_iters=np.int64(20)) == \
            tc.held_karp_bound(m, max_iters=20)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, "x",
                                     "1000"])
    def test_rejects_non_finite_hint(self, bad):
        # inf gave NaN potentials, NaN silently returned the first 1-tree,
        # a string raised an untyped ValueError, and a numeric string ran
        with pytest.raises(tc.ConfigError, match="finite"):
            tc.held_karp_bound(random_matrix(10, 0), upper_bound_hint=bad)

    def test_rejects_overflowing_hint(self):
        # the step overflows: this warned and iterated on NaN potentials
        m = tc.build_distance_matrix(tc.generate_random_euclidean(6, 1, 100.0))
        with pytest.raises(tc.ConfigError, match="overflow"):
            tc.held_karp_bound(m, 50, upper_bound_hint=1e308)

    def test_best_so_far_monotone(self):
        m = random_matrix(15, 11)
        bounds = [tc.held_karp_bound(m, max_iters=k).bound
                  for k in (1, 10, 50, 200)]
        assert all(b2 >= b1 - 1e-9 for b1, b2 in zip(bounds, bounds[1:]))


class TestMatchesOracle:
    """The ascent (with its fixed-point stop, buffer and Prim step) and the
    layered DP return exactly what the plain versions in `bounds_oracle`
    return: the same bound bits, the same exact order."""

    @pytest.mark.parametrize("name,iterations", [
        ("att48", 1000), ("berlin52", 163), ("eil51", 1000), ("eil76", 923),
        ("kroA100", 787)])
    def test_bundled_bounds(self, name, iterations):
        # eil76 and kroA100 reach their fixed point before 1000 iterations
        m = tc.build_distance_matrix(load_instance(name))
        r = tc.held_karp_bound(m)
        assert r.bound == bounds_oracle.held_karp_bound(m)
        assert r.iterations_used == iterations

    @staticmethod
    def assert_bounds_match(m, iters):
        # with the nearest-neighbour hint and with greedy's; the oracle takes
        # seconds for 1000 iterations at n=150, so that case runs once
        hints = [None]
        if m.n * iters < 150_000:
            hints.append(tc.greedy_edge(m).length)
        for hint in hints:
            assert tc.held_karp_bound(m, iters, hint).bound == \
                bounds_oracle.held_karp_bound(m, iters, hint)

    @pytest.mark.parametrize("iters", [1, 50, 1000])
    @pytest.mark.parametrize("n", [3, 4, 5, 7, 10, 16, 25, 40, 64, 150])
    def test_random_bounds(self, n, iters):
        self.assert_bounds_match(random_matrix(n, 1000 + n, 1_000_000), iters)

    @pytest.mark.parametrize("iters", [1, 50, 1000])
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 11, 15, 20, 30, 40, 150])
    def test_tie_heavy_bounds(self, n, iters):
        self.assert_bounds_match(tie_heavy_matrix(n, n), iters)

    @pytest.mark.parametrize("kind", ["random", "box10", "ties"])
    @pytest.mark.parametrize("n", [3, 4, 5, 7, 10, 16, 25, 40, 64, 150])
    def test_each_one_tree(self, monkeypatch, kind, n):
        # every 1-tree an ascent builds: the value bits and the degrees
        m = {"random": lambda: random_matrix(n, 4000 + n, 1_000_000),
             "box10": lambda: random_matrix(n, 5000 + n, 10),
             "ties": lambda: tie_heavy_matrix(n, 6000 + n)}[kind]()
        seen = []

        def recorded(d, pi, ws):
            value, deg = one_tree(d, pi, ws)
            seen.append((pi.copy(), value, deg))
            return value, deg

        one_tree = bounds._one_tree
        monkeypatch.setattr(bounds, "_one_tree", recorded)
        tc.held_karp_bound(m, 300)
        for pi, value, deg in seen:
            total, want = bounds_oracle.min_one_tree(
                m.d + pi[:, None] + pi[None, :])
            assert value.hex() == (total - 2.0 * float(pi.sum())).hex()
            assert np.array_equal(deg, want)

    def test_one_tree_keeps_first_equal_offer(self):
        # Prim joins 1, 2, 3, 4, 5. City 4 joins with weight 5, offered
        # first by city 1 and again by city 3, which joins later, and by
        # city 5 after it: its parent is city 1.
        d = np.zeros((6, 6))
        for (i, j), w in {(0, 1): 7, (0, 2): 8, (0, 3): 9, (0, 4): 6,
                          (0, 5): 10, (1, 2): 1, (1, 3): 6, (1, 4): 5,
                          (1, 5): 20, (2, 3): 2, (2, 4): 10, (2, 5): 20,
                          (3, 4): 5, (3, 5): 20, (4, 5): 5}.items():
            d[i, j] = d[j, i] = w
        value, deg = bounds._one_tree(d, np.zeros(6), bounds._Workspace(6))
        assert value == 26.0
        assert deg.tolist() == [2, 3, 2, 1, 3, 1]

    def test_one_tree_signed_zeros(self):
        # Prim's step adds the shut vector after its minimum, not to the
        # row before it: the same bits, -0.0 weights and potentials included
        rng = np.random.default_rng(24)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            w = np.triu(rng.integers(0, 3, (n, n)).astype(float), 1)
            w += w.T
            w[w == 0] = -0.0
            pi = rng.choice([-0.0, 0.0, 1.0, -1.0], n)
            value, deg = bounds._one_tree(w, pi, bounds._Workspace(n))
            total, want = bounds_oracle.min_one_tree(
                w + pi[:, None] + pi[None, :])
            assert value.hex() == (total - 2.0 * float(pi.sum())).hex()
            assert np.array_equal(deg, want)

    @pytest.mark.parametrize("n", range(3, EXACT_MAX_N + 1))
    def test_exact_orders(self, n):
        for m in (random_matrix(n, 2000 + n), tie_heavy_matrix(n, 3000 + n),
                  fractional_matrix(n, 7000 + n)):
            assert list(tc.exact_optimum(m).order) == \
                bounds_oracle.exact_optimum(m)

    def test_exact_orders_with_cached_layers(self):
        # the per-size layers are built once and shared: sizes out of order
        # and repeated, starting from an empty cache, read the right ones
        bounds._layers.cache_clear()
        for n in (15, 5, 12, 5, 15, 3):
            m = tie_heavy_matrix(n, 9000 + n)
            assert list(tc.exact_optimum(m).order) == \
                bounds_oracle.exact_optimum(m)

    def test_cached_layers_are_read_only(self):
        bits, steps = bounds._layers(4)
        j, has, without = steps[0]
        for a in (bits, has, without):
            with pytest.raises(ValueError):
                a[0] = 0


class TestReferenceMemory:
    """The ascent holds one n x n buffer beyond the matrix; the DP holds
    its table of 2^(n-1) x (n-1) floats and no Python lists."""

    def test_ascent_peak(self):
        n = 300
        m = random_matrix(n, 5)
        hint = tc.nearest_neighbor(m).length
        tc.held_karp_bound(m, max_iters=2, upper_bound_hint=hint)
        peak = traced_peak(
            lambda: tc.held_karp_bound(m, max_iters=20, upper_bound_hint=hint))
        assert peak <= 8 * n * n + memory_slack(n)

    def test_exact_peak(self):
        n = 12
        m = random_matrix(n, 5)
        tc.exact_optimum(m)
        peak = traced_peak(lambda: tc.exact_optimum(m))
        assert peak <= 8 * (n - 1) * 2 ** (n - 1) + memory_slack(n)
