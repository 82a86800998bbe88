import math

import numpy as np
import pytest

import tourcraft as tc
from conftest import brute_force_optimum, random_matrix, unrounded_matrix


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

    def test_size_limit(self):
        m = random_matrix(16, 1)
        with pytest.raises(tc.SizeLimitError):
            tc.exact_optimum(m)


class TestOneTree:
    def test_345_triangle_equals_tour(self):
        d = np.array([[0, 3, 4], [3, 0, 5], [4, 5, 0]], dtype=float)
        m = tc.DistanceMatrix(3, d)
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
        with pytest.raises(tc.ConfigError):
            tc.held_karp_bound(random_matrix(5, 0), max_iters=0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_hint(self, bad):
        # inf gave NaN potentials, NaN silently returned the first 1-tree
        with pytest.raises(tc.ConfigError, match="finite"):
            tc.held_karp_bound(random_matrix(10, 0), upper_bound_hint=bad)

    def test_best_so_far_monotone(self):
        m = random_matrix(15, 11)
        bounds = [tc.held_karp_bound(m, max_iters=k).bound
                  for k in (1, 10, 50, 200)]
        assert all(b2 >= b1 - 1e-9 for b1, b2 in zip(bounds, bounds[1:]))
