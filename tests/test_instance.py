import math

import numpy as np
import pytest

import tourcraft as tc
from conftest import (DATA_DIR, memory_slack, random_matrix, traced_peak,
                      unrounded_matrix)


def pair_distance(kind, a, b):
    """TSPLIB distance of one pair, read from a two-city matrix."""
    inst = tc.Instance("pair", 2, kind, coords=(a, b))
    return tc.build_distance_matrix(inst).d[0, 1]


class TestDistance:
    def test_euc_2d_345_triangle(self):
        assert pair_distance("EUC_2D", (0, 0), (3, 4)) == 5

    def test_ceil_2d_rounds_up(self):
        assert pair_distance("CEIL_2D", (0, 0), (1, 1)) == 2

    def test_att_hand_computed(self):
        # r = sqrt(25/10) ~ 1.5811, nint(r) = 2 >= r
        assert pair_distance("ATT", (0, 0), (3, 4)) == 2

    def test_att_round_up_branch(self):
        # r = sqrt(90/10) = 3, t = 3 >= r -> 3; contrast with a pair where
        # nint(r) < r so the +1 branch fires: r = sqrt(160/10) = 4
        assert pair_distance("ATT", (0, 0), (3, 9)) == 3
        rng = np.random.default_rng(7)
        for _ in range(500):
            a = tuple(rng.uniform(0, 100, 2))
            b = tuple(rng.uniform(0, 100, 2))
            r = math.sqrt(((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) / 10)
            assert pair_distance("ATT", a, b) >= r

    def test_symmetry(self):
        for kind in ("EUC_2D", "ATT", "CEIL_2D"):
            assert pair_distance(kind, (1, 2), (5, 9)) == \
                pair_distance(kind, (5, 9), (1, 2))

    def test_unknown_kind(self):
        with pytest.raises(tc.ConfigError):
            tc.Instance("g", 2, "GEO", coords=((0, 0), (1, 1)))


class TestDistanceMatrix:
    def test_rounding_example(self):
        inst = tc.Instance("t", 3, "EUC_2D", coords=((0, 0), (0, 1), (1, 0)))
        m = tc.build_distance_matrix(inst)
        assert m.d[0][1] == 1 and m.d[0][2] == 1
        assert m.d[1][2] == 1  # sqrt(2) rounds down to 1
        assert m.heuristic[1][2] == math.sqrt(2)  # scores stay exact

    def test_berlin52_first_pair(self):
        # round(sqrt(540^2 + 390^2)) = round(666.11) = 666
        inst = tc.Instance("b", 2, "EUC_2D",
                           coords=((565.0, 575.0), (25.0, 185.0)))
        m = tc.build_distance_matrix(inst)
        assert m.d[0][1] == 666

    def test_symmetric_zero_diagonal(self):
        for seed in range(5):
            m = random_matrix(30, seed)
            assert np.array_equal(m.d, m.d.T)
            assert np.all(np.diag(m.d) == 0)
            assert np.all(m.d >= 0)

    def test_explicit_passthrough(self):
        w = np.array([[0, 2, 3], [2, 0, 4], [3, 4, 0]], dtype=float)
        inst = tc.Instance("e", 3, "EXPLICIT", explicit_weights=w)
        m = tc.build_distance_matrix(inst)
        assert np.array_equal(m.d, w)
        assert m.heuristic is m.d

    def test_asymmetric_explicit_rejected(self):
        w = np.array([[0, 2], [3, 0]], dtype=float)
        with pytest.raises(tc.ValidationError):
            tc.Instance("bad", 2, "EXPLICIT", explicit_weights=w)

    def test_size_guard_before_allocation(self, monkeypatch):
        assert tc.instance.MATRIX_MAX_N >= 1000
        for path in DATA_DIR.glob("*.tsp"):
            assert tc.parse_tsplib(path.read_text()).n <= \
                tc.instance.MATRIX_MAX_N
        monkeypatch.setattr(tc.instance, "MATRIX_MAX_N", 10)
        assert tc.build_distance_matrix(
            tc.generate_random_euclidean(10, 1, 100.0)).n == 10
        for inst in (tc.generate_random_euclidean(11, 1, 100.0),
                     tc.Instance("e", 11, "EXPLICIT",
                                 explicit_weights=np.zeros((11, 11)))):
            with pytest.raises(tc.SizeLimitError, match="n <= 10"):
                tc.build_distance_matrix(inst)


def plain_matrix(pts, kind):
    """The TSPLIB rules as plain whole-array expressions: (d, exact)."""
    dx = pts[:, 0][:, None] - pts[:, 0][None, :]
    dy = pts[:, 1][:, None] - pts[:, 1][None, :]
    sq = dx * dx + dy * dy
    exact = np.sqrt(sq)
    if kind == "EUC_2D":
        d = np.floor(exact + 0.5)
    elif kind == "CEIL_2D":
        d = np.ceil(exact)
    else:
        r = np.sqrt(sq / 10.0)
        t = np.floor(r + 0.5)
        d = np.where(t >= r, t, t + 1.0)
    np.fill_diagonal(d, 0.0)
    return d, exact


class TestInPlaceBuilds:
    """The matrix and the statistics are built in place: the values are
    those of the plain expressions, and the peak stays small."""

    @pytest.mark.parametrize("kind", ["EUC_2D", "CEIL_2D", "ATT"])
    def test_bit_identical_to_plain_expressions(self, kind):
        rng = np.random.default_rng(8)
        # real coordinates, and integer ones with exact and repeated distances
        for pts in (rng.random((150, 2)) * 10_000,
                    rng.integers(0, 30, (150, 2)).astype(float)):
            m = tc.build_distance_matrix(tc.Instance("r", 150, kind, coords=pts))
            d, exact = plain_matrix(pts, kind)
            assert m.d.tobytes() == d.tobytes()
            assert m.heuristic.tobytes() == exact.tobytes()
            mu = exact.sum(axis=1) / 149
            dev = exact - mu[:, None]
            var = (np.sum(dev * dev, axis=1) - mu * mu) / 149
            stats = tc.city_stats(m)
            assert stats.mu.tobytes() == mu.tobytes()
            assert stats.sigma.tobytes() == \
                np.sqrt(np.clip(var, 0.0, None)).tobytes()

    @pytest.mark.parametrize("kind,arrays", [("EUC_2D", 2), ("CEIL_2D", 2),
                                             ("ATT", 3)])
    def test_matrix_build_peak(self, kind, arrays):
        n = 300
        pts = np.random.default_rng(9).random((n, 2)) * 1000
        inst = tc.Instance("r", n, kind, coords=pts)
        tc.build_distance_matrix(inst)  # warm numpy up
        peak = traced_peak(lambda: tc.build_distance_matrix(inst))
        assert peak <= arrays * 8 * n * n + memory_slack(n)

    def test_city_stats_peak(self):
        n = 300
        m = random_matrix(n, 9)
        tc.city_stats(m)
        peak = traced_peak(lambda: tc.city_stats(m))
        assert peak <= 8 * n * n + memory_slack(n)


class TestInputValidation:
    def test_coords_are_one_read_only_array(self):
        inst = tc.Instance("t", 3, "EUC_2D", coords=[(0, 0), (1, 2), (3, 4)])
        assert inst.coords.shape == (3, 2) and inst.coords.dtype == float
        with pytest.raises(ValueError):
            inst.coords[0, 0] = 5.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_coordinate_rejected(self, bad):
        with pytest.raises(tc.ValidationError, match="non-finite"):
            tc.Instance("t", 3, "EUC_2D", coords=((0, 0), (bad, 1), (2, 2)))

    def test_negative_weight_rejected(self):
        w = np.array([[0, -1, 3], [-1, 0, 4], [3, 4, 0]], dtype=float)
        with pytest.raises(tc.ValidationError, match=">= 0"):
            tc.Instance("e", 3, "EXPLICIT", explicit_weights=w)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_weight_rejected(self, bad):
        w = np.array([[0, bad, 3], [bad, 0, 4], [3, 4, 0]], dtype=float)
        with pytest.raises(tc.ValidationError, match="finite"):
            tc.Instance("e", 3, "EXPLICIT", explicit_weights=w)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_distance_matrix_entries_rejected(self, bad):
        # a NaN entry gave grid_search a tour of length nan
        d = np.ones((4, 4)) - np.eye(4)
        d[1, 2] = d[2, 1] = bad
        with pytest.raises(tc.ValidationError, match="finite and >= 0"):
            tc.DistanceMatrix(4, d)
        with pytest.raises(tc.ValidationError, match="finite and >= 0"):
            tc.DistanceMatrix(4, np.ones((4, 4)) - np.eye(4), heuristic=d)


class TestHeuristicGeometry:
    def test_stats_use_exact_euclidean_distances(self):
        inst = tc.parse_tsplib((DATA_DIR / "eil51.tsp").read_text())
        scored = tc.city_stats(tc.build_distance_matrix(inst))
        exact = tc.city_stats(unrounded_matrix(inst.coords))
        assert np.array_equal(scored.mu, exact.mu)
        assert np.array_equal(scored.sigma, exact.sigma)

    def test_matrix_from_array_scores_on_it(self):
        d = np.array([[0.0, 3.0, 4.0], [3.0, 0.0, 5.0], [4.0, 5.0, 0.0]])
        m = tc.DistanceMatrix(3, d)
        assert m.heuristic is m.d
        s = tc.city_stats(m)
        assert s.mu[0] == 3.5 and s.sigma[0] == 0.5


class TestCityStats:
    def test_equilateral(self):
        d = np.ones((3, 3)) - np.eye(3)
        s = tc.city_stats(tc.DistanceMatrix(3, d))
        assert np.allclose(s.mu, 1) and np.allclose(s.sigma, 0)

    def test_two_distances(self):
        d = np.array([[0, 3, 5], [3, 0, 1], [5, 1, 0]], dtype=float)
        s = tc.city_stats(tc.DistanceMatrix(3, d))
        assert s.mu[0] == 4 and s.sigma[0] == 1

    def test_n2_single_sample(self):
        d = np.array([[0, 7], [7, 0]], dtype=float)
        s = tc.city_stats(tc.DistanceMatrix(2, d))
        assert np.allclose(s.mu, 7) and np.allclose(s.sigma, 0)

    def test_constant_offdiagonal(self):
        for c in (0.5, 3.0, 42.0):
            d = c * (np.ones((6, 6)) - np.eye(6))
            s = tc.city_stats(tc.DistanceMatrix(6, d))
            assert np.allclose(s.mu, c) and np.allclose(s.sigma, 0)

    def test_degenerate(self):
        with pytest.raises(tc.DegenerateInstanceError):
            tc.city_stats(tc.DistanceMatrix(1, np.zeros((1, 1))))


class TestTourLength:
    def test_unit_square_perimeter(self):
        m = unrounded_matrix([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert tc.tour_length([0, 1, 2, 3], m) == pytest.approx(4.0)

    def test_reversal_and_rotation(self):
        rng = np.random.default_rng(11)
        m = random_matrix(9, 4)
        for _ in range(50):
            order = rng.permutation(9)
            base = tc.tour_length(order, m)
            assert tc.tour_length(order[::-1], m) == pytest.approx(base)
            assert tc.tour_length(np.roll(order, 3), m) == pytest.approx(base)

    def test_rejects_non_permutation(self):
        m = random_matrix(4, 0)
        with pytest.raises(tc.ValidationError):
            tc.tour_length([0, 1, 1, 3], m)


class TestValidateTour:
    def test_ok(self):
        assert tc.validate_tour([0, 1, 2, 3], 4).ok

    def test_reports_duplicate_and_missing(self):
        report = tc.validate_tour([0, 1, 1, 3], 4)
        assert not report.ok
        assert report.duplicates == [1]
        assert report.missing == [2]

    def test_empty_vacuous(self):
        assert tc.validate_tour([], 0).ok


class TestRandomGenerator:
    def test_deterministic(self):
        a = tc.generate_random_euclidean(100, 42, 1e6)
        b = tc.generate_random_euclidean(100, 42, 1e6)
        assert np.array_equal(a.coords, b.coords)

    def test_seed_sensitivity(self):
        a = tc.generate_random_euclidean(100, 42, 1e6)
        b = tc.generate_random_euclidean(100, 43, 1e6)
        assert not np.array_equal(a.coords, b.coords)

    def test_box_containment(self):
        inst = tc.generate_random_euclidean(1000, 5, 1e6)
        pts = np.asarray(inst.coords)
        assert pts.min() >= 0 and pts.max() <= 1e6

    def test_rejects_tiny(self):
        with pytest.raises(tc.DegenerateInstanceError):
            tc.generate_random_euclidean(2, 1, 10)
