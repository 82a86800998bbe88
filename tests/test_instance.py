import math
import types
import warnings

import numpy as np
import pytest

import tourcraft as tc
from tourcraft import instance
from conftest import (DATA_DIR, fractional_matrix, memory_slack,
                      random_matrix, traced_peak, uniform_matrix,
                      unrounded_matrix)


def pair_distance(kind, a, b):
    """TSPLIB distance of one pair, read from a two-city matrix."""
    inst = tc.Instance("pair", kind, coords=(a, b))
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
            tc.Instance("g", "GEO", coords=((0, 0), (1, 1)))

    @pytest.mark.parametrize("name", [5, None, b"g"],
                             ids=["int", "None", "bytes"])
    def test_name_not_a_str(self, name):
        # an int name was accepted and broke the SVG title with an
        # untyped AttributeError
        with pytest.raises(tc.ConfigError, match="instance name must be a str"):
            tc.Instance(name, "EUC_2D", coords=((0, 0), (1, 1)))


class TestDistanceMatrix:
    def test_rounding_example(self):
        inst = tc.Instance("t", "EUC_2D", coords=((0, 0), (0, 1), (1, 0)))
        m = tc.build_distance_matrix(inst)
        assert m.d[0][1] == 1 and m.d[0][2] == 1
        assert m.d[1][2] == 1  # sqrt(2) rounds down to 1
        assert m.heuristic[1][2] == math.sqrt(2)  # scores stay exact

    def test_equality_is_identity(self):
        # an array field made == raise an untyped ValueError and hash a
        # TypeError: a matrix equals only itself, as an Instance does
        inst = tc.Instance("t", "EUC_2D", coords=((0, 0), (0, 1), (1, 0)))
        m = tc.build_distance_matrix(inst)
        twin = tc.build_distance_matrix(inst)
        assert m == m and m != twin
        assert len({m, m, twin}) == 2

    def test_berlin52_first_pair(self):
        # round(sqrt(540^2 + 390^2)) = round(666.11) = 666
        inst = tc.Instance("b", "EUC_2D",
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
        inst = tc.Instance("e", "EXPLICIT", explicit_weights=w)
        m = tc.build_distance_matrix(inst)
        assert np.array_equal(m.d, w)
        assert m.d is inst.explicit_weights
        assert m.heuristic is m.d

    def test_asymmetric_explicit_rejected(self):
        # the second table's triangles differ by 1e-5 relative, so a tour
        # and its reverse would have different lengths
        near = np.full((5, 5), 10.0) - 10.0 * np.eye(5)
        near[0, 1], near[1, 0] = 100000.0, 100001.0
        for w in (np.array([[0, 2], [3, 0]], dtype=float), near):
            with pytest.raises(tc.ValidationError, match="not symmetric"):
                tc.Instance("bad", "EXPLICIT", explicit_weights=w)

    @pytest.mark.parametrize("table,fragment", [
        (np.array([[0, 1, 9, 9], [9, 0, 1, 9], [9, 9, 0, 1], [1, 9, 9, 0]]),
         "not symmetric"),
        (np.ones((4, 4)), "nonzero diagonal"),
    ], ids=["one-way-cycle", "ones"])
    def test_every_table_is_symmetric_with_zero_diagonal(self, table,
                                                         fragment):
        # the one-way cycle measured one loop as 4 one way round and 36 the
        # other, and held_karp_bound gave 12, above the optimum of 4
        zero = np.zeros(table.shape)
        for make in (lambda: tc.Instance("bad", "EXPLICIT",
                                         explicit_weights=table),
                     lambda: tc.DistanceMatrix(table),
                     lambda: tc.DistanceMatrix(zero, heuristic=table)):
            with pytest.raises(tc.ValidationError, match=fragment):
                make()

    @pytest.mark.parametrize("i,j", [(0, 1), (10, 500), (53, 54), (54, 599),
                                     (255, 256), (300, 550), (512, 599),
                                     (598, 599)])
    def test_symmetry_is_checked_in_every_block(self, i, j):
        # the triangles are compared one row block at a time, 54 rows at
        # n = 600
        assert instance._block_rows(600) == 54
        w = np.ones((600, 600)) - np.eye(600)
        tc.DistanceMatrix(w)
        w[i, j] = 2.0
        with pytest.raises(tc.ValidationError, match="not symmetric"):
            tc.DistanceMatrix(w)

    def test_repr_leaves_d_unbuilt(self):
        # the dataclass repr read d, which rounded a whole n x n table, and
        # heuristic; it names n alone and makes neither table
        m = tc.build_distance_matrix(tc.generate_random_euclidean(300, 5, 1e6))
        assert repr(m) == "DistanceMatrix(n=300)"
        assert not {"d", "heuristic"} & set(vars(m))

    def test_size_guard_before_allocation(self, monkeypatch):
        assert tc.instance.MATRIX_MAX_N >= 1000
        for path in DATA_DIR.glob("*.tsp"):
            assert tc.parse_tsplib(path.read_text()).n <= \
                tc.instance.MATRIX_MAX_N
        monkeypatch.setattr(tc.instance, "MATRIX_MAX_N", 10)
        assert tc.build_distance_matrix(
            tc.generate_random_euclidean(10, 1, 100.0)).n == 10
        for inst in (tc.generate_random_euclidean(11, 1, 100.0),
                     tc.Instance("e", "EXPLICIT",
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
        # real coordinates, and integer ones with exact and repeated
        # distances; the statistics of n = 300 take three row blocks, the
        # last one short
        assert tc.instance._block_rows(150) >= 150
        assert 300 % tc.instance._block_rows(300) > 0
        for pts in (rng.random((150, 2)) * 10_000,
                    rng.integers(0, 30, (150, 2)).astype(float),
                    rng.random((300, 2)) * 10_000,
                    rng.integers(0, 30, (300, 2)).astype(float)):
            n = len(pts)
            m = tc.build_distance_matrix(tc.Instance("r", kind, coords=pts))
            d, exact = plain_matrix(pts, kind)
            # the tables are made when first read; tour lengths priced and
            # statistics taken before that read equal those after it
            orders = [rng.permutation(n) for _ in range(4)]
            before = instance._loop_lengths(orders, m).tolist()
            stats = tc.city_stats(m)
            assert not {"d", "heuristic"} & set(vars(m))
            assert m.d.tobytes() == d.tobytes()
            assert instance._loop_lengths(orders, m).tolist() == before
            assert before == [d[o, np.roll(o, -1)].sum() for o in orders]
            assert m.heuristic.tobytes() == exact.tobytes()
            mu = exact.sum(axis=1) / (n - 1)
            dev = np.where(np.eye(n, dtype=bool), 0.0, exact - mu[:, None])
            var = np.sum(dev * dev, axis=1) / (n - 1)
            for stats in (stats, tc.city_stats(m)):
                assert stats.mu.tobytes() == mu.tobytes()
                assert stats.sigma.tobytes() == np.sqrt(var).tobytes()

    @pytest.mark.parametrize("kind", ["EUC_2D", "CEIL_2D", "ATT"])
    def test_matrix_build_peak(self, kind):
        # a build holds no table and reads no row, only its coordinates;
        # the first read of d or the heuristic makes that one table, one
        # row block at a time
        n = 300
        pts = np.random.default_rng(9).random((n, 2)) * 1000
        inst = tc.Instance("r", kind, coords=pts)
        tc.build_distance_matrix(inst).d  # warm numpy up
        peak = traced_peak(lambda: tc.build_distance_matrix(inst))
        assert peak <= 4 * 16 * n  # a few arrays of n coordinate pairs
        for name in ("d", "heuristic"):
            m = tc.build_distance_matrix(inst)
            peak = traced_peak(lambda: getattr(m, name))
            assert peak <= 8 * n * n + instance.BLOCK_BYTES + memory_slack(n)
            assert list(vars(m)).count(name) == 1

    def test_city_stats_peak(self):
        n = 300
        m = random_matrix(n, 9)
        tc.city_stats(m)
        peak = traced_peak(lambda: tc.city_stats(m))
        assert peak <= 8 * n * n + memory_slack(n)

    def test_city_stats_holds_one_row_block(self):
        # the squared deviations are summed one row block at a time (n = 800
        # takes several), so the statistics hold under half a matrix
        n = 800
        m = random_matrix(n, 9)
        tc.city_stats(m)
        peak = traced_peak(lambda: tc.city_stats(m))
        assert peak <= 4 * n * n + memory_slack(n)


class TestInputValidation:
    def test_coords_are_one_read_only_array(self):
        inst = tc.Instance("t", "EUC_2D", coords=[(0, 0), (1, 2), (3, 4)])
        assert inst.coords.shape == (3, 2) and inst.coords.dtype == float
        with pytest.raises(ValueError):
            inst.coords[0, 0] = 5.0

    def test_callers_matrix_stays_writable(self):
        # DistanceMatrix keeps a read-only copy; the caller's arrays stay
        # writable, and writing to them changes nothing in the matrix
        d = np.ones((3, 3)) - np.eye(3)
        h = d * 2
        for matrix, h01 in ((tc.DistanceMatrix(d), 1.0),
                            (tc.DistanceMatrix(d, h), 2.0)):
            d[0, 1] = h[0, 1] = 5.0
            assert (matrix.d[0, 1], matrix.heuristic[0, 1]) == (1.0, h01)
            for a in (matrix.d, matrix.heuristic):
                with pytest.raises(ValueError, match="read-only"):
                    a[0, 1] = 7.0
            d[0, 1], h[0, 1] = 1.0, 2.0

    def test_callers_weight_table_stays_writable(self):
        # the instance kept the caller's own writable table, so writing to
        # it changed the instance and every matrix built from it later
        w = np.ones((3, 3)) - np.eye(3)
        inst = tc.Instance("t", "EXPLICIT", explicit_weights=w)
        w[0, 1] = 9.0
        for a in (inst.explicit_weights, tc.build_distance_matrix(inst).d):
            assert a[0, 1] == 1.0
            with pytest.raises(ValueError, match="read-only"):
                a[0, 1] = 7.0

    @pytest.mark.parametrize("bad", [[["a", "b"], ["c", "d"]], [[0, 1], [1]]],
                             ids=["non-numeric", "ragged"])
    def test_arrays_that_are_not_numbers_rejected(self, bad):
        # each was a bare ValueError from numpy
        ok = np.ones((2, 2)) - np.eye(2)
        for make in (lambda: tc.Instance("t", "EUC_2D", coords=bad),
                     lambda: tc.Instance("t", "EXPLICIT", explicit_weights=bad),
                     lambda: tc.DistanceMatrix(bad),
                     lambda: tc.DistanceMatrix(ok, heuristic=bad)):
            with pytest.raises(tc.ValidationError,
                               match="not an array of numbers"):
                make()

    def test_read_only_matrix_kept_uncopied(self):
        # build_distance_matrix freezes its fresh arrays, so none is copied
        m = random_matrix(5, 1)
        again = tc.DistanceMatrix(m.d, m.heuristic)
        assert again.d is m.d and again.heuristic is m.heuristic

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_coordinate_rejected(self, bad):
        with pytest.raises(tc.ValidationError, match="non-finite"):
            tc.Instance("t", "EUC_2D", coords=((0, 0), (bad, 1), (2, 2)))

    def test_negative_weight_rejected(self):
        w = np.array([[0, -1, 3], [-1, 0, 4], [3, 4, 0]], dtype=float)
        with pytest.raises(tc.ValidationError, match=">= 0"):
            tc.Instance("e", "EXPLICIT", explicit_weights=w)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_weight_rejected(self, bad):
        w = np.array([[0, bad, 3], [bad, 0, 4], [3, 4, 0]], dtype=float)
        with pytest.raises(tc.ValidationError, match="finite"):
            tc.Instance("e", "EXPLICIT", explicit_weights=w)

    @pytest.mark.parametrize("kind", ["EUC_2D", "CEIL_2D", "ATT"])
    def test_overflowing_distances_rejected_at_build(self, kind):
        # no distance exceeds the diagonal of the coordinates' bounding box,
        # so a build reads rows only where that overflows: the diamond's
        # box does, though none of its distances; 300 cities whose only
        # overflowing distance joins two cities of the last row block are
        # rejected as a table with an inf was
        big = 1.3e154  # big * big fits a float, 2 * big * big does not
        diamond = [(0, big / 2), (big, big / 2), (big / 2, 0), (big / 2, big)]
        m = tc.build_distance_matrix(tc.Instance("d", kind, coords=diamond))
        assert np.isfinite(m.d).all() and np.isfinite(m.heuristic).all()
        pts = np.full((300, 2), big / 2)
        pts[298], pts[299] = (0, 0), (big, big)
        assert 298 // instance._block_rows(300) == 2
        inst = tc.Instance("far", kind, coords=pts)
        with pytest.raises(tc.ValidationError, match="finite and >= 0"):
            tc.build_distance_matrix(inst)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_distance_matrix_entries_rejected(self, bad):
        # a NaN entry gave grid_search a tour of length nan
        d = np.ones((4, 4)) - np.eye(4)
        d[1, 2] = d[2, 1] = bad
        with pytest.raises(tc.ValidationError, match="finite and >= 0"):
            tc.DistanceMatrix(d)
        with pytest.raises(tc.ValidationError, match="finite and >= 0"):
            tc.DistanceMatrix(np.ones((4, 4)) - np.eye(4), heuristic=d)


    @pytest.mark.parametrize("kwargs,error,fragment", [
        (dict(kind="EUC_2D", coords=()), tc.DegenerateInstanceError,
         "n >= 1, got 0"),
        (dict(kind="EXPLICIT"), tc.ValidationError,
         "requires a weight table"),
        (dict(kind="EXPLICIT", explicit_weights=np.zeros((2, 3))),
         tc.ValidationError, r"shape \(2, 3\) is not square"),
        (dict(kind="EXPLICIT", explicit_weights=np.ones((2, 2))),
         tc.ValidationError, "nonzero diagonal"),
        (dict(kind="EXPLICIT", explicit_weights=np.zeros((3, 3)),
              coords=((0, 0), (1, 1))),
         tc.ValidationError, "expected 3 coordinate pairs, got 2"),
        (dict(kind="EUC_2D", coords=((0, 0), (1, 1)),
              explicit_weights=[[0, 1], [5, "x"]]),
         tc.ValidationError, "weight table needs kind EXPLICIT, got EUC_2D"),
    ], ids=["n-below-1", "explicit-without-table", "table-shape",
            "nonzero-diagonal", "coordinate-count", "table-beside-coords"])
    def test_bad_instance_rejected(self, kwargs, error, fragment):
        # n is read from the arrays: no coordinates is no city, and display
        # coordinates must number the table's rows; a coordinate instance
        # kept a weight table unconverted and unchecked
        with pytest.raises(error, match=fragment):
            tc.Instance("t", **kwargs)

    @pytest.mark.parametrize("coords", [[[0, 0, 0], [1, 1, 1]], [0, 0, 1]],
                             ids=["triples", "odd-flat-list"])
    def test_coordinates_must_be_pairs(self, coords):
        # the triples were read as the pairs (0, 0), (0, 1), (1, 1), and an
        # odd-length flat list was a bare ValueError from reshape
        with pytest.raises(tc.ValidationError, match=r"not \(x, y\) pairs"):
            tc.Instance("t", "EUC_2D", coords=coords)

    @pytest.mark.parametrize("shape", [(3, 4), (4,), (3, 3)])
    def test_distance_matrix_shape_rejected(self, shape):
        # d must be square, and a heuristic must have the shape of d
        d = np.ones((4, 4)) - np.eye(4)
        with pytest.raises(tc.ValidationError, match="heuristic shape"):
            tc.DistanceMatrix(d, heuristic=np.zeros(shape))
        if shape != (3, 3):
            with pytest.raises(tc.ValidationError, match="is not square"):
                tc.DistanceMatrix(np.zeros(shape))

    def test_empty_matrix_is_degenerate(self):
        # was a bare ValueError from the finiteness check's reduction
        with pytest.raises(tc.DegenerateInstanceError, match="n >= 1, got 0"):
            tc.DistanceMatrix(np.zeros((0, 0)))
        with pytest.raises(tc.DegenerateInstanceError, match="n >= 1, got 0"):
            tc.Instance("t", "EXPLICIT", explicit_weights=np.zeros((0, 0)))

    def test_n_is_a_python_int_read_from_the_arrays(self):
        # a float n was accepted, gave bare TypeErrors in the solvers and
        # was written as DIMENSION: 4.0
        pts = np.array([(0, 0), (3, 0), (3, 4), (0, 4)], dtype=np.float64)
        w = np.ones((4, 4)) - np.eye(4)
        inst = tc.Instance("t", "EUC_2D", coords=pts)
        for n in (inst.n, tc.Instance("e", "EXPLICIT", explicit_weights=w).n,
                  tc.DistanceMatrix(w).n, tc.build_distance_matrix(inst).n):
            assert type(n) is int and n == 4
        assert "\nDIMENSION: 4\n" in tc.write_tsplib(inst)


class TestHeuristicGeometry:
    def test_stats_use_exact_euclidean_distances(self):
        inst = tc.parse_tsplib((DATA_DIR / "eil51.tsp").read_text())
        scored = tc.city_stats(tc.build_distance_matrix(inst))
        exact = tc.city_stats(unrounded_matrix(inst.coords))
        assert np.array_equal(scored.mu, exact.mu)
        assert np.array_equal(scored.sigma, exact.sigma)

    def test_matrix_from_array_scores_on_it(self):
        d = np.array([[0.0, 3.0, 4.0], [3.0, 0.0, 5.0], [4.0, 5.0, 0.0]])
        m = tc.DistanceMatrix(d)
        assert m.heuristic is m.d
        s = tc.city_stats(m)
        assert s.mu[0] == 3.5 and s.sigma[0] == 0.5


class TestCityStats:
    def test_equilateral(self):
        d = np.ones((3, 3)) - np.eye(3)
        s = tc.city_stats(tc.DistanceMatrix(d))
        assert np.allclose(s.mu, 1) and np.allclose(s.sigma, 0)

    def test_two_distances(self):
        d = np.array([[0, 3, 5], [3, 0, 1], [5, 1, 0]], dtype=float)
        s = tc.city_stats(tc.DistanceMatrix(d))
        assert s.mu[0] == 4 and s.sigma[0] == 1

    def test_n2_single_sample(self):
        d = np.array([[0, 7], [7, 0]], dtype=float)
        s = tc.city_stats(tc.DistanceMatrix(d))
        assert np.allclose(s.mu, 7) and np.allclose(s.sigma, 0)

    def test_constant_offdiagonal(self):
        for c in (0.5, 3.0, 42.0):
            d = c * (np.ones((6, 6)) - np.eye(6))
            s = tc.city_stats(tc.DistanceMatrix(d))
            assert np.allclose(s.mu, c) and np.allclose(s.sigma, 0)

    def test_degenerate(self):
        with pytest.raises(tc.DegenerateInstanceError):
            tc.city_stats(tc.DistanceMatrix(np.zeros((1, 1))))


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

    @pytest.mark.parametrize("order", [["x", 1, 2, 3], None, [[0, 1], [2, 3]],
                                       [[0, 1], [2]], [True, False, 2, 3],
                                       [0.0, 1.0, 2.0, 3.0],
                                       np.arange(4, dtype=float)],
                             ids=["str", "none", "nested", "ragged", "bools",
                                  "integral-floats", "numpy-floats"])
    def test_rejects_non_numeric_orders(self, order):
        # these raised an untyped TypeError, make_tour's int() one for
        # nested lists before it validated
        m = random_matrix(4, 0)
        assert not tc.validate_tour(order, 4)
        for build in (tc.tour_length, tc.make_tour):
            with pytest.raises(tc.ValidationError, match="not a tour of 4"):
                build(order, m)


class TestLoopLengths:
    """A row of `_loop_lengths` is the float a loop summed alone gives,
    across numpy's summation block edges (8 and 128 elements, and its
    8192-element buffer)."""

    @staticmethod
    def assert_rows_sum_alone(m, rows=5):
        n = len(m.d)
        rng = np.random.default_rng(n)
        orders = np.array([rng.permutation(n) for _ in range(rows)])
        lengths = instance._loop_lengths(orders, m).tolist()
        for order, length in zip(orders, lengths):
            alone = float(m.d[order, np.roll(order, -1)].sum())
            assert length.hex() == alone.hex()

    @pytest.mark.parametrize("n", [3, 7, 8, 9, 16, 17, 127, 128, 129, 255,
                                   256, 257, 1000])
    def test_fractional_weights(self, n):
        self.assert_rows_sum_alone(fractional_matrix(n, n))

    @pytest.mark.parametrize("n", [8191, 8192, 8193, 9000])
    def test_past_the_buffer_size(self, n):
        # d[i, j] = w[j], a read-only view: no n x n array is held. It is
        # not symmetric, so it is no DistanceMatrix; _loop_lengths reads d
        w = np.random.default_rng(n).random(n) * 10
        self.assert_rows_sum_alone(
            types.SimpleNamespace(d=np.broadcast_to(w, (n, n))), rows=3)


class TestRanked:
    """`_ranked` is the (value, index) order of a plain `sorted`, on 1-D
    keys and on each row of 2-D keys."""

    @pytest.mark.parametrize("levels", [
        (0.0, 1.0, 2.5),
        (-0.0, 0.0, 1.0),
        (-np.inf, 0.0, 3.0, np.inf),
    ], ids=["few-levels", "signed-zeros", "infinities"])
    @pytest.mark.parametrize("shape", [(1,), (9,), (500,), (6, 40), (3, 300)])
    def test_matches_plain_sort(self, levels, shape):
        keys = np.random.default_rng(shape[-1]).choice(levels, size=shape)
        ranked = instance._ranked(keys)
        assert ranked.shape == keys.shape
        for key, got in zip(np.atleast_2d(keys).tolist(),
                            np.atleast_2d(ranked).tolist()):
            assert got == sorted(range(len(key)), key=lambda i: (key[i], i))


class TestFloatRange:
    """Distances whose statistics or tour lengths overflow a float are a
    ValidationError, raised without a warning; tiny ones, whose squares
    underflow, are not an error."""

    @pytest.mark.parametrize("weight", [1e308])
    def test_overflowing_stats_rejected(self, weight):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(tc.ValidationError, match="overflow"):
                tc.city_stats(uniform_matrix(5, weight))

    @pytest.mark.parametrize("weight", [1e155, 1e200])
    def test_stats_that_fit_a_float_accepted(self, weight):
        # the squares of the distances overflow, those of the deviations
        # from the mean do not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = tc.city_stats(uniform_matrix(5, weight))
        assert (s.mu == weight).all() and (s.sigma == 0).all()

    def test_overflowing_tour_length_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(tc.ValidationError, match="overflow"):
                tc.tour_length(range(5), uniform_matrix(5, 1e308))

    def test_underflow_is_not_an_error(self):
        m = tc.DistanceMatrix(fractional_matrix(6, 1).d * 1e-200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = tc.city_stats(uniform_matrix(5, 1e-200))
            assert (s.mu == 1e-200).all() and (s.sigma == 0).all()
            assert (tc.city_stats(m).mu > 0).all()
            assert tc.tour_length(range(6), m) > 0


class TestValidateTour:
    def test_ok(self):
        assert tc.validate_tour([0, 1, 2, 3], 4)

    def test_reports_duplicate_and_missing(self):
        m = random_matrix(4, 0)
        for order, missing, unexpected in (([0, 1, 1, 3], "[2]", "[1]"),
                                           ([0, 1, 9, 3], "[2]", "[9]"),
                                           ([0, 1], "[2, 3]", "[]"),
                                           (np.array([3, 0, 3, 3]), "[1, 2]",
                                            "[3]"),
                                           ([np.int8(-1), 1, 2, 3, 0], "[]",
                                            "[-1]")):
            assert not tc.validate_tour(order, 4)
            with pytest.raises(tc.ValidationError) as err:
                tc.tour_length(order, m)
            assert f"missing {missing}, unexpected {unexpected}" in \
                str(err.value)

    def test_empty_vacuous(self):
        assert tc.validate_tour([], 0)

    @pytest.mark.parametrize("order,is_tour", [
        ([0, 1, 2, 3], True),
        ((3, 2, 1, 0), True),
        (range(4), True),
        (np.array([1, 2, 3, 0]), True),
        ([np.int32(0), np.int64(1), np.uint8(2), 3], True),
        ([True, False, 2, 3], False),
        ([np.bool_(False), np.bool_(True), 2, 3], False),
        ([0.0, 1.0, 2.0, 3.0], False),
        ([0.0, 1.0, 2.0, 2.0], False),
        (np.array([0.0, 1.0, 2.0, 3.0]), False),
        ([np.float64(0), 1, 2, 3], False),
        (["0", "1", "2", "3"], False),
        ("0123", False),
        (None, False),
        ([[0, 1], [2, 3]], False),
        (np.array(3), False),
        ([0, 1, 1, 3], False),
        ([0, 1, 9, 3], False),
        ([-1, 1, 2, 3], False),
        ([0, 1, 2], False),
        ([0, 1, 2, 3, 0], False),
    ], ids=["ints", "tuple", "range", "numpy-ints", "numpy-int-scalars",
            "bools", "numpy-bools", "integral-floats", "float-duplicate",
            "numpy-floats", "numpy-float-scalar", "str", "text", "none",
            "nested", "zero-d-array", "duplicate", "out-of-range", "negative",
            "short", "long"])
    def test_one_rule_behind_every_entry_point(self, order, is_tour):
        # validate_tour took bools and integral floats, tour_length and
        # make_tour took them too, and plot_tour_svg failed untyped on floats
        inst = tc.Instance("sq", "EUC_2D",
                           coords=((0, 0), (10, 0), (10, 10), (0, 10)))
        m = tc.build_distance_matrix(inst)
        assert tc.validate_tour(order, 4) is is_tour
        for enter in (tc.tour_length, tc.make_tour,
                      lambda o, m: tc.plot_tour_svg(inst, o)):
            if is_tour:
                enter(order, m)
                continue
            with pytest.raises(tc.ValidationError, match="not a tour of 4"):
                enter(order, m)
        if is_tour:
            tour = tc.make_tour(order, m)
            assert [type(c) for c in tour.order] == [int] * 4
            assert tour.order == tuple(int(c) for c in order)
            assert tour.length == tc.tour_length(order, m) == 40.0


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

    @pytest.mark.parametrize("n,seed,what", [
        (10.5, 1, "n"), (True, 1, "n"), ("10", 1, "n"),
        (10, 1.5, "seed"), (10, True, "seed"), (10, "3", "seed"),
        (10, np.float64(1.0), "seed"),
    ], ids=["float-n", "bool-n", "str-n", "float-seed", "bool-seed",
            "str-seed", "numpy-float-seed"])
    def test_rejects_non_integer_n_and_seed(self, n, seed, what):
        # a float or bool seed named the instance after it (rand-n10-s1.5,
        # rand-n10-sTrue), a float n or a str seed was a bare TypeError
        with pytest.raises(tc.ConfigError, match=f"{what} must be an integer"):
            tc.generate_random_euclidean(n, seed, 1.0)

    def test_negative_seed_names_its_bound(self):
        with pytest.raises(tc.ConfigError, match=r"seed must be >= 0, got -1$"):
            tc.generate_random_euclidean(10, -1, 1.0)

    @pytest.mark.parametrize("box_side", ["x", None, 0, -1.0, math.nan,
                                          math.inf, 10**400],
                             ids=["str", "None", "zero", "negative", "nan",
                                  "inf", "huge-int"])
    def test_rejects_bad_box_side(self, box_side):
        # a str or None raised an untyped TypeError from np.isfinite
        with pytest.raises(tc.ConfigError, match="box_side must be positive"):
            tc.generate_random_euclidean(10, 1, box_side)

    @pytest.mark.parametrize("n", [10**17, 10**18], ids=["1e17", "1e18"])
    def test_too_large_to_allocate(self, n):
        # numpy's MemoryError (1.39 EiB) or ValueError (array is too big)
        # escaped; both are raised before anything is allocated
        with pytest.raises(tc.SizeLimitError, match=f"n={n} cities"):
            tc.generate_random_euclidean(n, 1, 1.0)

    def test_numpy_integer_n_and_seed_accepted(self):
        a = tc.generate_random_euclidean(np.int64(10), np.int32(3), 1.0)
        b = tc.generate_random_euclidean(10, 3, 1.0)
        assert a.name == b.name == "rand-n10-s3"
        assert np.array_equal(a.coords, b.coords)
