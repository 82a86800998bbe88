import csv
import hashlib
import io
import re

import numpy as np
import pytest

import tourcraft as tc
from tourcraft.bench import CSV_HEADER
from tourcraft.cli import main
from conftest import DATA_DIR


def triangle_instance():
    return tc.Instance("tri", "EUC_2D", coords=((0, 0), (3, 0), (0, 4)))


class TestPercentError:
    def test_att48_paper_value(self):
        assert round(tc.percent_error(34839, 33523), 2) == 3.93

    def test_identity(self):
        assert tc.percent_error(565, 565) == 0.0

    def test_eil76_paper_value(self):
        assert round(tc.percent_error(565, 538), 2) == 5.02

    def test_rejects_nonpositive_reference(self):
        with pytest.raises(tc.ConfigError):
            tc.percent_error(5, 0)

    @pytest.mark.parametrize("reference", [float("nan"), float("inf"), "x",
                                           None, 5 + 0j],
                             ids=["nan", "inf", "str", "None", "complex"])
    def test_rejects_non_finite_reference(self, reference):
        # a reference that is not a real number raised an untyped TypeError
        with pytest.raises(tc.ConfigError, match="finite positive"):
            tc.percent_error(1.0, reference)

    @pytest.mark.parametrize("length", [float("nan"), float("inf"),
                                        -float("inf"), "x", None, 5 + 0j,
                                        10**400],
                             ids=["nan", "inf", "-inf", "str", "None",
                                  "complex", "huge-int"])
    def test_rejects_non_finite_length(self, length):
        # a NaN or infinite length came back as a NaN or infinite error
        with pytest.raises(tc.ConfigError, match="finite real"):
            tc.percent_error(length, 2.0)


class TestRunBenchmark:
    def test_triangle_all_methods_zero_error(self):
        config = tc.RunConfig(instances=[triangle_instance()],
                              methods=("proposed", "nn", "greedy", "cw"),
                              grid=[tc.ExponentCombo(0, 0, 1, 0, 0)])
        records = tc.run_benchmark(config)
        assert len(records) == 4
        for r in records:
            assert r.pct_error == pytest.approx(0.0)
            assert r.reference_kind == "exact"

    def test_generated_instances_use_bound(self):
        config = tc.RunConfig(
            instances=[tc.generate_random_euclidean(30, s, 1e6)
                       for s in (1, 2)],
            methods=("nn",))
        records = tc.run_benchmark(config)
        assert len(records) == 2
        for r in records:
            assert r.reference_kind == "hk-bound"
            assert r.pct_error >= 0.0

    def test_known_optimum_reference(self):
        # an inline fixture: pretend the triangle has a known optimum of 12
        config = tc.RunConfig(instances=[triangle_instance()],
                              methods=("nn",),
                              optima=tc.load_optima("tri 12\n"))
        records = tc.run_benchmark(config)
        assert records[0].reference_kind == "known-optimum"
        assert records[0].reference == 12

    def test_empty_config_rejected(self):
        with pytest.raises(tc.ConfigError):
            tc.run_benchmark(tc.RunConfig())

    @pytest.mark.parametrize("methods", [(), []])
    def test_no_methods_rejected(self, methods):
        config = tc.RunConfig(instances=[triangle_instance()],
                              methods=methods)
        with pytest.raises(tc.ConfigError, match="no methods configured"):
            tc.run_benchmark(config)

    def test_unknown_method_rejected(self):
        config = tc.RunConfig(instances=[triangle_instance()],
                              methods=("magic",))
        with pytest.raises(tc.ConfigError):
            tc.run_benchmark(config)

    def test_duplicate_method_rejected(self):
        config = tc.RunConfig(instances=[triangle_instance()],
                              methods=("nn", "greedy", "nn"))
        with pytest.raises(tc.ConfigError, match="duplicate"):
            tc.run_benchmark(config)

    def test_reference_independent_of_methods_and_grid(self):
        # the reference is the instance's own bound: the ascent once took
        # the first method's length as its upper bound hint, so the bound
        # moved with --methods and --grid
        instance = tc.generate_random_euclidean(40, 3, 1e6)
        bound = tc.held_karp_bound(tc.build_distance_matrix(instance),
                                   200).bound
        for grid in (None, [tc.ExponentCombo(0, 0, 1, 0, 0)]):
            for methods in (("nn", "proposed"), ("proposed", "nn"), ("cw",)):
                config = tc.RunConfig(instances=[instance], methods=methods,
                                      grid=grid, bound_iters=200)
                records = tc.run_benchmark(config)
                assert [r.method for r in records] == sorted(methods)
                assert {(r.reference, r.reference_kind)
                        for r in records} == {(bound, "hk-bound")}

    @pytest.mark.parametrize("iters", [0, -1, 2.5, True, "3"])
    def test_nonpositive_bound_iters_rejected(self, iters):
        # rejected up front, even where every reference is exact; a
        # non-integer raised a bare TypeError in the ascent
        config = tc.RunConfig(instances=[triangle_instance()],
                              methods=("nn",), bound_iters=iters)
        with pytest.raises(tc.ConfigError, match="bound_iters"):
            tc.run_benchmark(config)

    def test_one_shot_grid(self):
        # the grid is read once: a generator was consumed by the up-front
        # check, and the run then found it empty
        instances = [tc.generate_random_euclidean(20, s, 1e6) for s in (1, 2)]
        grid = tc.default_grid((0, 1))
        records = [tc.run_benchmark(tc.RunConfig(
            instances=instances, methods=("proposed", "nn"), grid=g))
            for g in (grid, (c for c in grid))]
        for r in records:
            for record in r:
                record.wall_millis = 0.0
        assert records[0] == records[1]

    def test_bad_grid_rejected_before_the_reference(self, monkeypatch):
        # the grid is checked up front: a tuple grid point was rejected only
        # by grid_search, after the n = 200 ascent had run
        def never(*args, **kwargs):
            raise AssertionError("the reference was computed")

        monkeypatch.setattr("tourcraft.bench.held_karp_bound", never)
        config = tc.RunConfig(
            instances=[tc.generate_random_euclidean(200, 1, 1e6)],
            grid=[(0, 0, 1, 0, 0)])
        with pytest.raises(tc.ConfigError, match="grid points must be"):
            tc.run_benchmark(config)

    @pytest.mark.parametrize("instances,fragment", [
        ([1], "must be Instance objects, got 1"),
        ("x", "must be a list of Instance objects, got str"),
        (5, "must be a list of Instance objects, got int"),
    ], ids=["int-element", "str", "int"])
    def test_instances_that_are_not_instances_rejected(self, instances,
                                                       fragment):
        # each was an untyped AttributeError or TypeError from the matrix
        # build or the loop over the instances
        config = tc.RunConfig(instances=instances, methods=("nn",))
        with pytest.raises(tc.ConfigError, match=fragment):
            tc.run_benchmark(config)

    def test_bad_optima_rejected_before_the_matrix(self, monkeypatch):
        # an optima that is not an OptimaTable failed on its first lookup,
        # with an untyped AttributeError after the first matrix was built
        def never(*args, **kwargs):
            raise AssertionError("a distance matrix was built")

        monkeypatch.setattr("tourcraft.bench.build_distance_matrix", never)
        config = tc.RunConfig(instances=[triangle_instance()], optima="x")
        with pytest.raises(tc.ConfigError, match="optima must be an "
                                                 "OptimaTable, got 'x'"):
            tc.run_benchmark(config)


@pytest.mark.parametrize("spec,digest", [
    ("100,3,1",
     "9dd7e060a44b58c83c4fc7067e689c664c411d432273eac7f3be9a0306b2e05c"),
    ("12,10,1",
     "c1b7656e1e90cd5cd0681ddc38835fca0ce14516e138b85a02cbc9d2394caf20"),
    ("17,10,1",
     "9c3535f702bbd2cc9ec9ba85cfb819f2631deb22ff024da1684369436c693bb7"),
    ("tsplib",
     "2b7dc33e7164099e5c88bbb752f7399781218bb3ff493c449ff96c283bc31429"),
])
def test_reference_columns_pinned(tmp_path, spec, digest):
    # sha256 of the bench CSV of all four methods with wall_millis stripped:
    # n=100 takes its references from the Held-Karp ascent, n=12 from the
    # exact DP, so any change of a bound's printed digits or of an exact
    # length changes it; the bundled TSPLIB set pins every method's tour
    # length on real instances against their known optima
    source = (["--tsplib", str(DATA_DIR)] if spec == "tsplib"
              else ["--random", spec])
    out = tmp_path / "report.csv"
    assert main(["bench", *source, "--methods",
                 "proposed,nn,greedy,cw", "--out", str(out)]) == 0
    text = "\n".join(line.rsplit(",", 1)[0]
                     for line in out.read_text().splitlines())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestRenderReport:
    def _records(self):
        config = tc.RunConfig(instances=[triangle_instance()],
                              methods=("nn", "greedy"))
        return tc.run_benchmark(config)

    def test_csv_structure(self):
        records = self._records()
        text = tc.render_report(records, "csv")
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        # 2 records + 2 per-method mean rows
        assert len(lines) == 5
        assert lines[-1].startswith("mean,")

    def test_single_record_two_lines_plus_mean(self):
        config = tc.RunConfig(instances=[triangle_instance()], methods=("nn",))
        text = tc.render_report(tc.run_benchmark(config), "csv")
        assert len(text.strip().splitlines()) == 3

    def test_mean_row_is_arithmetic_mean(self):
        config = tc.RunConfig(
            instances=[tc.generate_random_euclidean(20, s, 1e6)
                       for s in (1, 2, 3)],
            methods=("nn",))
        records = tc.run_benchmark(config)
        text = tc.render_report(records, "csv")
        mean_line = [l for l in text.splitlines() if l.startswith("mean,")][0]
        reported = float(mean_line.split(",")[11])
        assert reported == pytest.approx(
            np.mean([r.pct_error for r in records]), abs=0.005)

    def test_markdown_round_trips_values(self):
        records = self._records()
        csv_rows = tc.render_report(records, "csv").strip().splitlines()[1:]
        md_rows = tc.render_report(records, "md").strip().splitlines()[2:]
        for csv_row, md_row in zip(csv_rows, md_rows):
            md_cells = [c.strip() for c in md_row.strip("|").split("|")]
            assert md_cells == csv_row.split(",")

    @pytest.mark.parametrize("name", ["a,b", 'say "hi"', "a|b", "a\rb"])
    def test_cells_are_escaped(self, name):
        square = tc.Instance(name, "EUC_2D",
                             coords=((0, 0), (3, 0), (3, 4), (0, 4)))
        records = tc.run_benchmark(tc.RunConfig(instances=[square],
                                                methods=("nn", "greedy")))
        rows = list(csv.reader(io.StringIO(tc.render_report(records, "csv"))))
        assert [len(row) for row in rows] == [13] * 5
        assert [row[0] for row in rows[1:3]] == [name, name]
        md_rows = tc.render_report(records, "md").splitlines()
        assert len(md_rows) == 6
        # cells are split at every | that is not escaped
        cells = [re.split(r"(?<!\\)\|", md_row)[1:-1] for md_row in md_rows]
        assert [len(row) for row in cells] == [13] * 6
        assert cells[2][0].strip() == \
            name.replace("|", "\\|").replace("\r", "<br>")

    @pytest.mark.parametrize("name", ["a\nb", "a\r\nb", "a\rb"],
                             ids=["lf", "crlf", "cr"])
    def test_line_breaks_in_markdown_cells(self, name):
        # a line break in a cell split its markdown row in two
        square = tc.Instance(name, "EUC_2D",
                             coords=((0, 0), (3, 0), (3, 4), (0, 4)))
        records = tc.run_benchmark(tc.RunConfig(instances=[square],
                                                methods=("nn", "greedy")))
        md = tc.render_report(records, "md")
        assert md.count("\n") == len(md.splitlines()) == 6
        assert [row.split("|")[1].strip() for row in md.splitlines()[2:4]] \
            == ["a<br>b"] * 2

    def test_unknown_format(self):
        with pytest.raises(tc.ConfigError):
            tc.render_report(self._records(), "xml")

    def test_empty_records(self):
        with pytest.raises(tc.ConfigError):
            tc.render_report([], "csv")
