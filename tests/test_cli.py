import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import tourcraft as tc
from tourcraft.cli import main


def write_small_instance(path: Path) -> None:
    coords = tc.generate_random_euclidean(15, 3, 1000.0).coords
    inst = tc.Instance("small15", "EUC_2D", coords=coords)
    path.write_text(tc.write_tsplib(inst))


def test_gen_then_solve(tmp_path, capsys):
    tsp = tmp_path / "g.tsp"
    assert main(["gen", "--n", "12", "--seed", "7", "--box", "100",
                 "--out", str(tsp)]) == 0
    tour_file = tmp_path / "g.tour"
    svg_file = tmp_path / "g.svg"
    assert main(["solve", str(tsp), "--grid", "0,1",
                 "--out", str(tour_file), "--plot", str(svg_file)]) == 0
    out = capsys.readouterr().out
    assert "length" in out and "alpha=" in out
    order = tc.parse_tour(tour_file.read_text())
    assert tc.validate_tour(order, 12)
    assert svg_file.read_text().startswith("<?xml")


def test_gen_output_pinned(tmp_path):
    # sha256 of the .tsp file `gen --n 50 --seed 3` writes
    tsp = tmp_path / "g.tsp"
    assert main(["gen", "--n", "50", "--seed", "3", "--out", str(tsp)]) == 0
    assert hashlib.sha256(tsp.read_bytes()).hexdigest() == \
        "34c126d8a8029a704de5f306be06345e130eefe4b5eeb9fd9337c0ee5ee5e33e"


def test_solve_n1000_outputs_pinned(tmp_path, capsys):
    # sha256 of stdout, the .tour and the .svg of `solve --out --plot` on
    # `gen --n 1000 --seed 5`; at this size most steps take a candidate and
    # some scan the whole row, which the bundled instances do not show
    tsp, tour, svg = (tmp_path / f"r.{ext}" for ext in ("tsp", "tour", "svg"))
    assert main(["gen", "--n", "1000", "--seed", "5", "--out", str(tsp)]) == 0
    capsys.readouterr()
    assert main(["solve", str(tsp), "--out", str(tour),
                 "--plot", str(svg)]) == 0
    text = capsys.readouterr().out + tour.read_text() + svg.read_text()
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "da87aa6bc13fca3f5c1b08fffba413708ef1be269abdfe0438289f572649ed4a"


def test_bound_subcommand(tmp_path, capsys):
    tsp = tmp_path / "b.tsp"
    write_small_instance(tsp)
    assert main(["bound", str(tsp), "--iters", "50"]) == 0
    assert "held-karp" in capsys.readouterr().out


def test_bench_reference_is_the_bound_command_value(tmp_path, capsys):
    # the hk-bound reference hinted its ascent with the first method's
    # length, so bench printed 5065488.46 where bound printed 5065488.38
    tsp, optima = tmp_path / "g.tsp", tmp_path / "none.txt"
    assert main(["gen", "--n", "40", "--seed", "3", "--out", str(tsp)]) == 0
    optima.write_text("# no known optima\n")
    capsys.readouterr()
    assert main(["bound", str(tsp), "--iters", "300"]) == 0
    bound = capsys.readouterr().out.split(" bound ")[1].split()[0]
    assert main(["bench", "--tsplib", str(tmp_path), "--optima", str(optima),
                 "--methods", "proposed,nn", "--iters", "300"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:3]
    assert [row.split(",")[9:11] for row in rows] == \
        [[bound, "hk-bound"]] * 2


def test_bench_random_csv(tmp_path):
    out = tmp_path / "report.csv"
    assert main(["bench", "--random", "12,2,1", "--methods", "nn,greedy",
                 "--grid", "0,1", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("instance,n,method")
    assert len(lines) == 1 + 4 + 2  # header, 2x2 records, 2 mean rows


@pytest.mark.parametrize("argv,shown", [
    (["solve", "{f}", "--grid=-1:0:1:0:0"],
     "alpha=-1 beta=0 gamma=1 delta=0 epsilon=0"),
    (["bench", "--random", "12,1,1", "--grid=-1,0,1"], "rand-n12-s1,12,"),
], ids=["solve-combo", "bench-set"])
def test_negative_grid_value_after_equals(tmp_path, capsys, argv, shown):
    # with a space, argparse reads "-1..." as an option: exit 2
    f = tmp_path / "in.tsp"
    write_small_instance(f)
    argv = [a.format(f=f) for a in argv]
    assert main(argv) == 0
    assert shown in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main([*argv[:-1], "--grid", argv[-1].split("=")[1]])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv,fragment", [
    (["bench", "--random", "5,1"], "--random expects n,count,first-seed"),
    (["bench", "--tsplib", "{d}"], "no .tsp files under"),
    # the seed list was a MemoryError or an OverflowError traceback; both
    # fail before a seed is stored
    (["bench", "--random", f"3,{10**18},1"], "--random count too large"),
    (["bench", "--random", f"3,{10**19},1"], "--random count too large"),
], ids=["random-two-fields", "tsplib-empty-dir", "random-count-1e18",
        "random-count-1e19"])
def test_bench_source_errors(tmp_path, capsys, argv, fragment):
    assert main([a.format(d=tmp_path) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err


@pytest.mark.parametrize("target", ["in.tsp", "nowhere"],
                         ids=["tsp-file", "missing-path"])
def test_bench_tsplib_not_a_directory(tmp_path, capsys, target):
    # a file or a missing path is named as such, not as a directory that
    # holds no .tsp files
    write_small_instance(tmp_path / "in.tsp")
    path = tmp_path / target
    assert main(["bench", "--tsplib", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path} is not a directory\n"


def test_bench_tsplib_dir(tmp_path, capsys):
    write_small_instance(tmp_path / "small15.tsp")
    assert main(["bench", "--tsplib", str(tmp_path), "--methods", "nn",
                 "--format", "md"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("| instance")
    assert "small15" in out


def test_bench_unreadable_file_is_an_error_line(tmp_path, capsys):
    (tmp_path / "ghost.tsp").symlink_to(tmp_path / "nowhere.tsp")
    assert main(["bench", "--tsplib", str(tmp_path), "--methods", "nn"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "ghost.tsp" in err


@pytest.mark.parametrize("argv", [
    ["solve", "{d}/bin.tsp"],
    ["bound", "{d}/bin.tsp"],
    ["bench", "--tsplib", "{d}", "--methods", "nn"],
    ["bench", "--random", "5,1,1", "--methods", "nn", "--optima",
     "{d}/bin.tsp"],
], ids=["solve", "bound", "bench-tsplib", "bench-optima"])
def test_non_text_file_is_an_error_line(tmp_path, capsys, argv):
    (tmp_path / "bin.tsp").write_bytes(b"NAME: \xff\xfe\x00\x81\nEOF\n")
    assert main([a.format(d=tmp_path) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bin.tsp" in err
    assert "Traceback" not in err


def test_error_exit_code(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "missing.tsp")]) == 1
    assert "error:" in capsys.readouterr().err


EXPLICIT_HEAD = ("NAME: ex\nTYPE: TSP\nEDGE_WEIGHT_TYPE: EXPLICIT\n"
                 "EDGE_WEIGHT_FORMAT: UPPER_ROW\n")


@pytest.mark.parametrize("argv,tsp", [
    (["solve", "{f}", "--grid", "0,x"], None),
    (["solve", "{f}", "--grid", "1:x:1:0:0"], None),
    (["solve", "{f}", "--grid", "nan:0:1:0:0"], None),
    (["solve", "{f}", "--grid", "0,inf"], None),
    (["solve", "{f}", "--grid", "1:0:1:0"], None),
    (["solve", "{f}", "--grid", "0:0:1000:0:0"], None),
    (["solve", "{f}", "--grid", "1000:0:0:0:0"], None),
    (["solve", "{f}", "--grid", "0:0:0:1000:1000"], None),
    (["solve", "{f}", "--grid", "0:0:-1000:0:0"], None),
    (["solve", "{f}", "--grid", "0:0:1:-1000:0"], None),
    (["bench", "--random", "10,a,1"], None),
    (["bench", "--random", "10,0,1", "--tsplib", "{d}"], None),
    (["bench", "--random", "10,1,-1"], None),
    (["bench", "--random", "20,1,1", "--iters", "0"], None),
    (["bench", "--tsplib", "{d}", "--iters", "0"], None),
    (["gen", "--n", "5", "--seed", "-1", "--out", "{d}/g.tsp"], None),
    (["gen", "--n", "5", "--seed", "1", "--box", "nan", "--out", "{d}/g.tsp"],
     None),
    (["gen", "--n", "5", "--seed", "1", "--box", "inf", "--out", "{d}/g.tsp"],
     None),
    (["gen", "--n", "100000000000000000", "--seed", "1", "--out",
      "{d}/g.tsp"], None),
    (["bench", "--random", "1000000000000000000,1,1"], None),
    (["solve", "{f}"], "DIMENSION: 3\nEDGE_WEIGHT_TYPE: EUC_2D\n"
                       "NODE_COORD_SECTION\n1 0 0\n2 nan 1\n3 2 2\nEOF\n"),
    (["solve", "{f}"], "DIMENSION: 3\nEDGE_WEIGHT_TYPE: EUC_2D\n"
                       "NODE_COORD_SECTION\n1 0 0\n2 1e300 1\n3 2 2\nEOF\n"),
    (["solve", "{f}"], EXPLICIT_HEAD + "DIMENSION: 3\n"
                       "EDGE_WEIGHT_SECTION\n1 -1 1\nEOF\n"),
    (["solve", "{f}"], EXPLICIT_HEAD + "DIMENSION: 3\n"
                       "EDGE_WEIGHT_SECTION\n1 inf 1\nEOF\n"),
    (["solve", "{f}"], EXPLICIT_HEAD + "DIMENSION: -3\n"
                       "EDGE_WEIGHT_SECTION\nEOF\n"),
    (["solve", "{f}"], f"DIMENSION: {10**18}\nEDGE_WEIGHT_TYPE: EUC_2D\n"
                       "NODE_COORD_SECTION\n1 0 0\n2 5 0\n3 0 5\nEOF\n"),
], ids=["grid-set", "grid-combo", "grid-nan", "grid-inf", "grid-combo-length",
         "grid-gamma-overflow", "grid-alpha-overflow",
         "grid-delta-epsilon-overflow", "grid-gamma-underflow",
         "grid-delta-underflow",
         "random-count", "random-zero-count", "random-negative-seed",
         "random-zero-iters", "tsplib-zero-iters", "gen-negative-seed",
         "gen-nan-box", "gen-inf-box", "gen-huge-n", "random-huge-n",
        "nan-coordinate", "overflowing-coordinate", "negative-weight",
        "inf-weight", "negative-dimension", "dimension-beyond-file"])
def test_bad_input_is_an_error_line(tmp_path, capsys, argv, tsp):
    f = tmp_path / "in.tsp"
    if tsp is None:
        write_small_instance(f)
    else:
        f.write_text(tsp)
    assert main([a.format(f=f, d=tmp_path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("command,weight", [
    ("solve", "1e308"), ("bound", "1e308"), ("bench", "1e308")])
def test_overflowing_weights_are_an_error_line(tmp_path, command, weight):
    # solve warned and carried NaN sigmas or blamed the exponents, bound
    # blamed an upper-bound hint nobody gave, and bench --methods nn never
    # ended in the exact DP's read-back
    f = tmp_path / "huge.tsp"
    f.write_text(EXPLICIT_HEAD + "DIMENSION: 5\nEDGE_WEIGHT_SECTION\n" +
                 " ".join([weight] * 10) + "\nEOF\n")
    argv = {"solve": ["solve", str(f)], "bound": ["bound", str(f)],
            "bench": ["bench", "--tsplib", str(tmp_path),
                      "--methods", "nn"]}[command]
    src = Path(tc.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "tourcraft.cli", *argv], capture_output=True,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: distances too large")
    assert proc.stderr.count("\n") == 1 and "Warning" not in proc.stderr


def test_large_weights_whose_stats_fit_are_solved(tmp_path, capsys):
    # mu = 1e200 and sigma = 0 fit a float, though 1e200 squared does not
    f = tmp_path / "large.tsp"
    f.write_text(EXPLICIT_HEAD + "DIMENSION: 5\nEDGE_WEIGHT_SECTION\n" +
                 " ".join(["1e200"] * 10) + "\nEOF\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", str(f)]) == 0
    assert "length 5e+200 " in capsys.readouterr().out
