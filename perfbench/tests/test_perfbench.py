"""Tests of the benchmark itself: its definition, inputs, counts and checks.

Run with `python3 -m pytest perfbench/tests -q` from the repository root.
"""

import itertools
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import ROOT
from perfbench import checks, run
from perfbench.tracing import Tracer
from perfbench.workloads import WORKLOADS, make_workload

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RANDOM = ("random100_hk", "random12_exact", "random1000_solve")


def run_benchmark_command(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, text=True,
        capture_output=True, timeout=175)


def test_definition_matches_the_computed_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    computed = set(Tracer().layer_metrics(1)) | {"trace.overhead_pct"}
    assert computed == {m["name"] for m in SPEC["per_layer"]}


def random_inputs(name, seed, tmp_path):
    workload = make_workload(name, ROOT, tmp_path, seed)
    if name == "random1000_solve":
        workload.setup()
        return workload.coords
    workload.load_instances()
    return np.array([inst.coords for inst in workload.instances])


@pytest.mark.parametrize("name", RANDOM)
def test_a_second_seed_gives_new_instances(name, tmp_path):
    first = random_inputs(name, 1, tmp_path)
    assert np.array_equal(first, random_inputs(name, 1, tmp_path))
    second = random_inputs(name, 2, tmp_path)
    assert first.shape == second.shape
    assert not np.array_equal(first, second)


def test_a_second_seed_gives_the_same_metric_names():
    for trace, units in ((0, run.END_TO_END_UNITS), (1, run.PER_LAYER_UNITS)):
        for seed in (1, 2):
            proc = run_benchmark_command(
                "--workload", "random12_exact", "--seed", str(seed),
                "--seconds", "1", "--trace", str(trace))
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}
            assert result["correct"] and result["failed"] == 0
            assert {k: m["unit"] for k, m in result["metrics"].items()} == \
                units


def traced_pass(name, tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        workload = make_workload(name, ROOT, tmp_path, 7)
        workload.setup()
        tracer.phase = 0
        result = workload.check(workload.run())
    finally:
        tracer.uninstall()
    assert result.failures == []
    return tracer.layer_metrics(1), workload


@pytest.mark.parametrize("name", ["random12_exact", "random100_hk"])
def test_counts_repeat_exactly_between_traced_runs(name, tmp_path,
                                                   bench_module):
    first, workload = traced_pass(name, tmp_path)
    second, _ = traced_pass(name, tmp_path)
    k, n = len(workload.instances), workload.n
    assert first["construction.constructions"] == 243 * k
    assert first["construction.neighbor_evals"] == 243 * n * (n - 1) * k
    if name == "random100_hk":
        assert first["bounds.hk_iters"] > 0
    else:
        assert first["bounds.exact_calls"] == k
    for key in ("construction.constructions", "construction.neighbor_evals",
                "construction.distinct_tour_ratio", "bounds.hk_iters",
                "bounds.exact_calls", "instance.validate_calls"):
        assert first[key] == second[key], key


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark_command("--workload", "tsplib_all_methods",
                                 "--seed", "1", "--seconds", "1",
                                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tour_checks_reject_a_broken_tour():
    coords = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0], [0.0, 4.0]])
    assert checks.tour_length([0, 1, 2, 3], "EUC_2D", coords) == ([], 14.0)
    problems, _ = checks.tour_length([0, 1, 1, 3], "EUC_2D", coords)
    assert problems
    problems, _ = checks.tour_length([0, 1, 2], "EUC_2D", coords)
    assert problems


def test_one_tree_bound_is_below_the_optimum():
    rng = np.random.default_rng(3)
    coords = rng.random((7, 2)) * 1000
    optimum = min(
        checks.tour_length((0,) + rest, "EUC_2D", coords)[1]
        for rest in itertools.permutations(range(1, 7)))
    assert 0 < checks.one_tree_bound("EUC_2D", coords) <= optimum


def test_csv_digest_ignores_only_wall_millis():
    header = "instance,n,length,wall_millis"
    base = checks.csv_digest(f"{header}\na,3,12.00,0.100\nmean,1,,\n")
    assert base == checks.csv_digest(f"{header}\na,3,12.00,9.900\nmean,1,,\n")
    assert base != checks.csv_digest(f"{header}\na,3,13.00,0.100\nmean,1,,\n")
