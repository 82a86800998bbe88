"""Run one tourcraft benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Every workload runs in fresh child processes, one at a time, each pinned
to one BLAS/OpenMP thread.

--trace 0 gives the end-to-end metrics: SETUP_PROBES processes that stop
once their inputs are ready time the set-up, then one process runs timed
passes for the rest of the S seconds. Pass times are given at a
reference machine speed (speed.py); set-up times are wall-clock times.
--trace 1 gives the per-layer metrics: an untraced and a traced process
share the S seconds; the traced one records spans around every public
tourcraft call, and the two must produce identical outputs.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. A run
leaves its details and spans under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.speed import reference_passes  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 9  # set-up-only processes per end-to-end run
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# metric name -> unit, for each kind of run, as BENCHMARK.json declares them
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class ChildFailed(RuntimeError):
    pass


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] +
        ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(mode: str, workload: str, seed: int, budget: float,
          workdir: Path, deadline: float) -> dict:
    """Run one child to completion. Its summary gains `setup_s`, the time
    from just before process start to its inputs being ready, and the
    pass times at the reference speed."""
    cmd = [sys.executable, "-m", "perfbench.child", "--workload", workload,
           "--seed", str(seed), "--budget", f"{budget:.3f}", "--mode", mode,
           "--workdir", str(workdir)]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise ChildFailed("no time left for another process")
    started = time.time()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} process overran the run limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} process exited {proc.returncode}:\n"
                          f"{proc.stderr[-3000:]}")
    summary = json.loads(lines[-1])
    summary["setup_s"] = summary["ready"] - started
    if "pass_s" in summary:
        if summary["digest"] is None:
            raise ChildFailed(f"every {mode} pass failed:\n"
                              f"{summary['failures'][0]}")
        summary["ref_pass_s"] = reference_passes(summary["pass_s"],
                                                 summary["cal_s"])
    return summary


def git_state() -> Tuple[str, object]:
    if not (ROOT / ".git").exists():
        return "unknown", None
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], text=True,
                              capture_output=True, timeout=30).stdout.strip()
    return git("rev-parse", "HEAD"), bool(git("status", "--porcelain"))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_note(seed: int, child: dict) -> dict:
    sha, dirty = git_state()
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": child["numpy"],
            "git_sha": sha, "git_dirty": dirty,
            "seed": seed, "instance_seeds": child["instance_seeds"]}


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path,
               deadline: float) -> Tuple[dict, List[dict]]:
    start = time.perf_counter()
    probes = [spawn("probe", workload, seed, 0.0, workdir / f"probe{i}",
                    deadline) for i in range(SETUP_PROBES)]
    setup = statistics.median(p["setup_s"] for p in probes)
    budget = seconds - (time.perf_counter() - start) - setup
    work = spawn("plain", workload, seed, budget, workdir / "plain", deadline)
    metrics = {
        "wall_s": statistics.median(work["ref_pass_s"]),
        "setup_s": statistics.median([p["setup_s"] for p in probes] +
                                     [work["setup_s"]]),
        "peak_rss_mb": work["peak_rss_mb"],
        "mean_length_ratio": 1.0 + work["mean_pct_error"] / 100.0,
        "best_length": work["best_length"],
    }
    return metrics, [work]


def per_layer(workload: str, seed: int, seconds: float, workdir: Path,
              deadline: float) -> Tuple[dict, List[dict]]:
    plain = spawn("plain", workload, seed, seconds / 2 - 0.5,
                  workdir / "plain", deadline)
    traced = spawn("traced", workload, seed, seconds / 2 - 0.5,
                   workdir / "traced", deadline)
    if traced["digest"] != plain["digest"]:
        traced["failed"] = traced["attempted"]
        traced["failures"].append("traced outputs differ from untraced ones")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced["ref_pass_s"]) /
        statistics.median(plain["ref_pass_s"]) - 1.0)
    return metrics, [plain, traced]


def run_workload(workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    """Run, print the human-readable report, and return the result line."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    workdir = ROOT / ".perfbench" / f"{workload}-s{seed}"
    measure = per_layer if trace else end_to_end
    metrics, workers = measure(workload, seed, seconds, workdir, deadline)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    note = machine_note(seed, workers[0])
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}

    print(f"== {workload} seed {seed} trace {trace}: "
          f"{', '.join(str(len(w['pass_s'])) for w in workers)} passes")
    print("machine " + json.dumps(note))
    for name, unit in units.items():
        print(f"  {name:36s} {metrics[name]:>16.6g} {unit}")
    print(f"  {'failure_ratio':36s} {failed / attempted:>16.6g} "
          f"({failed} of {attempted} operations)")
    if not trace:
        print(f"  {'mean_pct_error':36s} "
              f"{workers[0]['mean_pct_error']:>16.6g} %")
    print(f"  output sha256: {workers[0]['digest']}")
    for w in workers:
        for failure in w["failures"]:
            print(f"  FAILED {failure}")
    (workdir / f"result-trace{trace}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "seconds": seconds,
         "trace": trace, "machine": note, "result": result,
         "processes": workers}, indent=1))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tourcraft" / "__init__.py").is_file():
        print(f"error: no tourcraft sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace)
        else:
            results = {f"{w}.trace{t}": run_workload(w, args.seed,
                                                     args.seconds, t)
                       for w in WORKLOADS for t in (0, 1)}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{k}.{name}": m for k, r in results.items()
                            for name, m in r["metrics"].items()}}
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
