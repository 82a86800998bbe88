"""Run workloads over several seeds; report each metric's median and spread.

    python3 perfbench/sweep.py --seeds 1-10 [--trace 0|1] [--out FILE]

Each (workload, seed) is one invocation of BENCHMARK.json's command, for
every workload it lists and with its `run_seconds`. The spread of a metric is (Q3 - Q1) / median over the seeds,
with the quartiles of `statistics.quantiles(values, n=4)`. A metric is
steady when its spread is below a third of its bound; setup_s is exempt
from the spread rule. `--out` writes the medians, quartiles and values as
JSON, which is how a baseline is recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(spec: str):
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    seconds = spec["run_seconds"]
    summary = {"seconds": seconds, "trace": args.trace}
    all_steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {}
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed",
                                   str(seed), "--seconds", str(seconds),
                                   "--trace", str(args.trace)],
                cwd=ROOT, text=True, capture_output=True, timeout=200)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            summary.setdefault("machine", json.loads(next(
                line for line in lines if line.startswith("machine ")
            ).split(" ", 1)[1]))
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
                all_steady = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], 0, vals[0]))
            spread = (q3 - q1) / abs(median) if median else 0.0
            bound = bounds.get(name)
            steady = (args.trace or name == "setup_s"
                      or spread < bound / 3)
            all_steady &= bool(steady)
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                       "spread": spread, "values": vals}
            print(f"  {name:36s} median {median:<14.6g} spread "
                  f"{spread:8.4f}" + (f"  bound {bound}" if bound else "") +
                  ("" if steady else "  NOT STEADY"))
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
