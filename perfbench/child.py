"""One benchmark process: set up a workload, run timed passes, check each.

    python -m perfbench.child --workload NAME --seed N --budget SECONDS
        --mode probe|plain|traced --workdir DIR

`probe` stops once the inputs are ready, to time set-up. `plain` and
`traced` run passes until the next one would overrun the budget (at least
one). The calibration kernel of speed.py runs before the first pass and
after each pass. The last line of standard output is a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--mode", choices=("probe", "plain", "traced"),
                        required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    import numpy
    from .speed import calibration_s
    from .tracing import Tracer
    from .workloads import make_workload

    tracer = Tracer() if args.mode == "traced" else None
    if tracer is not None:
        tracer.install()
    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = make_workload(args.workload, ROOT, args.workdir, args.seed)
    workload.setup()
    summary = {"ready": time.time(), "instance_seeds": workload.seeds,
               "numpy": numpy.__version__}
    if args.mode == "probe":
        print(json.dumps(summary))
        return 0

    cal_s = [calibration_s()]
    pass_s = []
    attempted = failed = 0
    failures = []
    digest = None
    quality = None
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.phase = len(pass_s)
        t0 = time.perf_counter()
        try:
            output = workload.run()
        except Exception:  # a failing pass is reported, not fatal
            output = None
            error = traceback.format_exc()
        pass_s.append(time.perf_counter() - t0)
        cal_s.append(calibration_s())
        if output is None:
            attempted += workload.operations
            failed += workload.operations
            failures.append(error)
        else:
            result = workload.check(output)
            if digest is None:
                digest = result.digest
                quality = (result.mean_pct_error, result.best_length)
            differs = result.digest != digest
            if differs:
                result.failures.append("output differs from the first pass")
            attempted += result.attempted
            failed += result.attempted if differs else result.failed
            failures += result.failures
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(pass_s) + cal_s[-1] > args.budget:
            break

    summary.update({
        "pass_s": pass_s, "cal_s": cal_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "attempted": attempted, "failed": failed, "failures": failures[:20],
        "digest": digest,
        "mean_pct_error": quality[0] if quality else None,
        "best_length": quality[1] if quality else None,
    })
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.workdir / "spans.jsonl")
        summary["layers"] = tracer.layer_metrics(len(pass_s))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
