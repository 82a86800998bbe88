"""The benchmark's workloads: inputs made from a seed, one timed pass of
calls into tourcraft, and the checks of that pass's outputs.

A workload's `setup` builds the inputs (this is what `setup_s` measures,
together with the interpreter start and the import), `run` is the timed
pass, and `check` inspects what the pass returned, outside the timing.
Calls into tourcraft go through module attributes at call time, so a
tracer installed before `setup` sees them.
"""

from __future__ import annotations

import hashlib
import io
import re
import statistics
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import checks

METHODS = ("proposed", "nn", "greedy", "cw")
BOX = 1_000_000.0  # side of the square random instances are drawn from


@dataclass
class PassResult:
    """What the checks found in one pass."""

    attempted: int
    failures: List[str] = field(default_factory=list)
    digest: str = ""
    mean_pct_error: float = 0.0
    best_length: float = 0.0

    @property
    def failed(self) -> int:
        # one failure can name a whole pass, so cap at what was attempted
        return min(len(self.failures), self.attempted)


def instance_seeds(seed: int, count: int) -> List[int]:
    """Distinct per-instance seeds derived from the workload seed."""
    state = np.random.SeedSequence(seed).generate_state(count)
    seeds = [int(s) for s in state]
    if len(set(seeds)) != count:
        raise ValueError(f"seed {seed} derives duplicate instance seeds")
    return seeds


class TourCapture:
    """Keeps, in call order, the tour each solver hands back to
    run_benchmark, whose records carry lengths but not the tours."""

    SOLVERS = {"grid_search": "proposed", "nearest_neighbor": "nn",
               "greedy_edge": "greedy", "clarke_wright": "cw"}

    def __init__(self, bench_module) -> None:
        self.calls: List[Tuple[str, Tuple[int, ...], float]] = []
        for attr, method in self.SOLVERS.items():
            setattr(bench_module, attr,
                    self._wrap(method, getattr(bench_module, attr)))

    def _wrap(self, method, fn):
        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            tour = getattr(result, "tour", result)
            self.calls.append((method, tour.order, tour.length))
            return result
        return captured

    def take(self) -> List[Tuple[str, Tuple[int, ...], float]]:
        calls, self.calls = self.calls, []
        return calls


class BenchWorkload:
    """run_benchmark with all four methods plus render_report as CSV."""

    def __init__(self, root: Path, workdir: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.instances: list = []
        # instance name -> (EDGE_WEIGHT_TYPE, coordinates) for the checks
        self.inputs: Dict[str, Tuple[str, np.ndarray]] = {}
        self.seeds: List[int] = []
        self.capture: Optional[TourCapture] = None

    def setup(self) -> None:
        import tourcraft.bench
        self.load_instances()
        self.capture = TourCapture(tourcraft.bench)

    def load_instances(self) -> None:
        raise NotImplementedError

    @property
    def operations(self) -> int:
        return len(self.instances) * len(METHODS)

    def run(self):
        import tourcraft.bench as bench
        records = bench.run_benchmark(bench.RunConfig(
            instances=list(self.instances), methods=METHODS))
        return records, bench.render_report(records, "csv")

    def check(self, output) -> PassResult:
        records, csv = output
        result = PassResult(attempted=self.operations,
                            digest=checks.csv_digest(csv))
        expected = [(inst.name, m) for inst in self.instances for m in METHODS]
        calls = self.capture.take()
        if len(calls) != len(expected) or len(records) != len(expected):
            result.failures.append(
                f"expected {len(expected)} tours, got {len(calls)} tours "
                f"and {len(records)} records")
        tours = dict(zip(expected, calls))
        for r in records:
            problems = self._record_problems(r, tours.get((r.instance_name,
                                                           r.method)))
            if problems:
                result.failures.append(
                    f"{r.instance_name}/{r.method}: {'; '.join(problems)}")
        means = [float(line.split(",")[11]) for line in csv.splitlines()
                 if line.startswith("mean,")]
        result.mean_pct_error = statistics.fmean(means) if means else 0.0
        result.best_length = sum(r.tour_length for r in records
                                 if r.method == "proposed")
        return result

    def _record_problems(self, r, call) -> List[str]:
        if call is None:
            return ["no tour was captured"]
        method, order, length = call
        if method != r.method:
            return [f"captured a {method} tour"]
        kind, coords = self.inputs[r.instance_name]
        problems, recomputed = checks.tour_length(order, kind, coords)
        if problems:
            return problems
        if not (checks.same_length(recomputed, r.tour_length)
                and checks.same_length(recomputed, length)):
            problems.append(f"recomputed length {recomputed} != reported "
                            f"{r.tour_length}")
        if r.reference_kind in ("hk-bound", "exact") and \
                r.reference > recomputed + 1e-9:
            problems.append(f"{r.reference_kind} {r.reference} exceeds the "
                            f"tour length {recomputed}")
        if r.method == "proposed" and (
                r.combo is None or r.combo.as_tuple() not in checks.GRID):
            problems.append(f"winning combo {r.combo} is not a grid point")
        return problems


class TsplibAllMethods(BenchWorkload):
    """The bundled TSPLIB files, each with its known optimum as reference.
    The set is fixed, so every seed gives the same inputs."""

    def load_instances(self) -> None:
        import tourcraft.tsplib as tsplib
        for path in sorted((self.root / "data" / "tsplib").glob("*.tsp")):
            text = path.read_text()
            instance = tsplib.parse_tsplib(text)
            self.instances.append(instance)
            self.inputs[instance.name] = checks.read_tsplib_coords(text)
        if len(self.instances) != 5:
            raise FileNotFoundError(
                f"expected the 5 bundled TSPLIB files, found "
                f"{len(self.instances)}")


class RandomBench(BenchWorkload):
    """Random EUC_2D instances generated by tourcraft from derived seeds."""

    n = 0
    count = 0

    def load_instances(self) -> None:
        import tourcraft.instance as instance
        self.seeds = instance_seeds(self.seed, self.count)
        for s in self.seeds:
            inst = instance.generate_random_euclidean(self.n, s, BOX)
            self.instances.append(inst)
            self.inputs[inst.name] = ("EUC_2D", np.array(inst.coords))


class Random100HK(RandomBench):
    """n=100 without a known optimum: the Held-Karp ascent is the reference."""

    n = 100
    count = 3


class Random12Exact(RandomBench):
    """n=12: the exact subset DP is the reference."""

    n = 12
    count = 30


_SOLVE_LINE = re.compile(
    r"^(?P<name>\S+): length (?P<length>\S+) with exponents "
    r"alpha=(?P<a>\S+) beta=(?P<b>\S+) gamma=(?P<g>\S+) "
    r"delta=(?P<d>\S+) epsilon=(?P<e>\S+)$")


class Random1000Solve:
    """`tourcraft solve` with tour and SVG output on one n=1000 file."""

    n = 1000
    operations = 1

    def __init__(self, root: Path, workdir: Path, seed: int) -> None:
        self.seed = seed
        self.seeds: List[int] = []
        self.tsp = workdir / "rand1000.tsp"
        self.tour = workdir / "rand1000.tour"
        self.svg = workdir / "rand1000.svg"
        self.kind = "EUC_2D"
        self.coords: Optional[np.ndarray] = None
        self._bound: Optional[float] = None

    def setup(self) -> None:
        import tourcraft.cli  # noqa: F401  (the pass calls it)
        import tourcraft.instance as instance
        self.seeds = instance_seeds(self.seed, 1)
        inst = instance.generate_random_euclidean(self.n, self.seeds[0], BOX)
        lines = [f"NAME: {inst.name}", "TYPE: TSP", f"DIMENSION: {inst.n}",
                 "EDGE_WEIGHT_TYPE: EUC_2D", "NODE_COORD_SECTION"]
        lines += [f"{i + 1} {x:.6f} {y:.6f}"
                  for i, (x, y) in enumerate(inst.coords)]
        text = "\n".join(lines + ["EOF"]) + "\n"
        self.tsp.write_text(text)
        self.kind, self.coords = checks.read_tsplib_coords(text)

    def run(self):
        import tourcraft.cli as cli
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["solve", str(self.tsp), "--out", str(self.tour),
                             "--plot", str(self.svg)])
        return code, out.getvalue()

    def check(self, output) -> PassResult:
        code, printed = output
        match = _SOLVE_LINE.match(printed.strip())
        if code != 0 or match is None:
            return PassResult(attempted=1, failures=[
                f"solve exited {code} and printed {printed!r}"])
        tour_text = self.tour.read_text()
        svg_text = self.svg.read_text()
        result = PassResult(attempted=1, digest=hashlib.sha256(
            (printed + tour_text + svg_text).encode()).hexdigest())
        fail = result.failures.append
        combo = tuple(float(match[k]) for k in "abgde")
        if combo not in checks.GRID:
            fail(f"winning combo {combo} is not a grid point")
        try:
            order = checks.read_tour_file(tour_text)
        except ValueError as exc:
            fail(f"unreadable tour file: {exc}")
            return result
        problems, length = checks.tour_length(order, self.kind, self.coords)
        if problems:
            fail("; ".join(problems))
            return result
        if f"{length:g}" != match["length"]:
            fail(f"recomputed length {length:g} != printed {match['length']}")
        if self._bound is None:
            self._bound = checks.one_tree_bound(self.kind, self.coords)
        if self._bound > length + 1e-9:
            fail(f"1-tree bound {self._bound} exceeds the length {length}")
        if svg_text.count("<circle ") != self.n:
            fail("the SVG does not draw every city")
        result.mean_pct_error = 100.0 * (length - self._bound) / self._bound
        result.best_length = length
        return result


WORKLOADS = {
    "tsplib_all_methods": TsplibAllMethods,
    "random100_hk": Random100HK,
    "random12_exact": Random12Exact,
    "random1000_solve": Random1000Solve,
}


def make_workload(name: str, root: Path, workdir: Path, seed: int):
    return WORKLOADS[name](root, workdir, seed)
