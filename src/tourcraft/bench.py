"""Benchmark harness: run heuristics over instance sets, compare against
known optima or computed lower bounds, render CSV/markdown reports."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from .baselines import clarke_wright, greedy_edge, nearest_neighbor
from .bounds import ASCENT_ITERS, exact_optimum, held_karp_bound
from .construction import ExponentCombo, _grid_points, grid_search
from .errors import ConfigError, _integer, _real
from .instance import DistanceMatrix, Instance, build_distance_matrix
from .tsplib import OptimaTable, default_optima

METHODS = ("proposed", "nn", "greedy", "cw")

CSV_HEADER = ("instance,n,method,alpha,beta,gamma,delta,epsilon,"
              "length,reference,reference_kind,pct_error,wall_millis")


def percent_error(length: float, reference: float) -> float:
    """100 * (length - reference) / reference; a ConfigError unless
    `length` is a finite real number and `reference` a finite positive
    one."""
    length = _real(length, "length must be a finite real number, got {!r}")
    reference = _real(reference, "reference must be a finite positive "
                      "number, got {!r}", positive=True)
    return 100.0 * (length - reference) / reference


@dataclass
class BenchRecord:
    instance_name: str
    n: int
    method: str
    combo: Optional[ExponentCombo]
    tour_length: float
    reference: float
    reference_kind: str  # known-optimum | hk-bound | exact
    pct_error: float
    wall_millis: float


@dataclass
class RunConfig:
    """What to run: instances, methods, grid, reference policy."""

    instances: List[Instance] = field(default_factory=list)
    methods: Tuple[str, ...] = ("proposed",)
    grid: Optional[Iterable[ExponentCombo]] = None
    optima: Optional[OptimaTable] = None
    bound_iters: int = ASCENT_ITERS

    def validate(self) -> None:
        if not isinstance(self.instances, (list, tuple)):
            raise ConfigError(f"instances must be a list of Instance "
                              f"objects, got {type(self.instances).__name__}")
        if not self.instances:
            raise ConfigError("no instances configured")
        for instance in self.instances:
            if not isinstance(instance, Instance):
                raise ConfigError(
                    f"instances must be Instance objects, got {instance!r}")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; known: {METHODS}")
        if not self.methods:
            raise ConfigError("no methods configured")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError(f"duplicate method in {self.methods}")
        _integer(self.bound_iters, "bound_iters", 1)
        if not (self.optima is None or isinstance(self.optima, OptimaTable)):
            raise ConfigError(
                f"optima must be an OptimaTable, got {self.optima!r}")


def _solve(method: str, matrix: DistanceMatrix,
           grid) -> Tuple[float, Optional[ExponentCombo]]:
    if method == "proposed":
        result = grid_search(matrix, grid)
        return result.tour.length, result.combo
    baseline = {"nn": nearest_neighbor, "greedy": greedy_edge,
                "cw": clarke_wright}[method]  # this call's module attributes
    return baseline(matrix).length, None


def _reference(instance: Instance, matrix: DistanceMatrix,
               optima: OptimaTable, bound_iters: int) -> Tuple[float, str]:
    known = optima.lookup(instance.name)
    if known is not None:
        return float(known), "known-optimum"
    if instance.n <= 12:
        return exact_optimum(matrix).length, "exact"
    return held_karp_bound(matrix, max_iters=bound_iters).bound, "hk-bound"


def run_benchmark(config: RunConfig) -> List[BenchRecord]:
    """One record per (instance, method), sorted by (instance, method).
    The grid is read once, so it may be any iterable, a generator too."""
    config.validate()
    grid = _grid_points(config.grid)
    optima = config.optima if config.optima is not None else default_optima()
    records: List[BenchRecord] = []
    for instance in config.instances:
        matrix = build_distance_matrix(instance)
        ref_value, ref_kind = _reference(instance, matrix, optima,
                                         config.bound_iters)
        for method in config.methods:
            t0 = time.perf_counter()
            length, combo = _solve(method, matrix, grid)
            millis = (time.perf_counter() - t0) * 1000.0
            records.append(BenchRecord(
                instance_name=instance.name, n=instance.n, method=method,
                combo=combo, tour_length=length, reference=ref_value,
                reference_kind=ref_kind,
                pct_error=percent_error(length, ref_value),
                wall_millis=millis))
    records.sort(key=lambda r: (r.instance_name, r.method))
    return records


def _combo_cells(combo: Optional[ExponentCombo]) -> List[str]:
    if combo is None:
        return [""] * 5
    return [f"{v:g}" for v in combo.as_tuple()]


def _record_cells(r: BenchRecord) -> List[str]:
    return ([r.instance_name, str(r.n), r.method] + _combo_cells(r.combo) +
            [f"{r.tour_length:.2f}", f"{r.reference:.2f}", r.reference_kind,
             f"{r.pct_error:.2f}", f"{r.wall_millis:.3f}"])


def _mean_rows(records: Sequence[BenchRecord]) -> List[List[str]]:
    rows = []
    for method in sorted({r.method for r in records}):
        errs = [r.pct_error for r in records if r.method == method]
        rows.append(["mean", str(len(errs)), method] + [""] * 5 +
                    ["", "", "", f"{sum(errs) / len(errs):.2f}", ""])
    return rows


def _csv_cell(cell: str) -> str:
    """`cell` quoted, its quotes doubled, where it holds a comma, a quote or
    a line break (`\\r` too, which `csv.reader` also splits a row at), and
    as it is elsewhere."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def render_report(records: Sequence[BenchRecord], fmt: str = "csv") -> str:
    """CSV or aligned-markdown table with per-method mean-error footer rows.
    CSV cells are quoted only where they hold a comma, a quote or a line
    break (`_csv_cell`), and each row ends in `\\n`; in a markdown cell a
    `|` is escaped as `\\|` and a line break is written as `<br>`, so each
    row stays on one line."""
    if not records:
        raise ConfigError("no records to render")
    rows = [_record_cells(r) for r in records] + _mean_rows(records)
    header = CSV_HEADER.split(",")
    if fmt == "csv":
        return "".join(",".join(map(_csv_cell, row)) + "\n"
                       for row in [header] + rows)
    if fmt == "md":
        rows = [[c.replace("|", "\\|").replace("\r\n", "<br>")
                 .replace("\r", "<br>").replace("\n", "<br>") for c in row]
                for row in rows]
        widths = [max(len(h), *(len(row[i]) for row in rows))
                  for i, h in enumerate(header)]
        def line(cells):
            return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
        sep = "| " + " | ".join("-" * w for w in widths) + " |"
        return "\n".join([line(header), sep] + [line(r) for r in rows]) + "\n"
    raise ConfigError(f"unknown report format {fmt!r}")
