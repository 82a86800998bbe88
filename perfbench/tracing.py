"""Spans and counts around tourcraft's public functions, recorded from outside.

`Tracer.install` replaces each traced function, in every tourcraft module
that holds it, by a wrapper. Callers resolve these module attributes at
call time, so the calls between layers are recorded without touching the
program. Spans stay in memory until `write` is called after the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

# layer (module of tourcraft) -> the public functions whose calls are spans
TRACED: Dict[str, tuple] = {
    "tsplib": ("parse_tsplib", "write_tour"),
    "instance": ("generate_random_euclidean", "build_distance_matrix",
                 "city_stats", "make_tour", "tour_length", "validate_tour"),
    "construction": ("grid_search", "construct_tour"),
    "baselines": ("nearest_neighbor", "greedy_edge", "clarke_wright"),
    "bounds": ("held_karp_bound", "exact_optimum"),
    "bench": ("run_benchmark", "render_report"),
    "svgplot": ("plot_tour_svg",),
    "cli": ("main",),
}

# span name -> the count a call adds, read from its return value
_VALUES: Dict[str, Callable] = {
    "construction.construct_tour": lambda r: r.neighbor_evaluations,
    "bounds.held_karp_bound": lambda r: r.iterations_used,
}

SETUP = -1  # phase of spans recorded before the first timed pass


class Tracer:
    """In-memory span recorder: one span is
    [name, start, end, parent index, phase, value]."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.phase = SETUP
        # (enclosing grid_search span, tour order) of every construction
        self.tours: set = set()
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        value_of = _VALUES.get(name)
        keep_tour = name == "construction.construct_tour"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name, time.perf_counter(), 0.0, parent, self.phase, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if value_of is not None:
                span[5] = int(value_of(result))
            if keep_tour:
                self.tours.add((parent, result.tour.order))
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a tourcraft module holds it."""
        homes = {layer: importlib.import_module(f"tourcraft.{layer}")
                 for layer in TRACED}
        modules = [m for name, m in sys.modules.items()
                   if name == "tourcraft" or name.startswith("tourcraft.")]
        for layer, names in TRACED.items():
            home = homes[layer]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def write(self, path: Path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            for name, start, end, parent, phase, value in self.spans:
                out.write(json.dumps({
                    "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent, "phase": phase,
                    "value": value}) + "\n")

    def layer_metrics(self, passes: int) -> Dict[str, float]:
        """Per-layer metrics for one set-up plus one timed pass: spans of
        the set-up count once, spans of the passes are averaged."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        # name -> [time, calls, value, self time], set-up and passes apart
        setup: Dict[str, list] = {}
        timed: Dict[str, list] = {}
        for index, (name, start, end, _, phase, val) in enumerate(spans):
            acc = (setup if phase == SETUP else timed).setdefault(
                name, [0.0, 0, 0, 0.0])
            acc[0] += end - start
            acc[1] += 1
            acc[2] += val
            acc[3] += end - start - child_time[index]

        def total(name: str, field: int) -> float:
            once = setup.get(name, (0.0, 0, 0, 0.0))[field]
            repeated = timed.get(name, (0.0, 0, 0, 0.0))[field]
            return once + repeated / max(passes, 1)

        def t(name: str) -> float:
            return total(name, 0)

        def n(name: str) -> float:
            return total(name, 1)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        constructions = n("construction.construct_tour")
        evals = total("construction.construct_tour", 2)
        hk_iters = total("bounds.held_karp_bound", 2)
        all_constructions = sum(acc.get("construction.construct_tour",
                                        [0, 0])[1] for acc in (setup, timed))
        return {
            "construction.grid_s": t("construction.grid_search"),
            "construction.constructions": constructions,
            "construction.distinct_tour_ratio": ratio(len(self.tours),
                                                      all_constructions),
            "construction.s_per_construction": ratio(
                t("construction.construct_tour"), constructions),
            "construction.neighbor_evals": evals,
            "construction.neighbor_evals_per_s": ratio(
                evals, t("construction.construct_tour")),
            "bounds.hk_s": t("bounds.held_karp_bound"),
            "bounds.hk_iters": hk_iters,
            "bounds.hk_s_per_iter": ratio(t("bounds.held_karp_bound"),
                                          hk_iters),
            "bounds.exact_s": t("bounds.exact_optimum"),
            "bounds.exact_calls": n("bounds.exact_optimum"),
            "baselines.nn_s": t("baselines.nearest_neighbor"),
            "baselines.greedy_s": t("baselines.greedy_edge"),
            "baselines.cw_s": t("baselines.clarke_wright"),
            "instance.generate_s": t("instance.generate_random_euclidean"),
            "instance.matrix_s": t("instance.build_distance_matrix"),
            "instance.stats_s": t("instance.city_stats"),
            "instance.validate_calls": n("instance.validate_tour"),
            "instance.validations_per_tour": ratio(
                n("instance.validate_tour"), n("instance.make_tour")),
            "tsplib.parse_s": t("tsplib.parse_tsplib"),
            "tsplib.write_tour_s": t("tsplib.write_tour"),
            "svgplot.plot_s": t("svgplot.plot_tour_svg"),
            "bench.run_s": t("bench.run_benchmark"),
            "bench.self_s": total("bench.run_benchmark", 3),
            "bench.render_s": t("bench.render_report"),
            "cli.self_s": total("cli.main", 3),
        }
