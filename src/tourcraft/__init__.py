"""Deterministic TSP tour-construction toolkit.

Priority-driven two-step construction with exponent grid search, classic
baselines (nearest neighbor, greedy edge, Clarke-Wright), exact and
Held-Karp reference values, TSPLIB I/O, and a benchmark harness.
"""

from .baselines import clarke_wright, greedy_edge, nearest_neighbor
from .bench import (BenchRecord, RunConfig, percent_error, render_report,
                    run_benchmark)
from .bounds import (LowerBoundResult, exact_optimum, held_karp_bound,
                     one_tree_value)
from .construction import (ConstructionResult, ExponentCombo, construct_tour,
                           default_grid, grid_search)
from .errors import (ConfigError, DegenerateInstanceError, ParseError,
                     SizeLimitError, TourcraftError, ValidationError)
from .instance import (CityStats, DistanceMatrix, Instance, PathEndTracker,
                       Tour, build_distance_matrix, city_stats,
                       generate_random_euclidean, make_tour, tour_length,
                       validate_tour)
from .svgplot import plot_tour_svg
from .tsplib import (OptimaTable, default_optima, load_optima, parse_tour,
                     parse_tsplib, write_tour, write_tsplib)

__version__ = "0.1.0"

__all__ = [
    "BenchRecord", "CityStats", "ConfigError", "ConstructionResult",
    "DegenerateInstanceError", "DistanceMatrix", "ExponentCombo", "Instance",
    "LowerBoundResult", "OptimaTable", "ParseError", "PathEndTracker",
    "RunConfig", "SizeLimitError", "Tour", "TourcraftError",
    "ValidationError", "build_distance_matrix", "city_stats", "clarke_wright",
    "construct_tour", "default_grid", "default_optima", "exact_optimum",
    "generate_random_euclidean", "greedy_edge", "grid_search",
    "held_karp_bound", "load_optima", "make_tour", "nearest_neighbor",
    "one_tree_value", "parse_tour", "parse_tsplib", "percent_error",
    "plot_tour_svg", "render_report", "run_benchmark", "tour_length",
    "validate_tour", "write_tour", "write_tsplib",
]
