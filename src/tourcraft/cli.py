"""Command-line entry point: solve, bench, gen, bound subcommands."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .bench import METHODS, RunConfig, render_report, run_benchmark
from .bounds import ASCENT_ITERS, held_karp_bound
from .construction import ExponentCombo, default_grid, grid_search
from .errors import (ConfigError, ParseError, SizeLimitError, TourcraftError,
                     _integer)
from .instance import (Instance, build_distance_matrix,
                       generate_random_euclidean)
from .svgplot import plot_tour_svg
from .tsplib import load_optima, parse_tsplib, write_tour, write_tsplib

RANDOM_BOX = 1_000_000.0  # side of the square random instances fill
GRID_HELP = ("value set '0,0.5,1' or combos 'a:b:g:d:e;...'; a value that "
             "starts with '-' needs '=', as in --grid=-1,0,1")


def _numbers(spec: str, sep: str, cast=float) -> list:
    try:
        return [cast(v) for v in spec.split(sep)]
    except ValueError:
        raise ConfigError(f"malformed number in {spec!r}")


def _parse_grid(spec: Optional[str]) -> Optional[List[ExponentCombo]]:
    """--grid accepts either a value set '0,0.5,1' (full Cartesian grid) or
    explicit combos 'a:b:g:d:e;a:b:g:d:e;...'; without it, the default
    grid."""
    if spec is None:
        return None
    if ";" in spec or ":" in spec:
        combos = []
        for part in spec.split(";"):
            vals = _numbers(part, ":")
            if len(vals) != 5:
                raise ConfigError(f"combo {part!r} needs 5 exponents")
            combos.append(ExponentCombo(*vals))
        return combos
    return default_grid(_numbers(spec, ","))


def _read(path, parse=parse_tsplib):
    """`parse` of the text of the file at `path`; a file that does not
    decode as text is a ParseError naming it."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a text file ({exc})") from None
    return parse(text)


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = _read(args.file)
    matrix = build_distance_matrix(instance)
    result = grid_search(matrix, _parse_grid(args.grid))
    c = result.combo
    print(f"{instance.name}: length {result.tour.length:g} with exponents "
          f"alpha={c.alpha:g} beta={c.beta:g} gamma={c.gamma:g} "
          f"delta={c.delta:g} epsilon={c.epsilon:g}")
    if args.out:
        Path(args.out).write_text(write_tour(result.tour, instance.name))
    if args.plot:
        Path(args.plot).write_text(plot_tour_svg(instance, result.tour.order))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    instances: List[Instance] = []
    if args.tsplib:
        folder = Path(args.tsplib)
        if not folder.is_dir():
            raise TourcraftError(f"{args.tsplib} is not a directory")
        files = sorted(folder.glob("*.tsp"))
        if not files:
            raise TourcraftError(f"no .tsp files under {args.tsplib}")
        instances = [_read(f) for f in files]
    if args.random:
        parts = _numbers(args.random, ",", int)
        if len(parts) != 3:
            raise TourcraftError("--random expects n,count,first-seed")
        n, count, seed0 = parts
        _integer(count, "--random count", 1)
        try:
            seeds = list(range(seed0, seed0 + count))
        except (MemoryError, OverflowError):  # a seed list too long to build
            raise SizeLimitError(f"--random count too large: {count}") from None
        instances += [generate_random_euclidean(n, seed, RANDOM_BOX)
                      for seed in seeds]
    config = RunConfig(
        instances=instances,
        methods=tuple(args.methods.split(",")),
        grid=_parse_grid(args.grid),
        optima=_read(args.optima, load_optima) if args.optima else None,
        bound_iters=args.iters,
    )
    report = render_report(run_benchmark(config), args.format)
    if args.random:
        print(f"random instances: n={n}, seeds {seeds}", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(report)
    else:
        print(report, end="")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    instance = generate_random_euclidean(args.n, args.seed, args.box)
    Path(args.out).write_text(write_tsplib(instance))
    print(f"wrote {instance.name} to {args.out}")
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    instance = _read(args.file)
    result = held_karp_bound(build_distance_matrix(instance),
                             max_iters=args.iters)
    print(f"{instance.name}: held-karp ascent bound {result.bound:.2f} "
          f"({result.iterations_used} iterations)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tourcraft",
        description="Deterministic TSP tour construction and benchmarking")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="grid-search the priority construction")
    p.add_argument("file")
    p.add_argument("--grid", help=GRID_HELP)
    p.add_argument("--out", help="write best tour in TSPLIB .tour format")
    p.add_argument("--plot", help="write an SVG plot of the best tour")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bench", help="run methods over instance sets")
    p.add_argument("--tsplib", help="directory of .tsp files")
    p.add_argument("--optima", help="optima fixture file (default: bundled)")
    p.add_argument("--random", help="generated instances as 'n,count,first-seed'")
    p.add_argument("--methods", default="proposed",
                   help=f"comma list of {','.join(METHODS)}")
    p.add_argument("--grid", help=GRID_HELP)
    p.add_argument("--iters", type=int, default=ASCENT_ITERS,
                   help="lower-bound ascent iterations")
    p.add_argument("--format", choices=("csv", "md"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("gen", help="write a random Euclidean instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--box", type=float, default=RANDOM_BOX)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bound", help="print the Held-Karp ascent bound")
    p.add_argument("file")
    p.add_argument("--iters", type=int, default=ASCENT_ITERS)
    p.set_defaults(func=_cmd_bound)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TourcraftError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
