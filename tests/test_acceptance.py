"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria that compare against published benchmark tables need the
corresponding instance files under data/tsplib/. This repository bundles the
subset that could be transcribed and validated offline (eil51, berlin52,
eil76, kroA100, att48); checks over instances that are not bundled are
skipped with a reason that names the missing files, and run as written once
those files are placed in data/tsplib/.
"""

import time

import numpy as np
import pytest

import tourcraft as tc
from conftest import DATA_DIR, brute_force_optimum, instance_path, load_instance
from property_checks import ALL_CHECKS

PAPER_COMBO_ATT48 = tc.ExponentCombo(0.5, 1, 1, 0.5, 0)


def needs_instances(names):
    """Skip unless every named instance file is present under DATA_DIR."""
    missing = [f"{n}.tsp" for n in names if not instance_path(n).exists()]
    return pytest.mark.skipif(
        bool(missing),
        reason=f"{len(missing)} TSPLIB file(s) not in {DATA_DIR}: "
               f"{', '.join(missing)}; place them there to run this check "
               f"(see README, 'Benchmark data')")


TABLE1_SMALL = [  # instance -> paper's obtained route length
    pytest.param(name, length, marks=needs_instances([name]))
    for name, length in (
        ("eil51", 453),
        ("berlin52", 8023),
        ("eil76", 565),
        ("kroA100", 22470),
        ("bier127", 122461),
    )
]

TABLE1_ALL = [
    "eil51", "berlin52", "eil76", "kroA100", "kroB100", "kroC100", "kroD100",
    "kroE100", "lin105", "pr107", "bier127", "ch130", "ch150", "kroA150",
    "kroB150", "d198", "kroA200", "gil262", "lin318", "d493", "dsj1000",
    "pr1002", "u1060", "vm1084",
]
TABLE1_SMALL_N = TABLE1_ALL[:17]  # the n <= 200 rows


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def solve_grid(name: str):
    inst = load_instance(name)
    m = tc.build_distance_matrix(inst)
    return tc.grid_search(m)


@pytest.mark.parametrize("name,paper_length", TABLE1_SMALL)
def test_criterion_1_table1_regression(name, paper_length):
    best = solve_grid(name)
    deviation = 100.0 * (best.tour.length - paper_length) / paper_length
    report(f"1 [{name}]", abs(deviation) <= 3.0,
           f"grid best {best.tour.length:.0f} vs paper {paper_length} "
           f"({deviation:+.2f}%, tolerance +-3%)")


def test_criterion_2_att48_reproduction():
    inst = load_instance("att48")
    # the paper's att48 numbers (34839 obtained / 33523 optimal) match the
    # rounded-Euclidean metric on these coordinates, not the pseudo-Euclidean
    # one (whose optimum is 10628), so the comparison runs under EUC_2D
    euc = tc.Instance("att48", "EUC_2D", coords=inst.coords)
    m = tc.build_distance_matrix(euc)
    result = tc.construct_tour(m, PAPER_COMBO_ATT48)
    length = result.tour.length
    vs_paper = 100.0 * (length - 34839) / 34839
    err = tc.percent_error(length, 33523)
    report("2", abs(vs_paper) <= 3.0 and 1.0 <= err <= 7.0,
           f"length {length:.0f} ({vs_paper:+.2f}% vs 34839), "
           f"error vs optimum {err:.2f}% (needs [1%, 7%])")


@needs_instances(TABLE1_ALL)
def test_criterion_3_aggregate_quality():
    optima = tc.default_optima()
    errors = {}
    for name in TABLE1_ALL:
        best = solve_grid(name)
        errors[name] = tc.percent_error(best.tour.length, optima.lookup(name))
    small = np.mean([errors[n] for n in TABLE1_SMALL_N])
    full = np.mean(list(errors.values()))
    report("3", small <= 10.0 and full <= 11.0,
           f"mean error n<=200 {small:.2f}% (<=10%), all 24 {full:.2f}% (<=11%)")


def test_criterion_4_random_euclidean_testbed():
    excess = {"proposed": [], "nn": [], "greedy": [], "cw": []}
    for seed in range(1, 16):
        inst = tc.generate_random_euclidean(100, seed, 1_000_000)
        m = tc.build_distance_matrix(inst)
        best = tc.grid_search(m)
        bound = tc.held_karp_bound(m, max_iters=1000,
                                   upper_bound_hint=best.tour.length).bound
        for method, length in (
                ("proposed", best.tour.length),
                ("nn", tc.nearest_neighbor(m).length),
                ("greedy", tc.greedy_edge(m).length),
                ("cw", tc.clarke_wright(m).length)):
            excess[method].append(tc.percent_error(length, bound))
    means = {k: float(np.mean(v)) for k, v in excess.items()}
    ok = (means["proposed"] <= 11.0 and 18.0 <= means["nn"] <= 33.0
          and 13.0 <= means["greedy"] <= 26.0 and 6.0 <= means["cw"] <= 16.0)
    report("4", ok,
           f"mean excess over computed bound: proposed {means['proposed']:.2f}% "
           f"(<=11), nn {means['nn']:.2f}% ([18,33]), greedy "
           f"{means['greedy']:.2f}% ([13,26]), cw {means['cw']:.2f}% ([6,16])")


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(2024)
    grid = tc.default_grid()
    violations = 0
    runs = 0
    for _ in range(200):
        n = int(rng.integers(4, 13))
        inst = tc.generate_random_euclidean(n, int(rng.integers(1 << 30)), 1000.0)
        m = tc.build_distance_matrix(inst)
        opt = tc.exact_optimum(m).length
        tours = [tc.grid_search(m, grid).tour,
                 tc.nearest_neighbor(m),
                 tc.greedy_edge(m),
                 tc.clarke_wright(m)]
        for t in tours:
            runs += 1
            if not tc.validate_tour(t.order, n) or t.length < opt - 1e-9:
                violations += 1
        if tc.held_karp_bound(m, max_iters=100).bound > opt + 1e-9:
            violations += 1
    report("5", violations == 0,
           f"{violations} violations over 200 instances ({runs} method runs)")


def test_criterion_6_complexity_scaling():
    combo = tc.ExponentCombo(0.5, 1, 1, 0.5, 0)

    def run(n):
        inst = tc.generate_random_euclidean(n, 7, 1_000_000)
        m = tc.build_distance_matrix(inst)
        best_wall = float("inf")
        result = None
        for _ in range(5):
            t0 = time.perf_counter()
            result = tc.construct_tour(m, combo)
            best_wall = min(best_wall, time.perf_counter() - t0)
        return result.neighbor_evaluations, best_wall

    count_small, wall_small = run(100)
    count_big, wall_big = run(1000)
    count_ratio = count_big / count_small
    wall_ratio = wall_big / wall_small
    report("6", count_ratio <= 110.0 and wall_ratio <= 150.0,
           f"evaluation ratio {count_ratio:.1f} (<=110), "
           f"wall ratio {wall_ratio:.1f} (<=150)")


def test_criterion_7_bench_determinism():
    def run_csv():
        config = tc.RunConfig(
            instances=[tc.generate_random_euclidean(30, s, 1e6)
                       for s in (1, 2, 3)],
            methods=("proposed", "nn", "greedy", "cw"),
            grid=tc.default_grid([0, 1]),
            bound_iters=100)
        return tc.render_report(tc.run_benchmark(config), "csv")

    def strip_wall(text):
        return "\n".join(",".join(line.split(",")[:-1])
                         for line in text.splitlines())

    a, b = run_csv(), run_csv()
    report("7", strip_wall(a) == strip_wall(b) and a.splitlines()[0].endswith(
        "wall_millis"), "two runs identical up to the wall_millis column")


def test_criterion_8_property_suites():
    results = []
    for name, check in ALL_CHECKS:
        cases = check(cases=1000)
        results.append(f"{name}: {cases} cases")
    report("8", all("1000" in r for r in results), "; ".join(results))


def test_brute_force_cross_check_small():
    # spot-check that exact_optimum (used as the oracle above) itself matches
    # naive enumeration, keeping criterion 5 honest
    inst = tc.generate_random_euclidean(7, 99, 1000.0)
    m = tc.build_distance_matrix(inst)
    assert tc.exact_optimum(m).length == pytest.approx(brute_force_optimum(m))
