"""Consistency checks for the bundled benchmark instances.

The .tsp files under data/tsplib were transcribed for offline use; these
tests pin them against independent evidence: bundled optimal tours must
reproduce the published optimum exactly, and for instances without a bundled
optimal tour the computed lower bound must sandwich the published optimum.
"""

import pytest

import tourcraft as tc
from conftest import DATA_DIR, load_instance


def opt_tour(name):
    path = DATA_DIR / f"{name}.opt.tour"
    if not path.exists():
        pytest.skip(f"no bundled optimal tour for {name}")
    return tc.parse_tour(path.read_text())


@pytest.mark.parametrize("name,optimum", [("eil51", 426), ("berlin52", 7542)])
def test_optimal_tour_reproduces_optimum(name, optimum):
    inst = load_instance(name)
    m = tc.build_distance_matrix(inst)
    order = opt_tour(name)
    assert tc.validate_tour(order, inst.n).ok
    assert tc.tour_length(order, m) == optimum


def test_att48_optimal_tour_both_metrics():
    inst = load_instance("att48")
    order = opt_tour("att48")
    att = tc.build_distance_matrix(inst)
    assert tc.tour_length(order, att) == 10628  # published ATT optimum
    euc = tc.build_distance_matrix(
        tc.Instance("att48", inst.n, "EUC_2D", coords=inst.coords))
    # the benchmark tables use the rounded-Euclidean metric for att48; the
    # ATT-optimal tour measures 33522 there, within 1 of the tabled 33523
    assert abs(tc.tour_length(order, euc) - 33523) <= 1


@pytest.mark.parametrize("name", ["eil51", "berlin52", "eil76", "kroA100"])
def test_lower_bound_sandwiches_published_optimum(name):
    inst = load_instance(name)
    m = tc.build_distance_matrix(inst)
    optimum = tc.default_optima().lookup(name)
    lb = tc.held_karp_bound(m, max_iters=1500)
    # a computed bound above the published optimum would prove the data wrong;
    # far below would strongly suggest a transcription error
    assert lb.bound <= optimum + 1e-6
    assert lb.bound >= 0.975 * optimum
