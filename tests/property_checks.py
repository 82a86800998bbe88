"""Randomized invariant suites, shared by test_properties and the acceptance
gate. Each check runs a configurable number of cases from a fixed seed and
raises AssertionError on the first violation."""

import numpy as np

import tourcraft as tc
from paper_oracle import eq1_priority, eq2_priority


def check_tracker_involution(cases: int = 1000, seed: int = 1) -> int:
    """After every legal connect, path endpoints reference each other."""
    rng = np.random.default_rng(seed)
    done = 0
    while done < cases:
        n = int(rng.integers(4, 13))
        t = tc.PathEndTracker(n)
        while t.edge_count < n and done < cases:
            pairs = [(a, b) for a in range(n) for b in range(n)
                     if a != b and t.degree[a] < 2 and t.can_connect(a, b)]
            if not pairs:
                break
            a, b = pairs[rng.integers(len(pairs))]
            t.connect(a, b)
            for x in range(n):
                if t.degree[x] < 2:
                    assert t.other_end[t.other_end[x]] == x, \
                        f"involution broken at {x}"
            assert sum(t.degree) == 2 * t.edge_count
            done += 1
    return done


def check_no_premature_cycle(cases: int = 1000, seed: int = 2) -> int:
    """tracker_connect never joins two endpoints of one path before E=n-1,
    cross-checked with a naive component labelling."""
    rng = np.random.default_rng(seed)
    done = 0
    while done < cases:
        n = int(rng.integers(4, 13))
        t = tc.PathEndTracker(n)
        label = list(range(n))
        while t.edge_count < n and done < cases:
            pairs = [(a, b) for a in range(n) for b in range(n)
                     if a != b and t.degree[a] < 2 and t.can_connect(a, b)]
            if not pairs:
                break
            a, b = pairs[rng.integers(len(pairs))]
            if t.edge_count < n - 1:
                assert label[a] != label[b], \
                    f"premature cycle {a}-{b} at E={t.edge_count}"
            t.connect(a, b)
            la, lb = label[a], label[b]
            label = [la if v == lb else v for v in label]
            done += 1
    return done


def check_eq2_monotone_in_distance(cases: int = 1000, seed: int = 3) -> int:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        mu = float(rng.uniform(0.01, 100))
        sigma = float(rng.uniform(0.01, 100))
        gamma = float(rng.uniform(0.05, 3))
        delta, epsilon = rng.choice([0, 0.5, 1], size=2)
        d1, d2 = np.sort(rng.uniform(0.01, 100, 2))
        if d1 == d2:
            continue
        lo = eq2_priority(mu, sigma, d2, gamma, delta, epsilon)
        hi = eq2_priority(mu, sigma, d1, gamma, delta, epsilon)
        assert hi > lo, f"eq2 not decreasing in d: {hi} <= {lo}"
    return cases


def check_eq1_order_scale_invariant(cases: int = 1000, seed: int = 4) -> int:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        k = int(rng.integers(3, 20))
        mu = rng.uniform(0.01, 100, k)
        sigma = rng.uniform(0.0, 50, k)
        alpha, beta = rng.choice([0, 0.5, 1], size=2)
        scale = float(rng.uniform(0.001, 1000))
        which = rng.integers(2)
        mu2 = mu * scale if which == 0 else mu
        sigma2 = sigma * scale if which == 1 else sigma
        base = np.array([eq1_priority(m, s, alpha, beta)
                         for m, s in zip(mu, sigma)])
        scaled = np.array([eq1_priority(m, s, alpha, beta)
                           for m, s in zip(mu2, sigma2)])
        order_a = np.lexsort((np.arange(k), -base))
        order_b = np.lexsort((np.arange(k), -scaled))
        assert np.array_equal(order_a, order_b), "priority order changed"
    return cases


def check_tour_length_symmetry(cases: int = 1000, seed: int = 5) -> int:
    rng = np.random.default_rng(seed)
    matrices = {}
    for _ in range(cases):
        n = int(rng.integers(4, 15))
        if n not in matrices:
            inst = tc.generate_random_euclidean(n, 900 + n, 1000.0)
            matrices[n] = tc.build_distance_matrix(inst)
        m = matrices[n]
        order = rng.permutation(n)
        base = tc.tour_length(order, m)
        assert tc.tour_length(order[::-1], m) == base
        shift = int(rng.integers(n))
        assert tc.tour_length(np.roll(order, shift), m) == base
    return cases


ALL_CHECKS = (
    ("tracker involution", check_tracker_involution),
    ("no premature cycle", check_no_premature_cycle),
    ("eq2 monotone in distance", check_eq2_monotone_in_distance),
    ("eq1 order scale-invariance", check_eq1_order_scale_invariant),
    ("tour length rotation/reversal", check_tour_length_symmetry),
)
