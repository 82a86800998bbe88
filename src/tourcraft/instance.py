"""Problem representation: instances, distance matrices, per-city statistics, tours.

Distance conventions follow the TSPLIB definitions so results are comparable
with published best-known tour lengths:

* ``EUC_2D`` -- Euclidean distance rounded to the nearest integer
  (``nint(x) = floor(x + 0.5)``, never banker's rounding).
* ``CEIL_2D`` -- Euclidean distance rounded up.
* ``ATT``    -- pseudo-Euclidean: ``r = sqrt((dx^2 + dy^2) / 10)``,
  ``t = nint(r)``, result ``t`` if ``t >= r`` else ``t + 1``.
* ``EXPLICIT`` -- a full symmetric weight table supplied with the instance.

Distances are stored as floats in one matrix type even when the rule yields
integers. That rounded matrix is the objective: every tour length, and so
every comparison between tours, is measured on it. The construction's
scores (the per-city statistics and the eq. 2 distance term) read a second
array of the same matrix, its heuristic geometry: the exact, unrounded
Euclidean distances for the coordinate kinds, and the weights themselves
for ``EXPLICIT`` instances or a matrix built from an array. Per-city means
use the n-1 distances to the other cities and the standard deviation is the
population form over those n-1 values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (ConfigError, DegenerateInstanceError, SizeLimitError,
                     ValidationError)

SUPPORTED_KINDS = ("EUC_2D", "ATT", "CEIL_2D", "EXPLICIT")

# Largest n whose distance matrix is built. One n x n float64 array takes
# 8 n^2 bytes (800 MB at the limit). Building the matrix holds two of them
# at its peak (three for ATT) and the result keeps both.
MATRIX_MAX_N = 10_000


def _require_finite_nonnegative(a: np.ndarray, what: str) -> None:
    """Raise unless every entry of `a` is finite and >= 0. NaN fails both
    comparisons; two reductions allocate no temporary of a's size."""
    if not (a.min() >= 0 and a.max() < np.inf):
        raise ValidationError(f"{what} must be finite and >= 0")


@dataclass(frozen=True, eq=False)
class Instance:
    """Immutable problem statement: coordinates (or explicit weights) plus a
    distance-function tag. ``coords`` is stored as a read-only (n, 2) float
    array."""

    name: str
    n: int
    kind: str
    coords: Optional[np.ndarray] = None
    explicit_weights: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.kind not in SUPPORTED_KINDS:
            raise ConfigError(f"unsupported distance kind {self.kind!r}; "
                              f"expected one of {SUPPORTED_KINDS}")
        if self.n < 1:
            raise DegenerateInstanceError(f"instance needs n >= 1, got {self.n}")
        if self.kind == "EXPLICIT":
            w = self.explicit_weights
            if w is None:
                raise ValidationError("EXPLICIT instance requires a weight table")
            w = np.asarray(w, dtype=float)
            if w.shape != (self.n, self.n):
                raise ValidationError(
                    f"weight table shape {w.shape} does not match n={self.n}")
            _require_finite_nonnegative(w, "EXPLICIT weights")
            if not np.allclose(w, w.T):
                raise ValidationError("EXPLICIT weight table is not symmetric")
            if np.any(np.diag(w) != 0):
                raise ValidationError("EXPLICIT weight table has nonzero diagonal")
            object.__setattr__(self, "explicit_weights", w)
        if self.kind != "EXPLICIT" or self.coords is not None:
            pts = np.array(() if self.coords is None else self.coords,
                           dtype=float).reshape(-1, 2)
            if len(pts) != self.n:
                raise ValidationError(
                    f"instance {self.name!r}: expected {self.n} coordinate "
                    f"pairs, got {len(pts)}")
            if not np.all(np.isfinite(pts)):
                raise ValidationError(f"{self.name}: non-finite coordinate")
            pts.setflags(write=False)
            object.__setattr__(self, "coords", pts)


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric pairwise distances with zero diagonal; the only geometry
    consumers see.

    ``d`` is the objective that tour lengths are measured on. ``heuristic``
    is the geometry the construction scores on; it defaults to ``d`` itself
    (the same array, not a copy).
    """

    n: int
    d: np.ndarray
    heuristic: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        d = self._read_only(self.d, "distances")
        object.__setattr__(self, "d", d)
        h = d if self.heuristic is None else \
            self._read_only(self.heuristic, "heuristic distances")
        object.__setattr__(self, "heuristic", h)

    def _read_only(self, a: np.ndarray, what: str) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        if a.shape != (self.n, self.n):
            raise ValidationError(f"matrix shape {a.shape} != ({self.n}, {self.n})")
        _require_finite_nonnegative(a, what)
        a.setflags(write=False)
        return a


@dataclass(frozen=True)
class CityStats:
    """Per-city mean and population standard deviation of the distances to
    the other n-1 cities."""

    mu: np.ndarray
    sigma: np.ndarray


@dataclass(frozen=True)
class Tour:
    """A cyclic visiting order together with its total length."""

    order: Tuple[int, ...]
    length: float


@dataclass
class TourReport:
    """Outcome of validate_tour: ok, or what is duplicated/missing."""

    ok: bool
    duplicates: list = field(default_factory=list)
    missing: list = field(default_factory=list)
    out_of_range: list = field(default_factory=list)

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        parts = []
        if self.duplicates:
            parts.append(f"duplicates={self.duplicates}")
        if self.missing:
            parts.append(f"missing={self.missing}")
        if self.out_of_range:
            parts.append(f"out_of_range={self.out_of_range}")
        return "violation: " + ", ".join(parts)


def build_distance_matrix(instance: Instance) -> DistanceMatrix:
    """Full n x n matrix; EXPLICIT copies the weights, the coordinate kinds
    apply the TSPLIB rounding rules pairwise (vectorized) and keep the exact
    Euclidean distances as the heuristic geometry. ATT needs no other: its
    unrounded distance is the Euclidean one scaled by 1/sqrt(10), and a
    common scale changes no ranking of cities or neighbours."""
    n = instance.n
    if n > MATRIX_MAX_N:
        raise SizeLimitError(
            f"distance matrix is limited to n <= {MATRIX_MAX_N}, got {n}")
    if instance.kind == "EXPLICIT":
        return DistanceMatrix(n, np.array(instance.explicit_weights, dtype=float))

    # Each step writes into an array it no longer needs, so the build holds
    # two n x n arrays at its peak (three for ATT), with the same operations
    # as the plain expressions.
    x, y = instance.coords.T
    sq = np.subtract.outer(x, x)
    sq *= sq
    exact = np.subtract.outer(y, y)
    exact *= exact
    sq += exact
    np.sqrt(sq, out=exact)
    if instance.kind == "ATT":
        # r = sqrt(sq / 10), t = nint(r), d = t if t >= r else t + 1
        sq /= 10.0
        r = np.sqrt(sq, out=sq)
        d = r + 0.5
        np.floor(d, out=d)
        d += np.less(d, r, out=r)  # adds 1.0 where t < r and 0.0 elsewhere
    else:
        d = sq
        if instance.kind == "EUC_2D":
            np.add(exact, 0.5, out=d)
            np.floor(d, out=d)
        else:  # CEIL_2D
            np.ceil(exact, out=d)
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(n, d, heuristic=exact)


def city_stats(matrix: DistanceMatrix) -> CityStats:
    """Mean and population standard deviation of each city's n-1 distances
    in the heuristic geometry."""
    n = matrix.n
    if n < 2:
        raise DegenerateInstanceError("city statistics need at least 2 cities")
    d = matrix.heuristic
    mu = d.sum(axis=1) / (n - 1)
    # The diagonal is 0, so summing (d - mu)^2 over all j adds an extra mu^2.
    dev = d - mu[:, None]
    dev *= dev
    var = (np.sum(dev, axis=1) - mu * mu) / (n - 1)
    sigma = np.sqrt(np.clip(var, 0.0, None))
    mu.setflags(write=False)
    sigma.setflags(write=False)
    return CityStats(mu=mu, sigma=sigma)


def validate_tour(order: Sequence[int], n: int) -> TourReport:
    """Check that order is a permutation of 0..n-1; report what is wrong."""
    seen = set()
    duplicates = []
    out_of_range = []
    for c in order:
        if not (0 <= c < n):
            out_of_range.append(c)
        elif c in seen:
            duplicates.append(c)
        else:
            seen.add(c)
    missing = [c for c in range(n) if c not in seen]
    if len(order) == n and not duplicates and not missing and not out_of_range:
        return TourReport(ok=True)
    return TourReport(ok=False, duplicates=sorted(set(duplicates)),
                      missing=missing, out_of_range=out_of_range)


def tour_length(order: Sequence[int], matrix: DistanceMatrix) -> float:
    """Total cycle length including the closing edge."""
    report = validate_tour(order, matrix.n)
    if not report.ok:
        raise ValidationError(f"not a tour: {report}")
    idx = np.asarray(order, dtype=int)
    return float(matrix.d[idx, np.roll(idx, -1)].sum())


def make_tour(order: Sequence[int], matrix: DistanceMatrix) -> Tour:
    return Tour(order=tuple(int(c) for c in order),
                length=tour_length(order, matrix))


def generate_random_euclidean(n: int, seed: int, box_side: float) -> Instance:
    """Uniform random points in [0, box_side]^2 with kind EUC_2D.

    Uses numpy's PCG64 bit generator (``np.random.Generator(np.random.PCG64(seed))``,
    two uniform doubles per city in x,y order), so identical (n, seed,
    box_side) reproduce identical coordinates on every platform.
    """
    if n < 3:
        raise DegenerateInstanceError(f"random instance needs n >= 3, got {n}")
    if box_side <= 0:
        raise ConfigError(f"box_side must be positive, got {box_side}")
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    pts = rng.random((n, 2)) * float(box_side)
    return Instance(name=f"rand-n{n}-s{seed}", n=n, kind="EUC_2D", coords=pts)
