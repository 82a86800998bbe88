"""Problem representation: instances, distance matrices, per-city statistics,
tours, and ``PathEndTracker``, the partial tour every construction grows.

Distance conventions follow the TSPLIB definitions so results are comparable
with published best-known tour lengths:

* ``EUC_2D`` -- Euclidean distance rounded to the nearest integer
  (``nint(x) = floor(x + 0.5)``, never banker's rounding).
* ``CEIL_2D`` -- Euclidean distance rounded up.
* ``ATT``    -- pseudo-Euclidean: ``r = sqrt((dx^2 + dy^2) / 10)``,
  ``t = nint(r)``, result ``t`` if ``t >= r`` else ``t + 1``.
* ``EXPLICIT`` -- a full symmetric weight table supplied with the instance.

Distances are stored as floats in one matrix type even when the rule yields
integers. That rounded matrix, ``d``, is the objective: every tour length,
and so every comparison between tours, is measured on it. The
construction's scores (the per-city statistics and the eq. 2 distance
term) read a second array of the same matrix, its heuristic geometry: the
exact, unrounded Euclidean distances for the coordinate kinds, and the
weights themselves for ``EXPLICIT`` instances or a matrix built from an
array; an EUC_2D or CEIL_2D ``d`` is rounded from it on first read. Per-city
means use the n-1 distances to the other cities and the standard deviation
is the population form over those n-1 values.

``_table`` is the one intake of an n x n table (``EXPLICIT`` weights, ``d``
and ``heuristic``): square, non-empty, finite, >= 0, symmetric, zero on the
diagonal, and stored read-only as floats like the coordinates (`_floats`).
Work that would make another n x n array (the build's squared distances,
`city_stats`, and the construction's neighbour sets and scores) goes one
row block at a time instead, `_block_rows(n)` rows of BLOCK_BYTES.

`PathEndTracker` owns the partial tour's layout: its lists, its open mask
(a numpy view of a bytearray, so that a join closes a city with a byte
store) and the walk of the closed loop. The baselines join through its
`connect`; the construction writes the same statements inline, to save a
call per step.

A city index is an int or a numpy integer, never a bool or an integral
float (`errors._integer`). `_city` checks a start, a hub or `cycle`'s
start; `_tour_order`, the one tour check, every element of an order.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (ConfigError, DegenerateInstanceError, SizeLimitError,
                     ValidationError, _FloatErrors, _integer, _real)

SUPPORTED_KINDS = ("EUC_2D", "ATT", "CEIL_2D", "EXPLICIT")

# Largest n whose distance matrix is built. One n x n float64 array takes
# 8 n^2 bytes (800 MB at the limit). The build holds one (two for ATT) and
# a row block of BLOCK_BYTES; an EUC_2D or CEIL_2D d is a second, made on
# first read. Beyond the tables it reads, `city_stats` holds one row block
# and every grid, `construct_tour`'s one point included, two (d^gamma and
# one rule's scores) and its O(n M) candidate lists.
MATRIX_MAX_N = 10_000

# Bytes of float64 rows in one row block: the one budget that sizes every
# blockwise pass over an n x n table.
BLOCK_BYTES = 1 << 18


def _block_rows(n: int) -> int:
    """Rows of n floats in one row block of BLOCK_BYTES, at least one."""
    return max(1, BLOCK_BYTES // (8 * n))


def _read_only(*arrays: np.ndarray) -> None:
    """Mark arrays that are kept and shared as read-only: the package's one
    way to freeze an array."""
    for a in arrays:
        a.setflags(write=False)


def _floats(a, what: str) -> np.ndarray:
    """`a` as a read-only float array: one is kept as it is, anything else is
    copied once, and input that does not convert is a ValidationError."""
    if not isinstance(a, np.ndarray) or a.dtype != float or a.flags.writeable:
        try:
            a = np.array(a, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"{what}: not an array of numbers ({exc})") from None
        _read_only(a)
    return a


def _table(a, what: str) -> np.ndarray:
    """`_floats(a)`, a ValidationError unless it is a square, finite, >= 0,
    symmetric table with zero diagonal, a DegenerateInstanceError if empty.
    No n x n temporary: two reductions, which NaN fails, check the values,
    and the triangles are compared one row block at a time."""
    a = _floats(a, what)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{what} shape {a.shape} is not square")
    if not len(a):
        raise DegenerateInstanceError(f"{what} needs n >= 1, got 0")
    if not (a.min() >= 0 and a.max() < np.inf):
        raise ValidationError(f"{what} must be finite and >= 0")
    if a.diagonal().any():
        raise ValidationError(f"{what} has a nonzero diagonal")
    step = _block_rows(len(a))
    for lo in range(0, len(a), step):
        if not np.array_equal(a[lo:lo + step, lo:], a[lo:, lo:lo + step].T):
            raise ValidationError(f"{what} is not symmetric")
    return a


@dataclass(frozen=True, eq=False)
class Instance:
    """Immutable problem statement: coordinates (or explicit weights) plus a
    distance-function tag: read-only, finite (n, 2) ``coords`` or a `_table`
    of ``explicit_weights`` (EXPLICIT only); ``n`` is the row count of
    either."""

    name: str
    kind: str
    coords: Optional[np.ndarray] = None
    explicit_weights: Optional[np.ndarray] = None
    n: int = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ConfigError(f"instance name must be a str, got {self.name!r}")
        if self.kind not in SUPPORTED_KINDS:
            raise ConfigError(f"unsupported distance kind {self.kind!r}; "
                              f"expected one of {SUPPORTED_KINDS}")
        if self.kind == "EXPLICIT":
            if self.explicit_weights is None:
                raise ValidationError("EXPLICIT instance requires a weight table")
            w = _table(self.explicit_weights, "EXPLICIT weight table")
            object.__setattr__(self, "explicit_weights", w)
        elif self.explicit_weights is not None:
            raise ValidationError(f"instance {self.name!r}: a weight table "
                                  f"needs kind EXPLICIT, got {self.kind}")
        if self.kind != "EXPLICIT" or self.coords is not None:
            pts = _floats(() if self.coords is None else self.coords,
                          f"instance {self.name!r}: coordinates")
            if not pts.size:
                raise DegenerateInstanceError("instance needs n >= 1, got 0")
            if pts.ndim != 2 or pts.shape[1] != 2:
                raise ValidationError(f"instance {self.name!r}: coordinates "
                                      f"are not (x, y) pairs: {pts.shape}")
            if self.kind == "EXPLICIT" and len(pts) != len(w):
                raise ValidationError(f"instance {self.name!r}: expected "
                                      f"{len(w)} coordinate pairs, got {len(pts)}")
            if not np.all(np.isfinite(pts)):
                raise ValidationError(f"{self.name}: non-finite coordinate")
            object.__setattr__(self, "coords", pts)
        rows = self.explicit_weights if self.kind == "EXPLICIT" else self.coords
        object.__setattr__(self, "n", len(rows))


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric pairwise distances with zero diagonal; the only geometry
    consumers see.

    ``d``, an n x n table, is the objective that tour lengths are measured
    on. ``heuristic`` (default: ``d`` itself, the same array) is the geometry
    the construction scores on, of d's shape. Each is a `_table`. An EUC_2D
    or CEIL_2D build makes its ``d`` from ``heuristic`` on first read."""

    d: np.ndarray = field(repr=False)  # a repr would round an unrounded d
    heuristic: Optional[np.ndarray] = None
    n: int = field(init=False)

    def __post_init__(self) -> None:
        d = h = _table(self.d, "distance table")
        if self.heuristic is not None:
            h = _table(self.heuristic, "heuristic")
            if h.shape != d.shape:
                raise ValidationError(f"heuristic shape {h.shape} != {d.shape}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "heuristic", h)
        object.__setattr__(self, "n", len(d))

    def __getattr__(self, name: str) -> np.ndarray:
        # reached only for an attribute not set: an unrounded d
        rounding = vars(self).get("_rounding")
        if name != "d" or rounding is None:
            raise AttributeError(name)
        d = rounding(self.heuristic)
        _read_only(d)
        object.__setattr__(self, "d", d)
        return d


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


def _nint(exact: np.ndarray) -> np.ndarray:
    d = exact + 0.5
    return np.floor(d, out=d)


# The rounding of each kind that rounds the exact distance alone.
_ROUNDING = {"EUC_2D": _nint, "CEIL_2D": np.ceil}


def build_distance_matrix(instance: Instance) -> DistanceMatrix:
    """Full n x n matrix; EXPLICIT shares the instance's weight table, the
    coordinate kinds keep the exact Euclidean distances as the heuristic
    geometry, and d applies the TSPLIB rounding rules. ATT needs no other
    heuristic: its unrounded distance is the Euclidean one scaled by
    1/sqrt(10), and a common scale changes no ranking."""
    n = instance.n
    if n > MATRIX_MAX_N:
        raise SizeLimitError(
            f"distance matrix is limited to n <= {MATRIX_MAX_N}, got {n}")
    if instance.kind == "EXPLICIT":
        return DistanceMatrix(instance.explicit_weights)

    # A row block at a time, each cell by the plain outer expressions'
    # operations: d's rows (exact's, but for ATT) hold the squared distances
    x, y = instance.coords.T
    exact = np.empty((n, n))
    d = np.empty((n, n)) if instance.kind == "ATT" else exact
    step = _block_rows(n)
    block = np.empty((min(step, n), n))
    with np.errstate(over="ignore"):  # an inf fails DistanceMatrix's check
        for lo in range(0, n, step):
            sq, dy = d[lo:lo + step], block[:min(step, n - lo)]
            np.subtract.outer(x[lo:lo + step], x, out=sq)
            sq *= sq
            np.subtract.outer(y[lo:lo + step], y, out=dy)
            dy *= dy
            sq += dy
            np.sqrt(sq, out=exact[lo:lo + step])
            if d is not exact:
                # r = sqrt(sq / 10) in dy, t = nint(r), t if t >= r else t + 1
                sq /= 10.0
                np.sqrt(sq, out=dy)
                np.add(dy, 0.5, out=sq)
                np.floor(sq, out=sq)
                sq += np.less(sq, dy, out=dy)  # 1.0 where t < r, 0.0 elsewhere
    del block, dy  # before the checks
    _read_only(d, exact)  # fresh, so DistanceMatrix copies neither
    if d is not exact:
        return DistanceMatrix(d, heuristic=exact)
    matrix = DistanceMatrix(exact)  # one table to check; d is rounded later
    object.__delattr__(matrix, "d")
    object.__setattr__(matrix, "_rounding", _ROUNDING[instance.kind])
    return matrix


def city_stats(matrix: DistanceMatrix) -> CityStats:
    """Mean and population standard deviation of each city's n-1 distances
    in the heuristic geometry. Distances whose row sum, or the row sum of
    whose squared deviations from the mean, overflows a float are a
    ValidationError; an underflow is not. The squared deviations are summed
    one row block at a time, each row as the whole table would sum it."""
    n = matrix.n
    if n < 2:
        raise DegenerateInstanceError("city statistics need at least 2 cities")
    d = matrix.heuristic
    step = _block_rows(n)
    dev = np.empty((min(step, n), n))
    var = np.empty(n)
    with _FloatErrors(ValidationError, "distances too large: the city "
                      "statistics overflow the float range", over="raise"):
        mu = d.sum(axis=1) / (n - 1)
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            block = dev[:hi - lo]
            np.subtract(d[lo:hi], mu[lo:hi, None], out=block)
            block.flat[lo::n + 1] = 0.0  # cell (i, lo + i) of each row i
            block *= block
            np.sum(block, axis=1, out=var[lo:hi])
        var /= n - 1
    sigma = np.sqrt(var)
    _read_only(mu, sigma)
    return CityStats(mu=mu, sigma=sigma)


def _city(value, n: int, what: str) -> int:
    """`value` as a city index: an integer (`errors._integer`) in range(n)."""
    if not 0 <= (city := _integer(value, what)) < n:
        raise ConfigError(f"{what} {value} out of range for n={n}")
    return city


def _tour_order(order, n: int) -> Tuple[int, ...]:
    """`order` as a tuple of ints; a ValidationError unless each element is
    an integer by `errors._integer` (checked on one element of each type)
    and it holds each of 0..n-1 once. When every element is an integer,
    the error names the missing and unexpected cities."""
    try:
        cities = tuple(order)
        for c in dict(zip(map(type, cities), cities)).values():
            _integer(c, "a city index")
    except (TypeError, ConfigError) as exc:
        raise ValidationError(f"not a tour of {n} cities: {exc}") from None
    cities = tuple(map(operator.index, cities))
    if len(cities) != n or not set(cities).issuperset(range(n)):
        held, tour = Counter(cities), Counter(range(n))
        raise ValidationError(f"not a tour of {n} cities: missing "
                              f"{sorted(tour - held)}, unexpected "
                              f"{sorted(held - tour)}")
    return cities


def validate_tour(order: Sequence[int], n: int) -> bool:
    """Whether `_tour_order` takes `order` as a tour of n cities."""
    try:
        _tour_order(order, n)
    except ValidationError:
        return False
    return True


def tour_length(order: Sequence[int], matrix: DistanceMatrix) -> float:
    """Total cycle length including the closing edge."""
    return make_tour(order, matrix).length


def _loop_lengths(orders, matrix: DistanceMatrix) -> np.ndarray:
    """The lengths of the closed loops through the rows of `orders`, an
    r x n index array, unchecked: the one summation every tour length
    comes from. A row sums the same operands in the same order as a loop
    alone, so equal orders give equal floats, and until an unrounded d is
    first read, its cells are rounded as it would round them. A length
    that overflows a float is a ValidationError."""
    idx = np.asarray(orders, dtype=int)
    following = np.concatenate((idx[:, 1:], idx[:, :1]), axis=1)
    d = vars(matrix).get("d")
    with _FloatErrors(ValidationError, "distances too large: a tour length "
                      "overflows the float range", over="raise"):
        cells = (matrix._rounding(matrix.heuristic[idx, following])
                 if d is None else d[idx, following])
        return cells.sum(axis=1)


def make_tour(order: Sequence[int], matrix: DistanceMatrix) -> Tour:
    order = _tour_order(order, matrix.n)
    return Tour(order=order, length=float(_loop_lengths([order], matrix)[0]))


def _require_n(matrix: DistanceMatrix) -> int:
    """matrix.n, or a DegenerateInstanceError if it is too small to hold a
    tour or bound one: every call that does needs n >= 3."""
    if matrix.n < 3:
        raise DegenerateInstanceError(
            f"need at least 3 cities, got {matrix.n}")
    return matrix.n


def _ranked(key: np.ndarray) -> np.ndarray:
    """Indices by ascending `key` along its last axis, ties toward the lower
    index: the package's one (value, index) ranking."""
    return np.argsort(key, kind="stable")


class PathEndTracker:
    """The partial tour: a disjoint union of paths, grown one edge at a time
    and closed into one loop by its final edge.

    For every endpoint x, other_end[x] is the one city besides x that x may
    not join: the far end of x's path, or x itself for a singleton and, once
    one path holds every city (E == n - 1), for both of that path's ends,
    which the final edge joins into the loop. `degree`, `other_end` and
    `adjacent` (city x's neighbours in slots 2x and 2x + 1, in connect order)
    are lists, read one city at a time; `open`, the boolean array of the
    cities below degree 2 that the construction's masked row and the
    baselines' merge read, is a view of the `open_bytes` a join writes.
    """

    __slots__ = ("n", "other_end", "degree", "adjacent", "open_bytes",
                 "open", "edge_count")

    def __init__(self, n: int):
        self.n = n
        self.other_end = list(range(n))
        self.degree = [0] * n
        self.adjacent = [-1] * (2 * n)
        self.open_bytes = bytearray(b"\x01") * n
        self.open = np.frombuffer(self.open_bytes, dtype=bool)
        self.edge_count = 0

    def can_connect(self, a: int, b: int) -> bool:
        """Whether edge a-b keeps the partial tour a set of paths or closes
        it into one loop: both below degree 2, b not a and not other_end[a]."""
        if a == b or self.degree[a] >= 2 or self.degree[b] >= 2:
            return False
        return self.other_end[a] != b

    def connect(self, a: int, b: int) -> None:
        """Add edge a-b, which the caller has checked with `can_connect` or
        an equivalent filter; `cycle` catches edges that close more than
        one loop."""
        other_end, degree, adjacent = self.other_end, self.degree, self.adjacent
        end_a = other_end[a]
        end_b = other_end[b]
        other_end[end_a] = end_b
        other_end[end_b] = end_a
        deg = degree[a]
        adjacent[2 * a + deg] = b
        degree[a] = deg + 1
        if deg:
            self.open_bytes[a] = 0
        deg = degree[b]
        adjacent[2 * b + deg] = a
        degree[b] = deg + 1
        if deg:
            self.open_bytes[b] = 0
        self.edge_count += 1
        if self.edge_count == self.n - 1:  # all on one path: ends may join
            other_end[end_a], other_end[end_b] = end_a, end_b

    def cycle(self, start: Optional[int] = None) -> List[int]:
        """The closed loop's cities from `start` (a `_city`, or 0 if None),
        first along its first edge; an assert fails if the walk returns to
        `start` before all n cities (the edges close more than one loop)."""
        start = 0 if start is None else _city(start, self.n, "start city")
        assert self.edge_count == self.n, "the tour is not closed"
        adjacent = self.adjacent
        order = [start]
        prev, cur = start, adjacent[2 * start]
        for _ in range(self.n - 1):
            assert cur != start, \
                f"the edges close a loop of {len(order)} of {self.n} cities"
            order.append(cur)
            nxt = adjacent[2 * cur]
            prev, cur = cur, (nxt if nxt != prev else adjacent[2 * cur + 1])
        return order


def generate_random_euclidean(n: int, seed: int, box_side: float) -> Instance:
    """Uniform random points in [0, box_side]^2 with kind EUC_2D.

    Uses numpy's PCG64 bit generator (``np.random.Generator(np.random.PCG64(seed))``,
    two uniform doubles per city in x,y order), so identical (n, seed,
    box_side) reproduce identical coordinates on every platform.
    """
    n = _integer(n, "n")
    if n < 3:
        raise DegenerateInstanceError(f"random instance needs n >= 3, got {n}")
    box_side = _real(box_side, "box_side must be positive and finite, got "
                     "{!r}", positive=True)
    seed = _integer(seed, "seed", 0)
    rng = np.random.Generator(np.random.PCG64(seed))
    try:
        pts = rng.random((n, 2)) * box_side
    except (MemoryError, ValueError):  # numpy's refusals of a huge array
        raise SizeLimitError(f"random instance of n={n} cities is too large "
                             f"to allocate") from None
    return Instance(name=f"rand-n{n}-s{seed}", kind="EUC_2D", coords=pts)
