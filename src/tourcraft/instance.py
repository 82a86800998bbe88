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

Distances are floats in one matrix type even when the rule yields
integers. The rounded distances, ``d``, are the objective: every tour
length, and so every comparison between tours, is measured on them. The
construction's scores (the per-city statistics and the eq. 2 distance
term) read the matrix's heuristic geometry: the exact, unrounded Euclidean
distances for the coordinate kinds, and the weights themselves for
``EXPLICIT`` instances or a matrix built from an array. Per-city means use
the n-1 distances to the other cities and the standard deviation is the
population form over those n-1 values.

``_table`` is the one intake of an n x n table (``EXPLICIT`` weights, ``d``
and ``heuristic``): square, non-empty, finite, >= 0, symmetric, zero on the
diagonal, and stored read-only as floats like the coordinates (`_floats`).
A coordinate build holds no table: `_distances` computes any row block, row
or set of cells from the coordinates, cell by cell with the same float
operations, and makes ``d`` or ``heuristic`` whole, one row block at a
time, only when a whole-table reader (a baseline, a bound, a grid whose
one row block holds every row) first reads it.
Work over every row (`city_stats`, and the construction's neighbour sets
and scores) goes one row block at a time, `_block_rows(n)` rows of
BLOCK_BYTES, through `_row_blocks`, which reads the table where one is held.

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
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (ConfigError, DegenerateInstanceError, SizeLimitError,
                     ValidationError, _FloatErrors, _integer, _real)

SUPPORTED_KINDS = ("EUC_2D", "ATT", "CEIL_2D", "EXPLICIT")

# Largest n whose distance matrix is built. One n x n float64 array takes
# 8 n^2 bytes (800 MB at the limit). A coordinate build holds none, and
# makes d or the heuristic geometry (one table each, plus a row block of
# BLOCK_BYTES while it is filled) only when a whole-table reader reads it;
# an EXPLICIT matrix holds its weight table. Beyond the tables it holds,
# `city_stats` holds two row blocks of BLOCK_BYTES (the rows and their
# deviations) and every grid, `construct_tour`'s one point included, three
# (the rows, d^gamma and one rule's scores) and its O(n M) candidate lists.
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


@dataclass(frozen=True, eq=False, init=False)
class DistanceMatrix:
    """Symmetric pairwise distances with zero diagonal; the only geometry
    consumers see.

    ``d``, an n x n table, is the objective that tour lengths are measured
    on. ``heuristic`` (default: ``d`` itself, the same array) is the geometry
    the construction scores on, of d's shape. Each is a `_table`. A
    coordinate build holds neither: it keeps the coordinates, and
    `_distances` computes each table the first time it is read, and until
    then any row block, row or set of cells a reader asks for."""

    # no default or class attribute, which would hide an unmade table from
    # __getattr__, and no repr, which would make one
    d: np.ndarray = field(repr=False)
    heuristic: np.ndarray = field(repr=False)
    n: int

    def __init__(self, d, heuristic=None) -> None:
        d = h = _table(d, "distance table")
        if heuristic is not None:
            h = _table(heuristic, "heuristic")
            if h.shape != d.shape:
                raise ValidationError(f"heuristic shape {h.shape} != {d.shape}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "heuristic", h)
        object.__setattr__(self, "n", len(d))

    def __getattr__(self, name: str) -> np.ndarray:
        # reached only for an attribute not set: a coordinate build's tables
        if name not in ("d", "heuristic") or "_xy" not in vars(self):
            raise AttributeError(name)
        n, step = self.n, _block_rows(self.n)
        table = np.empty((n, n))
        for lo in range(0, n, step):
            _distances(self, np.s_[lo:lo + step, None], np.s_[:],
                       rounded=name == "d", out=table[lo:lo + step])
        _read_only(table)
        object.__setattr__(self, name, table)
        return table


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


def _distances(matrix: DistanceMatrix, a, b, rounded: bool = False,
               out: Optional[np.ndarray] = None,
               scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """The distances from cities `a` to cities `b` of a coordinate build,
    indices of its (2, n) coordinates that broadcast against each other (a
    row block is ``np.s_[lo:hi, None]`` to ``np.s_[:]``): the one reader
    that every value of its tables comes from, cell by cell the TSPLIB
    rules' float operations: the squared distance dx*dx + dy*dy and its
    sqrt, the heuristic geometry, or, `rounded`, the kind's rounding of d:
    EUC_2D floor(e + 0.5), CEIL_2D ceil(e), ATT t = nint(sqrt(sq / 10)),
    plus one where t < it. Into `out` if given, else a fresh array; dy is
    computed into `scratch`, an array of out's shape, if given."""
    x, y = matrix._xy
    sq = np.subtract(x[a], x[b], out=out)
    sq *= sq
    dy = np.subtract(y[a], y[b], out=scratch)
    dy *= dy
    sq += dy
    if rounded and matrix._kind == "ATT":
        sq /= 10.0
        np.sqrt(sq, out=dy)  # r
        np.add(dy, 0.5, out=sq)
        np.floor(sq, out=sq)  # t
        sq += np.less(sq, dy, out=dy)  # 1.0 where t < r, 0.0 elsewhere
        return sq
    np.sqrt(sq, out=sq)
    if rounded and matrix._kind == "EUC_2D":
        sq += 0.5
        np.floor(sq, out=sq)
    elif rounded:
        np.ceil(sq, out=sq)
    return sq


def _heuristic_rows(matrix: DistanceMatrix, lo: int, hi: int) -> np.ndarray:
    """Rows lo:hi of `matrix.heuristic`: a read-only view of the table where
    it is held, else computed by `_distances`."""
    table = vars(matrix).get("heuristic")
    if table is not None:
        return table[lo:hi]
    return _distances(matrix, np.s_[lo:hi, None], np.s_[:])


def _row_blocks(matrix: DistanceMatrix, scratch: np.ndarray,
                ) -> Iterable[Tuple[int, np.ndarray]]:
    """(lo, rows) for each block of `_block_rows(n)` rows of the heuristic
    geometry from row lo: views of the table where it is held, else
    computed by `_distances` into one buffer, which the next block
    overwrites, with `scratch`, the caller's array of one block, as its
    scratch space."""
    n, step = matrix.n, _block_rows(matrix.n)
    table = vars(matrix).get("heuristic")
    out = np.empty((min(step, n), n)) if table is None else None
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        yield lo, (table[lo:hi] if out is None else _distances(
            matrix, np.s_[lo:hi, None], np.s_[:], out=out[:hi - lo],
            scratch=scratch[:hi - lo]))


def _checked_matrix(**attributes) -> DistanceMatrix:
    """A DistanceMatrix of attributes that hold by construction, so no
    `_table` pass runs: the one way a build makes one."""
    matrix = object.__new__(DistanceMatrix)
    for name, value in attributes.items():
        object.__setattr__(matrix, name, value)
    return matrix


def build_distance_matrix(instance: Instance) -> DistanceMatrix:
    """The instance's distance matrix. EXPLICIT shares the weight table
    `Instance` checked, as both d and the heuristic geometry. The
    coordinate kinds hold no table: the matrix keeps the coordinates, the
    heuristic geometry is the exact Euclidean distance, and d applies the
    TSPLIB rounding rules (see `_distances`). ATT needs no other heuristic:
    its unrounded distance is the Euclidean one scaled by 1/sqrt(10), and a
    common scale changes no ranking. A distance that overflows a float is a
    ValidationError."""
    n = instance.n
    if n > MATRIX_MAX_N:
        raise SizeLimitError(
            f"distance matrix is limited to n <= {MATRIX_MAX_N}, got {n}")
    if instance.kind == "EXPLICIT":
        w = instance.explicit_weights
        return _checked_matrix(d=w, heuristic=w, n=n)
    xy = instance.coords.T.copy()
    _read_only(xy)
    matrix = _checked_matrix(_xy=xy, _kind=instance.kind, n=n)
    # Every float operation of a distance is monotone, so no squared
    # distance exceeds that of the coordinates' bounding box, and d is
    # finite where the exact distance is: only where the box's overflows
    # are the rows read.
    span = xy.max(axis=1) - xy.min(axis=1)
    step = _block_rows(n)
    with np.errstate(over="ignore"):
        if not ((span * span).sum() < np.inf or all(
                _heuristic_rows(matrix, lo, lo + step).max() < np.inf
                for lo in range(0, n, step))):
            raise ValidationError("distance table must be finite and >= 0")
    return matrix


def city_stats(matrix: DistanceMatrix,
               visit: Optional[Callable[[int, np.ndarray], None]] = None,
               ) -> CityStats:
    """Mean and population standard deviation of each city's n-1 distances
    in the heuristic geometry. Distances whose row sum, or the row sum of
    whose squared deviations from the mean, overflows a float are a
    ValidationError; an underflow is not. Each of `_row_blocks` is read
    once and summed row by row as the whole table would sum it; then
    `visit(lo, rows)`, if given, reads it too, and may overwrite it where
    it is writable, so that one pass over the rows serves both."""
    n = matrix.n
    if n < 2:
        raise DegenerateInstanceError("city statistics need at least 2 cities")
    dev = np.empty((min(_block_rows(n), n), n))
    mu, var = np.empty(n), np.empty(n)
    with _FloatErrors(ValidationError, "distances too large: the city "
                      "statistics overflow the float range", over="raise"):
        for lo, rows in _row_blocks(matrix, dev):
            hi = lo + len(rows)
            block = dev[:hi - lo]
            np.sum(rows, axis=1, out=mu[lo:hi])
            mu[lo:hi] /= n - 1
            np.subtract(rows, mu[lo:hi, None], out=block)
            block.flat[lo::n + 1] = 0.0  # cell (i, lo + i) of each row i
            block *= block
            np.sum(block, axis=1, out=var[lo:hi])
            if visit is not None:
                visit(lo, rows)
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
    alone, so equal orders give equal floats, and until a coordinate
    build's d is first read, `_distances` computes just the cells gathered.
    A length that overflows a float is a ValidationError."""
    idx = np.asarray(orders, dtype=int)
    following = np.concatenate((idx[:, 1:], idx[:, :1]), axis=1)
    d = vars(matrix).get("d")
    with _FloatErrors(ValidationError, "distances too large: a tour length "
                      "overflows the float range", over="raise"):
        cells = (_distances(matrix, idx, following, rounded=True)
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
