"""TSPLIB file I/O: instance parsing, tour files, and the known-optima fixture.

Internal city indices are 0-based; TSPLIB files are 1-based. The conversion
happens exactly once in each direction, here.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import ParseError, ValidationError
from .instance import SUPPORTED_KINDS, Instance, Tour

# EDGE_WEIGHT_FORMAT -> number of values its section holds for n cities
_WEIGHT_COUNTS = {"FULL_MATRIX": lambda n: n * n,
                  "UPPER_ROW": lambda n: n * (n - 1) // 2,
                  "LOWER_DIAG_ROW": lambda n: n * (n + 1) // 2}


@dataclass(frozen=True)
class OptimaTable:
    """Best known route length per instance name."""

    entries: Dict[str, int]

    def lookup(self, name: str) -> Optional[int]:
        return self.entries.get(name)


def _lines(text: str):
    """Yield (line_number, stripped_line) skipping blanks; every text this
    module reads comes through here, and one that is not a str is a
    ParseError."""
    if not isinstance(text, str):
        raise ParseError(f"expected text (a str), got {type(text).__name__}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line:
            yield lineno, line


def _sections(text: str):
    """The header's 'KEY: value' pairs (keys upper-cased), and the
    (line_number, line) pairs under each '*_SECTION' keyword, up to EOF."""
    header: Dict[str, str] = {}
    sections: Dict[str, List[Tuple[int, str]]] = {}
    body = None
    for lineno, line in _lines(text):
        key, colon, value = line.partition(":")
        key = key.strip().upper()
        if key == "EOF":
            break
        if key.endswith("_SECTION"):
            body = sections.setdefault(key, [])
        elif body is not None:
            body.append((lineno, line))
        elif colon:
            header[key] = value.strip()
    return header, sections


def parse_tsplib(text: str) -> Instance:
    """Parse a TSPLIB instance (keyword header + coordinate or weight section).

    Only NODE_COORD_SECTION, or EDGE_WEIGHT_SECTION for EXPLICIT, is read;
    unknown keywords and other sections are skipped. Unsupported
    EDGE_WEIGHT_TYPE values and malformed numbers raise ParseError naming
    the line. DIMENSION must match the count of coordinate lines before
    any city is placed: city i is the line of node number i + 1, and a line
    other than 'node x y', or a node number that is not an integer, lies
    outside 1..DIMENSION or repeats, is a ParseError naming the line.
    """
    header, sections = _sections(text)
    if "DIMENSION" not in header:
        raise ParseError("missing DIMENSION keyword")
    try:
        n = int(header["DIMENSION"])
    except ValueError:
        raise ParseError(f"malformed DIMENSION: {header['DIMENSION']!r}")
    if n < 1:
        raise ParseError(f"DIMENSION must be positive, got {n}")

    kind = header.get("EDGE_WEIGHT_TYPE", "").upper()
    if kind not in SUPPORTED_KINDS:
        raise ParseError(f"unsupported EDGE_WEIGHT_TYPE {kind!r}; supported: "
                         f"{', '.join(SUPPORTED_KINDS)}")
    name = header.get("NAME", "unnamed")

    if kind == "EXPLICIT":
        fmt = header.get("EDGE_WEIGHT_FORMAT", "FULL_MATRIX").upper()
        if fmt not in _WEIGHT_COUNTS:
            raise ParseError(f"unsupported EDGE_WEIGHT_FORMAT {fmt!r}")
        w = _assemble_weights(sections.get("EDGE_WEIGHT_SECTION", []), n, fmt)
        return Instance(name=name, kind="EXPLICIT", explicit_weights=w)

    coords = _node_coords(sections.get("NODE_COORD_SECTION", []), n)
    return Instance(name=name, kind=kind, coords=coords)


def _node_coords(lines: List[Tuple[int, str]], n: int) -> List[tuple]:
    """The (x, y) of nodes 1..n from their NODE_COORD_SECTION lines
    'node x y', each placed by its node number, whatever the line order."""
    if len(lines) != n:
        raise ParseError(f"DIMENSION is {n} but found {len(lines)} "
                         f"coordinate lines")
    coords: List[Optional[tuple]] = [None] * n
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: coordinate line needs "
                             f"'index x y', got {line!r}")
        try:
            node = int(parts[0])
        except ValueError:
            raise ParseError(f"line {lineno}: node number {parts[0]!r} is "
                             f"not an integer")
        if not 1 <= node <= n:
            raise ParseError(f"line {lineno}: node {node} is outside "
                             f"1..{n} (DIMENSION)")
        if coords[node - 1] is not None:
            raise ParseError(f"line {lineno}: node {node} is repeated")
        try:
            coords[node - 1] = (float(parts[1]), float(parts[2]))
        except ValueError:
            raise ParseError(f"line {lineno}: malformed number in {line!r}")
    return coords


def _assemble_weights(lines: list, n: int, fmt: str) -> np.ndarray:
    """Full table from EDGE_WEIGHT_SECTION lines; instance._table checks it."""
    values: List[float] = []
    for lineno, line in lines:
        try:
            values.extend(float(tok) for tok in line.split())
        except ValueError:
            raise ParseError(f"line {lineno}: malformed number in {line!r}")
    expected = _WEIGHT_COUNTS[fmt](n)
    if len(values) != expected:
        raise ParseError(f"{fmt} needs {expected} values, got {len(values)}")
    if fmt == "FULL_MATRIX":
        w = np.array(values, dtype=float).reshape(n, n)
    else:
        # both index orders are TSPLIB's row-major order of the triangle
        rows, cols = (np.triu_indices(n, 1) if fmt == "UPPER_ROW"
                      else np.tril_indices(n))
        w = np.zeros((n, n))
        w[rows, cols] = w[cols, rows] = values
    np.fill_diagonal(w, 0.0)
    return w


def write_tsplib(instance: Instance) -> str:
    """Serialize a coordinate instance as a TSPLIB .tsp file (1-based node
    numbers, coordinates with 6 decimals). EXPLICIT, with or without display
    coordinates, is a ValidationError: no weight section is written."""
    if instance.kind == "EXPLICIT":
        raise ValidationError(f"{instance.name}: EXPLICIT is not written")
    lines = [f"NAME: {instance.name}",
             "TYPE: TSP",
             f"DIMENSION: {instance.n}",
             f"EDGE_WEIGHT_TYPE: {instance.kind}",
             "NODE_COORD_SECTION"]
    lines.extend(f"{i + 1} {x:.6f} {y:.6f}"
                 for i, (x, y) in enumerate(instance.coords))
    lines.append("EOF")
    return "\n".join(lines) + "\n"


def write_tour(tour: Tour, name: str) -> str:
    """Serialize a tour in TSPLIB .tour format (1-based, -1 terminated)."""
    lines = [f"NAME: {name}",
             "TYPE: TOUR",
             f"DIMENSION: {len(tour.order)}",
             "TOUR_SECTION"]
    lines.extend(str(c + 1) for c in tour.order)
    lines.append("-1")
    lines.append("EOF")
    return "\n".join(lines) + "\n"


def parse_tour(text: str) -> List[int]:
    """Read a TSPLIB .tour file's TOUR_SECTION back as a 0-based order."""
    order: List[int] = []
    for lineno, line in _sections(text)[1].get("TOUR_SECTION", []):
        for tok in line.split():
            if tok == "-1":
                return order
            try:
                order.append(int(tok) - 1)
            except ValueError:
                raise ParseError(f"line {lineno}: malformed tour index {tok!r}")
            if order[-1] < 0:
                raise ParseError(f"line {lineno}: tour node {tok} is below 1")
    return order


def load_optima(text: str) -> OptimaTable:
    """Parse a two-column name/length fixture; '#' starts a comment."""
    entries: Dict[str, int] = {}
    for lineno, line in _lines(text):
        if line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'name length', got {line!r}")
        name, raw = parts
        try:
            length = int(raw)
        except ValueError:
            raise ParseError(f"line {lineno}: malformed length {raw!r}")
        if name in entries:
            raise ValidationError(f"duplicate optimum entry for {name!r}")
        if length <= 0:
            raise ValidationError(f"non-positive optimum for {name!r}: {length}")
        entries[name] = length
    return OptimaTable(entries=entries)


def default_optima() -> OptimaTable:
    """The bundled best-known-length fixture."""
    text = resources.files("tourcraft.data").joinpath("optima.txt").read_text()
    return load_optima(text)
