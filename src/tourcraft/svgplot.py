"""Static SVG rendering of a tour over a coordinate instance.

Cities are dots and the heuristic tour a solid closed polyline. Output is
deterministic text.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ConfigError, ValidationError
from .instance import Instance, validate_tour

_MARGIN = 20.0
_WIDTH = 800.0


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def plot_tour_svg(instance: Instance, order: Sequence[int]) -> str:
    """Render the tour as an SVG 1.1 document string."""
    if instance.coords is None:
        raise ConfigError("cannot plot an EXPLICIT (coordinate-free) instance")
    if not validate_tour(order, instance.n):
        raise ValidationError(f"order is not a tour of {instance.n} cities")
    pts = instance.coords
    lo = pts.min(axis=0)
    span_x, span_y = (float(v) or 1.0 for v in pts.max(axis=0) - lo)
    scale = (_WIDTH - 2 * _MARGIN) / max(span_x, span_y)
    height = span_y * scale + 2 * _MARGIN
    px = (pts - lo) * scale + _MARGIN
    px[:, 1] = height - px[:, 1]  # flip y so north is up
    cells = [(_fmt(x), _fmt(y)) for x, y in px.tolist()]

    def path_d(seq) -> str:
        return "M " + " L ".join(" ".join(cells[i]) for i in seq) + " Z"

    # str.replace, not xml.sax.saxutils, which imports urllib and ssl
    title = (instance.name.replace("&", "&amp;").replace("<", "&lt;")
             .replace(">", "&gt;"))
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(_WIDTH)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(_WIDTH)} {_fmt(height)}">',
        f'<title>{title}</title>',
        f'<path d="{path_d(order)}" fill="none" stroke="#1f4e9c" '
        'stroke-width="1.5"/>',
    ]
    for x, y in cells:
        lines.append(f'<circle cx="{x}" cy="{y}" r="2.5" '
                     'fill="#c03020"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
