"""Static SVG rendering of a tour over a coordinate instance.

Cities are dots and the heuristic tour a solid closed polyline. Output is
deterministic text. The order must pass `instance._tour_order`, the one
tour check (no bool or integral float is a city), or it is a ValidationError.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ConfigError
from .instance import Instance, _tour_order

_MARGIN = 20.0
_WIDTH = 800.0


def plot_tour_svg(instance: Instance, order: Sequence[int]) -> str:
    """Render the tour as an SVG 1.1 document string."""
    if instance.coords is None:
        raise ConfigError("cannot plot an EXPLICIT (coordinate-free) instance")
    order = _tour_order(order, instance.n)
    pts = instance.coords
    lo = pts.min(axis=0)
    span_x, span_y = (float(v) or 1.0 for v in pts.max(axis=0) - lo)
    scale = (_WIDTH - 2 * _MARGIN) / max(span_x, span_y)
    height = span_y * scale + 2 * _MARGIN
    px = (pts - lo) * scale + _MARGIN
    px[:, 1] = height - px[:, 1]  # flip y so north is up
    cells = [(f"{x:.2f}", f"{y:.2f}") for x, y in px.tolist()]
    path = "M " + " L ".join(" ".join(cells[i]) for i in order) + " Z"

    # str.replace, not xml.sax.saxutils, which imports urllib and ssl
    title = (instance.name.replace("&", "&amp;").replace("<", "&lt;")
             .replace(">", "&gt;"))
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH:.2f}" height="{height:.2f}" '
        f'viewBox="0 0 {_WIDTH:.2f} {height:.2f}">',
        f'<title>{title}</title>',
        f'<path d="{path}" fill="none" stroke="#1f4e9c" '
        'stroke-width="1.5"/>',
    ]
    lines += (f'<circle cx="{x}" cy="{y}" r="2.5" fill="#c03020"/>'
              for x, y in cells)
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
