"""Standalone SVG line charts for sweep and trajectory outputs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence
from xml.etree import ElementTree as ET

from .errors import DomainError

_SVG_NS = "http://www.w3.org/2000/svg"

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

PAD_FRACTION = 0.04  # axis padding each side, must stay under 5% of the span


@dataclass(frozen=True)
class Series:
    name: str
    x: Sequence[float]
    y: Sequence[float]


@dataclass(frozen=True)
class PlotStyle:
    title: str = ""
    x_label: str = "x"
    y_label: str = "y"


def _axis_range(lo: float, hi: float, axis: str) -> tuple[float, float]:
    span = hi - lo
    if span == 0.0:
        span = abs(hi) if hi != 0.0 else 1.0
    pad = PAD_FRACTION * span
    if not ((hi + pad) - (lo - pad) < math.inf):
        raise DomainError(f"the {axis} axis spans more than the double range")
    return lo - pad, hi + pad


def emit_plot(series: list[Series], style: PlotStyle, destination) -> Path:
    """Render one polyline per series with axes, tick labels, and a legend.

    The output is well-formed standalone SVG; the vertical axis spans the
    data range with small symmetric padding.
    """
    if not series:
        raise DomainError("at least one series is required")
    for s in series:
        if len(s.x) == 0:
            raise DomainError(f"series {s.name!r} is empty")
        if len(s.x) != len(s.y):
            raise DomainError(
                f"series {s.name!r} has mismatched lengths "
                f"({len(s.x)} x vs {len(s.y)} y)"
            )

    x_min = min(min(s.x) for s in series)
    x_max = max(max(s.x) for s in series)
    y_min = min(min(s.y) for s in series)
    y_max = max(max(s.y) for s in series)
    ax0, ax1 = _axis_range(x_min, x_max, "x")
    ay0, ay1 = _axis_range(y_min, y_max, "y")

    w, h = 640, 440
    ml, mr, mt, mb = 70, 20, 40, 50  # plot margins
    pw, ph = w - ml - mr, h - mt - mb

    def sx(x: float) -> float:
        return ml + (x - ax0) / (ax1 - ax0) * pw

    def sy(y: float) -> float:
        return mt + ph - (y - ay0) / (ay1 - ay0) * ph

    ET.register_namespace("", _SVG_NS)
    svg = ET.Element(
        f"{{{_SVG_NS}}}svg",
        {"width": str(w), "height": str(h), "viewBox": f"0 0 {w} {h}"},
    )

    def element(tag: str, attrs: dict[str, str]) -> ET.Element:
        return ET.SubElement(svg, f"{{{_SVG_NS}}}{tag}", attrs)

    def text(content: str, attrs: dict[str, str]) -> None:
        element("text", attrs).text = content

    if style.title:
        text(style.title, {"x": str(w / 2), "y": "22", "text-anchor": "middle", "font-size": "15"})

    # axes
    element("rect", {
        "x": str(ml), "y": str(mt), "width": str(pw), "height": str(ph),
        "fill": "none", "stroke": "#333",
    })

    def tick_text(x: float, y: float, value: float, anchor: str, cls: str) -> None:
        place = {"x": format(x, ".1f"), "y": format(y, ".1f"), "text-anchor": anchor}
        text(format(value, ".6g"), {**place, "font-size": "11", "class": cls})

    n_ticks = 5
    for i in range(n_ticks):
        fx = ax0 + (ax1 - ax0) * i / (n_ticks - 1)
        fy = ay0 + (ay1 - ay0) * i / (n_ticks - 1)
        tick_text(sx(fx), mt + ph + 16, fx, "middle", "x-tick")
        tick_text(ml - 6, sy(fy) + 4, fy, "end", "y-tick")

    label = {"text-anchor": "middle", "font-size": "13"}
    text(style.x_label, {"x": str(ml + pw / 2), "y": str(h - 12), **label, "class": "x-label"})
    text(style.y_label, {
        "x": "16", "y": str(mt + ph / 2), **label, "class": "y-label",
        "transform": f"rotate(-90 16 {mt + ph / 2})",
    })

    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(s.x, s.y))
        element("polyline", {
            "points": points, "fill": "none", "stroke": color, "stroke-width": "1.5",
            "data-name": s.name,
        })
        # legend entry
        ly = mt + 14 + 16 * i
        element("line", {
            "x1": str(ml + pw - 110), "x2": str(ml + pw - 90), "y1": str(ly - 4),
            "y2": str(ly - 4), "stroke": color, "stroke-width": "2",
        })
        text(s.name, {"x": str(ml + pw - 84), "y": str(ly), "font-size": "11", "class": "legend"})

    dest = Path(destination)
    dest.parent.mkdir(parents=True, exist_ok=True)  # once the plot is known drawable
    ET.ElementTree(svg).write(dest, xml_declaration=True, encoding="utf-8")
    return dest
