"""Dependency-free SVG box plots.

One figure shows the distribution of a metric (per-case Dice, usually)
for several groups side by side: a box from the first to the third
quartile, a median line, and whiskers to the minimum and maximum.  The
output is plain SVG 1.1 built with the standard XML tooling, so reports
stay viewable anywhere without a plotting stack.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np

from .errors import ValidationError
from .volume_io import write_file

_W, _H = 480, 320
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 56, 16, 34, 44


def _five_numbers(values) -> tuple[float, float, float, float, float]:
    arr = np.asarray(sorted(values), dtype=float)
    q1, med, q3 = (float(v) for v in np.percentile(arr, (25, 50, 75)))
    return float(arr[0]), q1, med, q3, float(arr[-1])


def _text(parent, x, y, s, size=12, anchor="middle"):
    el = ET.SubElement(parent, "text", {
        "x": f"{x:.1f}", "y": f"{y:.1f}", "font-size": str(size),
        "font-family": "sans-serif", "text-anchor": anchor, "fill": "#222",
    })
    el.text = s
    return el


def _line(parent, x1, y1, x2, y2, width=1.0):
    ET.SubElement(parent, "line", {
        "x1": f"{x1:.1f}", "y1": f"{y1:.1f}", "x2": f"{x2:.1f}", "y2": f"{y2:.1f}",
        "stroke": "#222", "stroke-width": f"{width:g}",
    })


def box_plot(path, groups: dict[str, list[float]], title: str, y_label: str) -> None:
    """Write one SVG with a box-and-whisker group per dict entry, on a
    value axis from 0 to 1 (values outside are drawn at its ends)."""
    if not groups:
        raise ValidationError("box_plot needs at least one group")
    for name, values in groups.items():
        if len(values) == 0:
            raise ValidationError(f"group {name!r} has no values")

    plot_w = _W - _MARGIN_L - _MARGIN_R
    plot_h = _H - _MARGIN_T - _MARGIN_B

    def ypix(v: float) -> float:
        return _MARGIN_T + plot_h * (1.0 - min(max(v, 0.0), 1.0))

    svg = ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "width": str(_W), "height": str(_H),
        "viewBox": f"0 0 {_W} {_H}",
    })
    ET.SubElement(svg, "rect", {
        "x": "0", "y": "0", "width": str(_W), "height": str(_H), "fill": "white",
    })
    _text(svg, _W / 2, 20, title, size=14)

    axes = ET.SubElement(svg, "g", {"class": "axes"})
    _line(axes, _MARGIN_L, _MARGIN_T, _MARGIN_L, _MARGIN_T + plot_h)
    _line(axes, _MARGIN_L, _MARGIN_T + plot_h, _MARGIN_L + plot_w, _MARGIN_T + plot_h)
    for i in range(5):
        v = i / 4
        y = ypix(v)
        _line(axes, _MARGIN_L - 4, y, _MARGIN_L, y)
        _text(axes, _MARGIN_L - 8, y + 4, f"{v:g}", size=11, anchor="end")
    el = _text(svg, 14, _MARGIN_T + plot_h / 2, y_label, size=12)
    el.set("transform", f"rotate(-90 14 {_MARGIN_T + plot_h / 2:.1f})")

    n = len(groups)
    slot_w = plot_w / n
    box_w = min(48.0, slot_w * 0.5)
    for i, (name, values) in enumerate(groups.items()):
        lo, q1, med, q3, hi = _five_numbers(values)
        cx = _MARGIN_L + slot_w * (i + 0.5)
        g = ET.SubElement(svg, "g", {"class": "box", "id": f"box-{name}"})
        _line(g, cx, ypix(lo), cx, ypix(q1))
        _line(g, cx, ypix(q3), cx, ypix(hi))
        _line(g, cx - box_w / 4, ypix(lo), cx + box_w / 4, ypix(lo))
        _line(g, cx - box_w / 4, ypix(hi), cx + box_w / 4, ypix(hi))
        ET.SubElement(g, "rect", {
            "x": f"{cx - box_w / 2:.1f}", "y": f"{ypix(q3):.1f}",
            "width": f"{box_w:.1f}", "height": f"{max(ypix(q1) - ypix(q3), 0.5):.1f}",
            "fill": "#9ecae1", "stroke": "#222", "stroke-width": "1",
        })
        _line(g, cx - box_w / 2, ypix(med), cx + box_w / 2, ypix(med), width=2.0)
        _text(g, cx, _MARGIN_T + plot_h + 18, name, size=12)

    ET.indent(svg)
    write_file(path, ET.tostring(svg, encoding="unicode", xml_declaration=True), "\n")
