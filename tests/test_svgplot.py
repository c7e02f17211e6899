"""SVG box plots: geometry against hand-computed pixel positions."""

import xml.etree.ElementTree as ET

import pytest

from dicegrad.errors import ValidationError
from dicegrad.svgplot import box_plot

NS = {"s": "http://www.w3.org/2000/svg"}

# figure geometry from the module: 480x320 canvas, margins L56 R16 T34 B44
# with the fixed (0, 1) value range, so value v maps to y = 34 + 242*(1-v)
def ypix(v):
    return 34 + 242 * (1 - v)


def render(tmp_path, groups, title="t", y_label="y"):
    path = tmp_path / "plot.svg"
    box_plot(str(path), groups, title, y_label)
    return ET.parse(path).getroot()


def boxes(root):
    return [g for g in root.iter("{http://www.w3.org/2000/svg}g")
            if g.get("class") == "box"]


def test_median_box_and_whiskers_at_exact_pixels(tmp_path):
    # five evenly spaced points make the quartiles land on the data
    root = render(tmp_path, {"a": [0.0, 0.25, 0.5, 0.75, 1.0]})
    (g,) = boxes(root)
    median = [ln for ln in g.findall("s:line", NS)
              if ln.get("stroke-width") == "2"]
    assert len(median) == 1
    assert float(median[0].get("y1")) == pytest.approx(ypix(0.5))
    rect = g.find("s:rect", NS)
    assert float(rect.get("y")) == pytest.approx(ypix(0.75))
    assert float(rect.get("height")) == pytest.approx(ypix(0.25) - ypix(0.75))
    whisker_ys = {float(ln.get("y1")) for ln in g.findall("s:line", NS)}
    assert ypix(0.0) in whisker_ys          # y attributes are exact .1f values
    assert ypix(1.0) in whisker_ys


def test_one_group_per_entry_with_ids(tmp_path):
    root = render(tmp_path, {"ce": [0.2, 0.3], "bsd": [0.8, 0.9]},
                  title="dsc", y_label="dice")
    got = boxes(root)
    assert [g.get("id") for g in got] == ["box-ce", "box-bsd"]
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    for expected in ("dsc", "dice", "ce", "bsd"):
        assert expected in texts


def test_axis_ticks_quarter_spaced(tmp_path):
    root = render(tmp_path, {"a": [0.5]})
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    for tick in ("0", "0.25", "0.5", "0.75", "1"):
        assert tick in texts


def test_values_clamp_to_range(tmp_path):
    root = render(tmp_path, {"a": [-1.0, 0.5, 2.0]})
    (g,) = boxes(root)
    ys = {float(ln.get("y1")) for ln in g.findall("s:line", NS)}
    ys |= {float(ln.get("y2")) for ln in g.findall("s:line", NS)}
    assert max(ys) <= ypix(0.0)
    assert min(ys) >= ypix(1.0)


def test_validation():
    with pytest.raises(ValidationError, match="at least one"):
        box_plot("/tmp/x.svg", {}, "t", "y")
    with pytest.raises(ValidationError, match="no values"):
        box_plot("/tmp/x.svg", {"a": []}, "t", "y")
