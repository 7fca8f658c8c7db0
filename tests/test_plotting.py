import math
from xml.etree import ElementTree as ET

import pytest

from morphfin.errors import DomainError
from morphfin.plotting import PlotStyle, Series, emit_plot

SVG_NS = "{http://www.w3.org/2000/svg}"


def two_series():
    xs = [0.1 * i for i in range(50)]
    return [
        Series("sin", xs, [math.sin(x) for x in xs]),
        Series("cos", xs, [math.cos(x) for x in xs]),
    ]


def test_one_polyline_per_series():
    root = ET.fromstring(emit_plot(two_series(), PlotStyle(title="waves")))
    polylines = root.findall(f"{SVG_NS}polyline")
    assert len(polylines) == 2


def test_output_is_well_formed_xml():
    ET.fromstring(emit_plot(two_series(), PlotStyle()))  # raises on malformed XML


def test_y_axis_spans_data_within_padding():
    series = two_series()
    root = ET.fromstring(emit_plot(series, PlotStyle()))
    ticks = [
        float(el.text)
        for el in root.findall(f"{SVG_NS}text")
        if el.get("class") == "y-tick"
    ]
    data_min = min(min(s.y) for s in series)
    data_max = max(max(s.y) for s in series)
    span = data_max - data_min
    assert min(ticks) <= data_min
    assert max(ticks) >= data_max
    assert data_min - min(ticks) <= 0.05 * span
    assert max(ticks) - data_max <= 0.05 * span


def test_axis_labels_and_legend():
    root = ET.fromstring(emit_plot(two_series(), PlotStyle(x_label="time (s)", y_label="value")))
    texts = [el.text for el in root.findall(f"{SVG_NS}text")]
    assert "time (s)" in texts
    assert "value" in texts
    assert "sin" in texts and "cos" in texts


def test_mismatched_lengths_rejected():
    with pytest.raises(DomainError):
        emit_plot([Series("bad", [0.0, 1.0], [0.0])], PlotStyle())


def test_empty_series_rejected():
    with pytest.raises(DomainError):
        emit_plot([Series("empty", [], [])], PlotStyle())
    with pytest.raises(DomainError):
        emit_plot([], PlotStyle())


@pytest.mark.parametrize(
    "x, y",
    [
        ([1.7e308, -1.7e308], [0.0, 1.0]),
        ([0.0, 1.0], [1.7e308, -1.7e308]),
        ([0.0, 1.0], [1.79e308, 1.79e308]),  # padded by 4% of 1.79e308
    ],
)
def test_axis_beyond_the_double_range_rejected(x, y):
    axis = "x" if x[0] else "y"
    with pytest.raises(DomainError, match=f"the {axis} axis spans more than the double range"):
        emit_plot([Series("huge", x, y)], PlotStyle())


def test_axis_within_the_double_range_is_drawn():
    svg = emit_plot([Series("big", [0.0, 1.0], [1e308, 1.5e308])], PlotStyle())
    points = ET.fromstring(svg).find(f"{SVG_NS}polyline").get("points")
    assert "nan" not in points and "inf" not in points
