"""SVG line plots: polyline coordinates against the per-point scalar form."""

import inspect
import re
import tracemalloc
import warnings
from xml.etree import ElementTree

import numpy as np
import pytest

from abring.svgplot import HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, WIDTH, write_line_plot

POINTS = re.compile(r'<polyline points="([^"]*)"')


def reference_points(x, series):
    """Polyline ``points`` strings from scalar px/py and f-string formatting."""
    x = [float(v) for v in x]
    ys = [[float(v) for v in s] for s in series]
    x_lo, x_hi = min(x), max(x)
    y_lo = min(min(s) for s in ys)
    y_hi = max(max(s) for s in ys)
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    inner_w = WIDTH - MARGIN_L - MARGIN_R
    inner_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(v):
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * inner_w

    def py(v):
        return MARGIN_T + (y_hi - v) / (y_hi - y_lo) * inner_h

    return [" ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x, y)) for y in ys]


def written_points(tmp_path, x, series):
    path = tmp_path / "plot.svg"
    labels = [f"s{i}" for i in range(len(series))]
    write_line_plot(str(path), x, series, labels, "title", "x", "y")
    return POINTS.findall(path.read_text(encoding="utf-8"))


def _random_series():
    rng = np.random.default_rng(20240611)
    x = np.sort(rng.uniform(-3.0, 7.0, 2001))
    return x, list(rng.normal(0.4, 0.2, (5, x.size)))


CASES = {
    "seeded-random": _random_series(),
    "phase-grid": (np.arange(720) * (2.0 * np.pi / 720), [np.cos(np.arange(720) * 0.01)]),
    "constant": (np.linspace(0.0, 1.0, 33), [np.full(33, 0.25), np.full(33, 0.25)]),
    "single-x": ([0.5], [[0.3], [0.7]]),
    "negative": (np.linspace(-9.0, -1.0, 50), [-np.linspace(1.0, 3.0, 50) ** 2]),
    # px = 72 + 39 k / 64 lands exactly on ties such as 72.125, where a
    # one-ulp change in px moves the printed "%.2f" digit.
    "binary-ties": (np.arange(1025) / 1024.0, [np.sin(np.arange(1025) / 100.0)]),
    # The same ties (px = 72 + 39 k / 512) across the 4,096-point chunk
    # edges of a polyline, whose last chunk holds one point.
    "binary-ties-on-chunk-edges": (np.arange(8193) / 8192.0, [np.sin(np.arange(8193) / 50.0)]),
    "wide-range": (
        np.logspace(-300, 300, 61),
        [np.logspace(-300, 300, 61), -np.logspace(-12, 12, 61), np.full(61, 5e-324)],
    ),
}


@pytest.mark.parametrize("x, series", list(CASES.values()), ids=list(CASES))
def test_polylines_equal_scalar_reference(tmp_path, x, series):
    assert written_points(tmp_path, x, series) == reference_points(x, series)


# Data the writer cannot place raise before the file is opened, with no
# numpy warning on the way.  A constant axis is widened by 1.0 (x) or 0.5
# each way (y), which vanishes next to 1e300.
REJECTED_CASES = {
    "infinite-x": ([0.0, np.inf], [[0.2, 0.3]], "cannot place"),
    "nan-y": ([0.0, 0.5, 1.0], [[0.2, 0.3, 0.4], [0.1, np.nan, 0.3]], "cannot place"),
    "overflowing-x-span": ([-1e308, 1e308], [[0.2, 0.3]], "cannot place"),
    # The y span, 1.7e308, is finite; padded by 5% each way it is not.
    "overflowing-padded-y-span": ([0.0, 1.0], [[0.0, 1.7e308]], "cannot place"),
    "empty-x": ([], [[]], "nothing to plot"),
    "no-series": ([0.0, 1.0], [], "nothing to plot"),
    "vanishing-x-span": ([1e300], [[0.3]], "cannot place"),
    "vanishing-y-span": ([0.0, 1.0], [[1e300, 1e300]], "cannot place"),
}


@pytest.mark.parametrize("x, series, message", list(REJECTED_CASES.values()), ids=list(REJECTED_CASES))
def test_unplaceable_data_are_rejected(tmp_path, x, series, message):
    path = tmp_path / "plot.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            write_line_plot(str(path), x, series, [f"s{i}" for i in range(len(series))], "t", "x", "y")
    assert not path.exists()


@pytest.mark.parametrize("n_series, n_labels", [(3, 1), (1, 2)])
def test_one_label_per_series(tmp_path, n_series, n_labels):
    path = tmp_path / "p.svg"
    with pytest.raises(ValueError, match="labels"):
        write_line_plot(str(path), [0.0, 1.0], [[0.0, 1.0]] * n_series, ["a"] * n_labels, "t", "x", "y")


@pytest.mark.parametrize("n_y", [10, 4095, 5000])
def test_series_length_must_match_x(tmp_path, n_y):
    # 5,000 values run past the first 4,096-point chunk of a 4,096-point x.
    path = tmp_path / "p.svg"
    x = np.linspace(0.0, 1.0, 4096)
    with pytest.raises(ValueError, match="shape of x"):
        write_line_plot(str(path), x, [np.zeros(4096), np.zeros(n_y)], ["a", "b"], "t", "x", "y")


def test_positional_signature(tmp_path):
    # The benchmark tracer reads x and series as args[1] and args[2].
    params = list(inspect.signature(write_line_plot).parameters.values())
    names = ["path", "x", "series", "labels", "title", "xlabel", "ylabel"]
    assert [p.name for p in params] == names
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    path = tmp_path / "p.svg"
    write_line_plot(str(path), [0.0, 1.0], [[0.0, 1.0]], ["a"], "t", "x", "y")
    assert len(POINTS.findall(path.read_text(encoding="utf-8"))) == 1


def test_document_is_streamed(tmp_path):
    x = np.linspace(0.0, 2.0 * np.pi, 100_000)
    series = list(np.random.default_rng(5).normal(0.4, 0.2, (5, x.size)))
    path = tmp_path / "big.svg"
    tracemalloc.start()
    try:
        write_line_plot(str(path), x, series, list("abcde"), "title", "x", "y")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Holding the document as one string, or its polylines as a list of
    # strings, costs more than the whole file.
    assert peak < path.stat().st_size / 2


def test_text_is_escaped(tmp_path):
    path = tmp_path / "p.svg"
    write_line_plot(str(path), [0.0, 1.0], [[0.1, 0.2]], ["R&D"], "T < 1", "x > 0", "<y>")
    texts = [el.text for el in ElementTree.parse(path).iter("{http://www.w3.org/2000/svg}text")]
    assert texts[0] == "T < 1"
    assert texts[-3:] == ["x > 0", "<y>", "R&D"]
