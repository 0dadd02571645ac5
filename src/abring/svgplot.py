"""Minimal deterministic SVG line plots.

Hand-rolled polylines instead of a plotting library so repeated runs with
the same inputs produce byte-identical files.  CSV output remains the
artifact of record; these plots are a quick visual check only.

Polyline coordinates are computed on whole arrays and formatted in bulk,
byte for byte as per-value ``'%.2f' % v`` would format them (``_text``).
Data whose spans are not positive and finite are rejected, so every
coordinate lies inside the plot box.  The document goes to the open file
piece by piece, so no polyline is ever held as a string.

The array expressions must keep the scalar operation order,
``MARGIN_L + (x - x_lo) / (x_hi - x_lo) * inner_w``: elementwise IEEE
``+ - * /`` then gives the same doubles as the per-point scalar form, and
the file stays bit-identical to it.  Reordering or folding the operations
(say, precomputing ``inner_w / (x_hi - x_lo)``) can move a coordinate by
one ulp, which changes a printed digit when it sits on a decimal tie.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import _text

__all__ = ["write_line_plot"]

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 24, 36, 56
PALETTE = ["#0072b2", "#d55e00", "#009e73", "#cc79a7", "#e69f00", "#56b4e9", "#949494"]
N_TICKS = 5


def write_line_plot(
    path: str,
    x: Sequence[float],
    series: Sequence[Sequence[float]],
    labels: Sequence[str],
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """Write one SVG with a shared x axis and one polyline per series.

    Raises ``ValueError`` before the file is opened unless x is not empty,
    there is at least one series, one label per series and one value per
    x in every series, and the x span and the padded y span are positive
    and finite.  That rejects infinite and nan values, spans that overflow,
    and a constant axis too large for its widening to show.
    """
    x = np.asarray(x, dtype=float)
    ys = [np.asarray(s, dtype=float) for s in series]
    if len(ys) != len(labels):
        raise ValueError(f"{len(ys)} series but {len(labels)} labels")
    if any(y.shape != x.shape for y in ys):
        raise ValueError(f"every series must have the shape of x, {x.shape}")
    if x.size == 0 or not ys:
        raise ValueError(f"nothing to plot: {x.size} x values, {len(ys)} series")
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo = float(np.min([s.min() for s in ys]))  # np.min, not min: a nan must carry
    y_hi = float(np.max([s.max() for s in ys]))
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if not (0.0 < x_hi - x_lo < np.inf and 0.0 < y_hi - y_lo < np.inf):
        raise ValueError(f"cannot place the data: x span {x_hi - x_lo!r}, padded y span {y_hi - y_lo!r}")

    inner_w = WIDTH - MARGIN_L - MARGIN_R
    inner_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(v: np.ndarray | float) -> np.ndarray | float:
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * inner_w

    def py(v: np.ndarray | float) -> np.ndarray | float:
        return MARGIN_T + (y_hi - v) / (y_hi - y_lo) * inner_h

    with open(path, "wb") as fh:

        def put(*lines: str) -> None:
            fh.write("".join(line + "\n" for line in lines).encode("utf-8"))

        axis_color = "#333333"
        put(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2:.1f}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>',
            f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{inner_w}" height="{inner_h}" '
            f'fill="none" stroke="{axis_color}" stroke-width="1"/>',
        )
        for tick in np.linspace(x_lo, x_hi, N_TICKS):
            tx = px(tick)
            put(
                f'<line x1="{tx:.2f}" y1="{MARGIN_T + inner_h}" x2="{tx:.2f}" '
                f'y2="{MARGIN_T + inner_h + 5}" stroke="{axis_color}" stroke-width="1"/>',
                f'<text x="{tx:.2f}" y="{MARGIN_T + inner_h + 20}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{tick:.4g}</text>',
            )
        for tick in np.linspace(y_lo, y_hi, N_TICKS):
            ty = py(tick)
            put(
                f'<line x1="{MARGIN_L - 5}" y1="{ty:.2f}" x2="{MARGIN_L}" y2="{ty:.2f}" '
                f'stroke="{axis_color}" stroke-width="1"/>',
                f'<text x="{MARGIN_L - 9}" y="{ty + 4:.2f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11">{tick:.4g}</text>',
            )
        put(
            f'<text x="{MARGIN_L + inner_w / 2:.1f}" y="{HEIGHT - 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{xlabel}</text>',
            f'<text x="18" y="{MARGIN_T + inner_h / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 18 {MARGIN_T + inner_h / 2:.1f})">{ylabel}</text>',
        )
        for i, (y, label) in enumerate(zip(ys, labels)):
            color = PALETTE[i % len(PALETTE)]
            fh.write(b'<polyline points="')
            fh.writelines(_text.rows([px(x), py(y)], "%.2f", b", ", end=b""))
            ly = MARGIN_T + 14 + 16 * i
            lx = MARGIN_L + inner_w - 150
            put(
                f'" fill="none" stroke="{color}" stroke-width="1.5"/>',
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="1.5"/>',
                f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" font-size="11">{label}</text>',
            )
        put("</svg>")
