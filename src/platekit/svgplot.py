"""Minimal hand-rolled SVG output: line plots and heatmaps.

Deliberately dependency-free; CSV/JSON carry the data contract and these
plots are conveniences.  Output is deterministic for identical inputs.
"""

from __future__ import annotations

import math

import numpy as np

_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 20, 36, 48
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
SHADOW_COLOR = "#9e9e9e"
_SHADOW_CODE = int(SHADOW_COLOR[1:], 16)


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (1 * mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * step:
        out.append(round(t, 12))
        t += step
    return out


def _finite_range(values) -> tuple[float, float]:
    finite = np.asarray(values, dtype=float)
    finite = finite[np.isfinite(finite)]
    if finite.size == 0:
        return 0.0, 1.0
    lo, hi = float(np.min(finite)), float(np.max(finite))
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


def _fmt_each(fmt: str, values) -> list[str]:
    """``fmt % v`` for every value, formatted in one call."""
    values = np.asarray(values).ravel().tolist()
    return ("\0".join([fmt] * len(values)) % tuple(values)).split("\0")


def line_plot(
    x,
    y_series: list,
    labels: list[str],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    """Render one or more curves over a common x grid as an SVG string.

    Non-finite y values break the polyline (gaps, not drawn).
    """
    x = np.asarray(x, dtype=float)
    series = [np.asarray(y, dtype=float) for y in y_series]
    x_lo, x_hi = _finite_range(x)
    y_lo, y_hi = _finite_range(np.concatenate(series))
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    px_w = _WIDTH - _MARGIN_L - _MARGIN_R
    px_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(v: float) -> float:
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * px_w

    def sy(v: float) -> float:
        return _MARGIN_T + (y_hi - v) / (y_hi - y_lo) * px_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    axis_y = _HEIGHT - _MARGIN_B
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{axis_y}" x2="{_WIDTH - _MARGIN_R}" y2="{axis_y}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" y2="{axis_y}" stroke="black"/>'
    )
    for t in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{sx(t):.1f}" y1="{axis_y}" x2="{sx(t):.1f}" y2="{axis_y + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{sx(t):.1f}" y="{axis_y + 18}" text-anchor="middle" font-size="11">{t:g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{sy(t):.1f}" x2="{_MARGIN_L}" y2="{sy(t):.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{sy(t) + 4:.1f}" text-anchor="end" font-size="11">{t:g}</text>'
        )
    parts.append(
        f'<text x="{_WIDTH / 2:.1f}" y="{_HEIGHT - 10}" text-anchor="middle" font-size="12">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{_HEIGHT / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {_HEIGHT / 2:.1f})">{ylabel}</text>'
    )
    px = _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * px_w
    for idx, y in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        y = y[: len(x)]
        py = _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * px_h
        # Each maximal run of finite y is one polyline.
        finite = np.concatenate(([0], np.isfinite(y), [0])).astype(np.int8)
        bounds = np.flatnonzero(np.diff(finite)).tolist()
        for start, stop in zip(bounds[::2], bounds[1::2]):
            xy = np.column_stack([px[start:stop], py[start:stop]])
            points = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        if idx < len(labels) and labels[idx]:
            ly = _MARGIN_T + 14 + 16 * idx
            parts.append(
                f'<line x1="{_WIDTH - 170}" y1="{ly - 4}" x2="{_WIDTH - 146}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
            parts.append(f'<text x="{_WIDTH - 140}" y="{ly}" font-size="11">{labels[idx]}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def _heat_codes(frac) -> np.ndarray:
    """Linear blue-to-red scale as 0xRRGGBB codes; frac clipped to [0, 1], NaN to 0."""
    frac = np.where(frac > 0.0, frac, 0.0)
    frac = np.where(frac < 1.0, frac, 1.0)
    # np.rint rounds half to even, as Python's round does.
    r = np.rint(40 + 215 * frac).astype(np.int64)
    g = np.rint(60 + 40 * (1 - np.abs(2 * frac - 1))).astype(np.int64)
    b = np.rint(255 - 215 * frac).astype(np.int64)
    return (r << 16) | (g << 8) | b


def _color_names(codes) -> np.ndarray:
    """'#rrggbb' for every code (object array, flattened), each distinct code formatted once."""
    distinct, inverse = np.unique(codes, return_inverse=True)
    names = np.array(_fmt_each("#%06x", distinct), dtype=object)
    return names[inverse.ravel()]


def _rect_grid(xs: list[str], ys: list[str], width: str, height: str, fills: np.ndarray) -> str:
    """One <rect> per grid cell, row-major, joined by newlines.

    ``xs`` holds each column's x and ``ys`` each row's y, both formatted;
    ``fills`` holds the colour of every cell, row-major.
    """
    cell = f'<rect x="%s" y="%%s" width="{width}" height="{height}" fill="%%s"/>'
    row = "\n".join([cell] * len(xs)) % tuple(xs)
    args = np.empty((len(ys), len(xs), 2), dtype=object)
    args[:, :, 0] = np.array(ys, dtype=object)[:, None]
    args[:, :, 1] = fills.reshape(len(ys), len(xs))
    return "\n".join([row] * len(ys)) % tuple(args.ravel().tolist())


def heatmap(
    values,
    shadow=None,
    vmin: float | None = None,
    vmax: float | None = None,
    title: str = "",
    legend: str = "",
) -> str:
    """Render a 2-D grid as colored cells; shadowed cells get a gray fill."""
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 2:
        raise ValueError("heatmap expects a 2-D array")
    if shadow is None:
        shadow = ~np.isfinite(grid)
    shadow = np.asarray(shadow, dtype=bool)
    lo, hi = _finite_range(grid)
    if vmin is not None:
        lo = vmin
    if vmax is not None:
        hi = vmax
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"heatmap colour bounds must be finite, got {lo} and {hi}")
    if hi <= lo:
        hi = lo + 1.0

    nu, nv = grid.shape
    px_w = _WIDTH - _MARGIN_L - _MARGIN_R
    px_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    cw, ch = px_w / nv, px_h / nu
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    # Non-finite cells are masked before the colour scale's integer cast.
    blank = shadow | ~np.isfinite(grid)
    codes = np.where(blank, _SHADOW_CODE, _heat_codes((np.where(blank, lo, grid) - lo) / (hi - lo)))
    parts.append(
        _rect_grid(
            _fmt_each("%.2f", _MARGIN_L + np.arange(nv) * cw),
            _fmt_each("%.2f", _MARGIN_T + np.arange(nu) * ch),
            f"{cw:.2f}",
            f"{ch:.2f}",
            _color_names(codes),
        )
    )
    bar_y = _HEIGHT - _MARGIN_B + 16
    steps = np.arange(101)
    parts.append(
        _rect_grid(
            _fmt_each("%.2f", _MARGIN_L + steps * px_w / 101),
            [str(bar_y)],
            f"{px_w / 101 + 0.5:.2f}",
            "10",
            _color_names(_heat_codes(steps / 100)),
        )
    )
    parts.append(
        f'<text x="{_MARGIN_L}" y="{bar_y + 24}" font-size="11" text-anchor="start">{lo:.2f}</text>'
    )
    parts.append(
        f'<text x="{_MARGIN_L + px_w}" y="{bar_y + 24}" font-size="11" text-anchor="end">{hi:.2f}</text>'
    )
    if legend:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="{bar_y + 24}" text-anchor="middle" font-size="11">{legend}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
