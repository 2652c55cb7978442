"""Minimal hand-rolled SVG output: line plots and heatmaps.

Deliberately dependency-free; CSV/JSON carry the data contract and these
plots are conveniences.  Output is deterministic for identical inputs.

Both plots build their document as byte chunks and write each to a binary
file (``out=``) as it is produced, or return the whole document as a string.
Polyline points are formatted by ``csvtext.format_points``.  Heatmap cells
are laid out from one byte template per run of grid rows whose y text has
one length, with each column's x, the cell size and placeholders for y and
the fill already in place; a chunk of rows is a copy of the template per row
with the y text and each cell's six hex digits assigned by numpy indexing, so
no per-cell Python string is made.  The digits are three pairs read from a
256-entry table, one pair per byte of the cell's 0xRRGGBB colour.
"""

from __future__ import annotations

import math

import numpy as np

from . import csvtext


_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 20, 36, 48
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
SHADOW_COLOR = "#9e9e9e"
_SHADOW_CODE = int(SHADOW_COLOR[1:], 16)
# Heatmap cells rendered per chunk (whole rows; at least one row).
_CHUNK_CELLS = 8192
# The two hex digits of each byte value 00..ff, as one uint16 apiece.
_HEX_PAIRS = np.frombuffer(bytes(range(256)).hex().encode("ascii"), dtype=np.uint16)


def _ticks(lo: float, hi: float) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    raw = (hi - lo) / 5  # about five ticks
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
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    if not finite.any():
        return 0.0, 1.0
    lo = float(np.min(values, where=finite, initial=math.inf))
    hi = float(np.max(values, where=finite, initial=-math.inf))
    if hi == lo:
        # lo -+ 0.5 rounds back to lo at large |lo| (2**53 and up): widen by at least one ulp.
        lo, hi = min(lo - 0.5, math.nextafter(lo, -math.inf)), max(hi + 0.5, math.nextafter(hi, math.inf))
    return lo, hi


def _emit(chunks, out):
    """Write the document's byte chunks to the binary file ``out`` as they
    are produced, or return the document as a string when ``out`` is None."""
    if out is None:
        return b"".join(chunks).decode("utf-8")
    for chunk in chunks:
        out.write(chunk)
    return None


def _lines(*lines: str) -> bytes:
    return "".join(line + "\n" for line in lines).encode("utf-8")


def _head(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]


def _f2(values) -> list[str]:
    return [f"{v:.2f}" for v in values.tolist()]


def line_plot(
    x,
    y_series: list,
    labels: list[str],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    out=None,
) -> str | None:
    """Render one or more curves over a common x grid as SVG.

    Non-finite y values break the polyline (gaps, not drawn).  The document
    is written to the binary file ``out``, or returned as a string without it.
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

    parts = _head(title)
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
    chunks = [_lines(*parts)]
    px = _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * px_w
    for idx, y in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        y = y[: len(x)]
        py = _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * px_h
        # Each maximal run of finite y is one polyline.
        tail = f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n'.encode("ascii")
        for points in csvtext.format_points(px[: len(y)], py, np.isfinite(y)):
            chunks.append(b'<polyline points="' + points + tail)
        if idx < len(labels) and labels[idx]:
            ly = _MARGIN_T + 14 + 16 * idx
            chunks.append(_lines(
                f'<line x1="{_WIDTH - 170}" y1="{ly - 4}" x2="{_WIDTH - 146}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="1.5"/>',
                f'<text x="{_WIDTH - 140}" y="{ly}" font-size="11">{labels[idx]}</text>',
            ))
    chunks.append(b"</svg>")
    return _emit(chunks, out)


def _heat_codes(frac) -> np.ndarray:
    """Linear blue-to-red scale as 0xRRGGBB codes; frac clipped to [0, 1], NaN to 0."""
    frac = np.where(frac > 0.0, frac, 0.0)
    frac = np.where(frac < 1.0, frac, 1.0)
    # np.rint rounds half to even, as Python's round does.
    r = np.rint(40 + 215 * frac).astype(np.int64)
    g = np.rint(60 + 40 * (1 - np.abs(2 * frac - 1))).astype(np.int64)
    b = np.rint(255 - 215 * frac).astype(np.int64)
    return (r << 16) | (g << 8) | b


def _rect_rows(xs: list[str], ys: list[str], width: str, height: str, colors):
    """One newline-terminated <rect> line per grid cell, row-major, yielded
    in chunks of whole rows of about _CHUNK_CELLS cells.

    ``xs`` holds each column's x and ``ys`` each row's y, both formatted;
    ``colors(rows)`` gives the 0xRRGGBB code of every cell of a slice of rows.
    Each run of rows whose y text has one length shares a byte template of a
    row, with x, width and height in place; the y text and the six hex digits
    of each cell's fill are assigned into copies of it.
    """
    tail = f'" width="{width}" height="{height}" fill="#\0\0\0\0\0\0"/>\n'
    rows_per_chunk = max(1, _CHUNK_CELLS // len(xs))
    y_len = np.array([len(y) for y in ys])
    run_starts = np.flatnonzero(np.diff(y_len, prepend=-1)).tolist()
    for start, stop in zip(run_starts, run_starts[1:] + [len(ys)]):
        width_y = int(y_len[start])
        cells = [f'<rect x="{x}" y="' + "\0" * width_y + tail for x in xs]
        template = np.frombuffer("".join(cells).encode("ascii"), dtype=np.uint8)
        ends = np.cumsum([len(cell) for cell in cells])
        y_at = (ends - len(tail) - width_y)[:, None] + np.arange(width_y)
        fill_at = (ends - 10)[:, None] + np.arange(6)  # before the closing '"/>\n'
        y_text = np.frombuffer("".join(ys[start:stop]).encode("ascii"), dtype=np.uint8).reshape(-1, width_y)
        for first in range(start, stop, rows_per_chunk):
            rows = slice(first, min(stop, first + rows_per_chunk))
            block = np.tile(template, (rows.stop - rows.start, 1))
            block[:, y_at] = y_text[rows.start - start : rows.stop - start, None, :]
            codes = colors(rows)
            # The little-endian bytes of 0xRRGGBB are b, g, r, 0.
            rgb = codes.astype("<u4").view(np.uint8).reshape(*codes.shape, 4)[..., 2::-1]
            block[:, fill_at] = _HEX_PAIRS.take(rgb).view(np.uint8).reshape(*codes.shape, 6)
            yield block.data


def heatmap(
    values,
    shadow=None,
    vmin: float | None = None,
    vmax: float | None = None,
    title: str = "",
    legend: str = "",
    out=None,
) -> str | None:
    """Render a 2-D grid as colored cells; shadowed cells get a gray fill.

    The document is written to the binary file ``out`` a chunk of rows at a
    time, or returned as a string without it.  Bounds given as ``vmax <
    vmin`` are rejected; equal ones, or a lone bound beyond the data, widen
    the scale to one unit (at least one ulp) above the lower bound.
    """
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 2:
        raise ValueError("heatmap expects a 2-D array")
    if shadow is None:
        shadow = ~np.isfinite(grid)
    shadow = np.asarray(shadow, dtype=bool)
    if vmin is not None and vmax is not None and vmax < vmin:
        raise ValueError(f"heatmap colour bounds are inverted: vmin={vmin} is above vmax={vmax}")
    lo, hi = _finite_range(grid)
    if vmin is not None:
        lo = vmin
    if vmax is not None:
        hi = vmax
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"heatmap colour bounds must be finite, got {lo} and {hi}")
    if hi <= lo:
        # lo + 1 rounds back to lo once |lo| >= 2**53: widen by at least one
        # ulp, downward from the largest float.
        hi = max(lo + 1.0, math.nextafter(lo, math.inf))
        if hi == math.inf:
            lo, hi = math.nextafter(lo, 0.0), lo
    if hi - lo == math.inf:
        raise ValueError(f"heatmap colour bounds must be a finite span apart, got {lo} and {hi}")
    return _emit(_heatmap_chunks(grid, shadow, lo, hi, title, legend), out)


def _heatmap_chunks(grid, shadow, lo: float, hi: float, title: str, legend: str):
    nu, nv = grid.shape
    px_w = _WIDTH - _MARGIN_L - _MARGIN_R
    px_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    cw, ch = px_w / nv, px_h / nu
    yield _lines(*_head(title))

    def cell_colors(rows):
        # Non-finite cells are masked before the colour scale's integer cast.
        cells = grid[rows]
        blank = shadow[rows] | ~np.isfinite(cells)
        return np.where(blank, _SHADOW_CODE, _heat_codes((np.where(blank, lo, cells) - lo) / (hi - lo)))

    yield from _rect_rows(
        _f2(_MARGIN_L + np.arange(nv) * cw), _f2(_MARGIN_T + np.arange(nu) * ch), f"{cw:.2f}", f"{ch:.2f}", cell_colors
    )
    bar_y = _HEIGHT - _MARGIN_B + 16
    steps = np.arange(101)
    legend_colors = _heat_codes(steps / 100)[None, :]
    yield from _rect_rows(
        _f2(_MARGIN_L + steps * px_w / 101), [str(bar_y)], f"{px_w / 101 + 0.5:.2f}", "10", lambda rows: legend_colors
    )
    texts = [
        f'<text x="{_MARGIN_L}" y="{bar_y + 24}" font-size="11" text-anchor="start">{lo:.2f}</text>',
        f'<text x="{_MARGIN_L + px_w}" y="{bar_y + 24}" font-size="11" text-anchor="end">{hi:.2f}</text>',
    ]
    if legend:
        texts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="{bar_y + 24}" text-anchor="middle" font-size="11">{legend}</text>'
        )
    yield _lines(*texts) + b"</svg>"
