import io
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import traced_memory
from platekit import cli, svgplot
from platekit.svgplot import SHADOW_COLOR, heatmap, line_plot

PLOT_GOLDEN_DIR = Path(__file__).parent / "data" / "plot_golden"


def _reference_heat_color(frac: float) -> str:
    frac = min(1.0, max(0.0, frac))
    r = int(round(40 + 215 * frac))
    g = int(round(60 + 40 * (1 - abs(2 * frac - 1))))
    b = int(round(255 - 215 * frac))
    return f"#{r:02x}{g:02x}{b:02x}"


def _reference_rects(grid, shadow, lo, hi) -> list[str]:
    """The cell and legend <rect> lines of the per-cell heatmap writer."""
    nu, nv = grid.shape
    px_w = svgplot._WIDTH - svgplot._MARGIN_L - svgplot._MARGIN_R
    px_h = svgplot._HEIGHT - svgplot._MARGIN_T - svgplot._MARGIN_B
    cw, ch = px_w / nv, px_h / nu
    rects = []
    for i in range(nu):
        for j in range(nv):
            x0 = svgplot._MARGIN_L + j * cw
            y0 = svgplot._MARGIN_T + i * ch
            if shadow[i, j] or not math.isfinite(grid[i, j]):
                color = SHADOW_COLOR
            else:
                color = _reference_heat_color((grid[i, j] - lo) / (hi - lo))
            rects.append(
                f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{cw:.2f}" height="{ch:.2f}" fill="{color}"/>'
            )
    bar_y = svgplot._HEIGHT - svgplot._MARGIN_B + 16
    for s in range(101):
        rects.append(
            f'<rect x="{svgplot._MARGIN_L + s * px_w / 101:.2f}" y="{bar_y}" '
            f'width="{px_w / 101 + 0.5:.2f}" height="10" fill="{_reference_heat_color(s / 100)}"/>'
        )
    return rects


def test_heatmap_cells_match_per_cell_reference():
    rng = np.random.default_rng(3)
    grid = rng.uniform(-12.0, 112.0, size=(23, 37))
    # frac = 0.1 and 0.3 put the red channel exactly on .5 (61.5, 104.5), and
    # 0.5 the blue channel (147.5): Python round and np.rint both go to even
    grid[0, :4] = [10.0, 30.0, 50.0, 70.0]
    grid[1, :5] = [np.nan, np.inf, -np.inf, -1e300, 1e300]
    grid[2, :3] = [0.0, 100.0, 99.99999999]
    shadow = np.zeros(grid.shape, dtype=bool)
    shadow[5, 5:9] = True
    shadow[-1, -1] = True
    for lo, hi in ((0.0, 100.0), (None, None)):
        svg = heatmap(grid, shadow=shadow, vmin=lo, vmax=hi)
        lines = svg.split("\n")
        rects = [line for line in lines if line.startswith("<rect x=")]
        if lo is None:
            lo, hi = svgplot._finite_range(grid)
        assert rects == _reference_rects(grid, shadow, lo, hi)
        assert lines[3] == rects[0] and lines[-4] == rects[-1]
    assert heatmap(grid[:1, :1], vmin=5.0, vmax=5.0).count("<rect x=") == 102


@pytest.mark.parametrize("chunk_cells", [1, 46, 10**9])
def test_streamed_heatmap_matches_string(monkeypatch, chunk_cells):
    """Written to a file in chunks (one row; five rows, the third chunk of the
    12 rows with 5-character y text cut short by the run's end; everything)
    or returned whole, the bytes are the same as the per-cell reference."""
    monkeypatch.setattr(svgplot, "_CHUNK_CELLS", chunk_cells)
    rng = np.random.default_rng(8)
    grid = rng.uniform(-80.0, -20.0, size=(61, 9))
    shadow = rng.random(grid.shape) < 0.2
    svg = heatmap(grid, shadow=shadow, vmin=-70.0, vmax=-30.0, title="t", legend="l")
    assert [line for line in svg.split("\n") if line.startswith("<rect x=")] == _reference_rects(
        grid, shadow, -70.0, -30.0
    )
    buf = io.BytesIO()
    assert heatmap(grid, shadow=shadow, vmin=-70.0, vmax=-30.0, title="t", legend="l", out=buf) is None
    assert buf.getvalue() == svg.encode("ascii")


def test_streamed_heatmap_memory_is_bounded():
    """The traced peak of writing a 400 x 400 heatmap (an 11.5 MB document)
    through the CLI's output sink is set by the chunk, not the document."""
    rng = np.random.default_rng(6)
    grid = rng.uniform(-90.0, -30.0, size=(400, 400))
    shadow = grid < -85.0

    def write():
        with cli._output(os.devnull) as fh:
            heatmap(grid, shadow=shadow, vmin=-80.0, vmax=-40.0, out=fh)

    _, (_, peak) = traced_memory(write)
    assert peak <= 3 * 2**20, peak


def test_heatmap_rejects_inverted_color_bounds():
    with pytest.raises(ValueError, match="inverted"):
        heatmap([[-50.0, -40.0]], vmin=0.0, vmax=-10.0)
    with pytest.raises(ValueError, match="finite span"):
        heatmap([[-50.0, -40.0]], vmin=-1e308, vmax=1e308)
    # A lone bound beyond the data is not inverted bounds: the scale widens.
    assert ">-30.00</text>" in heatmap([[-50.0, -40.0]], vmin=-31.0)


@pytest.mark.parametrize("bound", [math.nan, math.inf])
def test_heatmap_rejects_non_finite_color_bounds(bound):
    with pytest.raises(ValueError, match="finite"):
        heatmap(np.zeros((2, 2)), vmin=bound)
    with pytest.raises(ValueError, match="finite"):
        heatmap(np.zeros((2, 2)), vmax=bound)


@pytest.mark.parametrize(
    "grid, vmin",
    [
        (np.full((2, 2), -50.0), 1e17),  # vmin + 1 == vmin
        (np.full((2, 2), -50.0), 1e300),
        (np.full((2, 2), -50.0), sys.float_info.max),  # nothing above vmin
        (np.full((2, 2), 1e300), None),  # data +- 0.5 == data
        (np.full((2, 2), -1e300), None),
    ],
)
def test_heatmap_colour_scale_is_never_zero_wide(grid, vmin):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svg = heatmap(grid, vmin=vmin)
        line = line_plot([0.0, 1.0], [grid[0]], ["flat"])
    assert svg.count("<rect") == heatmap(np.zeros_like(grid)).count("<rect")
    assert "nan" not in svg and "nan" not in line
    assert line.count("<polyline") == 1


def test_line_plot_gaps_match_golden():
    """Polylines split at non-finite y at the start, middle and end, as the per-point writer did."""
    x = np.linspace(-10.0, 80.0, 61)
    y1 = np.sin(x / 7.0) * 20.0 - 30.0
    y1[:3] = np.nan
    y1[20] = -np.inf
    y1[30:33] = [np.nan, np.inf, np.nan]
    y1[-2:] = np.nan
    y2 = np.cos(x / 11.0) * 12.0 - 45.0
    y2[0] = -np.inf
    y2[45] = np.nan
    y2[-1] = np.inf
    svg = line_plot(x, [y1, y2], ["gappy", "edges"], title="gaps", xlabel="x", ylabel="y")
    assert svg == (PLOT_GOLDEN_DIR / "line_gaps.svg").read_text()
    assert svg.count("<polyline") == 5
    buf = io.BytesIO()
    assert line_plot(x, [y1, y2], ["gappy", "edges"], title="gaps", xlabel="x", ylabel="y", out=buf) is None
    assert buf.getvalue() == (PLOT_GOLDEN_DIR / "line_gaps.svg").read_bytes()
