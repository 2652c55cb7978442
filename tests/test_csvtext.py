"""The numpy CSV text kernel against printf ``%.9g``/``%d`` and the %-template writer."""

import os
import tracemalloc

import numpy as np
import pytest

from platekit import cli
from platekit.csvtext import format_rows

# Values next to every branch of the kernel: zeros, non-finite values,
# subnormals, the ends of the kernel's range, the 1e-5/1e-4 and 1e8/1e9
# notation switches, rounding that carries into a tenth digit, and ties
# (printf rounds them half to even).
EDGE_FLOATS = [
    0.0, -0.0, float("nan"), float("inf"), float("-inf"),
    5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
    1e-13, np.nextafter(1e-13, 0.0), 1e22, np.nextafter(1e22, 0.0), -1e22,
    1e-5, np.nextafter(1e-5, 0.0), 9.9999999949e-6, 9.999999995e-6,
    1e-4, np.nextafter(1e-4, 0.0), 9.9999999949e-5, 9.999999995e-5, 0.000123456789,
    1e8, 99999999.95, 99999999.949, 999999999.4, 999999999.5, 999999999.6, 1e9, 1234567890.0,
    123456789.5, 123456788.5, 1234567885.0, 1234567895.0, 0.5, 2.5, 1.5e-5, 1.25e10,
    1.0, -1.0, 10.0, 100.0, 0.1, 0.25, -52.1234567, 3.14159265358979,
]
EDGE_INTS = [0, 1, -1, 9, 10, -10, 999, 1000, 10**18, -(10**18), 2**63 - 1, -(2**63)]


def percent_text(values, spec: str) -> bytes:
    return "".join(spec % v + "\n" for v in values).encode("ascii")


def reference_table(header: str, columns: list, shadow=None) -> str:
    """The %-template CSV writer the kernel replaced, kept as its reference.

    Its column stack casts integer columns to float64 next to float columns,
    so it prints their exact %d only within +-2**53.
    """
    columns = [np.asarray(c) for c in columns]
    fields = ["%d" if np.issubdtype(c.dtype, np.integer) else "%.9g" for c in columns]
    row = ",".join(fields) + "\n"
    shadow_row = ",".join(fields[:-1] + ["shadow%.0s"]) + "\n"
    template = row * len(columns[0]) if shadow is None else "".join(np.where(shadow, shadow_row, row).tolist())
    return header + "\n" + template % tuple(np.column_stack(columns).ravel().tolist())


def test_edge_values_match_printf():
    values = np.array(EDGE_FLOATS + [-v for v in EDGE_FLOATS])
    assert format_rows([values]) == percent_text(values.tolist(), "%.9g")
    ints = np.array(EDGE_INTS, dtype=np.int64)
    assert format_rows([ints]) == percent_text(EDGE_INTS, "%d")
    wide = np.array([0, 10**19, 2**64 - 1], dtype=np.uint64)
    assert format_rows([wide]) == percent_text(wide.tolist(), "%d")


def test_every_value_matches_printf():
    """Any float64 prints as "%.9g" % x, any int64 as "%d" % i, whatever else
    shares its column (the fields laid out depend on the whole column)."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    bit_patterns = st.integers(0, 2**64 - 1).map(lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))
    decades = st.builds(lambda m, k: m * 10.0**k, st.floats(-10.0, 10.0), st.integers(-16, 24))
    ties = st.builds(lambda m, k: (m + 0.5) * 10.0**k, st.integers(10**8, 10**9 - 1), st.integers(-14, 12))
    floats = st.floats() | bit_patterns | decades | ties | st.sampled_from(EDGE_FLOATS)
    ints = st.integers(-(2**63), 2**63 - 1) | st.sampled_from(EDGE_INTS)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(floats, min_size=1, max_size=40), st.lists(ints, min_size=1, max_size=40))
    def check(xs, iv):
        assert format_rows([np.array(xs, dtype=np.float64)]) == percent_text(xs, "%.9g")
        assert format_rows([np.array(iv, dtype=np.int64)]) == percent_text(iv, "%d")

    check()


def random_table(rng, rows: int):
    """Columns of mixed kinds and magnitudes, and a shadow mask or None."""
    columns = []
    for _ in range(int(rng.integers(1, 7))):
        kind = rng.integers(5)
        if kind == 0:
            columns.append(rng.integers(-(2**53), 2**53, rows))
        elif kind == 1:
            columns.append(rng.integers(0, 400, rows))
        elif kind == 2:
            columns.append(rng.normal(size=rows) * 10.0 ** rng.integers(-16, 24, rows))
        elif kind == 3:
            columns.append(rng.integers(0, 2**64, rows, dtype=np.uint64).view(np.float64))
        else:
            columns.append(rng.choice(np.array(EDGE_FLOATS), rows) * rng.choice([1.0, -1.0], rows))
    shadow = None if rng.random() < 0.3 else rng.random(rows) < rng.random()
    return columns, shadow


@pytest.mark.parametrize("chunk_rows", [1, 7, None])
def test_write_table_matches_percent_writer(tmp_path, monkeypatch, chunk_rows):
    """Byte identity with the %-template writer, also across chunk boundaries."""
    if chunk_rows is not None:
        monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(20260)
    path = tmp_path / "table.csv"
    for rows in (1, 2, 13, 300, 5000 if chunk_rows is None else 60):
        columns, shadow = random_table(rng, rows)
        header = ",".join(f"c{k}" for k in range(len(columns)))
        cli._write_table(str(path), header, columns, shadow=shadow)
        assert path.read_text() == reference_table(header, columns, shadow)


def test_write_table_memory_is_bounded():
    """The traced peak of writing four float columns is set by the chunk, not the table."""
    rng = np.random.default_rng(5)
    peaks = []
    for rows in (100_000, 1_000_000):
        columns = [rng.normal(size=rows) * 10.0**k for k in (-3, 0, 2, 5)]
        tracemalloc.start()
        try:
            cli._write_table(os.devnull, "a,b,c,d", columns)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 1.5 * 2**20, peaks
    assert peaks[1] - peaks[0] < 0.5 * 2**20, peaks
