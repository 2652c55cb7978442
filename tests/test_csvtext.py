"""The numpy text kernels against printf ``%.9g``/``%d``/``%.2f`` and the %-template writer."""

import os

import numpy as np
import pytest

from conftest import traced_memory
from platekit import cli
from platekit.csvtext import format_points, format_rows

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
# Columns of only these take the int32 path; -2**31, whose magnitude int32 lacks, does not.
EDGE_INTS32 = [0, 1, -1, 9, 10, -10, 99, 100, 999, 1000, -1000, 10**9 - 1, 10**9, 2**31 - 1, -(2**31 - 1)]


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


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64])
def test_int32_range_columns_match_printf(dtype):
    """Every column whose values fit int32 in magnitude, and the first ones
    past it (-2**31 and 2**31 take the uint64 path), prints as %d."""
    for values in ([0], [9], [10, 0], [999, 1000, 1], [7] * 5, EDGE_INTS32, EDGE_INTS32[::-1],
                   [-(2**31), 0, 5], [2**31, -1, 10]):
        column = np.array(values, dtype=np.int64)
        if dtype is not np.int64:
            if column.min() < np.iinfo(dtype).min or column.max() > np.iinfo(dtype).max:
                continue
            column = column.astype(dtype)
        assert format_rows([column]) == percent_text(values, "%d"), values
        assert format_rows([column, column]) == "".join("%d,%d\n" % (v, v) for v in values).encode(), values


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
    # Columns of these all take the int32 path.
    small_ints = st.integers(-1100, 1100) | st.integers(-(2**31 - 1), 2**31 - 1) | st.sampled_from(EDGE_INTS32)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(floats, min_size=1, max_size=40), st.lists(ints, min_size=1, max_size=40),
                      st.lists(small_ints, min_size=1, max_size=40))
    def check(xs, iv, small):
        assert format_rows([np.array(xs, dtype=np.float64)]) == percent_text(xs, "%.9g")
        assert format_rows([np.array(iv, dtype=np.int64)]) == percent_text(iv, "%d")
        assert format_rows([np.array(small, dtype=np.int64)]) == percent_text(small, "%d")

    check()


# %.2f: exact ties (printf rounds them half to even), values a rounding or
# two off a midpoint, carries into the whole part, signed zeros, the
# kernel's 1e15 bound and non-finite values.
F2_EDGES = [
    0.125, 0.375, 0.625, 2.5e-3, 0.005, 0.015, 0.165, 1.005, 2.675, 1e-9, 0.994999999999, 0.995, 9.995, 99.995,
    0.0, -0.0, -0.004, 0.004, -0.005, 0.5, 1.0, 64.0, 1234.5678, 5e-324,
    1e15, np.nextafter(1e15, 0.0), 999999999999999.9, 1e300, 1.7976931348623157e308,
    float("nan"), float("inf"), float("-inf"),
]


def percent_points(xs, ys, keep) -> list[bytes]:
    """The points of each maximal run of kept pairs, as the per-point writer printed them."""
    runs, run = [], []
    for x, y, k in zip(xs, ys, keep):
        if k:
            run.append("%.2f,%.2f" % (x, y))
        elif run:
            runs.append(" ".join(run).encode("ascii"))
            run = []
    return runs + ([" ".join(run).encode("ascii")] if run else [])


def test_point_edge_values_match_printf():
    values = np.array(F2_EDGES + [-v for v in F2_EDGES])
    keep = np.ones(values.size, dtype=bool)
    assert format_points(values, values[::-1], keep) == percent_points(values, values[::-1], keep)
    keep[[0, 5, 6, 7, -1]] = False
    assert format_points(values, values, keep) == percent_points(values, values, keep)
    assert format_points([], [], []) == []


def test_every_point_matches_printf():
    """Any float64 pair prints as "%.2f,%.2f", runs split where a point is not kept."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ties = st.builds(lambda k, s: (k + 0.5) / s, st.integers(-10**9, 10**9), st.sampled_from([1, 2, 4, 8, 100]))
    near_midpoint = st.builds(lambda k, d: (k + 0.5) / 100 + d, st.integers(-10**9, 10**9), st.floats(-1e-9, 1e-9))
    huge = st.builds(lambda v, s: s * v, st.floats(1e15, 1e300), st.sampled_from([1.0, -1.0]))
    floats = st.floats() | ties | near_midpoint | huge | st.sampled_from(F2_EDGES)
    points = st.lists(st.tuples(floats, floats, st.booleans()), max_size=40)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(points)
    def check(rows):
        xs, ys, keep = zip(*rows) if rows else ((), (), ())
        assert format_points(np.array(xs), np.array(ys), np.array(keep, dtype=bool)) == percent_points(xs, ys, keep)

    check()


def random_table(rng, rows: int):
    """Columns of mixed kinds and magnitudes, and a shadow mask or None."""
    columns = []
    for _ in range(int(rng.integers(1, 7))):
        kind = rng.integers(7)
        if kind == 0:
            columns.append(rng.integers(-(2**53), 2**53, rows))
        elif kind == 1:
            columns.append(rng.integers(0, 400, rows))
        elif kind == 2:
            columns.append(rng.normal(size=rows) * 10.0 ** rng.integers(-16, 24, rows))
        elif kind == 3:
            columns.append(rng.integers(0, 2**64, rows, dtype=np.uint64).view(np.float64))
        elif kind == 4:
            columns.append(rng.choice(np.array(EDGE_FLOATS), rows) * rng.choice([1.0, -1.0], rows))
        elif kind == 5:
            # One value on every row, formatted once.
            columns.append(np.full(rows, rng.choice(np.array(EDGE_FLOATS)) * rng.choice([1.0, -1.0])))
        else:
            columns.append(np.full(rows, rng.choice(EDGE_INTS32)))
    shadow = None if rng.random() < 0.3 else rng.random(rows) < rng.random()
    return columns, shadow


@pytest.mark.parametrize("chunk_rows", [1, 7, None])
def test_write_table_matches_percent_writer(tmp_path, monkeypatch, chunk_rows):
    """Byte identity with the %-template writer, also across chunk boundaries."""
    if chunk_rows is not None:
        monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(20260)
    path = tmp_path / "table.csv"
    tables = [random_table(rng, rows) for rows in (1, 2, 13, 300, 5000 if chunk_rows is None else 60)]
    # Constant columns of the special values and of an int, among others, the
    # last one constant under a shadow mask.
    for rows in (2, 13, 60):
        columns = [np.full(rows, v) for v in (0.0, -0.0, float("nan"), float("inf"), float("-inf"), -52.1234567)]
        columns += [np.full(rows, -1000), rng.normal(size=rows), np.full(rows, 1.5e-5)]
        tables.append((columns, rng.random(rows) < 0.5))
    for columns, shadow in tables:
        header = ",".join(f"c{k}" for k in range(len(columns)))
        cli._write_table(str(path), header, columns, shadow=shadow)
        assert path.read_text() == reference_table(header, columns, shadow)


def test_write_table_memory_is_bounded():
    """The traced peak of writing four float columns, or a coverage map's
    columns (two int, three float, one constant and a shadow mask), is set by
    the chunk, not the table."""
    rng = np.random.default_rng(5)
    peaks = []
    for rows in (100_000, 1_000_000):
        columns = [rng.normal(size=rows) * 10.0**k for k in (-3, 0, 2, 5)]
        _, (_, peak) = traced_memory(cli._write_table, os.devnull, "a,b,c,d", columns)
        peaks.append(peak)
    assert max(peaks) <= 1.5 * 2**20, peaks
    assert peaks[1] - peaks[0] < 0.5 * 2**20, peaks
    coverage_peaks = []
    for side in (316, 1000):
        iu, iv = np.indices((side, side)).reshape(2, -1)
        x, y = rng.uniform(-40.0, 40.0, (2, iu.size))
        columns = [iu, iv, x, y, np.full(iu.size, 1.5), rng.normal(-70.0, 12.0, iu.size)]
        shadow = rng.random(iu.size) < 0.3
        _, (_, peak) = traced_memory(cli._write_table, os.devnull, "iu,iv,x,y,z,p", columns, shadow=shadow)
        coverage_peaks.append(peak)
    assert max(coverage_peaks) <= 1.5 * 2**20, coverage_peaks
    assert coverage_peaks[1] - coverage_peaks[0] < 0.5 * 2**20, coverage_peaks


# Values that %.9g prints in one character, and values the kernel leaves to %
# (ties and next-to-midpoint scalings, non-finite, outside [1e-13, 1e22)).
ONE_CHARACTER_FLOATS = [float(d) for d in range(10)]
PERCENT_FLOATS = [0.5e-13, 123456789.5, 1234567885.0, 2.5e-300, 1e300, float("nan"), float("inf"), float("-inf"),
                  -5e-324, 9.999999995e-6]


@pytest.mark.parametrize("chunk_rows", [1, 7, None])
def test_rows_match_percent_writers_where_a_word_spills(tmp_path, monkeypatch, chunk_rows):
    """Multi-column rows and polyline points, including rows shorter than a
    word (an int column of 0-9: a digit and a newline), narrow last columns,
    constant columns, all-shadow rows and %-formatted values in the first and
    last column: a piece's word reaches up to 3 bytes past its text, which the
    next piece or the row's slack must take."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    if chunk_rows is not None:
        monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
    path = tmp_path / "table.csv"
    floats = (st.floats() | st.sampled_from(EDGE_FLOATS + PERCENT_FLOATS)
              | st.builds(lambda m, k: (m + 0.5) * 10.0**k, st.integers(10**8, 10**9 - 1), st.integers(-14, 12)))
    kinds = {
        "digit": lambda n: st.lists(st.integers(0, 9), min_size=n, max_size=n).map(np.array),
        "int": lambda n: st.lists(st.integers(-(2**53), 2**53) | st.sampled_from(EDGE_INTS32), min_size=n,
                                  max_size=n).map(np.array),
        "float": lambda n: st.lists(floats, min_size=n, max_size=n).map(np.array),
        "narrow": lambda n: st.lists(st.sampled_from(ONE_CHARACTER_FLOATS), min_size=n, max_size=n).map(np.array),
        "percent": lambda n: st.lists(st.sampled_from(PERCENT_FLOATS), min_size=n, max_size=n).map(np.array),
        "constant": lambda n: (floats | st.integers(-(2**53), 2**53)).map(lambda v: np.full(n, v)),
    }

    @st.composite
    def tables(draw):
        n = draw(st.integers(1, 12))
        columns = [draw(kinds[kind](n)) for kind in draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1,
                                                                   max_size=5))]
        shadow = draw(st.none() | st.sampled_from([False, True]).map(lambda v: np.full(n, v))
                      | st.lists(st.booleans(), min_size=n, max_size=n).map(np.array))
        return columns, shadow

    @st.composite
    def points(draw):
        n = draw(st.integers(0, 12))
        values = st.lists(st.sampled_from(ONE_CHARACTER_FLOATS + PERCENT_FLOATS + F2_EDGES) | st.floats(),
                          min_size=n, max_size=n)
        return draw(values), draw(values), draw(st.lists(st.booleans(), min_size=n, max_size=n))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(tables(), points())
    @hypothesis.example(([np.arange(10)], None), ([], [], []))
    @hypothesis.example(([np.array([7]), np.array([3.0])], np.array([True])), ([1.0], [2.0], [True]))
    @hypothesis.example(([np.array(PERCENT_FLOATS), np.arange(10) % 3, np.full(10, 2.5),
                          np.array(PERCENT_FLOATS[::-1])], np.arange(10) % 2 == 0),
                        (PERCENT_FLOATS, PERCENT_FLOATS[::-1], [True] * 10))
    def check(table, point_lists):
        columns, shadow = table
        header = ",".join(f"c{k}" for k in range(len(columns)))
        cli._write_table(str(path), header, columns, shadow=shadow)
        assert path.read_text() == reference_table(header, columns, shadow)
        xs, ys, keep = point_lists
        assert format_points(np.array(xs), np.array(ys), np.array(keep, dtype=bool)) == percent_points(xs, ys, keep)

    check()
