"""The verdicts of tools/bench_pairs.py on synthetic pairs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("bench_pairs", Path(__file__).parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "t", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "r", "unit": "1/s", "better": "higher", "bound": 0.25}]
# Ten runs of A with quartiles 1.0225 and 1.0675: an IQR of 0.045, 4% of the median.
A = [1.0 + 0.01 * k for k in range(10)]


def verdicts(a: list, b: list) -> list:
    """(gain, bound) of the lower-better metric at A = a, B = b, and of the
    higher-better one at the reciprocal runs, which must agree."""
    pairs = [{"a": {"t": x, "r": 1.0 / x}, "b": {"t": y, "r": 1.0 / y}} for x, y in zip(a, b)]
    rows = bench_pairs._summarize(pairs, METRICS)
    assert (rows[0]["gain"], rows[0]["bound"]) == (rows[1]["gain"], rows[1]["bound"])
    return rows[0]["gain"], rows[0]["bound"]


@pytest.mark.parametrize("b, expected", [
    # Ten wins, the medians 0.2 apart against an IQR of 0.045.
    ([x - 0.2 for x in A], ("yes", "within")),
    # Nine wins of ten still count as a gain.
    ([x - 0.2 for x in A[:9]] + [A[9] + 0.01], ("yes", "within")),
    # Eight wins do not, however far apart the medians.
    ([x - 0.2 for x in A[:8]] + [A[8] + 0.01, A[9] + 0.01], ("no", "within")),
    # Ties count for neither side.
    ([x - 0.2 for x in A[:8]] + A[8:], ("no", "within")),
    # Every pair won, but the medians only 0.01 apart.
    ([x - 0.01 for x in A], ("no", "within")),
    # Worse by 10% and by 40% of A's median (9% and 29% in reciprocal), against a bound of 25%.
    ([1.1 * x for x in A], ("no", "within")),
    ([1.4 * x for x in A], ("no", "beyond")),
])
def test_gain_and_bound_verdicts(b, expected):
    assert verdicts(A, b) == expected


def test_bound_is_unresolved_where_a_spreads_wider_than_it():
    """A's IQR is as large as its median, wider than the 25% bound: the pairs tell
    nothing unless every B run beats every A run."""
    wide = [0.5, 1.5] * 5
    assert verdicts(wide, wide) == ("no", "unresolved")
    assert verdicts(wide, [0.6 * x for x in wide]) == ("no", "unresolved")
    assert verdicts(wide, [0.4] * 10) == ("no", "within")


def test_table_shows_the_verdicts():
    pairs = [{"a": {"t": x, "r": x}, "b": {"t": x - 0.2, "r": x}} for x in A]
    table = bench_pairs._table(bench_pairs._summarize(pairs, METRICS))
    assert table.splitlines()[0].endswith("| gain | bound |")
    assert table.splitlines()[2].endswith("| yes | within |")
    assert table.splitlines()[3].endswith("| no | within |")
