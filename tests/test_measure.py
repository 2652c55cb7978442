import math

import numpy as np
import pytest

from platekit import csvtext
from platekit import (
    ExperimentConfig,
    MeasurementSeries,
    compare,
    hpbw,
    load_series,
    mainlobe_sidelobe_gap,
    peak_angle,
    save_series,
    theoretical_curve,
)

GRID = np.arange(0.0, 91.0, 5.0)


def write(tmp_path, text, name="sweep.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_series_roundtrip(tmp_path):
    theta, power = theoretical_curve(ExperimentConfig(theta_t_deg=45.0), "perpendicular", GRID)
    series = MeasurementSeries(theta, power, theta_t_deg=45.0, varphi_t_deg=90.0, freq_hz=3e9)
    path = tmp_path / "sweep.csv"
    save_series(series, path)
    back = load_series(path)
    assert len(back) == 19
    assert back.theta_t_deg == 45.0
    assert back.varphi_t_deg == 90.0
    assert back.freq_hz == 3e9
    assert np.allclose(back.theta_r_deg, theta)
    assert np.allclose(back.power_dbm, power, atol=1e-6)


def test_save_series_rejects_angles_equal_at_written_precision(tmp_path):
    series = MeasurementSeries(np.array([0.0, 1.0, 1.0000000001, 2.0, 3.0]), np.zeros(5))
    path = tmp_path / "sweep.csv"
    with pytest.raises(ValueError, match="9 significant digits"):
        save_series(series, path)
    assert not path.exists()


@pytest.mark.parametrize("chunk_rows", [1, 2, 3])
def test_save_series_checks_angles_across_chunk_boundaries(tmp_path, monkeypatch, chunk_rows):
    """The printed angles are checked a chunk at a time, the last one carried
    into the next chunk: two that print alike on either side of a chunk
    boundary are rejected, and the file is not opened."""
    monkeypatch.setattr(csvtext, "_CHUNK_ROWS", chunk_rows)
    path = tmp_path / "sweep.csv"
    for pair in range(5):
        angles = 10.0 + np.arange(6.0)
        angles[pair + 1] = angles[pair] + 1e-9  # prints as angles[pair]
        with pytest.raises(ValueError, match="9 significant digits"):
            save_series(MeasurementSeries(angles, np.zeros(6)), path)
        assert not path.exists()
    save_series(MeasurementSeries(10.0 + np.arange(6.0), np.arange(6.0) - 40.0), path)
    assert path.read_text() == "theta_r_deg,p_rx_dbm\n" + "".join(f"{10 + k},{k - 40}\n" for k in range(6))


def test_save_series_round_trip_property(tmp_path):
    """save(load(save(s))) writes the bytes of save(s), or save(s) raises
    and writes nothing."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        start=st.floats(-180.0, 180.0),
        steps=st.lists(st.floats(1e-3, 10.0), min_size=4, max_size=12),
        # One step shrunk to where 9 significant digits may no longer tell
        # its two angles apart.
        squeeze=st.none() | st.tuples(st.integers(0, 11), st.sampled_from([1e-12, 1e-10, 1e-8, 1e-7])),
        powers=st.lists(st.floats(-1e300, 1e300), min_size=13, max_size=13),
        meta=st.lists(st.none() | st.floats(-1e300, 1e300), min_size=3, max_size=3),
    )
    def check(start, steps, squeeze, powers, meta):
        if squeeze is not None:
            steps[squeeze[0] % len(steps)] = squeeze[1]
        angles = start + np.concatenate([[0.0], np.cumsum(steps)])
        series = MeasurementSeries(angles, np.array(powers[: len(angles)]), *meta)
        first.unlink(missing_ok=True)
        try:
            save_series(series, first)
        except ValueError:
            assert not first.exists()
            return
        save_series(load_series(first), second)
        assert second.read_bytes() == first.read_bytes()

    check()


def test_load_series_errors(tmp_path):
    header = "theta_r_deg,p_rx_dbm\n"
    with pytest.raises(ValueError, match="empty"):
        load_series(write(tmp_path, ""))
    with pytest.raises(ValueError, match="no data rows"):
        load_series(write(tmp_path, header))
    with pytest.raises(ValueError, match="line 4"):
        load_series(write(tmp_path, header + "0,-50\n5,-49\nbogus_row\n"))
    with pytest.raises(ValueError, match="line 3"):
        load_series(write(tmp_path, header + "0,-50\n5,-49,extra\n"))
    dup = header + "0,-50\n5,-49\n5,-48\n10,-47\n15,-46\n"
    with pytest.raises(ValueError, match="strictly increasing"):
        load_series(write(tmp_path, dup))
    short = header + "0,-50\n5,-49\n10,-48\n15,-47\n"
    with pytest.raises(ValueError, match="at least 5"):
        load_series(write(tmp_path, short))


def test_series_validation():
    with pytest.raises(ValueError):
        MeasurementSeries(np.array([0.0, 1, 2, 3, 4]), np.array([0.0, 1, 2, 3, np.inf]))



def test_series_rejects_infinite_last_angle():
    with pytest.raises(ValueError, match="observation angles must be finite"):
        MeasurementSeries(np.array([0.0, 1, 2, 3, np.inf]), np.zeros(5))


@pytest.mark.parametrize("key", ["theta_t_deg", "varphi_t_deg", "freq_hz"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_series_rejects_non_finite_metadata(tmp_path, key, value):
    text = f"# {key}={value}\ntheta_r_deg,p_rx_dbm\n" + "".join(f"{a},-50\n" for a in range(5))
    with pytest.raises(ValueError, match=f"metadata {key} must be finite, got {value}"):
        load_series(write(tmp_path, text))

def test_theoretical_curve_peaks():
    for theta_t in (25.0, 45.0, 65.0):
        theta, power = theoretical_curve(
            ExperimentConfig(theta_t_deg=theta_t), "perpendicular", GRID
        )
        assert theta[np.argmax(power)] == theta_t
    # the parallel case peaks one grid step below at steep incidence
    for theta_t, expected_peak in ((25.0, 25.0), (45.0, 45.0), (65.0, 60.0)):
        theta, power = theoretical_curve(ExperimentConfig(theta_t_deg=theta_t), "parallel", GRID)
        assert theta[np.argmax(power)] == expected_peak


def test_theoretical_curve_rejects_bad_pol():
    with pytest.raises(ValueError):
        theoretical_curve(ExperimentConfig(), "circular", GRID)


def test_parallel_is_negligible_at_grazing():
    # cos^2 of the grazing observation angle crushes the parallel cut by
    # ~300 dB relative to the peak (not an exact zero in floating point)
    _, power = theoretical_curve(ExperimentConfig(theta_t_deg=45.0), "parallel", GRID)
    assert power[-1] < np.max(power) - 250.0
    assert np.all(power[:-1] > np.max(power) - 60.0)


def test_sidelobe_gap_theoretical():
    for theta_t in (25.0, 45.0):
        for pol in ("perpendicular", "parallel"):
            theta, power = theoretical_curve(ExperimentConfig(theta_t_deg=theta_t), pol, GRID)
            gap = mainlobe_sidelobe_gap(theta, power)
            assert gap is not None and gap > 10.0


def test_peak_angle_quadratic_fit():
    theta = np.arange(0.0, 91.0, 5.0)
    true_peak = 43.0
    power = -0.02 * (theta - true_peak) ** 2
    angle, value = peak_angle(theta, power)
    assert angle == pytest.approx(true_peak, abs=1e-9)
    assert value == pytest.approx(0.0, abs=1e-9)


def test_hpbw_linear_interpolation():
    # triangular lobe: linear interpolation of the -3 dB crossing is exact
    theta = np.arange(0.0, 91.0, 5.0)
    width = 12.0
    half_power = 10 * math.log10(2.0)
    power = -np.abs(theta - 45.0) * (half_power / (width / 2))
    got = hpbw(theta, power)
    assert got == pytest.approx(width, abs=1e-9)


def test_hpbw_unavailable_on_truncated_lobe():
    theta, power = theoretical_curve(ExperimentConfig(theta_t_deg=0.0), "perpendicular", GRID)
    assert theta[np.argmax(power)] == 0.0  # lobe truncated at the grid edge
    assert hpbw(theta, power) is None


def test_compare_self_is_exact():
    curve = theoretical_curve(ExperimentConfig(theta_t_deg=45.0), "perpendicular", GRID)
    series = MeasurementSeries(curve[0], curve[1])
    report = compare(series, curve)
    assert report.offset_db == pytest.approx(0.0, abs=1e-12)
    assert report.rmse_db == pytest.approx(0.0, abs=1e-12)
    assert report.peak_angle_error_deg == pytest.approx(0.0, abs=1e-12)
    assert report.hpbw_error_deg == pytest.approx(0.0, abs=1e-12)
    assert report.n_points == 19


def test_compare_fits_each_peak_once(monkeypatch):
    """compare fits each series' peak parabola once, for its peak angle and
    its half-power level: two np.polyfit calls, and the same peak angles and
    beamwidths as peak_angle and hpbw give."""
    rng = np.random.default_rng(4)
    curve = theoretical_curve(ExperimentConfig(theta_t_deg=45.0), "perpendicular", GRID)
    series = MeasurementSeries(curve[0], curve[1] + rng.normal(0.0, 0.5, curve[1].size))
    fits = []
    polyfit = np.polyfit
    monkeypatch.setattr(np, "polyfit", lambda *args, **kwargs: fits.append(1) or polyfit(*args, **kwargs))
    report = compare(series, curve)
    assert len(fits) == 2
    monkeypatch.undo()
    for theta, power, kind in ((series.theta_r_deg, series.power_dbm, "measured"), (*curve, "theory")):
        assert getattr(report, f"peak_angle_{kind}_deg") == peak_angle(theta, power)[0]
        assert getattr(report, f"hpbw_{kind}_deg") == hpbw(theta, power)
    assert report.hpbw_measured_deg is not None and report.hpbw_theory_deg is not None


def test_compare_recovers_constant_offset():
    curve = theoretical_curve(ExperimentConfig(theta_t_deg=45.0), "perpendicular", GRID)
    series = MeasurementSeries(curve[0], curve[1] + 7.5)
    report = compare(series, curve)
    assert report.offset_db == pytest.approx(7.5, abs=1e-12)
    assert report.rmse_db == pytest.approx(0.0, abs=1e-12)


def test_compare_offset_invariant_to_common_shift():
    curve = theoretical_curve(ExperimentConfig(theta_t_deg=25.0), "perpendicular", GRID)
    series_a = MeasurementSeries(curve[0], curve[1] + 2.0)
    series_b = MeasurementSeries(curve[0], curve[1] + 2.0 + 11.0)
    shifted_curve = (curve[0], curve[1] + 11.0)
    rep_a = compare(series_a, curve)
    rep_b = compare(series_b, shifted_curve)
    assert rep_a.offset_db == pytest.approx(rep_b.offset_db, abs=1e-12)


def test_compare_noisy_recovery():
    rng = np.random.default_rng(1)
    curve = theoretical_curve(ExperimentConfig(theta_t_deg=45.0), "perpendicular", GRID)
    noisy = curve[1] + rng.normal(0.0, 1.0, curve[1].size)
    report = compare(MeasurementSeries(curve[0], noisy), curve)
    assert report.peak_angle_error_deg <= 1.0
    assert report.rmse_db <= 1.5


def test_compare_resamples_finer_model_grid():
    fine = np.arange(0.0, 90.1, 1.0)
    curve = theoretical_curve(ExperimentConfig(theta_t_deg=45.0), "perpendicular", fine)
    coarse = theoretical_curve(ExperimentConfig(theta_t_deg=45.0), "perpendicular", GRID)
    series = MeasurementSeries(GRID, coarse[1])
    report = compare(series, curve)
    assert report.offset_db == pytest.approx(0.0, abs=1e-9)
    assert report.rmse_db == pytest.approx(0.0, abs=1e-9)
