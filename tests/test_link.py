import math

import numpy as np
import pytest

from conftest import deg
from platekit import (
    LinkScenario,
    Wavelength,
    power_sweep,
    received_dbm,
    received_power,
    rcs_perpendicular_cut,
)


def table_scenario(wl=None, **overrides) -> LinkScenario:
    params = dict(
        tx_power_dbm=0.0,
        tx_gain_dbi=16.0,
        rx_gain_dbi=16.0,
        tx_distance_m=8.0,
        rx_distance_m=8.0,
        wavelength=wl or Wavelength.from_frequency(3e9),
        amp_gain_db=38.861,
    )
    params.update(overrides)
    return LinkScenario(**params)


def test_zero_rcs_is_no_signal():
    s = table_scenario()
    assert received_power(s, 0.0) == float("-inf")
    with pytest.raises(ValueError):
        received_power(s, -1.0)


def test_received_dbm_matches_scalar():
    s = table_scenario()
    sigmas = np.concatenate([[0.0], np.geomspace(1e-9, 1e4, 999)])
    power = received_dbm(s, sigmas)
    assert power.shape == sigmas.shape
    assert power[0] == float("-inf") and received_power(s, 0.0) == float("-inf")
    scalar = np.array([received_power(s, x) for x in sigmas])
    assert np.all(np.abs(power[1:] - scalar[1:]) <= 1e-12)
    # the radar equation written out term by term with math.log10
    reference = [
        38.861 + 16.0 + 16.0 + 10 * math.log10(x) + 20 * math.log10(s.wavelength.meters)
        - 10 * math.log10(4 * math.pi) - 20 * math.log10(4 * math.pi * 64.0)
        for x in sigmas[1:]
    ]
    assert np.all(np.abs(power[1:] - reference) <= 1e-12)
    with pytest.raises(ValueError):
        received_dbm(s, np.array([1.0, -1e-30, 2.0]))
    # per-receiver distances broadcast with the RCS values
    dists = np.array([2.0, 8.0, 30.0])
    per_rx = received_dbm(table_scenario(rx_distance_m=dists), np.array([0.5, 2.0, 0.0]))
    for d, x, p in zip(dists, [0.5, 2.0, 0.0], per_rx):
        assert p == pytest.approx(received_power(table_scenario(rx_distance_m=d), x), abs=1e-12)
    with pytest.raises(ValueError):
        table_scenario(rx_distance_m=np.array([1.0, 0.0]))


def test_distance_doubling():
    s = table_scenario()
    base = received_power(s, 10.0)
    far = received_power(table_scenario(rx_distance_m=16.0), 10.0)
    assert base - far == pytest.approx(6.0206, abs=1e-4)
    assert base - far == pytest.approx(20 * math.log10(2), abs=1e-9)


def test_reference_link_budget():
    """Hand evaluation of the radar equation in linear units as the oracle."""
    s = table_scenario()
    lam = s.wavelength.meters
    sigma = 4 * math.pi * 625 * lam**2 * math.cos(deg(45)) ** 2  # specular peak at 45 deg
    gains = (10 ** (16 / 10)) ** 2
    ratio = gains * sigma * lam**2 / (4 * math.pi * (4 * math.pi * 8.0 * 8.0) ** 2)
    expected = 0.0 + 38.861 + 10 * math.log10(ratio)
    got = received_power(s, sigma)
    assert got == pytest.approx(expected, abs=1e-9)
    assert got == pytest.approx(-2.31, abs=0.05)


def test_symmetry_under_end_swap():
    a = table_scenario(tx_gain_dbi=11.0, rx_gain_dbi=19.0, tx_distance_m=5.0, rx_distance_m=13.0)
    b = table_scenario(tx_gain_dbi=19.0, rx_gain_dbi=11.0, tx_distance_m=13.0, rx_distance_m=5.0)
    assert received_power(a, 3.3) == received_power(b, 3.3)


def test_monotone_in_sigma():
    s = table_scenario()
    sigmas = np.geomspace(1e-6, 1e3, 50)
    powers = [received_power(s, x) for x in sigmas]
    assert np.all(np.diff(powers) > 0)


def test_power_sweep_constant_sigma():
    s = table_scenario()
    grid = np.arange(0.0, 91.0, 5.0)
    _, power = power_sweep(s, grid, np.full(grid.shape, 2.0))
    assert np.allclose(power, power[0])
    offset_ref = received_power(s, 2.0)
    assert power[0] == pytest.approx(offset_ref, abs=1e-12)


def test_power_sweep_peaks_at_specular():
    s = table_scenario()
    wl = s.wavelength
    side = 5 * wl.meters
    grid = np.arange(0.0, 91.0, 5.0)
    sigmas = rcs_perpendicular_cut(deg(45), np.radians(grid), side, side, wl)
    out_grid, power = power_sweep(s, grid, sigmas)
    assert len(out_grid) == 19
    assert out_grid[np.argmax(power)] == 45.0


def test_power_sweep_grid_validation():
    s = table_scenario()
    with pytest.raises(ValueError):
        power_sweep(s, [], [])
    with pytest.raises(ValueError):
        power_sweep(s, [0.0, 5.0, 5.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="match the grid shape"):
        power_sweep(s, [0.0, 5.0], [1.0, 1.0, 1.0])
    grid, power = power_sweep(s, [30.0], [1.0])
    assert len(grid) == 1 and len(power) == 1


@pytest.mark.parametrize(
    "field",
    ["tx_power_dbm", "tx_gain_dbi", "rx_gain_dbi", "amp_gain_db", "tx_distance_m", "rx_distance_m"],
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_scenario_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        table_scenario(**{field: value})
    if field.endswith("distance_m"):
        with pytest.raises(ValueError, match="positive and finite"):
            table_scenario(**{field: np.array([1.0, value])})
