"""Radar-equation link budget: received power through a reflecting plate.

The two-hop budget is

    Pr/Pt = Gt * Gr * sigma * lambda^2 / (4*pi * (4*pi*dt*dr)^2)

with antenna gains treated as fixed values aimed at the plate (no pattern
roll-off).  A zero RCS maps to -inf dBm, a distinct "no signal" value;
file writers are responsible for serializing it as the string "-inf".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rcs import Wavelength, dbsm


@dataclass(frozen=True)
class LinkScenario:
    """Transmit side, receive side, and geometry of a reflected link.

    Distances are transmitter-to-plate and plate-to-receiver in meters;
    either may be an array that broadcasts with the RCS values given to
    received_dbm (one receiver per value).  ``amp_gain_db`` models an
    external power amplifier after the source, so the effective transmit
    power is tx_power_dbm + amp_gain_db.
    """

    tx_power_dbm: float
    tx_gain_dbi: float
    rx_gain_dbi: float
    tx_distance_m: float
    rx_distance_m: float
    wavelength: Wavelength
    amp_gain_db: float = 0.0

    def __post_init__(self):
        levels = (self.tx_power_dbm, self.tx_gain_dbi, self.rx_gain_dbi, self.amp_gain_db)
        if not np.all(np.isfinite(levels)):
            raise ValueError(f"link powers and gains must be finite, got {levels}")
        distances = (self.tx_distance_m, self.rx_distance_m)
        if not all(np.all(np.greater(d, 0.0) & np.isfinite(d)) for d in distances):
            raise ValueError("link distances must be positive and finite")


def received_dbm(scenario: LinkScenario, sigma_m2):
    """Received power in dBm for plate RCS values (the radar equation).

    Broadcasts over an array of RCS values and the scenario's distances.
    A zero RCS gives -inf (no reflected signal); a negative RCS is
    rejected.
    """
    path_db = (
        dbsm(sigma_m2)
        + 20.0 * np.log10(scenario.wavelength.meters)
        - 10.0 * np.log10(4.0 * math.pi)
        - 20.0 * np.log10(4.0 * math.pi * scenario.tx_distance_m * scenario.rx_distance_m)
    )
    return (
        scenario.tx_power_dbm
        + scenario.amp_gain_db
        + scenario.tx_gain_dbi
        + scenario.rx_gain_dbi
        + path_db
    )


def received_power(scenario: LinkScenario, sigma_m2: float) -> float:
    """Received power in dBm for a single plate RCS (see received_dbm)."""
    return float(received_dbm(scenario, float(sigma_m2)))


def power_sweep(scenario: LinkScenario, grid, rcs_curve) -> tuple[np.ndarray, np.ndarray]:
    """Received power over a monotone sweep grid.

    ``grid`` labels the sweep points (typically observation angles in
    degrees) and must be strictly increasing.  ``rcs_curve`` is the array
    of RCS values (m^2) aligned with the grid.  Returns (grid, power_dbm)
    arrays.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("sweep grid is empty")
    if grid.size > 1 and not np.all(np.diff(grid) > 0.0):
        raise ValueError("sweep grid must be strictly increasing")
    sigmas = np.asarray(rcs_curve, dtype=float)
    if sigmas.shape != grid.shape:
        raise ValueError("rcs_curve array must match the grid shape")
    return grid.copy(), received_dbm(scenario, sigmas)
