"""Radar-equation link budget: received power through a reflecting plate.

The two-hop budget is

    Pr/Pt = Gt * Gr * sigma * lambda^2 / (4*pi * (4*pi*dt*dr)^2)

with antenna gains treated as fixed values aimed at the plate (no pattern
roll-off).  A zero RCS maps to -inf dBm, a distinct "no signal" value;
file writers are responsible for serializing it as the string "-inf".
"""

from __future__ import annotations

import math
import sys
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
        # Summed in Python floats in _received_dbm_from_dbsm's order: the sum is
        # non-finite where a level is, and where finite levels sum past float64.
        levels = (self.tx_power_dbm, self.amp_gain_db, self.tx_gain_dbi, self.rx_gain_dbi)
        if not math.isfinite(sum(map(float, levels))):
            raise ValueError(f"link powers and gains must be finite, with a finite sum "
                             f"tx_power_dbm + amp_gain_db + tx_gain_dbi + rx_gain_dbi, got {levels}")
        # Each distance's least and greatest value (an array's min and max, to
        # which a NaN propagates), which bound 4*pi*d_t*d_r: exactly where at
        # most one distance is an array, as in coverage.
        (t_lo, t_hi), (r_lo, r_hi) = (
            (d, d) if isinstance(d, float) else
            (float(np.min(d, initial=math.inf)), float(np.max(d, initial=-math.inf)))
            for d in (self.tx_distance_m, self.rx_distance_m)
        )
        if not (0.0 < t_lo and t_hi < math.inf and 0.0 < r_lo and r_hi < math.inf):
            raise ValueError("link distances must be positive and finite")
        # _received_dbm_from_dbsm takes log10(4*pi*d_t*d_r), rcs._check_square's rule.
        for product in (4.0 * math.pi * t_lo * r_lo, 4.0 * math.pi * t_hi * r_hi):
            if not sys.float_info.min <= product < math.inf:
                raise ValueError(f"4*pi * tx_distance_m * rx_distance_m must neither underflow nor overflow float64, "
                                 f"got {product}")


def received_dbm(scenario: LinkScenario, sigma_m2):
    """Received power in dBm for plate RCS values (the radar equation).

    Broadcasts over an array of RCS values and the scenario's distances.
    A zero RCS gives -inf (no reflected signal); a negative or NaN RCS is
    rejected.
    """
    return _received_dbm_from_dbsm(scenario, dbsm(sigma_m2))


def _received_dbm_from_dbsm(scenario: LinkScenario, rcs_dbsm):
    """received_dbm of RCS values already in dBsm (dbsm's output), bit for bit."""
    path_db = (
        rcs_dbsm
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
