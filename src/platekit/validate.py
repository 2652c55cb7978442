"""Seeded random-scenario agreement checks: closed form vs. quadrature.

Scenarios draw the plate size from [0.5, 10] wavelengths per edge, a
uniformly random plate orientation, a random linear polarization, a random
front-side-illuminating arrival direction, and a random front-side
observation direction.  For each scenario the closed-form RCS is compared
against the physical-optics quadrature result.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .po_oracle import IncidentWave, QuadratureSpec, po_rcs
from .rcs import PlateGeometry, Wavelength, rcs


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniformly random rotation matrix from a normalized random quaternion."""
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_scenario(
    rng: np.random.Generator, wavelength: Wavelength
) -> tuple[PlateGeometry, IncidentWave, np.ndarray]:
    """Draw one (plate, incident wave, observation direction) scenario.

    The arrival direction is resampled until it illuminates the front face,
    the observation direction until it lies on the front side.
    """
    lam = wavelength.meters
    l1 = float(rng.uniform(0.5, 10.0)) * lam
    l2 = float(rng.uniform(0.5, 10.0)) * lam
    r = random_rotation(rng)
    plate = PlateGeometry.xy_plane(l1, l2).rotated(r)

    while True:
        a_inc = random_unit_vector(rng)
        if float(np.dot(plate.normal, a_inc)) < -1e-6:
            break
    varphi = float(rng.uniform(0.0, 2.0 * np.pi))
    wave = IncidentWave.from_direction(a_inc, varphi, wavelength)

    while True:
        a_obs = random_unit_vector(rng)
        if float(np.dot(plate.normal, a_obs)) > 1e-6:
            break
    return plate, wave, a_obs


@dataclass
class ScenarioResult:
    index: int
    sigma_closed_m2: float
    sigma_po_m2: float
    rel_error: float


@dataclass
class ValidationReport:
    """Outcome of a batch of closed-form vs. quadrature comparisons."""

    trials: int
    seed: int
    nodes_per_edge: int | None
    tolerance: float
    max_rel_error: float
    mean_rel_error: float
    worst: ScenarioResult
    passed: bool

    def lines(self) -> list[str]:
        nodes = "auto" if self.nodes_per_edge is None else str(self.nodes_per_edge)
        return [
            f"trials={self.trials} seed={self.seed} nodes_per_edge={nodes}",
            f"max_rel_error={self.max_rel_error:.6e}",
            f"mean_rel_error={self.mean_rel_error:.6e}",
            (
                f"worst_case index={self.worst.index}"
                f" closed={self.worst.sigma_closed_m2:.9e}"
                f" quadrature={self.worst.sigma_po_m2:.9e}"
            ),
            f"tolerance={self.tolerance:.6e} result={'PASS' if self.passed else 'FAIL'}",
        ]


def run_validation(
    trials: int,
    seed: int,
    wavelength: Wavelength | None = None,
    nodes_per_edge: int | None = None,
    tolerance: float = 1e-6,
) -> ValidationReport:
    """Compare the closed form against quadrature on seeded random scenarios."""
    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be non-negative and finite, got {tolerance}")
    if wavelength is None:
        wavelength = Wavelength(0.1)
    fixed_quad = None if nodes_per_edge is None else QuadratureSpec(nodes_per_edge)
    rng = np.random.default_rng(seed)
    max_err = -1.0
    sum_err = 0.0
    worst = None
    for i in range(trials):
        plate, wave, a_obs = random_scenario(rng, wavelength)
        closed = rcs(plate, wave.direction, wave.h_dir, a_obs, wavelength).sigma_m2
        po = po_rcs(plate, wave, a_obs, fixed_quad or QuadratureSpec.for_plate(plate, wavelength))
        err = abs(po - closed) / closed if closed > 0.0 else abs(po)
        sum_err += err
        if err > max_err:
            max_err = err
            worst = ScenarioResult(i, closed, po, err)
    return ValidationReport(
        trials=trials,
        seed=seed,
        nodes_per_edge=nodes_per_edge,
        tolerance=tolerance,
        max_rel_error=max_err,
        mean_rel_error=sum_err / trials,
        worst=worst,
        passed=max_err <= tolerance,
    )
