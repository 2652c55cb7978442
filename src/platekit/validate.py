"""Seeded random-scenario agreement checks: closed form vs. quadrature.

Scenarios draw the plate size from [0.5, 10] wavelengths per edge, a
uniformly random plate orientation, a random linear polarization, a random
front-side-illuminating arrival direction, and a random front-side
observation direction.  For each scenario the closed-form RCS is compared
against the physical-optics quadrature result.

A run draws the raw numbers of each scenario in a fixed order, then
evaluates _TRIALS_PER_BLOCK scenarios at a time as stacks, through one call
of the closed-form kernel and one stacked quadrature pass; random_scenario
builds objects from the same draw, so a row equals its rcs() and po_rcs().
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .geometry import PolarizationAngle, _wave_triads
from .po_oracle import IncidentWave, QuadratureSpec, _po_sigmas
from .rcs import PlateGeometry, Wavelength, _closed_form

# Trials drawn and evaluated at once; bounds the memory of a run.
_TRIALS_PER_BLOCK = 1024


def _draw(rng: np.random.Generator, lam: float):
    """Edge lengths (m), plate frame (rows edge1, edge2, normal: a uniformly
    random rotation from a normalized Gaussian quaternion), arrival
    direction, polarization angle and observation direction of one scenario.

    The arrival direction is resampled until it illuminates the front face,
    the observation direction until it lies on the front side.  Each value has
    the bits rng.uniform, rng.normal and np.linalg.norm would give.
    """
    l1 = (0.5 + 9.5 * rng.random()) * lam
    l2 = (0.5 + 9.5 * rng.random()) * lam
    q = rng.standard_normal(4)
    w, x, y, z = (q / math.sqrt(q.dot(q))).tolist()
    frame = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y + z * w), 2 * (x * z - y * w)],
            [2 * (x * y - z * w), 1 - 2 * (x * x + z * z), 2 * (y * z + x * w)],
            [2 * (x * z + y * w), 2 * (y * z - x * w), 1 - 2 * (x * x + y * y)],
        ]
    )
    normal = frame[2]
    while True:
        v = rng.standard_normal(3)
        a_inc = v / math.sqrt(v.dot(v))
        if normal.dot(a_inc) < -1e-6:
            break
    varphi = PolarizationAngle(2.0 * math.pi * rng.random()).varphi
    while True:
        v = rng.standard_normal(3)
        a_obs = v / math.sqrt(v.dot(v))
        if normal.dot(a_obs) > 1e-6:
            break
    return l1, l2, frame, a_inc, varphi, a_obs


def random_scenario(
    rng: np.random.Generator, wavelength: Wavelength
) -> tuple[PlateGeometry, IncidentWave, np.ndarray]:
    """Draw one (plate, incident wave, observation direction) scenario; see _draw."""
    l1, l2, frame, a_inc, varphi, a_obs = _draw(rng, wavelength.meters)
    plate = PlateGeometry(l1, l2, frame[2], frame[0], frame[1])
    return plate, IncidentWave.from_direction(a_inc, varphi, wavelength), a_obs


def _evaluate_block(rng: np.random.Generator, count: int, wavelength: Wavelength, nodes_per_edge: int | None):
    """Closed-form and quadrature RCS of the next ``count`` scenarios of ``rng``."""
    columns = zip(*(_draw(rng, wavelength.meters) for _ in range(count)))
    l1, l2, frames, a_inc, varphi, a_obs = (np.array(column) for column in columns)
    a_inc, _, h_dir = _wave_triads(a_inc, varphi)
    closed = _closed_form(l1, l2, frames[:, 2], frames[:, 0], frames[:, 1], a_inc, h_dir, a_obs, wavelength)[0]
    po = _po_sigmas(np.stack([l1, l2], axis=1), frames, a_inc, h_dir, a_obs, nodes_per_edge, wavelength)
    return closed, po


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
    if nodes_per_edge is not None:
        QuadratureSpec(nodes_per_edge)  # rejects a malformed rule before any trial
    rng = np.random.default_rng(seed)
    max_err = -1.0
    sum_err = 0.0
    worst = None
    for start in range(0, trials, _TRIALS_PER_BLOCK):
        closed, po = _evaluate_block(rng, min(_TRIALS_PER_BLOCK, trials - start), wavelength, nodes_per_edge)
        with np.errstate(divide="ignore", invalid="ignore"):
            errs = np.where(closed > 0.0, np.abs(po - closed) / closed, np.abs(po))
        for err in errs.tolist():  # a running sum in trial order; np.sum would pair the terms
            sum_err += err
        i = int(np.argmax(errs))
        if errs[i] > max_err:
            max_err = float(errs[i])
            worst = ScenarioResult(start + i, float(closed[i]), float(po[i]), max_err)
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
