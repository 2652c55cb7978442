"""Seeded random-scenario agreement checks: closed form vs. quadrature.

Scenarios draw the plate size from [0.5, 10] wavelengths per edge, a
uniformly random plate orientation, a random linear polarization, a random
front-side-illuminating arrival direction, and a random front-side
observation direction.  For each scenario the closed-form RCS is compared
against the physical-optics quadrature result.

A run draws _TRIALS_PER_BLOCK scenarios at a time in one loop, each's raw
numbers in a fixed order, and evaluates them as stacks, through one call of
the closed-form kernel and one stacked quadrature pass; random_scenario
builds objects from row 0 of a one-scenario draw, so a row equals its rcs()
and po_rcs().
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .geometry import _wave_triads
from .po_oracle import IncidentWave, QuadratureSpec, _po_sigmas
from .rcs import PlateGeometry, Wavelength, _closed_form

# Trials drawn and evaluated at once; bounds the memory of a run.
_TRIALS_PER_BLOCK = 1024


# A front-side test whose Python-float cosine is this close to its +-1e-6
# threshold is decided by the exact ndarray arithmetic instead.  The float
# cosine takes the normal from the unnormalized quaternion and sums without
# ndarray.dot's fused multiply-adds, so it differs from the exact one in the
# last bits: in 78% of 20,000 random draws, by at most 1.2e-15.
_THRESHOLD_MARGIN = 1e-12


# The plate frame of a unit quaternion (w, x, y, z), rows edge1, edge2, normal:
#   1 - 2(yy + zz)   2(xy + zw)       2(xz - yw)
#   2(xy - zw)       1 - 2(xx + zz)   2(yz + xw)
#   2(xz + yw)       2(yz - xw)       1 - 2(xx + yy)
# Each entry is 2*(a + sign*b), and 1 minus that on the diagonal, with a and b
# at these indices 4*i + j of the table of pairwise products of components i, j.
_FRAME_FIRST = np.array([[10, 6, 7], [6, 5, 11], [7, 11, 5]])
_FRAME_SECOND = np.array([[15, 12, 8], [12, 15, 4], [8, 4, 10]])
_FRAME_SIGN = np.array([[1.0, 1.0, -1.0], [-1.0, 1.0, 1.0], [1.0, -1.0, 1.0]])


def _exact_cosine(q, v):
    """normal . v/|v| for the plate normal of the quaternion ``q``, rounded as
    _draw_scenarios's frames and directions and ndarray.dot round it."""
    w, x, y, z = (q / math.sqrt(q.dot(q))).tolist()
    normal = np.array([2 * (x * z + y * w), 2 * (y * z - x * w), 1 - 2 * (x * x + y * y)])
    return float(normal.dot(v / math.sqrt(v.dot(v))))


def _draw_front(rng: np.random.Generator, q, normal, sign: float):
    """A Gaussian direction of ``rng`` whose cosine with ``normal`` is beyond
    sign * 1e-6, resampled until it is; returns the unnormalized draw."""
    n0, n1, n2 = normal
    while True:
        v = rng.standard_normal(3)
        a, b, c = v.tolist()
        cosine = (n0 * a + n1 * b + n2 * c) / math.sqrt(a * a + b * b + c * c)
        if abs(cosine - sign * 1e-6) <= _THRESHOLD_MARGIN:
            cosine = _exact_cosine(q, v)
        if sign * cosine > 1e-6:
            return a, b, c


def _draw_scenarios(rng: np.random.Generator, count: int, lam: float):
    """Edge lengths (m) (count,) each, plate frames (count, 3, 3) with rows
    edge1, edge2, normal (uniformly random rotations from normalized Gaussian
    quaternions), arrival directions (count, 3), polarization angles (count,)
    and observation directions (count, 3) of the next ``count`` scenarios.

    Each scenario draws, in order: two uniforms for the edges, a quaternion,
    arrival directions until one illuminates the front face, a uniform for
    the polarization, and observation directions until one lies on the front
    side.  The accept tests run on Python floats, the arrays are built after
    the loop, and each value has the bits rng.uniform, rng.normal,
    np.linalg.norm and ndarray.dot would give one scenario at a time.
    """
    uniforms, quaternions, arrivals, observers = [], [], [], []
    for _ in range(count):
        edges = rng.random(), rng.random()
        q = rng.standard_normal(4)
        w, x, y, z = quaternion = q.tolist()
        s = 2.0 / (w * w + x * x + y * y + z * z)
        normal = (s * (x * z + y * w), s * (y * z - x * w), 1.0 - s * (x * x + y * y))
        arrivals.append(_draw_front(rng, q, normal, -1.0))
        uniforms.append((*edges, rng.random()))
        observers.append(_draw_front(rng, q, normal, 1.0))
        quaternions.append(quaternion)
    u = np.array(uniforms).T
    l1, l2 = (0.5 + 9.5 * u[:2]) * lam
    varphi = 2.0 * math.pi * u[2]
    varphi[varphi == 0.0] = 2.0 * math.pi  # PolarizationAngle's closed end
    q = np.array(quaternions)
    q /= np.sqrt(np.vecdot(q, q))[:, None]
    products = (q[:, :, None] * q[:, None, :]).reshape(count, 16)
    frames = products[:, _FRAME_FIRST] + _FRAME_SIGN * products[:, _FRAME_SECOND]
    frames *= 2.0
    np.subtract(1.0, frames, out=frames, where=np.eye(3, dtype=bool))
    a_inc, a_obs = np.array(arrivals), np.array(observers)
    a_inc /= np.sqrt(np.vecdot(a_inc, a_inc))[:, None]
    a_obs /= np.sqrt(np.vecdot(a_obs, a_obs))[:, None]
    return l1, l2, frames, a_inc, varphi, a_obs


def random_scenario(
    rng: np.random.Generator, wavelength: Wavelength
) -> tuple[PlateGeometry, IncidentWave, np.ndarray]:
    """Draw one (plate, incident wave, observation direction) scenario; see _draw_scenarios."""
    l1, l2, frames, a_inc, varphi, a_obs = _draw_scenarios(rng, 1, wavelength.meters)
    frame = frames[0]
    plate = PlateGeometry(float(l1[0]), float(l2[0]), frame[2], frame[0], frame[1])
    return plate, IncidentWave.from_direction(a_inc[0], float(varphi[0]), wavelength), a_obs[0]


def _evaluate_block(rng: np.random.Generator, count: int, wavelength: Wavelength, nodes_per_edge: int | None):
    """Closed-form RCS, its sigma_max and the quadrature RCS of the next ``count`` scenarios of ``rng``."""
    l1, l2, frames, a_inc, varphi, a_obs = _draw_scenarios(rng, count, wavelength.meters)
    a_inc, _, h_dir = _wave_triads(a_inc, varphi)
    closed, smax = _closed_form(l1, l2, frames[:, 2], frames[:, 0], frames[:, 1], a_inc, h_dir, a_obs, wavelength)[:2]
    po = _po_sigmas(np.stack([l1, l2], axis=1), frames, a_inc, h_dir, a_obs, nodes_per_edge, wavelength)
    return closed, smax, po


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
    """Compare the closed form against quadrature on seeded random scenarios
    at ``wavelength`` (default: that of 3 GHz, as ``platekit validate``).

    A scenario's error is |quadrature - closed| / closed.  Where the closed
    form is exactly 0 (an exact polarization or sinc null) it is divided by
    the plate's sigma_max instead: the error stays relative to the plate's
    own scale, so a tolerance means the same at any frequency and plate size,
    where an absolute error in m^2 would grow with sigma_max."""
    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be non-negative and finite, got {tolerance}")
    if wavelength is None:
        wavelength = Wavelength.from_frequency(3e9)
    if nodes_per_edge is not None:
        QuadratureSpec(nodes_per_edge)  # rejects a malformed rule before any trial
    rng = np.random.default_rng(seed)
    max_err = -1.0
    sum_err = 0.0
    worst = None
    for start in range(0, trials, _TRIALS_PER_BLOCK):
        closed, smax, po = _evaluate_block(rng, min(_TRIALS_PER_BLOCK, trials - start), wavelength, nodes_per_edge)
        with np.errstate(divide="ignore", invalid="ignore"):
            errs = np.abs(po - closed) / np.where(closed > 0.0, closed, smax)
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
