"""Plate deployment tooling: aiming, coverage maps, orientation search.

A Scene fixes the transmitter, the plate position, the wave polarization,
and the link parameters; receiver positions come from a TargetRegion grid.
Coverage maps (the plate's own frame) and the orientation search (stacks of
candidate frames) score receivers through one evaluator.  Back-side
(shadowed) points are marked and excluded from planning objectives: the
reflection model holds only on the lit side.

The orientation search runs over the two tilt angles of the plate normal
only; the rotation about the normal is fixed by the horizontal-edge
convention (edge1 = normal x ez, normalized), which makes results
reproducible and keeps the search two-dimensional.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .geometry import PolarizationAngle, _cross, unit
from .link import LinkScenario, received_dbm
from .po_oracle import IncidentWave
from .rcs import PlateGeometry, Wavelength, _closed_form

OBJECTIVES = ("max-min-dbm", "max-mean-mw")

_EX = np.array([1.0, 0.0, 0.0])

# Orientation search schedule: global coarse pass, then window refinements
# shrinking the step by REFINE_FACTOR each level.  The scheduled levels
# always run (a level that fails to improve is not evidence of convergence
# when the objective is flat in dB near its peak); past the schedule,
# refinement continues only while a level still improves by
# MIN_IMPROVEMENT_DB, up to MAX_REFINE_LEVELS.
COARSE_STEP_DEG = 5.0
REFINE_FACTOR = 5.0
SCHEDULED_REFINE_LEVELS = 3
MAX_REFINE_LEVELS = 8
MIN_IMPROVEMENT_DB = 0.01
# Candidate x receiver pairs evaluated at once (receivers alone in coverage);
# bounds the memory of the search and of coverage maps.
_PAIRS_PER_CHUNK = 1 << 16
# Largest receiver grid, 1000 x 1000 cells; the region's points alone are 24 MB.
_MAX_REGION_CELLS = 1_000_000


@dataclass(frozen=True)
class Scene:
    """Transmitter, plate, and link parameters with explicit 3-D positions.

    Link distances are derived from the positions; the plate must face the
    transmitter (normal . incident direction < 0).
    """

    tx_position: np.ndarray
    plate_position: np.ndarray
    plate: PlateGeometry
    polarization: PolarizationAngle
    tx_power_dbm: float
    tx_gain_dbi: float
    rx_gain_dbi: float
    wavelength: Wavelength
    amp_gain_db: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "tx_position", np.asarray(self.tx_position, dtype=float))
        object.__setattr__(self, "plate_position", np.asarray(self.plate_position, dtype=float))
        if self.tx_position.shape != (3,) or self.plate_position.shape != (3,):
            raise ValueError("positions must be 3-vectors")
        levels = [self.tx_power_dbm, self.tx_gain_dbi, self.rx_gain_dbi, self.amp_gain_db]
        if not np.all(np.isfinite(np.concatenate([self.tx_position, self.plate_position, levels]))):
            raise ValueError("scene positions, powers and gains must be finite")
        if not isinstance(self.polarization, PolarizationAngle):
            object.__setattr__(self, "polarization", PolarizationAngle(float(self.polarization)))
        if float(np.linalg.norm(self.plate_position - self.tx_position)) < 1e-12:
            raise ValueError("transmitter and plate positions coincide")
        if float(np.dot(self.plate.normal, self.incident_direction())) >= 0.0:
            raise ValueError("plate does not face the transmitter")

    def incident_direction(self) -> np.ndarray:
        return unit(self.plate_position - self.tx_position)

    def tx_distance(self) -> float:
        return float(np.linalg.norm(self.plate_position - self.tx_position))

    def incident_wave(self) -> IncidentWave:
        return IncidentWave.from_direction(
            self.incident_direction(), self.polarization, self.wavelength
        )

    def link_scenario(self, rx_distance_m) -> LinkScenario:
        """Link budget to receivers at ``rx_distance_m`` (scalar or array) from the plate."""
        return LinkScenario(self.tx_power_dbm, self.tx_gain_dbi, self.rx_gain_dbi, self.tx_distance(),
                            rx_distance_m, self.wavelength, self.amp_gain_db)

    def with_orientation(self, normal, edge1, edge2) -> "Scene":
        plate = PlateGeometry(self.plate.length1, self.plate.length2, normal, edge1, edge2)
        return replace(self, plate=plate)


@dataclass(frozen=True)
class TargetRegion:
    """Rectangular grid of receiver positions.

    Points are corner + (iu/(nu-1))*edge_u + (iv/(nv-1))*edge_v, enumerated
    row-major over (iu, iv).  Degenerate axes (n = 1) stay at the corner.
    """

    corner: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    nu: int
    nv: int

    def __post_init__(self):
        object.__setattr__(self, "corner", np.asarray(self.corner, dtype=float))
        object.__setattr__(self, "edge_u", np.asarray(self.edge_u, dtype=float))
        object.__setattr__(self, "edge_v", np.asarray(self.edge_v, dtype=float))
        for name in ("corner", "edge_u", "edge_v"):
            if getattr(self, name).shape != (3,) or not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be a finite 3-vector")
        for name, count in (("nu", self.nu), ("nv", self.nv)):
            if isinstance(count, bool) or not isinstance(count, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {count!r}")
        if self.nu < 1 or self.nv < 1:
            raise ValueError("region grid must be nonempty")
        cells = int(self.nu) * int(self.nv)
        if cells > _MAX_REGION_CELLS:
            raise ValueError(f"region grid has {cells} cells, more than {_MAX_REGION_CELLS}; lower nu or nv")

    @classmethod
    def single_point(cls, point) -> "TargetRegion":
        return cls(point, np.zeros(3), np.zeros(3), 1, 1)

    def points(self) -> np.ndarray:
        """(nu*nv, 3) positions, stored component-major (an F-ordered view of a
        (3, nu*nv) array) so that each coordinate is one contiguous row."""
        fu = np.zeros(self.nu) if self.nu == 1 else np.arange(self.nu) / (self.nu - 1)
        fv = np.zeros(self.nv) if self.nv == 1 else np.arange(self.nv) / (self.nv - 1)
        pts = self.corner[:, None, None] + fu[:, None] * self.edge_u[:, None, None] + fv * self.edge_v[:, None, None]
        return pts.reshape(3, self.nu * self.nv).T


@dataclass
class CoverageMap:
    """Per-point coverage results, row-major over the region grid.

    ``power_dbm`` and ``sigma_m2`` are NaN where ``shadow`` is set (point on
    the back side of the plate or coincident with it).
    """

    points: np.ndarray
    sigma_m2: np.ndarray
    power_dbm: np.ndarray
    shadow: np.ndarray
    shape: tuple[int, int]

    def power_grid(self) -> np.ndarray:
        return self.power_dbm.reshape(self.shape)

    def shadow_grid(self) -> np.ndarray:
        return self.shadow.reshape(self.shape)


def _horizontal_frames(normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """edge1/edge2 for a stack of normals under the horizontal-edge convention."""
    e1 = np.stack([normals[:, 1], -normals[:, 0], np.zeros(len(normals))], axis=1)
    horiz = np.linalg.norm(e1, axis=1)
    vertical = horiz < 1e-12
    e1[vertical] = _EX
    e1[~vertical] /= horiz[~vertical, None]
    e2 = _cross(normals, e1)
    return e1, e2


def _angle_frames(zeniths, azimuths) -> np.ndarray:
    """(C, 3, 3) plate frames, rows edge1, edge2, normal, for normals at the
    given zenith/azimuth angles (radians) under the horizontal-edge convention."""
    z, a = np.asarray(zeniths, dtype=float), np.asarray(azimuths, dtype=float)
    normals = np.stack([np.sin(z) * np.cos(a), np.sin(z) * np.sin(a), np.cos(z)], axis=1)
    e1, e2 = _horizontal_frames(normals)
    return np.stack([e1, e2, normals], axis=1)


def orientation_from_angles(zenith: float, azimuth: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plate frame whose normal has the given zenith/azimuth (radians)."""
    e1, e2, n = _angle_frames([zenith], [azimuth])[0]
    return n, e1, e2


def orient_for_target(tx_position, plate_position, target_position) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orientation that reflects the transmitter specularly onto a target.

    The normal bisects the deflection between the incident direction and
    the plate-to-target direction, which drives the array factor to its
    maximum of 1 at the target.  Degenerate when the target direction
    equals the incident direction (nothing to reflect).
    """
    tx_position = np.asarray(tx_position, dtype=float)
    plate_position = np.asarray(plate_position, dtype=float)
    target_position = np.asarray(target_position, dtype=float)
    a_inc = unit(plate_position - tx_position)
    a_obs = unit(target_position - plate_position)
    deflection = a_obs - a_inc
    if float(np.linalg.norm(deflection)) < 1e-9:
        raise ValueError("target lies along the incident direction; orientation undefined")
    n = unit(deflection)
    e1, e2 = _horizontal_frames(n[None, :])
    return n, e1[0], e2[0]


def _receivers(scene: Scene, wave: IncidentWave, frames: np.ndarray, a_obs: np.ndarray, dist: np.ndarray):
    """(sigma in m^2, received dBm, shadow mask) of receivers at unit
    directions ``a_obs`` (N, 3), best stored component-major, and distances
    ``dist`` (N,) from the plate,
    for plate frames with rows edge1, edge2, normal: the plate's own (3, 3)
    frame gives (N,) arrays, a (C, 3, 3) stack of candidate frames (C, N)
    arrays.  Receivers on or behind the plate plane (normal . a_obs <= 0)
    are shadowed."""
    e1, e2, n = (frames[..., None, k, :] for k in range(3))  # (1, 3) or (C, 1, 3): broadcast against a_obs
    p = scene.plate
    sig = _closed_form(p.length1, p.length2, n, e1, e2, wave.direction, wave.h_dir, a_obs, scene.wavelength)[0]
    return sig, received_dbm(scene.link_scenario(dist), sig), frames[..., 2, :] @ a_obs.T <= 0.0


def coverage_map_points(scene: Scene, points) -> CoverageMap:
    """Coverage at explicit receiver positions (row order preserved),
    evaluated _PAIRS_PER_CHUNK receivers at a time."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must have shape (n, 3)")
    wave, frame = scene.incident_wave(), np.stack([scene.plate.edge1, scene.plate.edge2, scene.plate.normal])
    sig, power = np.empty(len(pts)), np.empty(len(pts))
    shadow = np.empty(len(pts), dtype=bool)
    for start in range(0, len(pts), _PAIRS_PER_CHUNK):
        part = slice(start, start + _PAIRS_PER_CHUNK)
        # Component-major: each coordinate of the chunk is one contiguous row.
        a_obs = (pts[part].T - scene.plate_position[:, None]).T
        dist = np.linalg.norm(a_obs, axis=1)
        coincident = dist < 1e-12
        dist[coincident] = 1.0
        a_obs /= dist[:, None]
        sig[part], power[part], shadow[part] = _receivers(scene, wave, frame, a_obs, dist)
        shadow[part] |= coincident
    sig[shadow] = np.nan
    power[shadow] = np.nan
    return CoverageMap(pts, sig, power, shadow, (pts.shape[0], 1))


def coverage_map(scene: Scene, region: TargetRegion) -> CoverageMap:
    """Coverage over a region grid, row-major over (u, v)."""
    cov = coverage_map_points(scene, region.points())
    cov.shape = (region.nu, region.nv)
    return cov


def _objective_values(scene: Scene, points: np.ndarray, frames: np.ndarray, objective: str) -> np.ndarray:
    """Objective for a (C, 3, 3) stack of candidate frames (rows edge1, edge2,
    normal), _PAIRS_PER_CHUNK candidate x point pairs at a time.  Shadowed
    points are excluded; candidates that shadow every point or face away
    from the transmitter score -inf."""
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    a_obs = (points.T - scene.plate_position[:, None]).T
    dist = np.linalg.norm(a_obs, axis=1)
    if np.any(dist < 1e-12):
        raise ValueError("region contains the plate position")
    a_obs /= dist[:, None]
    wave = scene.incident_wave()
    # Candidates facing away from the transmitter score -inf unevaluated.
    facing = np.flatnonzero(frames[:, 2] @ wave.direction < 0.0)
    values = np.full(len(frames), -np.inf)
    step = max(1, _PAIRS_PER_CHUNK // len(points))
    for start in range(0, len(facing), step):
        chunk = facing[start : start + step]
        _, power, shadow = _receivers(scene, wave, frames[chunk], a_obs, dist)
        if objective == "max-min-dbm":
            v = np.min(np.where(shadow, np.inf, power), axis=1)
            v[v == np.inf] = -np.inf  # every point shadowed
        else:
            total = np.sum(np.where(shadow, 0.0, 10.0 ** (power / 10.0)), axis=1)
            counts = np.sum(~shadow, axis=1)
            v = np.full(len(total), -np.inf)
            ok = (counts > 0) & (total > 0.0)
            v[ok] = 10.0 * np.log10(total[ok] / counts[ok])
        values[chunk] = v
    return values


def orientation_objective(scene: Scene, region: TargetRegion, objective: str) -> float:
    """Objective value of the scene's current plate orientation."""
    frame = np.stack([scene.plate.edge1, scene.plate.edge2, scene.plate.normal])
    return float(_objective_values(scene, region.points(), frame[None], objective)[0])


@dataclass
class OrientationResult:
    """Best orientation found by the search, with the achieved objective."""

    normal: np.ndarray
    edge1: np.ndarray
    edge2: np.ndarray
    zenith_deg: float
    azimuth_deg: float
    objective: str
    value_dbm: float
    evaluations: int


def optimize_orientation(
    scene: Scene, region: TargetRegion, objective: str = "max-min-dbm"
) -> OrientationResult:
    """Coarse-to-fine grid search over the plate normal's tilt angles.

    Starts from a global 5-degree grid plus the scene's own normal, then
    refines around the incumbent with steps of 1, 0.2, and 0.04 degrees
    (factor 5 per level), keeping the incumbent at every level so the
    objective never decreases.  Beyond the scheduled levels, refinement
    continues only while a level still improves the objective by at least
    0.01 dB.  If the result still scores below the scene's own frame (whose
    edges need not follow the horizontal-edge convention), that frame is
    returned instead.  Raises ValueError when every candidate scores -inf,
    as when the whole region lies behind any plate facing the transmitter.
    """
    points = region.points()
    step = COARSE_STEP_DEG
    zen = np.arange(0.0, 180.0 + 0.5 * step, step)
    az = np.arange(0.0, 360.0, step)
    zz, aa = np.meshgrid(zen, az, indexing="ij")
    cand_z, cand_a = zz.ravel(), aa.ravel()
    # Poles: azimuth is degenerate, keep a single representative.
    keep = ~(((cand_z == 0.0) | (cand_z == 180.0)) & (cand_a != 0.0))
    n0 = scene.plate.normal
    own_z = math.degrees(math.acos(min(1.0, max(-1.0, float(n0[2])))))
    own_a = math.degrees(math.atan2(float(n0[1]), float(n0[0]))) % 360.0
    cand_z = np.append(cand_z[keep], own_z)
    cand_a = np.append(cand_a[keep], own_a)

    frames = _angle_frames(np.radians(cand_z), np.radians(cand_a))
    values = _objective_values(scene, points, frames, objective)
    best = int(np.argmax(values))
    best_z, best_a, best_v = float(cand_z[best]), float(cand_a[best]), float(values[best])
    evaluations = len(cand_z)

    for level in range(1, MAX_REFINE_LEVELS + 1):
        prev_step = step
        step = step / REFINE_FACTOR
        offsets = np.arange(-prev_step, prev_step + 0.5 * step, step)
        zen = np.clip(best_z + offsets, 0.0, 180.0)
        az = (best_a + offsets) % 360.0
        zz, aa = np.meshgrid(zen, az, indexing="ij")
        cand_z, cand_a = zz.ravel(), aa.ravel()
        frames = _angle_frames(np.radians(cand_z), np.radians(cand_a))
        values = _objective_values(scene, points, frames, objective)
        evaluations += len(cand_z)
        i = int(np.argmax(values))
        improvement = float(values[i]) - best_v
        if improvement > 0.0:
            best_z, best_a, best_v = float(cand_z[i]), float(cand_a[i]), float(values[i])
        if level >= SCHEDULED_REFINE_LEVELS and improvement < MIN_IMPROVEMENT_DB:
            break

    own_v = orientation_objective(scene, region, objective)
    if own_v == best_v == -math.inf:
        raise ValueError("no candidate orientation lights any receiver in the region")
    if own_v > best_v:
        p = scene.plate
        return OrientationResult(p.normal, p.edge1, p.edge2, own_z, own_a, objective, own_v, evaluations + 1)
    n, e1, e2 = orientation_from_angles(math.radians(best_z), math.radians(best_a))
    return OrientationResult(n, e1, e2, best_z, best_a, objective, best_v, evaluations + 1)
