"""Plate deployment tooling: aiming, coverage maps, orientation search.

A Scene fixes the transmitter, the plate position, the wave polarization,
and the link parameters; receiver positions come from a TargetRegion grid.
Coverage maps (the plate's own frame) and the orientation search (stacks of
candidate frames) score receiver positions through one evaluator.  Points
behind the plate or at it are shadowed: marked in coverage and excluded from
planning objectives, since the reflection model holds only on the lit side.

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
from .rcs import _EX, PlateGeometry, Wavelength, _closed_form

OBJECTIVES = ("max-min-dbm", "max-mean-mw")

# Orientation search schedule: level 0 is a global grid at COARSE_STEP_DEG,
# each later level a window around the incumbent with the step shrunk by
# REFINE_FACTOR.  The scheduled levels always run (a level that fails to
# improve is not evidence of convergence when the objective is flat in dB
# near its peak); past the schedule, refinement continues only while a level
# still improves by MIN_IMPROVEMENT_DB, up to MAX_REFINE_LEVELS.
COARSE_STEP_DEG = 5.0
REFINE_FACTOR = 5.0
SCHEDULED_REFINE_LEVELS = 3
MAX_REFINE_LEVELS = 8
MIN_IMPROVEMENT_DB = 0.01
# Candidate x receiver pairs evaluated at once, and receivers per block: _tiles
# cuts all work into tiles of at most max(_PAIRS_PER_CHUNK, _RECEIVER_BLOCK)
# pairs, which bounds the memory of the search and of coverage maps.  The block
# is fixed, so the search's per-block sums do not depend on _PAIRS_PER_CHUNK.
_PAIRS_PER_CHUNK = 1 << 16
_RECEIVER_BLOCK = 1 << 16
# Largest receiver grid, 1000 x 1000 cells; the region's points alone are 24 MB.
_MAX_REGION_CELLS = 1_000_000
# Farthest a scene position or region vertex may lie from the origin.  Any two
# such points are at most 2e153 m apart, so every difference, squared norm and
# the link budget's 4*pi*d_t*d_r (under 5.1e307) stays finite.
_MAX_POSITION_M = 1e153


def _check_position(name: str, point) -> None:
    """Reject a finite 3-vector farther than _MAX_POSITION_M from the origin;
    math.hypot of Python floats, so no overflow warning on the way."""
    distance = math.hypot(*point)
    if not distance <= _MAX_POSITION_M:
        raise ValueError(f"{name} lies {distance:.3g} m from the origin, beyond the {_MAX_POSITION_M:.0e} m "
                         "bound on scene positions")


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
        _check_position("tx_position", self.tx_position.tolist())
        _check_position("plate_position", self.plate_position.tolist())
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
        # Every grid point lies in the parallelogram of these four vertices.
        corner, edge_u, edge_v = self.corner.tolist(), self.edge_u.tolist(), self.edge_v.tolist()
        for name, fu, fv in (("corner", 0, 0), ("corner + edge_u", 1, 0), ("corner + edge_v", 0, 1),
                             ("corner + edge_u + edge_v", 1, 1)):
            _check_position(f"region {name}", [c + fu * u + fv * v for c, u, v in zip(corner, edge_u, edge_v)])
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


def _receivers(scene: Scene, wave: IncidentWave, frames: np.ndarray, pts: np.ndarray):
    """(sigma in m^2, received dBm, shadow mask) of receivers at the checked
    positions ``pts`` (N, 3), as (C, N) arrays for a (C, 3, 3) stack of plate
    frames with rows edge1, edge2, normal.  Receivers on or behind the plate plane
    (normal . a_obs <= 0) or within 1e-12 m of the plate are shadowed.  Each
    value depends only on its frame and receiver, not on what else is scored."""
    # Component-major: each coordinate of the directions is one contiguous row.
    components = pts.T - scene.plate_position[:, None]
    a_obs = components.T
    # |a_obs| as np.linalg.norm takes it: the squares summed in component order.
    dist = components[0] * components[0]
    dist += components[1] * components[1]
    dist += components[2] * components[2]
    np.sqrt(dist, out=dist)
    coincident = dist < 1e-12
    dist[coincident] = 1.0
    a_obs /= dist[:, None]
    e1, e2, n = (frames[:, None, k, :] for k in range(3))  # (C, 1, 3): broadcast against a_obs
    p = scene.plate
    sig = _closed_form(p.length1, p.length2, n, e1, e2, wave.direction, wave.h_dir, a_obs, scene.wavelength)[0]
    return sig, received_dbm(scene.link_scenario(dist), sig), (frames[:, 2] @ a_obs.T <= 0.0) | coincident


def coverage_map_points(scene: Scene, points) -> CoverageMap:
    """Coverage at explicit receiver positions (row order preserved).  Each
    must be finite and within the _MAX_POSITION_M bound on scene positions."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must have shape (n, 3)")
    if not np.all(np.isfinite(pts)):
        raise ValueError("receiver points must be finite")
    # A point with every component within half the bound is within the bound.
    for point in pts[np.abs(pts).max(axis=1) > 0.5 * _MAX_POSITION_M].tolist():
        _check_position("receiver point", point)
    return _coverage(scene, pts)


def _own_frame(scene: Scene) -> np.ndarray:
    """The plate's own frame as a one-frame (1, 3, 3) stack, rows edge1, edge2, normal."""
    return np.stack([scene.plate.edge1, scene.plate.edge2, scene.plate.normal])[None]


def _tiles(scene: Scene, wave: IncidentWave, frames: np.ndarray, points: np.ndarray):
    """Cut a (C, 3, 3) stack of frames x the checked receiver positions
    ``points`` (N, 3) into tiles: receivers in blocks of _RECEIVER_BLOCK, in
    order, and within each block candidates _PAIRS_PER_CHUNK // block at a
    time (at least one).  Yields each tile's candidate slice, receiver slice,
    and _receivers' (sigma, dBm, shadow) arrays for it."""
    for start in range(0, len(points), _RECEIVER_BLOCK):
        receivers = slice(start, start + _RECEIVER_BLOCK)
        block = points[receivers]
        step = max(1, _PAIRS_PER_CHUNK // len(block))
        for first in range(0, len(frames), step):
            candidates = slice(first, first + step)
            yield candidates, receivers, *_receivers(scene, wave, frames[candidates], block)


def _coverage(scene: Scene, pts: np.ndarray) -> CoverageMap:
    """Coverage at the checked receiver positions ``pts`` (N, 3): the plate's
    frame as a one-frame stack, through _tiles."""
    sig, power, shadow = np.empty(len(pts)), np.empty(len(pts)), np.empty(len(pts), dtype=bool)
    for _, part, *tile in _tiles(scene, scene.incident_wave(), _own_frame(scene), pts):
        sig[part], power[part], shadow[part] = (values[0] for values in tile)
        del tile  # freed before _tiles computes the next tile, which bounds the peak
    sig[shadow] = np.nan
    power[shadow] = np.nan
    return CoverageMap(pts, sig, power, shadow, (pts.shape[0], 1))


def coverage_map(scene: Scene, region: TargetRegion) -> CoverageMap:
    """Coverage over a region grid, row-major over (u, v)."""
    cov = _coverage(scene, region.points())  # TargetRegion bounds its vertices
    cov.shape = (region.nu, region.nv)
    return cov


def _objective_values(scene: Scene, points: np.ndarray, frames: np.ndarray, objective: str) -> np.ndarray:
    """Objective at the checked receiver positions ``points`` (N, 3) for a
    (C, 3, 3) stack of candidate frames (rows edge1, edge2, normal), reduced
    over the tiles of _tiles: a running minimum of dBm, or per-block sums of
    mW added in block order with lit counts.
    Shadowed points (behind the plate or at it) are excluded; candidates that
    shadow every point or face away from the transmitter score -inf."""
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    wave = scene.incident_wave()
    # Candidates facing away from the transmitter score -inf unevaluated.
    facing = np.flatnonzero(frames[:, 2] @ wave.direction < 0.0)
    mean = objective == "max-mean-mw"
    reduced = np.full(len(facing), 0.0 if mean else np.inf)
    counts = np.zeros(len(facing), dtype=int)
    for candidates, _, _, power, shadow in _tiles(scene, wave, frames[facing], points):
        if mean:
            reduced[candidates] += np.sum(np.where(shadow, 0.0, 10.0 ** (power / 10.0)), axis=1)
            counts[candidates] += np.sum(~shadow, axis=1)
        else:
            reduced[candidates] = np.minimum(reduced[candidates], np.min(np.where(shadow, np.inf, power), axis=1))
        del power, shadow  # freed before _tiles computes the next tile
    values = np.full(len(frames), -np.inf)
    if mean:
        ok = (counts > 0) & (reduced > 0.0)
        values[facing[ok]] = 10.0 * np.log10(reduced[ok] / counts[ok])
    else:
        values[facing] = np.where(reduced == np.inf, -np.inf, reduced)  # every point shadowed
    return values


def orientation_objective(scene: Scene, region: TargetRegion, objective: str) -> float:
    """Objective value of the scene's current plate orientation."""
    return float(_objective_values(scene, region.points(), _own_frame(scene), objective)[0])


@dataclass
class OrientationResult:
    """Best orientation found by the search, with the achieved objective
    ``value_dbm`` and ``initial_dbm``, the objective of the scene's own frame."""

    normal: np.ndarray
    edge1: np.ndarray
    edge2: np.ndarray
    zenith_deg: float
    azimuth_deg: float
    objective: str
    value_dbm: float
    evaluations: int
    initial_dbm: float


def optimize_orientation(
    scene: Scene, region: TargetRegion, objective: str = "max-min-dbm"
) -> OrientationResult:
    """Coarse-to-fine grid search over the plate normal's tilt angles.

    One loop over levels.  Level 0 scores a global 5-degree grid plus the
    scene's own normal and takes its best candidate as the incumbent; each
    later level scores a window of +-1 old step around the incumbent at a
    step 5 times finer (1, 0.2, 0.04 degrees, ...) and replaces the
    incumbent only on a strict gain, so the objective never decreases.
    Levels 1-3 always run; past them, refinement continues only while a
    level still improves the objective by at least 0.01 dB, up to level 8.
    If the result still scores below the scene's own frame (whose edges
    need not follow the horizontal-edge convention), that frame is returned
    instead.  Raises ValueError when every candidate scores -inf,
    as when the whole region lies behind any plate facing the transmitter.
    """
    points = region.points()
    n0 = scene.plate.normal
    own_z = math.degrees(math.acos(min(1.0, max(-1.0, float(n0[2])))))
    own_a = math.degrees(math.atan2(float(n0[1]), float(n0[0]))) % 360.0
    step, best_v, evaluations = COARSE_STEP_DEG, -math.inf, 0
    for level in range(MAX_REFINE_LEVELS + 1):
        if level == 0:
            zz, aa = np.meshgrid(np.arange(0.0, 180.0 + 0.5 * step, step), np.arange(0.0, 360.0, step), indexing="ij")
            # Poles: azimuth is degenerate, keep a single representative.
            keep = ~(((zz == 0.0) | (zz == 180.0)) & (aa != 0.0))
            cand_z, cand_a = np.append(zz[keep], own_z), np.append(aa[keep], own_a)
        else:
            offsets = np.arange(-step, step + 0.5 * step / REFINE_FACTOR, step / REFINE_FACTOR)
            step /= REFINE_FACTOR
            zz, aa = np.meshgrid(np.clip(best_z + offsets, 0.0, 180.0), (best_a + offsets) % 360.0, indexing="ij")
            cand_z, cand_a = zz.ravel(), aa.ravel()
        values = _objective_values(scene, points, _angle_frames(np.radians(cand_z), np.radians(cand_a)), objective)
        evaluations += len(cand_z)
        i = int(np.argmax(values))
        improvement = float(values[i]) - best_v
        if level == 0 or improvement > 0.0:
            best_z, best_a, best_v = float(cand_z[i]), float(cand_a[i]), float(values[i])
        if level >= SCHEDULED_REFINE_LEVELS and improvement < MIN_IMPROVEMENT_DB:
            break

    own_v = float(_objective_values(scene, points, _own_frame(scene), objective)[0])  # orientation_objective's value
    if own_v == best_v == -math.inf:
        raise ValueError("no candidate orientation lights any receiver in the region")
    if own_v > best_v:
        p = scene.plate
        return OrientationResult(p.normal, p.edge1, p.edge2, own_z, own_a, objective, own_v, evaluations + 1, own_v)
    n, e1, e2 = orientation_from_angles(math.radians(best_z), math.radians(best_a))
    return OrientationResult(n, e1, e2, best_z, best_a, objective, best_v, evaluations + 1, own_v)
