"""Direction vectors, spherical angles, and wave polarization frames.

All angles are stored in radians; degree conversion happens at the CLI and
file boundaries only.  Unit vectors are plain numpy arrays of shape (3,).
The zenith angle is measured from the +z axis, the azimuth from the +x axis
toward +y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Unit-norm tolerance for values produced by our own constructors.
UNIT_NORM_TOL = 1e-12
# Looser tolerance accepted on user-supplied vectors and frames
# (double-precision headroom after external rotations).
FRAME_ORTHO_TOL = 1e-9

_EX = np.array([1.0, 0.0, 0.0])
_EY = np.array([0.0, 1.0, 0.0])
_EZ = np.array([0.0, 0.0, 1.0])


def unit(v) -> np.ndarray:
    """Normalize a 3-vector, rejecting (near-)zero input."""
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n < 1e-300:
        raise ValueError("cannot normalize a zero vector")
    return v / n


def unit_vector(x: float, y: float, z: float) -> np.ndarray:
    """Build a unit vector from components, validating the norm."""
    v = np.array([x, y, z], dtype=float)
    check_unit(v, tol=UNIT_NORM_TOL)
    return v


def check_unit(v, name: str = "vector", tol: float = FRAME_ORTHO_TOL) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    # Written so that a NaN norm fails too.
    if not abs(float(np.linalg.norm(v)) - 1.0) <= tol:
        raise ValueError(f"{name} is not unit length: |v| = {np.linalg.norm(v)!r}")
    return v


@dataclass(frozen=True)
class SphericalAngles:
    """Zenith/azimuth direction angles in radians.

    theta is restricted to the front half-space [0, pi/2]; phi to [0, 2*pi).
    The closed upper end of theta admits grazing observation directions,
    which occur at the edge of measured sweeps.
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi / 2:
            raise ValueError(f"zenith angle out of range [0, pi/2]: {self.theta}")
        if not 0.0 <= self.phi < 2 * math.pi:
            raise ValueError(f"azimuth angle out of range [0, 2*pi): {self.phi}")

    @classmethod
    def from_degrees(cls, theta_deg: float, phi_deg: float) -> "SphericalAngles":
        return cls(math.radians(theta_deg), math.radians(phi_deg))


@dataclass(frozen=True)
class PolarizationAngle:
    """Angle between the incident E field and the vertical incidence plane.

    Stored in radians in (0, 2*pi]; the value 0 names the same physical
    polarization as 2*pi and is normalized to the closed end on construction.
    """

    varphi: float

    def __post_init__(self):
        if not 0.0 <= self.varphi <= 2 * math.pi:
            raise ValueError(f"polarization angle out of range [0, 2*pi]: {self.varphi}")
        if self.varphi == 0.0:
            object.__setattr__(self, "varphi", 2 * math.pi)

    @classmethod
    def from_degrees(cls, varphi_deg: float) -> "PolarizationAngle":
        return cls(math.radians(varphi_deg))


def spherical_to_unit(angles: SphericalAngles) -> np.ndarray:
    """Unit vector (sin t cos p, sin t sin p, cos t) for zenith t, azimuth p."""
    st, ct = math.sin(angles.theta), math.cos(angles.theta)
    sp, cp = math.sin(angles.phi), math.cos(angles.phi)
    return np.array([st * cp, st * sp, ct])


def unit_to_spherical(v) -> SphericalAngles:
    """Inverse of spherical_to_unit for front half-space vectors (z >= 0)."""
    v = check_unit(v, "direction")
    theta = math.acos(min(1.0, max(-1.0, float(v[2]))))
    phi = math.atan2(float(v[1]), float(v[0])) % (2 * math.pi)
    if theta > math.pi / 2:
        raise ValueError("direction lies in the back half-space (z < 0)")
    return SphericalAngles(theta, phi)


def incident_direction(angles: SphericalAngles) -> np.ndarray:
    """Propagation direction of a wave arriving from zenith/azimuth `angles`.

    Points toward the reflector, i.e. the negative of the source direction.
    """
    return -spherical_to_unit(angles)


def observation_direction(angles: SphericalAngles) -> np.ndarray:
    """Unit vector from the reflector toward an observer at `angles`."""
    return spherical_to_unit(angles)


def spherical_unit_vectors(direction) -> tuple[np.ndarray, np.ndarray]:
    """Zenith and azimuth unit vectors (theta_hat, phi_hat) at a direction.

    theta_hat lies in the plane spanned by the z axis and the direction and
    is orthogonal to the direction; phi_hat is horizontal and orthogonal to
    that plane.  At the poles (direction parallel to z) the azimuth is
    degenerate and the phi = 0 convention is used.
    """
    d = check_unit(direction, "direction")
    theta = math.acos(min(1.0, max(-1.0, float(d[2]))))
    phi = math.atan2(float(d[1]), float(d[0]))
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    theta_hat = np.array([ct * cp, ct * sp, -st])
    phi_hat = np.array([-sp, cp, 0.0])
    return theta_hat, phi_hat


def polarization_triad(
    angles: SphericalAngles, pol: PolarizationAngle | float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Field directions (e_dir, h_dir, direction) of an incident plane wave.

    The E direction makes angle `pol` with the vertical plane that contains
    the arrival direction; the H direction completes the right-handed triad
    direction = e_dir x h_dir.
    """
    if not isinstance(pol, PolarizationAngle):
        pol = PolarizationAngle(float(pol))
    st, ct = math.sin(angles.theta), math.cos(angles.theta)
    sp, cp = math.sin(angles.phi), math.cos(angles.phi)
    a_inc = np.array([-st * cp, -st * sp, -ct])
    theta_hat = np.array([ct * cp, ct * sp, -st])
    phi_hat = np.array([-sp, cp, 0.0])
    cv, sv = math.cos(pol.varphi), math.sin(pol.varphi)
    e_dir = -cv * theta_hat - sv * phi_hat
    h_dir = np.cross(a_inc, e_dir)
    return e_dir, h_dir, a_inc


def plate_frame(normal, edge1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Complete an orthonormal plate frame (normal, edge1, edge2).

    edge2 = normal x edge1, so (edge1, edge2, normal) is right-handed:
    edge1 x edge2 = normal.
    """
    n = check_unit(normal, "normal")
    e1 = check_unit(edge1, "edge1")
    if abs(float(np.dot(n, e1))) > FRAME_ORTHO_TOL:
        raise ValueError("normal and edge1 are not orthogonal")
    e2 = np.cross(n, e1)
    return n, e1, e2


def check_rotation(matrix) -> np.ndarray:
    """Validate a proper rotation matrix (orthogonal, det +1)."""
    r = np.asarray(matrix, dtype=float)
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be a 3x3 matrix, got shape {r.shape}")
    if np.max(np.abs(r.T @ r - np.eye(3))) > FRAME_ORTHO_TOL:
        raise ValueError("matrix is not orthogonal")
    if abs(float(np.linalg.det(r)) - 1.0) > FRAME_ORTHO_TOL:
        raise ValueError("matrix is not a proper rotation (det != +1)")
    return r


def rotate_scene(matrix, *objects):
    """Apply one rotation consistently to vectors and frame-bearing objects.

    Each object is either a 3-vector (rotated directly) or anything exposing
    a ``rotated(matrix)`` method.  Returns the rotated objects in order, as a
    single value when one object is given.
    """
    r = check_rotation(matrix)
    out = []
    for obj in objects:
        if hasattr(obj, "rotated"):
            out.append(obj.rotated(r))
        else:
            v = np.asarray(obj, dtype=float)
            if v.shape != (3,):
                raise TypeError(f"cannot rotate object of type {type(obj).__name__}")
            out.append(r @ v)
    return out[0] if len(out) == 1 else tuple(out)


def rotation_zyz(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Rotation matrix for intrinsic z-y-z Euler angles in radians."""

    def rz(a):
        c, s = math.cos(a), math.sin(a)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    def ry(a):
        c, s = math.cos(a), math.sin(a)
        return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])

    return rz(alpha) @ ry(beta) @ rz(gamma)
