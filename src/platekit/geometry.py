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

# Norm and orthogonality tolerance accepted on user-supplied vectors and
# frames (double-precision headroom after external rotations).
FRAME_ORTHO_TOL = 1e-9
# How far check_unit's norm summed in Python floats may lie from
# np.linalg.norm's BLAS dot: a few ulps of the at most 12 the squares of
# components up to 2 add to.  A norm this close to 1 +- tol is decided by numpy.
_NORM_MARGIN = 1e-14


def _dot(u, v):
    """Dot product over the trailing axis, summed in np.sum's order but without its overhead."""
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]


def _cross(u, v):
    """Cross product over the trailing axis of broadcasting (..., 3) stacks:
    np.cross's products and differences, without its axis moves and copies."""
    if u.shape == v.shape == (3,) and u.dtype == v.dtype == np.float64:
        # Two 3-vectors: the same roundings in Python floats, without numpy's per-call cost.
        (u0, u1, u2), (v0, v1, v2) = u.tolist(), v.tolist()
        return np.array([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0])
    out = np.empty(np.broadcast(u, v).shape, dtype=np.result_type(u, v))
    np.subtract(u[..., 1] * v[..., 2], u[..., 2] * v[..., 1], out=out[..., 0])
    np.subtract(u[..., 2] * v[..., 0], u[..., 0] * v[..., 2], out=out[..., 1])
    np.subtract(u[..., 0] * v[..., 1], u[..., 1] * v[..., 0], out=out[..., 2])
    return out


def unit(v) -> np.ndarray:
    """Normalize a 3-vector, or each row of a (..., 3) stack, rejecting
    (near-)zero input.  The norm is np.linalg.norm's sqrt of the BLAS dot."""
    v = np.asarray(v, dtype=float)
    n = np.sqrt(np.vecdot(v, v))
    if np.any(n < 1e-300):
        raise ValueError("cannot normalize a zero vector")
    return v / n[..., None]


def check_unit(v, name: str = "vector", tol: float = FRAME_ORTHO_TOL) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    # Tested in Python floats.  A component above 2 fails before the norm,
    # whose squares could overflow.
    x, y, z = v.tolist()
    if abs(x) > 2.0 or abs(y) > 2.0 or abs(z) > 2.0:
        raise ValueError(f"{name} is not unit length: a component is above 2 in magnitude, {v.tolist()}")
    if abs(math.sqrt(x * x + y * y + z * z) - 1.0) <= tol - _NORM_MARGIN:
        return v
    # Written so that a NaN norm fails too.
    if not abs(float(np.linalg.norm(v)) - 1.0) <= tol:
        raise ValueError(f"{name} is not unit length: |v| = {np.linalg.norm(v)!r}")
    return v


def check_unit_rows(v, name: str = "vector", tol: float = FRAME_ORTHO_TOL) -> np.ndarray:
    """A 3-vector or a (..., 3) stack as a float array, each row held to
    check_unit's rule; the first row in C order that fails raises its message."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (3,):
        raise ValueError(f"{name} must be a 3-vector or a (..., 3) stack of them, got shape {v.shape}")
    rows = v.reshape(-1, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        off = np.abs(np.sqrt(np.vecdot(rows, rows)) - 1.0)
    # A row this pass does not clear by _NORM_MARGIN (NaN among them) is check_unit's to decide.
    for i in np.flatnonzero(~(off <= tol - _NORM_MARGIN)):
        check_unit(rows[i], name, tol)
    return v


# Each angle domain, [0, upper] or [0, upper): upper in degrees, upper as written in
# radians (its math.radians is exactly pi/2 or 2*pi), and whether it is closed.
ANGLE_DOMAINS = {
    "zenith": (90.0, "pi/2", True),
    "azimuth": (360.0, "2*pi", False),
    "polarization": (360.0, "2*pi", True),
}


def check_angle(name: str, values, kind: str, *, degrees: bool = True) -> np.ndarray:
    """``values`` (a number or an array) as a float array; ValueError if one lies
    outside the ``kind`` domain, naming ``name``, the bounds and the first such
    value as given; NaN is outside.  Degrees pass exactly when their math.radians
    pass (so negative degrees that round to -0.0 radians pass)."""
    upper, radian_bound, closed = ANGLE_DOMAINS[kind]
    hi = math.radians(upper)
    if type(values) is float:
        # A Python float is checked by math comparisons, on the same radians.
        rad = math.radians(values) if degrees else values
        if rad >= 0.0 and ((rad <= hi) if closed else (rad < hi)):
            return np.asarray(values)
        first = values
    else:
        given = np.asarray(values, dtype=float)
        rad = np.radians(given) if degrees else given
        inside = (rad >= 0.0) & ((rad <= hi) if closed else (rad < hi))
        if inside.all():
            return given
        first = float(given[~inside].flat[0])
    bounds = f"[0, {f'{upper:g}' if degrees else radian_bound}{']' if closed else ')'}"
    raise ValueError(f"{name} out of range {bounds}: {first}")


@dataclass(frozen=True)
class SphericalAngles:
    """Zenith/azimuth direction angles in radians.

    theta lies in the "zenith" domain of ANGLE_DOMAINS, the front half-space,
    and phi in the "azimuth" one.  The closed upper end of theta admits grazing
    observation directions, which occur at the edge of measured sweeps.
    """

    theta: float
    phi: float

    def __post_init__(self):
        check_angle("zenith angle", self.theta, "zenith", degrees=False)
        check_angle("azimuth angle", self.phi, "azimuth", degrees=False)

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
        check_angle("polarization angle", self.varphi, "polarization", degrees=False)
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
    return _spherical_frames(check_unit(direction, "direction"))


def _spherical_frames(d) -> tuple[np.ndarray, np.ndarray]:
    """spherical_unit_vectors at each row of a (..., 3) stack of unit directions.

    Built from the components, with no angles: with rho = hypot(d_x, d_y),
    theta_hat = (d_z*d_x/rho, d_z*d_y/rho, -rho) and phi_hat = (-d_y/rho,
    d_x/rho, 0); at rho = 0 the phi = 0 convention (cos phi = 1, sin phi = 0).
    An angle taken back from d_z (acos) keeps only half the digits next to
    the z axis; these frames are orthogonal to d to rounding at any angle.
    """
    x, y, z = d[..., 0], d[..., 1], d[..., 2]
    rho = np.hypot(x, y)
    pole = rho == 0.0
    rho_safe = np.where(pole, 1.0, rho)
    cp = np.where(pole, 1.0, x / rho_safe)
    sp = np.where(pole, 0.0, y / rho_safe)
    theta_hat = np.stack([z * cp, z * sp, -rho], axis=-1)
    phi_hat = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
    return theta_hat, phi_hat


def polarization_triad(
    angles: SphericalAngles, pol: PolarizationAngle | float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Field directions (e_dir, h_dir, direction) of an incident plane wave.

    The E direction makes angle `pol` with the vertical plane that contains
    the arrival direction; the H direction completes the right-handed triad
    direction = e_dir x h_dir.
    """
    st, ct = math.sin(angles.theta), math.cos(angles.theta)
    sp, cp = math.sin(angles.phi), math.cos(angles.phi)
    a_inc = np.array([-st * cp, -st * sp, -ct])
    theta_hat = np.array([ct * cp, ct * sp, -st])
    phi_hat = np.array([-sp, cp, 0.0])
    e_dir, h_dir = _wave_fields(a_inc, theta_hat, phi_hat, pol)
    return e_dir, h_dir, a_inc


def _wave_fields(a_inc, theta_hat, phi_hat, pol) -> tuple[np.ndarray, np.ndarray]:
    """(e_dir, h_dir) of waves along ``a_inc`` (..., 3), E at angle ``pol`` (an
    array of radians in (0, 2*pi] for a stack) from the vertical plane;
    theta_hat/phi_hat are the unit vectors at -a_inc."""
    if not isinstance(pol, np.ndarray):
        pol = (pol if isinstance(pol, PolarizationAngle) else PolarizationAngle(float(pol))).varphi
    cv, sv = np.cos(pol)[..., None], np.sin(pol)[..., None]
    e_dir = -cv * theta_hat - sv * phi_hat
    return e_dir, _cross(a_inc, e_dir)


def _wave_triads(a_inc, pol) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit (direction, e_dir, h_dir) of waves arriving along ``a_inc`` (..., 3),
    polarized as _wave_fields takes ``pol``."""
    a_inc = unit(a_inc)
    e_dir, h_dir = _wave_fields(a_inc, *_spherical_frames(-a_inc), pol)
    return a_inc, unit(e_dir), unit(h_dir)


def plate_frame(normal, edge1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Complete an orthonormal plate frame (normal, edge1, edge2).

    edge2 = normal x edge1, so (edge1, edge2, normal) is right-handed:
    edge1 x edge2 = normal.
    """
    n = check_unit(normal, "normal")
    e1 = check_unit(edge1, "edge1")
    if abs(float(np.dot(n, e1))) > FRAME_ORTHO_TOL:
        raise ValueError("normal and edge1 are not orthogonal")
    e2 = _cross(n, e1)
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


def rotation_zyz(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Rotation matrix for intrinsic z-y-z Euler angles in radians."""

    def rz(a):
        c, s = math.cos(a), math.sin(a)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    def ry(a):
        c, s = math.cos(a), math.sin(a)
        return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])

    return rz(alpha) @ ry(beta) @ rz(gamma)
