"""Closed-form radar cross section of a rectangular conducting plate.

The bistatic RCS factorizes into three pieces:

    sigma = sigma_max * f_js * f_af

where ``sigma_max = 4*pi*L1^2*L2^2 / lambda^2`` is the largest attainable
value, ``f_js`` (in [0, 1]) captures the polarization/projection loss of the
induced surface current, and ``f_af`` (in [0, 1]) is a sinc-squared array
factor driven by the projections of the deflection vector (observation
direction minus incidence direction) on the two plate edges.  The general
form holds for any plate size, orientation, and linear polarization; the
angle-parameterized functions below specialize it to a plate lying in the
x-y plane.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import geometry
from .geometry import FRAME_ORTHO_TOL, _cross, _dot, check_unit, check_unit_rows

SPEED_OF_LIGHT_M_S = 299792458.0

# The two polarizations of the principal cuts, rcs_perpendicular_cut and rcs_parallel_cut.
POLARIZATION_CASES = ("perpendicular", "parallel")

_EX = np.array([1.0, 0.0, 0.0])
_EY = np.array([0.0, 1.0, 0.0])
_EZ = np.array([0.0, 0.0, 1.0])


def _check_square(name: str, value: float) -> None:
    """ValueError unless ``value`` is positive with a square that is a normal float64."""
    square = float(value) * float(value)
    if not (value > 0.0 and sys.float_info.min <= square < math.inf):
        raise ValueError(f"{name} must be positive and finite, with a square that neither underflows nor "
                         f"overflows float64: {value}")


@dataclass(frozen=True)
class Wavelength:
    """Free-space wavelength in meters, with derived wavenumber."""

    meters: float

    def __post_init__(self):
        # sigma_max divides by lambda^2: a square that underflows (even to a
        # subnormal) or overflows would make it 0/0, inf or 0.
        _check_square("wavelength", self.meters)

    @property
    def k(self) -> float:
        """Wavenumber 2*pi/lambda in rad/m."""
        return 2.0 * math.pi / self.meters

    @classmethod
    def from_frequency(cls, hz: float) -> "Wavelength":
        if not 0.0 < hz < math.inf:
            raise ValueError(f"frequency must be positive and finite: {hz}")
        try:
            return cls(SPEED_OF_LIGHT_M_S / hz)
        except ValueError:
            raise ValueError(f"frequency must be positive and finite, with a wavelength whose square neither "
                             f"underflows nor overflows float64: {hz} Hz") from None


def _check_lengths(length1: float, length2: float) -> tuple[float, float]:
    if not (0.0 < length1 < math.inf and 0.0 < length2 < math.inf):
        raise ValueError(f"plate edge lengths must be positive and finite, got {length1} and {length2}")
    return length1, length2


@dataclass(frozen=True)
class PlateGeometry:
    """Rectangular plate: edge lengths plus an orthonormal orientation triad.

    ``edge1``/``edge2`` are the directions of the L1/L2 edges and ``normal``
    = edge1 x edge2 points out of the reflecting face.
    """

    length1: float
    length2: float
    normal: np.ndarray
    edge1: np.ndarray
    edge2: np.ndarray

    def __post_init__(self):
        _check_lengths(self.length1, self.length2)
        n = check_unit(self.normal, "normal")
        e1 = check_unit(self.edge1, "edge1")
        e2 = check_unit(self.edge2, "edge2")
        if (
            abs(float(np.dot(n, e1))) > FRAME_ORTHO_TOL
            or abs(float(np.dot(n, e2))) > FRAME_ORTHO_TOL
            or abs(float(np.dot(e1, e2))) > FRAME_ORTHO_TOL
        ):
            raise ValueError("plate frame is not orthonormal")
        if float(np.linalg.norm(_cross(e1, e2) - n)) > FRAME_ORTHO_TOL:
            raise ValueError("plate frame is not right-handed (normal != edge1 x edge2)")

    @classmethod
    def xy_plane(cls, length1: float, length2: float) -> "PlateGeometry":
        """Plate in the x-y plane, edges along +x and +y, normal +z."""
        return cls(length1, length2, _EZ.copy(), _EX.copy(), _EY.copy())

    @classmethod
    def from_frame(cls, length1: float, length2: float, normal, edge1) -> "PlateGeometry":
        n, e1, e2 = geometry.plate_frame(normal, edge1)
        return cls(length1, length2, n, e1, e2)

    @classmethod
    def from_euler_zyz(
        cls, length1: float, length2: float, alpha: float, beta: float, gamma: float
    ) -> "PlateGeometry":
        """Canonical x-y plate rotated by intrinsic z-y-z Euler angles (radians)."""
        r = geometry.rotation_zyz(alpha, beta, gamma)
        return cls(length1, length2, r @ _EZ, r @ _EX, r @ _EY)

    def rotated(self, matrix) -> "PlateGeometry":
        r = geometry.check_rotation(matrix)
        return PlateGeometry(
            self.length1, self.length2, r @ self.normal, r @ self.edge1, r @ self.edge2
        )


@dataclass(frozen=True)
class RcsBreakdown:
    """RCS value together with its three factors.

    ``front_side_valid`` is True when the wave illuminates the front face and
    the observer is on the front side (normal . a_inc < 0 and
    normal . a_obs > 0); outside that regime the physical-optics model the
    closed form rests on is not trustworthy, but the formula still evaluates.
    """

    sigma_m2: float
    sigma_max_m2: float
    f_js: float
    f_af: float
    front_side_valid: bool

    @property
    def sigma_dbsm(self) -> float:
        return dbsm(self.sigma_m2)


def _scalar_or_array(out):
    """Plain float for a 0-d result, so scalar inputs give scalar outputs."""
    return float(out) if np.ndim(out) == 0 else out


def dbsm(sigma_m2):
    """RCS in decibels relative to one square meter; 0 maps to -inf.

    Accepts scalars or arrays; any negative or NaN value is rejected.
    """
    if isinstance(sigma_m2, float):  # a Python or numpy float, tested with math
        if not sigma_m2 >= 0.0:
            _reject_rcs(sigma_m2)
        return -math.inf if sigma_m2 == 0.0 else float(10.0 * np.log10(sigma_m2))
    arr = np.asarray(sigma_m2, dtype=float)
    if not (arr >= 0.0).all():
        _reject_rcs(arr[~(arr >= 0.0)].flat[0])
    with np.errstate(divide="ignore"):
        out = 10.0 * np.log10(arr)
    return _scalar_or_array(out)


def _reject_rcs(value) -> None:
    """Raise for an RCS value that failed ``value >= 0``: NaN or negative."""
    if math.isnan(value):
        raise ValueError("RCS cannot be NaN")
    raise ValueError(f"RCS cannot be negative: {value}")


def sinc(x):
    """Unnormalized sinc sin(x)/x with a series branch near zero.

    The |x| < 1e-6 branch returns 1 - x^2/6, which is exact to double
    precision there and yields exactly 1.0 at the specular direction, the
    most frequently queried point.  Accepts scalars or arrays; a NaN or
    infinite value is rejected.
    """
    if not (math.isfinite(x) if isinstance(x, float) else np.isfinite(x).all()):
        bad = x if isinstance(x, float) else np.asarray(x, dtype=float)[~np.isfinite(x)].flat[0]
        raise ValueError(f"sinc argument must be finite, got {bad}")
    return _sinc(x)


def _sinc(x):
    """sinc of finite scalars or arrays, unchecked."""
    if isinstance(x, float):  # a Python or numpy float, tested with math
        return float(1.0 - x * x / 6.0 if abs(x) < 1e-6 else np.sin(x) / x)
    arr = np.asarray(x, dtype=float)
    small = np.abs(arr) < 1e-6
    if not small.any():
        return _scalar_or_array(np.sin(arr) / arr)
    safe = np.where(small, 1.0, arr)
    tiny = np.where(small, arr, 0.0)  # large elements would overflow x*x
    return _scalar_or_array(np.where(small, 1.0 - tiny * tiny / 6.0, np.sin(safe) / safe))


def _sigma_max(length1, length2, wl: Wavelength):
    """4*pi*L1^2*L2^2/lambda^2 for scalar or per-row edge lengths.  Every
    closed-form evaluation passes through here: a value that overflows
    float64 (inf, or inf * 0 from squares) or underflows to 0 raises
    ValueError; a subnormal one passes."""
    with np.errstate(over="ignore", invalid="ignore"):
        smax = 4.0 * math.pi * np.square(length1) * np.square(length2) / wl.meters**2
    if isinstance(smax, float):  # one plate: a numpy float64, tested with math
        finite, underflow = math.isfinite(smax), smax == 0.0
    else:
        finite, underflow = np.isfinite(smax).all(), (smax == 0.0).any()
    if not finite:
        raise ValueError(f"plate too large for the wavelength: sigma_max = 4*pi*L1^2*L2^2/lambda^2 overflows "
                         f"float64 (lambda = {wl.meters} m)")
    if underflow:
        raise ValueError(f"plate too small for the wavelength: sigma_max = 4*pi*L1^2*L2^2/lambda^2 underflows "
                         f"to 0 in float64 (lambda = {wl.meters} m)")
    return smax


# Longest edge, in wavelengths, whose phase k*L/2 * (d . edge) keeps its digits:
# |d . edge| <= 2 and float64 forms the phase to about k*L * 2**-53, which is
# 7e-7 rad at 1e9 wavelengths (a 100,000 km plate at 3 GHz, 500 m at 600 THz).
_MAX_EDGE_WAVELENGTHS = 1e9


def _half_phase(length, wl: Wavelength):
    """k*L/2 for scalar or per-row edge lengths, the factor of every closed-form
    phase; an edge over _MAX_EDGE_WAVELENGTHS raises ValueError."""
    limit = _MAX_EDGE_WAVELENGTHS * wl.meters
    if (length > limit) if isinstance(length, float) else np.any(np.greater(length, limit)):
        raise ValueError(f"plate electrically too large: an edge of {float(np.max(length))} m is over "
                         f"{_MAX_EDGE_WAVELENGTHS:g} wavelengths (lambda = {wl.meters} m), where its phase k*L/2 "
                         f"loses its digits in float64")
    return 0.5 * wl.k * length


def sigma_max(plate: PlateGeometry, wl: Wavelength) -> float:
    """Largest attainable RCS, 4*pi*L1^2*L2^2/lambda^2 (m^2)."""
    return float(_sigma_max(plate.length1, plate.length2, wl))


def f_js(normal, h_dir, a_obs):
    """Induced-current projection factor |(normal x h_dir) x a_obs|^2.

    Broadcasts over (..., 3) stacks of normals, field directions and
    observation directions.  Every row must be a unit vector, as check_unit
    holds one; a non-finite or non-unit row raises ValueError.
    """
    return _scalar_or_array(_f_js(check_unit_rows(normal, "normal"), check_unit_rows(h_dir, "h_dir"),
                                  check_unit_rows(a_obs, "a_obs")))


def _f_js(normal, h_dir, a_obs):
    """f_js of float (..., 3) stacks, unchecked."""
    w = _cross(_cross(normal, h_dir), a_obs)
    return _dot(w, w)


def _array_factor(length1, length2, edge1, edge2, a_inc, a_obs, wl: Wavelength):
    """sinc^2 * sinc^2 of the deflection projections, per row of lengths and edges."""
    d = a_obs - a_inc
    x1 = _half_phase(length1, wl) * _dot(d, edge1)
    x2 = _half_phase(length2, wl) * _dot(d, edge2)
    return np.square(_sinc(x1)) * np.square(_sinc(x2))


def f_af(plate: PlateGeometry, a_inc, a_obs, wl: Wavelength):
    """Array factor: sinc^2 of the deflection projections on both edges.

    Broadcasts over a trailing (..., 3) stack of observation directions.
    Every row of a_inc and a_obs must be a unit vector, as check_unit holds
    one; a non-finite or non-unit row raises ValueError.
    """
    a_inc, a_obs = check_unit_rows(a_inc, "a_inc"), check_unit_rows(a_obs, "a_obs")
    return _scalar_or_array(_array_factor(plate.length1, plate.length2, plate.edge1, plate.edge2, a_inc, a_obs, wl))


def _closed_form(length1, length2, normal, edge1, edge2, a_inc, h_dir, a_obs, wl: Wavelength):
    """(sigma, sigma_max, f_js, f_af), unchecked: the one evaluation of the closed form.

    Edge lengths are scalars or per-row arrays; the frame, wave and observer
    vectors (..., 3) float stacks broadcasting with them: one plate seen along many
    directions, or a stack of plates, each with its own frame, wave and
    observer.  Squares are np.square, correctly rounded for scalars too.
    """
    smax = _sigma_max(length1, length2, wl)
    js = _f_js(normal, h_dir, a_obs)
    af = _array_factor(length1, length2, edge1, edge2, a_inc, a_obs, wl)
    return smax * js * af, smax, js, af


_NOT_PLANE_WAVE = "h_dir is not orthogonal to a_inc (malformed plane wave)"


def sigma(plate: PlateGeometry, a_inc, h_dir, a_obs, wl: Wavelength):
    """Closed-form RCS sigma_max * f_js * f_af in m^2.

    Broadcasts over a trailing (..., 3) stack of observation directions.
    Every row of a_inc, h_dir and a_obs must be a unit vector, as check_unit
    holds one, and each h_dir row orthogonal to its a_inc row within
    FRAME_ORTHO_TOL, as rcs() holds one wave; otherwise ValueError.
    """
    a_inc = check_unit_rows(a_inc, "a_inc")
    h_dir = check_unit_rows(h_dir, "h_dir")
    a_obs = check_unit_rows(a_obs, "a_obs")
    if not (np.abs(_dot(a_inc, h_dir)) <= FRAME_ORTHO_TOL).all():
        raise ValueError(_NOT_PLANE_WAVE)
    return _scalar_or_array(_closed_form(plate.length1, plate.length2, plate.normal, plate.edge1, plate.edge2,
                                         a_inc, h_dir, a_obs, wl)[0])


def _check_plane_wave(a_inc, h_dir, a_obs):
    """Unit a_inc, h_dir and a_obs, with h_dir orthogonal to a_inc."""
    a_inc = check_unit(a_inc, "a_inc")
    a_obs = check_unit(a_obs, "a_obs")
    h_dir = check_unit(h_dir, "h_dir")
    if abs(float(np.dot(a_inc, h_dir))) > FRAME_ORTHO_TOL:
        raise ValueError(_NOT_PLANE_WAVE)
    return a_inc, h_dir, a_obs


def rcs(plate: PlateGeometry, a_inc, h_dir, a_obs, wl: Wavelength) -> RcsBreakdown:
    """Bistatic RCS of the plate for one incident wave and observer.

    Parameters
    ----------
    a_inc : propagation direction of the incident wave (toward the plate).
    h_dir : magnetic field direction of the incident wave; must be
        orthogonal to a_inc or the wave is not a valid plane wave.
    a_obs : direction from the plate toward the observer.
    """
    a_inc, h_dir, a_obs = _check_plane_wave(a_inc, h_dir, a_obs)
    factors = _closed_form(plate.length1, plate.length2, plate.normal, plate.edge1, plate.edge2,
                           a_inc, h_dir, a_obs, wl)
    valid = float(np.dot(plate.normal, a_inc)) < 0.0 and float(np.dot(plate.normal, a_obs)) > 0.0
    return RcsBreakdown(*map(float, factors), valid)


def specular_direction(normal, a_inc) -> np.ndarray:
    """Mirror-reflection direction a_inc - 2*(normal . a_inc)*normal."""
    n = check_unit(normal, "normal")
    a = check_unit(a_inc, "a_inc")
    d = float(np.dot(n, a))
    if d >= 0.0:
        raise ValueError("back-side illumination: normal . a_inc must be negative")
    return a - 2.0 * d * n


def rcs_large_plate_limit(plate: PlateGeometry, a_inc, h_dir, a_obs, wl: Wavelength) -> float:
    """Electrically-large-plate limit: a point mass at the specular direction.

    Returns sigma_max * |(normal x h_dir) x a_spec|^2 when a_obs lies within
    1e-9 radians of the specular direction, else 0.  The angular
    separation is computed from the chord length, which resolves angles far
    below the arccos granularity near zero.
    """
    a_inc, h_dir, a_obs = _check_plane_wave(a_inc, h_dir, a_obs)
    spec = specular_direction(plate.normal, a_inc)
    chord = float(np.linalg.norm(a_obs - spec))
    angle = 2.0 * math.asin(min(1.0, 0.5 * chord))
    if angle > 1e-9:
        return 0.0
    return sigma_max(plate, wl) * float(_f_js(plate.normal, h_dir, spec))


# The domain of each angle of the angle forms, by its name's stem (theta_t: theta).
_ANGLE_KINDS = {"theta": "zenith", "phi": "azimuth", "varphi": "polarization"}


def _check_angles(**angles) -> tuple:
    """Range-check the given angles (radians); return them as float arrays broadcast together."""
    checked = tuple(geometry.check_angle(name, value, _ANGLE_KINDS[name[:-2]], degrees=False)
                    for name, value in angles.items())
    # Python floats (check_angle tests them with math) come back 0-d, broadcast already.
    if all(type(value) is float for value in angles.values()):
        return checked
    return np.broadcast_arrays(*checked)


def rcs_xy_plate(theta_t, phi_t, varphi_t, theta_r, phi_r, length1, length2, wl: Wavelength):
    """RCS of an x-y-plane plate, parameterized entirely by angles (radians).

    theta/phi are the zenith/azimuth of the incidence and observation
    directions, varphi_t the polarization angle.  Broadcasts over array
    angle inputs.
    """
    theta_t, phi_t, varphi_t, theta_r, phi_r = _check_angles(
        theta_t=theta_t, phi_t=phi_t, varphi_t=varphi_t, theta_r=theta_r, phi_r=phi_r)
    st, ct = np.sin(theta_t), np.cos(theta_t)
    sr, cr = np.sin(theta_r), np.cos(theta_r)
    sv, cv = np.sin(varphi_t), np.cos(varphi_t)
    dphi = phi_t - phi_r
    bracket = (cr * (sv * ct * np.sin(phi_r - phi_t) + cv * np.cos(dphi))) ** 2 + (
        cv * np.sin(dphi) + sv * ct * np.cos(dphi)
    ) ** 2
    smax = _sigma_max(*_check_lengths(length1, length2), wl)
    x1 = _half_phase(length1, wl) * (sr * np.cos(phi_r) + st * np.cos(phi_t))
    x2 = _half_phase(length2, wl) * (sr * np.sin(phi_r) + st * np.sin(phi_t))
    out = smax * bracket * _sinc(x1) ** 2 * _sinc(x2) ** 2
    return _scalar_or_array(out)


def rcs_perpendicular(theta_t, theta_r, phi_r, length1, length2, wl: Wavelength):
    """x-y plate RCS for E perpendicular to the vertical incidence plane.

    Specialization of rcs_xy_plate to polarization angle 90 or 270 degrees
    with the wave arriving from azimuth 270 degrees.
    """
    theta_t, theta_r, phi_r = _check_angles(theta_t=theta_t, theta_r=theta_r, phi_r=phi_r)
    st, ct = np.sin(theta_t), np.cos(theta_t)
    sr, cr = np.sin(theta_r), np.cos(theta_r)
    bracket = (ct * cr * np.cos(phi_r)) ** 2 + (ct * np.sin(phi_r)) ** 2
    smax = _sigma_max(*_check_lengths(length1, length2), wl)
    x1 = _half_phase(length1, wl) * sr * np.cos(phi_r)
    x2 = _half_phase(length2, wl) * (sr * np.sin(phi_r) - st)
    out = smax * bracket * _sinc(x1) ** 2 * _sinc(x2) ** 2
    return _scalar_or_array(out)


def rcs_perpendicular_cut(theta_t, theta_r, length1, length2, wl: Wavelength):
    """Principal cut of rcs_perpendicular at observation azimuth 90 degrees:

    sigma = sigma_max * cos^2(theta_t) * sinc^2(k*L2/2 * (sin theta_r - sin theta_t))
    """
    theta_t, theta_r = _check_angles(theta_t=theta_t, theta_r=theta_r)
    smax = _sigma_max(*_check_lengths(length1, length2), wl)
    x2 = _half_phase(length2, wl) * (np.sin(theta_r) - np.sin(theta_t))
    out = smax * np.cos(theta_t) ** 2 * _sinc(x2) ** 2
    return _scalar_or_array(out)


def rcs_parallel(theta_t, theta_r, phi_r, length1, length2, wl: Wavelength):
    """x-y plate RCS for E parallel to the vertical incidence plane.

    Specialization of rcs_xy_plate to polarization angle 0/180 degrees with
    the wave arriving from azimuth 270 degrees.
    """
    theta_t, theta_r, phi_r = _check_angles(theta_t=theta_t, theta_r=theta_r, phi_r=phi_r)
    st = np.sin(theta_t)
    sr, cr = np.sin(theta_r), np.cos(theta_r)
    bracket = (cr * np.sin(phi_r)) ** 2 + np.cos(phi_r) ** 2
    smax = _sigma_max(*_check_lengths(length1, length2), wl)
    x1 = _half_phase(length1, wl) * sr * np.cos(phi_r)
    x2 = _half_phase(length2, wl) * (sr * np.sin(phi_r) - st)
    out = smax * bracket * _sinc(x1) ** 2 * _sinc(x2) ** 2
    return _scalar_or_array(out)


def rcs_parallel_cut(theta_t, theta_r, length1, length2, wl: Wavelength):
    """Principal cut of rcs_parallel at observation azimuth 90 degrees:

    sigma = sigma_max * cos^2(theta_r) * sinc^2(k*L2/2 * (sin theta_r - sin theta_t))

    Unlike the perpendicular cut, the cos^2(theta_r) weighting pulls the
    maximum to an observation angle slightly below the specular angle.
    """
    theta_t, theta_r = _check_angles(theta_t=theta_t, theta_r=theta_r)
    smax = _sigma_max(*_check_lengths(length1, length2), wl)
    x2 = _half_phase(length2, wl) * (np.sin(theta_r) - np.sin(theta_t))
    out = smax * np.cos(theta_r) ** 2 * _sinc(x2) ** 2
    return _scalar_or_array(out)
