import math

import numpy as np
import pytest

from conftest import EX, EY, EZ
from platekit import (
    PolarizationAngle,
    SphericalAngles,
    Wavelength,
    observation_direction,
    plate_frame,
    polarization_triad,
    spherical_to_unit,
    spherical_unit_vectors,
)
from platekit.geometry import ANGLE_DOMAINS, _cross, check_angle
from platekit.rcs import rcs_xy_plate


def test_spherical_to_unit_axes():
    assert np.allclose(spherical_to_unit(SphericalAngles(0.0, 0.0)), EZ, atol=1e-15)
    assert np.allclose(spherical_to_unit(SphericalAngles.from_degrees(90, 0)), EX, atol=1e-15)
    v = spherical_to_unit(SphericalAngles.from_degrees(45, 90))
    assert np.allclose(v, [0.0, 0.70711, 0.70711], atol=5e-6)
    assert math.isclose(np.linalg.norm(v), 1.0, abs_tol=1e-12)


def test_spherical_angle_ranges():
    with pytest.raises(ValueError):
        SphericalAngles.from_degrees(-1, 0)
    with pytest.raises(ValueError):
        SphericalAngles.from_degrees(91, 0)
    with pytest.raises(ValueError):
        SphericalAngles.from_degrees(45, 360)
    # grazing observation at the closed upper end is admitted
    SphericalAngles.from_degrees(90, 0)


def test_polarization_angle_normalizes_zero():
    assert PolarizationAngle(0.0).varphi == 2 * math.pi
    assert PolarizationAngle.from_degrees(90).varphi == pytest.approx(math.pi / 2)
    with pytest.raises(ValueError):
        PolarizationAngle(-0.1)
    with pytest.raises(ValueError):
        PolarizationAngle(2 * math.pi + 0.1)


UPPER_RADIANS = {"zenith": math.pi / 2, "azimuth": 2 * math.pi, "polarization": 2 * math.pi}
# Where each kind's radian angle goes: a constructor, and rcs_xy_plate's argument positions.
ANGLE_USERS = {
    "zenith": [lambda v: SphericalAngles(v, 0.0), 0, 3],
    "azimuth": [lambda v: SphericalAngles(0.0, v), 1, 4],
    "polarization": [PolarizationAngle, 2],
}


def _accepts(call, *args, **kwargs) -> bool:
    try:
        call(*args, **kwargs)
    except ValueError:
        return False
    return True


def _edges(upper: float) -> list:
    """0 and ``upper``, the floats next to each on both sides, NaN and both infinities."""
    return [0.0, upper, *(math.nextafter(v, d) for v in (0.0, upper) for d in (-math.inf, math.inf)),
            math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("kind", sorted(ANGLE_DOMAINS))
def test_angle_domain_is_one_in_degrees_and_radians(kind):
    """Each value next to a bound passes check_angle in degrees exactly when its
    math.radians passes in radians, and a radian angle passes check_angle
    exactly when the constructors and rcs_xy_plate accept it.  (-5e-324
    degrees passes: its radians are -0.0.)"""
    upper, _, closed = ANGLE_DOMAINS[kind]
    hi = UPPER_RADIANS[kind]
    assert math.radians(upper) == hi
    radians = [math.radians(d) for d in _edges(upper)] + _edges(hi)
    for deg in _edges(upper):
        in_radians = _accepts(check_angle, "a", math.radians(deg), kind, degrees=False)
        assert _accepts(check_angle, "a", deg, kind) == in_radians, deg
    wl = Wavelength(0.1)
    construct, *positions = ANGLE_USERS[kind]
    for rad in radians:
        inside = 0.0 <= rad and (rad <= hi if closed else rad < hi)
        assert _accepts(check_angle, "a", rad, kind, degrees=False) == inside, rad
        assert _accepts(construct, rad) == inside, rad
        for i in positions:
            angles = [0.3, 0.0, 1.0, 0.3, 0.0]
            angles[i] = rad
            assert _accepts(rcs_xy_plate, *angles, 0.5, 0.5, wl) == inside, (i, rad)


def test_angle_check_names_the_bounds_and_the_first_value_outside():
    with pytest.raises(ValueError, match=r"^--theta-r-deg out of range \[0, 90\]: 95.0$"):
        check_angle("--theta-r-deg", [10.0, 95.0, -1.0], "zenith")
    with pytest.raises(ValueError, match=r"^phi out of range \[0, 2\*pi\): 6.5$"):
        check_angle("phi", np.array([[0.5, 6.5]]), "azimuth", degrees=False)
    with pytest.raises(ValueError, match=r"^pol out of range \[0, 360\]: nan$"):
        check_angle("pol", math.nan, "polarization")
    assert check_angle("zenith", [0, 90], "zenith").tolist() == [0.0, 90.0]


def test_incident_direction_examples():
    """The third output of polarization_triad is the propagation direction."""

    def incident(angles):
        return polarization_triad(angles, PolarizationAngle.from_degrees(90))[2]

    assert np.allclose(incident(SphericalAngles(0.0, 1.0)), -EZ, atol=1e-15)
    a = incident(SphericalAngles.from_degrees(45, 270))
    assert np.allclose(a, [0.0, 0.70711, -0.70711], atol=5e-6)
    # hand substitution at theta_t=25, phi_t=270
    a = incident(SphericalAngles.from_degrees(25, 270))
    assert np.allclose(a, [0.0, 0.42262, -0.90631], atol=5e-6)
    assert math.isclose(np.linalg.norm(a), 1.0, abs_tol=1e-12)


def test_observation_direction_examples():
    assert np.allclose(observation_direction(SphericalAngles(0.0, 0.0)), EZ, atol=1e-15)
    assert np.allclose(
        observation_direction(SphericalAngles.from_degrees(90, 90)), EY, atol=1e-15
    )
    a = observation_direction(SphericalAngles.from_degrees(65, 90))
    assert np.allclose(a, [0.0, 0.90631, 0.42262], atol=5e-6)


def test_polarization_triad_examples():
    _, h_dir, a_inc = polarization_triad(
        SphericalAngles.from_degrees(45, 270), PolarizationAngle.from_degrees(90)
    )
    assert np.allclose(h_dir, [0.0, 0.70711, 0.70711], atol=5e-6)
    assert np.allclose(np.cross(a_inc, np.cross(h_dir, a_inc)), h_dir, atol=1e-12)

    _, h_dir, _ = polarization_triad(
        SphericalAngles(0.0, 0.0), PolarizationAngle.from_degrees(90)
    )
    assert np.allclose(h_dir, [-1.0, 0.0, 0.0], atol=1e-12)


def test_polarization_triad_orthonormal_random():
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        angles = SphericalAngles(
            float(rng.uniform(0, math.pi / 2 - 1e-9)), float(rng.uniform(0, 2 * math.pi))
        )
        pol = PolarizationAngle(float(rng.uniform(1e-9, 2 * math.pi)))
        e_dir, h_dir, a_inc = polarization_triad(angles, pol)
        assert abs(np.linalg.norm(e_dir) - 1) < 1e-12
        assert abs(np.linalg.norm(h_dir) - 1) < 1e-12
        assert abs(np.dot(e_dir, h_dir)) < 1e-12
        assert abs(np.dot(a_inc, e_dir)) < 1e-12
        assert abs(np.dot(a_inc, h_dir)) < 1e-12
        assert np.linalg.norm(np.cross(e_dir, h_dir) - a_inc) < 1e-12


def test_spherical_unit_vectors_geometry():
    rng = np.random.default_rng(3)
    for _ in range(500):
        angles = SphericalAngles(
            float(rng.uniform(1e-3, math.pi / 2 - 1e-3)), float(rng.uniform(0, 2 * math.pi))
        )
        u = spherical_to_unit(angles)
        theta_hat, phi_hat = spherical_unit_vectors(u)
        assert abs(np.dot(theta_hat, u)) < 1e-12
        # theta_hat lies in the plane spanned by ez and u
        assert abs(np.linalg.det(np.stack([EZ, u, theta_hat]))) < 1e-12
        assert abs(phi_hat[2]) < 1e-15
        assert abs(np.dot(phi_hat, u)) < 1e-12


def test_plate_frame():
    n, e1, e2 = plate_frame(EZ, EX)
    assert np.allclose(e2, EY, atol=1e-15)
    _, _, e2 = plate_frame(EY, EZ)
    assert np.allclose(e2, EX, atol=1e-15)
    s = 1 / math.sqrt(2)
    _, _, e2 = plate_frame(np.array([0.0, -s, s]), EX)
    assert np.allclose(e2, [0.0, s, s], atol=1e-12)
    with pytest.raises(ValueError):
        plate_frame(EZ, np.array([0.0, s, s]))


def test_check_unit_rejects_non_finite():
    from platekit import PlateGeometry
    from platekit.geometry import check_unit

    nan3 = [math.nan] * 3
    for v in (nan3, [math.inf, 0.0, 0.0], [1.0, math.nan, 0.0]):
        with pytest.raises(ValueError, match="not unit length"):
            check_unit(v)
    with pytest.raises(ValueError, match="not unit length"):
        PlateGeometry(1.0, 1.0, nan3, nan3, nan3)
    for l1, l2 in ((math.inf, 1.0), (1.0, math.nan), (0.0, 1.0), (1.0, -1.0)):
        with pytest.raises(ValueError, match="positive and finite"):
            PlateGeometry(l1, l2, EZ, EX, EY)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("huge", [1e300, -1e300, 1e160, 2.0000000000000004])
def test_check_unit_rejects_a_component_above_2_before_the_norm(huge):
    """A component above 2 cannot be part of a unit vector; the norm of a
    huge one would overflow, so it is rejected first, with no warning."""
    from platekit import PlateGeometry
    from platekit.geometry import check_unit

    with pytest.raises(ValueError, match="normal is not unit length: a component is above 2"):
        PlateGeometry.from_frame(1.0, 1.0, [huge, 0.0, 0.0], [0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="edge1 is not unit length: a component is above 2"):
        PlateGeometry(1.0, 1.0, EZ, [0.0, huge, 0.0], EY)
    with pytest.raises(ValueError, match="v is not unit length: a component is above 2"):
        check_unit([0.0, 0.0, huge], "v")
    assert check_unit([0.0, 0.0, -1.0]).tolist() == [0.0, 0.0, -1.0]


# One pair of 3-vectors, row pairs, a vector against a stack, a candidate
# stack against shared receivers, and a transposed (non-contiguous) view.
@pytest.mark.parametrize("shape_u, shape_v, transposed", [
    ((3,), (3,), False), ((7, 3), (7, 3), False), ((3,), (5, 3), False),
    ((4, 1, 3), (6, 3), False), ((4, 1, 3), (4, 3, 6), True),
])
def test_cross_matches_numpy_bitwise(shape_u, shape_v, transposed):
    rng = np.random.default_rng(3)
    u, v = rng.normal(size=shape_u), rng.normal(size=shape_v)
    if transposed:
        v = v.transpose(0, 2, 1)
    assert np.array_equal(_cross(u, v), np.cross(u, v))
