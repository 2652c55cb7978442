import math

import numpy as np
import pytest

from conftest import EX, EY, EZ, deg, random_rotation
from platekit import (
    PolarizationAngle,
    SphericalAngles,
    incident_direction,
    observation_direction,
    plate_frame,
    polarization_triad,
    rotate_scene,
    spherical_to_unit,
    spherical_unit_vectors,
    unit_to_spherical,
)
from platekit.geometry import rotation_zyz


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


def test_incident_direction_examples():
    assert np.allclose(incident_direction(SphericalAngles(0.0, 1.0)), -EZ, atol=1e-15)
    a = incident_direction(SphericalAngles.from_degrees(45, 270))
    assert np.allclose(a, [0.0, 0.70711, -0.70711], atol=5e-6)
    # hand substitution at theta_t=25, phi_t=270
    a = incident_direction(SphericalAngles.from_degrees(25, 270))
    assert np.allclose(a, [0.0, 0.42262, -0.90631], atol=5e-6)
    assert math.isclose(np.linalg.norm(a), 1.0, abs_tol=1e-12)


def test_observation_direction_examples():
    assert np.allclose(observation_direction(SphericalAngles(0.0, 0.0)), EZ, atol=1e-15)
    assert np.allclose(
        observation_direction(SphericalAngles.from_degrees(90, 90)), EY, atol=1e-15
    )
    a = observation_direction(SphericalAngles.from_degrees(65, 90))
    assert np.allclose(a, [0.0, 0.90631, 0.42262], atol=5e-6)


def test_roundtrip_angle_extraction():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        angles = SphericalAngles(
            float(rng.uniform(1e-6, math.pi / 2 - 1e-9)), float(rng.uniform(0, 2 * math.pi))
        )
        back = unit_to_spherical(spherical_to_unit(angles))
        assert abs(back.theta - angles.theta) < 1e-10
        assert abs(back.phi - angles.phi) % (2 * math.pi) < 1e-10


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


def test_rotate_scene():
    assert np.allclose(rotate_scene(np.eye(3), EX), EX)
    r90 = rotation_zyz(deg(90), 0.0, 0.0)
    assert np.allclose(rotate_scene(r90, EX), EY, atol=1e-15)
    rng = np.random.default_rng(5)
    r1, r2 = random_rotation(rng), random_rotation(rng)
    v = np.array([0.3, -0.4, 0.86])
    assert np.allclose(rotate_scene(r2, rotate_scene(r1, v)), rotate_scene(r2 @ r1, v), atol=1e-12)
    with pytest.raises(ValueError):
        rotate_scene(np.diag([1.0, 1.0, -1.0]), EX)  # reflection, not rotation
    with pytest.raises(ValueError):
        rotate_scene(2 * np.eye(3), EX)


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
