import math

import numpy as np
import pytest

from conftest import EX, EY, EZ, deg, quaternion_rotation, random_rotation, random_unit, rel_close
from platekit import (
    PlateGeometry,
    PolarizationAngle,
    SphericalAngles,
    Wavelength,
    dbsm,
    f_af,
    f_js,
    polarization_triad,
    rcs,
    rcs_large_plate_limit,
    rcs_parallel,
    rcs_parallel_cut,
    rcs_perpendicular,
    rcs_perpendicular_cut,
    rcs_xy_plate,
    sigma,
    sigma_max,
    sinc,
    specular_direction,
)

LAMBDA_3GHZ = 299792458.0 / 3e9
# sinc^2(5*pi*sin(45 deg)), the array-factor loss of the 45->0 degree cut
F_AF_45_TO_0 = (math.sin(5 * math.pi * math.sin(deg(45))) / (5 * math.pi * math.sin(deg(45)))) ** 2


@pytest.mark.parametrize("meters", [0.0, -0.1, math.inf, math.nan, 1e-155, 2e-162, 1e-200, 1e155, 1e200])
def test_wavelength_rejects_a_square_outside_normal_float64(meters):
    with pytest.raises(ValueError, match="wavelength must be positive and finite"):
        Wavelength(meters)


@pytest.mark.parametrize("meters", [1.5e-154, 1.3e154, np.float64(0.1)])
def test_wavelength_accepts_a_normal_square(meters):
    wl = Wavelength(meters)
    assert 0.0 < sigma_max(PlateGeometry.xy_plane(0.1, 0.1), wl) < math.inf


def test_sinc_basics():
    assert sinc(0.0) == 1.0
    assert sinc(math.pi) == pytest.approx(0.0, abs=1e-15)
    # series branch continuous across the 1e-6 switch point
    assert sinc(9.9e-7) == pytest.approx(math.sin(9.9e-7) / 9.9e-7, rel=1e-15)
    assert sinc(1.1e-6) == pytest.approx(1 - (1.1e-6) ** 2 / 6, rel=1e-15)
    arr = sinc(np.array([0.0, math.pi / 2]))
    assert arr[0] == 1.0 and arr[1] == pytest.approx(2 / math.pi)
    # Arrays with and without series elements, bit for bit as the form that
    # takes both branches everywhere and picks one with np.where.
    rng = np.random.default_rng(46)
    x = np.concatenate([[0.0, -0.0, 1e-6, -1e-6, 2e154], rng.normal(size=200) * 10.0 ** rng.integers(-9, 3, 200)])
    rng.shuffle(x)
    for values in (x, x[np.abs(x) >= 1e-6], x[:1]):
        small = np.abs(values) < 1e-6
        safe = np.where(small, 1.0, values)
        tiny = np.where(small, values, 0.0)
        expected = np.where(small, 1.0 - tiny * tiny / 6.0, np.sin(safe) / safe)
        assert sinc(values).tobytes() == expected.tobytes()


def test_sinc_series_branch_leaves_large_elements_alone():
    # x*x of the large element overflows; the series must not square it
    arr = sinc(np.array([1e-7, 2e154]))
    assert arr[0] == 1.0 - 1e-7 * 1e-7 / 6.0 and arr[1] == sinc(2e154)


@pytest.mark.parametrize("form", [float, np.float64, np.array, lambda x: np.array([[2.0, x], [-3.0, math.nan]])])
def test_dbsm_rejects_nan_and_negative_values(form):
    """NaN and negative RCS values are rejected with their own messages, as a
    float, a numpy float, a 0-d array or the first bad element of an array."""
    with pytest.raises(ValueError, match="^RCS cannot be NaN$"):
        dbsm(form(math.nan))
    with pytest.raises(ValueError, match="^RCS cannot be negative: -1.0$"):
        dbsm(form(-1.0))


def test_sigma_max(wl_3ghz):
    lam = wl_3ghz.meters
    unit_plate = PlateGeometry.xy_plane(lam, lam)
    assert sigma_max(unit_plate, wl_3ghz) == pytest.approx(4 * math.pi * lam**2, rel=1e-14)

    plate = PlateGeometry.xy_plane(5 * lam, 5 * lam)
    val = sigma_max(plate, wl_3ghz)
    assert val == pytest.approx(4 * math.pi * 625 * lam**2, rel=1e-14)
    assert val == pytest.approx(78.431, abs=5e-4)
    assert dbsm(val) == pytest.approx(18.94, abs=5e-3)

    double = PlateGeometry.xy_plane(10 * lam, 10 * lam)
    assert sigma_max(double, wl_3ghz) == pytest.approx(16 * val, rel=1e-14)


def test_f_js_examples():
    assert f_js(EZ, EX, EZ) == pytest.approx(1.0, abs=1e-15)
    assert f_js(EZ, EX, EY) == pytest.approx(0.0, abs=1e-15)
    s = 1 / math.sqrt(2)
    # equals cos^2(45 deg) per the perpendicular-polarization bracket
    assert f_js(EZ, np.array([0.0, s, s]), EZ) == pytest.approx(0.5, rel=1e-12)


def test_f_af_examples(wl_3ghz, plate_5wl):
    a_inc = np.array([0.0, 0.0, -1.0])
    spec = specular_direction(plate_5wl.normal, a_inc)
    assert f_af(plate_5wl, a_inc, spec, wl_3ghz) == 1.0

    # deflection projecting lambda/L1 on edge1 hits the first array-factor null
    p = wl_3ghz.meters / plate_5wl.length1
    a_obs = np.array([p, 0.0, math.sqrt(1 - p * p)])
    assert f_af(plate_5wl, a_inc, a_obs, wl_3ghz) < 1e-30

    _, _, a_inc45 = polarization_triad(SphericalAngles.from_degrees(45, 270), 0.5)
    assert f_af(plate_5wl, a_inc45, EZ, wl_3ghz) == pytest.approx(F_AF_45_TO_0, rel=1e-12)
    assert F_AF_45_TO_0 == pytest.approx(0.0080054, abs=5e-6)


@pytest.mark.parametrize("bad, message", [
    ([0.0, 0.0, 5.0], "is not unit length: a component is above 2 in magnitude, [0.0, 0.0, 5.0]"),
    ([math.nan, 0.0, 1.0], "is not unit length: |v| = np.float64(nan)"),
    ([0.0, 0.6, 1.0], "is not unit length: |v| = np.float64(1.16619037896906)"),
])
def test_f_js_and_f_af_reject_a_non_unit_row(wl_3ghz, plate_5wl, bad, message):
    """f_js(z, x, 5z) returned 25, past the factor bound [0, 1], and a NaN row
    passed through: every direction stack is held to check_unit's rule and
    message, as one vector or a row of a stack."""
    a_inc = -EZ
    for given in (np.array(bad), np.array([[EZ, EY], [bad, EZ]])):
        calls = [
            ("normal", lambda: f_js(given, EX, EZ)),
            ("h_dir", lambda: f_js(EZ, given, EZ)),
            ("a_obs", lambda: f_js(EZ, EX, given)),
            ("a_inc", lambda: f_af(plate_5wl, given, EZ, wl_3ghz)),
            ("a_obs", lambda: f_af(plate_5wl, a_inc, given, wl_3ghz)),
        ]
        for name, call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"{name} {message}"


def test_f_js_and_f_af_reject_a_stack_that_is_not_of_3_vectors(wl_3ghz, plate_5wl):
    with pytest.raises(ValueError, match=r"a_obs must be a 3-vector or a \(\.\.\., 3\) stack of them, got shape \(2, 2\)"):
        f_js(EZ, EX, np.eye(2))
    with pytest.raises(ValueError, match=r"a_inc must be a 3-vector .* got shape \(\)"):
        f_af(plate_5wl, 1.0, EZ, wl_3ghz)


def test_f_js_and_f_af_checks_leave_valid_stacks_bit_identical(wl_3ghz):
    """On unit stacks (rows off unit by up to the tolerance included) the
    checked factors are the closed-form kernel's, bit for bit, and f_js is
    the cross-product formula as numpy computes it."""
    from platekit.rcs import _closed_form

    rng = np.random.default_rng(26)
    frame = random_rotation(rng)
    plate = PlateGeometry(3 * LAMBDA_3GHZ, 2 * LAMBDA_3GHZ, frame[:, 2], frame[:, 0], frame[:, 1])
    _, h_dir, a_inc = polarization_triad(SphericalAngles.from_degrees(30, 250), PolarizationAngle(0.7))
    a_obs = np.array([random_unit(rng) for _ in range(20)]).reshape(4, 5, 3)
    a_obs[0, 0] *= 1.0 + 9e-10
    a_obs[0, 1] *= 1.0 - 9e-10
    js = f_js(plate.normal, h_dir, a_obs)
    af = f_af(plate, a_inc, a_obs, wl_3ghz)
    kernel = _closed_form(plate.length1, plate.length2, plate.normal, plate.edge1, plate.edge2,
                          a_inc, h_dir, a_obs, wl_3ghz)
    assert js.shape == af.shape == (4, 5)
    assert np.array_equal(js, kernel[2]) and np.array_equal(af, kernel[3])
    w = np.cross(np.cross(plate.normal, h_dir), a_obs)
    assert np.array_equal(js, w[..., 0] * w[..., 0] + w[..., 1] * w[..., 1] + w[..., 2] * w[..., 2])
    assert f_js(plate.normal, h_dir, a_obs[1, 2]) == js[1, 2]
    assert f_af(plate, a_inc, a_obs[1, 2], wl_3ghz) == af[1, 2]


def test_sigma_rejects_a_non_unit_row_and_a_malformed_plane_wave(wl_3ghz):
    """sigma returned [nan, 1966.2] (25 x sigma_max) for a_obs rows [nan, 0, 1]
    and [0, 0, 5], and 0.0 for h_dir along a_inc, where rcs() raises: its
    stacks are held to check_unit's rule and rcs()'s plane-wave test, row by row."""
    plate = PlateGeometry.xy_plane(0.5, 0.5)
    with pytest.raises(ValueError, match=r"^a_obs is not unit length: \|v\| = np\.float64\(nan\)$"):
        sigma(plate, -EZ, EX, np.array([[math.nan, 0.0, 1.0], [0.0, 0.0, 5.0]]), wl_3ghz)
    with pytest.raises(ValueError, match=r"^a_obs is not unit length: a component is above 2"):
        sigma(plate, -EZ, EX, np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 5.0]]), wl_3ghz)
    for name, args in [("a_inc", (np.array([EZ, 2 * EZ]), EX, EZ)), ("h_dir", (-EZ, np.array([[EX], [EX * 0.5]]), EZ))]:
        with pytest.raises(ValueError, match=f"^{name} is not unit length"):
            sigma(plate, *args, wl_3ghz)
    message = "^h_dir is not orthogonal to a_inc \\(malformed plane wave\\)$"
    with pytest.raises(ValueError, match=message):
        rcs(plate, -EZ, -EZ, EZ, wl_3ghz)
    with pytest.raises(ValueError, match=message):
        sigma(plate, -EZ, -EZ, EZ, wl_3ghz)
    # one row of a stack of waves is enough
    a_inc = np.array([-EZ, -EZ, -EX])
    with pytest.raises(ValueError, match=message):
        sigma(plate, a_inc, np.array([EX, EY, EX]), EZ, wl_3ghz)
    assert sigma(plate, a_inc, np.array([EX, EY, EY]), EZ, wl_3ghz).shape == (3,)


def test_sigma_checks_leave_valid_stacks_bit_identical(wl_3ghz):
    """On unit stacks (rows off unit by up to the tolerance included, and h_dir
    off orthogonal by less than it) sigma is the closed-form kernel's, bit for bit."""
    from platekit.rcs import _closed_form

    rng = np.random.default_rng(28)
    frame = random_rotation(rng)
    plate = PlateGeometry(3 * LAMBDA_3GHZ, 2 * LAMBDA_3GHZ, frame[:, 2], frame[:, 0], frame[:, 1])
    _, h_dir, a_inc = polarization_triad(SphericalAngles.from_degrees(30, 250), PolarizationAngle(0.7))
    a_obs = np.array([random_unit(rng) for _ in range(20)]).reshape(4, 5, 3)
    a_obs[0, 0] *= 1.0 + 9e-10
    a_obs[0, 1] *= 1.0 - 9e-10
    tilted = h_dir + 9e-10 * a_inc
    for h in (h_dir, tilted, np.array([h_dir, tilted, h_dir, h_dir, tilted])):
        kernel = _closed_form(plate.length1, plate.length2, plate.normal, plate.edge1, plate.edge2,
                              a_inc, h, a_obs, wl_3ghz)[0]
        assert sigma(plate, a_inc, h, a_obs, wl_3ghz).tobytes() == kernel.tobytes()
    assert sigma(plate, a_inc, h_dir, a_obs[1, 2], wl_3ghz) == kernel[1, 2]


def test_rcs_normal_incidence(wl_3ghz, plate_5wl):
    b = rcs(plate_5wl, -EZ, EX, EZ, wl_3ghz)
    assert b.f_js == pytest.approx(1.0, abs=1e-15)
    assert b.f_af == 1.0
    assert b.sigma_m2 == pytest.approx(b.sigma_max_m2, rel=1e-15)
    assert b.sigma_m2 == pytest.approx(78.431, abs=5e-4)
    assert b.front_side_valid


def test_rcs_polarization_null(wl_3ghz, plate_5wl):
    b = rcs(plate_5wl, -EZ, EX, EY, wl_3ghz)
    assert b.sigma_m2 == 0.0
    assert b.f_js == pytest.approx(0.0, abs=1e-30)


def test_rcs_oblique_case(wl_3ghz, plate_5wl):
    e_dir, h_dir, a_inc = polarization_triad(
        SphericalAngles.from_degrees(45, 270), PolarizationAngle.from_degrees(90)
    )
    b = rcs(plate_5wl, a_inc, h_dir, EZ, wl_3ghz)
    expected = sigma_max(plate_5wl, wl_3ghz) * 0.5 * F_AF_45_TO_0
    assert b.sigma_m2 == pytest.approx(expected, rel=1e-12)
    assert b.sigma_m2 == pytest.approx(0.31394, abs=5e-5)


def test_rcs_factorization_and_flag(wl_3ghz, plate_5wl):
    rng = np.random.default_rng(23)
    for _ in range(200):
        a_inc = random_unit(rng)
        e = random_unit(rng)
        h = np.cross(a_inc, e)
        if np.linalg.norm(h) < 1e-6:
            continue
        h /= np.linalg.norm(h)
        a_obs = random_unit(rng)
        b = rcs(plate_5wl, a_inc, h, a_obs, wl_3ghz)
        assert b.sigma_m2 == pytest.approx(b.sigma_max_m2 * b.f_js * b.f_af, rel=1e-12)
        assert b.front_side_valid == (
            float(np.dot(plate_5wl.normal, a_inc)) < 0 < float(np.dot(plate_5wl.normal, a_obs))
        )


def test_sigma_stack_matches_scalar_rcs(wl_3ghz):
    rng = np.random.default_rng(31)
    for _ in range(20):
        r = random_rotation(rng)
        plate = PlateGeometry(
            rng.uniform(0.5, 10.0) * wl_3ghz.meters, rng.uniform(0.5, 10.0) * wl_3ghz.meters,
            r @ EZ, r @ EX, r @ EY,
        )
        a_inc = random_unit(rng)
        h = np.cross(a_inc, random_unit(rng))
        h /= np.linalg.norm(h)
        a_obs = rng.normal(size=(200, 3))
        a_obs /= np.linalg.norm(a_obs, axis=1, keepdims=True)
        a_obs[0] = a_inc - 2.0 * float(np.dot(plate.normal, a_inc)) * plate.normal
        stacked = sigma(plate, a_inc, h, a_obs, wl_3ghz)
        scalar = [rcs(plate, a_inc, h, o, wl_3ghz).sigma_m2 for o in a_obs]
        assert stacked.shape == (200,)
        assert rel_close(stacked, scalar, 1e-14)
    # h along x on an x-y plate: f_js vanishes exactly toward +y
    plate = PlateGeometry.xy_plane(0.5, 0.3)
    a_obs = np.array([EY, EZ, -EY])
    stacked = sigma(plate, -EZ, EX, a_obs, wl_3ghz)
    scalar = [rcs(plate, -EZ, EX, o, wl_3ghz).sigma_m2 for o in a_obs]
    assert stacked[0] == scalar[0] == 0.0 and stacked[2] == scalar[2] == 0.0
    assert rel_close(stacked, scalar, 1e-14)


def test_rcs_rejects_nonorthogonal_h(wl_3ghz, plate_5wl):
    with pytest.raises(ValueError):
        rcs(plate_5wl, -EZ, np.array([0.0, 0.6, -0.8]), EZ, wl_3ghz)


def test_factor_bounds_random(wl_3ghz, plate_5wl):
    rng = np.random.default_rng(29)
    n = 100_000
    a_obs = rng.normal(size=(n, 3))
    a_obs /= np.linalg.norm(a_obs, axis=1, keepdims=True)
    a_inc = random_unit(rng)
    e = random_unit(rng)
    h = np.cross(a_inc, e)
    h /= np.linalg.norm(h)
    js = f_js(plate_5wl.normal, h, a_obs)
    af = f_af(plate_5wl, a_inc, a_obs, wl_3ghz)
    assert np.all((js >= 0.0) & (js <= 1.0))
    assert np.all((af >= 0.0) & (af <= 1.0))


def test_factor_bounds_property():
    """0 <= f_js <= 1 and 0 <= f_af <= 1 for any plate frame and size, wave
    triad and observation directions.  f_js is a squared norm of products of
    unit vectors that are unit only to rounding, so it may pass 1 by a few ulps."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coordinate = st.floats(-1.0, 1.0)
    frames = st.tuples(*[coordinate] * 4).filter(lambda q: math.fsum(c * c for c in q) > 1e-6).map(
        quaternion_rotation)
    units = st.tuples(*[coordinate] * 3).filter(lambda v: math.fsum(c * c for c in v) > 1e-6).map(
        lambda v: np.array(v) / np.linalg.norm(v))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(plate_frame=frames, wave_frame=frames, a_obs=st.lists(units, min_size=1, max_size=20),
                      sides_wl=st.tuples(st.floats(1e-3, 1e4), st.floats(1e-3, 1e4)), freq_hz=st.floats(1e6, 1e12))
    def check(plate_frame, wave_frame, a_obs, sides_wl, freq_hz):
        wl = Wavelength.from_frequency(freq_hz)
        e1, e2, n = plate_frame.T
        plate = PlateGeometry(sides_wl[0] * wl.meters, sides_wl[1] * wl.meters, n, e1, e2)
        a_inc, h_dir = wave_frame[:, 0], wave_frame[:, 2]  # columns direction, e_dir, h_dir
        a_obs = np.array(a_obs)
        js = f_js(plate.normal, h_dir, a_obs)
        af = f_af(plate, a_inc, a_obs, wl)
        assert np.all((js >= 0.0) & (js <= 1.0 + 8 * np.finfo(float).eps)), js
        assert np.all((af >= 0.0) & (af <= 1.0)), af

    check()


def test_specular_direction():
    assert np.allclose(specular_direction(EZ, -EZ), EZ)
    s = 1 / math.sqrt(2)
    assert np.allclose(specular_direction(EZ, np.array([0.0, s, -s])), [0.0, s, s], atol=1e-15)
    n = np.array([0.0, -s, s])
    assert np.allclose(specular_direction(n, -EZ), [0.0, -1.0, 0.0], atol=1e-12)
    with pytest.raises(ValueError):
        specular_direction(EZ, np.array([0.0, s, s]))


def test_large_plate_limit(wl_3ghz):
    lam = wl_3ghz.meters
    plate = PlateGeometry.xy_plane(100 * lam, 100 * lam)
    a_inc = -EZ
    spec = specular_direction(plate.normal, a_inc)
    assert rcs_large_plate_limit(plate, a_inc, EX, spec, wl_3ghz) == pytest.approx(
        sigma_max(plate, wl_3ghz), rel=1e-12
    )
    off = np.array([math.sin(deg(5)), 0.0, math.cos(deg(5))])
    assert rcs_large_plate_limit(plate, a_inc, EX, off, wl_3ghz) == 0.0
    # the exact pattern at 5 degrees off specular is down by more than 30 dB
    exact_spec = rcs(plate, a_inc, EX, spec, wl_3ghz).sigma_m2
    exact_off = rcs(plate, a_inc, EX, off, wl_3ghz).sigma_m2
    assert exact_off < 1e-3 * exact_spec


def test_specular_f_af_exactly_one_random_frames(wl_3ghz):
    rng = np.random.default_rng(31)
    lam = wl_3ghz.meters
    for _ in range(200):
        plate = PlateGeometry.xy_plane(
            float(rng.uniform(0.5, 100)) * lam, float(rng.uniform(0.5, 100)) * lam
        ).rotated(random_rotation(rng))
        while True:
            a_inc = random_unit(rng)
            if np.dot(plate.normal, a_inc) < -1e-3:
                break
        spec = specular_direction(plate.normal, a_inc)
        assert f_af(plate, a_inc, spec, wl_3ghz) == 1.0
        # any deflection projection beyond 1e-6 lambda/L leaves the exact peak
        bump = 2e-6 * lam / plate.length1
        a_off = spec + bump * plate.edge1
        a_off /= np.linalg.norm(a_off)
        assert f_af(plate, a_inc, a_off, wl_3ghz) < 1.0


def test_xy_plate_matches_vector_form(wl_3ghz):
    rng = np.random.default_rng(37)
    lam = wl_3ghz.meters
    plate = PlateGeometry.xy_plane(5 * lam, 5 * lam)
    smax = sigma_max(plate, wl_3ghz)
    for _ in range(2000):
        tt = float(rng.uniform(0, math.pi / 2 - 1e-9))
        pt = float(rng.uniform(0, 2 * math.pi))
        vp = float(rng.uniform(1e-9, 2 * math.pi))
        tr = float(rng.uniform(0, math.pi / 2))
        pr = float(rng.uniform(0, 2 * math.pi))
        _, h_dir, a_inc = polarization_triad(SphericalAngles(tt, pt), vp)
        a_obs = np.array([math.sin(tr) * math.cos(pr), math.sin(tr) * math.sin(pr), math.cos(tr)])
        sig_vec = rcs(plate, a_inc, h_dir, a_obs, wl_3ghz).sigma_m2
        sig_ang = rcs_xy_plate(tt, pt, vp, tr, pr, 5 * lam, 5 * lam, wl_3ghz)
        assert rel_close(sig_vec, sig_ang, 1e-12, floor=1e-15 * smax)


def test_xy_plate_specular_peak(wl_3ghz):
    lam = wl_3ghz.meters
    val = rcs_xy_plate(deg(45), deg(270), deg(90), deg(45), deg(90), 5 * lam, 5 * lam, wl_3ghz)
    assert val == pytest.approx(78.4311852 * 0.5, rel=1e-9)
    assert val == pytest.approx(39.215, abs=5e-3)
    # parallel polarization through the same geometry, observed at zenith
    val = rcs_xy_plate(deg(45), deg(270), 2 * math.pi, 0.0, deg(90), 5 * lam, 5 * lam, wl_3ghz)
    assert val == pytest.approx(78.4311852 * F_AF_45_TO_0, rel=1e-9)
    assert val == pytest.approx(0.62787, abs=5e-5)


def test_perpendicular_reduction(wl_3ghz):
    rng = np.random.default_rng(41)
    lam = wl_3ghz.meters
    smax = 4 * math.pi * 625 * lam**2
    n = 10_000
    tt = rng.uniform(0, math.pi / 2 - 1e-9, n)
    tr = rng.uniform(0, math.pi / 2, n)
    pr = rng.uniform(0, 2 * math.pi, n)
    full = rcs_xy_plate(tt, np.full(n, deg(270)), np.full(n, deg(90)), tr, pr, 5 * lam, 5 * lam, wl_3ghz)
    reduced = rcs_perpendicular(tt, tr, pr, 5 * lam, 5 * lam, wl_3ghz)
    assert rel_close(full, reduced, 1e-12, floor=1e-15 * smax)
    # and the phi_r = 90 degree cut
    cut = rcs_perpendicular_cut(tt, tr, 5 * lam, 5 * lam, wl_3ghz)
    at_cut = rcs_perpendicular(tt, tr, np.full(n, deg(90)), 5 * lam, 5 * lam, wl_3ghz)
    assert rel_close(at_cut, cut, 1e-12, floor=1e-15 * smax)


def test_parallel_reduction(wl_3ghz):
    rng = np.random.default_rng(43)
    lam = wl_3ghz.meters
    smax = 4 * math.pi * 625 * lam**2
    n = 10_000
    tt = rng.uniform(0, math.pi / 2 - 1e-9, n)
    tr = rng.uniform(0, math.pi / 2, n)
    pr = rng.uniform(0, 2 * math.pi, n)
    full = rcs_xy_plate(tt, np.full(n, deg(270)), np.full(n, 2 * math.pi), tr, pr, 5 * lam, 5 * lam, wl_3ghz)
    reduced = rcs_parallel(tt, tr, pr, 5 * lam, 5 * lam, wl_3ghz)
    assert rel_close(full, reduced, 1e-12, floor=1e-15 * smax)
    cut = rcs_parallel_cut(tt, tr, 5 * lam, 5 * lam, wl_3ghz)
    at_cut = rcs_parallel(tt, tr, np.full(n, deg(90)), 5 * lam, 5 * lam, wl_3ghz)
    assert rel_close(at_cut, cut, 1e-12, floor=1e-15 * smax)


def test_cut_values(wl_3ghz):
    lam = wl_3ghz.meters
    # no deflection along the cut: sinc(0) = 1
    assert rcs_perpendicular_cut(deg(45), deg(45), 5 * lam, 5 * lam, wl_3ghz) == pytest.approx(
        78.4311852 * 0.5, rel=1e-9
    )
    assert rcs_perpendicular_cut(deg(45), 0.0, 5 * lam, 5 * lam, wl_3ghz) == pytest.approx(
        78.4311852 * 0.5 * F_AF_45_TO_0, rel=1e-9
    )
    assert rcs_parallel_cut(deg(45), deg(45), 5 * lam, 5 * lam, wl_3ghz) == pytest.approx(
        39.215, abs=5e-3
    )
    assert rcs_parallel_cut(deg(45), 0.0, 5 * lam, 5 * lam, wl_3ghz) == pytest.approx(
        0.62787, abs=5e-5
    )


def test_angle_range_validation(wl_3ghz):
    lam = wl_3ghz.meters
    with pytest.raises(ValueError):
        rcs_xy_plate(deg(95), 0.0, 1.0, 0.0, 0.0, lam, lam, wl_3ghz)
    with pytest.raises(ValueError):
        rcs_perpendicular_cut(deg(45), deg(95), lam, lam, wl_3ghz)
    with pytest.raises(ValueError):
        rcs_xy_plate(deg(45), deg(361) + 2 * math.pi, 1.0, 0.0, 0.0, lam, lam, wl_3ghz)



def test_xy_plate_rejects_nan_angle(wl_3ghz):
    lam = wl_3ghz.meters
    with pytest.raises(ValueError, match=r"^theta_t out of range \[0, pi/2\]: nan$"):
        rcs_xy_plate(math.nan, 0.0, 1.0, 0.0, 0.0, lam, lam, wl_3ghz)


def test_perpendicular_cut_rejects_nan_angle(wl_3ghz):
    lam = wl_3ghz.meters
    with pytest.raises(ValueError, match=r"^theta_r out of range \[0, pi/2\]: nan$"):
        rcs_perpendicular_cut(deg(45), np.array([0.1, math.nan]), lam, lam, wl_3ghz)


def test_angle_check_names_an_arrays_first_value_out_of_range(wl_3ghz):
    """Not the whole array: a measured sweep's angles can be a million rows."""
    lam = wl_3ghz.meters
    angles = np.linspace(0.0, 1.5, 2000)
    angles[[700, 1500]] = [1.75e298, -2.0]
    with pytest.raises(ValueError, match=r"^theta_r out of range \[0, pi/2\]: 1.75e\+298$"):
        rcs_perpendicular_cut(deg(45), angles, lam, lam, wl_3ghz)


def test_angle_forms_check_lengths(wl_3ghz):
    lam = wl_3ghz.meters
    forms = (
        (rcs_xy_plate, (0.3, 0.0, 1.0, 0.3, 0.0)),
        (rcs_perpendicular, (0.3, 0.3, 0.0)),
        (rcs_parallel, (0.3, 0.3, 0.0)),
        (rcs_perpendicular_cut, (0.3, 0.3)),
        (rcs_parallel_cut, (0.3, 0.3)),
    )
    for form, angles in forms:
        for l1, l2 in ((-lam, lam), (lam, math.inf), (lam, math.nan)):
            with pytest.raises(ValueError, match="edge lengths must be positive and finite"):
                form(*angles, l1, l2, wl_3ghz)


def test_phase_of_an_edge_over_1e9_wavelengths_is_rejected(wl_3ghz):
    """Every closed-form phase k*L/2 * projection goes through one bound: an
    edge of 1e9 wavelengths evaluates, a longer one raises.  Only edges that
    enter a phase count: the principal cuts have no L1 term, and sigma_max
    alone takes any edge whose square fits float64."""
    lam = wl_3ghz.meters
    bound, over = 1e9 * lam, 1.5e9 * lam
    a_inc, h_dir = np.array([0.0, 0.6, -0.8]), EX
    a_obs = np.array([0.0, 0.6, 0.8])
    forms = (
        (rcs_xy_plate, (0.3, 0.0, 1.0, 0.3, 0.0), True),
        (rcs_perpendicular, (0.3, 0.3, 0.0), True),
        (rcs_parallel, (0.3, 0.3, 0.0), True),
        (rcs_perpendicular_cut, (0.3, 0.3), False),
        (rcs_parallel_cut, (0.3, 0.3), False),
        (lambda l1, l2, wl: f_af(PlateGeometry.xy_plane(l1, l2), a_inc, a_obs, wl), (), True),
        (lambda l1, l2, wl: sigma(PlateGeometry.xy_plane(l1, l2), a_inc, h_dir, a_obs, wl), (), True),
        (lambda l1, l2, wl: rcs(PlateGeometry.xy_plane(l1, l2), a_inc, h_dir, a_obs, wl).sigma_m2, (), True),
    )
    for form, angles, phase_on_l1 in forms:
        assert 0.0 <= form(*angles, bound, bound, wl_3ghz) < math.inf
        with pytest.raises(ValueError, match="plate electrically too large: an edge of"):
            form(*angles, lam, over, wl_3ghz)
        if phase_on_l1:
            with pytest.raises(ValueError, match="plate electrically too large: an edge of"):
                form(*angles, over, lam, wl_3ghz)
        else:
            assert 0.0 <= form(*angles, over, lam, wl_3ghz) < math.inf
    assert 0.0 < sigma_max(PlateGeometry.xy_plane(over, over), wl_3ghz) < math.inf


def outcome(call, *args):
    """``call(*args)``'s result as float64 bytes, or the message of its ValueError."""
    try:
        return np.asarray(call(*args), dtype=float).tobytes()
    except ValueError as exc:
        return str(exc)


def test_sigma_max_and_half_phase_float_tests_match_numpy(wl_3ghz):
    """One plate's sigma_max and k*L/2 are tested with math, a stack's by
    numpy: at overflow (inf, and inf * 0 from the squares), at underflow to 0,
    at the subnormal 1.5e-321 of the 1e-80-wavelength plate, and at the
    1e9-wavelength edge and an ulp either side, a float, a numpy float and a
    one-element array give the same value or the same message."""
    from platekit.rcs import _half_phase, _sigma_max

    lam = wl_3ghz.meters
    tiny = 1e-80 * lam
    assert 1e-321 < _sigma_max(tiny, tiny, wl_3ghz) < 2e-321
    pairs = [(lam, 2.0 * lam), (1e160, 1e160), (1e200, 1e-200), (1e-90, 1e-90), (tiny, tiny), (1e-300, 1e300)]
    seen = set()
    for l1, l2 in pairs:
        expected = outcome(_sigma_max, np.array([l1]), np.array([l2]), wl_3ghz)
        seen.add(expected if isinstance(expected, str) else "value")
        assert outcome(_sigma_max, l1, l2, wl_3ghz) == expected
        assert outcome(_sigma_max, np.float64(l1), np.float64(l2), wl_3ghz) == expected
    assert len(seen) == 3  # a value, the overflow and the underflow message
    edge = 1e9 * lam
    decisions = set()
    for length in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, math.inf), 2.0 * edge):
        expected = outcome(_half_phase, np.array([length]), wl_3ghz)
        decisions.add(isinstance(expected, str))
        assert outcome(_half_phase, float(length), wl_3ghz) == expected
        assert outcome(_half_phase, np.float64(length), wl_3ghz) == expected
    assert decisions == {True, False}


def test_sinc_dbsm_and_angles_float_tests_match_numpy(wl_3ghz):
    """A float given to sinc, dbsm or an angle form takes the math tests and
    returns the bits a one-element array gives, or its message."""
    xs = [0.0, -0.0, 1e-7, -9.99e-7, 1e-6, 1.1e-6, 0.5, -3.0, 1e300, math.nan, -1.0, 5e-324]
    for x in xs:
        for call in (sinc, dbsm):
            expected = outcome(call, np.array([x]))
            assert outcome(call, x) == expected, (call, x)
            assert outcome(call, np.float64(x)) == expected, (call, x)
            if not isinstance(expected, str):
                assert type(call(np.float64(x))) is float
    lam = wl_3ghz.meters
    for angles in ((0.3, 4.0, 1.0, 0.6, 1.5), (0.0, 0.0, 2 * math.pi, math.pi / 2, 0.0), (0.3, 4.0, 1.0, 1.6, 1.5)):
        expected = outcome(rcs_xy_plate, *(np.array([a]) for a in angles), 5 * lam, 4 * lam, wl_3ghz)
        assert outcome(rcs_xy_plate, *angles, 5 * lam, 4 * lam, wl_3ghz) == expected
        assert outcome(rcs_xy_plate, *(np.array(a) for a in angles), 5 * lam, 4 * lam, wl_3ghz) == expected


def test_rotation_invariance(wl_3ghz, plate_5wl):
    rng = np.random.default_rng(47)
    smax = sigma_max(plate_5wl, wl_3ghz)
    for _ in range(300):
        _, h_dir, a_inc = polarization_triad(
            SphericalAngles(float(rng.uniform(0, math.pi / 2 - 1e-9)), float(rng.uniform(0, 2 * math.pi))),
            float(rng.uniform(1e-9, 2 * math.pi)),
        )
        a_obs = random_unit(rng)
        r = random_rotation(rng)
        base = rcs(plate_5wl, a_inc, h_dir, a_obs, wl_3ghz).sigma_m2
        rot = rcs(plate_5wl.rotated(r), r @ a_inc, r @ h_dir, r @ a_obs, wl_3ghz).sigma_m2
        assert rel_close(base, rot, 1e-10, floor=1e-13 * smax)


def test_rotated_rejects_improper_matrices(plate_5wl):
    with pytest.raises(ValueError, match="proper rotation"):
        plate_5wl.rotated(np.diag([1.0, 1.0, -1.0]))  # reflection, not rotation
    with pytest.raises(ValueError, match="not orthogonal"):
        plate_5wl.rotated(2 * np.eye(3))


def test_principal_cut_sidelobe_level():
    x = np.linspace(math.pi, 2 * math.pi, 200_001)
    lobe = np.max((np.sin(x) / x) ** 2)
    assert 10 * math.log10(lobe) == pytest.approx(-13.26, abs=0.05)


def test_argmax_depends_on_polarization(wl_3ghz):
    lam = wl_3ghz.meters
    grid = np.radians(np.arange(30.0, 60.0, 0.01))
    perp = rcs_perpendicular_cut(deg(45), grid, 5 * lam, 5 * lam, wl_3ghz)
    par = rcs_parallel_cut(deg(45), grid, 5 * lam, 5 * lam, wl_3ghz)
    peak_perp = math.degrees(grid[np.argmax(perp)])
    peak_par = math.degrees(grid[np.argmax(par)])
    # perpendicular case peaks at the specular angle, parallel case below it
    assert peak_perp == pytest.approx(45.0, abs=0.02)
    assert peak_par < 45.0 - 0.5
    assert abs(peak_perp - peak_par) > 0.5
