import math

import numpy as np
import pytest

from conftest import EX, EY, EZ, deg, random_rotation, traced_memory
from platekit import (
    PlateGeometry,
    Scene,
    TargetRegion,
    Wavelength,
    coverage_map,
    coverage_map_points,
    f_af,
    optimize_orientation,
    orient_for_target,
    orientation_objective,
    rcs,
    received_power,
    sigma_max,
)
from platekit import planner
from platekit.planner import OBJECTIVES, orientation_from_angles


def make_scene(normal=None, edge1=None, side_wl=5.0, **overrides):
    wl = Wavelength.from_frequency(3e9)
    side = side_wl * wl.meters
    if normal is None:
        normal, edge1 = np.array([0.0, -1.0, 0.0]), EX
    plate = PlateGeometry.from_frame(side, side, normal, edge1)
    params = dict(
        tx_position=np.array([0.0, -8.0, 0.0]),
        plate_position=np.zeros(3),
        plate=plate,
        polarization=math.pi / 2,
        tx_power_dbm=0.0,
        tx_gain_dbi=16.0,
        rx_gain_dbi=16.0,
        wavelength=wl,
        amp_gain_db=38.861,
    )
    params.update(overrides)
    return Scene(**params)


# Every name platekit exports from a deferred module, by module.
LAZY_EXPORTS = {
    "link": ("LinkScenario", "power_sweep", "received_dbm", "received_power"),
    "measure": (
        "ComparisonReport", "ExperimentConfig", "MeasurementSeries", "compare", "hpbw", "load_series",
        "mainlobe_sidelobe_gap", "peak_angle", "save_series", "theoretical_curve",
    ),
    "planner": (
        "CoverageMap", "OrientationResult", "Scene", "TargetRegion", "coverage_map",
        "coverage_map_points", "optimize_orientation", "orient_for_target", "orientation_objective",
    ),
    "po_oracle": (
        "FarFieldSample", "FarFieldWarning", "IncidentWave", "QuadratureSpec", "induced_current",
        "po_far_field", "po_rcs",
    ),
    "validate": ("ValidationReport", "random_scenario", "run_validation"),
}


def test_package_exports_are_the_planner_objects():
    """platekit serves each name it exports from a deferred module (the
    planner's among them) on first use (PEP 562): each is its module's own
    object and is listed by dir(platekit)."""
    import importlib

    import platekit

    for module_name, names in LAZY_EXPORTS.items():
        module = importlib.import_module(f"platekit.{module_name}")
        assert getattr(platekit, module_name) is module
        for name in names:
            assert getattr(platekit, name) is getattr(module, name)
            assert name in dir(platekit)
    assert set(platekit._EXPORTS) == {name for names in LAZY_EXPORTS.values() for name in names}
    assert {"planner", "csvtext", "svgplot"} <= set(dir(platekit))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        platekit.no_such_name


def test_scene_validation():
    with pytest.raises(ValueError, match="coincide"):
        make_scene(tx_position=np.zeros(3))
    with pytest.raises(ValueError, match="face"):
        make_scene(normal=np.array([0.0, 1.0, 0.0]), edge1=EX)


def test_region_cell_cap():
    assert TargetRegion(np.zeros(3), EX, EY, 1000, 1000).nu == 1000
    with pytest.raises(ValueError, match="region grid has 1001000 cells, more than 1000000"):
        TargetRegion(np.zeros(3), EX, EY, 1000, 1001)
    with pytest.raises(ValueError, match="more than 1000000"):
        TargetRegion(np.zeros(3), EX, EY, np.int64(10**10), np.int64(10**10))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("far", [1e300, -1e300, 1.5e153])
def test_positions_beyond_the_bound_are_rejected_before_any_array_math(far):
    """A scene position or region vertex beyond 1e153 m from the origin is a
    ValueError, with no overflow warning first (differences, spans and norms
    of such points can overflow)."""
    with pytest.raises(ValueError, match="tx_position lies .* m from the origin"):
        make_scene(tx_position=np.array([far, -8.0, 0.0]))
    with pytest.raises(ValueError, match="plate_position lies .* m from the origin"):
        make_scene(plate_position=np.array([0.0, 0.0, far]))
    with pytest.raises(ValueError, match="region corner lies"):
        TargetRegion(np.array([far, 0.0, 0.0]), EX, EY, 2, 2)
    with pytest.raises(ValueError, match="region corner \\+ edge_u lies"):
        TargetRegion(np.zeros(3), np.array([far, 0.0, 0.0]), EY, 2, 2)
    with pytest.raises(ValueError, match="region corner \\+ edge_v lies"):
        TargetRegion(np.zeros(3), EX, np.array([0.0, far, 0.0]), 2, 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_region_span_that_overflows_is_rejected():
    """Corner and edges each in range, their sum past 1e153 m; edges whose
    sum overflows to inf."""
    with pytest.raises(ValueError, match="region corner \\+ edge_u \\+ edge_v lies 1.41e\\+153 m"):
        TargetRegion(np.zeros(3), np.array([1e153, 0.0, 0.0]), np.array([0.0, 1e153, 0.0]), 2, 2)
    with pytest.raises(ValueError, match="region corner \\+ edge_u lies 1.5e\\+308 m"):
        TargetRegion(np.zeros(3), np.array([1.5e308, 0.0, 0.0]), np.array([1.5e308, 0.0, 0.0]), 2, 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_coverage_at_the_position_bound_stays_finite():
    """Plate and transmitter at the bound on opposite sides of the origin, the
    receivers near the transmitter: distances near 2e153 m, and the link
    budget's 4*pi*d_t*d_r (about 5e307) stays finite."""
    scene = make_scene(tx_position=np.array([0.0, -1e153, 0.0]), plate_position=np.array([0.0, 1e153, 0.0]))
    region = TargetRegion(np.array([-1e152, -9.8e152, -1e152]), np.array([2e152, 0.0, 0.0]),
                          np.array([0.0, 0.0, 2e152]), 3, 3)
    cov = coverage_map(scene, region)
    assert not cov.shadow.any() and np.isfinite(cov.power_dbm).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("point, message", [
    ([0.0, -1e300, 0.0], "receiver point lies 1e\\+300 m from the origin"),
    ([0.0, -8e152, 8e152], "receiver point lies 1.13e\\+153 m from the origin"),
    ([math.inf, 0.0, 0.0], "receiver points must be finite"),
    ([0.0, math.nan, 0.0], "receiver points must be finite"),
])
def test_coverage_points_beyond_the_bound_are_rejected_before_any_array_math(point, message):
    """coverage_map_points takes the position bound of Scene and TargetRegion:
    a receiver beyond 1e153 m from the origin, or not finite, is a ValueError
    with no overflow warning first; one just inside the bound is evaluated."""
    scene = make_scene()
    with pytest.raises(ValueError, match=message):
        coverage_map_points(scene, [[1.0, -3.0, 0.0], point])
    cov = coverage_map_points(scene, [[0.0, -9.9e152, 0.0], [0.0, -7e152, 7e152]])
    assert not cov.shadow.any() and np.isfinite(cov.power_dbm).all()


def test_orient_for_target_bisects():
    s = 1 / math.sqrt(2)
    tx = np.array([0.0, -10.0, 10.0])  # incident direction (0, s, -s)
    # target at the transmitter itself: retroreflection, normal bisects
    n, e1, e2 = orient_for_target(tx, np.zeros(3), tx)
    assert np.allclose(n, [0.0, -s, s], atol=1e-12)
    # frame is right-handed and orthonormal
    assert np.allclose(np.cross(e1, e2), n, atol=1e-12)
    assert abs(np.dot(n, e1)) < 1e-12 and abs(np.dot(e1, e2)) < 1e-12


def test_orient_for_target_mirror_symmetry():
    # tx and target symmetric about the x-z plane: the plate plane is that
    # mirror plane, so the normal is horizontal and points at their midline
    tx = np.array([3.0, -6.0, 0.0])
    target = np.array([3.0, 6.0, 0.0])
    n, _, _ = orient_for_target(tx, np.zeros(3), target)
    assert np.allclose(n, [1.0, 0.0, 0.0], atol=1e-12)
    midline = np.array([3.0, 0.0, 0.0])
    assert np.dot(n, midline) > 0
    a_inc = -tx / np.linalg.norm(tx)
    a_obs = target / np.linalg.norm(target)
    assert np.allclose(n, (a_obs - a_inc) / np.linalg.norm(a_obs - a_inc), atol=1e-12)


def test_orient_for_target_achieves_unit_array_factor():
    rng = np.random.default_rng(61)
    wl = Wavelength.from_frequency(3e9)
    for _ in range(100):
        tx = rng.normal(size=3) * 10
        target = rng.normal(size=3) * 10
        if np.linalg.norm(tx) < 1 or np.linalg.norm(target) < 1:
            continue
        a_inc = -tx / np.linalg.norm(tx)
        a_obs = target / np.linalg.norm(target)
        if np.linalg.norm(a_obs - a_inc) < 1e-3:
            continue
        n, e1, e2 = orient_for_target(tx, np.zeros(3), target)
        plate = PlateGeometry(5 * wl.meters, 5 * wl.meters, n, e1, e2)
        assert f_af(plate, a_inc, a_obs, wl) == pytest.approx(1.0, abs=1e-12)


def test_orient_for_target_degenerate():
    with pytest.raises(ValueError, match="undefined"):
        orient_for_target(np.array([0.0, -8.0, 0.0]), np.zeros(3), np.array([0.0, 8.0, 0.0]))


def test_coverage_specular_point_attains_max():
    """On an arc of equidistant receivers the specular direction wins."""
    scene = make_scene(normal=np.array([0.0, -1.0, 0.0]), edge1=EX)
    # specular direction for horizontal incidence onto a vertical plate
    spec = np.array([0.0, -1.0, 0.0])
    radius = 8.0
    angles = np.linspace(-80, 80, 41)
    pts = []
    for a in angles:
        c, s = math.cos(deg(a)), math.sin(deg(a))
        # rotate the specular direction about the z axis
        direction = np.array([c * spec[0] - s * spec[1], s * spec[0] + c * spec[1], 0.0])
        pts.append(radius * direction)
    cov = coverage_map_points(scene, np.array(pts))
    assert not np.any(cov.shadow)
    assert np.nanargmax(cov.power_dbm) == 20  # angles[20] == 0: the specular point


def test_coverage_all_backside_is_shadow():
    scene = make_scene(normal=np.array([0.0, -1.0, 0.0]), edge1=EX)
    region = TargetRegion(np.array([-1.0, 5.0, -1.0]), 2 * EX, 2 * EZ, 4, 4)
    cov = coverage_map(scene, region)
    assert np.all(cov.shadow)
    assert np.all(np.isnan(cov.power_dbm))


def test_coverage_gain_shift_is_exact():
    scene = make_scene()
    region = TargetRegion(np.array([-2.0, -6.0, -2.0]), 4 * EX, 4 * EZ, 5, 5)
    base = coverage_map(scene, region)
    boosted = coverage_map(
        make_scene(tx_gain_dbi=19.0, rx_gain_dbi=19.0), region
    )
    mask = ~base.shadow
    assert np.allclose(boosted.power_dbm[mask] - base.power_dbm[mask], 6.0, atol=1e-12)


def test_coverage_permutation_equivariance():
    scene = make_scene()
    rng = np.random.default_rng(67)
    pts = np.array([[x, -6.0, z] for x in (-2.0, 0.0, 2.0) for z in (-2.0, 0.0, 2.0)])
    perm = rng.permutation(len(pts))
    cov = coverage_map_points(scene, pts)
    cov_perm = coverage_map_points(scene, pts[perm])
    assert np.array_equal(cov.shadow[perm], cov_perm.shadow)
    assert np.allclose(cov.power_dbm[perm], cov_perm.power_dbm, equal_nan=True)


def test_coverage_row_major_order():
    scene = make_scene()
    region = TargetRegion(np.array([-1.0, -6.0, -1.0]), 2 * EX, 2 * EZ, 3, 2)
    pts = region.points()
    # row-major: index = iu * nv + iv
    assert np.allclose(pts[0], [-1.0, -6.0, -1.0])
    assert np.allclose(pts[1], [-1.0, -6.0, 1.0])
    assert np.allclose(pts[2], [0.0, -6.0, -1.0])
    cov = coverage_map(scene, region)
    assert cov.shape == (3, 2)
    assert cov.power_grid().shape == (3, 2)


def test_optimize_single_target_matches_closed_form():
    scene = make_scene()
    target = np.array([5.0, -5.0, 1.0])
    region = TargetRegion.single_point(target)
    result = optimize_orientation(scene, region, "max-min-dbm")
    scene_opt = scene.with_orientation(result.normal, result.edge1, result.edge2)
    a_inc = scene.incident_direction()
    a_obs = (target - scene.plate_position) / np.linalg.norm(target - scene.plate_position)
    af = f_af(scene_opt.plate, a_inc, a_obs, scene.wavelength)
    assert af >= 0.999
    # closed form: the normal bisects the deflection
    n_exact, _, _ = orient_for_target(scene.tx_position, scene.plate_position, target)
    # agreement within the final grid step (0.2 degrees)
    assert math.degrees(math.acos(min(1.0, float(np.dot(result.normal, n_exact))))) <= 0.3


def test_optimize_never_below_initial_orientation():
    scene = make_scene()
    region = TargetRegion(np.array([-2.0, -6.0, -2.0]), 4 * EX, 4 * EZ, 3, 3)
    for objective in ("max-min-dbm", "max-mean-mw"):
        initial = orientation_objective(scene, region, objective)
        result = optimize_orientation(scene, region, objective)
        assert result.value_dbm >= initial - 1e-12
        assert result.initial_dbm == initial


def test_optimize_symmetric_region():
    # region symmetric about the y-z plane; incidence along +y: the optimal
    # normal must lie in that plane (zero x component) up to the grid step
    scene = make_scene()
    region = TargetRegion(np.array([-3.0, -6.0, 0.0]), 6 * EX, np.zeros(3), 7, 1)
    result = optimize_orientation(scene, region, "max-min-dbm")
    assert abs(result.normal[0]) <= math.sin(deg(0.3))


def test_optimize_deterministic():
    scene = make_scene()
    region = TargetRegion(np.array([-2.0, -6.0, -1.0]), 4 * EX, 2 * EZ, 3, 2)
    a = optimize_orientation(scene, region, "max-min-dbm")
    b = optimize_orientation(scene, region, "max-min-dbm")
    assert a.zenith_deg == b.zenith_deg and a.azimuth_deg == b.azimuth_deg
    assert a.value_dbm == b.value_dbm


def test_optimize_rejects_unknown_objective():
    scene = make_scene()
    region = TargetRegion.single_point(np.array([0.0, -6.0, 0.0]))
    with pytest.raises(ValueError, match="objective"):
        optimize_orientation(scene, region, "max-max")


def test_orientation_from_angles_conventions():
    n, e1, e2 = orientation_from_angles(0.0, 0.0)
    assert np.allclose(n, EZ) and np.allclose(e1, EX) and np.allclose(e2, EY)
    n, e1, e2 = orientation_from_angles(deg(90), deg(270))
    assert np.allclose(n, [0.0, -1.0, 0.0], atol=1e-12)
    assert abs(e1[2]) < 1e-15  # horizontal edge convention
    assert np.allclose(np.cross(e1, e2), n, atol=1e-12)


def random_facing_scene(rng):
    """Scene with a random plate size, polarization and frame facing the transmitter."""
    wl = Wavelength.from_frequency(float(rng.uniform(1e9, 6e9)))
    r = random_rotation(rng)
    n, e1, e2 = r[:, 2], r[:, 0], r[:, 1]
    tx = rng.normal(size=3) * 8.0
    if np.dot(n, -tx) >= 0.0:  # flip about edge1 to face the transmitter
        n, e2 = -n, -e2
    plate = PlateGeometry(*(rng.uniform(0.5, 10.0, size=2) * wl.meters), n, e1, e2)
    return make_scene(tx_position=tx, plate=plate, wavelength=wl,
                      polarization=float(rng.uniform(1e-9, 2 * math.pi)))


def random_region(rng, nu, nv):
    corner = rng.normal(size=3) * 6.0
    return TargetRegion(corner, rng.normal(size=3) * 3.0, rng.normal(size=3) * 3.0, nu, nv)


# 1 pair: one candidate per chunk; 173 pairs: seven candidates of 24 points
# (24 candidates of a 7-point block), which does not divide the 234
# candidates; 10**9: all in one chunk.
@pytest.mark.parametrize("pairs", [1, 173, 10**9])
def test_objective_values_independent_of_chunking(monkeypatch, pairs):
    """Every _PAIRS_PER_CHUNK gives the same bits, in one receiver block and
    in four (_RECEIVER_BLOCK 7 of the 24 receivers).  Across blocks the
    minimum keeps its bits and the mean, summed block by block, stays within
    1e-12 dB."""
    rng = np.random.default_rng(71)
    scene = random_facing_scene(rng)
    points = random_region(rng, 6, 4).points()
    zz, aa = np.meshgrid(np.radians(np.arange(0.0, 181.0, 15.0)), np.radians(np.arange(0.0, 360.0, 20.0)))
    frames = planner._angle_frames(zz.ravel(), aa.ravel())
    for objective in OBJECTIVES:
        reference = planner._objective_values(scene, points, frames, objective)
        assert np.isfinite(reference).any() and np.isneginf(reference).any()
        monkeypatch.setattr(planner, "_PAIRS_PER_CHUNK", pairs)
        assert np.array_equal(planner._objective_values(scene, points, frames, objective), reference)
        monkeypatch.undo()
        monkeypatch.setattr(planner, "_RECEIVER_BLOCK", 7)
        blocked = planner._objective_values(scene, points, frames, objective)
        monkeypatch.setattr(planner, "_PAIRS_PER_CHUNK", pairs)
        assert np.array_equal(planner._objective_values(scene, points, frames, objective), blocked)
        monkeypatch.undo()
        if objective == "max-min-dbm":
            assert blocked.tobytes() == reference.tobytes()
        else:
            lit = np.isfinite(reference)
            assert np.array_equal(np.isfinite(blocked), lit)
            assert np.all(np.abs(blocked[lit] - reference[lit]) <= 1e-12)


# Only the corner cell of this region lies at the plate (the others are in
# front of it): coverage shadows that cell, and the objectives leave it out.
AT_PLATE_REGION = TargetRegion(np.zeros(3), 4 * EX - 6 * EY, 4 * EZ - 6 * EY, 3, 3)


def test_objective_equals_coverage_over_lit_cells():
    rng = np.random.default_rng(73)
    cases = [(random_facing_scene(rng), random_region(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9))))
             for _ in range(40)]
    at_plate = coverage_map(make_scene(), AT_PLATE_REGION).shadow
    assert at_plate[0] and not at_plate[1:].any()
    checked = 0
    for scene, region in cases + [(make_scene(), AT_PLATE_REGION)]:
        lit = coverage_map(scene, region).power_dbm
        lit = lit[~np.isnan(lit)]
        if lit.size == 0:
            assert all(orientation_objective(scene, region, o) == -np.inf for o in OBJECTIVES)
            continue
        # One evaluator scores both, so the minimum is the same float; the
        # mean sums in another order.
        assert orientation_objective(scene, region, "max-min-dbm") == np.min(lit)
        mean_dbm = 10.0 * np.log10(np.mean(10.0 ** (lit / 10.0)))
        assert abs(orientation_objective(scene, region, "max-mean-mw") - mean_dbm) <= 1e-9
        checked += 1
    assert checked >= 20


def test_candidate_stack_equals_scalar_rcs_and_link_budget():
    """Each (candidate, receiver) value of the search's evaluator is the scalar
    rcs() of a plate in that candidate's frame and its received_power()."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(seed=st.integers(0, 2**32 - 1), candidates=st.integers(1, 4),
                      nu=st.integers(1, 4), nv=st.integers(1, 4))
    def check(seed, candidates, nu, nv):
        rng = np.random.default_rng(seed)
        scene = random_facing_scene(rng)
        pts = random_region(rng, nu, nv).points()
        rel = pts - scene.plate_position
        dist = np.linalg.norm(rel, axis=1)
        a_obs = rel / dist[:, None]
        frames = np.stack([random_rotation(rng).T for _ in range(candidates)])  # rows edge1, edge2, normal
        wave, p = scene.incident_wave(), scene.plate
        sig, power, shadow = planner._receivers(scene, wave, frames, pts)
        assert sig.shape == power.shape == shadow.shape == (candidates, len(dist))
        for c, (e1, e2, n) in enumerate(frames):
            plate = PlateGeometry(p.length1, p.length2, n, e1, e2)
            smax = sigma_max(plate, scene.wavelength)
            for j, a in enumerate(a_obs):
                want = rcs(plate, wave.direction, wave.h_dir, a, scene.wavelength).sigma_m2
                assert abs(sig[c, j] - want) <= 1e-12 * smax
                assert abs(power[c, j] - received_power(scene.link_scenario(float(dist[j])), want)) <= 1e-9
                assert shadow[c, j] == (float(np.dot(n, a)) <= 0.0)

    check()


def test_receivers_do_not_depend_on_the_batch_or_the_receiver_subset():
    """One candidate scored on every 7th receiver gives the bits of its row
    and those columns in a call on the whole stack and the whole region."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(seed=st.integers(0, 2**32 - 1), candidates=st.integers(1, 50),
                      nu=st.integers(1, 30), nv=st.integers(1, 30), at_plate=st.booleans())
    def check(seed, candidates, nu, nv, at_plate):
        rng = np.random.default_rng(seed)
        scene = random_facing_scene(rng)
        region = random_region(rng, nu, nv)
        if at_plate:  # the first receiver, which every subset keeps, at the plate
            region = TargetRegion(scene.plate_position, region.edge_u, region.edge_v, nu, nv)
        pts = region.points()
        frames = np.stack([random_rotation(rng).T for _ in range(candidates)])  # rows edge1, edge2, normal
        wave = scene.incident_wave()
        full = planner._receivers(scene, wave, frames, pts)
        c = int(rng.integers(candidates))
        part = planner._receivers(scene, wave, frames[c : c + 1], pts[::7])
        for whole, sub in zip(full, part):
            assert sub.shape == (1, len(pts[::7]))
            assert sub[0].tobytes() == whole[c, ::7].tobytes()
        if at_plate:
            assert full[2][:, 0].all()  # shadowed under every frame

    check()


def test_optimize_memory_is_bounded():
    # 24 x 24 receivers: a search holding all candidates x receivers x 3 at
    # once peaked at 95 MB here.
    scene = make_scene()
    region = TargetRegion(np.array([-3.0, -6.0, -3.0]), 6 * EX, 6 * EZ, 24, 24)
    _, (_, peak) = traced_memory(optimize_orientation, scene, region, "max-min-dbm")
    assert peak <= 16e6


# 1 receiver per block; 40 receivers, which does not divide the 143 cells;
# 10**9: all cells in one block.
@pytest.mark.parametrize("receivers", [1, 40, 10**9])
def test_coverage_independent_of_chunking(monkeypatch, receivers):
    scene = make_scene()
    region = TargetRegion(np.array([-3.0, -6.0, -3.0]), 6 * EX, 12 * EY + 6 * EZ, 13, 11)
    reference = coverage_map(scene, region)
    assert reference.shadow.any() and not reference.shadow.all()
    monkeypatch.setattr(planner, "_RECEIVER_BLOCK", receivers)
    cov = coverage_map(scene, region)
    for name in ("sigma_m2", "power_dbm", "shadow"):
        assert np.array_equal(getattr(cov, name), getattr(reference, name), equal_nan=True), name


@pytest.mark.parametrize("nu, nv", [(1, 1), (1, 7), (6, 1), (13, 11)])
def test_region_points_are_the_broadcast_grid_component_major(nu, nv):
    """points() is corner + fu*edge_u + fv*edge_v bit for bit, each coordinate one contiguous row."""
    rng = np.random.default_rng(79)
    region = random_region(rng, nu, nv)
    fu = np.zeros(nu) if nu == 1 else np.arange(nu) / (nu - 1)
    fv = np.zeros(nv) if nv == 1 else np.arange(nv) / (nv - 1)
    want = (region.corner[None, None, :] + fu[:, None, None] * region.edge_u[None, None, :]
            + fv[None, :, None] * region.edge_v[None, None, :]).reshape(nu * nv, 3)
    pts = region.points()
    assert pts.shape == (nu * nv, 3) and pts.T.flags.c_contiguous
    assert pts.tobytes() == want.tobytes()


def test_coverage_independent_of_point_layout():
    """Row-major and component-major copies of the same receivers give the same bits."""
    rng = np.random.default_rng(83)
    for _ in range(10):
        scene = random_facing_scene(rng)
        pts = random_region(rng, int(rng.integers(1, 30)), int(rng.integers(1, 30))).points()
        row_major, component_major = np.ascontiguousarray(pts), np.asfortranarray(pts)
        assert row_major.flags.c_contiguous and component_major.T.flags.c_contiguous
        a, b = coverage_map_points(scene, row_major), coverage_map_points(scene, component_major)
        for name in ("sigma_m2", "power_dbm", "shadow"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def test_coverage_memory_is_bounded():
    # 500 x 500 receivers: evaluating every receiver at once held 31 MB of
    # temporaries beyond the returned arrays here.
    scene = make_scene()
    region = TargetRegion(np.array([-3.0, -6.0, -3.0]), 6 * EX, 6 * EZ, 500, 500)
    cov, (held, peak) = traced_memory(coverage_map, scene, region)
    assert cov.power_dbm.size == 250_000
    assert peak - held <= 16e6


def test_orientation_objective_memory_is_bounded():
    # The region of test_coverage_memory_is_bounded: scoring one candidate on
    # all 250,000 receivers at once held 32 MB of temporaries here.
    scene = make_scene()
    region = TargetRegion(np.array([-3.0, -6.0, -3.0]), 6 * EX, 6 * EZ, 500, 500)
    for objective in OBJECTIVES:
        value, (held, peak) = traced_memory(orientation_objective, scene, region, objective)
        assert np.isfinite(value)
        assert peak - held <= 16e6, objective
