"""The library's boundary table: every public callable of ``platekit`` with a
scalar number among its parameters or dataclass fields, one scalar at a time
swapped for each value of the boundary ladder the CLI fuzz uses.

A call raises ValueError, or it appears in PASS_THROUGH or RECORDS with its
reason.  A call that returns gives no NaN (records excepted: they hold what
they are given), and no f_js or f_af outside [0, 1].
"""

import dataclasses
import functools
import inspect
import itertools
import math
import numbers

import numpy as np
import pytest

import platekit
from conftest import BOUNDARY_VALUES
from platekit import (
    ComparisonReport,
    ExperimentConfig,
    FarFieldSample,
    IncidentWave,
    LinkScenario,
    MeasurementSeries,
    OrientationResult,
    PlateGeometry,
    PolarizationAngle,
    QuadratureSpec,
    RcsBreakdown,
    Scene,
    SphericalAngles,
    TargetRegion,
    ValidationReport,
    Wavelength,
)

LADDER = [float(v) for v in BOUNDARY_VALUES]
WL = Wavelength.from_frequency(3e9)
PLATE = PlateGeometry.xy_plane(0.5, 0.5)
WAVE = IncidentWave.from_angles(SphericalAngles(0.5, 0.3), 0.2, WL)
A_OBS = np.array([0.3, 0.2, math.sqrt(1 - 0.13)])
LINK = LinkScenario(0.0, 1.0, 1.0, 2.0, 2.0, WL)
SCENE = dict(tx_position=np.array([0.0, -5.0, 5.0]), plate_position=np.zeros(3), plate=PLATE,
             polarization=PolarizationAngle(0.5), wavelength=WL)
GRID = np.linspace(0.0, 80.0, 9)
# Unit directions with components 0, +-1 and neither, for the rows that take vectors.
NORMAL, H_DIR, A_INC, A_OBS_YZ = [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, -0.6, -0.8], [0.0, 0.6, 0.8]


@functools.cache
def _worst():
    return platekit.run_validation(1, 0).worst


def _components(call, **vectors):
    """A row whose scalars are the components of ``vectors``, named like
    ``a_obs[2]``: ``call`` takes the vectors rebuilt from them."""
    base = {f"{name}[{i}]": c for name, v in vectors.items() for i, c in enumerate(v)}

    def rebuilt(**scalars):
        return call(**{name: np.array([scalars[f"{name}[{i}]"] for i in range(3)]) for name in vectors})

    return rebuilt, base


# name: (call, base scalars).  The call takes the scalars as keyword arguments;
# each is swapped in turn.
TABLE = {
    "SphericalAngles": (SphericalAngles, {"theta": 0.5, "phi": 0.3}),
    "SphericalAngles.from_degrees": (SphericalAngles.from_degrees, {"theta_deg": 30.0, "phi_deg": 20.0}),
    "PolarizationAngle": (PolarizationAngle, {"varphi": 0.5}),
    "PolarizationAngle.from_degrees": (PolarizationAngle.from_degrees, {"varphi_deg": 30.0}),
    "polarization_triad": (lambda pol: platekit.polarization_triad(SphericalAngles(0.5, 0.3), pol), {"pol": 0.2}),
    "Wavelength": (Wavelength, {"meters": 0.1}),
    "Wavelength.from_frequency": (Wavelength.from_frequency, {"hz": 3e9}),
    "PlateGeometry": (lambda length1, length2: PlateGeometry(length1, length2, PLATE.normal, PLATE.edge1,
                                                             PLATE.edge2), {"length1": 0.5, "length2": 0.4}),
    "PlateGeometry.xy_plane": (PlateGeometry.xy_plane, {"length1": 0.5, "length2": 0.4}),
    "PlateGeometry.from_frame": (lambda length1, length2: PlateGeometry.from_frame(length1, length2, PLATE.normal,
                                                                                   PLATE.edge1),
                                 {"length1": 0.5, "length2": 0.4}),
    "PlateGeometry.from_euler_zyz": (PlateGeometry.from_euler_zyz,
                                     {"length1": 0.5, "length2": 0.4, "alpha": 0.1, "beta": 0.2, "gamma": 0.3}),
    "RcsBreakdown": (lambda **kw: RcsBreakdown(**kw, front_side_valid=True),
                     {"sigma_m2": 1.0, "sigma_max_m2": 2.0, "f_js": 0.5, "f_af": 0.5}),
    "dbsm": (platekit.dbsm, {"sigma_m2": 1.0}),
    "sinc": (platekit.sinc, {"x": 0.5}),
    "f_js": _components(platekit.f_js, normal=NORMAL, h_dir=H_DIR, a_obs=A_OBS_YZ),
    "f_af": _components(lambda **v: platekit.f_af(PLATE, wl=WL, **v), a_inc=A_INC, a_obs=A_OBS_YZ),
    "sigma": _components(lambda **v: platekit.sigma(PLATE, wl=WL, **v), a_inc=A_INC, h_dir=H_DIR, a_obs=A_OBS_YZ),
    "rcs": _components(lambda **v: platekit.rcs(PLATE, wl=WL, **v), a_inc=A_INC, h_dir=H_DIR, a_obs=A_OBS_YZ),
    "rcs_xy_plate": (lambda **kw: platekit.rcs_xy_plate(**kw, wl=WL),
                     {"theta_t": 0.5, "phi_t": 0.3, "varphi_t": 0.2, "theta_r": 0.4, "phi_r": 0.1, "length1": 0.5,
                      "length2": 0.4}),
    "rcs_perpendicular": (lambda **kw: platekit.rcs_perpendicular(**kw, wl=WL),
                          {"theta_t": 0.5, "theta_r": 0.4, "phi_r": 0.1, "length1": 0.5, "length2": 0.4}),
    "rcs_parallel": (lambda **kw: platekit.rcs_parallel(**kw, wl=WL),
                     {"theta_t": 0.5, "theta_r": 0.4, "phi_r": 0.1, "length1": 0.5, "length2": 0.4}),
    "rcs_perpendicular_cut": (lambda **kw: platekit.rcs_perpendicular_cut(**kw, wl=WL),
                              {"theta_t": 0.5, "theta_r": 0.4, "length1": 0.5, "length2": 0.4}),
    "rcs_parallel_cut": (lambda **kw: platekit.rcs_parallel_cut(**kw, wl=WL),
                         {"theta_t": 0.5, "theta_r": 0.4, "length1": 0.5, "length2": 0.4}),
    "LinkScenario": (lambda **kw: LinkScenario(**kw, wavelength=WL),
                     {"tx_power_dbm": 0.0, "tx_gain_dbi": 1.0, "rx_gain_dbi": 1.0, "tx_distance_m": 2.0,
                      "rx_distance_m": 2.0, "amp_gain_db": 0.0}),
    "received_dbm": (lambda sigma_m2: platekit.received_dbm(LINK, sigma_m2), {"sigma_m2": 1.0}),
    "received_power": (lambda sigma_m2: platekit.received_power(LINK, sigma_m2), {"sigma_m2": 1.0}),
    "MeasurementSeries": (lambda **kw: MeasurementSeries(GRID, -GRID, **kw),
                          {"theta_t_deg": 45.0, "varphi_t_deg": 90.0, "freq_hz": 3e9}),
    "ExperimentConfig": (ExperimentConfig, dataclasses.asdict(ExperimentConfig())),
    "theoretical_curve(config)": (lambda **kw: platekit.theoretical_curve(ExperimentConfig(**kw), "parallel", GRID),
                                  dataclasses.asdict(ExperimentConfig())),
    "theoretical_curve": (lambda theta_r_deg: platekit.theoretical_curve(ExperimentConfig(), "parallel",
                                                                         theta_r_deg), {"theta_r_deg": 30.0}),
    "ComparisonReport": (ComparisonReport, {"offset_db": 1.0, "peak_angle_error_deg": 1.0, "hpbw_error_deg": 1.0,
                                            "rmse_db": 1.0, "mainlobe_sidelobe_gap_db": 1.0,
                                            "peak_angle_measured_deg": 40.0, "peak_angle_theory_deg": 41.0,
                                            "hpbw_measured_deg": 5.0, "hpbw_theory_deg": 4.0, "n_points": 9}),
    "Scene": (lambda **kw: Scene(**SCENE, **kw),
              {"tx_power_dbm": 0.0, "tx_gain_dbi": 1.0, "rx_gain_dbi": 1.0, "amp_gain_db": 0.0}),
    "TargetRegion": (lambda nu, nv: TargetRegion(np.zeros(3), np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), nu, nv),
                     {"nu": 3, "nv": 2}),
    "OrientationResult": (lambda **kw: OrientationResult(PLATE.normal, PLATE.edge1, PLATE.edge2, objective="x", **kw),
                          {"zenith_deg": 1.0, "azimuth_deg": 2.0, "value_dbm": -50.0, "evaluations": 3,
                           "initial_dbm": -60.0}),
    "IncidentWave": (lambda **kw: IncidentWave(WAVE.direction, WAVE.e_dir, WAVE.h_dir, WL, **kw),
                     {"h_magnitude": 1.0, "impedance_ohm": 377.0}),
    "IncidentWave.from_angles": (lambda pol, **kw: IncidentWave.from_angles(SphericalAngles(0.5, 0.3), pol, WL, **kw),
                                 {"pol": 0.2, "h_magnitude": 1.0, "impedance_ohm": 377.0}),
    "IncidentWave.from_direction": (lambda pol, **kw: IncidentWave.from_direction(-A_OBS, pol, WL, **kw),
                                    {"pol": 0.2, "h_magnitude": 1.0, "impedance_ohm": 377.0}),
    "QuadratureSpec": (QuadratureSpec, {"nodes_per_edge": 8}),
    "FarFieldSample": (FarFieldSample, {"e_theta": 1.0, "e_phi": 1.0, "distance_m": 10.0}),
    "po_far_field": (lambda distance_m: platekit.po_far_field(PLATE, WAVE, A_OBS, distance_m, QuadratureSpec(8)),
                     {"distance_m": 1000.0}),
    "po_rcs": (lambda distance_m: platekit.po_rcs(PLATE, WAVE, A_OBS, QuadratureSpec(8), distance_m),
               {"distance_m": 1000.0}),
    "run_validation": (lambda **kw: platekit.run_validation(**kw, nodes_per_edge=None),
                       {"trials": 1, "seed": 0, "tolerance": 1e-6}),
    "run_validation(nodes_per_edge)": (lambda nodes_per_edge: platekit.run_validation(1, 0,
                                                                                     nodes_per_edge=nodes_per_edge),
                                       {"nodes_per_edge": 8}),
    "ValidationReport": (lambda **kw: ValidationReport(worst=_worst(), passed=True, **kw),
                         {"trials": 1, "seed": 0, "nodes_per_edge": 8, "tolerance": 1e-6, "max_rel_error": 1e-9,
                          "mean_rel_error": 1e-9}),
}

# Values of the ladder, by what they are.
FINITE = {v for v in LADDER if math.isfinite(v)}
POSITIVE = {1e300, 1e-300, 5e-324}
NON_NEGATIVE = POSITIVE | {0.0}
# Inside the zenith, azimuth and polarization domains ([0, pi] or [0, 2*pi)).
IN_DOMAIN = {1e-300, 5e-324, 0.0}
ANGLES = {"theta", "phi", "varphi", "theta_deg", "phi_deg", "varphi_deg", "pol", "theta_t", "phi_t", "varphi_t",
          "theta_r", "phi_r", "theta_t_deg", "theta_r_deg"}
LEVELS = {"tx_power_dbm", "tx_gain_dbi", "rx_gain_dbi", "amp_gain_db"}

# Records hold what they are given, NaN too: the functions that build them
# fill them from checked inputs.
RECORDS = {
    "RcsBreakdown": "rcs() fills it",
    "ComparisonReport": "compare() fills it; its peak angles default to NaN",
    "OrientationResult": "optimize_orientation() fills it",
    "FarFieldSample": "po_far_field() fills it",
    "ValidationReport": "run_validation() fills it",
    "ExperimentConfig": "theoretical_curve's parameters, checked there (row theoretical_curve(config))",
}

# (row, scalar): the values the call returns for, and why.
PASS_THROUGH = {
    **{(row, name): (IN_DOMAIN, "an angle inside its domain")
       for row, (_, base) in TABLE.items() for name in base if name in ANGLES},
    **{(row, name): (FINITE, "a power or gain in dB: any finite level")
       for row in ("LinkScenario", "Scene", "theoretical_curve(config)") for name in LEVELS},
    **{(row, name): (POSITIVE - {5e-324}, "a positive finite distance whose 4*pi*d_t*d_r is a normal float64")
       for row in ("LinkScenario", "theoretical_curve(config)") for name in ("tx_distance_m", "rx_distance_m")},
    **{(row, name): (POSITIVE, "a positive finite edge length; the closed form rejects what sigma_max cannot hold")
       for row in ("PlateGeometry", "PlateGeometry.xy_plane", "PlateGeometry.from_frame",
                   "PlateGeometry.from_euler_zyz") for name in ("length1", "length2")},
    **{("PlateGeometry.from_euler_zyz", name): (FINITE, "any finite Euler angle is a rotation")
       for name in ("alpha", "beta", "gamma")},
    **{(row, "sigma_m2"): (NON_NEGATIVE | {math.inf}, "an RCS of 0 or more; 0 and inf give -inf and inf")
       for row in ("dbsm", "received_dbm", "received_power")},
    ("sinc", "x"): (FINITE, "sinc of any finite number"),
    **{("MeasurementSeries", name): (FINITE, "metadata held as read; compare's model checks what it uses")
       for name in ("theta_t_deg", "varphi_t_deg", "freq_hz")},
    ("run_validation", "tolerance"): (NON_NEGATIVE, "a tolerance of 0 or more, which the report passes or fails"),
    # A zero component may take a tiny value, and a component of +-1 the value -1.
    **{(row, name): ({1e-300, -1e-300, 5e-324, 0.0} if c == 0.0 else {-1.0}, "a direction that stays unit length")
       for row in ("f_js", "f_af", "sigma", "rcs") for name, c in TABLE[row][1].items() if abs(c) in (0.0, 1.0)},
}
CELLS = [(row, name) for row, (_, base) in TABLE.items() for name in base]


def _numbers(result) -> np.ndarray:
    """Every number in ``result``, through tuples, arrays and dataclass fields, as complex."""
    if dataclasses.is_dataclass(result):
        parts = [_numbers(getattr(result, f.name)) for f in dataclasses.fields(result)]
    elif isinstance(result, (tuple, list)):
        parts = [_numbers(item) for item in result]
    elif isinstance(result, (numbers.Number, np.ndarray)) and not isinstance(result, bool):
        parts = [np.ravel(result).astype(complex)]
    else:
        parts = []
    return np.concatenate([np.zeros(0, complex), *parts])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("row, name", CELLS, ids=[f"{row}-{name}" for row, name in CELLS])
def test_every_library_scalar_takes_every_boundary_value(row, name):
    """Each value of the ladder in place of one scalar: ValueError, or a
    listed pass-through that returns no NaN and factors within [0, 1]."""
    call, base = TABLE[row]
    call(**base)
    passes = set(LADDER) if row in RECORDS else PASS_THROUGH.get((row, name), (set(), ""))[0]
    for value in LADDER:
        if value not in passes:
            with pytest.raises(ValueError):
                call(**{**base, name: value})
            continue
        result = call(**{**base, name: value})
        if row in RECORDS:
            continue
        assert not np.isnan(_numbers(result)).any(), (row, name, value, result)
        factors = np.ravel(result) if row in ("f_js", "f_af") else (
            [result.f_js, result.f_af] if isinstance(result, RcsBreakdown) else [])
        assert all(0.0 <= f <= 1.0 for f in factors), (row, name, value, result)


def test_table_covers_every_public_scalar():
    """Each float, int or complex parameter or field of the callables platekit
    exports (their classmethods too) has a row, and every pass-through a reason."""
    covered = {(row.split("(")[0], name) for row, name in CELLS}
    missing = []
    for export in dir(platekit):
        obj = getattr(platekit, export)
        if export.startswith("_") or not callable(obj) or isinstance(obj, type) and issubclass(obj, Warning):
            continue
        calls = [(export, obj)]
        if isinstance(obj, type):
            calls += [(f"{export}.{m}", getattr(obj, m)) for m, f in vars(obj).items() if isinstance(f, classmethod)]
        for label, fn in calls:
            for param in inspect.signature(fn).parameters.values():
                kinds = {part.strip() for part in str(param.annotation).split("|")}
                if kinds & {"float", "int", "complex"} and (label, param.name) not in covered:
                    missing.append((label, param.name))
    assert missing == []
    assert set(PASS_THROUGH) <= set(CELLS)
    assert all(reason for _, reason in PASS_THROUGH.values()) and set(RECORDS) <= set(TABLE)


# Fields that meet in one expression, where two values each in range can sum
# or multiply out of float64: LinkScenario's levels in the link budget's sum,
# its distances in log10(4*pi*d_t*d_r), and IncidentWave's field product.  A
# new expression over two or more scalars of a TABLE row gets rows here, one
# per pair of its fields, and USES gets the call that evaluates it if the row
# has none yet.
PAIR_LADDER = [1e308, -1e308, 1e200, 1e-200, 5e-324]
PAIRS = [
    *(("LinkScenario", pair) for pair in itertools.combinations(
        ("tx_power_dbm", "amp_gain_db", "tx_gain_dbi", "rx_gain_dbi"), 2)),
    ("LinkScenario", ("tx_distance_m", "rx_distance_m")),
    ("IncidentWave", ("h_magnitude", "impedance_ohm")),
]
# The call that evaluates each row's expressions on what the row returns.
USES = {
    "LinkScenario": lambda scenario: platekit.received_dbm(scenario, 1.0),
    "IncidentWave": lambda wave: platekit.po_rcs(PLATE, wave, A_OBS, QuadratureSpec(8)),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("row, names", PAIRS, ids=[f"{row}-{'-'.join(names)}" for row, names in PAIRS])
def test_every_field_pair_takes_every_pair_of_ladder_values(row, names):
    """Each ordered pair of PAIR_LADDER values in place of two fields that
    meet in one expression: ValueError, or a value that its use turns into
    finite numbers (received_dbm of a nonzero RCS, po_rcs)."""
    call, base = TABLE[row]
    for values in itertools.product(PAIR_LADDER, repeat=2):
        try:
            result = call(**{**base, **dict(zip(names, values))})
        except ValueError:
            continue
        assert np.isfinite(_numbers(USES[row](result))).all(), (row, names, values)
