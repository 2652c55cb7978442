"""Command-line surface: point queries, sweeps, validation, planning, comparison.

Subcommands: rcs, sweep, validate, coverage, optimize, compare.  All angles
on the command line and in files are degrees; CSV and JSON are the data
contract, SVG plots are conveniences.  Exit codes: 0 success, 2 usage or
input error, 3 validation failure, 4 I/O error.

An argv takes one of two parse routes.  _read_argv reads a well-formed one (a
command, its positionals and its exact option strings, each once) without
building a parser.  Every argv it declines goes to build_parser's argparse
parser: help, usage errors, abbreviations, --flag=value and "--".
tests/data/parser_golden.json pins that route's help and error bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import sys
from types import SimpleNamespace

import numpy as np

# All but geometry are deferred modules (platekit/__init__.py): each runs when
# a command first reads one of its attributes, so that a command runs only the
# modules it uses.
from . import csvtext, geometry, link, measure, planner, svgplot, validate
from .rcs import POLARIZATION_CASES, PlateGeometry, Wavelength, _closed_form, dbsm
from .rcs import rcs as rcs_breakdown

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4

# Largest sweep grid; about 11x the rows of a 0.001-degree step over 0..90 degrees.
_MAX_SWEEP_ROWS = 1_000_000
# argparse's (private) negative-number pattern plus an exponent and the
# non-finite words float() reads: "-1e1" and "-inf" are values, not flags.
_NEGATIVE_NUMBER = re.compile(r"^-((\d+|\d*\.\d+)([eE][-+]?\d+)?|(?i:inf|infinity|nan))$")


def _json_ready(obj):
    """Replace non-finite floats with strings so output is strict JSON."""
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _json_ready(obj.tolist())
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "-inf" if x < 0 else "inf"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _output(path: str | None):
    """The sink every CSV, SVG and JSON output is written through, chunk by
    chunk as it is produced: the binary file ``path``, or stdout when None
    (decoded, as stdout takes str and may be a StringIO)."""
    if path is None:
        return contextlib.nullcontext(SimpleNamespace(write=lambda chunk: sys.stdout.write(str(chunk, "utf-8"))))
    return open(path, "wb")


def _write_json(path: str, payload) -> None:
    with _output(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False).encode("utf-8") + b"\n")


def _print_fields(fields: dict) -> None:
    """Print one ``key=value`` line per field: floats as %.9g (``csvtext``),
    vectors as [x,y,z], booleans as true/false and None as unavailable."""
    def show(value) -> str:
        if value is None:
            return "unavailable"
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (str, int)):
            return str(value)
        if isinstance(value, np.ndarray):
            return "[" + ",".join(map(csvtext.fmt, value)) + "]"
        return csvtext.fmt(value)

    print("\n".join(f"{key}={show(value)}" for key, value in fields.items()))


def _write_table(path: str | None, header: str, columns: list, shadow=None) -> None:
    """Write equal-length numeric columns as CSV to ``path`` (stdout if None).

    Integer columns print as %d and the others as %.9g (``csvtext``).  Where
    the boolean ``shadow`` array is set, the last column reads ``shadow``.
    Rows are formatted and written a chunk at a time (``csvtext.format_chunks``).
    """
    with _output(path) as fh:
        fh.write(header.encode("utf-8") + b"\n")
        for chunk in csvtext.format_chunks([np.asarray(c) for c in columns], shadow):
            fh.write(chunk)
            del chunk  # not held while the next chunk is formatted


# ---------------------------------------------------------------------------
# Shared flag groups


def _add_plate_wave_flags(p: argparse.ArgumentParser, observation: bool = True) -> None:
    p.add_argument("--freq-hz", type=float, required=True, help="carrier frequency in Hz")
    p.add_argument("--l1-wl", type=float, help="first edge length in wavelengths")
    p.add_argument("--l2-wl", type=float, help="second edge length in wavelengths")
    p.add_argument("--l1-m", type=float, help="first edge length in meters")
    p.add_argument("--l2-m", type=float, help="second edge length in meters")
    p.add_argument(
        "--xy-plane", action="store_true", help="plate in the x-y plane (default orientation)"
    )
    p.add_argument(
        "--euler-deg",
        type=float,
        nargs=3,
        metavar=("ALPHA", "BETA", "GAMMA"),
        help="plate orientation as intrinsic z-y-z Euler angles in degrees",
    )
    p.add_argument("--theta-t-deg", type=float, required=True, help="incidence zenith angle")
    p.add_argument("--phi-t-deg", type=float, default=270.0, help="incidence azimuth (default 270)")
    p.add_argument("--pol-deg", type=float, required=True, help="polarization angle in degrees")
    if observation:
        p.add_argument("--theta-r-deg", type=float, required=True, help="observation zenith angle")
    p.add_argument("--phi-r-deg", type=float, default=90.0, help="observation azimuth (default 90)")


def _check_finite(args, flags: tuple[str, ...], positive: bool = False) -> None:
    """Reject given flags that are non-finite (or, with ``positive``, not above zero)."""
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and not (math.isfinite(value) and (value > 0.0 or not positive)):
            rule = "positive and finite" if positive else "finite"
            raise ValueError(f"--{flag.replace('_', '-')} must be {rule}, got {value}")


def _plate_from_args(args, wl: Wavelength) -> PlateGeometry:
    if (args.l1_wl is None) == (args.l1_m is None):
        raise ValueError("specify exactly one of --l1-wl and --l1-m")
    if (args.l2_wl is None) == (args.l2_m is None):
        raise ValueError("specify exactly one of --l2-wl and --l2-m")
    _check_finite(args, ("l1_wl", "l2_wl", "l1_m", "l2_m"), positive=True)
    l1 = args.l1_m if args.l1_m is not None else args.l1_wl * wl.meters
    l2 = args.l2_m if args.l2_m is not None else args.l2_wl * wl.meters
    if args.xy_plane and args.euler_deg is not None:
        raise ValueError("--xy-plane conflicts with --euler-deg")
    if args.euler_deg is not None:
        if not all(math.isfinite(v) for v in args.euler_deg):
            raise ValueError(f"--euler-deg angles must be finite, got {args.euler_deg}")
        a, b, g = (math.radians(v) for v in args.euler_deg)
        return PlateGeometry.from_euler_zyz(l1, l2, a, b, g)
    return PlateGeometry.xy_plane(l1, l2)


def _wave_vectors_from_args(args):
    geometry.check_angle("--theta-t-deg", args.theta_t_deg, "zenith")
    geometry.check_angle("--phi-t-deg", args.phi_t_deg, "azimuth")
    geometry.check_angle("--pol-deg", args.pol_deg, "polarization")
    angles = geometry.SphericalAngles.from_degrees(args.theta_t_deg, args.phi_t_deg)
    pol = geometry.PolarizationAngle.from_degrees(args.pol_deg)
    _, h_dir, a_inc = geometry.polarization_triad(angles, pol)
    return a_inc, h_dir


# ---------------------------------------------------------------------------
# rcs


def _cmd_rcs(args) -> int:
    wl = Wavelength.from_frequency(args.freq_hz)
    plate = _plate_from_args(args, wl)
    a_inc, h_dir = _wave_vectors_from_args(args)
    geometry.check_angle("--theta-r-deg", args.theta_r_deg, "zenith")
    geometry.check_angle("--phi-r-deg", args.phi_r_deg, "azimuth")
    obs = geometry.observation_direction(
        geometry.SphericalAngles.from_degrees(args.theta_r_deg, args.phi_r_deg)
    )
    b = rcs_breakdown(plate, a_inc, h_dir, obs, wl)
    _print_fields({key: getattr(b, key) for key in
                   ("sigma_m2", "sigma_dbsm", "sigma_max_m2", "f_js", "f_af", "front_side_valid")})
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


# The link-budget flags, by argparse dest, and the link.LinkScenario field each sets.
_LINK_FIELDS = {
    "p_t_dbm": "tx_power_dbm",
    "amp_db": "amp_gain_db",
    "g_t_dbi": "tx_gain_dbi",
    "g_r_dbi": "rx_gain_dbi",
    "d_t_m": "tx_distance_m",
    "d_r_m": "rx_distance_m",
}
# compare's flags and the measure.ExperimentConfig field each sets, in --help
# order; the config's link fields carry LinkScenario's names.
_CONFIG_FIELDS = {
    "freq_hz": "freq_hz",
    "theta_t_deg": "theta_t_deg",
    "l1_wl": "plate_l1_wavelengths",
    "l2_wl": "plate_l2_wavelengths",
    **_LINK_FIELDS,
}


def _given(args, fields: dict) -> dict:
    """{field: value} for each flag of ``fields`` (dest -> field) given on the
    command line, so that the library's own default fills every other field."""
    return {field: getattr(args, dest) for dest, field in fields.items() if getattr(args, dest) is not None}


def _link_from_args(args, wl: Wavelength) -> link.LinkScenario | None:
    required = [dest for dest in _LINK_FIELDS if dest != "amp_db"]
    missing = [dest for dest in required if getattr(args, dest) is None]
    if len(missing) == len(required):
        if args.amp_db is not None:
            raise ValueError("--amp-db requires the other link flags")
        return None
    if missing:
        flags = ", ".join("--" + f.replace("_", "-") for f in missing)
        raise ValueError(f"incomplete link budget: missing {flags}")
    return link.LinkScenario(wavelength=wl, **_given(args, _LINK_FIELDS))


def _sweep_grid(start: float, stop: float, step: float) -> np.ndarray:
    """Observation zeniths start, start + step, ... (degrees), none past stop;
    start and stop are range-checked as given."""
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError("--theta-r-start, --theta-r-stop and --theta-r-step must be finite")
    if step <= 0.0:
        raise ValueError("--theta-r-step must be positive")
    geometry.check_angle("--theta-r-start", start, "zenith")
    geometry.check_angle("--theta-r-stop", stop, "zenith")
    if stop < start:
        raise ValueError("--theta-r-stop must not be below --theta-r-start")
    # The grid has floor(last) + 1 rows; last overflows to inf for a tiny step.
    last = (stop - start) / step + 1e-9
    if last >= _MAX_SWEEP_ROWS:
        rows = int(math.floor(last)) + 1 if math.isfinite(last) else "too many"
        raise ValueError(f"sweep grid has {rows} rows, more than {_MAX_SWEEP_ROWS}; increase --theta-r-step")
    # The last point can round past stop by an ulp.
    return np.minimum(start + step * np.arange(int(math.floor(last)) + 1), stop)


def _observation_directions(theta_deg: np.ndarray, phi_deg: float) -> np.ndarray:
    """(N, 3) observation unit vectors for a zenith grid from _sweep_grid
    (degrees) and the azimuth --phi-r-deg, stored component-major so that
    each coordinate is one contiguous row."""
    geometry.check_angle("--phi-r-deg", phi_deg, "azimuth")
    theta, phi = np.radians(theta_deg), math.radians(phi_deg)
    st = np.sin(theta)
    return np.stack([st * math.cos(phi), st * math.sin(phi), np.cos(theta)]).T


def _add_sweep_flags(p: argparse.ArgumentParser) -> None:
    _add_plate_wave_flags(p, observation=False)
    p.add_argument("--theta-r-start", type=float, default=0.0)
    p.add_argument("--theta-r-stop", type=float, default=90.0)
    p.add_argument("--theta-r-step", type=float, default=5.0)
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.add_argument("--svg", help="optional SVG plot path")
    p.add_argument("--p-t-dbm", type=float, help="transmit power (enables power column)")
    p.add_argument("--amp-db", type=float, help="amplifier gain in dB")
    p.add_argument("--g-t-dbi", type=float, help="transmit antenna gain")
    p.add_argument("--g-r-dbi", type=float, help="receive antenna gain")
    p.add_argument("--d-t-m", type=float, help="transmitter-to-plate distance")
    p.add_argument("--d-r-m", type=float, help="plate-to-receiver distance")


def _cmd_sweep(args) -> int:
    wl = Wavelength.from_frequency(args.freq_hz)
    plate = _plate_from_args(args, wl)
    a_inc, h_dir = _wave_vectors_from_args(args)
    grid = _sweep_grid(args.theta_r_start, args.theta_r_stop, args.theta_r_step)
    scenario = _link_from_args(args, wl)

    # The plate, wave and directions come from checked flags and angles, so
    # the kernel runs without sigma's stack checks.
    sigmas = _closed_form(plate.length1, plate.length2, plate.normal, plate.edge1, plate.edge2,
                          a_inc, h_dir, _observation_directions(grid, args.phi_r_deg), wl)[0]
    dbsm_vals = dbsm(sigmas)

    header = "theta_r_deg,sigma_m2,sigma_dbsm"
    columns = [grid, sigmas, dbsm_vals]
    if scenario is not None:
        header += ",p_r_dbm"
        columns.append(link._received_dbm_from_dbsm(scenario, dbsm_vals))
    _write_table(args.out, header, columns)

    if args.svg is not None:
        series = [dbsm_vals]
        labels = ["RCS (dBsm)"]
        if scenario is not None:
            series.append(columns[3])
            labels.append("received power (dBm)")
        with _output(args.svg) as fh:
            svgplot.line_plot(
                grid,
                series,
                labels,
                title="observation-angle sweep",
                xlabel="observation zenith angle (deg)",
                ylabel="dB",
                out=fh,
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate


def _add_validate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--nodes-per-edge", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--freq-hz", type=float)


def _cmd_validate(args) -> int:
    report = validate.run_validation(
        trials=args.trials,
        seed=args.seed,
        nodes_per_edge=args.nodes_per_edge,
        **({} if args.freq_hz is None else {"wavelength": Wavelength.from_frequency(args.freq_hz)}),
        **_given(args, {"tol": "tolerance"}),
    )
    print("\n".join(report.lines()))
    return EXIT_OK if report.passed else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# scene/region config files


def _reject_unknown(d: dict, allowed: set[str], path: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ValueError(f"{path}: unknown keys {sorted(unknown)}")


def _need(d: dict, key: str, path: str):
    if key not in d:
        raise ValueError(f"{path}: missing required key {key!r}")
    return d[key]


def _number(value, path: str) -> float:
    """A JSON number as a float; null, booleans, strings, lists and objects
    are rejected, as is an integer too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{path}: expected a number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{path}: number too large: {value}") from None


def _vec3(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != 3:
        raise ValueError(f"{path}: expected a 3-element vector")
    return np.array([_number(v, f"{path}[{i}]") for i, v in enumerate(value)])


def _direction(value, path: str) -> np.ndarray:
    """A JSON 3-vector normalized by geometry.unit; one whose squared norm
    overflows is rejected first, in Python floats, which overflow silently."""
    v = _vec3(value, path)
    if not sum(x * x for x in v.tolist()) < math.inf:
        raise ValueError(f"{path}: vector too large to normalize")
    return geometry.unit(v)


def _plate_from_config(cfg: dict, path: str) -> PlateGeometry:
    _reject_unknown(
        cfg, {"length1_m", "length2_m", "normal", "edge1", "euler_zyz_deg", "xy_plane"}, path
    )
    l1 = _number(_need(cfg, "length1_m", path), f"{path}.length1_m")
    l2 = _number(_need(cfg, "length2_m", path), f"{path}.length2_m")
    modes = [k for k in ("normal", "euler_zyz_deg", "xy_plane") if k in cfg]
    if len(modes) != 1:
        raise ValueError(f"{path}: specify exactly one of normal+edge1, euler_zyz_deg, xy_plane")
    if "xy_plane" in cfg:
        if cfg["xy_plane"] is not True:
            raise ValueError(f"{path}: xy_plane must be true when present")
        return PlateGeometry.xy_plane(l1, l2)
    if "euler_zyz_deg" in cfg:
        angles = _vec3(cfg["euler_zyz_deg"], f"{path}.euler_zyz_deg")
        a, b, g = (math.radians(v) for v in angles)
        return PlateGeometry.from_euler_zyz(l1, l2, a, b, g)
    normal = _direction(_need(cfg, "normal", path), f"{path}.normal")
    edge1 = _direction(_need(cfg, "edge1", path), f"{path}.edge1")
    return PlateGeometry.from_frame(l1, l2, normal, edge1)


def _region_from_config(cfg: dict, path: str) -> planner.TargetRegion:
    _reject_unknown(cfg, {"corner_m", "edge_u_m", "edge_v_m", "nu", "nv"}, path)
    return planner.TargetRegion(
        corner=_vec3(_need(cfg, "corner_m", path), f"{path}.corner_m"),
        edge_u=_vec3(_need(cfg, "edge_u_m", path), f"{path}.edge_u_m"),
        edge_v=_vec3(_need(cfg, "edge_v_m", path), f"{path}.edge_v_m"),
        nu=_need(cfg, "nu", path),
        nv=_need(cfg, "nv", path),
    )


_SCENE_KEYS = {
    "frequency_hz",
    "tx_position_m",
    "plate_position_m",
    "plate",
    "polarization_deg",
    "tx_power_dbm",
    "amp_gain_db",
    "tx_gain_dbi",
    "rx_gain_dbi",
    "region",
    "objective",
}


def _finite_number(token: str) -> float:
    """JSON number hook: NaN, Infinity and overflowing literals are rejected."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token}")
    return value


def load_scene_config(path: str) -> tuple[planner.Scene, planner.TargetRegion, str]:
    """Parse a scene/region JSON config; unknown keys and non-finite numbers are rejected."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh, parse_float=_finite_number, parse_constant=_finite_number)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: top-level config must be an object")
    _reject_unknown(cfg, _SCENE_KEYS, path)
    def number(key):
        return _number(_need(cfg, key, path), f"{path}.{key}")

    frequency_hz = number("frequency_hz")
    try:
        wl = Wavelength.from_frequency(frequency_hz)
    except ValueError as exc:
        raise ValueError(f"{path}.frequency_hz: {exc}") from None
    plate_cfg = _need(cfg, "plate", path)
    if not isinstance(plate_cfg, dict):
        raise ValueError(f"{path}.plate: must be an object")
    plate = _plate_from_config(plate_cfg, f"{path}.plate")
    region_cfg = _need(cfg, "region", path)
    if not isinstance(region_cfg, dict):
        raise ValueError(f"{path}.region: must be an object")
    region = _region_from_config(region_cfg, f"{path}.region")
    polarization_deg = number("polarization_deg")
    geometry.check_angle(f"{path}.polarization_deg", polarization_deg, "polarization")
    scene = planner.Scene(
        tx_position=_vec3(_need(cfg, "tx_position_m", path), f"{path}.tx_position_m"),
        plate_position=_vec3(_need(cfg, "plate_position_m", path), f"{path}.plate_position_m"),
        plate=plate,
        polarization=geometry.PolarizationAngle.from_degrees(polarization_deg),
        tx_power_dbm=number("tx_power_dbm"),
        tx_gain_dbi=number("tx_gain_dbi"),
        rx_gain_dbi=number("rx_gain_dbi"),
        wavelength=wl,
        **({"amp_gain_db": number("amp_gain_db")} if "amp_gain_db" in cfg else {}),
    )
    objective = cfg.get("objective", "max-min-dbm")
    if objective not in planner.OBJECTIVES:
        raise ValueError(f"{path}: objective must be one of {planner.OBJECTIVES}")
    return scene, region, objective


def _add_coverage_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("config", help="scene/region JSON config path")
    p.add_argument("--out-csv", required=True, help="output CSV path")
    p.add_argument("--out-svg", help="optional SVG heatmap path")
    p.add_argument("--db-min", type=float, help="color scale lower bound (dBm)")
    p.add_argument("--db-max", type=float, help="color scale upper bound (dBm)")


def _cmd_coverage(args) -> int:
    _check_finite(args, ("db_min", "db_max"))
    if args.db_min is not None and args.db_max is not None and not 0.0 < args.db_max - args.db_min < math.inf:
        raise ValueError(f"--db-min must be below --db-max by a finite span, got {args.db_min} and {args.db_max}")
    scene, region, _ = load_scene_config(args.config)
    cov = planner.coverage_map(scene, region)
    iu, iv = np.indices(cov.shape).reshape(2, -1)
    _write_table(
        args.out_csv,
        "index_u,index_v,x_m,y_m,z_m,p_r_dbm",
        [iu, iv, *cov.points.T, cov.power_dbm],
        shadow=cov.shadow,
    )
    if args.out_svg is not None:
        with _output(args.out_svg) as fh:
            svgplot.heatmap(
                cov.power_grid(),
                shadow=cov.shadow_grid(),
                vmin=args.db_min,
                vmax=args.db_max,
                title="coverage (dBm)",
                legend="received power (dBm)",
                out=fh,
            )
    n_shadow = int(np.count_nonzero(cov.shadow))
    print(f"cells={cov.points.shape[0]} shadow_cells={n_shadow}")
    return EXIT_OK


def _add_optimize_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("config", help="scene/region JSON config path")
    p.add_argument("--out-json", help="optional JSON result path")


def _cmd_optimize(args) -> int:
    scene, region, objective = load_scene_config(args.config)
    result = planner.optimize_orientation(scene, region, objective)
    fields = {
        "objective": objective,
        "initial_objective_dbm": result.initial_dbm,
        "best_zenith_deg": result.zenith_deg,
        "best_azimuth_deg": result.azimuth_deg,
        "best_objective_dbm": result.value_dbm,
        "normal": result.normal,
        "evaluations": result.evaluations,
    }
    _print_fields(fields)
    if args.out_json is not None:
        _write_json(args.out_json, _json_ready({**fields, "edge1": result.edge1, "edge2": result.edge2}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare


def _add_compare_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("measurement", help="measurement CSV path")
    p.add_argument("--pol-case", choices=list(POLARIZATION_CASES))
    for dest in _CONFIG_FIELDS:
        p.add_argument("--" + dest.replace("_", "-"), type=float)
    p.add_argument("--out-json", help="optional JSON report path")
    p.add_argument("--out-svg", help="optional overlay SVG path")


def _cmd_compare(args) -> int:
    series = measure.load_series(args.measurement)
    pol_case = args.pol_case
    if pol_case is None and series.varphi_t_deg is not None:
        varphi = series.varphi_t_deg % 360.0
        if varphi in (90.0, 270.0):
            pol_case = "perpendicular"
        elif varphi in (0.0, 180.0):
            pol_case = "parallel"
    if pol_case is None:
        raise ValueError("no --pol-case given and none recoverable from file metadata")
    # Each field: the flag, else the file's metadata, else ExperimentConfig's default.
    metadata = {key: getattr(series, key) for key in ("freq_hz", "theta_t_deg") if getattr(series, key) is not None}
    config = measure.ExperimentConfig(**{**metadata, **_given(args, _CONFIG_FIELDS)})
    curve = measure.theoretical_curve(config, pol_case, series.theta_r_deg)
    report = measure.compare(series, curve).to_dict()
    _print_fields({"pol_case": pol_case, "theta_t_deg": config.theta_t_deg, **report})
    if args.out_json is not None:
        _write_json(args.out_json, _json_ready({"pol_case": pol_case, **report}))
    if args.out_svg is not None:
        with _output(args.out_svg) as fh:
            svgplot.line_plot(
                series.theta_r_deg,
                [series.power_dbm, curve[1] + report["offset_db"]],
                ["measured", "model + offset"],
                title="measured vs model sweep",
                xlabel="observation zenith angle (deg)",
                ylabel="received power (dBm)",
                out=fh,
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


_COMMANDS = {  # name: (help, flag adder, handler)
    "rcs": ("RCS breakdown for one configuration", _add_plate_wave_flags, _cmd_rcs),
    "sweep": ("observation-angle sweep to CSV/SVG", _add_sweep_flags, _cmd_sweep),
    "validate": ("closed form vs quadrature on random scenarios", _add_validate_flags, _cmd_validate),
    "coverage": ("coverage heatmap over a receiver grid", _add_coverage_flags, _cmd_coverage),
    "optimize": ("search plate orientation for a region objective", _add_optimize_flags, _cmd_optimize),
    "compare": ("measured sweep vs model curve", _add_compare_flags, _cmd_compare),
}


def build_parser() -> argparse.ArgumentParser:
    """The full platekit parser, every subcommand under one subparsers action, for
    each argv that _read_argv declines: all help, usage errors and argparse's other
    spellings."""
    parser = argparse.ArgumentParser(
        prog="platekit", description="Reflection modelling for rectangular metal plate reflectors"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags, _) in _COMMANDS.items():
        add_flags(sub.add_parser(name, help=help_text))
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _grammar(command: str) -> dict:
    """{option string or positional name: add_argument keywords} of ``command``, from its flag adder."""
    spec = {}
    _COMMANDS[command][1](SimpleNamespace(add_argument=lambda name, **kwargs: spec.setdefault(name, kwargs)))
    return spec


def _read_argv(argv) -> argparse.Namespace | None:
    """build_parser().parse_args(argv)'s namespace, read without a parser; None unless
    argv is a command, its positionals and its exact option strings, each once with
    nargs values of its type and choices, required ones given.  A word starting
    with "-" is a value only where _NEGATIVE_NUMBER matches it, as in the parsers,
    so help, "--", "-", "--flag=value" and abbreviations are declined.  "--a-b"
    sets a_b, which holds as no flag adder passes dest=."""
    def is_value(word):
        return word[:1] != "-" or _NEGATIVE_NUMBER.match(word)
    if not argv or argv[0] not in _COMMANDS:
        return None
    spec, given, positionals, i = _grammar(argv[0]), {}, [], 1
    while i < len(argv):
        word, i = argv[i], i + 1
        if is_value(word):
            positionals.append(word)
            continue
        if word not in spec or word in given:
            return None
        kw = spec[word]
        n = 0 if kw.get("action") == "store_true" else kw.get("nargs", 1)
        words, i = argv[i:i + n], i + n
        try:
            values = [kw.get("type", str)(w) for w in words if is_value(w)]
        except ValueError:
            return None
        if len(values) != n or "choices" in kw and any(v not in kw["choices"] for v in values):
            return None
        given[word] = True if n == 0 else values if "nargs" in kw else values[0]
    names = [name for name in spec if name[0] != "-"]
    if len(positionals) != len(names) or any(kw.get("required") and name not in given for name, kw in spec.items()):
        return None
    given.update(zip(names, positionals))
    return argparse.Namespace(command=argv[0], **{name.lstrip("-").replace("-", "_"): given.get(
        name, kw.get("default", False if kw.get("action") else None)) for name, kw in spec.items()})


def main(argv=None) -> int:
    """Run one command; an argv that _read_argv declines goes to the full parser."""
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command][2](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
