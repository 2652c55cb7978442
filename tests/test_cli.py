import argparse
import dataclasses
import json
import math
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from platekit import (
    ExperimentConfig,
    MeasurementSeries,
    orientation_objective,
    save_series,
    theoretical_curve,
)
from platekit import cli
from platekit.cli import load_scene_config, main

RCS_BASE = [
    "rcs",
    "--xy-plane",
    "--l1-wl", "5",
    "--l2-wl", "5",
    "--freq-hz", "3e9",
    "--theta-t-deg", "0",
    "--theta-r-deg", "0",
    "--pol-deg", "90",
]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out: str) -> dict:
    pairs = dict(line.split("=", 1) for line in out.strip().splitlines() if "=" in line)
    return pairs


def test_rcs_point(capsys):
    code, out, _ = run(capsys, RCS_BASE)
    assert code == 0
    vals = parse_kv(out)
    assert float(vals["sigma_m2"]) == pytest.approx(78.431, abs=5e-4)
    assert float(vals["sigma_dbsm"]) == pytest.approx(18.94, abs=5e-3)
    assert float(vals["f_js"]) == pytest.approx(1.0)
    assert float(vals["f_af"]) == pytest.approx(1.0)
    assert vals["front_side_valid"] == "true"


def test_rcs_polarization_null(capsys):
    # h aligned with the observation direction: the reflected projection
    # vanishes up to floating-point trig noise; the command still succeeds
    argv = list(RCS_BASE)
    argv[argv.index("--theta-r-deg") + 1] = "90"
    argv += ["--phi-r-deg", "0", "--pol-deg", "90", "--theta-t-deg", "0"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    vals = parse_kv(out)
    assert float(vals["sigma_m2"]) < 1e-25
    assert float(vals["sigma_dbsm"]) < -250.0  # parses "-inf" as well


def test_rcs_range_error(capsys):
    """An angle flag out of range is reported by name, in degrees as given."""
    for flag, value, bounds in [("--theta-r-deg", "95", "[0, 90]"), ("--phi-r-deg", "360", "[0, 360)"),
                                ("--theta-t-deg", "-0.5", "[0, 90]"), ("--pol-deg", "nan", "[0, 360]")]:
        code, out, err = run(capsys, RCS_BASE + [flag, value])
        assert code == 2 and out == ""
        assert err == f"error: {flag} out of range {bounds}: {float(value)}\n"


def test_rcs_conflicting_sizes(capsys):
    code, _, err = run(capsys, RCS_BASE + ["--l1-m", "0.5"])
    assert code == 2
    assert "--l1-wl" in err


def test_rcs_euler_matches_xy_plane(capsys):
    code, out, _ = run(capsys, RCS_BASE)
    base = parse_kv(out)
    argv = [a for a in RCS_BASE if a != "--xy-plane"] + ["--euler-deg", "0", "0", "0"]
    code2, out2, _ = run(capsys, argv)
    assert code == code2 == 0
    assert parse_kv(out2) == base


def test_rcs_euler_tilted_plate(capsys):
    # tilt the plate 30 degrees about the y axis and cross-check against the
    # library's vector-form evaluation
    import platekit

    argv = [a for a in RCS_BASE if a != "--xy-plane"] + ["--euler-deg", "0", "30", "0"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    vals = parse_kv(out)
    wl = platekit.Wavelength.from_frequency(3e9)
    plate = platekit.PlateGeometry.from_euler_zyz(
        5 * wl.meters, 5 * wl.meters, 0.0, math.radians(30), 0.0
    )
    _, h_dir, a_inc = platekit.polarization_triad(
        platekit.SphericalAngles.from_degrees(0, 270),
        platekit.PolarizationAngle.from_degrees(90),
    )
    expected = platekit.rcs(plate, a_inc, h_dir, np.array([0.0, 0.0, 1.0]), wl)
    assert float(vals["sigma_m2"]) == pytest.approx(expected.sigma_m2, rel=1e-8)
    assert float(vals["f_af"]) == pytest.approx(expected.f_af, rel=1e-8)


def test_sweep_csv(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    svg_path = tmp_path / "sweep.svg"
    argv = [
        "sweep",
        "--xy-plane", "--l1-wl", "5", "--l2-wl", "5", "--freq-hz", "3e9",
        "--theta-t-deg", "45", "--pol-deg", "0",
        "--theta-r-start", "0", "--theta-r-stop", "90", "--theta-r-step", "5",
        "--p-t-dbm", "0", "--amp-db", "38.861",
        "--g-t-dbi", "16", "--g-r-dbi", "16", "--d-t-m", "8", "--d-r-m", "8",
        "--out", str(out_path), "--svg", str(svg_path),
    ]
    code, _, _ = run(capsys, argv)
    assert code == 0
    assert svg_path.read_text().startswith("<svg")
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "theta_r_deg,sigma_m2,sigma_dbsm,p_r_dbm"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 19
    sigma = np.array([float(r[1]) for r in rows])
    dbsm_col = np.array([float(r[2]) for r in rows])
    # dB column consistent with the linear column at printed precision
    finite = sigma > 0
    assert np.allclose(dbsm_col[finite], 10 * np.log10(sigma[finite]), atol=1e-6)
    # parallel polarization at 45 degrees still peaks on the specular row
    peak_row = rows[int(np.argmax([float(r[3]) for r in rows]))]
    assert float(peak_row[0]) == 45.0


def test_sweep_single_point(capsys):
    argv = [
        "sweep", "--xy-plane", "--l1-wl", "5", "--l2-wl", "5", "--freq-hz", "3e9",
        "--theta-t-deg", "45", "--pol-deg", "90",
        "--theta-r-start", "45", "--theta-r-stop", "45", "--theta-r-step", "5",
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2  # header + one row


def test_sweep_bad_step(capsys):
    argv = [
        "sweep", "--xy-plane", "--l1-wl", "5", "--l2-wl", "5", "--freq-hz", "3e9",
        "--theta-t-deg", "45", "--pol-deg", "90", "--theta-r-step", "0",
    ]
    code, _, err = run(capsys, argv)
    assert code == 2 and "step" in err


def test_sweep_incomplete_link_flags(capsys):
    argv = [
        "sweep", "--xy-plane", "--l1-wl", "5", "--l2-wl", "5", "--freq-hz", "3e9",
        "--theta-t-deg", "45", "--pol-deg", "90", "--p-t-dbm", "0",
    ]
    code, _, err = run(capsys, argv)
    assert code == 2 and "missing" in err


def test_sweep_deterministic(capsys):
    argv = [
        "sweep", "--xy-plane", "--l1-wl", "5", "--l2-wl", "5", "--freq-hz", "3e9",
        "--theta-t-deg", "25", "--pol-deg", "90",
    ]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


SWEEP_BASE = [
    "sweep", "--xy-plane", "--l1-wl", "5", "--l2-wl", "5", "--freq-hz", "3e9",
    "--theta-t-deg", "45", "--pol-deg", "90",
]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--theta-r-stop", "inf"], "must be finite"),
        (["--theta-r-start", "nan"], "must be finite"),
        (["--theta-r-step", "inf"], "must be finite"),
        (["--theta-r-stop", "95"], "--theta-r-stop out of range [0, 90]: 95.0"),
        # the stop is checked as given, not the grid's last point (91)
        (["--theta-r-stop", "95", "--theta-r-step", "1"], "--theta-r-stop out of range [0, 90]: 95.0"),
        (["--theta-r-start", "-1", "--theta-r-step", "1"], "--theta-r-start out of range [0, 90]: -1.0"),
        (["--phi-r-deg", "360"], "--phi-r-deg out of range [0, 360): 360.0"),
        (["--theta-t-deg", "95"], "--theta-t-deg out of range [0, 90]: 95.0"),
        (["--phi-t-deg", "-1"], "--phi-t-deg out of range [0, 360): -1.0"),
        (["--pol-deg", "361"], "--pol-deg out of range [0, 360]: 361.0"),
        (["--theta-r-start", "95", "--theta-r-stop", "99"], "--theta-r-start out of range [0, 90]: 95.0"),
        # a stop past 90 is rejected even where the grid ends short of it (at 50)
        (["--theta-r-stop", "95", "--theta-r-step", "50"], "--theta-r-stop out of range [0, 90]: 95.0"),
    ],
)
def test_sweep_rejects_bad_range(capsys, flags, message):
    code, out, err = run(capsys, SWEEP_BASE + flags)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_sweep_grid_ends_at_stop(capsys):
    """1.7 + 0.1 * 883 rounds to 90.00000000000001; the grid stops at 90."""
    code, out, err = run(capsys, SWEEP_BASE + ["--theta-r-start", "1.7", "--theta-r-step", "0.1",
                                               "--theta-r-stop", "90"])
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1 + 884 and out.splitlines()[-1].startswith("90,")


def test_sweep_rows_lie_between_start_and_stop_property(capsys):
    """Any start <= stop in [0, 90] and any step of at most 10^4 rows: exit 0,
    and every theta_r_deg lies in [start, stop] (after the CSV's 9-digit
    rounding, which is monotone).  A step of (stop - start) / k lands its last
    point on stop to rounding, where overshooting it by an ulp is likeliest."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(ends=st.tuples(st.floats(0.0, 90.0), st.floats(0.0, 90.0)).map(sorted),
                      step=st.floats(0.01, 180.0) | st.integers(1, 9999))
    @hypothesis.example(ends=[1.7, 90.0], step=0.1)
    @hypothesis.example(ends=[0.1, 45.0], step=10)  # 0.1 + 4.49 * 10 rounds up to 45.00000000000001
    def check(ends, step):
        start, stop = ends
        if isinstance(step, int):
            step = (stop - start) / step if stop > start else 1.0
        hypothesis.assume((stop - start) / step < 1e4)
        grid = cli._sweep_grid(start, stop, step)
        assert grid[0] == start and start <= grid.min() and grid.max() <= stop
        code, out, err = run(capsys, SWEEP_BASE + ["--theta-r-start", repr(start), "--theta-r-stop", repr(stop),
                                                   "--theta-r-step", repr(step)])
        assert (code, err) == (0, "")
        theta = [float(line.split(",", 1)[0]) for line in out.splitlines()[1:]]
        assert len(theta) == grid.size
        assert float(f"{start:.9g}") <= min(theta) and max(theta) <= float(f"{stop:.9g}")

    check()


GOLDEN_DIR = Path(__file__).parent / "data" / "sweep_golden"
GOLDEN_XY = [
    "--xy-plane", "--freq-hz", "3e9", "--l1-wl", "5", "--l2-wl", "3.5",
    "--theta-t-deg", "30", "--pol-deg", "90",
    "--theta-r-start", "0", "--theta-r-stop", "90", "--theta-r-step", "0.0625",
]
GOLDEN_EULER = [
    "--euler-deg", "20", "35", "-10", "--freq-hz", "2.4e9", "--l1-wl", "4.5", "--l2-wl", "7",
    "--theta-t-deg", "50", "--phi-t-deg", "250", "--pol-deg", "30", "--phi-r-deg", "75",
    "--theta-r-start", "10.5", "--theta-r-stop", "80.5", "--theta-r-step", "0.07",
]
GOLDEN_SWEEPS = {
    "xy": GOLDEN_XY,
    "xy_link": GOLDEN_XY + [
        "--p-t-dbm", "0", "--amp-db", "38.861", "--g-t-dbi", "16", "--g-r-dbi", "16",
        "--d-t-m", "8", "--d-r-m", "8",
    ],
    "euler": GOLDEN_EULER,
    "euler_link": GOLDEN_EULER + [
        "--p-t-dbm", "5", "--g-t-dbi", "12.5", "--g-r-dbi", "9", "--d-t-m", "3.5", "--d-r-m", "11",
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SWEEPS))
def test_sweep_matches_golden(capsys, tmp_path, name):
    """Sweep CSVs are byte-identical to those written by the per-row scalar loop."""
    out_path = tmp_path / f"{name}.csv"
    code, _, _ = run(capsys, ["sweep", *GOLDEN_SWEEPS[name], "--out", str(out_path)])
    assert code == 0
    assert out_path.read_bytes() == (GOLDEN_DIR / f"{name}.csv").read_bytes()


def test_sweep_rejects_oversized_grid(capsys):
    # 90 / 9e-5 degrees is one row past the cap; 1e-12 would need a 655 TiB grid;
    # at 5e-324 the row count overflows float64
    for step in (repr(90.0 / 1e6), "1e-12", "5e-324"):
        code, out, err = run(capsys, SWEEP_BASE + ["--theta-r-step", step])
        assert code == 2 and out == ""
        assert err.startswith("error: sweep grid has") and "more than 1000000" in err


LINK_FLAGS = {
    "--p-t-dbm": "0", "--amp-db": "38.861", "--g-t-dbi": "16", "--g-r-dbi": "16",
    "--d-t-m": "8", "--d-r-m": "8",
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", sorted(LINK_FLAGS))
def test_sweep_rejects_non_finite_link_flags(capsys, flag, value):
    link_args = [f"{k}={v}" for k, v in {**LINK_FLAGS, flag: value}.items()]
    code, out, err = run(capsys, SWEEP_BASE + link_args)
    assert code == 2 and out == ""
    assert err.startswith("error: link ") and "finite" in err


@pytest.mark.parametrize("command", ["rcs", "sweep"])
@pytest.mark.parametrize(
    "flags, message",
    [
        ({"--l1-wl": "inf"}, "--l1-wl must be positive and finite, got inf"),
        ({"--l2-wl": "nan"}, "--l2-wl must be positive and finite, got nan"),
        ({"--l2-wl": "0"}, "--l2-wl must be positive and finite, got 0.0"),
        ({"--l1-wl": "-2"}, "--l1-wl must be positive and finite, got -2.0"),
        ({"--l1-wl": None, "--l1-m": "1e999"}, "--l1-m must be positive and finite, got inf"),
        ({"--xy-plane": None, "--euler-deg": "0 nan 0"}, "--euler-deg angles must be finite"),
        ({"--freq-hz": "1e-320"}, "frequency must be positive and finite"),
    ],
)
def test_plate_flags_reject_non_finite(capsys, command, flags, message):
    base = {"--xy-plane": "", "--l1-wl": "5", "--l2-wl": "5", "--freq-hz": "3e9",
            "--theta-t-deg": "45", "--pol-deg": "90"}
    if command == "rcs":
        base["--theta-r-deg"] = "45"
    argv = [command]
    for flag, value in {**base, **flags}.items():
        if value is not None:
            argv += [flag, *value.split()]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("freq_hz", ["1e200", "1e165", "1e-200"])
@pytest.mark.parametrize("command", ["rcs", "sweep", "validate", "coverage", "optimize"])
def test_frequency_whose_wavelength_square_leaves_float64_is_rejected(capsys, tmp_path, command, freq_hz):
    """At 1e200 Hz lambda^2 underflows to 0 (sigma_max would be 0/0), at 1e165 Hz
    to a subnormal (1/lambda^2 overflows), at 1e-200 Hz it overflows.  A scene's
    error names its key, as every other scene number's does."""
    cfg = json.loads(json.dumps(SCENE_CONFIG))
    cfg["frequency_hz"] = float(freq_hz)
    scene, out_csv = str(write_config(tmp_path, cfg)), tmp_path / "c.csv"
    argv = {
        "rcs": RCS_BASE,
        "sweep": SWEEP_BASE,
        "validate": ["validate", "--trials", "1", "--freq-hz", "3e9"],
        "coverage": ["coverage", scene, "--out-csv", str(out_csv)],
        "optimize": ["optimize", scene],
    }[command]
    if "--freq-hz" in argv:
        argv = [*argv]
        argv[argv.index("--freq-hz") + 1] = freq_hz
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    key = f"{scene}.frequency_hz: " if command in ("coverage", "optimize") else ""
    assert err == (f"error: {key}frequency must be positive and finite, with a wavelength whose square neither "
                   f"underflows nor overflows float64: {float(freq_hz)} Hz\n")
    assert not out_csv.exists()


def run_with_plate_edges(capsys, tmp_path, command, scene_edge_m, edge_wl):
    """``command`` with plate edges of ``scene_edge_m`` in a scene, or a first
    edge of ``edge_wl`` wavelengths on the command line; every output asked
    for, warnings as errors."""
    cfg = json.loads((COVERAGE_GOLDEN_DIR / "open_scene.json").read_text())
    cfg["plate"]["length1_m"] = cfg["plate"]["length2_m"] = scene_edge_m
    scene = str(write_config(tmp_path, cfg))
    csv, svg, out_json = (str(tmp_path / name) for name in ("out.csv", "out.svg", "out.json"))
    argv = {
        "rcs": [*RCS_BASE],
        "sweep": [*SWEEP_BASE, "--out", csv, "--svg", svg],
        "coverage": ["coverage", scene, "--out-csv", csv, "--out-svg", svg],
        "optimize": ["optimize", scene, "--out-json", out_json],
    }[command]
    if "--l1-wl" in argv:
        argv[argv.index("--l1-wl") + 1] = edge_wl
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(capsys, argv)


@pytest.mark.parametrize("command", ["rcs", "sweep", "coverage", "optimize"])
def test_plate_whose_sigma_max_overflows_is_rejected(capsys, tmp_path, command):
    """Edges of 1e300 wavelengths, or of 1e150 m in a scene: 4*pi*L1^2*L2^2/lambda^2
    overflows float64.  These runs printed nan, or wrote an all-nan column, with exit 0."""
    code, out, err = run_with_plate_edges(capsys, tmp_path, command, 1e150, "1e300")
    assert (code, out) == (2, "")
    assert err.startswith("error: plate too large for the wavelength: sigma_max = 4*pi*L1^2*L2^2/lambda^2 overflows")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scene.json"]


@pytest.mark.parametrize("command", ["rcs", "sweep", "coverage", "optimize"])
def test_plate_whose_sigma_max_underflows_is_rejected(capsys, tmp_path, command):
    """An edge of 1e-300 wavelengths, or edges of 1e-150 m in a scene: 4*pi*L1^2*L2^2/lambda^2
    underflows to 0.  These runs printed sigma_max_m2=0 and 0,-inf rows, or
    wrote an all -inf column, with exit 0."""
    code, out, err = run_with_plate_edges(capsys, tmp_path, command, 1e-150, "1e-300")
    assert (code, out) == (2, "")
    assert err.startswith("error: plate too small for the wavelength: sigma_max = 4*pi*L1^2*L2^2/lambda^2 underflows")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scene.json"]


@pytest.mark.parametrize("command", ["rcs", "sweep", "coverage", "optimize"])
def test_plate_over_the_electrical_size_bound_is_rejected(capsys, tmp_path, command):
    """A first edge of 1e10 wavelengths, or edges of 1e9 m (8e9 wavelengths) in
    a scene: past 1e9 wavelengths the array-factor phase k*L/2 * (d . edge)
    rounds by more than about 1e-6 rad.  These runs printed or wrote their
    output with exit 0."""
    code, out, err = run_with_plate_edges(capsys, tmp_path, command, 1e9, "1e10")
    assert (code, out) == (2, "")
    assert err.startswith("error: plate electrically too large: an edge of ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scene.json"]


def test_sweep_of_a_metre_plate_at_1e150_hz_is_rejected(capsys):
    """The specular phase is 0 in exact arithmetic but rounded to about
    1e126 rad, so the specular row read 2.03e32 m^2 against a sigma_max of
    about 1.4e284 m^2, with exit 0."""
    code, out, err = run(capsys, ["sweep", "--freq-hz", "1e150", "--l1-m", "1", "--l2-m", "1",
                                  "--theta-t-deg", "30", "--pol-deg", "90"])
    assert (code, out) == (2, "")
    assert err.startswith("error: plate electrically too large: an edge of 1.0 m is over 1e+09 wavelengths")


def test_build_parser_asks_the_terminal_width_once(monkeypatch):
    """argparse's default made a HelpFormatter, and asked for the terminal
    width, per added argument."""
    calls = []
    query = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *args: calls.append(args) or query(*args))
    for command in (*cli._COMMANDS, None):
        calls.clear()
        cli.build_parser(command).format_help()
        assert len(calls) == 1, command


def test_validate_pass_and_fail(capsys):
    code, out, _ = run(capsys, ["validate", "--trials", "20", "--seed", "1"])
    assert code == 0
    assert "result=PASS" in out
    code, out, _ = run(capsys, ["validate", "--trials", "5", "--seed", "1", "--tol", "0"])
    assert code == 3
    assert "result=FAIL" in out



@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_validate_rejects_bad_tolerance(capsys, tol):
    code, out, err = run(capsys, ["validate", "--trials", "1", "--tol", tol])
    assert code == 2 and out == ""
    assert err == f"error: tolerance must be non-negative and finite, got {float(tol)}\n"


@pytest.mark.parametrize("nodes", ["513", "2049", "10000000"])
def test_validate_rejects_oversized_rule(capsys, nodes):
    code, out, err = run(capsys, ["validate", "--trials", "1", "--nodes-per-edge", nodes])
    assert code == 2 and out == ""
    assert err == f"error: nodes_per_edge must be between 2 and 512, got {nodes}\n"


@pytest.mark.parametrize("flag, value", [("--nodes-per-edge", "30.0"), ("--trials", "2.5")])
def test_validate_rejects_non_integer_counts(capsys, flag, value):
    code, out, _ = run(capsys, ["validate", "--trials", "1", flag, value])
    assert code == 2 and out == ""


def test_validate_deterministic(capsys):
    _, out1, _ = run(capsys, ["validate", "--trials", "10", "--seed", "7"])
    _, out2, _ = run(capsys, ["validate", "--trials", "10", "--seed", "7"])
    assert out1 == out2


VALIDATE_GOLDEN_DIR = Path(__file__).parent / "data" / "validate_golden"
VALIDATE_GOLDEN = {
    "trials40_seed7": ["--trials", "40", "--seed", "7"],
    "trials40_seed7_n80": ["--trials", "40", "--seed", "7", "--nodes-per-edge", "80"],
    "trials40_seed7_1ghz": ["--trials", "40", "--seed", "7", "--freq-hz", "1e9"],
}


@pytest.mark.parametrize("name", sorted(VALIDATE_GOLDEN))
def test_validate_matches_golden(capsys, name):
    """validate stdout is byte-identical to the recorded files.  Their error
    digits move with any change of rounding in either route and with the
    quadrature rule: they were recorded with the one-step Halley
    Gauss-Legendre rules of po_oracle._gauss_legendre_table, edge sums taken in node order over
    sorted rows padded to their chunk's largest rule, and wave frames built
    from the direction's components (one-row rcs() and po_rcs() queries give
    the same rows; test_validate::test_stacked_rows_equal_scalar_queries)."""
    code, out, _ = run(capsys, ["validate", *VALIDATE_GOLDEN[name]])
    assert code == 0
    assert out == (VALIDATE_GOLDEN_DIR / f"{name}.out").read_text()


SCENE_CONFIG = {
    "frequency_hz": 3e9,
    "tx_position_m": [0.0, -8.0, 0.0],
    "plate_position_m": [0.0, 0.0, 0.0],
    "plate": {"length1_m": 0.4997, "length2_m": 0.4997, "normal": [0.0, -1.0, 0.0], "edge1": [1.0, 0.0, 0.0]},
    "polarization_deg": 90.0,
    "tx_power_dbm": 0.0,
    "amp_gain_db": 38.861,
    "tx_gain_dbi": 16.0,
    "rx_gain_dbi": 16.0,
    "region": {
        "corner_m": [-2.0, -6.0, -2.0],
        "edge_u_m": [4.0, 0.0, 0.0],
        "edge_v_m": [0.0, 0.0, 4.0],
        "nu": 5,
        "nv": 5,
    },
}


def write_config(tmp_path, cfg, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_coverage_symmetric_scene(capsys, tmp_path):
    cfg = write_config(tmp_path, SCENE_CONFIG)
    out_csv = tmp_path / "cov.csv"
    out_svg = tmp_path / "cov.svg"
    code, out, _ = run(
        capsys, ["coverage", str(cfg), "--out-csv", str(out_csv), "--out-svg", str(out_svg)]
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "index_u,index_v,x_m,y_m,z_m,p_r_dbm"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 25
    power = {(int(r[0]), int(r[1])): r[5] for r in rows}
    # scene is mirror-symmetric in x and in z about the center column
    for iu in range(5):
        for iv in range(5):
            a, b = power[(iu, iv)], power[(4 - iu, iv)]
            assert a == b or abs(float(a) - float(b)) < 1e-9
    assert out_svg.read_text().startswith("<svg")


def test_coverage_single_specular_cell_matches_point_tools(capsys, tmp_path):
    cfg = dict(SCENE_CONFIG)
    cfg["region"] = {
        "corner_m": [0.0, -8.0, 0.0],
        "edge_u_m": [0.0, 0.0, 0.0],
        "edge_v_m": [0.0, 0.0, 0.0],
        "nu": 1,
        "nv": 1,
    }
    path = write_config(tmp_path, cfg)
    out_csv = tmp_path / "single.csv"
    code, _, _ = run(capsys, ["coverage", str(path), "--out-csv", str(out_csv)])
    assert code == 0
    row = out_csv.read_text().strip().splitlines()[1].split(",")
    got_dbm = float(row[5])
    # cross-check: retroreflection at normal incidence; the plate normal is -y
    # so the scene equals the canonical x-y geometry rotated; evaluate via the
    # point tools
    code, out, _ = run(capsys, [
        "rcs", "--xy-plane", "--l1-m", "0.4997", "--l2-m", "0.4997", "--freq-hz", "3e9",
        "--theta-t-deg", "0", "--theta-r-deg", "0", "--pol-deg", "90",
    ])
    sigma = float(parse_kv(out)["sigma_m2"])
    lam = 299792458.0 / 3e9
    expected = (
        38.861 + 32.0
        + 10 * math.log10(sigma * lam**2 / (4 * math.pi * (4 * math.pi * 64.0) ** 2))
    )
    # CSV carries 9 significant digits; sigma re-parsed from text
    assert got_dbm == pytest.approx(expected, abs=1e-7)


def test_coverage_all_backside(capsys, tmp_path):
    cfg = dict(SCENE_CONFIG)
    cfg["region"] = {
        "corner_m": [-2.0, 6.0, -2.0],
        "edge_u_m": [4.0, 0.0, 0.0],
        "edge_v_m": [0.0, 0.0, 4.0],
        "nu": 3,
        "nv": 3,
    }
    path = write_config(tmp_path, cfg)
    out_csv = tmp_path / "shadow.csv"
    code, _, _ = run(capsys, ["coverage", str(path), "--out-csv", str(out_csv)])
    assert code == 0
    rows = out_csv.read_text().strip().splitlines()[1:]
    assert all(r.endswith("shadow") for r in rows)


COVERAGE_GOLDEN_DIR = Path(__file__).parent / "data" / "coverage_golden"


@pytest.mark.parametrize("chunk_rows", [None, 7])
def test_coverage_matches_golden(capsys, tmp_path, monkeypatch, chunk_rows):
    """Coverage CSV and SVG are byte-identical to those of the per-cell writers.

    The shadow scene has shadow cells and colour-scale clipping; a 7-row
    chunk puts chunk boundaries inside runs of shadow and lit rows.
    """
    if chunk_rows is not None:
        monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
    out_csv, out_svg = tmp_path / "shadow.csv", tmp_path / "shadow.svg"
    code, out, _ = run(capsys, [
        "coverage", str(COVERAGE_GOLDEN_DIR / "shadow_scene.json"), "--out-csv", str(out_csv),
        "--out-svg", str(out_svg), "--db-min", "-60", "--db-max", "-25",
    ])
    assert (code, out) == (0, "cells=357 shadow_cells=105\n")
    assert out_csv.read_bytes() == (COVERAGE_GOLDEN_DIR / "shadow.csv").read_bytes()
    assert out_svg.read_bytes() == (COVERAGE_GOLDEN_DIR / "shadow.svg").read_bytes()

    out_csv = tmp_path / "open.csv"
    code, out, _ = run(capsys, [
        "coverage", str(COVERAGE_GOLDEN_DIR / "open_scene.json"), "--out-csv", str(out_csv),
    ])
    assert (code, out) == (0, "cells=437 shadow_cells=0\n")
    assert out_csv.read_bytes() == (COVERAGE_GOLDEN_DIR / "open.csv").read_bytes()


def test_coverage_with_the_transmitter_next_to_the_plate_normal(capsys, tmp_path):
    """The wave arrives 1e-6 rad off the z axis.  With wave frames taken from
    acos(d_z) this exited 2 with 'wave triad must satisfy direction = e_dir x h_dir'."""
    cfg = json.loads((COVERAGE_GOLDEN_DIR / "open_scene.json").read_text())
    cfg["plate_position_m"] = [0.0, 0.0, 0.0]
    cfg["plate"]["euler_zyz_deg"] = [0.0, 0.0, 0.0]
    cfg["tx_position_m"] = [0.0, 1e-5, 10.0]
    cfg["polarization_deg"] = 45.0
    out_csv = tmp_path / "out.csv"
    code, out, err = run(capsys, ["coverage", str(write_config(tmp_path, cfg)), "--out-csv", str(out_csv)])
    assert (code, err) == (0, "")
    assert out.startswith("cells=437 ")
    assert "nan" not in out_csv.read_text()


@pytest.mark.parametrize("flag", ["--db-min", "--db-max"])
def test_coverage_rejects_non_finite_color_bounds(capsys, tmp_path, flag):
    out_csv = tmp_path / "cov.csv"
    code, out, err = run(capsys, [
        "coverage", str(write_config(tmp_path, SCENE_CONFIG)), "--out-csv", str(out_csv),
        "--out-svg", str(tmp_path / "cov.svg"), flag, "nan",
    ])
    assert code == 2 and out == "" and not out_csv.exists()
    assert err.startswith(f"error: {flag} must be finite")


def test_coverage_rejects_inverted_color_bounds(capsys, tmp_path):
    out_csv, out_svg = tmp_path / "cov.csv", tmp_path / "cov.svg"
    for low, high in (("0", "-10"), ("-5", "-5"), ("-1e308", "1e308")):
        code, out, err = run(capsys, [
            "coverage", str(write_config(tmp_path, SCENE_CONFIG)), "--out-csv", str(out_csv),
            "--out-svg", str(out_svg), "--db-min", low, "--db-max", high,
        ])
        assert code == 2 and out == "" and not out_csv.exists() and not out_svg.exists()
        assert err.startswith("error: --db-min must be below --db-max")


def test_config_alternative_plate_orientations(capsys, tmp_path):
    # euler-specified plate: 90 degrees about y then -90 about z brings the
    # normal onto -y, matching the explicit normal+edge1 form of the scene
    cfg = json.loads(json.dumps(SCENE_CONFIG))
    cfg["plate"] = {"length1_m": 0.4997, "length2_m": 0.4997, "euler_zyz_deg": [-90.0, 90.0, 0.0]}
    path = write_config(tmp_path, cfg, "euler.json")
    out_a = tmp_path / "euler.csv"
    assert run(capsys, ["coverage", str(path), "--out-csv", str(out_a)])[0] == 0
    base = write_config(tmp_path, SCENE_CONFIG, "base.json")
    out_b = tmp_path / "base.csv"
    assert run(capsys, ["coverage", str(base), "--out-csv", str(out_b)])[0] == 0
    for ra, rb in zip(out_a.read_text().splitlines()[1:], out_b.read_text().splitlines()[1:]):
        pa, pb = ra.rsplit(",", 1)[1], rb.rsplit(",", 1)[1]
        assert pa == pb or abs(float(pa) - float(pb)) < 1e-6

    cfg["plate"] = {"length1_m": 0.4997, "length2_m": 0.4997, "xy_plane": True}
    cfg["tx_position_m"] = [0.0, -6.0, 6.0]  # above the horizontal plate
    cfg["region"] = {
        "corner_m": [-1.0, 5.0, 5.0], "edge_u_m": [2.0, 0.0, 0.0],
        "edge_v_m": [0.0, 0.0, 1.0], "nu": 2, "nv": 2,
    }
    path = write_config(tmp_path, cfg, "xy.json")
    assert run(capsys, ["coverage", str(path), "--out-csv", str(tmp_path / "xy.csv")])[0] == 0


def test_config_unknown_key_rejected(capsys, tmp_path):
    cfg = dict(SCENE_CONFIG)
    cfg["transmit_power"] = 3.0
    path = write_config(tmp_path, cfg)
    code, _, err = run(capsys, ["coverage", str(path), "--out-csv", str(tmp_path / "x.csv")])
    assert code == 2
    assert "transmit_power" in err


def test_config_missing_file_is_io_error(capsys, tmp_path):
    code, _, err = run(
        capsys, ["coverage", str(tmp_path / "nope.json"), "--out-csv", str(tmp_path / "x.csv")]
    )
    assert code == 4


def test_config_rejects_non_finite_numbers(capsys, tmp_path):
    cfg = json.loads(json.dumps(SCENE_CONFIG))
    cfg["tx_position_m"] = [float("nan"), -8.0, 0.0]
    path = write_config(tmp_path, cfg)
    code, out, err = run(capsys, ["coverage", str(path), "--out-csv", str(tmp_path / "c.csv")])
    assert code == 2 and out == "" and "non-finite number NaN" in err
    assert not (tmp_path / "c.csv").exists()
    cfg = json.loads(json.dumps(SCENE_CONFIG))
    cfg["region"]["corner_m"][0] = float("inf")
    code, _, err = run(capsys, ["optimize", str(write_config(tmp_path, cfg))])
    assert code == 2 and "non-finite number Infinity" in err
    path.write_text(json.dumps(SCENE_CONFIG).replace("38.861", "1e999"))
    code, _, err = run(capsys, ["coverage", str(path), "--out-csv", str(tmp_path / "c.csv")])
    assert code == 2 and "non-finite number 1e999" in err


@pytest.mark.parametrize("command", ["coverage", "optimize"])
@pytest.mark.parametrize("degrees", [400, -1, 360.5])
def test_config_names_an_out_of_range_polarization_in_degrees(capsys, tmp_path, command, degrees):
    """The error named the radians the library checks (6.98... for 400)."""
    cfg = json.loads((COVERAGE_GOLDEN_DIR / "open_scene.json").read_text())
    cfg["polarization_deg"] = degrees
    path = write_config(tmp_path, cfg)
    outputs = {"coverage": ["--out-csv", str(tmp_path / "c.csv")], "optimize": ["--out-json", str(tmp_path / "o.json")]}
    code, out, err = run(capsys, [command, str(path), *outputs[command]])
    assert (code, out) == (2, "")
    assert err == f"error: {path}.polarization_deg out of range [0, 360]: {float(degrees)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scene.json"]


# Every number a scene holds, by its path in the JSON; one entry of each vector.
SCENE_NUMBER_KEYS = [
    ("frequency_hz",), ("polarization_deg",), ("tx_power_dbm",), ("amp_gain_db",),
    ("tx_gain_dbi",), ("rx_gain_dbi",), ("tx_position_m", 0), ("plate_position_m", 1),
    ("plate", "length1_m"), ("plate", "length2_m"), ("plate", "normal", 2), ("plate", "edge1", 0),
    ("plate", "euler_zyz_deg", 1), ("region", "corner_m", 0), ("region", "edge_u_m", 1),
    ("region", "edge_v_m", 2), ("region", "nu"), ("region", "nv"),
]


@pytest.mark.parametrize("value", [None, True, False, "1", [1.0], {"value": 1.0}, 10**400],
                         ids=["null", "true", "false", "string", "list", "object", "int-1e400"])
@pytest.mark.parametrize("key", SCENE_NUMBER_KEYS, ids=lambda key: ".".join(map(str, key)))
def test_config_rejects_a_non_number_on_each_numeric_key(capsys, tmp_path, key, value):
    """null, a list or an object ended in a TypeError traceback (exit 1), and
    true was read as 1.0."""
    cfg = json.loads(json.dumps(SCENE_CONFIG))
    if "euler_zyz_deg" in key:
        cfg["plate"] = {"length1_m": 0.4997, "length2_m": 0.4997, "euler_zyz_deg": [-90.0, 90.0, 0.0]}
    *parents, last = key
    node = cfg
    for name in parents:
        node = node[name]
    node[last] = value
    path = write_config(tmp_path, cfg)
    out_csv, out_svg = tmp_path / "c.csv", tmp_path / "c.svg"
    code, out, err = run(capsys, ["coverage", str(path), "--out-csv", str(out_csv), "--out-svg", str(out_svg)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scene.json"]


@pytest.mark.parametrize("count", [2.7, 3.0, True, "3"])
def test_config_rejects_non_integer_counts(capsys, tmp_path, count):
    cfg = json.loads(json.dumps(SCENE_CONFIG))
    cfg["region"]["nu"] = count
    path = write_config(tmp_path, cfg)
    code, out, err = run(capsys, ["coverage", str(path), "--out-csv", str(tmp_path / "c.csv")])
    assert code == 2 and out == ""
    assert f"nu must be an integer, got {count!r}" in err


@pytest.mark.parametrize("command", ["coverage", "optimize"])
def test_region_rejects_oversized_grid(capsys, tmp_path, command):
    cfg = json.loads(json.dumps(SCENE_CONFIG))
    cfg["region"]["nu"] = cfg["region"]["nv"] = 10**6
    out_csv = tmp_path / "c.csv"
    code, out, err = run(capsys, [command, str(write_config(tmp_path, cfg)), "--out-csv", str(out_csv)]
                         if command == "coverage" else [command, str(write_config(tmp_path, cfg))])
    assert (code, out) == (2, "")
    assert err == "error: region grid has 1000000000000 cells, more than 1000000; lower nu or nv\n"
    assert not out_csv.exists()


# Scenes drawn by the benchmark's optimize workload (seed 1, jobs 26 and 37)
# on which the search used to end below the starting orientation.
OPTIMIZE_REGRESSION_SCENES = [
    {
        "frequency_hz": 3593525584.0, "tx_position_m": [1.663, -6.603, 3.979],
        "plate_position_m": [0.0, 0.0, 3.554],
        "plate": {
            "length1_m": 0.2118, "length2_m": 0.7653,
            "normal": [-0.3262634559783436, -0.9392070481228628, -0.10696858440404793],
            "edge1": [-0.9446269387455389, 0.3281462274600027, 0.0],
        },
        "polarization_deg": 149.77, "tx_power_dbm": 4.273, "amp_gain_db": 37.415,
        "tx_gain_dbi": 15.584, "rx_gain_dbi": 6.986,
        "region": {
            "corner_m": [-8.127, -8.943, 1.154], "edge_u_m": [3.168, 4.312, 0.0],
            "edge_v_m": [-2.637, 1.938, 0.0], "nu": 14, "nv": 14,
        },
        "objective": "max-min-dbm",
    },
    {
        "frequency_hz": 5385680468.0, "tx_position_m": [3.101, 11.381, 0.465],
        "plate_position_m": [0.0, 0.0, 3.02],
        "plate": {
            "length1_m": 0.2977, "length2_m": 0.379,
            "normal": [-0.37857394394795163, 0.8900816973928957, -0.2538431423731494],
            "edge1": [0.9202232439181707, 0.3913938953953154, -0.0],
        },
        "polarization_deg": 85.899, "tx_power_dbm": -7.012, "amp_gain_db": 33.399,
        "tx_gain_dbi": 14.518, "rx_gain_dbi": 11.966,
        "region": {
            "corner_m": [-4.196, 3.344, 1.118], "edge_u_m": [-3.827, 5.823, 0.0],
            "edge_v_m": [-4.781, -3.142, 0.0], "nu": 14, "nv": 14,
        },
        "objective": "max-min-dbm",
    },
]


@pytest.mark.parametrize("index", range(len(OPTIMIZE_REGRESSION_SCENES)))
def test_optimize_never_reports_below_initial(capsys, tmp_path, index):
    path = write_config(tmp_path, OPTIMIZE_REGRESSION_SCENES[index])
    out_json = tmp_path / "best.json"
    code, _, _ = run(capsys, ["optimize", str(path), "--out-json", str(out_json)])
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert payload["best_objective_dbm"] >= payload["initial_objective_dbm"]
    scene, region, objective = load_scene_config(str(path))
    frame = [np.array(payload[k]) for k in ("normal", "edge1", "edge2")]
    value = orientation_objective(scene.with_orientation(*frame), region, objective)
    assert value == pytest.approx(payload["best_objective_dbm"], abs=1e-9)


def test_optimize_single_target(capsys, tmp_path):
    cfg = dict(SCENE_CONFIG)
    cfg["region"] = {
        "corner_m": [5.0, -5.0, 0.0],
        "edge_u_m": [0.0, 0.0, 0.0],
        "edge_v_m": [0.0, 0.0, 0.0],
        "nu": 1,
        "nv": 1,
    }
    cfg["objective"] = "max-min-dbm"
    path = write_config(tmp_path, cfg)
    out_json = tmp_path / "best.json"
    code, out, _ = run(capsys, ["optimize", str(path), "--out-json", str(out_json)])
    assert code == 0
    vals = parse_kv(out)
    assert float(vals["best_objective_dbm"]) >= float(vals["initial_objective_dbm"]) - 1e-9
    payload = json.loads(out_json.read_text())
    # closed-form specular orientation for tx (0,-8,0) -> target (5,-5,0)
    a_inc = np.array([0.0, 1.0, 0.0])
    a_obs = np.array([5.0, -5.0, 0.0]) / np.linalg.norm([5.0, -5.0, 0.0])
    n_exact = (a_obs - a_inc) / np.linalg.norm(a_obs - a_inc)
    n_got = np.array(payload["normal"], dtype=float)
    assert math.degrees(math.acos(min(1.0, float(np.dot(n_got, n_exact))))) <= 0.3

    code2, out2, _ = run(capsys, ["optimize", str(path)])
    assert out2 == out  # deterministic rerun
    assert code2 == 0



@pytest.mark.parametrize("objective", ["max-min-dbm", "max-mean-mw"])
def test_optimize_rejects_region_behind_the_plate(capsys, tmp_path, objective):
    # Every orientation that faces the transmitter at (0, -9, 0) turns its
    # back to the receiver at (0, 5, 0): no candidate lights it.
    cfg = json.loads(json.dumps(SCENE_CONFIG))
    cfg["objective"] = objective
    cfg["tx_position_m"] = [0.0, -9.0, 0.0]
    cfg["region"] = {"corner_m": [0.0, 5.0, 0.0], "edge_u_m": [0.0, 0.0, 0.0],
                     "edge_v_m": [0.0, 0.0, 0.0], "nu": 1, "nv": 1}
    out_json = tmp_path / "best.json"
    code, out, err = run(capsys, ["optimize", str(write_config(tmp_path, cfg)), "--out-json", str(out_json)])
    assert (code, out) == (2, "")
    assert err == "error: no candidate orientation lights any receiver in the region\n"
    assert not out_json.exists()


def test_optimize_leaves_out_a_receiver_at_the_plate(capsys, tmp_path):
    """A region whose corner is the plate position: coverage shadows that
    cell, and the search leaves it out of the objective instead of exiting 2."""
    cfg = json.loads(json.dumps(SCENE_CONFIG))
    cfg["region"] = {"corner_m": cfg["plate_position_m"], "edge_u_m": [4.0, -6.0, 0.0],
                     "edge_v_m": [0.0, -6.0, 4.0], "nu": 3, "nv": 3}
    path, out_csv, out_json = write_config(tmp_path, cfg), tmp_path / "c.csv", tmp_path / "best.json"
    code, out, _ = run(capsys, ["coverage", str(path), "--out-csv", str(out_csv)])
    rows = out_csv.read_text().splitlines()[1:]
    assert code == 0 and rows[0].endswith(",shadow") and not any(r.endswith("shadow") for r in rows[1:])
    code, out, err = run(capsys, ["optimize", str(path), "--out-json", str(out_json)])
    assert (code, err) == (0, "")
    payload = json.loads(out_json.read_text())
    scene, region, objective = load_scene_config(str(path))
    assert payload["initial_objective_dbm"] == orientation_objective(scene, region, objective) > -math.inf
    assert payload["best_objective_dbm"] >= payload["initial_objective_dbm"]


def _reject_constant(name):
    raise AssertionError(f"bare {name} in JSON output")


def test_json_outputs_are_strict(capsys, tmp_path):
    """Non-finite values reach --out-json as strings, never as bare NaN/Infinity."""
    # The receiver lies behind the scene's own plate, so the initial
    # objective is -inf, while a turned plate lights it.
    cfg = json.loads(json.dumps(SCENE_CONFIG))
    cfg["region"] = {"corner_m": [5.0, 0.5, 0.0], "edge_u_m": [0.0, 0.0, 0.0],
                     "edge_v_m": [0.0, 0.0, 0.0], "nu": 1, "nv": 1}
    best = tmp_path / "best.json"
    assert run(capsys, ["optimize", str(write_config(tmp_path, cfg)), "--out-json", str(best)])[0] == 0
    payload = json.loads(best.read_text(), parse_constant=_reject_constant)
    assert payload["initial_objective_dbm"] == "-inf"
    assert math.isfinite(payload["best_objective_dbm"])

    # A window too narrow for the main lobe: no beamwidth and no sidelobe.
    grid = np.arange(30.0, 50.0, 2.0)
    curve = theoretical_curve(ExperimentConfig(theta_t_deg=45.0), "perpendicular", grid)
    meas, report = tmp_path / "meas.csv", tmp_path / "report.json"
    save_series(MeasurementSeries(*curve), meas)
    argv = ["compare", str(meas), "--pol-case", "perpendicular", "--out-json", str(report)]
    assert run(capsys, argv)[0] == 0
    payload = json.loads(report.read_text(), parse_constant=_reject_constant)
    assert payload["hpbw_error_deg"] is None and payload["mainlobe_sidelobe_gap_db"] is None
    assert payload["n_points"] == 10


OPTIMIZE_GOLDEN_DIR = Path(__file__).parent / "data" / "optimize_golden"
OPTIMIZE_GOLDEN = sorted(p.name[: -len("_scene.json")] for p in OPTIMIZE_GOLDEN_DIR.glob("*_scene.json"))


@pytest.mark.parametrize("name", OPTIMIZE_GOLDEN)
def test_optimize_matches_golden(capsys, tmp_path, name):
    """optimize output matches that of the earlier search, which carried its
    own inline copy of the closed form (scenes of the benchmark's optimize
    workload, seed 1, both objectives).

    stdout is byte-identical.  In the JSON the angles, frame vectors and
    evaluation count are identical; the objective values may differ in the
    last digits and agree within 1e-9 dB.
    """
    out_json = tmp_path / "best.json"
    scene = OPTIMIZE_GOLDEN_DIR / f"{name}_scene.json"
    code, out, _ = run(capsys, ["optimize", str(scene), "--out-json", str(out_json)])
    assert code == 0
    assert out == (OPTIMIZE_GOLDEN_DIR / f"{name}.out").read_text()
    got = json.loads(out_json.read_text())
    want = json.loads((OPTIMIZE_GOLDEN_DIR / f"{name}.json").read_text())
    for key in ("best_objective_dbm", "initial_objective_dbm"):
        assert abs(got.pop(key) - want.pop(key)) <= 1e-9
    assert got == want


def test_compare_roundtrip(capsys, tmp_path):
    grid = np.arange(0.0, 91.0, 5.0)
    curve = theoretical_curve(ExperimentConfig(theta_t_deg=45.0), "perpendicular", grid)
    series = MeasurementSeries(
        curve[0], curve[1] + 7.5, theta_t_deg=45.0, varphi_t_deg=90.0, freq_hz=3e9
    )
    path = tmp_path / "meas.csv"
    save_series(series, path)
    out_json = tmp_path / "report.json"
    out_svg = tmp_path / "overlay.svg"
    code, out, _ = run(
        capsys,
        ["compare", str(path), "--out-json", str(out_json), "--out-svg", str(out_svg)],
    )
    assert code == 0
    vals = parse_kv(out)
    assert vals["pol_case"] == "perpendicular"  # recovered from metadata
    assert float(vals["offset_db"]) == pytest.approx(7.5, abs=1e-6)
    assert float(vals["rmse_db"]) == pytest.approx(0.0, abs=1e-6)
    assert float(vals["peak_angle_error_deg"]) == pytest.approx(0.0, abs=1e-6)
    report = json.loads(out_json.read_text())
    assert report["offset_db"] == pytest.approx(7.5, abs=1e-6)
    assert out_svg.read_text().startswith("<svg")


PLOT_GOLDEN_DIR = Path(__file__).parent / "data" / "plot_golden"


def test_sweep_svg_matches_golden(capsys, tmp_path):
    """Both curves of a link sweep, broken by a 9-row run of -inf (sigma_max
    is subnormal, so the rows around the f_js null underflow to 0)."""
    out_csv, out_svg = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
    code, _, _ = run(capsys, [
        "sweep", "--euler-deg", "0", "-45", "0", "--l1-wl", "1e-80", "--l2-wl", "1e-80",
        "--freq-hz", "3e9", "--theta-t-deg", "40", "--phi-t-deg", "180", "--pol-deg", "0",
        "--phi-r-deg", "0", "--theta-r-step", "0.5", "--p-t-dbm", "10", "--amp-db", "20",
        "--g-t-dbi", "10", "--g-r-dbi", "10", "--d-t-m", "5", "--d-r-m", "5",
        "--out", str(out_csv), "--svg", str(out_svg),
    ])
    assert code == 0
    assert out_csv.read_text().count(",-inf,-inf\n") == 9
    assert out_svg.read_bytes() == (PLOT_GOLDEN_DIR / "sweep_link_gaps.svg").read_bytes()


def test_compare_svg_matches_golden(capsys, tmp_path):
    out_svg = tmp_path / "overlay.svg"
    code, out, _ = run(capsys, ["compare", str(PLOT_GOLDEN_DIR / "compare_meas.csv"), "--out-svg", str(out_svg)])
    assert code == 0 and "n_points=181\n" in out
    assert out_svg.read_bytes() == (PLOT_GOLDEN_DIR / "compare_overlay.svg").read_bytes()


def test_compare_noisy_seeded(capsys, tmp_path):
    grid = np.arange(0.0, 91.0, 5.0)
    curve = theoretical_curve(ExperimentConfig(theta_t_deg=45.0), "perpendicular", grid)
    rng = np.random.default_rng(1)
    series = MeasurementSeries(curve[0], curve[1] + rng.normal(0, 1.0, curve[1].size))
    path = tmp_path / "noisy.csv"
    save_series(series, path)
    code, out, _ = run(capsys, ["compare", str(path), "--pol-case", "perpendicular"])
    assert code == 0
    vals = parse_kv(out)
    assert float(vals["peak_angle_error_deg"]) <= 1.0
    assert float(vals["rmse_db"]) <= 1.5


def test_compare_requires_pol_case(capsys, tmp_path):
    grid = np.arange(0.0, 91.0, 5.0)
    curve = theoretical_curve(ExperimentConfig(theta_t_deg=45.0), "perpendicular", grid)
    path = tmp_path / "bare.csv"
    save_series(MeasurementSeries(curve[0], curve[1]), path)
    code, _, err = run(capsys, ["compare", str(path)])
    assert code == 2 and "pol-case" in err


def test_compare_rejects_non_finite_link_flags(capsys, tmp_path):
    grid = np.arange(0.0, 91.0, 5.0)
    curve = theoretical_curve(ExperimentConfig(theta_t_deg=45.0), "perpendicular", grid)
    path = tmp_path / "meas.csv"
    save_series(MeasurementSeries(curve[0], curve[1]), path)
    for flag in ("--p-t-dbm", "--d-r-m"):
        code, out, err = run(capsys, ["compare", str(path), "--pol-case", "perpendicular", flag, "nan"])
        assert code == 2 and out == "" and err.startswith("error: link ")


def test_compare_rejects_residuals_that_overflow(capsys, tmp_path):
    """Measured powers of +-1e300 dBm: the residuals' mean square overflows.
    This run printed rmse_db=inf with an overflow RuntimeWarning and exit 0."""
    meas, out_json = tmp_path / "meas.csv", tmp_path / "report.json"
    grid = np.arange(0.0, 60.0, 10.0)
    save_series(MeasurementSeries(grid, np.array([1e300, -1e300] * 3), theta_t_deg=45.0, varphi_t_deg=90.0), meas)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["compare", str(meas), "--out-json", str(out_json)])
    assert (code, out) == (2, "")
    assert err == "error: measured-minus-model residuals overflow float64 when averaged or squared\n"
    assert not out_json.exists()


def test_compare_rejects_zero_frequency_metadata(capsys, tmp_path):
    """A file declaring freq_hz=0 was compared at 3 GHz with exit 0: the
    metadata fell back to the default on a falsy value."""
    meas, out_json, out_svg = tmp_path / "meas.csv", tmp_path / "report.json", tmp_path / "overlay.svg"
    grid = np.arange(0.0, 91.0, 5.0)
    save_series(MeasurementSeries(grid, -40.0 - 0.02 * (grid - 45.0) ** 2, freq_hz=0.0), meas)
    assert "# freq_hz=0\n" in meas.read_text()
    code, out, err = run(capsys, ["compare", str(meas), "--pol-case", "perpendicular",
                                  "--out-json", str(out_json), "--out-svg", str(out_svg)])
    assert (code, out, err) == (2, "", "error: frequency must be positive and finite: 0.0\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["meas.csv"]


# A last row at 1e300 degrees; a file theta_t of -1 degree; a flag theta_t
# of 95 degrees.  These errors named the angles in radians.
@pytest.mark.parametrize("last_row, theta_t, flags, message", [
    ("1e300", "45", [], "theta_r_deg out of range [0, 90]: 1e+300"),
    ("90", "-1", [], "theta_t_deg out of range [0, 90]: -1.0"),
    ("90", "45", ["--theta-t-deg", "95"], "theta_t_deg out of range [0, 90]: 95.0"),
])
def test_compare_names_out_of_range_angles_in_degrees(capsys, tmp_path, last_row, theta_t, flags, message):
    meas, out_json = tmp_path / "meas.csv", tmp_path / "report.json"
    rows = "".join(f"{angle},-50\n" for angle in ["0", "20", "40", "60", last_row])
    meas.write_text(f"# theta_t_deg={theta_t}\ntheta_r_deg,p_rx_dbm\n{rows}")
    code, out, err = run(capsys, ["compare", str(meas), "--pol-case", "perpendicular", *flags,
                                  "--out-json", str(out_json)])
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not out_json.exists()


# Each ExperimentConfig field and the compare flag that sets it.
CONFIG_FLAGS = {
    "freq_hz": "--freq-hz", "plate_l1_wavelengths": "--l1-wl", "plate_l2_wavelengths": "--l2-wl",
    "theta_t_deg": "--theta-t-deg", "tx_power_dbm": "--p-t-dbm", "amp_gain_db": "--amp-db",
    "tx_gain_dbi": "--g-t-dbi", "rx_gain_dbi": "--g-r-dbi", "tx_distance_m": "--d-t-m",
    "rx_distance_m": "--d-r-m",
}


@pytest.mark.parametrize(
    "metadata, flags, config",
    [
        ({"theta_t_deg": 30.0, "freq_hz": 2.4e9}, [], ExperimentConfig(theta_t_deg=30.0, freq_hz=2.4e9)),
        (
            {"theta_t_deg": 30.0, "freq_hz": 2.4e9},
            ["--theta-t-deg", "40", "--freq-hz", "5e9"],
            ExperimentConfig(theta_t_deg=40.0, freq_hz=5e9),
        ),
        ({}, [], ExperimentConfig()),
    ],
    ids=["metadata-without-flags", "flags-over-metadata", "defaults"],
)
def test_compare_takes_each_field_from_flag_then_metadata_then_default(capsys, tmp_path, metadata, flags, config):
    """The run prints what the same sweep, without metadata, prints with every
    field of ``config`` spelled out as a flag."""
    grid = np.arange(0.0, 91.0, 2.5)
    power = -40.0 - 0.02 * (grid - 35.0) ** 2 + np.random.default_rng(3).normal(0.0, 0.5, grid.size)
    with_meta, bare = tmp_path / "meta.csv", tmp_path / "bare.csv"
    save_series(MeasurementSeries(grid, power, **metadata), with_meta)
    save_series(MeasurementSeries(grid, power), bare)
    code, out, _ = run(capsys, ["compare", str(with_meta), "--pol-case", "perpendicular", *flags])
    assert code == 0
    assert float(parse_kv(out)["theta_t_deg"]) == config.theta_t_deg
    spelled = [word for field, value in dataclasses.asdict(config).items()
               for word in (CONFIG_FLAGS[field], repr(value))]
    assert run(capsys, ["compare", str(bare), "--pol-case", "perpendicular", *spelled]) == (0, out, "")


def test_compare_missing_file(capsys, tmp_path):
    code, _, _ = run(capsys, ["compare", str(tmp_path / "none.csv"), "--pol-case", "parallel"])
    assert code == 4


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def without(argv, flag):
    i = argv.index(flag)
    return argv[:i] + argv[i + 2:]


COVERAGE_BASE = ["coverage", "scene.json", "--out-csv", "c.csv"]
# Per subcommand: a parse that succeeds, one missing a required flag (validate
# has none, so a flag without its value), and one with a value of the wrong
# type (optimize has no typed flag, so again a flag without its value).
PARSE_CASES = {
    "rcs": (RCS_BASE, without(RCS_BASE, "--freq-hz"), RCS_BASE + ["--phi-r-deg", "north"]),
    "sweep": (SWEEP_BASE, without(SWEEP_BASE, "--pol-deg"), SWEEP_BASE + ["--theta-r-step", "fine"]),
    "validate": (["validate"], ["validate", "--trials"], ["validate", "--trials", "2.5"]),
    "coverage": (COVERAGE_BASE, without(COVERAGE_BASE, "--out-csv"), COVERAGE_BASE + ["--db-min", "low"]),
    "optimize": (["optimize", "scene.json"], ["optimize"], ["optimize", "scene.json", "--out-json"]),
    "compare": (["compare", "m.csv"], ["compare"], ["compare", "m.csv", "--pol-case", "diagonal"]),
}
PARSER_SPLIT_ARGV = {
    "top-help": ["--help"],
    "top-missing": [],
    "top-unknown": ["--bogus"],
    "top-bad-choice": ["frobnicate"],
}
for _name, (_valid, _missing, _bad) in PARSE_CASES.items():
    PARSER_SPLIT_ARGV.update({
        f"{_name}-help": [_name, "--help"],
        f"{_name}-missing": _missing,
        f"{_name}-unknown": _valid + ["--bogus"],  # rejected by the top-level parser
        f"{_name}-bad-type": _bad,
    })


@pytest.mark.parametrize("argv", PARSER_SPLIT_ARGV.values(), ids=PARSER_SPLIT_ARGV.keys())
def test_subcommand_parser_reads_as_the_full_parser(capsys, monkeypatch, argv):
    """main builds only the invoked subcommand's flags; help and usage errors
    are the same bytes and exit code as through the parser with every flag."""
    code, out, err = run(capsys, argv)
    assert (out if code == 0 else err).startswith("usage: platekit")
    assert code == (0 if "--help" in argv else 2)
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser())
    assert run(capsys, argv) == (code, out, err)


@pytest.mark.parametrize("columns", ["60", "200"])
@pytest.mark.parametrize("command", PARSE_CASES)
def test_subcommand_help_reads_as_the_full_parser_at_any_width(capsys, monkeypatch, command, columns):
    """--help of the one-command parser, with usage lines wrapped at a narrow
    and a wide terminal, is the full parser's byte for byte."""
    monkeypatch.setenv("COLUMNS", columns)
    code, out, err = run(capsys, [command, "--help"])
    assert (code, err) == (0, "") and out.startswith(f"usage: platekit {command} [-h]")
    assert shutil.get_terminal_size().columns == int(columns)
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser())
    assert run(capsys, [command, "--help"]) == (code, out, err)


def test_unrecognized_arguments_fall_back_to_the_full_parser(capsys, monkeypatch):
    """A run parses with its command's parser alone; only leftover arguments
    rebuild the full parser, whose top-level error names them."""
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or build(command))
    assert run(capsys, ["validate", "--trials", "3"])[0] == 0
    assert built == ["validate"]
    built.clear()
    code, out, err = run(capsys, ["validate", "--trials", "3", "--bogus", "extra"])
    assert built == ["validate", None]
    assert (code, out) == (2, "") and err.startswith("usage: platekit [-h]")
    assert err.endswith("\nplatekit: error: unrecognized arguments: --bogus extra\n")


NAMESPACE_ARGV = [valid for valid, _, _ in PARSE_CASES.values()] + [
    ["validate", "--tri", "3", "--seed=-7", "--tol", "-1e-3"],
    ["optimize", "--", "scene.json"],
    ["coverage", "--out-csv", "c.csv", "--", "scene.json"],
    ["compare", "--", "m.csv"],
]


@pytest.mark.parametrize("argv", NAMESPACE_ARGV, ids=[" ".join(argv) for argv in NAMESPACE_ARGV])
def test_subcommand_parser_reads_the_full_parsers_namespace(argv):
    args, extra = cli.build_parser(argv[0]).parse_known_args(argv)
    assert extra == [] and vars(args) == vars(cli.build_parser().parse_args(argv))


def test_subcommand_parser_holds_only_its_own_flags():
    def flags(parser):
        return [o for a in parser._actions for o in a.option_strings]

    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    full = {name: flags(p) for name, p in sub.choices.items()}
    assert list(full) == list(PARSE_CASES) and all(full.values())
    assert full["validate"] == ["-h", "--help", "--trials", "--seed", "--nodes-per-edge", "--tol", "--freq-hz"]
    for name in PARSE_CASES:
        parser = cli.build_parser(name)
        assert {name: flags(parser)} == {name: full[name]}
        assert [a.dest for a in parser._actions if a.dest != "command"] == [a.dest for a in sub.choices[name]._actions]


def _measurement_file(tmp_path):
    grid = np.arange(0.0, 91.0, 5.0)
    curve = theoretical_curve(ExperimentConfig(theta_t_deg=45.0), "perpendicular", grid)
    path = tmp_path / "meas.csv"
    save_series(MeasurementSeries(curve[0], curve[1], theta_t_deg=45.0, varphi_t_deg=90.0), path)
    return str(path)


SWEEP_LINK = SWEEP_BASE + ["--amp-db", "0", "--g-t-dbi", "1", "--g-r-dbi", "1", "--d-t-m", "2", "--d-r-m", "2"]


@pytest.mark.parametrize(
    "command, flag, exponent, plain",
    [
        ("sweep", ["--p-t-dbm"], ["-1e1"], ["-10"]),
        ("sweep", ["--euler-deg", "0"], ["-1E-3", "0"], ["-0.001", "0"]),
        ("compare", ["--p-t-dbm"], ["-1e1"], ["-10"]),
        ("coverage", ["--db-min"], ["-1e2"], ["-100"]),
    ],
)
def test_negative_values_with_an_exponent_parse_as_numbers(capsys, tmp_path, command, flag, exponent, plain):
    """argparse alone reads only -10 or -.5 as a number; -1e1 must not read as a flag."""
    svg = str(tmp_path / "out.svg")
    base = {
        "sweep": SWEEP_LINK if flag == ["--p-t-dbm"] else [a for a in SWEEP_BASE if a != "--xy-plane"],
        "compare": ["compare", _measurement_file(tmp_path), "--out-svg", svg],
        "coverage": ["coverage", str(write_config(tmp_path, SCENE_CONFIG)), "--out-csv",
                     str(tmp_path / "c.csv"), "--out-svg", svg],
    }[command]
    outputs = []
    for value in (exponent, plain):
        code, out, err = run(capsys, base + flag + value)
        assert code == 0 and err == ""
        outputs.append((out, Path(svg).read_bytes() if command != "sweep" else b""))
    assert outputs[0] == outputs[1]


def _numeric_flags(command: str) -> list:
    """(flag, position, nargs) for each value position of each float or int flag of ``command``."""
    parser = argparse.ArgumentParser()
    cli._COMMANDS[command][1](parser)  # the subcommand's flag adder
    return [(a.option_strings[0], k, a.nargs or 1) for a in parser._actions if a.type in (float, int)
            for k in range(a.nargs or 1)]


NUMERIC_FLAGS = [(command, *entry) for command in cli._COMMANDS for entry in _numeric_flags(command)]
BOUNDARY_VALUES = ["1e300", "-1e300", "1e-300", "-1e-300", "5e-324", "0", "-1",
                   "nan", "inf", "-inf", "-nan", "-Infinity", "-NaN"]
_NON_FINITE_WORD = re.compile(r"(?i)(?<![a-z])-?(?:nan|inf(?:inity)?)(?![a-z])")


def _boundary_base(tmp_path, command: str) -> tuple[list, dict]:
    """Positional words and {flag: values} of a run of ``command`` that exits
    0, writing every output it can: to stdout or to files under ``tmp_path``."""
    plate = {"--xy-plane": [], "--l1-wl": ["5"], "--l2-wl": ["5"], "--freq-hz": ["3e9"], "--theta-t-deg": ["45"],
             "--pol-deg": ["90"]}
    link = {"--p-t-dbm": ["0"], "--amp-db": ["0"], "--g-t-dbi": ["1"], "--g-r-dbi": ["1"], "--d-t-m": ["2"],
            "--d-r-m": ["2"]}
    svg = [str(tmp_path / "out.svg")]
    if command == "coverage":
        return [str(write_config(tmp_path, SCENE_CONFIG))], {"--out-csv": [str(tmp_path / "out.csv")], "--out-svg": svg}
    if command == "compare":
        return [_measurement_file(tmp_path)], {"--out-json": [str(tmp_path / "out.json")], "--out-svg": svg}
    return [], {"rcs": {**plate, "--theta-r-deg": ["30"]}, "sweep": {**plate, **link, "--svg": svg},
                "validate": {"--trials": ["3"]}}[command]


def _assert_finite_output(text: str, where: str) -> None:
    """No nan or inf in ``text``; -inf only as the dB value of an RCS that is
    exactly 0 (sigma_m2 printed as 0 in the same CSV row, or in rcs's fields)."""
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    for line in lines:
        for word in _NON_FINITE_WORD.findall(line):
            zero_rcs = "sigma_m2=0" in lines or dict(zip(header, line.split(","))).get("sigma_m2") == "0"
            assert word == "-inf" and zero_rcs, f"{word} in {where}: {line}"


def _boundary_run(capsys, tmp_path, argv: list, value: str) -> tuple[int, str]:
    """One row of a boundary table: a run of ``argv``, which carries ``value``
    where a run that exits 0 has a valid number.  The run must end in one of
    three ways:
    - exit 0, no nan in stdout or any output file, and -inf only as the dB
      value of an RCS that is exactly 0;
    - exit 3 from validate, the tolerance below the measured error, with the
      report on stdout;
    - exit 2 with an error line, empty stdout and no output file.
    A non-finite value always exits 2.  Returns the exit code and stderr."""
    inputs = set(tmp_path.iterdir())
    code, out, err = run(capsys, argv)
    outputs = set(tmp_path.iterdir()) - inputs
    texts = {path.name: path.read_text() for path in outputs}
    for path in outputs:
        path.unlink()
    case = f"{argv}: exit {code}, stderr {err!r}"
    if code == 2:
        assert out == "" and not outputs and "error: " in err, case
        return code, err
    assert not _NON_FINITE_WORD.fullmatch(value), case
    assert code == 0 or (code == 3 and argv[0] == "validate" and "result=FAIL" in out), case
    for name, text in {"stdout": out, **texts}.items():
        _assert_finite_output(text, f"{name} of {case}")
    return code, err


def _flag_boundary_run(capsys, tmp_path, command: str, flag: str, position: int, nargs: int, value: str) -> None:
    """_boundary_run with ``value`` at ``position`` of ``flag`` in a run of
    ``command``.  A negative non-finite word reads as the flag's value, as -10
    does, so a float flag rejects it as non-finite (or, for an angle, out of
    range), not as a missing value."""
    positionals, options = _boundary_base(tmp_path, command)
    options.pop({"--l1-m": "--l1-wl", "--l2-m": "--l2-wl", "--euler-deg": "--xy-plane"}.get(flag), None)
    words = ["0"] * nargs
    words[position] = value
    argv = [command, *positionals, *(w for f, vs in {**options, flag: words}.items() for w in (f, *vs))]
    code, err = _boundary_run(capsys, tmp_path, argv, value)
    if code == 2 and value.startswith("-") and _NON_FINITE_WORD.fullmatch(value) and "invalid int value" not in err:
        assert err.startswith("error: ") and ("finite" in err or "out of range" in err), f"{argv}: stderr {err!r}"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, flag, position, nargs", NUMERIC_FLAGS,
                         ids=[f"{c}{f}[{k}]" for c, f, k, _ in NUMERIC_FLAGS])
def test_numeric_flags_take_every_boundary_value(capsys, tmp_path, command, flag, position, nargs):
    """Every float and int flag position of every subcommand, each value of the ladder."""
    assert len(NUMERIC_FLAGS) == 51
    for value in BOUNDARY_VALUES:
        _flag_boundary_run(capsys, tmp_path, command, flag, position, nargs, value)


def _scene_numbers(cfg: dict, prefix: str = "") -> list:
    """(name, keys) of every number in a scene config, vector components one by one."""
    numbers = []
    for key, value in cfg.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            numbers += [(n, (key, *keys)) for n, keys in _scene_numbers(value, f"{name}.")]
        elif isinstance(value, list):
            numbers += [(f"{name}[{i}]", (key, i)) for i in range(len(value))]
        elif not isinstance(value, str):
            numbers.append((name, (key,)))
    return numbers


SCENE_NUMBERS = _scene_numbers(SCENE_CONFIG)
# JSON values that are not numbers: the ladder's words that only a scene config can hold.
JSON_ONLY_VALUES = ["null", "true", '"1"', "[1]", '{"a": 1}']
# The optimize subset: the positions that reach the search's distances, an
# edge length, the polarization, a level and a grid count.
OPTIMIZE_SCENE_NUMBERS = ["tx_position_m[0]", "plate_position_m[2]", "plate.length1_m", "polarization_deg",
                          "amp_gain_db", "region.corner_m[0]", "region.edge_u_m[0]", "region.nv"]
SCENE_BOUNDARY_RUNS = [("coverage", *entry) for entry in SCENE_NUMBERS] + [
    ("optimize", *entry) for entry in SCENE_NUMBERS if entry[0] in OPTIMIZE_SCENE_NUMBERS]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, name, keys", SCENE_BOUNDARY_RUNS,
                         ids=[f"{c}-{n}" for c, n, _ in SCENE_BOUNDARY_RUNS])
def test_scene_numbers_take_every_boundary_value(capsys, tmp_path, command, name, keys):
    """Each value of the ladder and each JSON-only value, as written in the
    JSON text, at one number of the scene config; every number on coverage, a
    subset on optimize.  A JSON value that is not a number always exits 2."""
    assert len(SCENE_NUMBERS) == 31 and len(SCENE_BOUNDARY_RUNS) == 39
    outputs = {"coverage": ["--out-csv", str(tmp_path / "out.csv"), "--out-svg", str(tmp_path / "out.svg")],
               "optimize": ["--out-json", str(tmp_path / "out.json")]}[command]
    cfg = json.loads(json.dumps(SCENE_CONFIG))
    *parents, last = keys
    node = cfg
    for key in parents:
        node = node[key]
    node[last] = "@VALUE@"
    for value in BOUNDARY_VALUES + JSON_ONLY_VALUES:
        path = write_config(tmp_path, cfg)
        path.write_text(path.read_text().replace('"@VALUE@"', value))
        code, err = _boundary_run(capsys, tmp_path, [command, str(path), *outputs], value)
        assert code == 2 or value not in JSON_ONLY_VALUES, (name, value)


SWEEP_FLOAT_FLAGS = [(f, n) for c, f, k, n in NUMERIC_FLAGS if c == "sweep" and k == 0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", ["-inf", "-nan", "-Infinity", "-NaN"])
@pytest.mark.parametrize("flag, nargs", SWEEP_FLOAT_FLAGS, ids=[f for f, _ in SWEEP_FLOAT_FLAGS])
def test_negative_non_finite_values_get_the_finite_value_error(capsys, tmp_path, flag, nargs, value):
    """The sweep rows of the boundary table with negative non-finite words."""
    _flag_boundary_run(capsys, tmp_path, "sweep", flag, 0, nargs, value)


# One angle cell (the last row's, so that a large angle keeps the angles
# increasing), one power cell and each metadata line of a measurement CSV.
MEASUREMENT_FIELDS = ["theta_r_deg", "p_rx_dbm", "theta_t_deg", "varphi_t_deg", "freq_hz"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("field", MEASUREMENT_FIELDS)
def test_measurement_fields_take_every_boundary_value(capsys, tmp_path, field):
    """Each value of the ladder at one field of the measurement file of a
    compare run that takes its polarization case and frequency from the file."""
    grid = np.arange(0.0, 91.0, 5.0)
    curve = theoretical_curve(ExperimentConfig(theta_t_deg=45.0), "perpendicular", grid)
    base = tmp_path / "base.csv"
    save_series(MeasurementSeries(curve[0], curve[1], theta_t_deg=45.0, varphi_t_deg=90.0, freq_hz=3e9), base)
    lines = base.read_text().splitlines()
    base.unlink()
    meta = {line[2:].split("=")[0]: i for i, line in enumerate(lines) if line.startswith("# ")}
    assert sorted(meta) == sorted(MEASUREMENT_FIELDS[2:]) and len(lines) == len(meta) + 1 + len(grid)
    path = tmp_path / "meas.csv"
    outputs = ["--out-json", str(tmp_path / "out.json"), "--out-svg", str(tmp_path / "out.svg")]
    for value in BOUNDARY_VALUES:
        text = list(lines)
        if field in meta:
            text[meta[field]] = f"# {field}={value}"
        else:
            row = len(text) - 1 if field == "theta_r_deg" else len(text) - len(grid) // 2
            cells = text[row].split(",")
            cells[MEASUREMENT_FIELDS.index(field)] = value
            text[row] = ",".join(cells)
        path.write_text("\n".join(text) + "\n")
        _boundary_run(capsys, tmp_path, ["compare", str(path), *outputs], value)
