"""Seeded job streams for the four benchmark workloads, and their output checks.

A job is one ``platekit`` command line plus the input files it reads.  Jobs
come in blocks.  Every block of a workload holds the same ladder of input
sizes; the seed draws everything else (geometry, polarization, link terms,
the order of the block) and, for ``sweep``, which rungs also draw an SVG.
Whole blocks therefore give every run the same size mix, so medians and
peak memory compare across seeds, while each seed still gives its own job
list.  Job ``i`` depends only on (workload, seed, i).

Each check returns ``None`` when the output checks out and a message
otherwise.  Checks recompute sampled outputs through the library's scalar
and point entry points, never through the code path the command used.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from platekit import geometry, link, planner
from platekit.rcs import PlateGeometry, Wavelength, rcs

# BENCHMARK.json lists all but optimize, whose check fails on some jobs of
# the seed code (see README.md); it still runs by hand.
WORKLOADS = ("sweep", "coverage", "optimize", "validate")
_WORKLOAD_IDS = {name: i + 1 for i, name in enumerate(WORKLOADS)}

# Unit of the input size a job completes, per workload (items_per_s).
ITEM_UNITS = {
    "sweep": "rows",
    "coverage": "cells",
    "optimize": "region cells",
    "validate": "trials",
}

# Size ladders are log-spaced (equal weight per octave of input size) and
# have an odd number of rungs, so that with whole blocks the median and the
# tail percentile fall inside one rung's group of jobs, not between rungs.
# Sweep: observation steps of 90/m degrees for these m (1801..9001 rows).
SWEEP_DIVISIONS = tuple(int(m) for m in np.round(np.geomspace(1800, 9000, 7)))
SWEEP_SVG_PER_BLOCK = 3
# Measurement CSVs compared per block: points over 0..90 degrees.
COMPARE_ROWS = (181, 451)
COVERAGE_SIDES = tuple(int(n) for n in np.round(np.geomspace(150, 400, 9)))
# Heatmap on rungs 5, 7 and 9 of 9 (a third of the jobs), the same rungs in
# every block: the heatmap jobs are the slow tail, the largest one, which
# sets peak memory, is in every block, and sorted by cost the rungs around
# the median and the tail percentile are at least 1.5x apart.
COVERAGE_SVG_SIDES = COVERAGE_SIDES[4::2]
# Optimize alternates the two objectives over the rungs, swapping each block.
OPTIMIZE_SIDES = tuple(int(n) for n in np.round(np.geomspace(10, 40, 9)))
VALIDATE_TRIALS = (10, 15, 20, 30, 40)

# Rows and cells sampled per job for recomputation.
SAMPLES_PER_JOB = 12
# Relative agreement on top of the CSV's 9-significant-digit rounding.
REL_TOL = 1e-9


@dataclass
class Job:
    index: int
    kind: str
    argv: list[str]
    items: int
    files: dict[str, str] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    spec: dict = field(default_factory=dict)

    def digest(self, workdir: Path) -> str:
        """Hash of the command line and input files, independent of workdir."""
        h = hashlib.sha256()
        prefix = str(workdir)
        h.update("\0".join(a.replace(prefix, "") for a in self.argv).encode())
        for name in sorted(self.files):
            h.update(name.replace(prefix, "").encode() + b"\0" + self.files[name].encode())
        return h.hexdigest()


def _num(x: float, digits: int = 6) -> float:
    return round(float(x), digits)


def _arg(x) -> str:
    return repr(x) if isinstance(x, float) else str(x)


class JobStream:
    """Jobs of one workload and seed, generated a block at a time."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.workload = workload
        self.seed = seed
        self.workdir = Path(workdir)
        self.block_size = len(self._block_plan())
        self._cache: dict[int, list[Job]] = {}

    def _block_plan(self) -> list[tuple]:
        if self.workload == "sweep":
            return [("sweep", m) for m in SWEEP_DIVISIONS] + [("compare", r) for r in COMPARE_ROWS]
        if self.workload == "coverage":
            return [("coverage", n) for n in COVERAGE_SIDES]
        if self.workload == "optimize":
            return [("optimize", n) for n in OPTIMIZE_SIDES]
        return [("validate", t) for t in VALIDATE_TRIALS]

    def job(self, index: int) -> Job:
        block, pos = divmod(index, self.block_size)
        if block not in self._cache:
            self._cache = {block: self._make_block(block)}
        return self._cache[block][pos]

    def _make_block(self, block: int) -> list[Job]:
        rng = np.random.default_rng([self.seed, _WORKLOAD_IDS[self.workload], block])
        plan = self._block_plan()
        order = rng.permutation(len(plan))
        svg_rungs = set()
        if self.workload == "sweep":
            svg_rungs = set(rng.choice(len(SWEEP_DIVISIONS), SWEEP_SVG_PER_BLOCK, replace=False))
        jobs = []
        for pos, rung in enumerate(order):
            entry = plan[rung]
            index = block * self.block_size + pos
            kind = entry[0]
            if kind == "sweep":
                jobs.append(self._sweep(rng, index, entry[1], rung in svg_rungs))
            elif kind == "compare":
                jobs.append(self._compare(rng, index, entry[1]))
            elif kind == "coverage":
                jobs.append(self._coverage(rng, index, entry[1]))
            elif kind == "optimize":
                objective = planner.OBJECTIVES[(rung + block) % len(planner.OBJECTIVES)]
                jobs.append(self._optimize(rng, index, entry[1], objective))
            else:
                jobs.append(self._validate(rng, index, entry[1]))
        return jobs

    def _path(self, index: int, name: str) -> str:
        return str(self.workdir / f"job{index}-{name}")

    # -- sweep workload -----------------------------------------------------

    def _sweep(self, rng, index: int, divisions: int, svg: bool) -> Job:
        spec = {
            "freq_hz": _num(rng.uniform(1e9, 6e9), 0),
            "l1_wl": _num(rng.uniform(0.5, 10.0), 4),
            "l2_wl": _num(rng.uniform(0.5, 10.0), 4),
            "theta_t_deg": _num(rng.uniform(5.0, 80.0), 4),
            "pol_deg": _num(rng.uniform(0.0, 360.0), 4),
            "step_deg": 90.0 / divisions,
            "rows": divisions + 1,
            "p_t_dbm": _num(rng.uniform(-10.0, 10.0), 3),
            "amp_db": _num(rng.uniform(0.0, 40.0), 3),
            "g_t_dbi": _num(rng.uniform(5.0, 20.0), 3),
            "g_r_dbi": _num(rng.uniform(5.0, 20.0), 3),
            "d_t_m": _num(rng.uniform(2.0, 20.0), 3),
            "d_r_m": _num(rng.uniform(2.0, 20.0), 3),
            "euler_deg": None,
            "sample_rows": sorted(
                {0, divisions} | set(rng.integers(0, divisions + 1, SAMPLES_PER_JOB).tolist())
            ),
        }
        if rng.uniform() < 1.0 / 3.0:
            spec["euler_deg"] = [
                _num(rng.uniform(0.0, 360.0), 4),
                _num(rng.uniform(0.0, 60.0), 4),
                _num(rng.uniform(0.0, 360.0), 4),
            ]
        out = self._path(index, "sweep.csv")
        argv = ["sweep", "--freq-hz", _arg(spec["freq_hz"])]
        argv += ["--l1-wl", _arg(spec["l1_wl"]), "--l2-wl", _arg(spec["l2_wl"])]
        if spec["euler_deg"] is not None:
            argv += ["--euler-deg"] + [_arg(a) for a in spec["euler_deg"]]
        argv += ["--theta-t-deg", _arg(spec["theta_t_deg"]), "--pol-deg", _arg(spec["pol_deg"])]
        argv += ["--theta-r-step", _arg(spec["step_deg"]), "--out", out]
        for flag in ("p_t_dbm", "amp_db", "g_t_dbi", "g_r_dbi", "d_t_m", "d_r_m"):
            argv += ["--" + flag.replace("_", "-"), _arg(spec[flag])]
        outputs = [out]
        if svg:
            outputs.append(self._path(index, "sweep.svg"))
            argv += ["--svg", outputs[-1]]
        return Job(index, "sweep", argv, spec["rows"], outputs=outputs, spec=spec)

    def _compare(self, rng, index: int, rows: int) -> Job:
        theta_t = _num(rng.uniform(15.0, 70.0), 3)
        varphi = float(rng.choice([0.0, 90.0, 180.0, 270.0]))
        freq = _num(rng.uniform(1e9, 6e9), 0)
        l_wl = _num(rng.uniform(2.0, 8.0), 3)
        # A main lobe toward the specular angle over a noise floor, with an
        # unknown calibration offset and measurement noise.
        theta = np.linspace(0.0, 90.0, rows)
        x = math.pi * l_wl * (np.sin(np.radians(theta)) - math.sin(math.radians(theta_t)))
        lobe = np.sinc(x / math.pi) ** 2 + 10.0 ** (-rng.uniform(2.5, 4.0))
        power = (
            10.0 * np.log10(lobe)
            + rng.uniform(-25.0, 5.0)
            + rng.normal(0.0, rng.uniform(0.3, 2.0), rows)
        )
        lines = [f"# theta_t_deg={theta_t!r}", f"# varphi_t_deg={varphi!r}", f"# freq_hz={freq!r}"]
        lines.append("theta_r_deg,p_rx_dbm")
        lines += [f"{a:.6f},{p:.4f}" for a, p in zip(theta, power)]
        src = self._path(index, "measured.csv")
        out = self._path(index, "report.json")
        argv = ["compare", src, "--l1-wl", _arg(l_wl), "--l2-wl", _arg(l_wl), "--out-json", out]
        outputs = [out]
        if rng.uniform() < 0.5:
            outputs.append(self._path(index, "overlay.svg"))
            argv += ["--out-svg", outputs[-1]]
        return Job(
            index, "compare", argv, rows, files={src: "\n".join(lines) + "\n"}, outputs=outputs
        )

    # -- scenes for coverage and optimize -------------------------------------

    def _scene(self, rng, nu: int, nv: int, reach_m: tuple[float, float], aim: str) -> dict:
        """Transmitter, plate and a horizontal receiver region in front of it.

        ``aim="perturbed"`` tilts the plate up to 10 degrees off the specular
        aim at the region centre and turns it about its normal at random;
        ``aim="specular"`` aims it exactly, with the horizontal-edge frame
        the planner uses, as a starting point for the orientation search.
        """
        freq = _num(rng.uniform(1e9, 6e9), 0)
        lam = 299792458.0 / freq
        plate_pos = np.array([0.0, 0.0, _num(rng.uniform(2.0, 5.0), 3)])
        az_t = rng.uniform(0.0, 2.0 * math.pi)
        el_t = rng.uniform(-0.3, 0.3)
        to_tx = np.array([math.cos(el_t) * math.cos(az_t), math.cos(el_t) * math.sin(az_t), math.sin(el_t)])
        tx_pos = np.round(plate_pos + rng.uniform(5.0, 15.0) * to_tx, 3)
        az_r = az_t + rng.choice([-1.0, 1.0]) * rng.uniform(math.radians(40.0), math.radians(140.0))
        centre = plate_pos + rng.uniform(*reach_m) * np.array([math.cos(az_r), math.sin(az_r), 0.0])
        centre[2] = rng.uniform(0.5, 2.0)
        psi = rng.uniform(0.0, math.pi)
        edge_u = np.round(rng.uniform(2.0, 8.0) * np.array([math.cos(psi), math.sin(psi), 0.0]), 3)
        edge_v = np.round(rng.uniform(2.0, 8.0) * np.array([-math.sin(psi), math.cos(psi), 0.0]), 3)
        corner = np.round(centre - 0.5 * edge_u - 0.5 * edge_v, 3)

        a_inc = _unit(plate_pos - tx_pos)
        a_obs = _unit(corner + 0.5 * edge_u + 0.5 * edge_v - plate_pos)
        normal = _unit(a_obs - a_inc)
        if aim == "specular":
            edge1 = _unit(np.cross(normal, [0.0, 0.0, 1.0]))
        else:
            normal = _unit(normal + math.tan(math.radians(rng.uniform(0.0, 10.0))) * _unit(
                np.cross(normal, rng.normal(size=3))
            ))
            edge1 = _unit(np.cross(normal, rng.normal(size=3)))
        return {
            "frequency_hz": freq,
            "tx_position_m": tx_pos.tolist(),
            "plate_position_m": plate_pos.tolist(),
            "plate": {
                "length1_m": _num(rng.uniform(2.0, 10.0) * lam, 4),
                "length2_m": _num(rng.uniform(2.0, 10.0) * lam, 4),
                "normal": normal.tolist(),
                "edge1": edge1.tolist(),
            },
            "polarization_deg": _num(rng.uniform(0.0, 180.0), 3),
            "tx_power_dbm": _num(rng.uniform(-10.0, 10.0), 3),
            "amp_gain_db": _num(rng.uniform(0.0, 40.0), 3),
            "tx_gain_dbi": _num(rng.uniform(5.0, 20.0), 3),
            "rx_gain_dbi": _num(rng.uniform(5.0, 20.0), 3),
            "region": {
                "corner_m": corner.tolist(),
                "edge_u_m": edge_u.tolist(),
                "edge_v_m": edge_v.tolist(),
                "nu": nu,
                "nv": nv,
            },
        }

    def _coverage(self, rng, index: int, side: int) -> Job:
        scene = self._scene(rng, side, side, (4.0, 15.0), "perturbed")
        cells = side * side
        src = self._path(index, "scene.json")
        out = self._path(index, "coverage.csv")
        argv = ["coverage", src, "--out-csv", out]
        outputs = [out]
        if side in COVERAGE_SVG_SIDES:
            outputs.append(self._path(index, "coverage.svg"))
            argv += ["--out-svg", outputs[-1]]
        spec = {
            "scene": scene,
            "sample_cells": sorted({0, cells - 1} | set(rng.integers(0, cells, SAMPLES_PER_JOB).tolist())),
        }
        return Job(index, "coverage", argv, cells, {src: json.dumps(scene)}, outputs, spec)

    def _optimize(self, rng, index: int, side: int, objective: str) -> Job:
        scene = self._scene(rng, side, side, (3.0, 10.0), "specular")
        scene["objective"] = objective
        src = self._path(index, "scene.json")
        out = self._path(index, "best.json")
        argv = ["optimize", src, "--out-json", out]
        return Job(index, "optimize", argv, side * side, {src: json.dumps(scene)}, [out], {"scene": scene})

    def _validate(self, rng, index: int, trials: int) -> Job:
        seed = int(rng.integers(0, 2**31 - 1))
        freq = _num(rng.uniform(1e9, 6e9), 0)
        argv = ["validate", "--trials", str(trials), "--seed", str(seed), "--freq-hz", _arg(freq)]
        return Job(index, "validate", argv, trials, spec={"trials": trials})


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# Output checks


def _close(printed: float, expected: float) -> bool:
    """Agreement within REL_TOL beyond the rounding of a 9-digit print."""
    if math.isinf(expected) or math.isinf(printed):
        return printed == expected
    if expected == 0.0:
        return printed == 0.0
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(expected))) - 8)
    return abs(printed - expected) <= REL_TOL * abs(expected) + half_unit


def _read_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def _check_svg(path: str) -> str | None:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
        return f"{path}: not a complete SVG document"
    return None


def check(job: Job, rc, stdout: str) -> tuple[str | None, dict]:
    """Check a finished job; returns (failure message or None, exact counts)."""
    if rc != 0:
        return f"exit code {rc}", {}
    return _CHECKS[job.kind](job, stdout)


def _check_sweep(job: Job, stdout: str):
    s = job.spec
    lines = _read_lines(job.outputs[0])
    if lines[0] != "theta_r_deg,sigma_m2,sigma_dbsm,p_r_dbm":
        return f"unexpected sweep header {lines[0]!r}", {}
    if len(lines) - 1 != s["rows"]:
        return f"sweep wrote {len(lines) - 1} rows, grid has {s['rows']}", {}
    wl = Wavelength.from_frequency(s["freq_hz"])
    l1, l2 = s["l1_wl"] * wl.meters, s["l2_wl"] * wl.meters
    if s["euler_deg"] is None:
        plate = PlateGeometry.xy_plane(l1, l2)
    else:
        plate = PlateGeometry.from_euler_zyz(l1, l2, *(math.radians(a) for a in s["euler_deg"]))
    _, h_dir, a_inc = geometry.polarization_triad(
        geometry.SphericalAngles.from_degrees(s["theta_t_deg"], 270.0),
        geometry.PolarizationAngle.from_degrees(s["pol_deg"]),
    )
    scenario = link.LinkScenario(
        tx_power_dbm=s["p_t_dbm"],
        tx_gain_dbi=s["g_t_dbi"],
        rx_gain_dbi=s["g_r_dbi"],
        tx_distance_m=s["d_t_m"],
        rx_distance_m=s["d_r_m"],
        wavelength=wl,
        amp_gain_db=s["amp_db"],
    )
    for i in s["sample_rows"]:
        theta_r = s["step_deg"] * i
        obs = geometry.observation_direction(geometry.SphericalAngles.from_degrees(theta_r, 90.0))
        b = rcs(plate, a_inc, h_dir, obs, wl)
        expected = (theta_r, b.sigma_m2, b.sigma_dbsm, link.received_power(scenario, b.sigma_m2))
        printed = [float(v) for v in lines[i + 1].split(",")]
        if len(printed) != 4 or not all(_close(p, e) for p, e in zip(printed, expected)):
            return f"sweep row {i}: printed {printed}, expected {list(expected)}", {}
    for path in job.outputs[1:]:
        msg = _check_svg(path)
        if msg:
            return msg, {}
    return None, {"rows": s["rows"]}


def _strict_json(path: str):
    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject)


def _check_compare(job: Job, stdout: str):
    try:
        report = _strict_json(job.outputs[0])
    except ValueError as exc:
        return f"compare report: {exc}", {}
    for key in ("offset_db", "rmse_db"):
        value = report.get(key)
        if not (isinstance(value, float) and math.isfinite(value)):
            return f"compare report: {key}={value!r} is not finite", {}
    for path in job.outputs[1:]:
        msg = _check_svg(path)
        if msg:
            return msg, {}
    return None, {}


def scene_objects(cfg: dict) -> tuple[planner.Scene, planner.TargetRegion]:
    """Build the library objects a scene dict describes, without the CLI loader."""
    wl = Wavelength.from_frequency(cfg["frequency_hz"])
    p = cfg["plate"]
    plate = PlateGeometry.from_frame(p["length1_m"], p["length2_m"], p["normal"], p["edge1"])
    scene = planner.Scene(
        tx_position=cfg["tx_position_m"],
        plate_position=cfg["plate_position_m"],
        plate=plate,
        polarization=geometry.PolarizationAngle.from_degrees(cfg["polarization_deg"]),
        tx_power_dbm=cfg["tx_power_dbm"],
        tx_gain_dbi=cfg["tx_gain_dbi"],
        rx_gain_dbi=cfg["rx_gain_dbi"],
        wavelength=wl,
        amp_gain_db=cfg["amp_gain_db"],
    )
    r = cfg["region"]
    region = planner.TargetRegion(r["corner_m"], r["edge_u_m"], r["edge_v_m"], r["nu"], r["nv"])
    return scene, region


def _stdout_fields(stdout: str) -> dict[str, str]:
    fields = {}
    for token in stdout.split():
        key, sep, value = token.partition("=")
        if sep:
            fields[key] = value
    return fields


def _check_coverage(job: Job, stdout: str):
    scene, region = scene_objects(job.spec["scene"])
    cells = region.nu * region.nv
    fields = _stdout_fields(stdout)
    lines = _read_lines(job.outputs[0])
    if lines[0] != "index_u,index_v,x_m,y_m,z_m,p_r_dbm" or len(lines) - 1 != cells:
        return f"coverage CSV has {len(lines) - 1} rows, grid has {cells}", {}
    shadow = sum(1 for line in lines[1:] if line.endswith(",shadow"))
    if fields.get("cells") != str(cells) or fields.get("shadow_cells") != str(shadow):
        return f"coverage summary {stdout.strip()!r}, CSV has {cells} cells, {shadow} shadow", {}
    for idx in job.spec["sample_cells"]:
        iu, iv = divmod(idx, region.nv)
        fu, fv = iu / (region.nu - 1), iv / (region.nv - 1)
        point = region.corner + fu * region.edge_u + fv * region.edge_v
        ref = planner.coverage_map_points(scene, [point])
        row = lines[idx + 1].split(",")
        if row[:2] != [str(iu), str(iv)]:
            return f"coverage row {idx}: indices {row[:2]}, expected {[iu, iv]}", {}
        if not all(_close(float(v), float(e)) for v, e in zip(row[2:5], point)):
            return f"coverage row {idx}: position {row[2:5]}, expected {point.tolist()}", {}
        if (row[5] == "shadow") != bool(ref.shadow[0]):
            return f"coverage row {idx}: shadow flag {row[5]!r}, point query {bool(ref.shadow[0])}", {}
        if row[5] != "shadow" and not _close(float(row[5]), float(ref.power_dbm[0])):
            return f"coverage row {idx}: power {row[5]}, point query {ref.power_dbm[0]!r}", {}
    for path in job.outputs[1:]:
        msg = _check_svg(path)
        if msg:
            return msg, {}
    return None, {"cells": cells}


def _as_float(value) -> float:
    return float(value) if isinstance(value, (int, float, str)) else float("nan")


def _check_optimize(job: Job, stdout: str):
    try:
        result = _strict_json(job.outputs[0])
    except ValueError as exc:
        return f"optimize result: {exc}", {}
    best = _as_float(result.get("best_objective_dbm"))
    initial = _as_float(result.get("initial_objective_dbm"))
    if not math.isfinite(best):
        return f"best_objective_dbm={result.get('best_objective_dbm')!r} is not finite", {}
    if not best >= initial:
        return f"best_objective_dbm={best!r} is below initial_objective_dbm={initial!r}", {}
    scene, region = scene_objects(job.spec["scene"])
    frame = [np.asarray(result[k], dtype=float) for k in ("normal", "edge1", "edge2")]
    value = planner.orientation_objective(scene.with_orientation(*frame), region, result["objective"])
    if not abs(value - best) <= REL_TOL * max(1.0, abs(best)):
        return f"objective at the reported frame is {value!r}, reported {best!r}", {}
    return None, {"cells": region.nu * region.nv, "evaluations": int(result["evaluations"])}


def _check_validate(job: Job, stdout: str):
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].endswith("result=PASS"):
        return f"validation did not pass: {lines[-1] if lines else stdout!r}", {}
    if not lines[0].startswith(f"trials={job.spec['trials']} "):
        return f"validation ran {lines[0]!r}, asked for {job.spec['trials']} trials", {}
    return None, {}


_CHECKS = {
    "sweep": _check_sweep,
    "compare": _check_compare,
    "coverage": _check_coverage,
    "optimize": _check_optimize,
    "validate": _check_validate,
}
