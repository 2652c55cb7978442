"""Measured power sweeps and their comparison against model curves.

Measurement files are plain CSV with a ``theta_r_deg,p_rx_dbm`` header.
Lines starting with ``#`` are comments; ``# key=value`` comments carry
sweep metadata (theta_t_deg, varphi_t_deg, freq_hz).

Absolute calibration of a measurement chain (cables, antenna efficiency) is
unknown, so all comparisons are offset-invariant: a least-squares constant
dB offset is removed before residuals are formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import csvtext, link
from .geometry import check_angle
from .rcs import POLARIZATION_CASES, Wavelength, rcs_parallel_cut, rcs_perpendicular_cut

_METADATA_KEYS = {"theta_t_deg", "varphi_t_deg", "freq_hz"}
_HEADER = "theta_r_deg,p_rx_dbm"
HALF_POWER_DB = 10.0 * math.log10(2.0)


@dataclass
class MeasurementSeries:
    """One observation-angle sweep of received power.

    Angles are in degrees, strictly increasing, at least 5 records.
    Metadata fields are optional and describe the sweep configuration.
    """

    theta_r_deg: np.ndarray
    power_dbm: np.ndarray
    theta_t_deg: float | None = None
    varphi_t_deg: float | None = None
    freq_hz: float | None = None

    def __post_init__(self):
        self.theta_r_deg = np.asarray(self.theta_r_deg, dtype=float)
        self.power_dbm = np.asarray(self.power_dbm, dtype=float)
        if self.theta_r_deg.shape != self.power_dbm.shape or self.theta_r_deg.ndim != 1:
            raise ValueError("angle and power arrays must be 1-D and equal length")
        if self.theta_r_deg.size < 5:
            raise ValueError(f"need at least 5 records, got {self.theta_r_deg.size}")
        if not np.all(np.isfinite(self.theta_r_deg)):
            raise ValueError("observation angles must be finite")
        if not np.all(np.diff(self.theta_r_deg) > 0.0):
            raise ValueError("observation angles must be strictly increasing")
        if not np.all(np.isfinite(self.power_dbm)):
            raise ValueError("measured power values must be finite")
        for key in sorted(_METADATA_KEYS):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"metadata {key} must be finite, got {value}")

    def __len__(self) -> int:
        return int(self.theta_r_deg.size)


def load_series(path) -> MeasurementSeries:
    """Parse a measurement CSV, reporting the line number on bad rows."""
    meta: dict[str, float] = {}
    angles: list[float] = []
    powers: list[float] = []
    header_seen = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            stripped = raw.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                body = stripped[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    key = key.strip()
                    if key in _METADATA_KEYS:
                        try:
                            meta[key] = float(value.strip())
                        except ValueError as exc:
                            raise ValueError(
                                f"{path}: line {lineno}: bad metadata value for {key!r}"
                            ) from exc
                continue
            if not header_seen:
                if stripped.replace(" ", "") != _HEADER:
                    raise ValueError(
                        f"{path}: line {lineno}: expected header {_HEADER!r}, got {stripped!r}"
                    )
                header_seen = True
                continue
            parts = stripped.split(",")
            if len(parts) != 2:
                raise ValueError(
                    f"{path}: line {lineno}: expected 2 comma-separated values, got {len(parts)}"
                )
            try:
                angles.append(float(parts[0]))
                powers.append(float(parts[1]))
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: non-numeric row {stripped!r}") from exc
    if not header_seen:
        raise ValueError(f"{path}: empty file (no header line)")
    if not angles:
        raise ValueError(f"{path}: no data rows")
    return MeasurementSeries(np.array(angles), np.array(powers), **meta)


def save_series(series: MeasurementSeries, path) -> None:
    """Write a measurement CSV in the format load_series reads.

    Values are written as ``%.9g`` prints them (``csvtext``), a chunk of rows
    at a time; a series whose angles would no longer be strictly increasing at
    that precision is rejected before anything is written.
    """
    last = -math.inf  # the previous chunk's last angle as printed
    for chunk in csvtext.format_chunks([series.theta_r_deg]):
        angles = np.array(chunk.decode("ascii").split(), dtype=float)
        if not np.all(np.diff(angles, prepend=last) > 0.0):
            raise ValueError("observation angles must stay strictly increasing at 9 significant digits")
        last = angles[-1]
    lines = []
    for key in ("theta_t_deg", "varphi_t_deg", "freq_hz"):
        value = getattr(series, key)
        if value is not None:
            lines.append(f"# {key}={csvtext.fmt(value)}")
    lines.append(_HEADER)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
        for chunk in csvtext.format_chunks([series.theta_r_deg, series.power_dbm]):
            fh.write(chunk.decode("ascii"))


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep-experiment parameters (defaults mirror the field measurement).

    The plate edges are given in wavelengths; the antennas are modelled
    by fixed gains.
    """

    freq_hz: float = 3e9
    plate_l1_wavelengths: float = 5.0
    plate_l2_wavelengths: float = 5.0
    theta_t_deg: float = 45.0
    tx_power_dbm: float = 0.0
    amp_gain_db: float = 38.861
    tx_gain_dbi: float = 16.0
    rx_gain_dbi: float = 16.0
    tx_distance_m: float = 8.0
    rx_distance_m: float = 8.0

    def wavelength(self) -> Wavelength:
        return Wavelength.from_frequency(self.freq_hz)

    def link_scenario(self) -> link.LinkScenario:
        return link.LinkScenario(
            tx_power_dbm=self.tx_power_dbm,
            tx_gain_dbi=self.tx_gain_dbi,
            rx_gain_dbi=self.rx_gain_dbi,
            tx_distance_m=self.tx_distance_m,
            rx_distance_m=self.rx_distance_m,
            wavelength=self.wavelength(),
            amp_gain_db=self.amp_gain_db,
        )


def theoretical_curve(config: ExperimentConfig, pol_case: str, theta_r_deg) -> tuple[np.ndarray, np.ndarray]:
    """Model received power (dBm) over an observation-angle grid.

    ``pol_case`` selects the polarization of the principal-cut model:
    "perpendicular" (E normal to the vertical incidence plane) or
    "parallel" (E in that plane).  Grazing nulls yield -inf entries.  A
    zenith outside its domain raises ValueError naming it in degrees, as given.
    """
    if pol_case not in POLARIZATION_CASES:
        raise ValueError(f"pol_case must be one of {POLARIZATION_CASES}, got {pol_case!r}")
    check_angle("theta_t_deg", config.theta_t_deg, "zenith")
    theta_r_deg = check_angle("theta_r_deg", theta_r_deg, "zenith")
    wl = config.wavelength()
    l1 = config.plate_l1_wavelengths * wl.meters
    l2 = config.plate_l2_wavelengths * wl.meters
    cut = rcs_perpendicular_cut if pol_case == "perpendicular" else rcs_parallel_cut
    sigmas = cut(math.radians(config.theta_t_deg), np.radians(theta_r_deg), l1, l2, wl)
    return theta_r_deg, link.received_dbm(config.link_scenario(), sigmas)


def peak_angle(theta_deg, power_dbm) -> tuple[float, float]:
    """Peak location and value by quadratic fit around the grid maximum.

    Falls back to the raw grid point when the maximum sits on the grid edge
    or a neighbor is non-finite.
    """
    theta = np.asarray(theta_deg, dtype=float)
    power = np.asarray(power_dbm, dtype=float)
    masked = np.where(np.isfinite(power), power, -np.inf)
    i = int(np.argmax(masked))
    if i == 0 or i == theta.size - 1:
        return float(theta[i]), float(power[i])
    window_p = power[i - 1 : i + 2]
    if not np.all(np.isfinite(window_p)):
        return float(theta[i]), float(power[i])
    a, b, c = np.polyfit(theta[i - 1 : i + 2], window_p, 2)
    if a >= 0.0:
        return float(theta[i]), float(power[i])
    vertex = -b / (2.0 * a)
    value = (a * vertex + b) * vertex + c
    return float(vertex), float(value)


def hpbw(theta_deg, power_dbm) -> float | None:
    """Half-power beamwidth of the main lobe, or None when a crossing is
    truncated by the grid edge.

    Crossings of (peak - 3.01 dB) are located by linear interpolation
    between adjacent grid points on each side of the peak.
    """
    theta = np.asarray(theta_deg, dtype=float)
    power = np.asarray(power_dbm, dtype=float)
    return _hpbw(theta, power, peak_angle(theta, power)[1])


def _hpbw(theta: np.ndarray, power: np.ndarray, peak_value: float) -> float | None:
    """hpbw of float arrays whose peak_angle value is ``peak_value``."""
    level = peak_value - HALF_POWER_DB
    masked = np.where(np.isfinite(power), power, -np.inf)
    i = int(np.argmax(masked))

    def crossing(step: int) -> float | None:
        j = i
        while 0 <= j + step < theta.size:
            p0, p1 = power[j], power[j + step]
            if p1 < level:
                if not np.isfinite(p1):
                    return None
                frac = (p0 - level) / (p0 - p1)
                return float(theta[j] + frac * (theta[j + step] - theta[j]))
            j += step
        return None

    left = crossing(-1)
    right = crossing(+1)
    if left is None or right is None:
        return None
    return right - left


def mainlobe_sidelobe_gap(theta_deg, power_dbm) -> float | None:
    """Gap in dB between the main-lobe peak and the highest sidelobe.

    The main lobe is the contiguous run around the grid maximum down to the
    first local minimum on each side; the highest sample beyond those minima
    is the sidelobe level.  Returns None when the pattern is monotone off
    the peak (no sidelobe visible on the grid).
    """
    power = np.asarray(power_dbm, dtype=float)
    masked = np.where(np.isfinite(power), power, -np.inf)
    i = int(np.argmax(masked))
    lo = i
    while lo > 0 and masked[lo - 1] <= masked[lo]:
        lo -= 1
    hi = i
    while hi < power.size - 1 and masked[hi + 1] <= masked[hi]:
        hi += 1
    outside = np.concatenate([masked[:lo], masked[hi + 1 :]])
    if outside.size == 0 or not np.any(np.isfinite(outside)):
        return None
    return float(masked[i] - np.max(outside))


@dataclass
class ComparisonReport:
    """Alignment metrics between a measured sweep and a model curve."""

    offset_db: float
    peak_angle_error_deg: float
    hpbw_error_deg: float | None
    rmse_db: float
    mainlobe_sidelobe_gap_db: float | None
    peak_angle_measured_deg: float = field(default=float("nan"))
    peak_angle_theory_deg: float = field(default=float("nan"))
    hpbw_measured_deg: float | None = None
    hpbw_theory_deg: float | None = None
    n_points: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def compare(series: MeasurementSeries, curve) -> ComparisonReport:
    """Compare a measured series against a model curve (theta_deg, dBm).

    The curve is resampled onto the measurement grid by linear
    interpolation in dB when the grids differ.  Points where the model is
    non-finite (exact pattern nulls) are excluded from offset and RMSE.
    The constant calibration offset is the mean measured-minus-model
    difference; RMSE is computed after removing it.  Residuals whose mean
    or mean square overflows float64 raise ValueError.
    """
    curve_theta = np.asarray(curve[0], dtype=float)
    curve_power = np.asarray(curve[1], dtype=float)
    if curve_theta.ndim != 1 or curve_theta.shape != curve_power.shape:
        raise ValueError("curve must be a pair of equal-length 1-D arrays")
    if np.array_equal(curve_theta, series.theta_r_deg):
        theory = curve_power.copy()
    else:
        if (
            series.theta_r_deg[0] < curve_theta[0] - 1e-9
            or series.theta_r_deg[-1] > curve_theta[-1] + 1e-9
        ):
            raise ValueError("curve does not cover the measurement grid")
        theory = np.interp(series.theta_r_deg, curve_theta, curve_power)

    finite = np.isfinite(theory)
    if not np.any(finite):
        raise ValueError("model curve has no finite points on the measurement grid")
    with np.errstate(over="ignore", invalid="ignore"):
        diff = series.power_dbm[finite] - theory[finite]
        offset = float(np.mean(diff))
        rmse = float(np.sqrt(np.mean((diff - offset) ** 2)))
    if not (math.isfinite(offset) and math.isfinite(rmse)):
        raise ValueError("measured-minus-model residuals overflow float64 when averaged or squared")

    # Each series' peak is fitted once, for its angle and its half-power level.
    peak_meas, top_meas = peak_angle(series.theta_r_deg, series.power_dbm)
    peak_theory, top_theory = peak_angle(series.theta_r_deg, theory)
    hpbw_meas = _hpbw(series.theta_r_deg, series.power_dbm, top_meas)
    hpbw_theory = _hpbw(series.theta_r_deg, theory, top_theory)
    hpbw_error = None
    if hpbw_meas is not None and hpbw_theory is not None:
        hpbw_error = abs(hpbw_meas - hpbw_theory)

    return ComparisonReport(
        offset_db=offset,
        peak_angle_error_deg=abs(peak_meas - peak_theory),
        hpbw_error_deg=hpbw_error,
        rmse_db=rmse,
        mainlobe_sidelobe_gap_db=mainlobe_sidelobe_gap(series.theta_r_deg, series.power_dbm),
        peak_angle_measured_deg=peak_meas,
        peak_angle_theory_deg=peak_theory,
        hpbw_measured_deg=hpbw_meas,
        hpbw_theory_deg=hpbw_theory,
        n_points=int(np.count_nonzero(finite)),
    )
