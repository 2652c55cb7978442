"""Reflection modelling for rectangular metal plate reflectors.

Closed-form bistatic RCS for plates of any size, orientation, and linear
polarization, validated against an independent physical-optics quadrature,
with radar-equation link budgets, coverage/deployment planning, and
measured-sweep comparison on top.
"""

from .geometry import (
    PolarizationAngle,
    SphericalAngles,
    observation_direction,
    plate_frame,
    polarization_triad,
    spherical_to_unit,
    spherical_unit_vectors,
    unit,
)
from .link import LinkScenario, power_sweep, received_dbm, received_power
from .measure import (
    ComparisonReport,
    ExperimentConfig,
    MeasurementSeries,
    compare,
    hpbw,
    load_series,
    mainlobe_sidelobe_gap,
    peak_angle,
    save_series,
    theoretical_curve,
)
from .planner import (
    CoverageMap,
    OrientationResult,
    Scene,
    TargetRegion,
    coverage_map,
    coverage_map_points,
    optimize_orientation,
    orient_for_target,
    orientation_objective,
)
from .po_oracle import (
    FarFieldSample,
    FarFieldWarning,
    IncidentWave,
    QuadratureSpec,
    induced_current,
    po_far_field,
    po_rcs,
)
from .rcs import (
    PlateGeometry,
    RcsBreakdown,
    Wavelength,
    dbsm,
    f_af,
    f_js,
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
from .validate import ValidationReport, random_scenario, run_validation

__version__ = "0.1.0"
