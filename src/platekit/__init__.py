"""Reflection modelling for rectangular metal plate reflectors.

Closed-form bistatic RCS for plates of any size, orientation, and linear
polarization, validated against an independent physical-optics quadrature,
with radar-equation link budgets, coverage/deployment planning, and
measured-sweep comparison on top.
"""

import importlib.util
import sys

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

__version__ = "0.1.0"

# Every module but geometry and rcs (which every CLI command runs) is
# deferred: importing platekit registers it, and it runs the first time one
# of its attributes is read, so that a command compiles only the modules it
# uses.  Each is listed with the names the package exports from it.
_DEFERRED = {
    "csvtext": (),
    "link": ("LinkScenario", "power_sweep", "received_dbm", "received_power"),
    "measure": (
        "ComparisonReport",
        "ExperimentConfig",
        "MeasurementSeries",
        "compare",
        "hpbw",
        "load_series",
        "mainlobe_sidelobe_gap",
        "peak_angle",
        "save_series",
        "theoretical_curve",
    ),
    "planner": (
        "CoverageMap",
        "OrientationResult",
        "Scene",
        "TargetRegion",
        "coverage_map",
        "coverage_map_points",
        "optimize_orientation",
        "orient_for_target",
        "orientation_objective",
    ),
    "po_oracle": (
        "FarFieldSample",
        "FarFieldWarning",
        "IncidentWave",
        "QuadratureSpec",
        "induced_current",
        "po_far_field",
        "po_rcs",
    ),
    "svgplot": (),
    "validate": ("ValidationReport", "random_scenario", "run_validation"),
}
# Each lazily exported name, and the deferred module it comes from.
_EXPORTS = {name: module for module, names in _DEFERRED.items() for name in names}


def _defer(name: str):
    """platekit.<name>, registered in sys.modules by importlib's LazyLoader:
    the module runs on the first read of one of its attributes.

    Registering it, rather than importing it on first use, keeps every way
    in working: ``from platekit.<name> import x`` and ``import
    platekit.<name>`` find it in sys.modules and run it; ``from platekit
    import <name>`` and a module-level ``from . import <name>`` bind it
    without running it; and a tool that looks each module up in sys.modules
    to wrap its functions (perfbench's ``Tracer.install()``) finds it there.
    Before Python 3.12 LazyLoader is not thread-safe: two threads reading a
    deferred module's first attribute at once could both run it.  platekit
    starts no threads.
    """
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _DEFERRED:
    globals()[_name] = _defer(_name)
del _name


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(globals()[_EXPORTS[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS})
