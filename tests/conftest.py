import math
import tracemalloc

import numpy as np
import pytest

from platekit import PlateGeometry, Wavelength

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])

# Numbers at and past every boundary, as CLI words: huge, tiny, subnormal,
# zero, negative and non-finite in each spelling.  The CLI fuzz passes them as
# flag and scene values, the library fuzz as floats.
BOUNDARY_VALUES = ["1e300", "-1e300", "1e-300", "-1e-300", "5e-324", "0", "-1",
                   "nan", "inf", "-inf", "-nan", "-Infinity", "-NaN"]


@pytest.fixture
def wl_3ghz() -> Wavelength:
    return Wavelength.from_frequency(3e9)


@pytest.fixture
def plate_5wl(wl_3ghz) -> PlateGeometry:
    side = 5.0 * wl_3ghz.meters
    return PlateGeometry.xy_plane(side, side)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    return quaternion_rotation(rng.normal(size=4))


def quaternion_rotation(q) -> np.ndarray:
    """The rotation matrix of the nonzero quaternion ``q`` (w, x, y, z), normalized first."""
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def rel_close(a, b, rtol, floor=0.0):
    """|a - b| <= rtol*max(|a|,|b|) + floor, elementwise."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.all(np.abs(a - b) <= rtol * np.maximum(np.abs(a), np.abs(b)) + floor)


def traced_memory(call, *args, **kwargs):
    """Run ``call(*args, **kwargs)`` under tracemalloc, which always stops
    again; returns the call's result and the (held, peak) traced bytes as the
    call returned."""
    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def deg(x: float) -> float:
    return math.radians(x)
