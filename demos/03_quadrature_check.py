"""Checking the closed form against brute-force physical-optics quadrature.

The closed-form RCS is an exact evaluation of the physical-optics surface
integrals, so integrating those surface integrals numerically must land on
the same number.  The quadrature route sums the phase of the induced current
over Gauss-Legendre nodes along each edge and projects the current on the
spherical field components at the observer, never touching the closed
form's sinc terms or cross-product identity, which makes the agreement a
meaningful check rather than a restatement.
"""

import numpy as np

from platekit import (
    IncidentWave,
    PlateGeometry,
    QuadratureSpec,
    SphericalAngles,
    Wavelength,
    po_rcs,
    rcs,
    run_validation,
)

wl = Wavelength.from_frequency(3e9)
side = 5 * wl.meters
plate = PlateGeometry.xy_plane(side, side)

print("named configurations (5-wavelength plate at 3 GHz):")
cases = [
    ("normal incidence, broadside", 0.0, 90.0, np.array([0.0, 0.0, 1.0])),
    ("45 deg incidence, specular", 45.0, 90.0, np.array([0.0, np.sin(np.radians(45)), np.cos(np.radians(45))])),
    ("45 deg incidence, zenith", 45.0, 0.0, np.array([0.0, 0.0, 1.0])),
    ("65 deg incidence, 30 deg obs", 65.0, 90.0, np.array([0.0, np.sin(np.radians(30)), np.cos(np.radians(30))])),
]
for label, theta_t, pol_deg, a_obs in cases:
    wave = IncidentWave.from_angles(
        SphericalAngles.from_degrees(theta_t, 270), np.radians(pol_deg if pol_deg else 360), wl
    )
    closed = rcs(plate, wave.direction, wave.h_dir, a_obs, wl).sigma_m2
    quad = po_rcs(plate, wave, a_obs)
    rel = abs(quad - closed) / closed if closed else abs(quad)
    print(f"  {label:<30} closed={closed:12.6e}  quadrature={quad:12.6e}  rel err={rel:.2e}")

print()
print("seeded random batch (sizes 0.5-10 wavelengths, any orientation/polarization):")
report = run_validation(trials=200, seed=7, wavelength=wl)
for line in report.lines():
    print(" ", line)

print()
nodes = QuadratureSpec.for_plate(plate, wl).nodes_per_edge
print(f"(default rule for this plate: {nodes} Gauss-Legendre nodes per edge)")
