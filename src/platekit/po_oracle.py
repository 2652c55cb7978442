"""Brute-force physical-optics validation path for the closed-form RCS.

The scattered field is obtained by integrating the induced surface current
over the plate with a tensor-product Gauss-Legendre rule (nodes by one
Halley step on the Legendre recurrence from Hale and Townsend's asymptotic
guesses), projecting onto the spherical field components at the observation
direction, and normalizing the scattered power density by the incident one.
The current is a constant vector times a phase linear in the surface point,
so the 2-D sum factors exactly into one 1-D sum per edge.  Nothing here
reuses the closed form: the edge sums are quadratures, not sinc terms, and
the polarization dependence enters through the two spherical projections of
the current, not through the cross-product identity the closed form uses,
so agreement between the two routes is a real check rather than a tautology.

One array pass evaluates a stack of plates, each with its own frame, wave,
observer and rule size; the rules of all sizes are solved together, straight
into one table padded with zero-weight nodes to the largest.  The rows are
sorted by rule size and their edge sums taken in chunks of up to
_TERMS_PER_CHUNK terms, each row's rule sliced from the table to the largest
in its chunk.  Every edge sum runs in node order, so the padding adds exact
zeros after a row's own terms and a row has the same bits in any stack.
po_far_field and po_rcs check one scenario and run it as a one-row stack.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from . import geometry
from .geometry import _cross, check_unit
from .rcs import PlateGeometry, Wavelength

FREE_SPACE_IMPEDANCE_OHM = 376.730
# Largest quadrature rule.  Its Halley solve costs n/2 nodes x n recurrence
# steps, one pass: about 1 ms at this size (2-vCPU x86-64 VM).
_MAX_NODES_PER_EDGE = 512
# Smallest rule solved by one Halley step.  From the Olver and Tricomi guesses
# one step reaches full float64 precision for every n from 8 to 512 (nodes
# within 1.1e-16 of a 40-digit reference; test_po_oracle); at n = 2..6 it
# leaves up to 3e-9, so the smaller rules take a second step.
_TWO_STEP_SIZE = 8
# Edge-sum terms (rows x 2 edges x the chunk's largest rule) evaluated at
# once; bounds the quadrature's memory for any number of rows and any rule
# size, and how many rule sizes one chunk pads to its largest.  Of a 1024-row
# run_validation block's terms, 1 << 16 made 15% padding and this size 6%;
# it still holds 107 rows of 76 nodes, validate's largest default rule.
_TERMS_PER_CHUNK = 1 << 14


class FarFieldWarning(UserWarning):
    """Observation distance below the conventional far-field bound."""


@dataclass(frozen=True)
class IncidentWave:
    """Uniform plane wave: direction, field triad, magnitude, and medium.

    The triad must satisfy direction = e_dir x h_dir (right-handed,
    mutually orthonormal).  ``h_magnitude`` is the magnetic field magnitude
    in A/m; ``impedance_ohm`` the characteristic impedance of the medium.
    """

    direction: np.ndarray
    e_dir: np.ndarray
    h_dir: np.ndarray
    wavelength: Wavelength
    h_magnitude: float = 1.0
    impedance_ohm: float = FREE_SPACE_IMPEDANCE_OHM

    def __post_init__(self):
        a = check_unit(self.direction, "direction", tol=1e-12)
        e = check_unit(self.e_dir, "e_dir", tol=1e-12)
        h = check_unit(self.h_dir, "h_dir", tol=1e-12)
        if float(np.linalg.norm(_cross(e, h) - a)) > 1e-12:
            raise ValueError("wave triad must satisfy direction = e_dir x h_dir")
        if not self.h_magnitude > 0.0:
            raise ValueError("h_magnitude must be positive")
        if not self.impedance_ohm > 0.0:
            raise ValueError("impedance_ohm must be positive")

    @classmethod
    def from_angles(
        cls,
        angles: geometry.SphericalAngles,
        pol: geometry.PolarizationAngle | float,
        wavelength: Wavelength,
        h_magnitude: float = 1.0,
        impedance_ohm: float = FREE_SPACE_IMPEDANCE_OHM,
    ) -> "IncidentWave":
        e_dir, h_dir, a_inc = geometry.polarization_triad(angles, pol)
        return cls(a_inc, e_dir, h_dir, wavelength, h_magnitude, impedance_ohm)

    @classmethod
    def from_direction(
        cls,
        a_inc,
        pol: geometry.PolarizationAngle | float,
        wavelength: Wavelength,
        h_magnitude: float = 1.0,
        impedance_ohm: float = FREE_SPACE_IMPEDANCE_OHM,
    ) -> "IncidentWave":
        """Wave with arbitrary arrival direction.

        The polarization angle is measured against the plane spanned by the
        z axis and the arrival direction, extending the angle-based
        construction to directions outside the front half-space.
        """
        a_inc, e_dir, h_dir = geometry._wave_triads(a_inc, pol)
        return cls(a_inc, e_dir, h_dir, wavelength, h_magnitude, impedance_ohm)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor-product Gauss-Legendre rule over the plate surface."""

    nodes_per_edge: int

    def __post_init__(self):
        n = self.nodes_per_edge
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise ValueError(f"nodes_per_edge must be an integer, got {n!r}")
        if not 2 <= n <= _MAX_NODES_PER_EDGE:
            raise ValueError(f"nodes_per_edge must be between 2 and {_MAX_NODES_PER_EDGE}, got {n}")

    @classmethod
    def for_plate(cls, plate: PlateGeometry, wavelength: Wavelength) -> "QuadratureSpec":
        """Default resolution: at least 3 nodes per oscillation of the
        aperture phase term, plus a fixed safety margin."""
        return cls(int(_default_nodes(max(plate.length1, plate.length2), wavelength)))


def _default_nodes(longest, wavelength: Wavelength):
    """QuadratureSpec.for_plate's rule size for scalar or per-row longest edges."""
    return np.ceil(6.0 * longest / wavelength.meters).astype(int) + 16


@dataclass(frozen=True)
class FarFieldSample:
    """Complex spherical field components at one observation point (V/m)."""

    e_theta: complex
    e_phi: complex
    distance_m: float


def induced_current(wave: IncidentWave, normal, point) -> np.ndarray:
    """Surface current density (A/m, complex 3-vector) at a plate point.

    J = 2 * H0 * (normal x h_dir) * exp(-j*k*a_inc . point); the current is
    tangential, so J . normal = 0.  The plate is centered at the origin and
    ``point`` must lie in its plane.
    """
    n = check_unit(normal, "normal")
    point = np.asarray(point, dtype=float)
    if float(np.dot(n, wave.direction)) >= 0.0:
        raise ValueError("back-side illumination: normal . direction must be negative")
    if abs(float(np.dot(n, point))) > 1e-9 * max(1.0, float(np.linalg.norm(point))):
        raise ValueError("point does not lie in the plate plane")
    phase = np.exp(-1j * wave.wavelength.k * float(np.dot(wave.direction, point)))
    return 2.0 * wave.h_magnitude * _cross(n, wave.h_dir) * phase


def far_field_bound(plate: PlateGeometry, wavelength: Wavelength) -> float:
    """Conventional far-field distance 2*D^2/lambda with D^2 = L1^2 + L2^2."""
    return 2.0 * (plate.length1**2 + plate.length2**2) / wavelength.meters


def _legendre(x, n, starts):
    """P_n(x) and P_{n-1}(x) for nodes ``x`` of rule sizes ``n``.

    The nodes are sorted by size and those of each size begin at ``starts``,
    so each step of the three-term recurrence updates only the suffix of
    nodes whose n it has not reached.
    """
    table = np.empty((3, len(x)))  # row k % 2 holds P_k; row 2 is scratch
    table[0] = 1.0
    table[1] = x
    degree = 1
    for start in starts:
        size = int(n[start])
        xs, xp, rows = x[start:], table[2, start:], tuple(table[:2, start:])
        for k in range(degree, size):
            # P_{k+1} = x*P_k + k/(k+1) * (x*P_k - P_{k-1}), written over P_{k-1}
            new = rows[(k + 1) % 2]
            np.multiply(xs, rows[k % 2], out=xp)
            new -= xp
            new *= -k / (k + 1)
            new += xp
        degree = size
    parity, index = n.astype(int) % 2, np.arange(len(x))
    return table[parity, index], table[1 - parity, index]


_J0_ZEROS = np.array([2.404825557695773, 5.520078110286311, 8.653727912911012, 11.79153443901428,
                      14.93091770848779, 18.07106396791092, 21.21163662987926, 24.35247153074930])


def _bessel_j0_zeros(k):
    """k-th positive zeros of J_0 for float ``k`` >= 1: tabulated up to the
    8th (A&S Table 9.5), McMahon's expansion beyond (3.1e-15 relative at the
    9th, less further on)."""
    beta = (k - 0.25) * math.pi
    r = 1.0 / (8.0 * beta)
    r2 = r * r
    zeros = beta + r * (1.0 + r2 * (-124.0 / 3.0 + r2 * (120928.0 / 15.0 + r2 * (
        -401743168.0 / 105.0 + r2 * (1071187749376.0 / 315.0)))))
    tabulated = k <= len(_J0_ZEROS)
    zeros[tabulated] = np.take(_J0_ZEROS, k[tabulated].astype(int) - 1)
    return zeros


def _halley_step(x, n, starts):
    """One Halley step on P_n from the nodes ``x`` of rule sizes ``n`` (sorted,
    those of each size from ``starts``), and the weights at the stepped nodes.

    Legendre's equation (1 - x^2) P_n'' = 2x P_n' - n(n+1) P_n gives the second
    derivative from the recurrence's P_n and P_n', so the step costs one
    recurrence pass, as a Newton step does.  The weight 2/g with
    g = (1 - x^2) P_n'^2 is taken at the stepped node by a second-order Taylor
    expansion of g along the step (g'' also from Legendre's equation), so
    node rounding does not reach it.
    """
    p, p_prev = _legendre(x, n, starts)
    one_minus_sq = (1.0 - x) * (1.0 + x)
    slope = n * (p_prev - x * p) / one_minus_sq
    newton = p / slope
    nn = n * (n + 1.0)
    # Halley: newton / (1 - newton * P''/(2 P')), P''/P' from Legendre's equation
    step = newton / (1.0 - newton * (x - 0.5 * nn * newton) / one_minus_sq)
    curvature = 2.0 * x * slope - nn * p  # (1 - x^2) P''
    g = (one_minus_sq * slope * slope - step * slope * (2.0 * x * slope - 2.0 * nn * p)
         + step * step * ((1.0 - nn) * slope * slope + curvature * curvature / one_minus_sq))
    return x - step, 2.0 / g


def _gauss_legendre_table(sizes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre rules on [-1, 1] of each distinct n in ``sizes``: the
    sizes in ascending order and (sizes, largest) node and weight tables, row
    i the nodes and weights of the rule of sizes[i] in ascending node order,
    padded with zero nodes of zero weight.

    The nonnegative nodes of all sizes are solved at once, from Hale and
    Townsend's guesses (SIAM J. Sci. Comput. 35(2), 2013), by one Halley step
    (_halley_step), and mirrored.  For the k-th largest node of P_n:
    - near x = 1, where phi = j_0,k/rho < 0.8 with rho = n + 1/2, Olver's
      x = cos(phi + (phi cot phi - 1)/(8 phi rho^2));
    - elsewhere Tricomi's, to O(n^-4),
      x = (1 - (n-1)/(8n^3) - (39 - 28/sin^2 theta)/(384n^4)) cos theta with
      theta = pi(4k-1)/(4n+2).
    Rules under _TWO_STEP_SIZE nodes, whose guesses are too coarse for one
    step, take a second step.  The transcendentals are math calls and every
    other operation is elementwise within one size's nodes, so a rule is the
    same bits whatever other sizes it is built with.
    """
    # Not np.unique: its first call in a process raises peak RSS by 1.6 MB.
    sizes = np.array(sorted(set(sizes)))
    half = (sizes + 1) // 2
    starts = np.cumsum(half) - half
    n = np.repeat(sizes.astype(float), half)
    # Nonnegative nodes in ascending order: the k-th largest has index
    # j = n + 1 - 2k in (n-1) % 2, ..., n-3, n-1 and cos(theta) = sin(pi*j/(2n+1)),
    # which is 0 exactly at the middle node of an odd rule.
    j = (n - 1.0) % 2.0 + 2.0 * (np.arange(len(n)) - np.repeat(starts, half))
    rho = n + 0.5
    phi = _bessel_j0_zeros((n + 1.0 - j) * 0.5) / rho
    olver = phi < 0.8
    x = np.empty(len(n))
    phi, rho_sq = phi[olver], rho[olver] ** 2
    theta = phi + (phi / np.fromiter(map(math.tan, phi.tolist()), float, len(phi)) - 1.0) / (8.0 * phi * rho_sq)
    x[olver] = np.fromiter(map(math.cos, theta.tolist()), float, len(theta))
    tricomi = ~olver
    m, j = n[tricomi], j[tricomi]
    c = np.fromiter(map(math.sin, (math.pi * j / (2.0 * m + 1.0)).tolist()), float, len(j))
    x[tricomi] = (1.0 - (m - 1.0) / (8.0 * m**3) - (39.0 - 28.0 / ((1.0 - c) * (1.0 + c))) / (384.0 * m**4)) * c
    x, weights = _halley_step(x, n, starts)
    small = int(np.searchsorted(n, _TWO_STEP_SIZE))  # the sorted nodes' prefix of small rules
    if small:
        x[:small], weights[:small] = _halley_step(x[:small], n[:small], starts[starts < small])
    # Mirror: row i's column c is x[start + |2c - (n - 1)| // 2], negated
    # below the middle (c < half); columns past n are padding.
    cols = np.arange(sizes[-1])
    below = cols < half[:, None]
    index = starts[:, None] + np.abs(2 * cols - (sizes - 1)[:, None]) // 2
    pad = cols >= sizes[:, None]
    node_table = np.take(x, index, mode="clip")
    np.negative(node_table, out=node_table, where=below)
    node_table[pad] = 0.0
    weight_table = np.take(weights, index, mode="clip")
    weight_table[pad] = 0.0
    return sizes, node_table, weight_table


def _far_fields(lengths, frames, a_inc, h_dir, a_obs, nodes_per_edge, wavelength: Wavelength,
                h_magnitude: float, impedance_ohm: float, distance_m: float):
    """Scattered far fields (e_theta, e_phi) of a stack of plates, by surface quadrature.

    Rows are edge lengths ``lengths`` (R, 2), plate frames ``frames`` (R, 3, 3)
    with rows edge1, edge2, normal, and unit vectors ``a_inc``, ``h_dir``,
    ``a_obs`` (R, 3).  ``nodes_per_edge`` is every row's rule size, or None
    for QuadratureSpec.for_plate's per row.  Inputs are not checked.  Rows
    are summed in sorted, padded chunks; see the module docstring.

    The current J0 * exp(-j*k*a_inc . r'), re-phased toward the observer by
    exp(j*k*a_obs . r') at r' = alpha*edge1 + beta*edge2, is J0 times a phase
    linear in (alpha, beta), so its tensor-product Gauss-Legendre sum is
    exactly (J0 . theta_hat, J0 . phi_hat) * S1 * S2 with the edge sums
    S_i = sum_j (L_i/2) * w_j * exp(j*k*(L_i/2)*((a_obs - a_inc) . edge_i)*t_j);
    J0 = 2*H0*(normal x h_dir) is induced_current at the plate centre.
    """
    if nodes_per_edge is None:
        nodes = _default_nodes(lengths.max(axis=1), wavelength)
    else:
        nodes = np.full(len(lengths), nodes_per_edge)
    sizes, node_table, weight_table = _gauss_legendre_table(nodes.tolist())
    order = np.argsort(nodes, kind="stable")
    sorted_nodes = nodes[order]
    rule = np.searchsorted(sizes, sorted_nodes)
    k = wavelength.k
    half = 0.5 * lengths
    phase = k * half * np.vecdot((a_obs - a_inc)[:, None], frames[:, :2])
    sums = np.empty(lengths.shape, dtype=complex)
    start = 0
    while start < len(order):
        # The most rows from ``start`` whose 2 edges x (their largest rule) terms fit a chunk.
        fits = np.arange(1, len(order) - start + 1) * sorted_nodes[start:] <= _TERMS_PER_CHUNK // 2
        stop = start + max(1, int(np.count_nonzero(fits)))
        part, width = order[start:stop], sorted_nodes[stop - 1]
        t, w = node_table[rule[start:stop], :width], weight_table[rule[start:stop], :width]
        # exp(j*phase*t) from a complex array built in place (1j * x is a full
        # complex product), then scaled by the real (L/2)*w part by part.
        terms = np.zeros((stop - start, 2, width), dtype=complex)
        np.multiply(phase[part, :, None], t[:, None], out=terms.imag)
        np.exp(terms, out=terms)
        scale = half[part, :, None] * w[:, None]
        terms.real *= scale
        terms.imag *= scale
        # Summed in node order, so a row's padding adds exact zeros after its
        # own terms and the row has the same bits in any chunk; np.sum's
        # pairwise order would depend on the padded length.
        sums[part] = np.add.accumulate(terms, axis=-1)[..., -1]
        start = stop
    theta_hat, phi_hat = geometry._spherical_frames(a_obs)
    current = 2.0 * h_magnitude * _cross(frames[:, 2], h_dir)
    aperture = sums[:, 0] * sums[:, 1]
    field = aperture * -1j * k * impedance_ohm * np.exp(-1j * k * distance_m) / (4.0 * math.pi * distance_m)
    return field * np.vecdot(current, theta_hat), field * np.vecdot(current, phi_hat)


def _po_sigmas(lengths, frames, a_inc, h_dir, a_obs, nodes_per_edge, wavelength: Wavelength,
               h_magnitude=1.0, impedance_ohm=FREE_SPACE_IMPEDANCE_OHM, distance_m=1000.0) -> np.ndarray:
    """po_rcs of a stack of plates; the arguments are _far_fields's."""
    e_theta, e_phi = _far_fields(lengths, frames, a_inc, h_dir, a_obs, nodes_per_edge, wavelength,
                                 h_magnitude, impedance_ohm, distance_m)
    # np.hypot is the scalar abs(); numpy's vectorized complex abs may differ from it in the last bit.
    scattered = np.square(np.hypot(e_theta.real, e_theta.imag)) + np.square(np.hypot(e_phi.real, e_phi.imag))
    return 4.0 * math.pi * distance_m**2 * scattered / (impedance_ohm * h_magnitude) ** 2


def _one_row(plate: PlateGeometry, wave: IncidentWave, a_obs, distance_m: float, quad: QuadratureSpec):
    """Check one scenario and return it as the arguments of _far_fields."""
    a_obs = check_unit(a_obs, "a_obs")
    if not distance_m > 0.0:
        raise ValueError("observation distance must be positive")
    if float(np.dot(plate.normal, wave.direction)) >= 0.0:
        raise ValueError("back-side illumination: normal . direction must be negative")
    if distance_m < far_field_bound(plate, wave.wavelength):
        warnings.warn(
            f"observation distance {distance_m} m is inside the conventional "
            "far-field bound; results follow the far-field expressions anyway",
            FarFieldWarning,
            stacklevel=3,
        )
    frame = np.stack([plate.edge1, plate.edge2, plate.normal])
    return (np.array([[plate.length1, plate.length2]]), frame[None], wave.direction[None], wave.h_dir[None],
            a_obs[None], quad.nodes_per_edge, wave.wavelength, wave.h_magnitude, wave.impedance_ohm, distance_m)


def po_far_field(
    plate: PlateGeometry, wave: IncidentWave, a_obs, distance_m: float, quad: QuadratureSpec
) -> FarFieldSample:
    """Scattered far field at an observation direction, by surface quadrature."""
    e_theta, e_phi = _far_fields(*_one_row(plate, wave, a_obs, distance_m, quad))
    return FarFieldSample(e_theta[0], e_phi[0], distance_m)


def po_rcs(
    plate: PlateGeometry,
    wave: IncidentWave,
    a_obs,
    quad: QuadratureSpec | None = None,
    distance_m: float = 1000.0,
) -> float:
    """RCS from the quadrature far field (m^2).

    sigma = 4*pi*d^2 * (|E_theta|^2 + |E_phi|^2) / (eta^2 * H0^2); the 1/d
    decay of the far-field expressions cancels the 4*pi*d^2 normalization
    exactly, so the result does not depend on ``distance_m`` (or on the
    incident magnitude, which cancels the same way).
    """
    if quad is None:
        quad = QuadratureSpec.for_plate(plate, wave.wavelength)
    return float(_po_sigmas(*_one_row(plate, wave, a_obs, distance_m, quad))[0])
