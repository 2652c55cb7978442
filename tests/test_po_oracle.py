import cmath
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from conftest import EX, EY, EZ, deg, random_rotation, random_unit
from platekit import (
    FarFieldWarning,
    IncidentWave,
    PlateGeometry,
    PolarizationAngle,
    QuadratureSpec,
    SphericalAngles,
    induced_current,
    po_far_field,
    po_rcs,
    rcs,
    sigma_max,
    spherical_unit_vectors,
)
from platekit import po_oracle
from platekit.po_oracle import (
    _MAX_NODES_PER_EDGE,
    _default_nodes,
    _gauss_legendre_table,
    far_field_bound,
)
from platekit.validate import random_scenario


def _wave(theta_t_deg, phi_t_deg, pol_deg, wl, h0=1.0, **kwargs):
    return IncidentWave.from_angles(
        SphericalAngles.from_degrees(theta_t_deg, phi_t_deg),
        PolarizationAngle.from_degrees(pol_deg),
        wl,
        h_magnitude=h0,
        **kwargs,
    )


def test_incident_wave_validation(wl_3ghz):
    with pytest.raises(ValueError):
        IncidentWave(-EZ, EX, EX, wl_3ghz)  # e_dir and h_dir not orthogonal
    with pytest.raises(ValueError):
        IncidentWave(-EZ, EX, EY, wl_3ghz)  # cross(e, h) = +ez, not the direction
    wave = IncidentWave(-EZ, EX, -EY, wl_3ghz)
    assert np.allclose(np.cross(wave.e_dir, wave.h_dir), wave.direction)


def test_quadrature_spec_minimum(wl_3ghz, plate_5wl):
    with pytest.raises(ValueError):
        QuadratureSpec(1)
    q = QuadratureSpec.for_plate(plate_5wl, wl_3ghz)
    assert q.nodes_per_edge == math.ceil(6 * 5) + 16


@pytest.mark.parametrize("nodes", [30.0, True, "30", None, _MAX_NODES_PER_EDGE + 1, 2049, 10**7])
def test_quadrature_spec_rejects_non_integer_and_oversized(nodes):
    with pytest.raises(ValueError, match="nodes_per_edge"):
        QuadratureSpec(nodes)


def test_quadrature_spec_bounds(wl_3ghz):
    assert QuadratureSpec(np.int64(30)).nodes_per_edge == 30
    assert QuadratureSpec(_MAX_NODES_PER_EDGE).nodes_per_edge == _MAX_NODES_PER_EDGE
    lam = wl_3ghz.meters
    with pytest.raises(ValueError, match="nodes_per_edge"):
        QuadratureSpec.for_plate(PlateGeometry.xy_plane(400 * lam, lam), wl_3ghz)


def _rules(sizes) -> dict:
    """{n: (nodes, weights)} of each distinct n in ``sizes``, in ascending n:
    the rows of one _gauss_legendre_table, each sliced to its n nodes."""
    sizes, node_table, weight_table = _gauss_legendre_table(sizes)
    return {int(m): (t[:m], w[:m]) for m, t, w in zip(sizes, node_table, weight_table)}


def _rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point rule, alone in its table."""
    return _rules([n])[n]


@pytest.mark.parametrize("n", [2, 3, 19, 57, 76, 300])
def test_gauss_legendre_rule(n):
    t, w = _rule(n)
    ref_t, ref_w = leggauss(n)
    assert np.max(np.abs(t - ref_t)) <= 1e-10 and np.max(np.abs(w - ref_w)) <= 1e-10
    for degree in range(2 * n):
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        assert abs(np.sum(w * t**degree) - exact) <= 1e-13, degree


def _reference_rule(n):
    """Nonnegative nodes and their weights of the n-point rule to 40 digits:
    two Newton steps on the Legendre recurrence in decimal, from leggauss's
    nodes (about 1e-16 off, so the first step leaves about 1e-26)."""
    with localcontext() as ctx:
        ctx.prec = 40
        ratios = [Decimal(k) / (k + 1) for k in range(n)]
        nodes, weights = [], []
        for seed in leggauss(n)[0][n // 2 :]:
            x = Decimal(float(seed))
            for _ in range(2):
                p_prev, p = Decimal(1), x
                for k in range(1, n):
                    xp = x * p
                    p_prev, p = p, xp + ratios[k] * (xp - p_prev)
                slope = n * (p_prev - x * p) / (1 - x * x)
                weight = 2 / ((1 - x * x) * slope * slope)
                x -= p / slope
            nodes.append(x)
            weights.append(weight)
    return nodes, weights


# Golub-Welsch (dense eigh of the Jacobi matrix) errors against the same
# reference: largest node error 5.7e-16 over these n, and the largest relative
# weight error per n (at n = 2 and 3, the n = 3 figure).
_GOLUB_WELSCH_WEIGHT_ERROR = {2: 4.3e-16, 3: 4.3e-16, 19: 2.8e-14, 76: 3.1e-13, 128: 7.8e-13, 512: 4.6e-12}


@pytest.mark.parametrize("n", sorted(_GOLUB_WELSCH_WEIGHT_ERROR))
def test_gauss_legendre_rule_against_40_digit_reference(n):
    """The Newton rule is at least as accurate as the Golub-Welsch rule it replaced."""
    ref_t, ref_w = _reference_rule(n)
    with localcontext() as ctx:
        ctx.prec = 40
        # Each seed found its own root: the mirrored weights sum to 2.
        assert abs(2 * sum(ref_w) - (ref_w[0] if n % 2 else 0) - 2) < Decimal("1e-25")
    t, w = _rule(n)
    assert len(t) == len(w) == n
    node_error = max(abs(Decimal(float(a)) - b) for a, b in zip(t[n // 2 :], ref_t, strict=True))
    weight_error = max(abs(Decimal(float(a)) / b - 1) for a, b in zip(w[n // 2 :], ref_w, strict=True))
    assert node_error <= Decimal("5.7e-16")
    assert weight_error <= Decimal(_GOLUB_WELSCH_WEIGHT_ERROR[n])
    # The rule is symmetric, bit for bit.
    assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])


# Golub-Welsch relative weight errors, as above, at the sizes from the
# smallest one Halley step solves (_TWO_STEP_SIZE) to the automatic rule's
# smallest, and at two large sizes.  Its node errors there are 1.4e-16 to 6.4e-16.
_ONE_STEP_GOLUB_WELSCH_WEIGHT_ERROR = {
    8: 2.5e-15, 9: 1.9e-15, 10: 3.6e-15, 11: 3.6e-15, 12: 6.4e-15, 13: 1.1e-14, 14: 1.6e-14,
    15: 1.8e-14, 16: 1.1e-14, 17: 9.0e-15, 18: 9.3e-15, 200: 2.2e-12, 400: 6.0e-12,
}


@pytest.mark.parametrize("n", sorted(_ONE_STEP_GOLUB_WELSCH_WEIGHT_ERROR))
def test_one_step_rule_against_40_digit_reference(n):
    """A rule one Halley step solves from its asymptotic guess has every node
    within half an ulp of 1 of the 40-digit reference and weights at least as
    accurate as Golub-Welsch."""
    assert n >= po_oracle._TWO_STEP_SIZE
    ref_t, ref_w = _reference_rule(n)
    t, w = _rule(n)
    with localcontext() as ctx:
        ctx.prec = 40
        node_error = max(abs(Decimal(float(a)) - b) for a, b in zip(t[n // 2 :], ref_t, strict=True))
        weight_error = max(abs(Decimal(float(a)) / b - 1) for a, b in zip(w[n // 2 :], ref_w, strict=True))
    assert node_error <= Decimal("1.1e-16")
    assert weight_error <= Decimal(_ONE_STEP_GOLUB_WELSCH_WEIGHT_ERROR[n])
    assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])


def test_gauss_legendre_rules_against_40_digit_reference_over_automatic_sizes(wl_3ghz):
    """Every size the automatic rule picks for validate's 0.5-10 wavelength
    edges.  Over these sizes the four-step Newton rule this one replaced was
    at most 6.9e-17 off in a node and 4.9e-14 in relative weight, and the
    Halley rule 7.6e-17 and 2.7e-14: the node bound is half an ulp of 1, and
    the weight bound keeps the rule at least as accurate as the Newton one."""
    lo, hi = _default_nodes(np.array([0.5, 10.0]) * wl_3ghz.meters, wl_3ghz).tolist()
    assert (lo, hi) == (19, 76)
    rules = _rules(range(lo, hi + 1))
    node_error = weight_error = Decimal(0)
    with localcontext() as ctx:
        ctx.prec = 40
        for n, (t, w) in rules.items():
            ref_t, ref_w = _reference_rule(n)
            node_error = max(node_error, *(abs(Decimal(float(a)) - b) for a, b in zip(t[n // 2 :], ref_t)))
            weight_error = max(weight_error, *(abs(Decimal(float(a)) / b - 1) for a, b in zip(w[n // 2 :], ref_w)))
    assert node_error <= Decimal("1.1e-16")
    assert weight_error <= Decimal("5e-14")


@pytest.mark.parametrize("sizes", [[2], [3, 76], list(range(19, 77)), list(range(2, _MAX_NODES_PER_EDGE + 1, 17))])
def test_gauss_legendre_rules_make_two_recurrence_passes(monkeypatch, sizes):
    """At most two recurrence passes build any batch of rules: from the
    asymptotic guesses one Halley step, one pass over every nonnegative node;
    only the rules under _TWO_STEP_SIZE = 8 nodes take the second pass, over
    their own nodes alone, so a batch with none of them makes just the first."""
    passes = []
    legendre = po_oracle._legendre
    monkeypatch.setattr(po_oracle, "_legendre", lambda x, n, starts: passes.append(n) or legendre(x, n, starts))
    assert list(_rules(sizes)) == sorted(sizes)
    assert po_oracle._TWO_STEP_SIZE == 8
    nonnegative = [(m + 1) // 2 for m in sizes]
    small = [(m + 1) // 2 for m in sizes if m < 8]
    assert [len(n) for n in passes] == [sum(nonnegative)] + ([sum(small)] if small else [])
    if small:
        assert passes[1].max() < 8  # at most 7 recurrence steps


def test_gauss_legendre_rule_independent_of_its_batch():
    """A size's rule is the same bits alone as built together with other sizes,
    so one-row po_rcs queries equal rows of a stacked validate block."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    sizes = st.integers(2, _MAX_NODES_PER_EDGE)

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @hypothesis.given(n=sizes, others=st.lists(sizes, max_size=8))
    def check(n, others):
        alone = _rule(n)
        batch = _rules(others + [n])
        assert list(batch) == sorted(set(others + [n]))
        for got, want in zip(batch[n], alone):
            assert got.tobytes() == want.tobytes()

    check()


def test_induced_current_examples(wl_3ghz):
    wave = IncidentWave(-EZ, EY, EX, wl_3ghz)  # h along +x at normal incidence
    j0 = induced_current(wave, EZ, np.zeros(3))
    assert np.allclose(j0, [0.0, 2.0, 0.0], atol=1e-15)
    # transverse offset leaves the phase unchanged at normal incidence
    j1 = induced_current(wave, EZ, np.array([wl_3ghz.meters / 2, 0.0, 0.0]))
    assert np.allclose(j1, j0, atol=1e-15)
    assert abs(np.dot(j0, EZ)) == 0.0
    with pytest.raises(ValueError):
        induced_current(wave, -EZ, np.zeros(3))  # back-side
    with pytest.raises(ValueError):
        induced_current(wave, EZ, np.array([0.0, 0.0, 0.5]))  # off-plane point


def test_induced_current_oblique_phase(wl_3ghz):
    wave = _wave(45, 270, 90, wl_3ghz)
    point = wl_3ghz.meters * EY  # along edge2 of an x-y plate
    j = induced_current(wave, EZ, point)
    # phase exp(-j*k*a_inc.r'): a_inc.r' = +lambda*sin(45deg)
    expected_phase = cmath.exp(-1j * 2 * math.pi * math.sin(deg(45)))
    const = 2.0 * np.cross(EZ, wave.h_dir)
    assert np.allclose(j, const * expected_phase, atol=1e-12)
    # phase magnitude 2*pi*sin(45 deg) = 4.4429 rad (wrapped to (-pi, pi])
    assert abs(cmath.phase(expected_phase)) == pytest.approx(2 * math.pi - 4.4429, abs=5e-4)


def test_far_field_null_configuration(wl_3ghz, plate_5wl):
    # normal incidence with h along x observed along y: projections vanish
    wave = IncidentWave(-EZ, EY, EX, wl_3ghz)
    q = QuadratureSpec.for_plate(plate_5wl, wl_3ghz)
    null = po_far_field(plate_5wl, wave, EY, 1000.0, q)
    peak = po_far_field(plate_5wl, wave, EZ, 1000.0, q)
    p_null = abs(null.e_theta) ** 2 + abs(null.e_phi) ** 2
    p_peak = abs(peak.e_theta) ** 2 + abs(peak.e_phi) ** 2
    assert p_null <= 1e-20 * p_peak


def test_far_field_matches_analytic_integral(wl_3ghz, plate_5wl):
    """At 64 nodes the quadrature reproduces the separable closed-form field."""
    wave = IncidentWave(-EZ, EY, EX, wl_3ghz)
    d = 1000.0
    q = QuadratureSpec(64)
    sample = po_far_field(plate_5wl, wave, EZ, d, q)
    k = wl_3ghz.k
    theta_hat, phi_hat = spherical_unit_vectors(EZ)
    u = 2.0 * np.cross(EZ, wave.h_dir)
    area = plate_5wl.length1 * plate_5wl.length2  # sinc product is 1 at specular
    pref = -1j * k * wave.impedance_ohm * cmath.exp(-1j * k * d) / (4 * math.pi * d)
    expected_theta = pref * float(np.dot(u, theta_hat)) * area
    expected_phi = pref * float(np.dot(u, phi_hat)) * area
    assert abs(sample.e_theta - expected_theta) <= 1e-10 * abs(expected_theta)
    assert abs(sample.e_phi - expected_phi) <= 1e-10 * abs(pref * area)


def test_po_rcs_matches_closed_form_cut(wl_3ghz, plate_5wl):
    wave = _wave(45, 270, 0, wl_3ghz)
    sigma = po_rcs(plate_5wl, wave, EZ)
    assert sigma == pytest.approx(0.62787, abs=5e-5)
    closed = rcs(plate_5wl, wave.direction, wave.h_dir, EZ, wl_3ghz).sigma_m2
    assert sigma == pytest.approx(closed, rel=1e-8)


def test_po_rcs_polarization_null(wl_3ghz, plate_5wl):
    # h along +x makes (normal x h) point along +y: both spherical
    # projections at an observer on +y vanish identically
    wave = IncidentWave(-EZ, EY, EX, wl_3ghz)
    sigma = po_rcs(plate_5wl, wave, EY)
    assert sigma <= 1e-20 * sigma_max(plate_5wl, wl_3ghz)


def test_po_rcs_random_agreement(wl_3ghz):
    rng = np.random.default_rng(53)
    lam = wl_3ghz.meters
    for _ in range(25):
        plate = PlateGeometry.xy_plane(
            float(rng.uniform(0.5, 10)) * lam, float(rng.uniform(0.5, 10)) * lam
        ).rotated(random_rotation(rng))
        while True:
            a_inc = random_unit(rng)
            if np.dot(plate.normal, a_inc) < -1e-3:
                break
        wave = IncidentWave.from_direction(a_inc, float(rng.uniform(1e-6, 2 * math.pi)), wl_3ghz)
        while True:
            a_obs = random_unit(rng)
            if np.dot(plate.normal, a_obs) > 1e-3:
                break
        closed = rcs(plate, wave.direction, wave.h_dir, a_obs, wl_3ghz).sigma_m2
        po = po_rcs(plate, wave, a_obs)
        assert po == pytest.approx(closed, rel=1e-8, abs=1e-16 * sigma_max(plate, wl_3ghz))


def test_distance_and_magnitude_independence(wl_3ghz, plate_5wl):
    wave = _wave(25, 270, 90, wl_3ghz)
    q = QuadratureSpec.for_plate(plate_5wl, wl_3ghz)
    a_obs = np.array([0.0, math.sin(deg(25)), math.cos(deg(25))])
    near = po_rcs(plate_5wl, wave, a_obs, q, distance_m=1e3)
    far = po_rcs(plate_5wl, wave, a_obs, q, distance_m=1e6)
    assert near == pytest.approx(far, rel=1e-12)
    strong = IncidentWave(wave.direction, wave.e_dir, wave.h_dir, wl_3ghz, h_magnitude=10.0)
    assert po_rcs(plate_5wl, strong, a_obs, q) == pytest.approx(near, rel=1e-12)


@pytest.mark.parametrize("h_magnitude, impedance_ohm", [(1e-150, 1e-150), (1e-100, 1e-100), (1e150, 1e150)])
def test_incident_wave_rejects_a_field_product_whose_square_leaves_float64(wl_3ghz, h_magnitude, impedance_ohm):
    """Each value alone is in range, but po_rcs divides by the square of
    their product, which underflows or overflows: NaN before the check."""
    with pytest.raises(ValueError, match=r"impedance_ohm \* h_magnitude must be positive and finite"):
        _wave(25, 270, 90, wl_3ghz, h0=h_magnitude, impedance_ohm=impedance_ohm)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("h_magnitude, impedance_ohm", [(1e-150, 1e150), (1e150, 1e-150)])
def test_po_rcs_takes_extreme_fields_whose_product_is_in_range(wl_3ghz, plate_5wl, h_magnitude, impedance_ohm):
    a_obs = np.array([0.0, math.sin(deg(25)), math.cos(deg(25))])
    wave = _wave(25, 270, 90, wl_3ghz, h0=h_magnitude, impedance_ohm=impedance_ohm)
    default = po_rcs(plate_5wl, _wave(25, 270, 90, wl_3ghz), a_obs)
    assert po_rcs(plate_5wl, wave, a_obs) == pytest.approx(default, rel=1e-15)


def test_quadrature_convergence(wl_3ghz, plate_5wl):
    wave = _wave(45, 270, 45, wl_3ghz)
    a_obs = np.array([math.sin(deg(20)), 0.0, math.cos(deg(20))])
    base_nodes = QuadratureSpec.for_plate(plate_5wl, wl_3ghz).nodes_per_edge
    coarse = po_rcs(plate_5wl, wave, a_obs, QuadratureSpec(base_nodes))
    fine = po_rcs(plate_5wl, wave, a_obs, QuadratureSpec(2 * base_nodes))
    assert fine == pytest.approx(coarse, rel=1e-9)


def test_phase_integral_identity(wl_3ghz):
    """Tensor quadrature of the aperture phase term equals the separable
    sinc-product closed form, for random geometries."""
    rng = np.random.default_rng(59)
    lam = wl_3ghz.meters
    k = wl_3ghz.k
    for _ in range(100):
        plate = PlateGeometry.xy_plane(
            float(rng.uniform(0.5, 8)) * lam, float(rng.uniform(0.5, 8)) * lam
        ).rotated(random_rotation(rng))
        a_inc = -random_unit(rng)
        a_obs = random_unit(rng)
        d = a_obs - a_inc
        n = QuadratureSpec.for_plate(plate, wl_3ghz).nodes_per_edge
        t1, w1 = leggauss(n)
        t2, w2 = leggauss(n)
        alpha = 0.5 * plate.length1 * t1
        beta = 0.5 * plate.length2 * t2
        pts = alpha[:, None, None] * plate.edge1 + beta[None, :, None] * plate.edge2
        w2d = (0.5 * plate.length1 * w1)[:, None] * (0.5 * plate.length2 * w2)[None, :]
        integral = np.sum(w2d * np.exp(1j * k * (pts @ d)))
        x1 = 0.5 * k * plate.length1 * float(np.dot(d, plate.edge1))
        x2 = 0.5 * k * plate.length2 * float(np.dot(d, plate.edge2))
        s1 = math.sin(x1) / x1 if abs(x1) > 1e-9 else 1.0
        s2 = math.sin(x2) / x2 if abs(x2) > 1e-9 else 1.0
        analytic = plate.length1 * plate.length2 * s1 * s2
        assert abs(integral - analytic) <= 1e-10 * plate.length1 * plate.length2


def test_far_field_warning(wl_3ghz, plate_5wl):
    wave = _wave(0, 0, 90, wl_3ghz)
    bound = far_field_bound(plate_5wl, wl_3ghz)
    q = QuadratureSpec(8)
    with pytest.warns(FarFieldWarning):
        po_far_field(plate_5wl, wave, EZ, 0.5 * bound, q)


def _tensor_product_far_field(plate, wave, a_obs, distance_m, quad):
    """Reference: the n x n tensor-product sum over the explicit current
    vector at every node.

    Returns (e_theta, e_phi) and, per component, the sum of the magnitudes
    of the summed terms: the scale against which rounding in a cancelling
    sum is measured.
    """
    k = wave.wavelength.k
    t1, w1 = leggauss(quad.nodes_per_edge)
    t2, w2 = leggauss(quad.nodes_per_edge)
    alpha = 0.5 * plate.length1 * t1
    beta = 0.5 * plate.length2 * t2
    weights = (0.5 * plate.length1 * w1)[:, None] * (0.5 * plate.length2 * w2)[None, :]
    pts = alpha[:, None, None] * plate.edge1 + beta[None, :, None] * plate.edge2
    current_const = 2.0 * wave.h_magnitude * np.cross(plate.normal, wave.h_dir)
    inc_phase = np.exp(-1j * k * (pts @ wave.direction))
    currents = current_const[None, None, :] * inc_phase[:, :, None]
    theta_hat, phi_hat = spherical_unit_vectors(a_obs)
    obs_phase = np.exp(1j * k * (pts @ a_obs))
    terms_theta = weights * (currents @ theta_hat) * obs_phase
    terms_phi = weights * (currents @ phi_hat) * obs_phase
    prefactor = -1j * k * wave.impedance_ohm * np.exp(-1j * k * distance_m) / (
        4.0 * math.pi * distance_m
    )
    fields = prefactor * complex(np.sum(terms_theta)), prefactor * complex(np.sum(terms_phi))
    scales = abs(prefactor) * np.sum(np.abs(terms_theta)), abs(prefactor) * np.sum(np.abs(terms_phi))
    return fields, scales


# None: the default rule of each plate (26-76 nodes); 2-8 nodes leave the
# sum far from the closed form, so agreement there shows the factored sum is
# the tensor-product sum itself, not merely a sum converging to the same limit.
# Near a sinc null the sum cancels to a small fraction of its terms, so the
# difference is measured against the magnitude of the terms (at most 1.2e-14
# of it over seeds 5, 7 and 61; against the cancelled result up to 1.1e-9).
@pytest.mark.parametrize("nodes", [None, 2, 3, 5, 8])
def test_factored_sum_equals_tensor_product_sum(wl_3ghz, nodes):
    rng = np.random.default_rng(61)
    for _ in range(200):
        plate, wave, a_obs = random_scenario(rng, wl_3ghz)
        quad = QuadratureSpec.for_plate(plate, wl_3ghz) if nodes is None else QuadratureSpec(nodes)
        sample = po_far_field(plate, wave, a_obs, 1000.0, quad)
        (e_theta, e_phi), (scale_theta, scale_phi) = _tensor_product_far_field(
            plate, wave, a_obs, 1000.0, quad)
        assert abs(sample.e_theta - e_theta) <= 1e-12 * scale_theta
        assert abs(sample.e_phi - e_phi) <= 1e-12 * scale_phi


def test_po_rcs_rotation_invariance(wl_3ghz):
    """Rotating the plate, the wave and the observer together leaves po_rcs unchanged."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(seed=st.integers(0, 2**32 - 1), turn=st.integers(0, 2**32 - 1))
    def check(seed, turn):
        plate, wave, a_obs = random_scenario(np.random.default_rng(seed), wl_3ghz)
        r = random_rotation(np.random.default_rng(turn))
        turned = IncidentWave(r @ wave.direction, r @ wave.e_dir, r @ wave.h_dir, wl_3ghz)
        sigma = po_rcs(plate, wave, a_obs)
        assert po_rcs(plate.rotated(r), turned, r @ a_obs) == pytest.approx(
            sigma, rel=1e-9, abs=1e-14 * sigma_max(plate, wl_3ghz))

    check()


def test_wave_triads_hold_next_to_the_z_axis(wl_3ghz):
    """Arrival directions 1e-12 to 1e-3 rad from +z or -z, at any polarization:
    the triad error |e_dir x h_dir - direction| stays within a few ulps.  With
    theta taken back from acos(d_z), which keeps half the digits there, it
    reached 2.4e-11 at 1e-6 rad and from_direction raised."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        off_axis=st.floats(1e-12, 1e-3),
        azimuth=st.floats(0.0, 2.0 * math.pi),
        pole=st.sampled_from([1.0, -1.0]),
        pol=st.floats(0.0, 2.0 * math.pi),
    )
    def check(off_axis, azimuth, pole, pol):
        s = math.sin(off_axis)
        a_inc = np.array([s * math.cos(azimuth), s * math.sin(azimuth), pole * math.cos(off_axis)])
        wave = IncidentWave.from_direction(a_inc, pol, wl_3ghz)
        assert np.linalg.norm(np.cross(wave.e_dir, wave.h_dir) - wave.direction) <= 4 * np.finfo(float).eps
        theta_hat, phi_hat = spherical_unit_vectors(-wave.direction)
        assert abs(np.dot(theta_hat, wave.direction)) <= 4 * np.finfo(float).eps
        assert abs(np.dot(phi_hat, wave.direction)) <= 4 * np.finfo(float).eps

    check()


def test_mixed_rule_sizes_equal_one_row_queries(wl_3ghz):
    """A stack mixing default rule sizes from 19 to 512 nodes, summed in sorted
    chunks padded to their largest rule, equals bit for bit the one-row
    po_rcs of each row.  run_validation's 0.5-10 wavelength plates never
    reach past 76 nodes; these edges are set explicitly, and the 60 rows
    span several chunks."""
    lam = wl_3ghz.meters
    longest = np.linspace(0.5, (_MAX_NODES_PER_EDGE - 16) / 6.0, 60) * lam
    rng = np.random.default_rng(29)
    rng.shuffle(longest)
    plates, waves, observers = [], [], []
    for i, edge in enumerate(longest):
        plate, wave, a_obs = random_scenario(rng, wl_3ghz)
        short = edge * rng.uniform(0.1, 1.0)
        l1, l2 = (edge, short) if i % 2 else (short, edge)
        plates.append(PlateGeometry(l1, l2, plate.normal, plate.edge1, plate.edge2))
        waves.append(wave)
        observers.append(a_obs)
    nodes = _default_nodes(longest, wl_3ghz)
    assert nodes.min() == 19 and nodes.max() == _MAX_NODES_PER_EDGE
    assert 2 * nodes.sum() > po_oracle._TERMS_PER_CHUNK  # more than one chunk
    stacked = po_oracle._po_sigmas(
        np.array([[p.length1, p.length2] for p in plates]),
        np.array([[p.edge1, p.edge2, p.normal] for p in plates]),
        np.array([w.direction for w in waves]),
        np.array([w.h_dir for w in waves]),
        np.array(observers),
        None,
        wl_3ghz,
        distance_m=1e5,
    )
    for i, (plate, wave, a_obs) in enumerate(zip(plates, waves, observers)):
        assert po_rcs(plate, wave, a_obs, distance_m=1e5) == stacked[i], i
