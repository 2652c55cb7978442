import numpy as np
import pytest

from conftest import random_rotation, random_unit, traced_memory
from platekit import QuadratureSpec, Wavelength, po_oracle, po_rcs, rcs, run_validation, validate
from platekit.geometry import PolarizationAngle
from platekit.validate import _draw_scenarios, _evaluate_block, random_scenario


@pytest.mark.parametrize("trials", [True, False, 2.5, 3.0, "3", 0, -1])
def test_run_validation_rejects_malformed_trials(trials):
    with pytest.raises(ValueError, match="trials must be a positive integer"):
        run_validation(trials, 1)


@pytest.mark.parametrize("nodes", [30.0, True, 1, 513, 2049])
def test_run_validation_rejects_bad_rule_before_any_trial(nodes):
    with pytest.raises(ValueError, match="nodes_per_edge"):
        run_validation(1, 1, nodes_per_edge=nodes)


def test_run_validation_fixed_rule():
    report = run_validation(np.int64(3), 5, nodes_per_edge=np.int64(80))
    assert report.trials == 3 and report.nodes_per_edge == 80
    assert report.passed and report.max_rel_error < 1e-8
    assert report.lines()[0] == "trials=3 seed=5 nodes_per_edge=80"


def test_stacked_rows_equal_scalar_queries():
    """Each row of a stacked block is, bit for bit, the scalar rcs() and
    po_rcs() of the scenario random_scenario draws from the same stream: per
    row plate frames, waves, observers and rule sizes included."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 24),
        freq_hz=st.sampled_from([1e9, 2.4e9, 3e9, 7.5e9]),
        nodes=st.one_of(st.none(), st.integers(2, 96)),
    )
    # Rows 363 and 384 of this stream square a sinc value whose libm
    # pow(x, 2) is one ulp off x * x.
    @hypothesis.example(seed=20240301, count=400, freq_hz=3e9, nodes=None)
    def check(seed, count, freq_hz, nodes):
        wl = Wavelength.from_frequency(freq_hz)
        block_rng = np.random.default_rng(seed)
        closed, _, po = _evaluate_block(block_rng, count, wl, nodes)
        rng = np.random.default_rng(seed)
        for i in range(count):
            plate, wave, a_obs = random_scenario(rng, wl)
            assert rcs(plate, wave.direction, wave.h_dir, a_obs, wl).sigma_m2 == closed[i]
            quad = None if nodes is None else QuadratureSpec(nodes)
            assert po_rcs(plate, wave, a_obs, quad) == po[i]
        assert block_rng.bit_generator.state == rng.bit_generator.state

    check()


def test_run_validation_measures_an_exact_null_against_sigma_max(monkeypatch):
    """A row whose closed form is exactly 0 is reported relative to its
    sigma_max, the others relative to the closed form, in trial order."""
    closed, smax, po = np.array([1.0, 0.0, 4.0]), np.array([8.0, 1e20, 8.0]), np.array([1.0 + 2**-40, 1e6, 4.0])
    monkeypatch.setattr(validate, "_evaluate_block", lambda rng, count, wl, nodes: (closed, smax, po))
    report = run_validation(3, 1)
    assert (report.max_rel_error, report.worst.index) == (2**-40, 0)
    assert report.mean_rel_error == (2**-40 + 1e-14) / 3


# 7 trials per block does not divide 40; one row per quadrature chunk; a
# chunk holding every row at once.
@pytest.mark.parametrize("trials_per_block, terms_per_chunk", [(7, 1 << 16), (1024, 1), (1024, 1 << 40)])
def test_run_validation_independent_of_blocking(monkeypatch, trials_per_block, terms_per_chunk):
    reference = run_validation(40, 7).lines()
    monkeypatch.setattr(validate, "_TRIALS_PER_BLOCK", trials_per_block)
    monkeypatch.setattr(po_oracle, "_TERMS_PER_CHUNK", terms_per_chunk)
    assert run_validation(40, 7).lines() == reference


def test_run_validation_memory_is_bounded():
    # At the largest rule all 2000 trials' edge sums at once would take
    # 2000 x 2 x 512 complex terms, 33 MB per temporary.
    run_validation(2, 3, nodes_per_edge=512)  # warm up lazily allocated state
    peaks = []
    for trials in (500, 2000):
        _, (_, peak) = traced_memory(run_validation, trials, 3, nodes_per_edge=512)
        peaks.append(peak)
    assert max(peaks) <= 12e6
    assert peaks[1] <= peaks[0] + 1e6


# The scenario draw as written with numpy's scalar calls (conftest's rotation
# and unit vector are the ones it used): the reference the draw must
# reproduce bit for bit.
def reference_draw(rng, lam):
    l1 = float(rng.uniform(0.5, 10.0)) * lam
    l2 = float(rng.uniform(0.5, 10.0)) * lam
    frame = random_rotation(rng).T.copy()
    while True:
        a_inc = random_unit(rng)
        if float(np.dot(frame[2], a_inc)) < -1e-6:
            break
    varphi = PolarizationAngle(float(rng.uniform(0.0, 2.0 * np.pi))).varphi
    while True:
        a_obs = random_unit(rng)
        if float(np.dot(frame[2], a_obs)) > 1e-6:
            break
    return l1, l2, frame, a_inc, varphi, a_obs


def assert_draws_match_reference(seed, trials, lam):
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert_block_matches_reference(rng, reference_rng, trials, lam)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def assert_block_matches_reference(rng, reference_rng, trials, lam):
    """Row i of one block draw of ``trials`` scenarios has the bits of the
    i-th reference_draw, column by column."""
    block = _draw_scenarios(rng, trials, lam)
    for i in range(trials):
        for column, want in zip(block, reference_draw(reference_rng, lam), strict=True):
            got, want = column[i], np.asarray(want)
            assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())


def test_draw_matches_reference_on_criterion_1_stream():
    assert_draws_match_reference(20240301, 1000, Wavelength.from_frequency(3e9).meters)


def test_draw_matches_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        seed=st.integers(0, 2**64 - 1),
        trials=st.integers(1, 40),
        freq_hz=st.floats(1e6, 1e12),
    )
    def check(seed, trials, freq_hz):
        assert_draws_match_reference(seed, trials, Wavelength.from_frequency(freq_hz).meters)

    check()


class _ScriptedGenerator:
    """A generator stub that returns scripted draws, with Generator's uniform
    and normal written over random and standard_normal as numpy writes them."""

    def __init__(self, uniforms, normals):
        self.uniforms, self.normals = list(uniforms), list(normals)

    def random(self):
        return self.uniforms.pop(0)

    def standard_normal(self, size):
        draw = np.array(self.normals.pop(0), dtype=float)
        assert draw.shape == (size,)
        return draw

    def uniform(self, low, high):
        return low + (high - low) * self.random()

    def normal(self, size):
        return self.standard_normal(size)


def test_draw_decides_near_threshold_tests_exactly(monkeypatch):
    """Arrival and observation cosines within the margin of +-1e-6 go to the
    exact ndarray test, and the block still equals the reference draw.  The
    identity quaternion makes the normal +z; (1, 0, -+1e-6) has cosine
    -+1e-6 (1 - 5e-13), just short of either threshold, so each is redrawn."""
    uniforms = [0.25, 0.75, 0.5]
    normals = [[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, -1e-6], [0.0, 0.6, -0.8], [1.0, 0.0, 1e-6], [0.0, -0.6, 0.8]]
    exact = []
    cosine = validate._exact_cosine
    monkeypatch.setattr(validate, "_exact_cosine", lambda q, v: exact.append(v.tolist()) or cosine(q, v))
    stub, reference_stub = _ScriptedGenerator(uniforms, normals), _ScriptedGenerator(uniforms, normals)
    assert_block_matches_reference(stub, reference_stub, 1, Wavelength.from_frequency(3e9).meters)
    assert exact == [normals[1], normals[3]]
    assert stub.uniforms == stub.normals == reference_stub.uniforms == reference_stub.normals == []
