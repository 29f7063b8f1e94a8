"""Spectrum-to-trace conversion, peak detection, localization and the
forward/reverse peak-spacing symmetry check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plnsim.anomalies import LumpedFault, apply_anomaly, delta_superposition
from plnsim.cables import cable_velocities
from plnsim.errors import UsageError, ValidationError
from plnsim.mtl import FrequencyGrid, MatrixSpectrum
from plnsim.network import (NetworkTopology, Branch, Port, conductance,
                            constant_admittance, end_to_end_ctf,
                            parallel_rc_admittance, reduce_to_port)
from plnsim.timedomain import (TimeTrace, _find_peaks,
                               check_peak_spacing_symmetry, detect_peaks,
                               locate_anomaly_reflectometric, time_to_distance,
                               to_time_domain)

from conftest import (resolvable_tree_family, segment_energy, single_line_net,
                      spike_trace)


# ---------------------------------------------------------------------------
# transform pairs

def test_constant_spectrum_rect_impulse(grid_wide):
    vals = np.ones((grid_wide.n_points, 1, 1), complex)
    spec = MatrixSpectrum(grid_wide, vals, "admittance")
    tr = to_time_domain(spec, "rect")
    x = tr.samples[:, 0, 0]
    energy = np.sum(x ** 2)
    assert x[0] ** 2 / energy > 0.99  # all energy in the first sample


def test_rect_parseval(grid_wide):
    rng = np.random.default_rng(11)
    vals = (rng.normal(size=(grid_wide.n_points, 1, 1))
            + 1j * rng.normal(size=(grid_wide.n_points, 1, 1)))
    spec = MatrixSpectrum(grid_wide, vals, "admittance")
    tr = to_time_domain(spec, "rect")
    # extended one-sided spectrum (DC bin from linear extrapolation); the
    # transform keeps only the real parts of the DC and Nyquist bins, which
    # is what Hermitian symmetry of a real trace demands
    ext0 = vals[0] + (0 - 1) * (vals[1] - vals[0])
    onesided = np.concatenate([ext0[None], vals])[:, 0, 0]
    n = tr.n_samples
    two_sided = (onesided[0].real ** 2 + onesided[-1].real ** 2
                 + 2 * np.sum(np.abs(onesided[1:-1]) ** 2))
    assert abs(np.sum(tr.samples ** 2) - two_sided / n) < 1e-9 * two_sided / n


@pytest.mark.parametrize("window", ["rect", "hann"])
@pytest.mark.parametrize("tau_samples", [80.0, 80.4])
def test_shift_theorem_peak_position(grid_wide, window, tau_samples):
    # spectrum exp(-j 2 pi f tau): one smoothed peak at tau, on/off lattice
    n_ext = round(grid_wide.f_start / grid_wide.f_step) + grid_wide.n_points
    t_step = 1.0 / (2 * (n_ext - 1) * grid_wide.f_step)
    tau = tau_samples * t_step
    f = grid_wide.frequencies
    vals = np.exp(-2j * np.pi * f * tau)[:, None, None]
    tr = to_time_domain(MatrixSpectrum(grid_wide, vals, "ctf"), window)
    peak = np.argmax(np.abs(tr.samples[:, 0, 0]))
    assert abs(peak - tau_samples) <= 1.0


def test_trace_shape_and_t_step(grid_wide):
    vals = np.ones((grid_wide.n_points, 2, 2), complex)
    tr = to_time_domain(MatrixSpectrum(grid_wide, vals, "admittance"), "hann")
    n_ext = round(grid_wide.f_start / grid_wide.f_step) + grid_wide.n_points
    assert tr.n_samples == 2 * (n_ext - 1)
    f_max_ext = (n_ext - 1) * grid_wide.f_step
    assert abs(tr.t_step - 1.0 / (2 * f_max_ext)) < 1e-20
    assert tr.samples.dtype == np.float64  # exactly real by construction


def test_off_lattice_grid_rejected():
    grid = FrequencyGrid(1.5e5, 1e5, 10)  # start not a multiple of the step
    vals = np.ones((10, 1, 1), complex)
    with pytest.raises(ValidationError, match="lattice"):
        to_time_domain(MatrixSpectrum(grid, vals, "admittance"), "hann")
    with pytest.raises(ValidationError, match="window"):
        to_time_domain(MatrixSpectrum(FrequencyGrid(1e5, 1e5, 10),
                                      vals, "admittance"), "hamming")


# ---------------------------------------------------------------------------
# peak detection

def make_trace(x, t_step=1e-8):
    return TimeTrace(t_step=t_step, samples=np.asarray(x, float)[:, None, None],
                     kind="admittance")


def test_detect_peaks_zero_trace():
    peaks = detect_peaks(make_trace(np.zeros(512)))
    assert peaks.entries[(0, 0)] == []
    assert peaks.merged() == []


def test_detect_peaks_two_impulses():
    x = np.zeros(512)
    x[100] = 1.0
    x[200] = -0.6  # negative excursions count through |.|
    peaks = detect_peaks(make_trace(x), rel_threshold=0.1)
    times = [round(p.time_s / 1e-8) for p in peaks.merged()]
    assert times == [100, 200]


def test_detect_peaks_excludes_launch_region():
    x = np.zeros(512)
    x[1] = 5.0   # inside the launch window, and the threshold's reference
    x[300] = 1.0
    peaks = detect_peaks(make_trace(x), rel_threshold=0.1, min_separation=3)
    assert [round(p.time_s / 1e-8) for p in peaks.merged()] == [300]
    # above a quarter of the trace maximum, the launch spike's 5.0, it goes
    assert detect_peaks(make_trace(x), rel_threshold=0.25, min_separation=3).merged() == []


def test_detect_peaks_parameter_validation():
    with pytest.raises(ValidationError):
        detect_peaks(make_trace(np.zeros(16)), rel_threshold=1.5)
    with pytest.raises(ValidationError):
        detect_peaks(make_trace(np.zeros(16)), min_separation=0)


def _uniform_trace(n, seed):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, n).tolist()


@settings(max_examples=300, deadline=None)
@given(x=st.one_of(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=80),
                   st.builds(_uniform_trace, st.integers(3, 2000),
                             st.integers(0, 2**32 - 1))),
       rounded=st.booleans(),
       height=st.floats(0.0, 1.0),
       distance=st.one_of(st.integers(1, 8), st.floats(1.0, 8.0)))
def test_peak_helpers_match_scipy(x, rounded, height, distance):
    # scipy is the oracle only; rounding to one decimal makes plateaus and
    # equal heights, which exercise the midpoint and priority tie rules (long
    # traces hold enough tied peaks for argsort to leave insertion sort)
    from scipy.signal import find_peaks

    x = np.array(x)
    if rounded:
        x = np.round(x, 1)
    height = x.min() + height * (x.max() - x.min())
    expected, _ = find_peaks(x, height=height, distance=distance)
    np.testing.assert_array_equal(_find_peaks(x, height, distance), expected)


# ---------------------------------------------------------------------------
# distance mapping and localization

def test_time_to_distance_arithmetic():
    x = np.zeros(256)
    x[100] = 1.0
    peaks = detect_peaks(make_trace(x, t_step=1e-8), rel_threshold=0.5)
    refl = time_to_distance(peaks, 2e8, "reflectometric")
    assert refl[0].distance_m == pytest.approx(100.0)  # 1 us at 2e8 m/s
    ete = time_to_distance(peaks, 2e8, "end_to_end")
    assert ete[0].distance_m == pytest.approx(200.0)
    with pytest.raises(ValidationError):
        time_to_distance(peaks, -1.0, "reflectometric")
    with pytest.raises(ValidationError):
        time_to_distance(peaks, 2e8, "diagonal")


def test_locate_requires_admittance_delta_origin():
    tr = make_trace(np.zeros(64))  # plain admittance trace, not a delta
    with pytest.raises(UsageError):
        locate_anomaly_reflectometric(tr, 2e8)


def test_locate_zero_delta_not_found():
    tr = TimeTrace(1e-8, np.zeros((64, 1, 1)), "admittance", "superposition")
    res = locate_anomaly_reflectometric(tr, 2e8)
    assert not res.found


def test_locate_fault_on_single_line(grid_wide, std_cable):
    net = single_line_net(std_cable, 200.0, parallel_rc_admittance(200.0, 1e-9))
    fault = LumpedFault("s", 100.0, conductance(0.05))
    y0 = reduce_to_port(net, "p", grid_wide).y_in
    y1 = reduce_to_port(apply_anomaly(net, fault, grid_wide), "p", grid_wide).y_in
    tr = to_time_domain(delta_superposition(y1, y0), "hann")
    v = cable_velocities(std_cable, grid_wide.f_start)[0]
    res = locate_anomaly_reflectometric(tr, v)
    assert res.found
    assert abs(res.distance_m - 100.0) <= 0.5 * v * tr.t_step
    assert res.confidence == pytest.approx(1.0)


def test_locate_fault_behind_star_junction(grid_wide, std_cable):
    # probe 120 m from the junction, fault 30 m down one arm: total 150 m
    net = NetworkTopology(
        nodes=("p0", "j", "x", "y"),
        branches=(Branch("t", "p0", "j", std_cable, 120.0),
                  Branch("1", "j", "x", std_cable, 80.0),
                  Branch("2", "j", "y", std_cable, 60.0)),
        loads={"x": parallel_rc_admittance(300.0, 2e-9),
               "y": constant_admittance(1 / 50)},
        ports={"p": Port("p0", constant_admittance(0.02))})
    fault = LumpedFault("1", 30.0, conductance(0.05))
    y0 = reduce_to_port(net, "p", grid_wide).y_in
    y1 = reduce_to_port(apply_anomaly(net, fault, grid_wide), "p", grid_wide).y_in
    tr = to_time_domain(delta_superposition(y1, y0), "hann")
    v = cable_velocities(std_cable, grid_wide.f_start)[0]
    res = locate_anomaly_reflectometric(tr, v)
    assert res.found
    assert abs(res.distance_m - 150.0) <= 0.5 * v * tr.t_step


# ---------------------------------------------------------------------------
# early-trace invariances

def test_first_peak_envelope_independence(grid_wide, std_cable, lib):
    # before the first echo returns, the reflectometric trace depends only on
    # the first segment and the source, whatever hangs beyond the first node
    import plnsim.network as pn
    loads = [parallel_rc_admittance(30.0, 1e-9),
             constant_admittance(1 / 900),
             None]  # None: replace by a subtree
    traces = []
    for load in loads:
        if load is not None:
            net = single_line_net(std_cable, 100.0, load)
        else:
            net = NetworkTopology(
                nodes=("a", "b", "c", "d"),
                branches=(Branch("s", "a", "b", std_cable, 100.0),
                          Branch("x", "b", "c", lib["pl-lowloss"], 55.0),
                          Branch("y", "b", "d", lib["pl-lossy"], 75.0)),
                loads={"c": parallel_rc_admittance(120.0, 3e-9),
                       "d": constant_admittance(1 / 40)},
                ports={"p": Port("a", constant_admittance(0.02))})
        rho = pn.network_input_reflection(net, "p", grid_wide)
        traces.append(to_time_domain(rho, "hann"))
    v = cable_velocities(std_cable, grid_wide.f_start)[0]
    t_guard = 2 * 100.0 / v - 3 * traces[0].t_step
    ref = traces[0]
    e_total = segment_energy(ref, 0.0, ref.times[-1] + ref.t_step)
    for other in traces[1:]:
        diff = TimeTrace(ref.t_step, ref.samples - other.samples, ref.kind)
        assert segment_energy(diff, 0.0, t_guard) < 0.01 * e_total


def test_ctf_superposition_delta_keeps_baseline_peaks(grid_wide, std_cable):
    # the additive end-to-end delta keeps every baseline arrival (with new
    # amplitude) and adds the fault-generated ones
    from plnsim.network import end_to_end_ctf
    net = single_line_net(std_cable, 200.0, parallel_rc_admittance(200.0, 1e-9))
    h0 = end_to_end_ctf(net, "p", "b", grid_wide)
    fault = LumpedFault("s", 120.0, conductance(0.05))
    h1 = end_to_end_ctf(apply_anomaly(net, fault, grid_wide), "p", "b",
                        grid_wide)
    tr0 = to_time_domain(h0, "hann")
    trd = to_time_domain(delta_superposition(h1, h0), "hann")
    base = detect_peaks(tr0).merged()
    delta = detect_peaks(trd).merged()
    assert base
    tol = tr0.t_step * (1 + 1e-9)
    for p in base:
        assert any(abs(q.time_s - p.time_s) <= tol for q in delta)
    assert len(delta) > len(base)  # plus the new fault arrivals


def test_pre_anomaly_cancellation_single_line(grid_wide, std_cable):
    net = single_line_net(std_cable, 200.0, parallel_rc_admittance(200.0, 1e-9))
    fault = LumpedFault("s", 120.0, conductance(0.05))
    y0 = reduce_to_port(net, "p", grid_wide).y_in
    y1 = reduce_to_port(apply_anomaly(net, fault, grid_wide), "p", grid_wide).y_in
    tr = to_time_domain(delta_superposition(y1, y0), "hann")
    v = cable_velocities(std_cable, grid_wide.f_start)[0]
    t_cut = 2 * 120.0 / v - 3 * tr.t_step
    total = segment_energy(tr, 0.0, tr.times[-1] + tr.t_step)
    assert segment_energy(tr, 0.0, t_cut) <= 0.01 * total


# ---------------------------------------------------------------------------
# peak-spacing symmetry

def test_symmetry_identical_traces(grid_wide, lib):
    net = resolvable_tree_family(11, 1, lib)[0]
    probe = net.ports["probe"].node
    tr = to_time_domain(end_to_end_ctf(net, "tx", probe, grid_wide), "hann")
    rep = check_peak_spacing_symmetry(tr, tr)
    assert rep.symmetric and not rep.inconclusive
    assert rep.max_spacing_error_samples == 0.0


def test_symmetry_random_tree_with_asymmetric_loads(grid_wide, lib):
    # spacings agree within one sample while the amplitude vectors differ
    net = resolvable_tree_family(23, 6, lib)[5]  # a 6-node draw
    probe, tx = net.ports["probe"].node, net.ports["tx"].node
    tr_ab = to_time_domain(end_to_end_ctf(net, "tx", probe, grid_wide), "hann")
    tr_ba = to_time_domain(end_to_end_ctf(net, "probe", tx, grid_wide), "hann")
    rep = check_peak_spacing_symmetry(tr_ab, tr_ba)
    assert rep.symmetric and not rep.inconclusive
    a = np.array([p.amplitude for p, _ in rep.matched_pairs])
    b = np.array([q.amplitude for _, q in rep.matched_pairs])
    assert np.linalg.norm(a - b) / np.linalg.norm(a) > 0.10


def test_symmetry_detects_time_scaling(grid_wide, lib):
    net = resolvable_tree_family(11, 1, lib)[0]
    probe = net.ports["probe"].node
    tr = to_time_domain(end_to_end_ctf(net, "tx", probe, grid_wide), "hann")
    n = tr.n_samples
    idx = np.clip((np.arange(n) / 1.05).round().astype(int), 0, n - 1)
    scaled = TimeTrace(tr.t_step, tr.samples[idx], tr.kind)
    rep = check_peak_spacing_symmetry(tr, scaled)
    assert not rep.symmetric and not rep.inconclusive


@pytest.mark.parametrize("one_sided_first", [False, True])
@pytest.mark.parametrize("fraction", [0.6, 0.4])
def test_symmetry_one_sided_peak_against_the_dominant_cut(fraction,
                                                          one_sided_first):
    # a one-sided arrival fails the check only from half the strongest peak up
    both = {100: 1.0, 200: 0.8, 300: 0.7}
    traces = [spike_trace(both), spike_trace({**both, 400: fraction})]
    if one_sided_first:
        traces.reverse()
    rep = check_peak_spacing_symmetry(*traces)
    assert not rep.inconclusive and len(rep.matched_pairs) == 3
    (note,) = rep.notes
    if fraction > 0.5:
        assert not rep.symmetric
        assert rep.max_spacing_error_samples == float("inf")
        assert note.startswith("dominant peak")
    else:
        assert rep.symmetric
        assert rep.max_spacing_error_samples == 0.0
        assert note.startswith("weak one-sided detection")


def test_symmetry_inconclusive_on_empty():
    quiet = TimeTrace(1e-8, np.zeros((128, 1, 1)), "ctf")
    rep = check_peak_spacing_symmetry(quiet, quiet)
    assert rep.inconclusive


def test_symmetry_t_step_mismatch():
    a = TimeTrace(1e-8, np.zeros((16, 1, 1)), "ctf")
    b = TimeTrace(2e-8, np.zeros((16, 1, 1)), "ctf")
    with pytest.raises(ValidationError):
        check_peak_spacing_symmetry(a, b)
