"""Acceptance gate: one test per release criterion, each at its stated
tolerance, printing one pass/fail line (run with -s to see them live).

Numeric identities are checked at 1e-12/1e-9/1e-7 as applicable; ensemble
criteria are qualitative trend reproductions on seeded desk-scale runs.
"""

import functools
import json
from pathlib import Path

import numpy as np
import pytest

from plnsim.anomalies import (DistributedFault, LoadChange, LumpedFault,
                              apply_anomaly, delta_chain, delta_superposition)
from plnsim.cables import (builtin_cable_library, cable_velocities,
                           constant_rlgc_cable, powerline_cable)
from plnsim.cli import main
from plnsim.experiments import (EnsembleConfig, bundled_single_line_scenarios,
                                default_grid, generate_random_network,
                                run_backbone_lateral_study, run_distance_sweep,
                                run_scenario_suite)
from plnsim.mtl import (ctf_line, input_admittance_line,
                        line_propagation_params, load_reflection, propagator)
from plnsim.network import (Branch, NetworkTopology, Port, conductance,
                            constant_admittance, end_to_end_ctf,
                            network_input_reflection, open_circuit,
                            parallel_rc_admittance, reduce_to_port, tree_path)
from plnsim.timedomain import (check_peak_spacing_symmetry, detect_peaks,
                               to_time_domain)

from conftest import (lossless_cable, random_passive_matrix, rel_err,
                      resolvable_tree_family, segment_energy, single_line_net,
                      spectrum_const)
from oracles import (input_reflection_modal, series_truncated_responses,
                     two_section_oracle)

LIB = builtin_cable_library()
GRID = default_grid()

# c12's records and bins, written by the default sweep,
#     plnsim sweep --no-timestamp --out tests/data/c12
# and pinned to 1e-12 relative per field, room for a LAPACK eig that
# rounds differently
C12_REFERENCE = Path(__file__).parent / "data" / "c12"
C12_RTOL = 1e-12


def reference_rows(name):
    """The rows of a reference table as dicts of its CSV cells."""
    lines = [ln for ln in (C12_REFERENCE / name).read_text().splitlines()
             if not ln.startswith("#")]
    columns = lines[0].split(",")
    return [dict(zip(columns, ln.split(","))) for ln in lines[1:]]


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {num:02d} ({name}): FAIL")
                raise
            print(f"[acceptance] criterion {num:02d} ({name}): PASS")
        return wrapper
    return deco


@criterion(1, "reflection extremes")
def test_c01_reflection_extremes():
    p = line_propagation_params(LIB["pl-std"], GRID)
    assert np.max(np.abs(load_reflection(p.yc, p.yc))) < 1e-12
    rho_open = load_reflection(np.zeros_like(p.yc), p.yc)
    assert np.max(np.abs(rho_open + np.eye(1))) < 1e-12
    g = 1e9 * np.max(np.abs(p.yc))
    rho_short = load_reflection(spectrum_const(g, GRID), p.yc)
    assert np.max(np.abs(rho_short - np.eye(1))) < 1e-7


@criterion(2, "zero-length and matched-line identities")
def test_c02_identities():
    cab = powerline_cable(n_conductors=2)
    p = line_propagation_params(cab, GRID)
    rng = np.random.default_rng(1)
    y_l = spectrum_const(random_passive_matrix(rng, 2), GRID)
    assert rel_err(input_admittance_line(p, propagator(p, 0.0), y_l), y_l) < 1e-9
    assert rel_err(input_admittance_line(p, propagator(p, 140.0), p.yc), p.yc) < 1e-9
    ps = line_propagation_params(LIB["pl-std"], GRID)
    h = ctf_line(ps, propagator(ps, 140.0), ps.yc)
    assert rel_err(h[:, 0, 0], np.exp(-ps.gamma[:, 0] * 140.0)) < 1e-9
    h0 = ctf_line(p, propagator(p, 0.0), y_l)
    assert np.max(np.abs(h0 - np.eye(2))) < 1e-9


@criterion(3, "scalar tanh oracle, 20 random lossy lines")
def test_c03_tanh_oracle():
    rng = np.random.default_rng(2024)
    f = GRID.frequencies
    for _ in range(20):
        r = rng.uniform(0.01, 1.0)
        l = rng.uniform(1e-7, 1e-6)
        g = rng.uniform(0.0, 1e-5)
        c = rng.uniform(2e-11, 3e-10)
        length = rng.uniform(5.0, 300.0)
        z_l = complex(rng.uniform(5, 500), rng.uniform(-100, 100))
        z = r + 2j * np.pi * f * l
        y = g + 2j * np.pi * f * c
        gamma = np.sqrt(z * y)
        z_c = np.sqrt(z / y)
        th = np.tanh(gamma * length)
        z_in_ref = z_c * (z_l + z_c * th) / (z_c + z_l * th)
        p = line_propagation_params(constant_rlgc_cable(r, l, g, c), GRID)
        y_in = input_admittance_line(p, propagator(p, length),
                                     spectrum_const(1 / z_l, GRID))
        assert rel_err(1.0 / y_in[:, 0, 0], z_in_ref) < 1e-9


@criterion(4, "two-section closed form vs recursive reduction, 20 cases")
def test_c04_two_section_oracle():
    rng = np.random.default_rng(4)
    src = constant_admittance(0.02)
    for _ in range(20):
        c1 = powerline_cable(r0_ohm_per_m=rng.uniform(0.02, 0.3),
                             l_h_per_m=rng.uniform(2e-7, 8e-7),
                             c_f_per_m=rng.uniform(4e-11, 2e-10), label="c1")
        c2 = powerline_cable(r0_ohm_per_m=rng.uniform(0.02, 0.3),
                             l_h_per_m=rng.uniform(2e-7, 8e-7),
                             c_f_per_m=rng.uniform(4e-11, 2e-10), label="c2")
        l1, l2 = rng.uniform(10, 200, size=2)
        load = parallel_rc_admittance(rng.uniform(20, 800),
                                      rng.uniform(1e-9, 5e-8))
        osc = two_section_oracle(c1, l1, c2, l2, load, src, GRID)
        net = NetworkTopology(
            nodes=("a", "j", "b"),
            branches=(Branch("s1", "a", "j", c1, l1),
                      Branch("s2", "j", "b", c2, l2)),
            loads={"b": load}, ports={"p": Port("a", src)})
        red = reduce_to_port(net, "p", GRID)
        rho = network_input_reflection(net, "p", GRID)
        assert rel_err(osc.y_in.values, red.y_in.values) < 1e-9
        assert rel_err(osc.rho_in.values, rho.values) < 1e-9


@criterion(5, "echo series convergence")
def test_c05_series_convergence():
    y_r = spectrum_const(0.02, GRID)
    for scale, radius in ((3.0, 0.5), (37 / 3, 0.85)):
        p = line_propagation_params(lossless_cable(), GRID)
        y_l = spectrum_const(scale, GRID) * p.yc
        rho = load_reflection(y_l, p.yc)
        exact_y = input_admittance_line(p, propagator(p, 30.0), y_l)
        exact_r = input_reflection_modal(p, 30.0, rho, y_r)
        errs = []
        for n in (1, 2, 5, 10, 50):
            res = series_truncated_responses(p, 30.0, rho, y_r, n)
            assert np.max(res.spectral_radius) < 0.9
            errs.append(max(rel_err(res.y_in, exact_y),
                            rel_err(res.rho_in, exact_r)))
        assert all(a >= b - 1e-15 for a, b in zip(errs, errs[1:]))
        if radius == 0.5:
            assert errs[-1] <= 1e-6


@criterion(6, "reflectometric peak geometry")
def test_c06_tdr_geometry():
    # first reflection of a loaded line at 2 l / v
    net = single_line_net(LIB["pl-std"], 120.0,
                          parallel_rc_admittance(200.0, 1e-9))
    tr = to_time_domain(reduce_to_port(net, "p", GRID).y_in, "hann")
    v = cable_velocities(LIB["pl-std"], GRID.f_start)[0]
    peaks = detect_peaks(tr).merged()
    assert peaks and abs(peaks[0].time_s - 2 * 120.0 / v) <= tr.t_step
    # open-ended line: echo train at 2 t1, 4 t1, 6 t1
    net = single_line_net(LIB["pl-lowloss"], 100.0, open_circuit())
    tr = to_time_domain(reduce_to_port(net, "p", GRID).y_in, "hann")
    v = cable_velocities(LIB["pl-lowloss"], GRID.f_start)[0]
    peaks = detect_peaks(tr, rel_threshold=0.1).merged()
    assert len(peaks) >= 3
    for k, p in enumerate(peaks[:3], start=1):
        assert abs(p.time_s - 2 * k * 100.0 / v) <= tr.t_step


@criterion(7, "forward/reverse peak spacings match, amplitudes differ")
def test_c07_peak_spacing_symmetry():
    amp_diffs = []
    for net in resolvable_tree_family(42, 20, LIB):
        probe, tx = net.ports["probe"].node, net.ports["tx"].node
        tr_ab = to_time_domain(end_to_end_ctf(net, "tx", probe, GRID), "hann")
        tr_ba = to_time_domain(end_to_end_ctf(net, "probe", tx, GRID), "hann")
        rep = check_peak_spacing_symmetry(tr_ab, tr_ba, tol_samples=1)
        assert rep.symmetric and not rep.inconclusive, rep.notes
        a = np.array([p.amplitude for p, _ in rep.matched_pairs])
        b = np.array([q.amplitude for _, q in rep.matched_pairs])
        d = float(np.linalg.norm(a - b) / np.linalg.norm(a))
        assert d > 0.02  # amplitudes genuinely differ per tree
        amp_diffs.append(d)
    assert float(np.median(amp_diffs)) > 0.10


@criterion(8, "equal terminations on mirror networks: directions agree")
def test_c08_reciprocity_equality():
    rng = np.random.default_rng(8)
    for k in range(3):
        y_term = constant_admittance(1.0 / rng.uniform(30, 300))
        lateral_cab = (LIB["pl-lowloss"], LIB["pl-lossy"], LIB["pl-std"])[k]
        arm = float(rng.uniform(40, 120))
        net = NetworkTopology(
            nodes=("A", "J", "B", "L"),
            branches=(Branch("ba", "A", "J", LIB["pl-std"], arm),
                      Branch("bb", "J", "B", LIB["pl-std"], arm),
                      Branch("bl", "J", "L", lateral_cab,
                             float(rng.uniform(20, 90)))),
            loads={"A": y_term, "B": y_term,
                   "L": parallel_rc_admittance(rng.uniform(50, 500),
                                               rng.uniform(1e-9, 2e-8))},
            ports={"pa": Port("A", y_term), "pb": Port("B", y_term)})
        h_ab = end_to_end_ctf(net, "pa", "B", GRID)
        h_ba = end_to_end_ctf(net, "pb", "A", GRID)
        assert rel_err(h_ab.values, h_ba.values) < 1e-9


@criterion(9, "zero-severity anomaly identities")
def test_c09_anomaly_identities():
    net = single_line_net(LIB["pl-std"], 150.0,
                          parallel_rc_admittance(200.0, 1e-9))
    y0 = reduce_to_port(net, "p", GRID).y_in
    anomalies = [
        LumpedFault("s", 50.0, conductance(0.0)),
        LoadChange("b", net.loads["b"]),
        DistributedFault("s", 40.0, 60.0, LIB["pl-std"]),
    ]
    for anomaly in anomalies:
        net_a = apply_anomaly(net, anomaly, GRID)
        y1 = reduce_to_port(net_a, "p", GRID).y_in
        dch = delta_chain(y1, y0)
        assert np.max(np.abs(dch.values - np.eye(1))) < 1e-12
        dsup = delta_superposition(y1, y0)
        assert np.max(np.abs(dsup.values)) < 1e-12 * np.max(np.abs(y0.values))
    # the normalized superposition delta equals the chain delta minus identity
    fault = LumpedFault("s", 50.0, conductance(0.03))
    y1 = reduce_to_port(apply_anomaly(net, fault, GRID), "p", GRID).y_in
    dch = delta_chain(y1, y0)
    dsn = delta_superposition(y1, y0, normalize=True)
    assert np.max(np.abs(dsn.values - (dch.values - np.eye(1)))) < 1e-12


@criterion(10, "pre-anomaly cancellation, 10 random networks")
def test_c10_pre_anomaly_cancellation():
    from plnsim.experiments import _fault_distance, _fault_position, _rng
    cfg = EnsembleConfig(seed=77)
    for i in range(10):
        net = generate_random_network(cfg, i)
        rng = _rng(cfg.seed, i, 1)
        probe = net.ports["probe"].node
        for _ in range(50):
            branch, offset = _fault_position(net, rng)
            d = _fault_distance(net, probe, branch, offset)
            if d >= 30.0:
                break
        fault = LumpedFault(branch.id, offset,
                            conductance(float(rng.uniform(1e-3, 1e-1))))
        y0 = reduce_to_port(net, "probe", GRID).y_in
        y1 = reduce_to_port(apply_anomaly(net, fault, GRID), "probe", GRID).y_in
        tr = to_time_domain(delta_superposition(y1, y0), "hann")
        # time of flight to the fault, per-branch velocities
        near = (branch.node_a
                if _fault_distance(net, probe, branch, 0.0)
                < _fault_distance(net, probe, branch, branch.length_m)
                else branch.node_b)
        t_anom = sum(b.length_m / cable_velocities(b.cable, GRID.f_start)[0]
                     for b, _, _ in tree_path(net, probe, near))
        off_eff = offset if near == branch.node_a else branch.length_m - offset
        t_anom += off_eff / cable_velocities(branch.cable, GRID.f_start)[0]
        t_cut = 2 * t_anom - 3 * tr.t_step
        total = segment_energy(tr, 0.0, tr.times[-1] + tr.t_step)
        assert segment_energy(tr, 0.0, t_cut) <= 0.01 * total


@criterion(11, "anomaly signature classification")
def test_c11_signature_classification():
    net, scenarios = bundled_single_line_scenarios()
    results = run_scenario_suite(net, scenarios, GRID)
    assert all(r.passed for r in results), [
        (r.name, sorted(r.classification)) for r in results]


@criterion(12, "distance trends on a 200-network ensemble")
def test_c12_distance_trends():
    res = run_distance_sweep(EnsembleConfig(n_networks=200, seed=0), GRID,
                             n_bins=5)
    s = res.summary
    assert s["skip_rate"] < 0.05
    assert s["spearman_y_vs_d"] <= -0.5
    assert s["rel_iqr_rho"] > s["rel_iqr_y"]
    assert s["h_u_shape"], s["h_bin_means"]

    want = reference_rows("records.csv")
    assert len(res.records) == len(want)
    for r, row in zip(res.records, want):
        assert r.network_index == int(row["network_index"])
        assert f"{r.anomaly['type']}@{r.anomaly['branch']}" == row["anomaly"]
        for name in ("distance_m", "link_position", "delta_y", "delta_rho", "delta_h"):
            assert getattr(r, name) == pytest.approx(float(row[name]), rel=C12_RTOL, abs=0), (
                r.network_index, name)
    want = reference_rows("bins.csv")
    assert len(res.bins) == len(want)
    for b, row in zip(res.bins, want):
        assert b.count == int(row["count"])
        got = {"d_lo": b.d_lo, "d_hi": b.d_hi}
        if b.count:
            for q in ("y", "rho", "h"):
                got[f"median_{q}"] = b.median[f"delta_{q}"]
                got[f"iqr_{q}"] = b.iqr[f"delta_{q}"]
            got["mean_h"] = b.mean["delta_h"]
        for name, value in got.items():
            assert value == pytest.approx(float(row[name]), rel=C12_RTOL, abs=0), (
                b.d_lo, name)


@criterion(13, "backbone vs lateral fault effect on the transfer")
def test_c13_backbone_vs_lateral():
    res = run_backbone_lateral_study(n_networks=50, seed=1234, grid=GRID)
    assert res.n_networks == 50
    assert res.mean_backbone_db < 0.0
    assert abs(res.mean_lateral_db) <= 0.5


@criterion(14, "seeded CLI runs are byte-identical")
def test_c14_cli_determinism(tmp_path):
    from importlib import resources
    topo = tmp_path / "two_node.json"
    topo.write_text((resources.files("plnsim") / "data" / "two_node.json")
                    .read_text())
    anomaly = tmp_path / "anomaly.json"
    anomaly.write_text(json.dumps({
        "type": "lumped_fault", "branch": "b0", "offset_m": 60.0,
        "y_f": {"model": "constant", "params": {"y_s": [0.02, 0.0]}}}))
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["tdr", str(topo), "--out", str(out),
                     "--no-timestamp"]) == 0
        assert main(["delta", str(topo), "--anomaly", str(anomaly),
                     "--model", "superposition_normalized",
                     "--out", str(out / "d"), "--no-timestamp"]) == 0
        assert main(["sweep", "--n-networks", "5", "--seed", "7",
                     "--grid", "1e5,4e5,100", "--bins", "2",
                     "--out", str(out / "s"), "--no-timestamp"]) == 0
        outs.append(out)
    for rel in ("trace.csv", "peaks.csv", "d/delta_spectrum.csv",
                "d/delta_trace.csv", "s/records.csv", "s/bins.csv",
                "s/summary.json"):
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel
