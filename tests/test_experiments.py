"""Random ensembles, the distance sweep and the scenario signatures."""

import warnings
import weakref
from collections import Counter

import numpy as np
import pytest

import plnsim.experiments as experiments
import plnsim.network as network
from plnsim.experiments import (EnsembleConfig, _classify_peak_diff, _spearman,
                                bundled_single_line_scenarios,
                                default_grid, generate_random_network,
                                run_distance_sweep, run_scenario_suite)
from plnsim.errors import ValidationError
from plnsim.mtl import FrequencyGrid, line_propagation_params
from plnsim.network import reduce_to_port
from plnsim.topofile import topology_to_dict

from conftest import SPIKE_T_STEP, spike_trace


def test_two_node_config_gives_single_branch():
    cfg = EnsembleConfig(n_nodes=(2, 2), seed=3)
    net = generate_random_network(cfg, 0)
    assert len(net.branches) == 1
    assert net.report.valid


def test_generator_determinism():
    cfg = EnsembleConfig(seed=9)
    a = generate_random_network(cfg, 17)
    b = generate_random_network(cfg, 17)
    assert topology_to_dict(a) == topology_to_dict(b)
    c = generate_random_network(cfg, 18)
    assert topology_to_dict(a) != topology_to_dict(c)


def test_generator_property_sweep():
    cfg = EnsembleConfig(n_nodes=(4, 12), seed=1)
    for i in range(500):
        net = generate_random_network(cfg, i)
        report = net.report
        assert report.valid, report.problems
        assert len(net.branches) == len(net.nodes) - 1
        probe = net.ports["probe"].node
        assert probe in net.loads  # probe leaf doubles as receiver
        assert net.ports["tx"].node != probe


def test_default_cables_decomposed_once(grid):
    cables = EnsembleConfig(seed=2).cable_set()
    assert EnsembleConfig(seed=3).cable_set() is cables
    for cable in cables:
        line_propagation_params(cable, grid)
    misses = line_propagation_params.cache_info().misses
    for i in range(6):
        net = generate_random_network(EnsembleConfig(seed=2), i)
        reduce_to_port(net, "probe", grid)
    assert line_propagation_params.cache_info().misses == misses


def test_generator_range_validation():
    with pytest.raises(ValidationError):
        generate_random_network(EnsembleConfig(n_nodes=(1, 3)), 0)


def test_zero_severity_sweep_has_null_deltas():
    cfg = EnsembleConfig(n_networks=5, fault_severity_s=(0.0, 0.0), seed=5)
    res = run_distance_sweep(cfg, FrequencyGrid(1e5, 2e5, 160), n_bins=3)
    assert len(res.records) == 5 and not res.skipped
    for r in res.records:
        assert r.delta_y <= 1e-9
        assert r.delta_rho <= 1e-9
        assert r.delta_h <= 1e-9


def test_sweep_records_are_sane_and_deterministic():
    cfg = EnsembleConfig(n_networks=12, seed=21)
    grid = FrequencyGrid(1e5, 2e5, 160)
    res1 = run_distance_sweep(cfg, grid, n_bins=3)
    res2 = run_distance_sweep(cfg, grid, n_bins=3)
    assert res1.records == res2.records  # bit-identical reruns
    for r in res1.records:
        assert r.distance_m > 0
        assert 0.0 <= r.link_position <= 1.0
        assert np.isfinite([r.delta_y, r.delta_rho, r.delta_h]).all()
    assert res1.summary["skip_rate"] < 0.05


def test_band_mean_magnitude_ignores_memory_layout():
    # a sum in memory order gives these two layouts results 1 ulp apart
    rng = np.random.default_rng(1)
    delta = rng.standard_normal((800, 3, 3)) + 1j * rng.standard_normal((800, 3, 3))
    columns = np.ascontiguousarray(delta.transpose(1, 2, 0)).transpose(2, 0, 1)
    assert delta.flags.c_contiguous and not columns.flags.c_contiguous
    assert (experiments.band_mean_magnitude(delta)
            == experiments.band_mean_magnitude(columns))


def test_scenario_suite_classifications():
    net, scenarios = bundled_single_line_scenarios()
    results = run_scenario_suite(net, scenarios, default_grid())
    by_name = {r.name: r for r in results}
    load = by_name["load_change_200_to_500_ohm"]
    assert load.classification == {"amplitude-only"}
    assert load.passed
    fault = by_name["lumped_fault_mid_line"]
    assert "new-peak" in fault.classification
    assert fault.passed
    dist = by_name["distributed_fault_30pct"]
    assert {"shifted-peak", "new-peak"} <= dist.classification
    assert dist.passed
    # distributed fault must actually move an existing reflection
    assert any(abs(a - b) > dist.baseline_trace.t_step
               for a, b in dist.shifted_pairs_s)


BASELINE_PEAKS = {100: 1.0, 300: 0.5}


@pytest.mark.parametrize("perturbed,expected", [
    ({301: 0.5}, set()),                # within one sample: the same arrival
    ({302: 0.5}, {"shifted-peak"}),
    ({364: 0.5}, {"shifted-peak"}),     # the edge of the 64-sample window
    ({365: 0.5}, {"new-peak"}),
    ({300: 0.515}, set()),              # 3 % amplitude change: below 5 %
    ({300: 0.55}, {"amplitude-only"}),  # 10 %
])
def test_peak_diff_boundaries(perturbed, expected):
    cls, _, _, ambiguities = _classify_peak_diff(
        spike_trace(BASELINE_PEAKS), spike_trace({100: 1.0, **perturbed}), 0.05, 3)
    assert cls == expected
    assert ambiguities == []


def test_peak_diff_two_shift_candidates():
    cls, new, shifted, ambiguities = _classify_peak_diff(
        spike_trace(BASELINE_PEAKS), spike_trace({100: 1.0, 280: 0.5, 330: 0.4}),
        0.05, 3)
    assert cls == {"shifted-peak", "new-peak"}
    assert shifted == [(300 * SPIKE_T_STEP, 280 * SPIKE_T_STEP)]  # the nearer one
    assert new == [330 * SPIKE_T_STEP]
    assert len(ambiguities) == 1 and "2 shift candidates" in ambiguities[0]


@pytest.mark.parametrize("x,y", [
    ([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 0.2, 0.2, 0.9, 0.1]),        # tie in y
    ([3.0, 1.0, 3.0, 2.0, 1.0, 3.0], [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]),  # ties in both
    ([0.1, 0.4, 0.2, 0.9], [0.3, 0.8, 0.4, 1.2]),                   # monotone
    ([1.0, 2.0, 3.0], [0.7, 0.7, 0.7]),                              # constant
    ([2.0, 2.0, 2.0, 2.0], [0.1, 0.3, 0.2, 0.4]),                    # constant
])
def test_spearman_matches_scipy(x, y):
    from scipy.stats import spearmanr  # the oracle only

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on constant input
        expected = float(spearmanr(x, y)[0])
    got = _spearman(x, y)
    if np.isnan(expected):
        assert np.isnan(got)
    else:
        assert got == expected


def test_sweep_branch_steps_stay_within_recorded_counts(monkeypatch):
    # a realization reduces the probe port twice and the tx port once, on the
    # baseline and the perturbed network; the reduction cache recomputes only
    # the subtrees that changed (249 carry-back steps here without it)
    steps = Counter()
    step = network._branch_step

    def counting(line, kind, *args):
        steps[kind] += 1
        return step(line, kind, *args)

    monkeypatch.setattr(network, "_branch_step", counting)
    result = run_distance_sweep(EnsembleConfig(n_networks=5, seed=1000), default_grid())
    assert len(result.records) == 5
    assert steps["branch"] <= 149
    assert steps["segment"] == 45


def test_sweep_frees_each_realization_before_the_next(monkeypatch):
    alive = []
    generate, apply = experiments.generate_random_network, experiments.apply_anomaly

    def tracked(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            alive.append(weakref.ref(out))
            return out
        return wrapper

    def checked_generate(cfg, index):
        assert not [ref for ref in alive if ref() is not None], index
        return tracked(generate)(cfg, index)

    monkeypatch.setattr(experiments, "generate_random_network", checked_generate)
    monkeypatch.setattr(experiments, "apply_anomaly", tracked(apply))
    result = run_distance_sweep(EnsembleConfig(n_networks=4, seed=5),
                                FrequencyGrid(1e5, 1e5, 40))
    assert len(result.records) == 4 and len(alive) == 8
