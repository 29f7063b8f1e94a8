"""Random ensembles, the distance sweep and the scenario signatures."""

import warnings

import numpy as np
import pytest

from plnsim.experiments import (EnsembleConfig, _spearman,
                                bundled_single_line_scenarios,
                                default_grid, generate_random_network,
                                run_distance_sweep, run_scenario_suite)
from plnsim.errors import ValidationError
from plnsim.mtl import FrequencyGrid, line_propagation_params
from plnsim.network import reduce_to_port, validate_topology
from plnsim.topofile import topology_to_dict


def test_two_node_config_gives_single_branch():
    cfg = EnsembleConfig(n_nodes=(2, 2), seed=3)
    net = generate_random_network(cfg, 0)
    assert len(net.branches) == 1
    assert validate_topology(net).valid


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
        report = validate_topology(net)
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
