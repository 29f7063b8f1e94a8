"""Random ensembles, the distance sweep and the scenario signatures."""

import copy
import dataclasses
import pickle
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plnsim.experiments as experiments
import plnsim.network as network
from plnsim.experiments import (EnsembleConfig, SweepRecord, _bin_stats,
                                _classify_peak_diff, _spearman,
                                bundled_single_line_scenarios,
                                default_grid, generate_random_network,
                                run_distance_sweep, run_scenario_suite)
from plnsim.cables import powerline_cable
from plnsim.errors import ValidationError
from plnsim.mtl import FrequencyGrid, line_propagation_params
from plnsim.network import reduce_to_port
from plnsim.topofile import topology_to_dict

from conftest import FLAT_3C, SPIKE_T_STEP, spike_trace
from oracles import chain_responses, rdiv

NAN = float("nan")


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


@pytest.mark.parametrize("lengths", [(-5.0, -1.0), (50.0, 10.0), (0.0, 10.0),
                                     (10.0, np.inf), (np.nan, 10.0)])
def test_branch_length_range_is_checked(lengths):
    # a negative range once gave a sweep with every realization skipped, and
    # a reversed one escaped as numpy's "high - low < 0"
    with pytest.raises(ValidationError, match="branch_length_m"):
        EnsembleConfig(n_networks=3, branch_length_m=lengths)


@pytest.mark.parametrize("field,value", [("seed", -1), ("fault_severity_s", (0.0, np.inf))])
def test_seed_and_severity_range_are_checked(field, value):
    with pytest.raises(ValidationError, match=field):  # not numpy's errors in the sweep
        EnsembleConfig(**{field: value})


def test_branch_length_range_may_be_one_value():
    cfg = EnsembleConfig(n_networks=3, branch_length_m=(30.0, 30.0), seed=4)
    res = run_distance_sweep(cfg, FrequencyGrid(1e5, 1e5, 50), n_bins=2)
    assert len(res.records) == 3 and not res.skipped
    net = generate_random_network(cfg, 0)
    assert {b.length_m for b in net.branches} == {30.0}


def test_sweep_results_are_slotted_with_float_edges():
    # test_cli.py::test_sweep_small_run, whose middle distance bin is empty
    res = run_distance_sweep(EnsembleConfig(n_networks=6, seed=3),
                             FrequencyGrid(1e5, 4e5, 100), n_bins=3)
    assert [b.count for b in res.bins] == [4, 0, 2]
    for b in res.bins:
        assert type(b.d_lo) is float and type(b.d_hi) is float
    # copies and pickle round trips are equal values, and they refuse every
    # field, and a name that is no field of the class, the same way
    for obj in (res.records[0], res.bins[0]):
        for twin in (obj, copy.copy(obj), copy.deepcopy(obj),
                     pickle.loads(pickle.dumps(obj))):
            assert type(twin) is type(obj) and twin == obj
            assert not hasattr(twin, "__dict__")
            for name in (*obj.__slots__, "spread"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(twin, name, 0)


@pytest.mark.parametrize("cables", [(), (powerline_cable(3),), (FLAT_3C,)],
                         ids=["L1", "pl3", "flat3"])
def test_sweep_deltas_match_chain_parameters(monkeypatch, cables):
    # each realization's three band-mean deltas, recomputed from the chain
    # parameters on plain numpy: no modal code, no kernel and no evaluation
    # context is shared with the sweep, only the networks it builds
    pairs, apply = [], experiments.apply_anomaly

    def recording(net, anomaly, grid):
        pairs.append((net, apply(net, anomaly, grid)))
        return pairs[-1][1]

    monkeypatch.setattr(experiments, "apply_anomaly", recording)
    grid = FrequencyGrid(1e5, 1e6, 80)
    res = run_distance_sweep(EnsembleConfig(n_networks=4, cables=cables, seed=17), grid)
    assert len(res.records) == len(pairs) == 4

    def band_delta(perturbed, baseline):
        return np.mean(np.abs(rdiv(perturbed - baseline, baseline)))

    for record, (net, net_a) in zip(res.records, pairs):
        probe = net.ports["probe"].node
        y, rho, _ = chain_responses(net, "probe", probe, grid)
        y_a, rho_a, _ = chain_responses(net_a, "probe", probe, grid)
        h = chain_responses(net, "tx", probe, grid)[2]
        h_a = chain_responses(net_a, "tx", probe, grid)[2]
        want = band_delta(y_a, y), band_delta(rho_a, rho), band_delta(h_a, h)
        got = record.delta_y, record.delta_rho, record.delta_h
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


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
    # a record names its fault by the draws that placed it
    r = res1.records[0]
    net = generate_random_network(cfg, r.network_index)
    rng = experiments._rng(cfg.seed, r.network_index, 1)
    branch, offset = experiments._fault_position(net, rng)
    severity = float(rng.uniform(*cfg.fault_severity_s))
    assert r.anomaly == {"type": "lumped_fault", "branch": branch.id,
                         "offset_m": offset, "y_f": f"g={severity:g}S"}


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
    # distributed fault must actually move an existing reflection by more
    # than one sample, t_step = 1 / (2 f_max)
    t_step = 0.5 / default_grid().frequencies[-1]
    assert any(abs(a - b) > t_step for a, b in dist.shifted_pairs_s)


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
    ([1.0, NAN, 3.0, 4.0], [0.5, 0.2, 0.3, 0.9]),                    # NaN in x
    ([1.0, 2.0, 3.0, 4.0], [0.5, 0.2, 0.3, NAN]),                    # NaN in y
    ([NAN, NAN, NAN], [0.1, 0.2, 0.3]),  # all NaN, which is not constant
    ([0.7, 0.7, 0.7], [NAN, 0.2, 0.3]),                              # both
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


# distances and deltas, some drawn from a few fixed values so that they tie
TIED_OR_NOT = st.sampled_from([0.0, 1.0, 2.5]) | st.floats(0.0, 1e3)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(*[TIED_OR_NOT] * 4), min_size=1, max_size=40),
       st.integers(1, 8))
def test_bin_stats_match_numpy(rows, n_bins):
    # each bin's median, mean and quartiles equal numpy's, to 1 ulp
    records = [SweepRecord(i, {}, d, 0.5, y, rho, h)
               for i, (y, rho, h, d) in enumerate(rows)]
    bins = _bin_stats(records, n_bins)
    assert len(bins) == n_bins
    for b in bins:
        inside = [r for r in records if b.d_lo <= r.distance_m < b.d_hi]
        assert b.count == len(inside)
        if not inside:
            continue
        for name in ("delta_y", "delta_rho", "delta_h"):
            v = np.array([getattr(r, name) for r in inside])
            q25, q75 = np.percentile(v, [25, 75])
            got = [b.median[name], b.mean[name], b.iqr[name]]
            np.testing.assert_array_max_ulp(got, [np.median(v), np.mean(v), q75 - q25], 1)


def same_float(a, b):
    """Equal bit for bit, or both NaN."""
    return (a != a and b != b) or np.float64(a).tobytes() == np.float64(b).tobytes()


# summary inputs: relative IQRs, which are >= 0 or NaN, some tied
RATIOS = st.sampled_from([0.0, 0.5, NAN]) | st.floats(0.0)
# link positions, some at the bin edges or outside [0, 1 + 1e-9)
POSITIONS = (st.sampled_from([0.0, 0.2, 0.25, 0.5, 1.0, 1.0 + 1e-9, -0.1, NAN])
             | st.floats(-0.5, 1.5))


@settings(max_examples=100, deadline=None)
@given(st.lists(RATIOS, max_size=12),
       st.lists(st.tuples(POSITIONS, st.floats(-1e3, 1e3)), max_size=40),
       st.integers(1, 8))
def test_summary_statistics_match_numpy(ratios, points, n_bins):
    # the median of the relative IQRs is np.nanmedian's, NaN with no warning
    # when every one is NaN; each link bin holds the values a boolean mask
    # selects, in record order, so their mean is np.mean's bit for bit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = experiments._nanmedian(ratios)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # numpy warns on an all-NaN input
        assert same_float(got, float(np.nanmedian(np.array(ratios, dtype=float))))

    u, x = (np.array([p[i] for p in points], dtype=float) for i in (0, 1))
    edges = np.linspace(0.0, 1.0 + 1e-9, n_bins + 1)
    bins = experiments._binned(u.tolist(), x.tolist(), edges)
    assert len(bins) == n_bins
    for k, got in enumerate(bins):
        sel = x[(u >= edges[k]) & (u < edges[k + 1])]
        assert got == sel.tolist()
        if got:
            assert same_float(experiments._mean(got), float(np.mean(sel)))


def test_sweep_branch_steps_stay_within_recorded_counts(monkeypatch):
    # a realization reduces the probe port twice on the baseline and the
    # perturbed network, then the tx port on the perturbed one and the
    # baseline; their evaluation keeps each branch's carry-back, so a
    # reduction steps only the branches whose far subtree changed, and a
    # repeated reduction steps nothing (100 steps here with the baseline tx
    # reduction first, 166 when a reduction ignores what it holds, 249 when
    # a repeat is reduced again too); a tx reduction steps each path
    # branch's admittance and segment transfer together
    steps = 0
    step = network._branch_step

    def counting(*args):
        nonlocal steps
        steps += 1
        return step(*args)

    monkeypatch.setattr(network, "_branch_step", counting)
    result = run_distance_sweep(EnsembleConfig(n_networks=5, seed=1000), default_grid())
    assert len(result.records) == 5
    assert steps == 96


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
