"""Topology validation, carry-back reduction, end-to-end transfer and the
two-section closed-form cross-check."""

import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plnsim.anomalies import (DistributedFault, LoadChange, LumpedFault,
                              apply_anomaly, delta_superposition)
from plnsim.cables import constant_rlgc_cable, powerline_cable, scaled_cable
from plnsim.errors import SingularityError, UsageError, ValidationError
from plnsim.experiments import EnsembleConfig, generate_random_network
from plnsim.mtl import (FrequencyGrid, ctf_line, line_propagation_params,
                        input_admittance_line, load_reflection)
from plnsim.network import (AdmittanceSpec, Branch, NetworkTopology, Port,
                            conductance, constant_admittance, end_to_end_ctf,
                            farthest_node, network_input_reflection,
                            node_distances, open_circuit, parallel_rc_admittance,
                            reduce_to_port, table_admittance, tree_path)
from plnsim.oracles import two_section_oracle

from conftest import lossless_cable, matched_load, single_line_net


def rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


def modem(y=0.02, n=1):
    return constant_admittance(y, n, label="modem")


# ---------------------------------------------------------------------------
# validation

def test_valid_two_node(std_cable):
    net = single_line_net(std_cable, 100.0, parallel_rc_admittance(200.0, 1e-9))
    report = net.report
    assert report.valid
    assert str(report) == "valid"


def test_cycle_is_not_a_tree(std_cable):
    net = NetworkTopology(
        nodes=("a", "b", "c"),
        branches=(Branch("1", "a", "b", std_cable, 10.0),
                  Branch("2", "b", "c", std_cable, 10.0),
                  Branch("3", "c", "a", std_cable, 10.0)),
        loads={}, ports={"p": Port("a", modem())})
    report = net.report
    assert not report.valid
    assert any("not a tree" in p for p in report.problems)


def test_dangling_leaf(std_cable):
    net = NetworkTopology(
        nodes=("a", "b"),
        branches=(Branch("1", "a", "b", std_cable, 10.0),),
        loads={}, ports={"p": Port("a", modem())})
    report = net.report
    assert not report.valid
    assert any("dangling leaf" in p for p in report.problems)


def test_mixed_conductor_counts(std_cable, coupled_cable):
    net = NetworkTopology(
        nodes=("a", "b", "c"),
        branches=(Branch("1", "a", "b", std_cable, 10.0),
                  Branch("2", "b", "c", coupled_cable, 10.0)),
        loads={"c": open_circuit(2)}, ports={"p": Port("a", modem())})
    report = net.report
    assert not report.valid
    assert any("conductor" in p for p in report.problems)


def test_report_and_adjacency_are_computed_once(grid, std_cable):
    net = NetworkTopology(
        nodes=("a", "b"),
        branches=(Branch("1", "a", "b", std_cable, -5.0),),
        loads={"zz": modem()}, ports={"p": Port("a", modem())})
    assert net.report is net.report
    assert net.adjacency is net.adjacency
    assert net.adjacency["a"] == ((net.branches[0], "b"),)
    with pytest.raises(TypeError):
        net.adjacency["c"] = ()
    assert len(net.report.problems) == 2
    with pytest.raises(ValidationError, match="^invalid topology: ") as info:
        reduce_to_port(net, "p", grid)
    for problem in net.report.problems:
        assert problem in str(info.value)


def test_bad_lengths_and_references(std_cable):
    for length in (-5.0, np.inf):  # json reads the literal 1e400 as inf
        net = NetworkTopology(
            nodes=("a", "b"),
            branches=(Branch("1", "a", "b", std_cable, length),),
            loads={"b": modem(), "zz": modem()},
            ports={"p": Port("a", modem())})
        report = net.report
        assert any("length" in p for p in report.problems)
        assert any("unknown node" in p for p in report.problems)


# ---------------------------------------------------------------------------
# reduction

def test_single_branch_matched(grid, std_cable):
    net = single_line_net(std_cable, 120.0, matched_load(std_cable, grid))
    red = reduce_to_port(net, "p", grid)
    p = line_propagation_params(std_cable, grid)
    assert rel_err(red.y_in.values, p.yc) < 1e-12


def test_star_of_matched_branches(grid, std_cable):
    ml = matched_load(std_cable, grid)
    net = NetworkTopology(
        nodes=("a", "b", "c"),
        branches=(Branch("1", "a", "b", std_cable, 50.0),
                  Branch("2", "a", "c", std_cable, 80.0),),
        loads={"b": ml, "c": ml},
        ports={"p": Port("a", modem())})
    red = reduce_to_port(net, "p", grid)
    p = line_propagation_params(std_cable, grid)
    assert rel_err(red.y_in.values, 2.0 * p.yc) < 1e-12


def test_junction_additivity(grid, std_cable, lib):
    # equivalent admittance at the junction equals the sum of the children's
    # carried-back admittances, reconstructed here by hand per branch
    low = lib["pl-lowloss"]
    net = NetworkTopology(
        nodes=("p0", "j", "x", "y", "z"),
        branches=(Branch("t", "p0", "j", std_cable, 60.0),
                  Branch("1", "j", "x", std_cable, 40.0),
                  Branch("2", "j", "y", low, 70.0),
                  Branch("3", "j", "z", low, 90.0)),
        loads={"x": parallel_rc_admittance(100.0, 1e-9),
               "y": parallel_rc_admittance(400.0, 5e-9),
               "z": constant_admittance(1 / 50)},
        ports={"p": Port("p0", modem())})
    red = reduce_to_port(net, "p", grid)
    f = grid.frequencies
    total = np.zeros((grid.n_points, 1, 1), complex)
    for bid in ("1", "2", "3"):
        br = net.branch(bid)
        pp = line_propagation_params(br.cable, grid)
        y_leaf = net.loads[br.node_b].evaluate(f)
        rho = load_reflection(y_leaf, pp.yc)
        total += input_admittance_line(pp, br.length_m, rho)
    assert rel_err(red.node_equivalents["j"], total) < 1e-12


@pytest.mark.parametrize("k", [2, 3, 5])
def test_segment_splitting_invariance(grid, std_cable, k):
    load = parallel_rc_admittance(150.0, 2e-9)
    whole = single_line_net(std_cable, 120.0, load)
    nodes = ["a"] + [f"m{i}" for i in range(1, k)] + ["b"]
    branches = tuple(
        Branch(f"s{i}", nodes[i], nodes[i + 1], std_cable, 120.0 / k)
        for i in range(k))
    split = NetworkTopology(nodes=tuple(nodes), branches=branches,
                            loads={"b": load}, ports={"p": Port("a", modem())})
    rw = reduce_to_port(whole, "p", grid)
    rs = reduce_to_port(split, "p", grid)
    assert rel_err(rs.y_in.values, rw.y_in.values) < 1e-9
    hw = end_to_end_ctf(whole, "p", "b", grid)
    hs = end_to_end_ctf(split, "p", "b", grid)
    assert rel_err(hs.values, hw.values) < 1e-9
    pw = network_input_reflection(whole, "p", grid)
    ps = network_input_reflection(split, "p", grid)
    assert rel_err(ps.values, pw.values) < 1e-9


def test_reduction_error_carries_branch_id(grid, std_cable):
    p = line_propagation_params(std_cable, grid)
    # a load equal to -Y_C makes the branch reflection degenerate
    bad = table_admittance(grid.frequencies, -p.yc[:, 0, 0])
    net = single_line_net(std_cable, 30.0, bad)
    with pytest.raises(SingularityError, match="branch 's'") as info:
        reduce_to_port(net, "p", grid)
    assert info.value.frequency_hz == grid.f_start
    assert info.value.index == 0


def test_reduce_invalid_topology_rejected(grid, std_cable):
    net = NetworkTopology(nodes=("a", "b"),
                          branches=(Branch("1", "a", "b", std_cable, 10.0),),
                          loads={}, ports={"p": Port("a", modem())})
    with pytest.raises(ValidationError, match="dangling"):
        reduce_to_port(net, "p", grid)
    good = single_line_net(std_cable, 10.0, modem())
    with pytest.raises(UsageError, match="port"):
        reduce_to_port(good, "nosuch", grid)


# ---------------------------------------------------------------------------
# input reflection at a port

def test_reflection_zero_when_source_tracks_input(grid, std_cable):
    net = single_line_net(std_cable, 75.0, parallel_rc_admittance(90.0, 3e-9))
    red = reduce_to_port(net, "p", grid)
    y_in = red.y_in.values
    tracking = table_admittance(grid.frequencies, y_in[:, 0, 0])
    net2 = NetworkTopology(nodes=net.nodes, branches=net.branches,
                           loads=net.loads, ports={"p": Port("a", tracking)})
    rho = network_input_reflection(net2, "p", grid)
    assert np.max(np.abs(rho.values)) < 1e-12


def test_reflection_matched_branch(grid, std_cable):
    p = line_propagation_params(std_cable, grid)
    net = single_line_net(std_cable, 75.0, matched_load(std_cable, grid))
    src = table_admittance(grid.frequencies, p.yc[:, 0, 0])
    net = NetworkTopology(nodes=net.nodes, branches=net.branches,
                          loads=net.loads, ports={"p": Port("a", src)})
    rho = network_input_reflection(net, "p", grid)
    assert np.max(np.abs(rho.values)) < 1e-12


def test_open_lossless_unimodular_reflection(grid):
    # lossless one-port conserves energy: |rho_in| = 1 at every frequency
    cab = lossless_cable(2.5e-7, 1e-10)
    net = single_line_net(cab, 37.0, open_circuit())
    rho = network_input_reflection(net, "p", grid)
    assert np.max(np.abs(np.abs(rho.values[:, 0, 0]) - 1.0)) < 1e-9


# ---------------------------------------------------------------------------
# end-to-end transfer

def test_matched_single_branch_ctf(grid, std_cable):
    net = single_line_net(std_cable, 120.0, matched_load(std_cable, grid))
    h = end_to_end_ctf(net, "p", "b", grid)
    p = line_propagation_params(std_cable, grid)
    assert rel_err(h.values[:, 0, 0], np.exp(-p.gamma[:, 0] * 120.0)) < 1e-9


def test_ctf_usage_errors(grid, std_cable):
    net = single_line_net(std_cable, 50.0, parallel_rc_admittance(100.0, 1e-9))
    with pytest.raises(UsageError, match="load"):
        end_to_end_ctf(net, "p", "a", grid)  # port node carries no load here
    with pytest.raises(UsageError, match="port"):
        end_to_end_ctf(net, "nosuch", "b", grid)


def test_reciprocity_equal_terminations(grid, std_cable, lib):
    # mirror-symmetric network with all four terminations equal: the two
    # directions must agree elementwise
    both = constant_admittance(1 / 75)
    lateral = parallel_rc_admittance(300.0, 5e-9)
    net = NetworkTopology(
        nodes=("A", "J", "B", "L"),
        branches=(Branch("ba", "A", "J", std_cable, 80.0),
                  Branch("bb", "J", "B", std_cable, 80.0),
                  Branch("bl", "J", "L", lib["pl-lowloss"], 45.0)),
        loads={"A": both, "B": both, "L": lateral},
        ports={"pa": Port("A", both), "pb": Port("B", both)})
    h_ab = end_to_end_ctf(net, "pa", "B", grid)
    h_ba = end_to_end_ctf(net, "pb", "A", grid)
    assert rel_err(h_ab.values, h_ba.values) < 1e-9


def test_reciprocity_breaks_with_unequal_loads(grid, std_cable, lib):
    la = constant_admittance(1 / 30)
    lb = constant_admittance(1 / 700)
    net = NetworkTopology(
        nodes=("A", "J", "B", "L"),
        branches=(Branch("ba", "A", "J", std_cable, 80.0),
                  Branch("bb", "J", "B", std_cable, 80.0),
                  Branch("bl", "J", "L", lib["pl-lowloss"], 45.0)),
        loads={"A": la, "B": lb, "L": parallel_rc_admittance(300.0, 5e-9)},
        ports={"pa": Port("A", modem()), "pb": Port("B", modem())})
    h_ab = end_to_end_ctf(net, "pa", "B", grid)
    h_ba = end_to_end_ctf(net, "pb", "A", grid)
    assert rel_err(h_ab.values, h_ba.values) > 1e-3


def test_coupled_transfer_is_ordered_segment_product(grid):
    # two different 2-conductor cables and a coupled load: the segment
    # transfers do not commute, so only the tx -> rx order H2 H1 matches
    c1 = powerline_cable(2, coupling=0.2, label="pl-2c-a")
    c2 = powerline_cable(2, r0_ohm_per_m=0.3, coupling=0.6, label="pl-2c-b")
    y_b = constant_admittance([[0.02, -0.008], [-0.008, 0.005]], 2)
    y_j = constant_admittance(0.004, 2)
    net = NetworkTopology(
        nodes=("a", "j", "b"),
        branches=(Branch("s1", "a", "j", c1, 70.0), Branch("s2", "j", "b", c2, 40.0)),
        loads={"j": y_j, "b": y_b}, ports={"p": Port("a", modem(n=2))})
    f = grid.frequencies
    p1, p2 = line_propagation_params(c1, grid), line_propagation_params(c2, grid)
    y_b_vals = y_b.evaluate(f)
    y_j_eq = y_j.evaluate(f) + input_admittance_line(
        p2, 40.0, load_reflection(y_b_vals, p2.yc, f))
    h1 = ctf_line(p1, 70.0, load_reflection(y_j_eq, p1.yc, f))
    h2 = ctf_line(p2, 40.0, load_reflection(y_b_vals, p2.yc, f))
    h = end_to_end_ctf(net, "p", "b", grid).values
    assert rel_err(h, h2 @ h1) < 1e-12
    assert rel_err(h, h1 @ h2) > 1e-3


def test_coupled_path_makes_no_lapack_solve(grid, monkeypatch):
    # every L = 3 solve on the reduction, transfer and delta path goes through
    # the entry-wise elimination, never a batched LAPACK call
    cab = powerline_cable(n_conductors=3, label="pl-3c-guard")
    net = NetworkTopology(
        nodes=("a", "j", "b", "c"),
        branches=(Branch("s1", "a", "j", cab, 70.0),
                  Branch("s2", "j", "b", cab, 40.0),
                  Branch("s3", "j", "c", cab, 25.0)),
        loads={"b": parallel_rc_admittance(200.0, 1e-9, n_conductors=3),
               "c": constant_admittance(0.01, 3)},
        ports={"p": Port("a", modem(n=3))})

    def no_lapack(*args, **kwargs):
        raise AssertionError("numpy.linalg.solve called on the coupled path")

    monkeypatch.setattr(np.linalg, "solve", no_lapack)
    faulty = apply_anomaly(net, LumpedFault("s2", 15.0, conductance(0.05, 3)), grid)
    rho = network_input_reflection(net, "p", grid)
    delta = delta_superposition(network_input_reflection(faulty, "p", grid), rho,
                                normalize=True)
    h = end_to_end_ctf(net, "p", "b", grid)
    assert rho.values.shape == h.values.shape == (grid.n_points, 3, 3)
    assert np.max(np.abs(delta.values.values)) > 0.0


# ---------------------------------------------------------------------------
# two-section closed form

def two_section_chain(c1, l1, c2, l2, load):
    return NetworkTopology(
        nodes=("a", "j", "b"),
        branches=(Branch("s1", "a", "j", c1, l1),
                  Branch("s2", "j", "b", c2, l2)),
        loads={"b": load}, ports={"p": Port("a", modem())})


def test_two_section_same_cable_collapses(grid, std_cable):
    load = parallel_rc_admittance(150.0, 2e-9)
    osc = two_section_oracle(std_cable, 90.0, std_cable, 60.0, load,
                             modem(), grid)
    whole = single_line_net(std_cable, 150.0, load)
    red = reduce_to_port(whole, "p", grid)
    rho = network_input_reflection(whole, "p", grid)
    assert rel_err(osc.y_in.values, red.y_in.values) < 1e-9
    assert rel_err(osc.rho_in.values, rho.values) < 1e-9


def test_two_section_zero_second_length(grid, std_cable, lib):
    load = parallel_rc_admittance(150.0, 2e-9)
    osc = two_section_oracle(std_cable, 90.0, lib["pl-lowloss"], 0.0, load,
                             modem(), grid)
    single = single_line_net(std_cable, 90.0, load)
    red = reduce_to_port(single, "p", grid)
    assert rel_err(osc.y_in.values, red.y_in.values) < 1e-9


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_two_section_matches_recursion(seed):
    from plnsim.mtl import FrequencyGrid
    grid = FrequencyGrid(1e5, 4e5, 50)
    rng = np.random.default_rng(seed)
    c1 = powerline_cable(r0_ohm_per_m=rng.uniform(0.02, 0.3),
                         l_h_per_m=rng.uniform(2e-7, 8e-7),
                         c_f_per_m=rng.uniform(4e-11, 2e-10), label="c1")
    c2 = powerline_cable(r0_ohm_per_m=rng.uniform(0.02, 0.3),
                         l_h_per_m=rng.uniform(2e-7, 8e-7),
                         c_f_per_m=rng.uniform(4e-11, 2e-10), label="c2")
    l1, l2 = rng.uniform(10, 200, size=2)
    load = parallel_rc_admittance(rng.uniform(20, 800), rng.uniform(1e-9, 5e-8))
    osc = two_section_oracle(c1, l1, c2, l2, load, modem(), grid)
    net = two_section_chain(c1, l1, c2, l2, load)
    red = reduce_to_port(net, "p", grid)
    rho = network_input_reflection(net, "p", grid)
    assert rel_err(osc.y_in.values, red.y_in.values) < 1e-9
    assert rel_err(osc.rho_in.values, rho.values) < 1e-9


# ---------------------------------------------------------------------------
# reduction reuse: a warm cache gives the cold answer, bit for bit

# flat formation: adjacent conductors couple more than the outer pair and R is
# unequal, so the modes are distinct (unlike powerline_cable's aI + bJ form)
FLAT_3C = constant_rlgc_cable(
    np.diag([0.08, 0.1, 0.13]), 5e-7 * np.array([[1, .4, .15], [.4, 1, .4], [.15, .4, 1]]),
    1e-6 * np.eye(3), 1e-10 * np.array([[1, -.3, -.05], [-.3, 1, -.3], [-.05, -.3, 1]]),
    label="flat-3c")


def random_tree(n_conductors, seed):
    cables = (powerline_cable(3), FLAT_3C) if n_conductors == 3 else ()
    cfg = EnsembleConfig(n_nodes=(6, 9), cables=cables, seed=seed)
    return generate_random_network(cfg, 0)


def fresh(net):
    return NetworkTopology(net.nodes, net.branches, dict(net.loads), dict(net.ports))


def assert_same_as_fresh(net, grid):
    """Every response of ``net``, in the sweep's order, equals the response of
    a new copy built from its fields, which starts with an empty cache."""
    probe = net.ports["probe"].node
    for port in ("probe", "tx", "probe"):
        red, cold = reduce_to_port(net, port, grid), reduce_to_port(fresh(net), port, grid)
        assert np.array_equal(red.y_in.values, cold.y_in.values)
        assert red.node_equivalents.keys() == cold.node_equivalents.keys()
        for node, y in red.node_equivalents.items():
            assert np.array_equal(y, cold.node_equivalents[node]), node
    assert np.array_equal(network_input_reflection(net, "probe", grid).values,
                          network_input_reflection(fresh(net), "probe", grid).values)
    assert np.array_equal(end_to_end_ctf(net, "tx", probe, grid).values,
                          end_to_end_ctf(fresh(net), "tx", probe, grid).values)


def anomaly_case(net, kind):
    n = net.n_conductors
    probe, tx = net.ports["probe"].node, net.ports["tx"].node
    path = tree_path(net, tx, probe)
    br = path[len(path) // 2][0]
    if kind == "lumped":
        return LumpedFault(br.id, 0.4 * br.length_m, conductance(0.05, n))
    if kind == "load":
        node = sorted(net.loads)[0]
        return LoadChange(node, parallel_rc_admittance(33.0, 2e-9, n))
    aged = scaled_cable(br.cable, r_scale=2.0, c_scale=1.3, g_scale=2.0)
    return DistributedFault(br.id, 0.25 * br.length_m, 0.5 * br.length_m, aged)


@pytest.mark.parametrize("n_conductors,seed", [(1, 11), (1, 12), (3, 13), (3, 14)])
@pytest.mark.parametrize("case", ["same-port", "other-port", "other-grid", "lumped",
                                  "load", "distributed"])
def test_warm_reduction_equals_fresh(grid, n_conductors, seed, case):
    net = random_tree(n_conductors, seed)
    if case == "other-grid":  # as many points, other frequencies
        reduce_to_port(net, "probe", FrequencyGrid(2 * grid.f_start, grid.f_step,
                                                   grid.n_points))
    elif case in ("same-port", "other-port"):
        reduce_to_port(net, "probe" if case == "same-port" else "tx", grid)
    else:
        reduce_to_port(net, "probe", grid)
        end_to_end_ctf(net, "tx", net.ports["probe"].node, grid)
        net = apply_anomaly(net, anomaly_case(net, case), grid)
    assert_same_as_fresh(net, grid)


@pytest.mark.parametrize("name", ["nodes", "branches", "loads", "ports"])
def test_topology_fields_are_frozen(name):
    net = random_tree(1, 21)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(net, name, getattr(net, name))


def test_loads_and_ports_are_read_only(grid):
    net = random_tree(1, 21)
    node = next(n for n in sorted(net.loads) if n != net.ports["probe"].node)
    with pytest.raises(TypeError):
        net.loads[node] = parallel_rc_admittance(47.0, 3e-9)
    with pytest.raises(TypeError):
        net.ports["probe"] = net.ports["tx"]


def test_constructor_dicts_are_copied(grid):
    base = random_tree(1, 21)
    loads, ports = dict(base.loads), dict(base.ports)
    net = NetworkTopology(base.nodes, base.branches, loads, ports)
    before = reduce_to_port(net, "probe", grid).y_in.values
    node = next(n for n in sorted(loads) if n != ports["probe"].node)
    loads[node] = parallel_rc_admittance(47.0, 3e-9)
    del ports["tx"]
    assert dict(net.loads) == dict(base.loads) and dict(net.ports) == dict(base.ports)
    after = reduce_to_port(net, "probe", grid).y_in.values
    assert np.array_equal(after, before)
    assert np.array_equal(after, reduce_to_port(fresh(base), "probe", grid).y_in.values)


def test_equivalents_are_read_only_and_reused(grid):
    net = random_tree(3, 22)
    red = reduce_to_port(net, "probe", grid)
    again = reduce_to_port(net, "probe", grid)
    assert again.y_in.values is red.y_in.values
    # the cache holds the last reduction's equivalents and nothing else
    at_tx = reduce_to_port(net, "tx", grid).node_equivalents.values()
    assert {id(y) for y in net._equivalents.values()} == {id(y) for y in at_tx}
    with pytest.raises(ValueError):
        red.y_in.values[0] = 0.0
    for y in red.node_equivalents.values():
        with pytest.raises(ValueError):
            y[...] = 0.0


def test_warm_singularity_names_the_cold_branch(grid, std_cable):
    p = line_propagation_params(std_cable, grid)
    # a load equal to -Y_C makes the reflection into branch '3' degenerate
    bad = table_admittance(grid.frequencies, -p.yc[:, 0, 0])
    net = NetworkTopology(
        nodes=("a", "j", "b", "c"),
        branches=(Branch("1", "a", "j", std_cable, 40.0),
                  Branch("2", "j", "b", std_cable, 25.0),
                  Branch("3", "j", "c", std_cable, 30.0)),
        loads={"b": modem(), "c": modem()}, ports={"p": Port("a", modem())})
    reduce_to_port(net, "p", grid)
    broken = apply_anomaly(net, LoadChange("c", bad), grid)
    errors = []
    for topo in (broken, fresh(broken)):
        with pytest.raises(SingularityError, match="branch '3'") as info:
            reduce_to_port(topo, "p", grid)
        errors.append((str(info.value), info.value.frequency_hz, info.value.index))
    assert errors[0] == errors[1]
    # the failed reduction left nothing stale behind
    assert np.array_equal(reduce_to_port(net, "p", grid).y_in.values,
                          reduce_to_port(fresh(net), "p", grid).y_in.values)


def test_interleaved_reductions_on_other_grids_do_not_mix(grid, std_cable):
    """A reduction that finishes after another one, on another grid of as many
    points, must not leave its equivalents where the other grid finds them."""
    grid_b = FrequencyGrid(2 * grid.f_start, grid.f_step, grid.n_points)
    entered, release = threading.Event(), threading.Event()
    rc = parallel_rc_admittance(50.0, 1e-8)

    def evaluate(f):
        if f[0] == grid.f_start:  # only the thread reducing at ``grid``
            entered.set()
            assert release.wait(timeout=30)
        return rc.evaluate(f)

    net = single_line_net(std_cable, 50.0, AdmittanceSpec(1, evaluate, "held"))
    at_a = []
    worker = threading.Thread(target=lambda: at_a.append(reduce_to_port(net, "p", grid)))
    worker.start()
    try:
        assert entered.wait(timeout=30)
        copy = dataclasses.replace(net)  # shares the reduction cache
        reduce_to_port(copy, "p", grid_b)
    finally:
        release.set()
        worker.join(timeout=30)
    assert not worker.is_alive() and len(at_a) == 1
    assert np.array_equal(at_a[0].y_in.values,
                          reduce_to_port(fresh(net), "p", grid).y_in.values)
    assert np.array_equal(reduce_to_port(copy, "p", grid_b).y_in.values,
                          reduce_to_port(fresh(copy), "p", grid_b).y_in.values)


# ---------------------------------------------------------------------------
# path helpers

def test_tree_path_and_distances(std_cable):
    net = NetworkTopology(
        nodes=("a", "j", "b", "c"),
        branches=(Branch("1", "a", "j", std_cable, 10.0),
                  Branch("2", "j", "b", std_cable, 20.0),
                  Branch("3", "j", "c", std_cable, 35.0)),
        loads={"b": modem(), "c": modem()},
        ports={"p": Port("a", modem())})
    path = tree_path(net, "a", "b")
    assert [(b.id, near, far) for b, near, far in path] == [
        ("1", "a", "j"), ("2", "j", "b")]
    dist = node_distances(net, "a")
    assert dist == {"a": 0.0, "j": 10.0, "b": 30.0, "c": 45.0}
    assert farthest_node(net, "a") == "c"


@pytest.mark.parametrize("call", [
    lambda net: tree_path(net, "nope", "n0"),
    lambda net: tree_path(net, "n0", "nope"),
    lambda net: node_distances(net, "nope"),
    lambda net: farthest_node(net, "nope"),
], ids=["tree_path-from", "tree_path-to", "node_distances", "farthest_node"])
def test_unknown_node_is_named(call):
    net = random_tree(1, 23)
    with pytest.raises(ValidationError, match="unknown node 'nope'"):
        call(net)
