"""Topology validation, carry-back reduction, end-to-end transfer, and their
cross-checks against the two-section closed form and the chain-parameter
solution."""

import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plnsim.network as network
from plnsim import mtl
from plnsim.anomalies import (DistributedFault, LoadChange, LumpedFault,
                              apply_anomaly, delta_superposition)
from plnsim.cables import powerline_cable, scaled_cable
from plnsim.errors import SingularityError, UsageError, ValidationError
from plnsim.experiments import EnsembleConfig, generate_random_network
from plnsim.mtl import (FrequencyGrid, ctf_line, line_propagation_params,
                        input_admittance_line, propagator)
from plnsim.network import (AdmittanceSpec, Branch, Evaluation, NetworkTopology, Port,
                            conductance, constant_admittance, end_to_end_ctf,
                            farthest_node, network_input_reflection,
                            node_distances, open_circuit, parallel_rc_admittance,
                            reduce_to_port, table_admittance, tree_path)

from conftest import (FLAT_3C, lossless_cable, matched_load, random_passive_matrix,
                      recorded, rel_err, single_line_net)
from oracles import chain_responses, is_passive, rdiv, two_section_oracle


def modem(y=0.02, n=1):
    return constant_admittance(y, n, label="modem")


# ---------------------------------------------------------------------------
# validation

def test_valid_two_node(std_cable):
    net = single_line_net(std_cable, 100.0, parallel_rc_admittance(200.0, 1e-9))
    report = net.report
    assert report.valid
    assert str(report) == "valid"


# (branches as (id, node_a, node_b, conductors, length), loaded nodes and their
# conductor counts, the problems the report names)
INVALID_TOPOLOGIES = {
    "cycle": ([("1", "a", "b", 1, 10.0), ("2", "b", "c", 1, 10.0), ("3", "c", "a", 1, 10.0)],
              {}, ["not a tree"]),
    "dangling-leaf": ([("1", "a", "b", 1, 10.0)], {}, ["dangling leaf"]),
    "mixed-conductors": ([("1", "a", "b", 1, 10.0), ("2", "b", "c", 2, 10.0)], {"c": 2},
                         ["conductor"]),
    "negative-length": ([("1", "a", "b", 1, -5.0)], {"b": 1, "zz": 1},
                        ["length", "unknown node"]),
    # json reads the literal 1e400 as inf
    "infinite-length": ([("1", "a", "b", 1, np.inf)], {"b": 1, "zz": 1},
                        ["length", "unknown node"]),
}


@pytest.mark.parametrize("branches,loads,problems", INVALID_TOPOLOGIES.values(),
                         ids=INVALID_TOPOLOGIES)
def test_invalid_topology_is_reported(std_cable, coupled_cable, branches, loads, problems):
    cables = {1: std_cable, 2: coupled_cable}
    net = NetworkTopology(
        nodes=tuple(dict.fromkeys(n for b in branches for n in b[1:3])),
        branches=tuple(Branch(i, a, b, cables[n], length) for i, a, b, n, length in branches),
        loads={node: open_circuit(n) for node, n in loads.items()},
        ports={"p": Port("a", modem())})
    assert not net.report.valid
    for problem in problems:
        assert any(problem in p for p in net.report.problems)


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


# ---------------------------------------------------------------------------
# reduction

@pytest.mark.parametrize("lengths", [(120.0,), (50.0, 80.0)], ids=["single", "star"])
def test_matched_branches_add_their_characteristic_admittances(grid, std_cable, lengths):
    # a single matched branch, or a star of them, at the port
    ends = ("b", "c")[:len(lengths)]
    ml = matched_load(std_cable, grid)
    net = NetworkTopology(
        nodes=("a",) + ends,
        branches=tuple(Branch(str(k), "a", n, std_cable, length)
                       for k, (n, length) in enumerate(zip(ends, lengths))),
        loads={n: ml for n in ends},
        ports={"p": Port("a", modem())})
    red = reduce_to_port(net, "p", grid)
    p = line_propagation_params(std_cable, grid)
    assert rel_err(red.y_in.values, len(lengths) * p.yc) < 1e-12


def test_junction_additivity(grid, std_cable, lib):
    # the admittance seen at a junction port equals the sum of its branches'
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
    red = reduce_to_port(net.with_port("pj", Port("j", modem())), "pj", grid)
    f = grid.frequencies
    total = np.zeros((grid.n_points, 1, 1), complex)
    for bid in ("t", "1", "2", "3"):
        br = net.branch(bid)
        pp = line_propagation_params(br.cable, grid)
        far = br.node_a if bid == "t" else br.node_b
        y_far = net.loads[far].evaluate(f) if far in net.loads else np.zeros_like(total)
        total += input_admittance_line(pp, propagator(pp, br.length_m), y_far)
    assert rel_err(red.y_in.values, total) < 1e-12


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


def quarter_wave_at(monkeypatch, grid, length, k):
    """Make ``network.propagator`` give E = j at grid index k to the branches
    of ``length`` and E = 0.5 elsewhere.  With an open far end (G = 0) such a
    branch is an open quarter-wave resonance: its matrix
    W + G + E^2 (W - G) = W (1 + E^2) is exactly zero there."""
    def resonant(params, branch_length):
        e = np.full((1, grid.n_points), 0.5 + 0j)
        if branch_length == length:
            e[0, k] = 1j
        return e
    monkeypatch.setattr(network, "propagator", resonant)


def test_reduction_error_carries_branch_id(grid, std_cable, monkeypatch):
    quarter_wave_at(monkeypatch, grid, 30.0, 0)
    net = single_line_net(std_cable, 30.0, open_circuit())
    with pytest.raises(SingularityError, match="branch 's'") as info:
        reduce_to_port(net, "p", grid)
    assert info.value.frequency_hz == grid.f_start
    assert info.value.index == 0


def test_path_resonance_names_the_branch(grid, std_cable, monkeypatch):
    # the resonance is on 's2', next to the open receiver, at one frequency
    k = 7
    quarter_wave_at(monkeypatch, grid, 40.0, k)
    net = two_section_chain(std_cable, 70.0, std_cable, 40.0, open_circuit())
    with pytest.raises(SingularityError, match="branch 's2': reflection resonance") as info:
        end_to_end_ctf(net, "p", "b", grid)
    assert info.value.frequency_hz == grid.frequencies[k]
    assert info.value.index == k


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

@pytest.mark.parametrize("matched", [False, True], ids=["tracking", "matched"])
def test_reflection_zero_when_source_equals_input_admittance(grid, std_cable, matched):
    # a source that tracks a loaded line's reduced Y_in, or Y_C at a matched one
    p = line_propagation_params(std_cable, grid)
    load = matched_load(std_cable, grid) if matched else parallel_rc_admittance(90.0, 3e-9)
    net = single_line_net(std_cable, 75.0, load)
    y_src = p.yc if matched else reduce_to_port(net, "p", grid).y_in.values
    src = table_admittance(grid.frequencies, y_src[:, 0, 0])
    net = dataclasses.replace(net, ports={"p": Port("a", src)})
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


@pytest.mark.parametrize("cables", [(), (powerline_cable(3),), (FLAT_3C,)],
                         ids=["L1", "pl3", "flat3"])
def test_transfer_impedances_are_reciprocal(grid, cables):
    # on a tree that is not mirror-symmetric H_ab and H_ba differ, but the
    # voltage at one port per unit current into the other does not (Paul,
    # Analysis of Multiconductor Transmission Lines): H_ab Y_in(a)^-1 is the
    # transpose of H_ba Y_in(b)^-1
    for seed in (5, 6, 7):
        net = generate_random_network(EnsembleConfig(seed=seed, cables=cables), 0)
        z_ab, z_ba = (rdiv(end_to_end_ctf(net, a, net.ports[b].node, grid).values,
                           reduce_to_port(net, a, grid).y_in.values)
                      for a, b in (("tx", "probe"), ("probe", "tx")))
        assert rel_err(z_ab, np.swapaxes(z_ba, -1, -2)) < 1e-12, seed


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
    y_j_eq = y_j.evaluate(f) + input_admittance_line(p2, propagator(p2, 40.0), y_b_vals)
    h1 = ctf_line(p1, propagator(p1, 70.0), y_j_eq)
    h2 = ctf_line(p2, propagator(p2, 40.0), y_b_vals)
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
    assert np.max(np.abs(delta.values)) > 0.0


@pytest.mark.parametrize("n_conductors", [1, 3])
def test_reduction_makes_one_elimination_per_stepped_branch(grid, n_conductors):
    # each stepped branch, on the transfer path or off it, is one line step
    # and one elimination, and no load reflection is formed on the way; at
    # L = 1 the step is elementwise and reaches neither kernel
    n = n_conductors
    cab = powerline_cable(n, label=f"pl-{n}c-count")
    net = NetworkTopology(
        nodes=("a", "j", "b", "c", "d"),
        branches=(Branch("s1", "a", "j", cab, 70.0),
                  Branch("s2", "j", "b", cab, 40.0),
                  Branch("s3", "j", "c", cab, 25.0),
                  Branch("s4", "c", "d", cab, 55.0)),
        loads={"b": parallel_rc_admittance(200.0, 1e-9, n), "c": conductance(0.004, n),
               "d": constant_admittance(0.01, n)},
        ports={"p": Port("a", modem(n=n))})
    line_propagation_params(cab, grid)  # decomposed before counting
    for rx in (None, "b", "d"):
        # _reflection is load_reflection's one route
        with recorded(mtl.line_responses, mtl._gauss, mtl._mul, mtl._reflection) as calls:
            reduce_to_port(net, "p", grid, rx=rx)
        assert len(calls["line_responses"]) == len(net.branches), rx
        assert calls["_reflection"] == [], rx
        if n == 1:
            assert calls["_gauss"] == calls["_mul"] == [], rx
        else:
            assert len(calls["_gauss"]) == len(net.branches), rx


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


# ---------------------------------------------------------------------------
# reuse through an Evaluation: a warm one gives the cold answer, bit for bit

def random_tree(n_conductors, seed):
    cables = {1: (), 3: (powerline_cable(3), FLAT_3C)}.get(
        n_conductors, (powerline_cable(n_conductors),))
    cfg = EnsembleConfig(n_nodes=(6, 9), cables=cables, seed=seed)
    return generate_random_network(cfg, 0)


# a coarse grid over the default band keeps the matrix exponentials cheap
CHAIN_GRID = FrequencyGrid(1e5, 4e6, 20)


def assert_matches_chain_parameters(net, port, rx_node):
    # at each frequency, the largest entry error against the largest entry
    got = (reduce_to_port(net, port, CHAIN_GRID).y_in.values,
           network_input_reflection(net, port, CHAIN_GRID).values,
           end_to_end_ctf(net, port, rx_node, CHAIN_GRID).values)
    for a, b in zip(got, chain_responses(net, port, rx_node, CHAIN_GRID)):
        err = np.max(np.abs(a - b), axis=(1, 2)) / np.max(np.abs(b), axis=(1, 2))
        assert np.max(err) < 1e-10


@pytest.mark.parametrize("cable", [powerline_cable(L) for L in (1, 2, 3, 4)] + [FLAT_3C],
                         ids=lambda cable: cable.label)
@pytest.mark.parametrize("length", [10.0, 300.0, 3000.0])
def test_line_matches_chain_parameters(cable, length):
    load = parallel_rc_admittance(150.0, 2e-9, cable.n_conductors)
    assert_matches_chain_parameters(single_line_net(cable, length, load), "p", "b")


@pytest.mark.parametrize("n_conductors", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [41, 42])
def test_tree_matches_chain_parameters(n_conductors, seed):
    net = random_tree(n_conductors, seed)
    assert_matches_chain_parameters(net, "tx", net.ports["probe"].node)


def decoupled_twin(net):
    """``net`` on two conductors with no coupling: each cable is its
    powerline model at L = 2 with coupling 0, and each load and source Y is
    Y I_2."""
    twins = {}

    def cable(c):
        if c not in twins:
            twins[c] = powerline_cable(**dict(c.meta[1], n_conductors=2, coupling=0.0),
                                       label=f"{c.label}-2c")
        return twins[c]

    def diagonal(spec):
        return AdmittanceSpec(2, lambda f: spec.evaluate(f) * np.eye(2), spec.label)

    return NetworkTopology(
        nodes=net.nodes,
        branches=tuple(dataclasses.replace(b, cable=cable(b.cable)) for b in net.branches),
        loads={n: diagonal(y) for n, y in net.loads.items()},
        ports={name: Port(p.node, diagonal(p.source)) for name, p in net.ports.items()})


def sweep_responses(net, fault, grid):
    """A sweep realization's responses on ``net``: the probe's Y_in and
    rho_in and the transfer from tx, then each one's normalized delta under
    ``fault``."""
    probe = net.ports["probe"].node
    base, perturbed = ([reduce_to_port(n, "probe", grid).y_in,
                        network_input_reflection(n, "probe", grid),
                        end_to_end_ctf(n, "tx", probe, grid)]
                       for n in (net, apply_anomaly(net, fault, grid)))
    deltas = [delta_superposition(p, b, normalize=True) for p, b in zip(perturbed, base)]
    return [s.values for s in base + deltas]


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_scalar_line_matches_decoupled_pair(grid, seed):
    # the elementwise L = 1 forms against the L >= 2 kernels: two uncoupled
    # copies of a random L = 1 tree give its responses on the diagonal
    net = generate_random_network(EnsembleConfig(seed=seed), 0)
    twin = decoupled_twin(net)
    rng = np.random.default_rng(seed)
    branch = net.branches[int(rng.integers(len(net.branches)))]
    offset, g = branch.length_m * rng.uniform(0.05, 0.95), rng.uniform(1e-3, 1e-1)
    one = sweep_responses(net, LumpedFault(branch.id, offset, conductance(g, 1)), grid)
    two = sweep_responses(twin, LumpedFault(branch.id, offset, conductance(g, 2)), grid)
    for a, b in zip(one, two):
        assert b.shape == (grid.n_points, 2, 2)
        for i in range(2):
            assert rel_err(b[:, i, i], a[:, 0, 0]) < 1e-12
        assert np.max(np.abs(b[:, [0, 1], [1, 0]])) < 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("cable", [powerline_cable(2), powerline_cable(3), FLAT_3C],
                         ids=lambda cable: cable.label)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_port_admittance_is_reciprocal_and_passive(cable, seed):
    # a tree of passive lines and loads: at each frequency Y_in = Y_in^T, and
    # the Hermitian part of Y_in has no negative eigenvalue
    cfg = EnsembleConfig(n_nodes=(4, 12), cables=(cable,), seed=seed)
    net = generate_random_network(cfg, 0)
    for port in ("probe", "tx"):
        y = reduce_to_port(net, port, CHAIN_GRID).y_in.values
        scale = np.max(np.abs(y), axis=(1, 2))
        yt = np.swapaxes(y, 1, 2)
        assert np.all(np.max(np.abs(y - yt), axis=(1, 2)) <= 1e-10 * scale)
        assert np.all(np.linalg.eigvalsh(0.5 * (y + yt.conj()))[:, 0] >= -1e-10 * scale)


# the default band on 80 points, where km-long lines are dark at the top
LONG_GRID = FrequencyGrid(1e5, 1e6, 80)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([1, 3]), length=st.floats(1e4, 1e6),
       r_ohm=st.floats(1.0, 1e4), c_farad=st.floats(0.0, 1e-7))
def test_km_long_line_stays_finite(n, length, r_ohm, c_farad):
    # E = exp(-Gamma l) underflows, to exact zeros at 1e6 m: every response
    # stays finite, and where no wave comes back the port sees Y_C
    cab = powerline_cable(n)
    net = single_line_net(cab, length, parallel_rc_admittance(r_ohm, c_farad, n))
    y = reduce_to_port(net, "p", LONG_GRID).y_in.values
    rho = network_input_reflection(net, "p", LONG_GRID).values
    h = end_to_end_ctf(net, "p", "b", LONG_GRID).values
    assert all(np.all(np.isfinite(a)) for a in (y, rho, h))
    params = line_propagation_params(cab, LONG_GRID)
    dark = np.max(np.abs(propagator(params, length)), axis=0) < 1e-15
    err = np.max(np.abs(y - params.yc), axis=(1, 2)) / np.max(np.abs(params.yc), axis=(1, 2))
    assert np.all(err[dark] <= 1e-12)


@pytest.mark.parametrize("n_conductors", [1, 2, 3])
@pytest.mark.parametrize("scale", [1e-2, 1e1, 1e3, 1e6, 1e9])
def test_near_short_transfer_matches_chain_parameters(n_conductors, scale):
    # a receiver load up to 1e9 S: the transfer is small, and it is the
    # solve's own unknown, so it keeps its digits against the largest |H|
    n = n_conductors
    cab = powerline_cable(n)
    y = random_passive_matrix(np.random.default_rng(n), n, 1.0)
    load = constant_admittance(scale * y / np.max(np.abs(y)), n)
    net = NetworkTopology(
        nodes=("a", "j", "b"),
        branches=(Branch("s1", "a", "j", cab, 70.0), Branch("s2", "j", "b", cab, 40.0)),
        loads={"b": load}, ports={"p": Port("a", modem(n=n))})
    y_in = reduce_to_port(net, "p", CHAIN_GRID).y_in.values
    h = end_to_end_ctf(net, "p", "b", CHAIN_GRID).values
    y_ref, _, h_ref = chain_responses(net, "p", "b", CHAIN_GRID)
    assert np.max(np.abs(h - h_ref)) < 1e-12 * np.max(np.abs(h_ref))
    err = np.max(np.abs(y_in - y_ref), axis=(1, 2)) / np.max(np.abs(y_ref), axis=(1, 2))
    assert np.max(err) < 1e-10


def sweep_calls(net, grid):
    """The sweep's three calls, then the input admittance at either port,
    each run on the evaluation it is given (None for a private one)."""
    probe = net.ports["probe"].node
    return [lambda ev: reduce_to_port(net, "probe", grid, ev).y_in.values,
            lambda ev: network_input_reflection(net, "probe", grid, ev).values,
            lambda ev: end_to_end_ctf(net, "tx", probe, grid, ev).values,
            lambda ev: reduce_to_port(net, "tx", grid, ev).y_in.values,
            lambda ev: reduce_to_port(net, "probe", grid, ev).y_in.values]


def responses(net, grid, ev=None):
    return [call(ev) for call in sweep_calls(net, grid)]


def assert_same(got, want):
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


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
    ev = Evaluation(grid)
    if case == "other-grid":  # refused before any work, by every entry point
        reduce_to_port(net, "probe", grid, ev)
        other = FrequencyGrid(2 * grid.f_start, grid.f_step, grid.n_points)
        for call in (lambda: reduce_to_port(net, "tx", other, ev),
                     lambda: network_input_reflection(net, "tx", other, ev),
                     lambda: end_to_end_ctf(net, "tx", net.ports["probe"].node, other, ev)):
            with pytest.raises(UsageError, match="evaluation is bound to"):
                call()
    elif case in ("same-port", "other-port"):
        reduce_to_port(net, "probe" if case == "same-port" else "tx", grid, ev)
    else:
        responses(net, grid, ev)
        net = apply_anomaly(net, anomaly_case(net, case), grid)
    assert_same(responses(net, grid, ev), responses(net, grid))


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
    assert np.array_equal(reduce_to_port(net, "probe", grid).y_in.values, before)


def test_values_hold_only_their_fields_after_reductions(grid):
    net = random_tree(3, 22)
    faulty = apply_anomaly(net, anomaly_case(net, "distributed"), grid)
    ev = Evaluation(grid)
    for topo in (net, faulty, dataclasses.replace(net)):
        responses(topo, grid, ev)
        for value in (topo, *topo.branches):
            fields = {f.name for f in dataclasses.fields(value)}
            assert not any(name.startswith("_") for name in fields)
            cached = {"adjacency", "report"} if value is topo else set()
            assert vars(value).keys() == fields | cached


def lateral_tree(n):
    """tx at 't', probe at 'p' on the path 1-2-3; laterals 'x' and 'y' hang
    from the path nodes 'j' and 'k', 'z' from a lateral: their carry-backs
    are the same seen from either port."""
    cab = powerline_cable(n, label=f"pl-{n}c-path")
    return NetworkTopology(
        nodes=("t", "j", "k", "p", "x", "y", "z"),
        branches=(Branch("1", "t", "j", cab, 40.0),
                  Branch("2", "j", "k", cab, 55.0),
                  Branch("3", "k", "p", cab, 30.0),
                  Branch("4", "j", "x", cab, 25.0),
                  Branch("5", "k", "y", cab, 70.0),
                  Branch("6", "y", "z", cab, 15.0)),
        loads={"t": modem(n=n), "p": modem(n=n),
               "x": parallel_rc_admittance(100.0, 1e-9, n),
               "z": constant_admittance(1 / 50, n)},
        ports={"tx": Port("t", modem(n=n)), "probe": Port("p", modem(n=n))})


def test_tx_reduction_after_probe_steps_only_the_path(grid):
    def stepped(call):
        with recorded(network._branch_step) as calls:
            out = call()
        return out, sorted(args["br"].id for args, _ in calls["_branch_step"])

    for n in (1, 3):
        net = lateral_tree(n)
        cold = end_to_end_ctf(net, "tx", "p", grid).values
        ev = Evaluation(grid)
        assert stepped(lambda: reduce_to_port(net, "probe", grid, ev))[1] == list("123456")
        h, steps = stepped(lambda: end_to_end_ctf(net, "tx", "p", grid, ev).values)
        assert steps == list("123") and np.array_equal(h, cold)
        # after a tx reduction without a receiver, only the segments are
        # missing: each path branch is stepped again, giving its segment
        ev = Evaluation(grid)
        reduce_to_port(net, "tx", grid, ev)
        h, steps = stepped(lambda: end_to_end_ctf(net, "tx", "p", grid, ev).values)
        assert steps == list("123") and np.array_equal(h, cold)


def test_carry_backs_are_read_only_and_reused(grid):
    for n in (1, 3):
        net = lateral_tree(n)
        path = set(net.branches[:3])
        ev = Evaluation(grid)
        reduce_to_port(net, "probe", grid, ev)
        at_probe = dict(ev.carry_backs)
        # one admittance per branch, keyed by the branch and its far subtree
        assert sorted(k[0].id for k in at_probe) == list("123456")
        assert all(s is None for _, s in at_probe.values())
        reduce_to_port(net, "probe", grid, ev)
        assert ev.carry_backs.keys() == at_probe.keys()
        assert all(ev.carry_backs[k] is c for k, c in at_probe.items())
        # the off-path carry-backs are kept as they were, and the path ones
        # replaced by the other direction's, each with its segment
        end_to_end_ctf(net, "tx", "p", grid, ev)
        assert sorted(k[0].id for k in ev.carry_backs) == list("123456")
        for k, (_, s) in ev.carry_backs.items():
            assert (s is not None) == (k[0] in path)
            assert (at_probe.get(k) is ev.carry_backs[k]) == (k[0] not in path)
        for a in (a for c in ev.carry_backs.values() for a in c if a is not None):
            with pytest.raises(ValueError):
                a[...] = 0.0


@pytest.mark.parametrize("n_conductors", [1, 3])
def test_evaluation_holds_and_returns_only_read_only_arrays(grid, n_conductors):
    # after each of the sweep's calls: every E, admittance, carry-back,
    # segment and last reduction an evaluation holds, and the Y_in and H
    # returned, which it holds too (a reflection is the caller's fresh array)
    n = n_conductors
    cab = powerline_cable(n, label=f"pl-{n}c-held")
    # one segment: H is the segment itself, and Y_in at 'tx' one carry-back
    line = NetworkTopology(
        nodes=("a", "b"), branches=(Branch("s", "a", "b", cab, 80.0),),
        loads={"b": parallel_rc_admittance(150.0, 2e-9, n)},
        ports={"tx": Port("a", modem(n=n)), "probe": Port("b", modem(n=n))})
    net = random_tree(n, 22)
    for topo in (line, net, apply_anomaly(net, anomaly_case(net, "lumped"), grid)):
        ev, got = Evaluation(grid), []
        for k, call in enumerate(sweep_calls(topo, grid)):
            got.append(call(ev))
            held = [*ev.propagators.values(), *ev.admittances.values(), *ev.last[3:],
                    *(a for c in ev.carry_backs.values() for a in c)]
            for a in held + ([] if k == 1 else got[-1:]):
                if a is not None:
                    with pytest.raises(ValueError):
                        a[...] = 0.0
        assert_same(got, responses(topo, grid))


def test_warm_singularity_names_the_cold_branch(grid, std_cable, monkeypatch):
    # opening node 'c' makes branch '3' a quarter-wave resonance at index 5
    quarter_wave_at(monkeypatch, grid, 30.0, 5)
    net = NetworkTopology(
        nodes=("a", "j", "b", "c"),
        branches=(Branch("1", "a", "j", std_cable, 40.0),
                  Branch("2", "j", "b", std_cable, 25.0),
                  Branch("3", "j", "c", std_cable, 30.0)),
        loads={"b": modem(), "c": modem()}, ports={"p": Port("a", modem())})
    ev = Evaluation(grid)
    reduce_to_port(net, "p", grid, ev)
    broken = apply_anomaly(net, LoadChange("c", open_circuit()), grid)
    errors = []
    for e in (ev, None):
        with pytest.raises(SingularityError, match="branch '3'") as info:
            reduce_to_port(broken, "p", grid, e)
        errors.append((str(info.value), info.value.frequency_hz, info.value.index))
    assert errors[0] == errors[1]
    # the failed reduction left nothing stale behind
    assert np.array_equal(reduce_to_port(net, "p", grid, ev).y_in.values,
                          reduce_to_port(net, "p", grid).y_in.values)


def test_branch_propagator_is_evaluated_once_and_shared(grid):
    net = random_tree(3, 22)
    faulty = apply_anomaly(net, anomaly_case(net, "lumped"), grid)
    ev = Evaluation(grid)
    # line_responses is every branch step's one line function
    with recorded(network.propagator, network.line_responses) as calls:
        for topo in (net, faulty, dataclasses.replace(net), net):
            responses(topo, grid, ev)
    # one E per branch, and every step reads it
    assert ev.propagators.keys() == set(net.branches) | set(faulty.branches)
    stored = {id(e) for e in ev.propagators.values()}
    evaluated = {id(e) for _, e in calls["propagator"]}
    assert len(calls["propagator"]) == len(stored)
    assert {id(args["e"]) for args, _ in calls["line_responses"]} == evaluated == stored


@pytest.mark.parametrize("change", ["cable", "length"])
def test_replaced_branch_matches_a_new_branch(grid, change):
    net = random_tree(3, 13)
    ev = Evaluation(grid)
    responses(net, grid, ev)  # holds every branch's E
    probe, tx = net.ports["probe"].node, net.ports["tx"].node
    br = tree_path(net, tx, probe)[0][0]  # on the link, so every response sees it
    if change == "cable":
        changed = dataclasses.replace(
            br, cable=scaled_cable(br.cable, r_scale=2.0, c_scale=1.3, g_scale=2.0))
    else:
        changed = dataclasses.replace(br, length_m=br.length_m + 17.0)
    warm = dataclasses.replace(
        net, branches=tuple(changed if b is br else b for b in net.branches))
    assert_same(responses(warm, grid, ev), responses(warm, grid))


def test_threads_sharing_branches_get_cold_results(grid):
    # both threads reduce the same topologies at once, each on its own
    # evaluations; a baseline and its faulty copy share all but one branch
    nets = [random_tree(*case) for case in [(1, 31), (3, 32), (3, 33)]]
    nets += [apply_anomaly(net, anomaly_case(net, "lumped"), grid) for net in nets]
    cold = [responses(net, grid) for net in nets]

    def reduce_rounds(_):
        evs = [Evaluation(grid) for _ in range(6)]
        return [responses(net, grid, ev) for ev in evs for net in nets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2) as pool:
            for got in pool.map(reduce_rounds, range(2)):
                for g, want in zip(got, cold * 6):
                    assert_same(g, want)
    finally:
        sys.setswitchinterval(interval)


def counted(spec, calls):
    """``spec`` whose evaluations are recorded in ``calls``."""
    def evaluate(f):
        calls.append(out)
        return spec.evaluate(f)
    out = AdmittanceSpec(spec.n_conductors, evaluate, spec.label)
    return out


def counting_tree(n_conductors, seed, evaluated):
    """A random tree whose loads and sources record their evaluations in
    ``evaluated``, its report already made (the report walks the tree)."""
    net = random_tree(n_conductors, seed)
    net = dataclasses.replace(
        net, loads={n: counted(ld, evaluated) for n, ld in net.loads.items()},
        ports={k: Port(p.node, counted(p.source, evaluated)) for k, p in net.ports.items()})
    assert net.report.valid
    return net


@pytest.mark.parametrize("n_conductors", [1, 3])
def test_repeated_reduction_does_no_work(grid, n_conductors):
    evaluated = []
    net = counting_tree(n_conductors, 41, evaluated)
    probe = net.ports["probe"].node
    ev = Evaluation(grid)
    for port, rx in (("probe", None), ("tx", probe)):
        first = reduce_to_port(net, port, grid, ev, rx)
        evaluated.clear()
        with recorded(network._walk, network._branch_step) as calls:
            again = reduce_to_port(net, port, grid, ev, rx)
        assert calls == {"_walk": [], "_branch_step": []} and evaluated == []
        cold = reduce_to_port(net, port, grid, rx=rx)
        assert again.y_in is not first.y_in
        assert_same([again.y_in.values, again.transfer], [cold.y_in.values, cold.transfer])
    # the reflection's reduction repeats the one before it: only its source
    # is evaluated, once
    reduce_to_port(net, "probe", grid, ev)
    evaluated.clear()
    with recorded(network._walk, network._branch_step) as calls:
        rho = [network_input_reflection(net, "probe", grid, ev).values for _ in range(2)]
    assert calls == {"_walk": [], "_branch_step": []}
    assert evaluated == [net.ports["probe"].source]
    assert_same(rho, [network_input_reflection(net, "probe", grid).values] * 2)


def test_repeated_reduction_is_not_altered_through_a_result(grid):
    net = random_tree(3, 42)
    probe = net.ports["probe"].node
    ev = Evaluation(grid)
    red = reduce_to_port(net, "tx", grid, ev, probe)
    y, h = red.y_in.values, red.transfer
    red.y_in.values, red.transfer = np.zeros_like(y), None
    again = reduce_to_port(net, "tx", grid, ev, probe)
    assert again.y_in.values is y and again.transfer is h
    for a in (y, h):
        with pytest.raises(ValueError):
            a[...] = 0.0


def test_another_call_is_reduced_again(grid):
    net = counting_tree(1, 43, [])
    tx = net.ports["tx"].node
    copy = dataclasses.replace(net)
    assert copy.report.valid
    ev = Evaluation(grid)
    reduce_to_port(net, "probe", grid, ev)
    # another receiver, port or topology object walks the tree again
    for topo, port, rx in ((net, "probe", tx), (net, "tx", None), (copy, "tx", None),
                           (net, "tx", None)):
        with recorded(network._walk) as calls:
            got = reduce_to_port(topo, port, grid, ev, rx)
        assert len(calls["_walk"]) == 1, (port, rx)
        cold = reduce_to_port(topo, port, grid, rx=rx)
        assert_same([got.y_in.values, got.transfer], [cold.y_in.values, cold.transfer])


def test_each_admittance_is_evaluated_once_per_evaluation(grid, std_cable):
    calls = []
    shared = counted(parallel_rc_admittance(100.0, 1e-9), calls)
    net = NetworkTopology(
        nodes=("t", "j", "p", "x", "y"),
        branches=(Branch("1", "t", "j", std_cable, 40.0),
                  Branch("2", "j", "p", std_cable, 55.0),
                  Branch("3", "j", "x", std_cable, 25.0),
                  Branch("4", "p", "y", std_cable, 30.0)),
        loads={"t": counted(modem(), calls), "p": counted(modem(), calls),
               "x": shared, "y": shared},
        ports={"tx": Port("t", counted(modem(), calls)),
               "probe": Port("p", counted(modem(), calls))})
    faulty = apply_anomaly(net, anomaly_case(net, "lumped"), grid)
    ev = Evaluation(grid)
    for topo in (net, faulty):
        responses(topo, grid, ev)
    fault = faulty.loads[next(n for n in faulty.nodes if n not in net.nodes)]
    # no reflection is formed at tx, so its source is never evaluated
    specs = [net.loads["t"], net.loads["p"], shared, net.ports["probe"].source]
    assert sorted(map(id, calls)) == sorted(map(id, specs))
    assert set(ev.admittances) == set(specs) | {fault}


def test_admittance_of_the_wrong_shape_names_its_node(grid, std_cable):
    wrong = AdmittanceSpec(1, lambda f: np.ones((f.size, 2, 2), complex), "wrong")
    net = single_line_net(std_cable, 80.0, wrong)
    with pytest.raises(ValidationError, match=r"^load at 'b' evaluates to shape \(120, 2, 2\)$"):
        reduce_to_port(net, "p", grid)
    net = single_line_net(std_cable, 80.0, modem())
    net = net.with_port("p", Port("a", wrong))
    with pytest.raises(ValidationError, match="^source of port 'p' evaluates to shape"):
        network_input_reflection(net, "p", grid)


def passivity_case(rng, kind, n_f, n):
    """(n_f, n, n) admittances of one kind: passive diagonal or full ones,
    ones whose Hermitian part has its smallest eigenvalue at 0.5 to 2 times
    the -1e-9 tolerance (never within 10 % of it, where rounding alone
    decides), active ones, or passive ones with a NaN entry."""
    def draw(shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)
    a, b = draw((n_f, n, n)), draw((n_f, n, n))
    diagonal = kind == "diagonal" or (kind != "full" and rng.random() < 0.5)
    if diagonal:
        a *= np.eye(n)
    herm = a @ np.conj(np.swapaxes(a, -1, -2))
    herm -= np.linalg.eigvalsh(herm)[:, :1, None] * np.eye(n)  # smallest at 0
    y = herm + 0.5 * (b - np.conj(np.swapaxes(b, -1, -2)))
    if diagonal:
        y *= np.eye(n)
    scale = np.max(np.abs(y))
    if kind == "near":
        k = rng.choice([0.5, 0.9, 1.1, 2.0], size=n_f)
        y -= (k * 1e-9 * scale)[:, None, None] * np.eye(n)
    elif kind == "active":
        y[rng.integers(n_f)] -= 0.1 * scale * np.eye(n)
    elif kind == "nan":
        y[rng.integers(n_f), rng.integers(n), rng.integers(n)] = np.nan
    else:
        y += rng.uniform(0.0, 0.1 * scale, n_f)[:, None, None] * np.eye(n)
    return y


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["diagonal", "full", "near", "active", "nan"]),
       n=st.integers(1, 4), n_f=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_screened_passivity_equals_eigvalsh(kind, n, n_f, seed):
    y = passivity_case(np.random.default_rng(seed), kind, n_f, n)
    spec = AdmittanceSpec(n, lambda f: y.copy(), "case")

    def outcome(check, *args):  # a NaN may stop eigvalsh from converging
        try:
            return check(*args)
        except np.linalg.LinAlgError as exc:
            return str(exc)
    assert outcome(spec.is_passive, np.arange(n_f, dtype=float)) == outcome(is_passive, y)


@pytest.mark.parametrize("kind", ["near", "active", "nan"])
@settings(max_examples=25, deadline=None)
@given(unit=st.sampled_from([1e-6, 1.0, 1e6]), n_f=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_scalar_passivity_equals_eigvalsh(kind, unit, n_f, seed):
    # at L = 1 the check is the sign of Re Y against 1e-9 of max |Y|; the
    # near-threshold cases in units of 1e-6 and 1e6 S fail it if the
    # threshold loses its scale, and the active ones if |Y| replaces Re Y
    y = unit * passivity_case(np.random.default_rng(seed), kind, n_f, 1)
    spec = AdmittanceSpec(1, lambda f: y.copy(), "case")
    assert spec.is_passive(np.arange(n_f, dtype=float)) == is_passive(y)


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
    lambda net: reduce_to_port(net, "tx", FrequencyGrid(1e5, 1e5, 4), rx="nope"),
], ids=["tree_path-from", "tree_path-to", "node_distances", "farthest_node",
        "reduce_to_port-rx"])
def test_unknown_node_is_named(call):
    net = random_tree(1, 23)
    with pytest.raises(ValidationError, match="unknown node 'nope'"):
        call(net)
