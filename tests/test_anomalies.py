"""Anomaly insertion and the chain/superposition effect models."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from plnsim.anomalies import (DistributedFault, LoadChange, LumpedFault,
                              apply_anomaly, delta_chain, delta_superposition)
from plnsim.cables import scaled_cable
from plnsim.errors import SingularityError, ValidationError
from plnsim.mtl import FrequencyGrid, MatrixSpectrum
from plnsim.network import (AdmittanceSpec, Branch, conductance, constant_admittance,
                            end_to_end_ctf, network_input_reflection,
                            parallel_rc_admittance, reduce_to_port)

from conftest import rel_err, single_line_net


@pytest.fixture()
def base_net(std_cable):
    return single_line_net(std_cable, 120.0, parallel_rc_admittance(200.0, 1e-9))


def responses(net, grid):
    y = reduce_to_port(net, "p", grid).y_in
    rho = network_input_reflection(net, "p", grid)
    h = end_to_end_ctf(net, "p", "b", grid)
    return y, rho, h


# ---------------------------------------------------------------------------
# structural application

def test_lumped_fault_adds_loaded_node(base_net, grid):
    fault = LumpedFault("s", 40.0, conductance(0.05))
    out = apply_anomaly(base_net, fault, grid)
    assert out.report.valid
    assert len(out.branches) == 2
    new_nodes = set(out.nodes) - set(base_net.nodes)
    assert len(new_nodes) == 1
    node = new_nodes.pop()
    assert node in out.loads
    assert {b.length_m for b in out.branches} == {40.0, 80.0}
    assert base_net.nodes == ("a", "b")  # input untouched


def test_lumped_fault_node_id_is_made_unique(base_net, grid, std_cable):
    # the far node already carries the id the fault node would get
    net = replace(base_net, nodes=("a", "s@40m"),
                  branches=(Branch("s", "a", "s@40m", std_cable, 120.0),),
                  loads={"s@40m": base_net.loads["b"]})
    out = apply_anomaly(net, LumpedFault("s", 40.0, conductance(0.01)), grid)
    assert out.nodes == ("a", "s@40m", "s@40m~2")
    assert "s@40m~2" in out.loads and out.report.valid


def test_lumped_fault_offset_range(base_net, grid):
    for off in (-1.0, 0.0, 120.0, 200.0):
        with pytest.raises(ValidationError, match="offset"):
            apply_anomaly(base_net, LumpedFault("s", off, conductance(0.01)), grid)


def test_lumped_fault_conductor_mismatch(base_net, grid):
    with pytest.raises(ValidationError, match="conductor"):
        apply_anomaly(base_net, LumpedFault("s", 40.0, conductance(0.01, 2)), grid)


def test_active_fault_needs_flag(base_net, grid):
    hot = constant_admittance(-0.01, label="negative-g")
    with pytest.raises(ValidationError, match="active"):
        apply_anomaly(base_net, LumpedFault("s", 40.0, hot), grid)
    out = apply_anomaly(base_net, LumpedFault("s", 40.0, hot, active=True), grid)
    assert out.report.valid


@pytest.mark.parametrize("shape", [(-1,), (-1, 2, 2), (3, 1, 1)], ids=str)
def test_passivity_check_rejects_a_fault_of_the_wrong_shape(base_net, grid, shape):
    # the check evaluates the fault through the shape check the reduction
    # uses, so it is never judged on another matrix, nor fails in numpy
    n_f = grid.n_points
    y = np.ones(tuple(n_f if s == -1 else s for s in shape), complex)
    flat = AdmittanceSpec(1, lambda f: y, "flat")
    with pytest.raises(ValidationError,
                       match=rf"^admittance 'flat' evaluates to shape \({y.shape[0]},"):
        apply_anomaly(base_net, LumpedFault("s", 40.0, flat), grid)


def test_reciprocal_fault_that_delivers_power_is_active(coupled_cable, grid):
    # eigenvalues 1 +- 2.24j lie in the right half-plane, but the Hermitian
    # part [[1, 2], [2, 1]] has the eigenvalue -1: V = [1, -1] draws 2 W out
    net = single_line_net(coupled_cable, 120.0, constant_admittance(0.01, 2))
    hot = constant_admittance([[1 + 3j, 2], [2, 1 - 3j]], 2)
    with pytest.raises(ValidationError, match="Hermitian part"):
        apply_anomaly(net, LumpedFault("s", 40.0, hot), grid)
    reactive = constant_admittance([[3j, -1j], [-1j, 2j]], 2)  # lossless
    assert apply_anomaly(net, LumpedFault("s", 40.0, reactive), grid).report.valid


@pytest.mark.parametrize("n", [1, 3])
def test_passivity_check_of_the_largest_admittances(grid, n):
    # each term of the Hermitian part is halved before the sum, so a fault
    # near the largest finite float is checked without an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert constant_admittance(1.7e308, n).is_passive(grid.frequencies)
        assert not constant_admittance(-1.7e308, n).is_passive(grid.frequencies)


def test_load_change_requires_existing_load(base_net, grid):
    with pytest.raises(ValidationError, match="no load"):
        apply_anomaly(base_net, LoadChange("a", conductance(0.01)), grid)
    out = apply_anomaly(base_net, LoadChange("b", conductance(0.02)), grid)
    assert out.loads["b"].label == "g=0.02S"


def test_load_change_checks_the_new_load(base_net, grid):
    # as a fault admittance is, with no flag to skip it: an active load
    # would make the probe's Re Y_in negative, and a load of the wrong shape
    # would fail only at reduction
    with pytest.raises(ValidationError, match="replacement load is active"):
        apply_anomaly(base_net, LoadChange("b", constant_admittance(-0.01)), grid)
    flat = AdmittanceSpec(1, lambda f: np.ones(f.size, complex), "flat")
    with pytest.raises(ValidationError, match=r"^admittance 'flat' evaluates to shape"):
        apply_anomaly(base_net, LoadChange("b", flat), grid)


def test_distributed_fault_splits_three_ways(base_net, grid, std_cable):
    degraded = scaled_cable(std_cable, c_scale=1.3, label="aged")
    out = apply_anomaly(base_net, DistributedFault("s", 30.0, 50.0, degraded), grid)
    assert out.report.valid
    assert len(out.branches) == 3
    lengths = sorted(b.length_m for b in out.branches)
    assert lengths == [30.0, 40.0, 50.0]
    labels = {b.cable.label for b in out.branches}
    assert labels == {"pl-std", "aged"}


def test_distributed_fault_boundary_cases(base_net, grid, std_cable):
    degraded = scaled_cable(std_cable, c_scale=1.3, label="aged")
    two = apply_anomaly(base_net, DistributedFault("s", 0.0, 50.0, degraded), grid)
    assert len(two.branches) == 2
    whole = apply_anomaly(base_net, DistributedFault("s", 0.0, 120.0, degraded), grid)
    assert len(whole.branches) == 1
    assert whole.branches[0].cable.label == "aged"
    with pytest.raises(ValidationError, match="outside"):
        apply_anomaly(base_net, DistributedFault("s", 100.0, 50.0, degraded), grid)


@pytest.mark.parametrize("start,extent", [(np.nan, 30.0), (30.0, np.nan)])
def test_distributed_fault_rejects_non_finite_range(base_net, grid, std_cable,
                                                    start, extent):
    degraded = scaled_cable(std_cable, c_scale=1.3, label="aged")
    with pytest.raises(ValidationError):
        apply_anomaly(base_net, DistributedFault("s", start, extent, degraded), grid)


# ---------------------------------------------------------------------------
# zero-severity identities (all three variants)

@pytest.mark.parametrize("make", [
    lambda net, cable: LumpedFault("s", 40.0, conductance(0.0)),
    lambda net, cable: LoadChange("b", net.loads["b"]),
    lambda net, cable: DistributedFault("s", 30.0, 50.0, cable),
], ids=["lumped", "load-change", "distributed"])
def test_zero_severity(base_net, grid, std_cable, make):
    out = apply_anomaly(base_net, make(base_net, std_cable), grid)
    for a, b in zip(responses(out, grid), responses(base_net, grid)):
        assert rel_err(a.values, b.values) < 1e-12


# ---------------------------------------------------------------------------
# delta models

def test_chain_identity_on_equal_spectra(base_net, grid):
    y, _, _ = responses(base_net, grid)
    d = delta_chain(y, y)
    assert np.max(np.abs(d.values - np.eye(1))) < 1e-13
    assert d.model == "chain" and d.kind == "admittance"
    assert np.max(np.abs(delta_superposition(y, y).values)) == 0.0


def test_chain_is_scalar_division(base_net, grid):
    y0, _, _ = responses(base_net, grid)
    out = apply_anomaly(base_net, LumpedFault("s", 40.0, conductance(0.03)), grid)
    y1, _, _ = responses(out, grid)
    d = delta_chain(y1, y0)
    ref = y1.values[:, 0, 0] / y0.values[:, 0, 0]
    assert rel_err(d.values[:, 0, 0], ref) < 1e-12


def test_delta_grid_mismatch(base_net, grid):
    other = FrequencyGrid(1e5, 2e5, grid.n_points)
    y0, _, _ = responses(base_net, grid)
    y_other = MatrixSpectrum(other, y0.values, "admittance")
    with pytest.raises(ValidationError, match="grid"):
        delta_chain(y_other, y0)


def test_delta_singular_baseline(grid):
    zeros = MatrixSpectrum(grid, np.zeros((grid.n_points, 1, 1), complex),
                           "admittance")
    with pytest.raises(SingularityError, match="singular"):
        delta_chain(zeros, zeros)


def test_delta_rejects_delta_kind(base_net, grid):
    y0, _, _ = responses(base_net, grid)
    d = delta_superposition(y0, y0)
    for pair in ((d, d), (d, y0), (y0, d)):
        with pytest.raises(ValidationError, match="delta spectrum"):
            delta_chain(*pair)
        with pytest.raises(ValidationError, match="delta spectrum"):
            delta_superposition(*pair)


def test_spectrum_rejects_unknown_model(grid):
    with pytest.raises(ValidationError, match="delta model"):
        MatrixSpectrum(grid, np.ones((grid.n_points, 1, 1)), "admittance", "ratio")
    with pytest.raises(ValidationError, match="kind"):
        MatrixSpectrum(grid, np.ones((grid.n_points, 1, 1)), "delta")
