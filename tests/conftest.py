"""Shared fixtures and network builders for the test suite."""

from dataclasses import replace

import numpy as np
import pytest

from plnsim.cables import builtin_cable_library, constant_rlgc_cable, powerline_cable
from plnsim.experiments import EnsembleConfig, generate_random_network
from plnsim.mtl import FrequencyGrid, line_propagation_params
from plnsim.network import (AdmittanceSpec, Branch, NetworkTopology, Port,
                            constant_admittance)
from plnsim.timedomain import TimeTrace, TraceOrigin


@pytest.fixture(scope="session")
def grid():
    """Coarse grid for algebra-level tests."""
    return FrequencyGrid(1e5, 1e5, 120)


@pytest.fixture(scope="session")
def grid_wide():
    """Full default band, needed whenever time resolution matters."""
    return FrequencyGrid(1e5, 1e5, 800)


@pytest.fixture(scope="session")
def lib():
    return builtin_cable_library()


@pytest.fixture(scope="session")
def std_cable(lib):
    return lib["pl-std"]


@pytest.fixture(scope="session")
def coupled_cable():
    return powerline_cable(n_conductors=2, label="coupled-2c")


def lossless_cable(l=5e-7, c=1e-10, label="lossless"):
    return constant_rlgc_cable(0.0, l, 0.0, c, label=label)


def matched_load(cable, grid):
    """Load evaluator that tracks the cable's characteristic admittance."""
    params = line_propagation_params(cable, grid)
    return AdmittanceSpec(cable.n_conductors, lambda f: params.yc.copy(),
                          label="matched")


def single_line_net(cable, length, load, y_r=0.02):
    src = constant_admittance(y_r, cable.n_conductors, label="modem")
    return NetworkTopology(
        nodes=("a", "b"),
        branches=(Branch("s", "a", "b", cable, length),),
        loads={"b": load},
        ports={"p": Port("a", src)},
    )


def resolvable_tree_family(seed, count, lib, quantum=15.0):
    """Random trees built so every arrival is resolvable at the default band:
    one cable (one velocity), branch lengths on a 15 m lattice (all path
    delay differences >= 16 samples), and strongly mismatched resistive
    loads alternating low/high so echoes stay above threshold and the two
    transfer directions see clearly different amplitudes."""
    cfg = EnsembleConfig(n_nodes=(5, 8), seed=seed, cables=(lib["pl-std"],),
                         branch_length_m=(20.0, 90.0))
    rng = np.random.default_rng(seed)
    nets = []
    for i in range(count):
        net = generate_random_network(cfg, i)
        branches = tuple(
            replace(b, length_m=max(quantum, round(b.length_m / quantum) * quantum))
            for b in net.branches)
        net = replace(net, branches=branches)
        loads = {}
        for k, node in enumerate(sorted(net.loads)):
            r = (float(rng.uniform(10, 35)) if k % 2 == 0
                 else float(rng.uniform(180, 1200)))
            loads[node] = constant_admittance(1.0 / r, label=f"{r:.0f}ohm")
        nets.append(replace(net, loads=loads))
    return nets


def random_passive_matrix(rng, n, scale=0.01):
    """Random complex admittance-like matrix with positive-definite real part."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    y = scale * (a + a.T) / 2
    return y + scale * (n + 1) * np.eye(n)


def spectrum_const(value, grid, n=1):
    """Constant (n_f, n, n) stack from a scalar or matrix."""
    mat = np.asarray(value, dtype=complex)
    if mat.ndim == 0:
        mat = mat * np.eye(n)
    return np.broadcast_to(mat, (grid.n_points,) + mat.shape).copy()


# a power of two: on-lattice peak times and their differences are exact
SPIKE_T_STEP = 2.0 ** -24


def spike_trace(peaks):
    """512-sample scalar trace, zero but for {sample index: amplitude}; each
    spike is one detected peak when the spikes lie more than 3 samples apart."""
    samples = np.zeros((512, 1, 1))
    for i, amplitude in peaks.items():
        samples[i, 0, 0] = amplitude
    return TimeTrace(SPIKE_T_STEP, samples, TraceOrigin("admittance"))
