"""Electrical anomalies and the two models that quantify their effect.

Three anomaly variants are supported:

* lumped fault: a shunt admittance appearing at a point on a branch; it adds
  a new network node with the fault admittance as its load;
* load change: a termination admittance replaced in place, no new node;
* distributed fault: a branch section whose cable is uniformly degraded,
  creating discontinuities at the section boundaries.

Given a baseline response X and the perturbed response X_a on the same grid,
the chain model describes the anomaly as a multiplicative factor
delta_chain = X_a X^-1 and the superposition model as an additive term
delta_sup = X_a - X, with the normalized variant
delta_sup_n = (X_a - X) X^-1 = delta_chain - I (an exact identity).
A delta is a ``MatrixSpectrum`` of the response's kind with ``model`` set;
chain deltas are dimensionless, superposition deltas carry the units of the
quantity.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass, replace
from typing import Union

from .errors import ValidationError
from .mtl import CableSpec, FrequencyGrid, MatrixSpectrum, _rdiv
from .network import AdmittanceSpec, Branch, NetworkTopology

__all__ = [
    "LumpedFault",
    "LoadChange",
    "DistributedFault",
    "Anomaly",
    "apply_anomaly",
    "delta_chain",
    "delta_superposition",
    "REFLECTION_CHAIN_WARNING",
]

REFLECTION_CHAIN_WARNING = (
    "chain deltas of reflection spectra are jagged where the baseline "
    "crosses zero; prefer the superposition model for reflection sensing")

_SINGULAR_BASELINE = "baseline response is singular"


@dataclass(frozen=True, eq=False)
class LumpedFault:
    """Concentrated shunt fault on a branch, ``offset_m`` from node_a.
    Conductor-to-conductor faults are off-diagonal entries of y_f."""

    branch_id: str
    offset_m: float
    y_f: AdmittanceSpec
    active: bool = False  # skip the passivity check when explicitly flagged


@dataclass(frozen=True, eq=False)
class LoadChange:
    """The load at ``node_id`` replaced by ``new_load``."""

    node_id: str
    new_load: AdmittanceSpec


@dataclass(frozen=True, eq=False)
class DistributedFault:
    """Uniformly degraded cable section [start_m, start_m + extent_m] of a
    branch, measured from node_a."""

    branch_id: str
    start_m: float
    extent_m: float
    degraded: CableSpec


Anomaly = Union[LumpedFault, LoadChange, DistributedFault]


def _unique(name: str, taken: Container[str]) -> str:
    """``name``, or the first free ``name~k`` for k = 2, 3, ..."""
    candidate = name
    k = 2
    while candidate in taken:
        candidate = f"{name}~{k}"
        k += 1
    return candidate


def _split_branch(net: NetworkTopology, branch: Branch,
                  cuts: list[float], cables: list[CableSpec]) -> tuple[NetworkTopology, list[str]]:
    """Replace a branch by consecutive segments cut at the given offsets.
    ``cables`` has one entry per segment.  Returns the new topology and the
    ids of the interior nodes created, in order from node_a."""
    offsets = [0.0] + list(cuts) + [branch.length_m]
    taken_nodes = set(net.nodes)
    taken_branches = {b.id for b in net.branches}
    interior: list[str] = []
    for cut in cuts:
        node_id = _unique(f"{branch.id}@{cut:g}m", taken_nodes)
        taken_nodes.add(node_id)
        interior.append(node_id)
    endpoints = [branch.node_a] + interior + [branch.node_b]

    new_branches: list[Branch] = []
    for k, cable in enumerate(cables):
        bid = _unique(f"{branch.id}#{k + 1}", taken_branches)
        taken_branches.add(bid)
        new_branches.append(Branch(id=bid, node_a=endpoints[k],
                                   node_b=endpoints[k + 1], cable=cable,
                                   length_m=offsets[k + 1] - offsets[k]))

    branches = tuple(b for b in net.branches if b.id != branch.id) + tuple(new_branches)
    nodes = net.nodes + tuple(interior)
    return replace(net, nodes=nodes, branches=branches), interior


def apply_anomaly(net: NetworkTopology, anomaly: Anomaly,
                  grid: FrequencyGrid) -> NetworkTopology:
    """Return a new topology with the anomaly inserted.  The input network is
    left untouched.  A lumped fault's admittance, unless flagged active, and a
    replacement load are checked for shape and passivity on ``grid``."""
    if isinstance(anomaly, LumpedFault):
        branch = net.branch(anomaly.branch_id)
        if not 0.0 < anomaly.offset_m < branch.length_m:
            raise ValidationError(
                f"fault offset {anomaly.offset_m:g} m outside branch "
                f"{branch.id!r} interior (0, {branch.length_m:g})")
        if anomaly.y_f.n_conductors != net.n_conductors:
            raise ValidationError("fault admittance conductor count mismatch")
        if not anomaly.active and not anomaly.y_f.is_passive(grid.frequencies):
            raise ValidationError(
                "fault admittance is active: the Hermitian part of Y_f has a "
                "negative eigenvalue; set active=True if this is intended")
        out, interior = _split_branch(net, branch, [anomaly.offset_m],
                                      [branch.cable, branch.cable])
        loads = dict(out.loads)
        loads[interior[0]] = anomaly.y_f
        return replace(out, loads=loads)

    if isinstance(anomaly, LoadChange):
        if anomaly.node_id not in net.loads:
            raise ValidationError(
                f"node {anomaly.node_id!r} carries no load to change")
        if anomaly.new_load.n_conductors != net.n_conductors:
            raise ValidationError("replacement load conductor count mismatch")
        if not anomaly.new_load.is_passive(grid.frequencies):
            raise ValidationError(
                "replacement load is active: the Hermitian part of its "
                "admittance has a negative eigenvalue")
        loads = dict(net.loads)
        loads[anomaly.node_id] = anomaly.new_load
        return replace(net, loads=loads)

    if isinstance(anomaly, DistributedFault):
        branch = net.branch(anomaly.branch_id)
        start, extent = anomaly.start_m, anomaly.extent_m
        if not extent > 0:
            raise ValidationError("distributed fault extent must be positive")
        if not (start >= 0 and start + extent <= branch.length_m):
            raise ValidationError(
                f"degraded section [{start:g}, {start + extent:g}] m outside "
                f"branch {branch.id!r} of length {branch.length_m:g} m")
        if anomaly.degraded.n_conductors != branch.cable.n_conductors:
            raise ValidationError("degraded cable conductor count mismatch")
        cuts, cables = [], []
        if start > 0:
            cuts.append(start)
            cables.append(branch.cable)
        cables.append(anomaly.degraded)
        if start + extent < branch.length_m:
            cuts.append(start + extent)
            cables.append(branch.cable)
        if not cuts:  # whole branch degraded: just swap the cable
            branches = tuple(
                replace(b, cable=anomaly.degraded) if b.id == branch.id else b
                for b in net.branches)
            return replace(net, branches=branches)
        out, _ = _split_branch(net, branch, cuts, cables)
        return out

    raise ValidationError(f"unknown anomaly type {type(anomaly).__name__}")


# ---------------------------------------------------------------------------
# effect models

def _check_pair(perturbed: MatrixSpectrum, baseline: MatrixSpectrum) -> None:
    if perturbed.grid != baseline.grid:
        raise ValidationError("perturbed and baseline spectra use different grids")
    if perturbed.kind != baseline.kind:
        raise ValidationError("perturbed and baseline spectra are different quantities")
    if perturbed.model or baseline.model:
        raise ValidationError("deltas are undefined for a delta spectrum")


def delta_chain(perturbed: MatrixSpectrum, baseline: MatrixSpectrum) -> MatrixSpectrum:
    """Multiplicative anomaly factor X_a X^-1 per frequency."""
    _check_pair(perturbed, baseline)
    vals = _rdiv(perturbed.values, baseline.values, baseline.grid.frequencies,
                 _SINGULAR_BASELINE)
    return MatrixSpectrum(baseline.grid, vals, baseline.kind, "chain")


def delta_superposition(perturbed: MatrixSpectrum, baseline: MatrixSpectrum,
                        normalize: bool = False) -> MatrixSpectrum:
    """Additive anomaly term X_a - X; normalized variant (X_a - X) X^-1,
    which equals the chain delta minus the identity."""
    _check_pair(perturbed, baseline)
    vals = perturbed.values - baseline.values
    model = "superposition"
    if normalize:
        vals = _rdiv(vals, baseline.values, baseline.grid.frequencies,
                     _SINGULAR_BASELINE)
        model = "superposition_normalized"
    return MatrixSpectrum(baseline.grid, vals, baseline.kind, model)
