"""Tree-topology network model and its reduction to port responses.

A network is a frozen tree of nodes joined by cable branches, whose
structural checks and adjacency are computed once, on first read.
Terminations and sources are frequency-dependent admittance evaluators so
constant, RLC and tabulated models share one interface.  Junctions are ideal:
voltages equal, currents sum, no parasitics.

Every rooted traversal is one breadth-first walk (``_walk``).  The reduction
carries the tree from the leaves toward a port, replacing each subtree by its
equivalent admittance (carry-back).  The end-to-end transfer function is the
ordered product of per-segment voltage transfers along the
transmitter-receiver backbone, each segment terminated by the equivalent
admittance of everything beyond it.  It is read from the transmit port's
reduction: a segment is terminated by the equivalent that the carry-back
across the same branch has just used, so one line step gives both, from one
elimination.  A step hands that equivalent admittance to the line function
as it is; no reflection is formed on the way.  The tests check this
reduction against a two-section closed form and a chain-parameter solution
of their own.

Reductions on one grid share work through an ``Evaluation``, which the caller
makes and drops; a call without one makes a private one.  It holds, read-only,
each branch's propagation factor E = exp(-Gamma l), computed on the branch's
first step, and the last reduction's node equivalents, keyed by subtree
structure: a node's load object and its (branch, child key) pairs, built from
the leaves up.  Branches and loads are frozen and hash by identity, so a key
names one whole subtree exactly, and equal keys have bit-identical
equivalents.  A reduction keeps the entries it reuses and frees the rest
before it computes.  So a second reduction at the same port computes nothing,
one at another port recomputes only the path between the two, and a perturbed
copy only the nodes whose subtree the anomaly changed.  Topologies and
branches hold no such state.  The one process-wide result cache is the cable
decomposition, ``mtl.line_propagation_params``, keyed by cable and grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .errors import SingularityError, UsageError, ValidationError
from .mtl import (CableSpec, FrequencyGrid, MatrixSpectrum, _cols, _matmul, _stack,
                  ctf_line, input_admittance_line, input_reflection,
                  line_propagation_params, line_responses, propagator)

__all__ = [
    "AdmittanceSpec",
    "constant_admittance",
    "parallel_rc_admittance",
    "open_circuit",
    "conductance",
    "table_admittance",
    "Branch",
    "Port",
    "NetworkTopology",
    "ValidationReport",
    "Evaluation",
    "PortReduction",
    "reduce_to_port",
    "network_input_reflection",
    "end_to_end_ctf",
    "tree_path",
    "node_distances",
    "farthest_node",
]


# ---------------------------------------------------------------------------
# admittance evaluators

@dataclass(frozen=True, eq=False)
class AdmittanceSpec:
    """Frequency-dependent L x L admittance used for loads, sources and
    shunt faults.  ``evaluate(f)`` maps (n_f,) -> (n_f, L, L) complex, S.
    ``meta`` is (model, params): the constructor's name in topology files
    and its arguments but ``n_conductors`` and ``label``, as it holds them."""

    n_conductors: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    label: str = ""
    meta: tuple[str, Mapping] | None = None

    def is_passive(self, f: np.ndarray) -> bool:
        """True when the Hermitian part Y / 2 + Y^H / 2 (halved first, so a
        finite Y cannot overflow) is positive semidefinite at every frequency
        to 1e-9 of the largest |Y(f)| entry: no voltage draws power out of Y."""
        y = self.evaluate(f)
        herm = 0.5 * y + 0.5 * np.conj(np.swapaxes(y, -1, -2))
        scale = float(np.max(np.abs(y))) + 1e-300
        return bool(np.min(np.linalg.eigvalsh(herm)) >= -1e-9 * scale)


def constant_admittance(y_s, n_conductors: int = 1, label: str = "") -> AdmittanceSpec:
    """Frequency-independent admittance.  A scalar y_s means y_s * identity."""
    if not np.all(np.isfinite(y_s)):
        raise ValidationError("constant admittance y_s must be finite")
    n = n_conductors
    mat = np.array(y_s, dtype=complex)
    if mat.ndim == 0:
        mat = mat * np.eye(n)
    if mat.shape != (n, n):
        raise ValidationError(f"admittance matrix has shape {mat.shape}, expected {(n, n)}")
    mat.flags.writeable = False

    def evaluate(f: np.ndarray) -> np.ndarray:
        return np.broadcast_to(mat, (f.size, n, n)).copy()

    return AdmittanceSpec(n, evaluate, label or "constant",
                          ("constant", MappingProxyType({"y_s": mat})))


def parallel_rc_admittance(r_ohm: float, c_farad: float,
                           n_conductors: int = 1) -> AdmittanceSpec:
    """Per-conductor parallel RC to the reference: Y = (1/R + j 2 pi f C) I."""
    if not (0.0 < r_ohm < np.inf and 0.0 <= c_farad < np.inf):
        raise ValidationError("parallel RC load needs finite r_ohm > 0 and c_farad >= 0, "
                              f"got r_ohm={r_ohm!r}, c_farad={c_farad!r}")
    n = n_conductors
    r_ohm, c_farad = float(r_ohm), float(c_farad)

    def evaluate(f: np.ndarray) -> np.ndarray:
        y = 1.0 / r_ohm + 1j * 2.0 * np.pi * f * c_farad
        return y[:, None, None] * np.eye(n)

    return AdmittanceSpec(n, evaluate, f"rc({r_ohm:g},{c_farad:g})",
                          ("parallel_rc", MappingProxyType({"r_ohm": r_ohm,
                                                            "c_farad": c_farad})))


def open_circuit(n_conductors: int = 1) -> AdmittanceSpec:
    """Zero admittance (open termination)."""
    n = n_conductors

    def evaluate(f: np.ndarray) -> np.ndarray:
        return np.zeros((f.size, n, n), dtype=complex)

    return AdmittanceSpec(n, evaluate, "open", ("open", MappingProxyType({})))


def conductance(g_siemens: float, n_conductors: int = 1) -> AdmittanceSpec:
    """Pure per-conductor conductance g * I; g = 0 is an invisible shunt."""
    return constant_admittance(complex(g_siemens), n_conductors,
                               label=f"g={g_siemens:g}S")


def table_admittance(f_hz, y_s, n_conductors: int = 1) -> AdmittanceSpec:
    """Tabulated admittance, linearly interpolated per entry.  ``y_s`` is
    (n_table,) for scalar-diagonal loads or (n_table, L, L)."""
    ft = np.array(f_hz, dtype=float)
    yt = np.array(y_s, dtype=complex)
    if ft.ndim != 1 or ft.size < 2 or np.any(np.diff(ft) <= 0):
        raise ValidationError("table frequencies must be increasing, length >= 2")
    if not (np.all(np.isfinite(ft)) and np.all(np.isfinite(yt))):
        raise ValidationError("table f_hz and y_s must be finite")
    n = n_conductors
    if yt.ndim == 1:
        yt = yt[:, None, None] * np.eye(n)
    if yt.shape != (ft.size, n, n):
        raise ValidationError("table values must have shape (n_table,) or (n_table, L, L)")
    ft.flags.writeable = yt.flags.writeable = False

    def evaluate(f: np.ndarray) -> np.ndarray:
        out = np.empty((f.size, n, n), dtype=complex)
        for r in range(n):
            for c in range(n):
                out[:, r, c] = np.interp(f, ft, yt[:, r, c])
        return out

    return AdmittanceSpec(n, evaluate, "table",
                          ("table", MappingProxyType({"f_hz": ft, "y_s": yt})))


# ---------------------------------------------------------------------------
# topology

@dataclass(frozen=True, eq=False)
class Branch:
    """A cable section between two nodes."""

    id: str
    node_a: str
    node_b: str
    cable: CableSpec
    length_m: float


@dataclass(frozen=True, eq=False)
class Port:
    node: str
    source: AdmittanceSpec  # admittance of the attached generator/modem


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    problems: tuple[str, ...]

    def __str__(self) -> str:
        if self.valid:
            return "valid"
        return "invalid:\n" + "\n".join(f"  - {p}" for p in self.problems)


@dataclass(frozen=True, eq=False)
class NetworkTopology:
    """Frozen tree network; ``loads`` and ``ports`` are read-only copies.  Use
    dataclasses.replace, ``with_port`` or the anomaly layer to derive modified
    copies.  The structural checks (``report``) and the adjacency are computed
    once per instance, on first read."""

    nodes: tuple[str, ...]
    branches: tuple[Branch, ...]
    loads: Mapping[str, AdmittanceSpec]
    ports: Mapping[str, Port]

    def __post_init__(self):
        # the cached report and adjacency hold only while the fields do
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "branches", tuple(self.branches))
        object.__setattr__(self, "loads", MappingProxyType(dict(self.loads)))
        object.__setattr__(self, "ports", MappingProxyType(dict(self.ports)))

    @property
    def n_conductors(self) -> int:
        if not self.branches:
            raise ValidationError("network has no branches")
        return self.branches[0].cable.n_conductors

    @cached_property
    def adjacency(self) -> Mapping[str, tuple[tuple[Branch, str], ...]]:
        adj: dict[str, list[tuple[Branch, str]]] = {n: [] for n in self.nodes}
        for b in self.branches:
            adj[b.node_a].append((b, b.node_b))
            adj[b.node_b].append((b, b.node_a))
        return MappingProxyType({n: tuple(nbrs) for n, nbrs in adj.items()})

    @cached_property
    def report(self) -> ValidationReport:
        """Structural checks: tree shape, connectivity, terminated leaves,
        finite positive lengths, one conductor count throughout."""
        problems: list[str] = []
        nodes = list(self.nodes)
        if len(set(nodes)) != len(nodes):
            problems.append("duplicate node ids")
        ids = [b.id for b in self.branches]
        if len(set(ids)) != len(ids):
            problems.append("duplicate branch ids")
        node_set = set(nodes)
        for b in self.branches:
            if b.node_a not in node_set or b.node_b not in node_set:
                problems.append(f"branch {b.id!r} references unknown nodes")
            if b.node_a == b.node_b:
                problems.append(f"branch {b.id!r} is a self-loop")
            if not 0.0 < b.length_m < np.inf:
                problems.append(f"branch {b.id!r} length must be finite and positive, "
                                f"got {b.length_m!r}")
        for node in self.loads:
            if node not in node_set:
                problems.append(f"load references unknown node {node!r}")
        for name, port in self.ports.items():
            if port.node not in node_set:
                problems.append(f"port {name!r} references unknown node {port.node!r}")

        if len(self.branches) != len(nodes) - 1:
            problems.append(
                f"not a tree: {len(nodes)} nodes need {len(nodes) - 1} branches, "
                f"found {len(self.branches)}")
        if not problems:
            if len(_walk(self, nodes[0])[0]) != len(nodes):
                problems.append("not connected")
            else:
                port_nodes = {p.node for p in self.ports.values()}
                for n in nodes:
                    if (len(self.adjacency[n]) == 1 and n not in self.loads
                            and n not in port_nodes):
                        problems.append(f"dangling leaf {n!r}: no load and no port")

        counts = {b.cable.n_conductors for b in self.branches}
        counts |= {ld.n_conductors for ld in self.loads.values()}
        counts |= {p.source.n_conductors for p in self.ports.values()}
        if len(counts) > 1:
            problems.append(f"mixed conductor counts {sorted(counts)}")
        return ValidationReport(valid=not problems, problems=tuple(problems))

    def branch(self, branch_id: str) -> Branch:
        for b in self.branches:
            if b.id == branch_id:
                return b
        raise ValidationError(f"no branch with id {branch_id!r}")

    def with_port(self, name: str, port: Port) -> "NetworkTopology":
        return replace(self, ports={**self.ports, name: port})


# ---------------------------------------------------------------------------
# traversal helpers

def _walk(net: NetworkTopology, root: str):
    """Breadth-first walk from ``root``: the visit order of every reachable
    node, and each one's (parent branch, parent node), None at the root."""
    adj = net.adjacency
    if root not in adj:
        raise ValidationError(f"unknown node {root!r}")
    parent: dict[str, tuple[Branch, str] | None] = {root: None}
    order = [root]
    for u in order:  # the loop runs on as the walk appends
        for b, v in adj[u]:
            if v not in parent:
                parent[v] = (b, u)
                order.append(v)
    return order, parent


def _path(parent: dict, node: str) -> list[tuple[Branch, str, str]]:
    """(branch, near_node, far_node) triples from a walk's root to ``node``."""
    path = []
    while parent[node] is not None:
        br, up = parent[node]
        path.append((br, up, node))
        node = up
    return path[::-1]


def tree_path(net: NetworkTopology, a: str, b: str) -> list[tuple[Branch, str, str]]:
    """Branch sequence from a to b as (branch, near_node, far_node) triples."""
    if b not in net.adjacency:
        raise ValidationError(f"unknown node {b!r}")
    _, parent = _walk(net, a)
    if b not in parent:
        raise ValidationError(f"nodes {a!r} and {b!r} are not connected")
    return _path(parent, b)


def node_distances(net: NetworkTopology, origin: str) -> dict[str, float]:
    """Path length in meters from ``origin`` to every node."""
    order, parent = _walk(net, origin)
    dist = {origin: 0.0}
    for v in order[1:]:
        br, u = parent[v]
        dist[v] = dist[u] + br.length_m
    return dist


def farthest_node(net: NetworkTopology, origin: str) -> str:
    dist = node_distances(net, origin)
    return max(dist, key=lambda n: (dist[n], n))


# ---------------------------------------------------------------------------
# reduction

def _located(prefix: str, exc: SingularityError) -> SingularityError:
    """``exc`` re-raised with a branch or segment prefix on its message; the
    offending frequency and grid index carry over."""
    err = SingularityError(f"{prefix}: {exc}")
    err.frequency_hz, err.index = exc.frequency_hz, exc.index
    return err


class Evaluation:
    """The work that the reductions on one grid share (see the module
    docstring): each branch's E and the last reduction's node equivalents.
    Make one per unit of work, such as a sweep realization, and use it from
    one thread at a time."""

    def __init__(self, grid: FrequencyGrid):
        self.grid = grid
        self.propagators: dict[Branch, np.ndarray] = {}
        self.equivalents: dict[tuple, np.ndarray] = {}


def _evaluation(grid: FrequencyGrid, ev: Evaluation | None) -> Evaluation:
    if ev is None:
        return Evaluation(grid)
    if ev.grid != grid:
        raise UsageError(f"evaluation is bound to {ev.grid}, not {grid}")
    return ev


def _branch_step(line: Callable, kind: str, br: Branch, ev: Evaluation,
                 y_far: np.ndarray):
    """``line`` (a line function of ``mtl``) of branch ``br`` with its far end
    terminated by y_far; a singularity names the branch."""
    params = line_propagation_params(br.cable, ev.grid)
    if (e := ev.propagators.get(br)) is None:
        e = ev.propagators[br] = propagator(params, br.length_m)
    try:
        return line(params, e, y_far)
    except SingularityError as exc:
        raise _located(f"{kind} {br.id!r}", exc) from exc


@dataclass(eq=False)
class PortReduction:
    """A port's input admittance, every node's equivalent admittance seen
    from the port side (all read-only, and shared with the evaluation's
    equivalents) and, for a receiver node, the voltage transfer from the
    port node to it."""

    y_in: MatrixSpectrum
    node_equivalents: dict[str, np.ndarray]  # node -> (n_f, L, L) admittance, S
    transfer: np.ndarray | None  # (n_f, L, L); None unless rx is another node


def reduce_to_port(net: NetworkTopology, port: str, grid: FrequencyGrid,
                   ev: Evaluation | None = None, rx: str | None = None) -> PortReduction:
    """Carry all terminations back to a port, from the leaves up.

    Every node's equivalent admittance (its own load plus the carried-back
    admittances of its child branches, seen from the port side) is returned
    alongside the port input admittance.  Subtrees whose equivalents ``ev``
    holds are reused; the rest are computed, and replace what ``ev`` held.

    Given a receiver node ``rx`` other than the port node, the transfer to
    it is the ordered product of the segment transfers along the path, each
    multiplied in as it is computed, from the receiver back.  A path branch
    that is stepped gives its admittance and its segment from one
    elimination (``line_responses``); one whose near node ``ev`` held gets
    its segment from ``ctf_line``, the same core, so a warm transfer equals
    a cold one bit for bit.
    """
    if not net.report.valid:
        raise ValidationError("invalid topology: " + "; ".join(net.report.problems))
    if port not in net.ports:
        raise UsageError(f"no port named {port!r}")
    ev = _evaluation(grid, ev)
    root = net.ports[port].node
    f = grid.frequencies
    L = net.n_conductors
    order, parent = _walk(net, root)
    if rx is not None and rx not in parent:
        raise ValidationError(f"unknown node {rx!r}")
    path = _path(parent, rx) if rx is not None else []
    on_path = {br for br, _, _ in path}
    children: dict[str, list[tuple[Branch, str]]] = {n: [] for n in order}
    for v in order[1:]:
        br, u = parent[v]
        children[u].append((br, v))

    key: dict[str, tuple] = {}
    for node in reversed(order):  # children come before parents
        key[node] = (net.loads.get(node),
                     tuple((br, key[child]) for br, child in children[node]))
    # keep what this reduction reuses, and free the rest before computing
    by_key = ev.equivalents = {k: y for k in key.values()
                               if (y := ev.equivalents.get(k)) is not None}

    # the transfer accumulates from the receiver back; the path's held near
    # nodes, if any, are its last ones, so their segments come first
    h = None
    for br, near, far in reversed(path):
        if key[near] not in by_key:
            break
        s = _branch_step(ctf_line, "segment", br, ev, by_key[key[far]])
        h = s if h is None else _matmul(h, s)
    for node in reversed(order):
        if key[node] in by_key:
            continue
        # summed in a fresh array of entry columns, the line functions'
        # layout, so no operand is buffered and no evaluator's array written
        if node in net.loads:
            y = net.loads[node].evaluate(f)
            if y.shape != (f.size, L, L):
                raise ValidationError(
                    f"load at {node!r} evaluates to shape {y.shape}")
            acc = np.array(y.transpose(1, 2, 0), dtype=complex, order="C")
        else:
            acc = np.zeros((L, L, f.size), dtype=complex)
        for br, child in children[node]:
            y_far = by_key[key[child]]
            if br in on_path:
                y, s = _branch_step(line_responses, "branch", br, ev, y_far)
                h = s if h is None else _matmul(h, s)
            else:
                y = _branch_step(input_admittance_line, "branch", br, ev, y_far)
            acc += _cols(y)
        y = _stack(acc)
        y.flags.writeable = False
        by_key[key[node]] = y

    equiv = {node: by_key[key[node]] for node in reversed(order)}
    return PortReduction(y_in=MatrixSpectrum(grid, equiv[root], "admittance"),
                         node_equivalents=equiv, transfer=h)


def network_input_reflection(net: NetworkTopology, port: str, grid: FrequencyGrid,
                             ev: Evaluation | None = None) -> MatrixSpectrum:
    """Input reflection at a port: the port admittance against Y_R."""
    red = reduce_to_port(net, port, grid, ev)
    y_r = net.ports[port].source.evaluate(grid.frequencies)
    rho = input_reflection(red.y_in.values, y_r, grid.frequencies)
    return MatrixSpectrum(grid, rho, "reflection")


def end_to_end_ctf(net: NetworkTopology, tx_port: str, rx_node: str,
                   grid: FrequencyGrid, ev: Evaluation | None = None) -> MatrixSpectrum:
    """Voltage transfer from the transmitting port node to a loaded receiver
    node: the ordered product of per-segment transfers along the backbone,
    each segment terminated by the equivalent admittance of everything
    beyond it (off-path subtrees included).

    The ratio is between node voltages, so the transmitter's own source
    admittance and local load do not enter.  The transfer is read from the
    transmit port's reduction (``reduce_to_port`` with ``rx``).
    """
    if tx_port not in net.ports:
        raise UsageError(f"no port named {tx_port!r}")
    if rx_node not in net.loads:
        raise UsageError(f"receiver node {rx_node!r} carries no load")
    if rx_node == net.ports[tx_port].node:
        raise UsageError("transmitter and receiver coincide")

    h = reduce_to_port(net, tx_port, grid, ev, rx_node).transfer
    return MatrixSpectrum(grid, h, "ctf")
