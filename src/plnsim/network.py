"""Tree-topology network model and its reduction to port responses.

A network is a frozen tree of nodes joined by cable branches, whose
structural checks and adjacency are computed once, on first read.
Terminations and sources are frequency-dependent admittance evaluators so
constant, RLC and tabulated models share one interface.  Junctions are ideal:
voltages equal, currents sum, no parasitics.

Every rooted traversal is one breadth-first walk (``_walk``).  The reduction
carries the tree from the leaves toward a port: a branch's carry-back is the
admittance its far subtree presents through it, and a node's equivalent
admittance is its load plus its child branches' carry-backs.  The end-to-end
transfer function is the ordered product of per-segment voltage transfers
along the transmitter-receiver backbone, each segment terminated by the
equivalent admittance of everything beyond it.  It is read from the transmit
port's reduction.  Every branch step there is ``mtl.line_responses``, one
elimination that gives the branch's carry-back and its segment, and a path
branch keeps the segment; no reflection is formed on the way.
The tests check this reduction against a two-section closed form and a
chain-parameter solution of their own.

Reductions on one grid share work through an ``Evaluation``, which the caller
makes and drops; a call without one makes a private one.  It holds, read-only,
each branch's propagation factor E = exp(-Gamma l), computed on its first
step, each load's and port source's value, evaluated on its first use, the
last reduction's carry-backs, each with the segment transfer a path needed,
and the last reduction with its call.  A call that repeats that one (the same
topology object, port and receiver) gets its arrays back and does no work.
A carry-back's key is its branch, its far node's load object and the keys of
the carry-backs into that node, built from the leaves up.  Branches and loads
are frozen and hash by identity, so a key names a branch and its whole far
subtree exactly, and equal keys have bit-identical carry-backs.  A reduction
keeps the entries it reuses, frees the rest before it computes, steps each
branch it lacks in one elimination, and sums a node only at the port or to
step a branch into it.  So a reduction of a copy steps no line, one at another
port only the path between the two, and a perturbed copy only the branches
whose far subtree the anomaly changed.  Topologies and branches hold no such
state.  The one process-wide result cache is the cable decomposition,
``mtl.line_propagation_params``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .errors import SingularityError, UsageError, ValidationError
from .mtl import (CableSpec, FrequencyGrid, MatrixSpectrum, _cols, _matmul, _stack,
                  input_reflection, line_propagation_params, line_responses,
                  propagator)

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

    def evaluated(self, f: np.ndarray, where: str) -> np.ndarray:
        """``evaluate(f)``; any shape but (n_f, L, L) is an error naming ``where``."""
        if (y := self.evaluate(f)).shape != (f.size, self.n_conductors, self.n_conductors):
            raise ValidationError(f"{where} evaluates to shape {y.shape}")
        return y

    def is_passive(self, f: np.ndarray) -> bool:
        """True when the Hermitian part Y / 2 + Y^H / 2 (halved first, so a
        finite Y cannot overflow) is positive semidefinite at every frequency
        to 1e-9 of the largest |Y(f)| entry: no voltage draws power out of Y.
        At L = 1 that part is Re Y, so the test is its sign.  Otherwise
        ``eigvalsh`` runs only where a Gershgorin disc (centre Re Y_ii, radius
        at most the sum of (|Y_ij| + |Y_ji|) / 2 over j != i, all over that
        scale so no sum overflows) reaches below -1e-9, or holds a NaN."""
        y = self.evaluated(f, f"admittance {self.label!r}")
        a = np.abs(y)
        scale = float(a.max()) + 1e-300
        if self.n_conductors == 1:
            return bool((y.real >= -1e-9 * scale).all())
        a /= scale
        lower = (np.diagonal(y, axis1=-2, axis2=-1).real / scale
                 + np.diagonal(a, axis1=-2, axis2=-1) - 0.5 * (a.sum(-1) + a.sum(-2)))
        y = y[~(lower >= -1e-9).all(axis=-1)]
        herm = 0.5 * y + 0.5 * np.conj(np.swapaxes(y, -1, -2))
        return y.size == 0 or bool(np.min(np.linalg.eigvalsh(herm)) >= -1e-9 * scale)


def constant_admittance(y_s, n_conductors: int = 1, label: str = "") -> AdmittanceSpec:
    """Frequency-independent admittance.  A scalar y_s means y_s * identity."""
    if not np.isfinite(y_s).all():
        raise ValidationError("constant admittance y_s must be finite")
    n = n_conductors
    mat = np.array(y_s, dtype=complex)
    if mat.ndim == 0:
        mat = mat * np.eye(n)
    if mat.shape != (n, n):
        raise ValidationError(f"admittance matrix has shape {mat.shape}, expected {(n, n)}")
    mat.flags.writeable = False

    def evaluate(f: np.ndarray) -> np.ndarray:
        return np.full((f.size, n, n), mat)

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
        y = (1.0 / r_ohm + 1j * 2.0 * np.pi * f * c_farad)[:, None, None]
        return y if n == 1 else y * np.eye(n)

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
    """A modem attached at ``node``."""

    node: str
    source: AdmittanceSpec  # admittance of the attached generator/modem


@dataclass(frozen=True)
class ValidationReport:
    """Whether a topology is valid, and each problem found if not."""

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

class Evaluation:
    """The work that the reductions on one grid share (see the module
    docstring): each branch's E, each load's and source's value as entry
    columns, each branch's carry-back keyed by its far subtree, as (Y_in,
    segment or None), and the last reduction with its call, as (topology,
    port, rx, Y_in, transfer), all read-only.  Make one per unit of work,
    such as a sweep realization, and use it from one thread at a time."""

    def __init__(self, grid: FrequencyGrid):
        self.grid = grid
        self.propagators: dict[Branch, np.ndarray] = {}
        self.admittances: dict[AdmittanceSpec, np.ndarray] = {}
        self.carry_backs: dict[tuple, tuple[np.ndarray, np.ndarray | None]] = {}
        self.last: tuple | None = None

    def admittance(self, spec: AdmittanceSpec, where: str) -> np.ndarray:
        """``spec`` on the grid as entry columns, evaluated and checked on first use."""
        if (y := self.admittances.get(spec)) is None:
            y = spec.evaluated(self.grid.frequencies, where).transpose(1, 2, 0)
            y = self.admittances[spec] = np.array(y, complex, order="C")
            y.flags.writeable = False
        return y


def _evaluation(grid: FrequencyGrid, ev: Evaluation | None) -> Evaluation:
    if ev is None:
        return Evaluation(grid)
    if ev.grid != grid:
        raise UsageError(f"evaluation is bound to {ev.grid}, not {grid}")
    return ev


def _branch_step(br: Branch, ev: Evaluation, y_far: np.ndarray):
    """``line_responses`` of branch ``br`` with its far end terminated by
    y_far: its carry-back and its segment.  A singularity names the branch;
    the offending frequency and grid index carry over."""
    params = line_propagation_params(br.cable, ev.grid)
    if (e := ev.propagators.get(br)) is None:
        e = ev.propagators[br] = propagator(params, br.length_m)
    try:
        return line_responses(params, e, y_far)
    except SingularityError as exc:
        err = SingularityError(f"branch {br.id!r}: {exc}")
        err.frequency_hz, err.index = exc.frequency_hz, exc.index
        raise err from exc


@dataclass(eq=False)
class PortReduction:
    """A port's input admittance and, for a receiver node, the voltage
    transfer from the port node to it, both read-only."""

    y_in: MatrixSpectrum
    transfer: np.ndarray | None  # (n_f, L, L); None unless rx is another node


def reduce_to_port(net: NetworkTopology, port: str, grid: FrequencyGrid,
                   ev: Evaluation | None = None, rx: str | None = None) -> PortReduction:
    """Carry all terminations back to a port, from the leaves up.

    A call that repeats ``ev``'s last one (the same topology object, port
    and ``rx``) returns its arrays in a new wrapper.  Otherwise carry-backs
    that ``ev`` holds for the same branch and far subtree are reused; the
    rest are computed, and replace what ``ev`` held.  Given a receiver node
    ``rx`` other than the port node, the transfer to it is the ordered
    product of the segment transfers along the path, from the receiver back.
    Every stepped branch is one elimination (``line_responses``), which
    gives its admittance and its segment; only a path branch keeps the
    segment, so a warm transfer equals a cold one bit for bit.
    """
    if not net.report.valid:
        raise ValidationError("invalid topology: " + "; ".join(net.report.problems))
    if port not in net.ports:
        raise UsageError(f"no port named {port!r}")
    ev = _evaluation(grid, ev)
    if ev.last is None or ev.last[0] is not net or ev.last[1:3] != (port, rx):
        ev.last = (net, port, rx, *_reduce(net, port, ev, rx))
    return PortReduction(MatrixSpectrum(grid, ev.last[3], "admittance"), ev.last[4])


def _reduce(net: NetworkTopology, port: str, ev: Evaluation, rx: str | None):
    """``reduce_to_port``'s (Y_in, transfer) arrays, computed on ``ev``."""
    root = net.ports[port].node
    f = ev.grid.frequencies
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

    cb: dict[str, tuple] = {}  # far node -> key of the branch's carry-back
    for v in reversed(order[1:]):  # children come before parents
        cb[v] = (parent[v][0], net.loads.get(v), tuple(cb[c] for _, c in children[v]))
    # keep what this reduction reuses, and free the rest before computing
    held = ev.carry_backs = {k: c for k in cb.values()
                             if (c := ev.carry_backs.get(k)) is not None}

    def equivalent(node: str) -> np.ndarray:
        # one term (a bare load, or one carry-back and no load) is its held,
        # read-only array; more are summed in a fresh array of entry columns,
        # the line functions' layout, so no operand is buffered
        terms = [_cols(held[cb[c]][0]) for _, c in children[node]]
        if node in net.loads:
            terms.insert(0, ev.admittance(net.loads[node], f"load at {node!r}"))
        if len(terms) == 1:
            return _stack(terms[0])
        acc = np.add(*terms[:2]) if terms else np.zeros((L, L, f.size), dtype=complex)
        for term in terms[2:]:
            acc += term
        y = _stack(acc)
        y.flags.writeable = False
        return y

    for v in reversed(order[1:]):  # step only what ``held`` lacks
        br = parent[v][0]
        y, s = held.get(cb[v], (None, None))
        if y is None or (s is None and br in on_path):
            y, s = _branch_step(br, ev, equivalent(v))
            y.flags.writeable = s.flags.writeable = False
            held[cb[v]] = (y, s if br in on_path else None)

    h = None
    for _, _, far in reversed(path):
        s = held[cb[far]][1]
        h = s if h is None else _matmul(h, s)
        h.flags.writeable = False
    return equivalent(root), h


def network_input_reflection(net: NetworkTopology, port: str, grid: FrequencyGrid,
                             ev: Evaluation | None = None) -> MatrixSpectrum:
    """Input reflection at a port: the port admittance against Y_R."""
    ev = _evaluation(grid, ev)
    y_in = reduce_to_port(net, port, grid, ev).y_in.values
    y_r = _stack(ev.admittance(net.ports[port].source, f"source of port {port!r}"))
    rho = input_reflection(y_in, y_r, grid.frequencies)
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
