"""Topology, anomaly and tabular file formats.

Topology files are JSON with sections ``nodes``, ``cables``, ``branches``,
``loads`` and ``ports``.  Loads, sources and cables are given as named
parametric models with parameters, or as frequency tables for admittances;
complex entries are [re, im] pairs, all quantities in SI base units.

Spectra and traces are CSV with columns f_or_t, entry_row, entry_col, re, im
(im is 0 for traces); peak files carry time_s, distance_m, amplitude, entry;
sweep records and bins are tables of their own.  Result payloads are strict
JSON: a non-finite float is written as null.
Every CSV and JSON writer but ``write_topology`` takes ``timestamp=False`` to
produce byte-stable output.
"""

from __future__ import annotations

import json
import math
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .anomalies import Anomaly, DistributedFault, LoadChange, LumpedFault, _unique
from .cables import constant_rlgc_cable, powerline_cable
from .errors import ParseError, ValidationError
from .mtl import CableSpec, MatrixSpectrum
from .network import (AdmittanceSpec, Branch, NetworkTopology, Port,
                      constant_admittance, open_circuit, parallel_rc_admittance,
                      table_admittance)
from .timedomain import LocatedPeak, TimeTrace

__all__ = [
    "read_topology",
    "write_topology",
    "topology_to_dict",
    "topology_from_dict",
    "read_anomaly",
    "read_cable_library",
    "write_spectrum_csv",
    "write_trace_csv",
    "write_peaks_csv",
    "write_sweep_records_csv",
    "write_sweep_bins_csv",
    "write_json",
]


def _fail(context: str, message: str) -> ParseError:
    return ParseError(f"{context}: {message}")


def _section(value, kind: type, context: str):
    """``value`` if it is a ``kind`` (dict or list), else a ParseError."""
    if not isinstance(value, kind):
        what = "an object" if kind is dict else "a list"
        raise _fail(context, f"expected {what}, got {type(value).__name__}")
    return value


def _read_json(path: Path):
    """Standard JSON only: the NaN and Infinity tokens Python's parser
    accepts are rejected, as every writer here refuses them."""
    def reject(token: str):
        raise ParseError(f"{path}: non-standard JSON constant {token}")

    try:
        return json.loads(path.read_text(), parse_constant=reject)
    except FileNotFoundError:
        raise ParseError(f"{path}: no such file") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _complex_from(pair, context: str) -> complex:
    if isinstance(pair, (int, float)):
        return complex(pair)
    if (isinstance(pair, (list, tuple)) and len(pair) == 2
            and all(isinstance(v, (int, float)) for v in pair)):
        return complex(pair[0], pair[1])
    raise _fail(context, f"expected a number or [re, im] pair, got {pair!r}")


def _matrix_from(obj, n: int, context: str) -> np.ndarray:
    if isinstance(obj, (int, float)) or (
            isinstance(obj, (list, tuple)) and len(obj) == 2
            and all(isinstance(v, (int, float)) for v in obj)):
        with np.errstate(invalid="ignore"):  # inf * 0; the model rejects the value
            return _complex_from(obj, context) * np.eye(n)
    try:
        rows = [[_complex_from(v, context) for v in row] for row in obj]
        mat = np.array(rows, dtype=complex)
    except (TypeError, ParseError) as exc:
        raise _fail(context, "expected a scalar, [re, im], or matrix of pairs") from exc
    if mat.shape != (n, n):
        raise _fail(context, f"matrix has shape {mat.shape}, expected {(n, n)}")
    return mat


# ---------------------------------------------------------------------------
# admittance and cable model registries

# the parameters each model takes; a model's defaults live in its constructor
_MODEL_PARAMS = {
    "constant": ("y_s",),
    "parallel_rc": ("r_ohm", "c_farad"),
    "open": (),
    "table": ("f_hz", "y_s"),
    "powerline": ("n_conductors", "r0_ohm_per_m", "l_h_per_m", "c_f_per_m",
                  "g_factor", "coupling", "f_ref_hz"),
    "constant_rlgc": ("r", "l", "g", "c"),
}


def _model_params(d, context: str) -> tuple[str, dict]:
    """The model name and params object of a model dict; a params key that
    a known model does not take is an error (the caller rejects an unknown
    model)."""
    if not isinstance(d, dict) or "model" not in d:
        raise _fail(context, "expected an object with a 'model' field")
    model = d["model"]
    params = _section(d.get("params", {}), dict, f"{context}.params")
    known = _MODEL_PARAMS.get(model, params) if isinstance(model, str) else params
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise _fail(context, f"model {model!r} has unknown parameter {unknown[0]!r}")
    return model, params


def admittance_from_dict(d: dict, n_conductors: int, context: str) -> AdmittanceSpec:
    model, params = _model_params(d, context)
    try:
        if model == "constant":
            return constant_admittance(_matrix_from(params["y_s"], n_conductors,
                                                    f"{context}.y_s"), n_conductors)
        if model == "parallel_rc":
            return parallel_rc_admittance(float(params["r_ohm"]),
                                          float(params["c_farad"]), n_conductors)
        if model == "open":
            return open_circuit(n_conductors)
        if model == "table":
            f_hz = np.asarray(params["f_hz"], dtype=float)
            raw = params["y_s"]
            y = np.array([_matrix_from(entry, n_conductors, f"{context}.y_s[{k}]")
                          for k, entry in enumerate(raw)])
            return table_admittance(f_hz, y, n_conductors)
    except KeyError as exc:
        raise _fail(context, f"model {model!r} is missing parameter {exc}") from exc
    except (TypeError, ValueError, ValidationError) as exc:
        raise _fail(context, f"model {model!r} has a bad parameter: {exc}") from None
    raise _fail(context, f"unknown admittance model {model!r}")


def admittance_to_dict(spec: AdmittanceSpec, context: str) -> dict:
    if spec.meta is None:
        raise _fail(context, "admittance has no serializable parametric form")
    return spec.meta


def cable_from_dict(d: dict, context: str) -> CableSpec:
    model, params = _model_params(d, context)
    try:
        if model == "powerline":
            return powerline_cable(**{k: float(v) for k, v in params.items()},
                                   label=d.get("label"))
        if model == "constant_rlgc":
            return constant_rlgc_cable(params["r"], params["l"], params["g"],
                                       params["c"],
                                       label=d.get("label", "constant-rlgc"))
    except KeyError as exc:
        raise _fail(context, f"model {model!r} is missing parameter {exc}") from exc
    except (TypeError, ValueError, ValidationError) as exc:
        raise _fail(context, f"model {model!r} has a bad parameter: {exc}") from None
    raise _fail(context, f"unknown cable model {model!r}")


def cable_to_dict(cable: CableSpec, context: str) -> dict:
    if cable.meta is None:
        raise _fail(context, f"cable {cable.label!r} has no serializable parametric form")
    return dict(cable.meta, label=cable.label)


# ---------------------------------------------------------------------------
# topology files

def topology_from_dict(data: dict, context: str = "topology") -> NetworkTopology:
    _section(data, dict, context)
    for section in ("nodes", "cables", "branches"):
        if section not in data:
            raise _fail(context, f"missing section {section!r}")
    sections = {name: _section(data.get(name, kind()), kind, f"{context}.{name}")
                for name, kind in (("nodes", list), ("cables", dict),
                                   ("branches", list), ("loads", dict),
                                   ("ports", dict))}
    cables = {name: cable_from_dict(d, f"{context}.cables[{name!r}]")
              for name, d in sections["cables"].items()}
    if not sections["branches"]:
        raise _fail(context, "a network needs at least one branch")

    branches = []
    for k, bd in enumerate(sections["branches"]):
        ctx = f"{context}.branches[{k}]"
        try:
            cable_name = bd["cable"]
            if cable_name not in cables:
                raise _fail(ctx, f"unknown cable {cable_name!r}")
            branches.append(Branch(id=str(bd["id"]), node_a=str(bd["node_a"]),
                                   node_b=str(bd["node_b"]),
                                   cable=cables[cable_name],
                                   length_m=float(bd["length_m"])))
        except KeyError as exc:
            raise _fail(ctx, f"missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise _fail(ctx, f"bad value: {exc}") from None

    n = branches[0].cable.n_conductors
    loads = {str(node): admittance_from_dict(d, n, f"{context}.loads[{node!r}]")
             for node, d in sections["loads"].items()}
    ports = {}
    for name, pd in sections["ports"].items():
        ctx = f"{context}.ports[{name!r}]"
        try:
            ports[str(name)] = Port(
                node=str(pd["node"]),
                source=admittance_from_dict(pd["source"], n, f"{ctx}.source"))
        except KeyError as exc:
            raise _fail(ctx, f"missing field {exc}") from exc
        except TypeError:
            raise _fail(ctx, "expected an object with 'node' and 'source'") from None
    return NetworkTopology(nodes=tuple(str(x) for x in sections["nodes"]),
                           branches=tuple(branches), loads=loads, ports=ports)


def topology_to_dict(net: NetworkTopology) -> dict:
    cables: dict[str, dict] = {}
    cable_names: dict[int, str] = {}
    for b in net.branches:
        if id(b.cable) not in cable_names:
            name = _unique(b.cable.label, cables)
            cables[name] = cable_to_dict(b.cable, f"cables[{name!r}]")
            cable_names[id(b.cable)] = name
    return {
        "nodes": list(net.nodes),
        "cables": cables,
        "branches": [
            {"id": b.id, "node_a": b.node_a, "node_b": b.node_b,
             "cable": cable_names[id(b.cable)], "length_m": b.length_m}
            for b in net.branches],
        "loads": {node: admittance_to_dict(spec, f"loads[{node!r}]")
                  for node, spec in sorted(net.loads.items())},
        "ports": {name: {"node": p.node,
                         "source": admittance_to_dict(p.source,
                                                      f"ports[{name!r}].source")}
                  for name, p in sorted(net.ports.items())},
    }


def read_topology(path: str | Path) -> NetworkTopology:
    path = Path(path)
    return topology_from_dict(_read_json(path), context=str(path))


def write_topology(net: NetworkTopology, path: str | Path) -> None:
    write_json(path, topology_to_dict(net), timestamp=False)


def _finite_or_null(obj):
    """``obj`` with every non-finite float (an empty bin's NaN mean, an
    infinite spacing error) replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _dumps(payload, indent: int | None = None) -> str:
    """Strict, key-sorted JSON text: non-finite floats become ``null``."""
    return json.dumps(_finite_or_null(payload), indent=indent, sort_keys=True,
                      allow_nan=False)


def write_json(path: str | Path, payload: dict, timestamp: bool = True) -> None:
    """Sorted, indented, strict JSON; ``timestamp`` adds a top-level
    ``written``."""
    if timestamp:
        payload = dict(payload, written=datetime.now(timezone.utc).isoformat())
    Path(path).write_text(_dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# anomaly files

def read_anomaly(source: str | Path | dict, net: NetworkTopology) -> Anomaly:
    if isinstance(source, (str, Path)):
        context = str(Path(source))
        data = _read_json(Path(context))
    else:
        data = source
        context = "anomaly"
    if not isinstance(data, dict) or "type" not in data:
        raise _fail(context, "expected an object with a 'type' field")
    kind = data["type"]
    n = net.n_conductors
    try:
        if kind == "lumped_fault":
            return LumpedFault(branch_id=str(data["branch"]),
                               offset_m=float(data["offset_m"]),
                               y_f=admittance_from_dict(data["y_f"], n,
                                                        f"{context}.y_f"),
                               active=bool(data.get("active", False)))
        if kind == "load_change":
            return LoadChange(node_id=str(data["node"]),
                              new_load=admittance_from_dict(data["load"], n,
                                                            f"{context}.load"))
        if kind == "distributed_fault":
            return DistributedFault(branch_id=str(data["branch"]),
                                    start_m=float(data["start_m"]),
                                    extent_m=float(data["extent_m"]),
                                    degraded=cable_from_dict(data["degraded"],
                                                             f"{context}.degraded"))
    except KeyError as exc:
        raise _fail(context, f"anomaly type {kind!r} is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise _fail(context, f"anomaly type {kind!r} has a bad field: {exc}") from None
    raise _fail(context, f"unknown anomaly type {kind!r}")


def read_cable_library(path: str | Path) -> dict[str, CableSpec]:
    """Named cable collection: {"name": {cable model dict}, ...}."""
    path = Path(path)
    data = _section(_read_json(path), dict, str(path))
    return {name: cable_from_dict(d, f"{path}:cables[{name!r}]")
            for name, d in data.items()}


# ---------------------------------------------------------------------------
# CSV emitters (spectra, traces, peaks)

def _header_lines(kind: str, timestamp: bool, extra: dict | None = None) -> list[str]:
    lines = [f"# kind={kind}"]
    if extra:
        for key, value in sorted(extra.items()):
            lines.append(f"# {key}={value}")
    if timestamp:
        lines.append(f"# written={datetime.now(timezone.utc).isoformat()}")
    return lines


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_table(path: str | Path, lines: list[str], columns: str, rows) -> None:
    Path(path).write_text("\n".join([*lines, columns, *rows]) + "\n")


def write_spectrum_csv(path: str | Path, spec: MatrixSpectrum,
                       timestamp: bool = True) -> None:
    """A delta is headed ``kind=delta``, without its quantity or model."""
    f, v = spec.grid.frequencies, spec.values
    L = spec.n_conductors
    _write_table(path, _header_lines("delta" if spec.model else spec.kind, timestamp),
                 "f_or_t,entry_row,entry_col,re,im",
                 (f"{_fmt(f[k])},{r},{c},{_fmt(v[k, r, c].real)},"
                  f"{_fmt(v[k, r, c].imag)}"
                  for k in range(spec.grid.n_points) for r in range(L)
                  for c in range(L)))


def write_trace_csv(path: str | Path, trace: TimeTrace,
                    timestamp: bool = True) -> None:
    extra = {"quantity": trace.kind}
    if trace.model:
        extra["model"] = trace.model
    t = trace.times
    L = trace.n_conductors
    _write_table(path, _header_lines("trace", timestamp, extra),
                 "f_or_t,entry_row,entry_col,re,im",
                 (f"{_fmt(t[k])},{r},{c},{_fmt(trace.samples[k, r, c])},0"
                  for k in range(trace.n_samples) for r in range(L)
                  for c in range(L)))


def write_peaks_csv(path: str | Path, peaks: list[LocatedPeak],
                    timestamp: bool = True) -> None:
    _write_table(path, _header_lines("peaks", timestamp),
                 "time_s,distance_m,amplitude,entry",
                 (f"{_fmt(p.time_s)},{_fmt(p.distance_m)},{_fmt(p.amplitude)},"
                  f"{p.entry[0]}:{p.entry[1]}" for p in peaks))


def write_sweep_records_csv(path: str | Path, records: list,
                            timestamp: bool = True) -> None:
    """One line per ``experiments.SweepRecord``."""
    _write_table(path, _header_lines("sweep-records", timestamp),
                 "network_index,distance_m,link_position,delta_y,delta_rho,"
                 "delta_h,anomaly",
                 (f"{r.network_index},{_fmt(r.distance_m)},"
                  f"{_fmt(r.link_position)},{_fmt(r.delta_y)},"
                  f"{_fmt(r.delta_rho)},{_fmt(r.delta_h)},"
                  f"{r.anomaly['type']}@{r.anomaly['branch']}" for r in records))


def write_sweep_bins_csv(path: str | Path, bins: list,
                         timestamp: bool = True) -> None:
    """One line per ``experiments.BinStat``; an empty bin has blank stats."""
    qs = ("delta_y", "delta_rho", "delta_h")
    rows = []
    for b in bins:
        stats = ([b.median[q] for q in qs] + [b.iqr[q] for q in qs]
                 + [b.mean["delta_h"]]) if b.count else []
        cells = [_fmt(v) for v in stats] or [""] * 7
        rows.append(",".join([_fmt(b.d_lo), _fmt(b.d_hi), str(b.count), *cells]))
    _write_table(path, _header_lines("sweep-bins", timestamp),
                 "d_lo,d_hi,count,median_y,median_rho,median_h,"
                 "iqr_y,iqr_rho,iqr_h,mean_h", rows)
