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

import inspect
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
        return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
    except FileNotFoundError:
        raise ParseError(f"{path}: no such file") from None
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _value(name: str, v):
    """A file value, decoded strictly by its field name.  ``active`` is a
    JSON boolean; ``y_s`` is complex, numbers or [re, im] pairs at any depth
    (a list of two numbers is always a pair); ``f_hz``, ``r``, ``l``, ``g``
    and ``c`` are real, numbers at any depth; arrays are regular.  Any
    other field is a JSON number, returned as a float.  A bad value is a
    TypeError or ValueError that names the field."""
    if name == "active":
        if not isinstance(v, bool):
            raise TypeError(f"active must be true or false, got {v!r}")
        return v
    pairs = name == "y_s"
    array = pairs or name in ("f_hz", "r", "l", "g", "c")

    def entries(x):
        if array and isinstance(x, list):
            x = [entries(e) for e in x]
            if pairs and len(x) == 2 and all(isinstance(e, (int, float)) for e in x):
                return complex(*x)
            return x
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise TypeError
        return x

    try:
        a = np.array(entries(v), dtype=complex if pairs else float)
    except (TypeError, ValueError, OverflowError):  # a ragged array is a ValueError
        what = ("a regular array of numbers or [re, im] pairs" if pairs
                else "a regular array of numbers" if array else "a JSON number")
        raise ValueError(f"{name} must be {what}, got {v!r}") from None
    return a if array else float(a)


# ---------------------------------------------------------------------------
# admittance and cable models: the name each has in a file, and its
# constructor, whose signature states the parameters it takes

_ADMITTANCES = {"constant": constant_admittance, "parallel_rc": parallel_rc_admittance,
                "open": open_circuit, "table": table_admittance}
_CABLES = {"powerline": powerline_cable, "constant_rlgc": constant_rlgc_cable}


def _from_dict(models: dict, d, context: str, **given):
    """The model that ``d`` names, built from its params.  A label is never
    a parameter, nor is what the file states elsewhere (``given``); of the
    other arguments of the constructor, those without a default are
    required."""
    if not isinstance(d, dict) or "model" not in d:
        raise _fail(context, "expected an object with a 'model' field")
    model = d["model"]
    if not isinstance(model, str) or model not in models:
        raise _fail(context, f"unknown model {model!r}, "
                             f"expected one of {', '.join(models)}")
    build = models[model]
    params = _section(d.get("params", {}), dict, f"{context}.params")
    takes = {name: p.default is p.empty
             for name, p in inspect.signature(build).parameters.items()
             if name != "label" and name not in given}
    for name in sorted(params):
        if name not in takes:
            raise _fail(context, f"model {model!r} has unknown parameter {name!r}")
    for name, required in takes.items():
        if required and name not in params:
            raise _fail(context, f"model {model!r} is missing parameter {name!r}")
    try:
        return build(**{k: _value(k, v) for k, v in params.items()}, **given)
    except (TypeError, ValueError, ValidationError) as exc:
        raise _fail(context, f"model {model!r} has a bad parameter: {exc}") from None


def _to_dict(spec: AdmittanceSpec | CableSpec, context: str) -> dict:
    """The file form of a model: arrays as lists, complex entries as
    [re, im] pairs."""
    if spec.meta is None:
        raise _fail(context, "no parametric form to write")
    model, params = spec.meta
    encoded = {}
    for name, v in params.items():
        if isinstance(v, np.ndarray):
            v = (np.stack([v.real, v.imag], -1) if np.iscomplexobj(v) else v).tolist()
        encoded[name] = v
    return {"model": model, "params": encoded}


def admittance_from_dict(d: dict, n_conductors: int, context: str) -> AdmittanceSpec:
    return _from_dict(_ADMITTANCES, d, context, n_conductors=n_conductors)


def cable_from_dict(d: dict, context: str) -> CableSpec:
    # _from_dict rejects a d that is not an object
    label = d.get("label") if isinstance(d, dict) else None
    if not isinstance(label, (str, type(None))):
        raise _fail(context, f"label must be a string, got {label!r}")
    return _from_dict(_CABLES, d, context, label=label)


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
                                   length_m=_value("length_m", bd["length_m"])))
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
            cables[name] = dict(_to_dict(b.cable, f"cables[{name!r}]"),
                                label=b.cable.label)
            cable_names[id(b.cable)] = name
    return {
        "nodes": list(net.nodes),
        "cables": cables,
        "branches": [
            {"id": b.id, "node_a": b.node_a, "node_b": b.node_b,
             "cable": cable_names[id(b.cable)], "length_m": b.length_m}
            for b in net.branches],
        "loads": {node: _to_dict(spec, f"loads[{node!r}]")
                  for node, spec in sorted(net.loads.items())},
        "ports": {name: {"node": p.node,
                         "source": _to_dict(p.source, f"ports[{name!r}].source")}
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
                               offset_m=_value("offset_m", data["offset_m"]),
                               y_f=admittance_from_dict(data["y_f"], n,
                                                        f"{context}.y_f"),
                               active=_value("active", data.get("active", False)))
        if kind == "load_change":
            return LoadChange(node_id=str(data["node"]),
                              new_load=admittance_from_dict(data["load"], n,
                                                            f"{context}.load"))
        if kind == "distributed_fault":
            return DistributedFault(branch_id=str(data["branch"]),
                                    start_m=_value("start_m", data["start_m"]),
                                    extent_m=_value("extent_m", data["extent_m"]),
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
