"""Span tracing of plnsim from outside the package.

``Tracer`` replaces each traced public function with a wrapper in every
plnsim module namespace that holds it (``network`` and ``experiments`` import
the ``mtl`` functions by name, so patching ``plnsim.mtl`` alone would miss
their calls), and ``numpy.linalg.solve`` for the kernel counts.  Spans are
kept in memory as ``[name, parent, request, start, end, error]`` lists and
turned into per-layer metrics by ``layer_metrics`` once the run is over.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# (module, function, span name).  One span name may cover several functions.
TRACED = (
    ("plnsim.mtl", "line_propagation_params", "mtl.decomp"),
    ("plnsim.mtl", "load_reflection", "mtl.load_reflection"),
    ("plnsim.mtl", "modal_transform", "mtl.modal_transform"),
    ("plnsim.mtl", "input_admittance_line", "mtl.input_admittance_line"),
    ("plnsim.mtl", "input_reflection", "mtl.input_reflection"),
    ("plnsim.mtl", "ctf_line", "mtl.ctf_line"),
    ("plnsim.network", "reduce_to_port", "network.reduce_to_port"),
    ("plnsim.network", "network_input_reflection", "network.network_input_reflection"),
    ("plnsim.network", "end_to_end_ctf", "network.end_to_end_ctf"),
    ("plnsim.anomalies", "apply_anomaly", "anomalies.apply_anomaly"),
    ("plnsim.anomalies", "delta_superposition", "anomalies.delta"),
    ("plnsim.anomalies", "delta_chain", "anomalies.delta"),
    ("plnsim.experiments", "generate_random_network", "experiments.generate_random_network"),
    ("plnsim.experiments", "run_distance_sweep", "experiments.sweep"),
    ("plnsim.timedomain", "to_time_domain", "timedomain.to_time_domain"),
    ("plnsim.timedomain", "detect_peaks", "timedomain.detect_peaks"),
    ("plnsim.timedomain", "locate_anomaly_reflectometric", "timedomain.locate"),
    ("plnsim.topofile", "read_topology", "topofile.read"),
    ("plnsim.topofile", "read_anomaly", "topofile.read"),
    ("plnsim.topofile", "write_spectrum_csv", "topofile.write"),
    ("plnsim.topofile", "write_trace_csv", "topofile.write"),
    ("plnsim.topofile", "write_peaks_csv", "topofile.write"),
    ("plnsim.topofile", "write_topology", "topofile.write"),
)

# span field positions
NAME, PARENT, REQUEST, START, END, ERROR = range(6)

SKIP_CLASSES = ("SingularityError", "DecompositionError", "ValidationError")


def _written_path(args, kwargs):
    """Output path of a topofile writer: ``write_topology(net, path)`` and
    ``write_*_csv(path, ...)``."""
    if "path" in kwargs:
        return kwargs["path"]
    for a in args:
        if isinstance(a, (str, Path)):
            return a
    return None


class Tracer:
    """Collects spans and exact counts while installed (use as a context
    manager).  ``request`` tags every span; the sweep sets it per
    realization, the CLI launcher per invocation."""

    def __init__(self, request=None):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = request
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._cache_start = None

    # -- installation -------------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            rec = [name, stack[-1] if stack else None, self.request, clock(), 0.0, None]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace_everywhere(self, original, wrapper):
        """Swap ``original`` for ``wrapper`` in every loaded plnsim module."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "plnsim" or mod_name.startswith("plnsim.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def _before_solve(self, args, kwargs):
        a = np.asarray(args[0] if args else kwargs["a"])
        self.counts["kernel.solve_matrices"] += math.prod(a.shape[:-2])

    def _before_sweep(self, args, kwargs):
        self.request = str(args[0].seed)

    def _before_sweep_item(self, args, kwargs):
        cfg, index = args[0], args[1]
        self.request = f"{cfg.seed}:{index}"

    def _after_write(self, args, kwargs):
        path = _written_path(args, kwargs)
        if path is not None:
            self.counts["topofile.bytes_written"] += Path(path).stat().st_size

    def install(self) -> "Tracer":
        import plnsim.cli  # noqa: F401  (load every module before patching)
        import plnsim.mtl

        self._cache_start = _cache_info(plnsim.mtl)
        solve = np.linalg.solve
        np.linalg.solve = self._wrap(solve, "kernel.solve", before=self._before_solve)
        self._patched.append((np.linalg, "solve", solve))

        hooks = {
            "run_distance_sweep": {"before": self._before_sweep},
            "generate_random_network": {"before": self._before_sweep_item},
            "write_spectrum_csv": {"after": self._after_write},
            "write_trace_csv": {"after": self._after_write},
            "write_peaks_csv": {"after": self._after_write},
            "write_topology": {"after": self._after_write},
        }
        targets = [(sys.modules[m], f, n) for m, f, n in TRACED]
        cli = sys.modules["plnsim.cli"]
        targets += [(cli, f, "cli.handler") for f in vars(cli) if f.startswith("cmd_")]
        for mod, fn_name, span_name in targets:
            original = getattr(mod, fn_name)
            wrapper = self._wrap(original, span_name, **hooks.get(fn_name, {}))
            self._replace_everywhere(original, wrapper)
        return self

    def uninstall(self) -> None:
        import plnsim.mtl

        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        hits0, misses0 = self._cache_start
        hits1, misses1 = _cache_info(plnsim.mtl)
        self.counts["mtl.decomp_hits"] += hits1 - hits0
        self.counts["mtl.decomp_misses"] += misses1 - misses0

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output -------------------------------------------------------------

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _cache_info(mtl_module) -> tuple[int, int]:
    """(hits, misses) of the decomposition cache."""
    ci = mtl_module.line_propagation_params.cache_info()
    return ci.hits, ci.misses


def merge(dumps: list[dict]) -> dict:
    """Concatenate tracer dumps (one per process), re-basing parent links."""
    spans: list[list] = []
    counts: Counter = Counter()
    for d in dumps:
        base = len(spans)
        for s in d["spans"]:
            s = list(s)
            if s[PARENT] is not None:
                s[PARENT] += base
            spans.append(s)
        counts.update(d["counts"])
    return {"spans": spans, "counts": dict(counts)}


def write_spans(path: Path, spans: list[list]) -> None:
    """One JSON object per span: id, name, parent id, request id, start, end
    (perf_counter seconds of the recording process) and error class."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": s[NAME], "parent": s[PARENT],
                                 "request": s[REQUEST], "start": s[START],
                                 "end": s[END], "error": s[ERROR]}) + "\n")


def skip_classes(spans: list[list]) -> dict:
    """Request id -> class of the exception that escaped a call made by
    ``run_distance_sweep`` itself, which then skips that realization."""
    return {s[REQUEST]: s[ERROR] for s in spans
            if s[ERROR] and s[PARENT] is not None
            and spans[s[PARENT]][NAME] == "experiments.sweep"}


def layer_metrics(trace: dict, n_ops: int, n_skipped: int = 0) -> dict[str, float]:
    """Per-layer metrics from merged spans and counts.

    Times named ``*_self_s`` and the ``mtl.*`` call times are self time (span
    duration minus the time its child spans cover); the other times are
    inclusive.  ``n_ops`` is the base of the per-operation ratios: sweep
    realizations attempted, or CLI invocations.  ``n_skipped`` is the number
    of skipped sweep realizations; those whose exception escaped a traced
    call are classified by exception class, the rest count as ``other``.
    """
    spans, counts = trace["spans"], Counter(trace["counts"])
    child_time = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]
    calls, total, self_t = Counter(), defaultdict(float), defaultdict(float)
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        calls[s[NAME]] += 1
        total[s[NAME]] += dur
        self_t[s[NAME]] += dur - child_time[i]
    skips = Counter(skip_classes(spans).values())

    decomp_calls = counts["mtl.decomp_hits"] + counts["mtl.decomp_misses"]
    m = {
        "kernel.solve_calls": calls["kernel.solve"],
        "kernel.solve_matrices": counts["kernel.solve_matrices"],
        "kernel.solve_s": total["kernel.solve"],
        "mtl.decomp_calls": decomp_calls,
        "mtl.decomp_misses": counts["mtl.decomp_misses"],
        "mtl.decomp_hit_ratio": (decomp_calls - counts["mtl.decomp_misses"]) / decomp_calls
        if decomp_calls else 0.0,
        "mtl.decomp_s": total["mtl.decomp"],
    }
    for fn in ("load_reflection", "modal_transform", "input_admittance_line",
               "input_reflection", "ctf_line"):
        m[f"mtl.{fn}_s"] = self_t[f"mtl.{fn}"]
    m.update({
        "network.reduce_to_port_calls": calls["network.reduce_to_port"],
        "network.reductions_per_network": calls["network.reduce_to_port"] / max(n_ops, 1),
        "network.reduce_to_port_self_s": self_t["network.reduce_to_port"],
        "network.end_to_end_ctf_calls": calls["network.end_to_end_ctf"],
        "network.end_to_end_ctf_self_s": self_t["network.end_to_end_ctf"],
        "anomalies.apply_anomaly_s": total["anomalies.apply_anomaly"],
        "anomalies.delta_s": total["anomalies.delta"],
        "experiments.generate_random_network_s": total["experiments.generate_random_network"],
        "experiments.sweep_self_s": self_t["experiments.sweep"],
    })
    known = 0
    for cls in SKIP_CLASSES:
        m[f"experiments.skipped.{cls}"] = skips[cls]
        known += skips[cls]
    m["experiments.skipped.other"] = max(n_skipped - known, 0)
    m.update({
        "timedomain.to_time_domain_s": total["timedomain.to_time_domain"],
        "timedomain.detect_peaks_s": total["timedomain.detect_peaks"],
        "timedomain.locate_s": total["timedomain.locate"],
        "topofile.read_s": total["topofile.read"],
        "topofile.write_s": total["topofile.write"],
        "topofile.bytes_written": counts["topofile.bytes_written"],
        "cli.handler_s": total["cli.handler"],
    })
    return m
