"""One-shot CLI workload: fresh-interpreter ``python -m plnsim.cli`` calls.

A fixed sequence of subcommands on the bundled topologies, each run in its
own interpreter as an interactive user would, with ``--no-timestamp`` so the
output files can be compared with the recorded reference.  The run seed
shuffles the order within each pass over the sequence; a run is made of whole
passes, so every run times the same command mix.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from functools import partial

import numpy as np

import calibrate
import harness
import tracer

TOPO = "src/plnsim/data"
FAULT = "perfbench/data/lumped_fault.json"

# (id, arguments); every call also gets --out <dir> --no-timestamp
COMMANDS = (
    ("simulate-two_node", ["simulate", f"{TOPO}/two_node.json"]),
    ("simulate-star3-tx", ["simulate", f"{TOPO}/star3.json", "--port", "probe",
                           "--tx-port", "tx"]),
    ("tdr-admittance", ["tdr", f"{TOPO}/single_line_200m.json",
                        "--quantity", "admittance"]),
    ("tdr-reflection", ["tdr", f"{TOPO}/star3.json", "--port", "probe",
                        "--quantity", "reflection"]),
    ("ctf-symmetry", ["ctf", f"{TOPO}/star3.json", "--tx-port", "tx",
                      "--rx-port", "probe", "--check-symmetry"]),
    ("delta", ["delta", f"{TOPO}/single_line_200m.json", "--anomaly", FAULT]),
    ("locate", ["locate", f"{TOPO}/single_line_200m.json", "--anomaly", FAULT]),
    ("scenarios", ["scenarios"]),
)

SETUP_REPEATS = 3
OUTDIR = harness.OUT / "cli"


def invoke(cmd_id: str, args: list[str], traced_request: int | None = None,
           clock: calibrate.Clock | None = None):
    """Run one command in a fresh interpreter.  Returns (wall seconds, exit
    code, stderr, output files).  With ``traced_request`` the command runs
    through the tracing launcher under ``-X importtime``; with ``clock`` the
    call is also timed between calibration probes."""
    out = OUTDIR / cmd_id
    shutil.rmtree(out, ignore_errors=True)
    argv = [*args, "--out", str(out), "--no-timestamp"]
    if traced_request is None:
        cmd = [sys.executable, "-m", "plnsim.cli", *argv]
    else:
        spans = out.with_suffix(".spans.json")
        cmd = [sys.executable, "-X", "importtime", str(harness.BENCH / "launch.py"),
               "--spans", str(spans), "--request", str(traced_request), "--", *argv]
    run = subprocess.run if clock is None else partial(clock.time, subprocess.run)
    t = time.perf_counter()
    proc = run(cmd, env=harness.child_env(), cwd=harness.ROOT,
               capture_output=True, text=True)
    wall = time.perf_counter() - t
    files = {p.name: p.read_text() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return wall, proc.returncode, proc.stderr, files


def check(ref: dict, code: int, files: dict, cmd_id: str) -> list[str]:
    diffs = []
    if code != ref["exit"]:
        diffs.append(f"{cmd_id}: exit {code} != {ref['exit']}")
    if sorted(files) != sorted(ref["files"]):
        return diffs + [f"{cmd_id}: files {sorted(files)} != {sorted(ref['files'])}"]
    for name, text in files.items():
        where = f"{cmd_id}/{name}"
        if name.endswith(".json"):
            diffs += harness.diff_json(json.loads(ref["files"][name]), json.loads(text), where)
        else:
            diffs += harness.diff_csv(ref["files"][name], text, where)
    return diffs


def _passes(seed: int):
    rng = np.random.default_rng(seed)
    while True:
        yield [COMMANDS[int(k)] for k in rng.permutation(len(COMMANDS))]


def _setup_once() -> None:
    harness.fresh_import("plnsim.cli")
    shutil.rmtree(OUTDIR, ignore_errors=True)
    OUTDIR.mkdir(parents=True)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ref = harness.load_reference(workload)["commands"]
    passes = _passes(seed)
    diffs, failed, attempted = [], 0, 0

    def call(cmd_id: str, args: list[str], traced: bool, clock=None):
        nonlocal failed, attempted
        wall, code, stderr, files = invoke(cmd_id, args, attempted if traced else None, clock)
        d = check(ref[cmd_id], code, files, cmd_id)
        attempted += 1
        failed += bool(d) or code != 0
        diffs.extend(d)
        return wall, stderr

    if not trace:
        setup = calibrate.Clock(interpreter=True)
        for _ in range(SETUP_REPEATS):
            setup.time(_setup_once)
        clock = calibrate.Clock(interpreter=True)
        for commands in harness.whole_passes(passes, seconds):
            for cmd_id, args in commands:
                call(cmd_id, args, False, clock)
        metrics = {
            "ops_per_s": len(clock.calibrated) / sum(clock.calibrated),
            "op_latency_p50_s": harness.median(clock.calibrated),
            "setup_s": harness.median(setup.calibrated),
            "peak_rss_mb": harness.peak_rss_mb(children=True),
        }
        report = {
            "cmd_latency_p50_s": (metrics["op_latency_p50_s"], "s"),
            "cmd_latency_p50_s_raw": (harness.median(clock.raw), "s"),
            "samples": (len(clock.raw), "invocations"),
            "probe_p50_ms": (1e3 * harness.median(clock.probes), "ms"),
            "setup_s": (metrics["setup_s"], "s"),
            "setup_s_raw": (harness.median(setup.raw), "s"),
            "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
        }
    else:
        _setup_once()
        plain, traced, stderrs = [], [], []
        for i, (cmd_id, args) in enumerate(next(passes)):
            for is_traced in harness.traced_order(i):
                wall, stderr = call(cmd_id, args, is_traced)
                if is_traced:
                    traced.append(wall)
                    stderrs.append(stderr)
                else:
                    plain.append(wall)
        merged = tracer.merge([json.loads((OUTDIR / f"{cmd_id}.spans.json").read_text())
                               for cmd_id, _ in COMMANDS])
        metrics = tracer.layer_metrics(merged, len(traced))
        starts = [harness.importtime(s) for s in stderrs]
        metrics["startup.import_plnsim_s"] = sum(s["plnsim"] for s in starts)
        metrics["startup.import_scipy_s"] = sum(s["scipy"] for s in starts)
        metrics["trace.overhead_ratio"] = sum(traced) / sum(plain)
        tracer.write_spans(harness.OUT / f"spans-{workload}-seed{seed}.jsonl", merged["spans"])
        report = {}
    return {"attempted": attempted, "failed": failed, "completed": attempted - failed,
            "skips": {}, "diffs": diffs, "correct": not diffs, "metrics": metrics,
            "report": report}
