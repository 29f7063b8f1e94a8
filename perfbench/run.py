"""plnsim benchmark: end-to-end workloads and traced per-layer metrics.

    python3 perfbench/run.py --workload sweep-l1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30 [--trace 1]

One workload per process, one caller, no worker threads.  The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json, measured untraced; with ``--trace 1`` they are the per-layer
ones, from a traced run of a fixed amount of work.  Earlier lines give the
environment and a readable summary.  ``--all`` runs every workload in its own
process and prints one table.  Run from anywhere; paths are taken relative
to the checkout that holds this file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import harness

WORKLOADS = ("sweep-l1", "sweep-l3", "cli-oneshot")


def _units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    harness.configure_process()
    harness.pin_to_one_cpu()
    if workload.startswith("sweep"):
        import sweeps as module
    else:
        import cli_oneshot as module
    print("env: " + json.dumps(harness.environment(), sort_keys=True), flush=True)
    res = module.run(workload, seed, seconds, trace)

    units = _units(trace)
    missing = set(units) - set(res["metrics"])
    if missing:
        raise RuntimeError(f"workload {workload} did not measure {sorted(missing)}")
    fail_rate = res["failed"] / res["attempted"]
    summary = ", ".join(f"{k}={v:.6g} {u}" for k, (v, u) in res["report"].items())
    print(f"{workload} seed={seed}: {summary}{', ' if summary else ''}"
          f"fail_rate={fail_rate:.6g} ({res['failed']}/{res['attempted']})"
          + (f", skipped by class {res['skips']}" if res["skips"] else ""))
    for d in res["diffs"][:20]:
        print(f"mismatch: {d}")
    if len(res["diffs"]) > 20:
        print(f"mismatch: ... {len(res['diffs']) - 20} more")
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {k: {"value": res["metrics"][k], "unit": u} for k, u in units.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; one table of their results."""
    code = 0
    rows = []
    for w in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            code = 1
            continue
        summary = [ln for ln in lines if ln.startswith(f"{w} seed=")]
        rows.append((w, summary[0] if summary else "", json.loads(lines[-1])))
    for w, summary, result in rows:
        print(summary)
        for name, m in result["metrics"].items():
            print(f"  {w:<12} {name:<40} {m['value']:>14.6g} {m['unit']}")
        fail_rate = result["failed"] / result["attempted"]
        print(f"  {w:<12} {'fail_rate':<40} {fail_rate:>14.6g} ratio")
        print(f"  {w:<12} {'correct':<40} {str(result['correct']):>14}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=WORKLOADS)
    group.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (harness.SRC / "plnsim" / "__init__.py").is_file():
        print(f"plnsim sources not found under {harness.SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
