"""Check that the traced runs' exact counts repeat, and compare them with the
recorded baseline.

    python3 perfbench/counts.py [--record]

Runs every workload traced twice with the baseline seed.  The ``count`` metrics
(kernel solves, decomposition calls and misses, reductions, skips by error
class, bytes written) must be identical between the two runs; the script
exits 1 when they are not.  It then prints how they differ from
perfbench/data/trace_counts.json, or rewrites that file with ``--record``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import harness
from run import WORKLOADS

BASELINE = harness.DATA / "trace_counts.json"
BASELINE_SEED = 1


def traced_counts(workload: str) -> dict:
    proc = subprocess.run([sys.executable, str(harness.BENCH / "run.py"), "--workload",
                           workload, "--seed", str(BASELINE_SEED), "--trace", "1"],
                          capture_output=True, text=True, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] in ("count", "bytes")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    counts, code = {}, 0
    for w in WORKLOADS:
        first, second = traced_counts(w), traced_counts(w)
        if first != second:
            code = 1
            for k in sorted(first):
                if first[k] != second[k]:
                    print(f"{w}: {k} does not repeat: {first[k]} then {second[k]}")
        else:
            print(f"{w}: {len(first)} counts repeat")
        counts[w] = first
    payload = {"seed": BASELINE_SEED, "counts": counts}
    if args.record:
        BASELINE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {BASELINE}")
    elif BASELINE.is_file():
        base = json.loads(BASELINE.read_text())["counts"]
        for w in WORKLOADS:
            for k, v in counts[w].items():
                old = base.get(w, {}).get(k)
                if old != v:
                    print(f"{w}: {k} {old} -> {v}")
    return code


if __name__ == "__main__":
    sys.exit(main())
