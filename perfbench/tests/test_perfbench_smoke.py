"""Smoke check of the benchmark: each workload body once at tiny size, for
correctness only (nothing is timed), so the harness cannot rot.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import cli_oneshot  # noqa: E402
import harness  # noqa: E402
import sweeps  # noqa: E402
import tracer  # noqa: E402


@pytest.mark.parametrize("workload", sorted(sweeps.POOLS))
def test_sweep_body_matches_reference(workload):
    import plnsim.network
    from plnsim import EnsembleConfig, default_grid

    pool = sweeps.POOLS[workload]
    cables = sweeps.coupled_cables() if pool.coupled else ()
    cfg = EnsembleConfig(n_networks=2, cables=cables, seed=pool.base_seed)
    ref = harness.load_reference(workload)["ensembles"][str(cfg.seed)]
    solve, reduce = np.linalg.solve, plnsim.network.reduce_to_port

    with tracer.Tracer() as tr:
        result = sweeps.run_ensemble(cfg, default_grid())

    assert np.linalg.solve is solve and plnsim.network.reduce_to_port is reduce
    out = sweeps.payload(result)
    # records depend on (seed, index) only, so the first two match the
    # recorded ensemble's; its summary covers the whole ensemble
    assert out["skipped"] == [s[:2] for s in ref["skipped"] if s[0] < 2]
    first = [r for r in ref["records"] if r["network_index"] < 2]
    assert harness.diff_json(first, out["records"]) == []
    m = tracer.layer_metrics(tr.dump(), n_ops=2)
    assert m["network.reductions_per_network"] == 6
    assert m["kernel.solve_matrices"] == 800 * m["kernel.solve_calls"]
    assert m["mtl.decomp_calls"] > 0
    assert {s[tracer.REQUEST] for s in tr.spans} >= {f"{cfg.seed}:0", f"{cfg.seed}:1"}


@pytest.mark.parametrize("traced", [False, True])
def test_cli_body_matches_reference(traced, tmp_path, monkeypatch):
    monkeypatch.setattr(cli_oneshot, "OUTDIR", tmp_path)
    ref = harness.load_reference("cli-oneshot")["commands"]
    cmd_id, args = next(c for c in cli_oneshot.COMMANDS if c[0] == "locate")

    _, code, stderr, files = cli_oneshot.invoke(cmd_id, args, 0 if traced else None)

    assert code == 0, stderr
    assert cli_oneshot.check(ref[cmd_id], code, files, cmd_id) == []
    if traced:
        dump = json.loads((tmp_path / f"{cmd_id}.spans.json").read_text())
        m = tracer.layer_metrics(dump, n_ops=1)
        assert m["cli.handler_s"] > 0 and m["timedomain.locate_s"] > 0
        assert m["network.reduce_to_port_calls"] == 2
        assert harness.importtime(stderr)["plnsim"] > 0


def test_reference_comparison_tolerance():
    # a trace sample near zero is judged on the trace's scale
    head = "# kind=trace\n# quantity=admittance\nf_or_t,entry_row,entry_col,re,im\n"
    ref = head + "0,0,0,1.0,0\n1,0,0,1e-15,0\n"
    assert harness.diff_csv(ref, head + "0,0,0,1.0000000001,0\n1,0,0,3e-15,0\n", "f") == []
    assert harness.diff_csv(ref, head + "0,0,0,1.00001,0\n1,0,0,1e-15,0\n", "f")
    assert harness.diff_csv(ref, head + "0,0,0,1.0,0\n", "f")
    # a spectrum entry is judged on its own magnitude, not on its column's
    spec = "# kind=admittance\nf_or_t,entry_row,entry_col,re,im\n1,0,0,1.0,0.0\n2,0,0,1e-4,2e-4\n"
    drifted = spec.replace("1e-4,2e-4", "1.0000001e-4,2e-4")
    assert harness.diff_csv(spec, drifted, "f")
    assert harness.diff_csv(spec, spec.replace("1.0,0.0", "1.0,1e-15"), "f") == []
    assert harness.diff_json({"found": True, "d": 2.0}, {"found": False, "d": 2.0})
    assert harness.diff_json({"x": float("nan")}, {"x": float("nan")}) == []


def test_layer_self_time_and_skip_classes():
    spans = [["experiments.sweep", None, "1", 0.0, 10.0, None],
             ["network.reduce_to_port", 0, "1:0", 1.0, 5.0, "SingularityError"],
             ["kernel.solve", 1, "1:0", 2.0, 3.0, None]]
    m = tracer.layer_metrics({"spans": spans, "counts": {}}, n_ops=2, n_skipped=2)
    assert m["experiments.sweep_self_s"] == 6.0
    assert m["network.reduce_to_port_self_s"] == 3.0
    assert m["kernel.solve_s"] == 1.0
    assert m["experiments.skipped.SingularityError"] == 1
    assert m["experiments.skipped.other"] == 1


def test_importtime_counts_outermost_package_entries():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy.linalg",
        "import time:        50 |        150 |     scipy",
        "import time:        10 |         10 |     json",
        "import time:        40 |        200 |   plnsim.mtl",
        "import time:        20 |        220 | plnsim",
    ])
    assert harness.importtime(stderr) == pytest.approx({"plnsim": 220e-6, "scipy": 150e-6})
