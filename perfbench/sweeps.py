"""Monte Carlo sweep workloads: repeated ``run_distance_sweep`` calls.

Each workload owns a pool of seeded ensembles whose outputs were recorded as
the reference.  A run makes whole passes over the pool and the run seed picks
the order of each pass, so every output a run produces has a reference and
every run times the same mix of network sizes whatever its seed.
``sweep-l1`` uses the default single-conductor cable library, which
``EnsembleConfig.cable_set`` rebuilds for every network; ``sweep-l3`` passes
three 3-conductor cables built once in set-up, so their decompositions are
cached before the timed section.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import calibrate
import harness
import tracer


@dataclass(frozen=True)
class Pool:
    base_seed: int      # ensemble k uses EnsembleConfig(seed=base_seed + k)
    n_ensembles: int
    n_networks: int     # ensemble size
    coupled: bool       # three-conductor cables instead of the default library
    traced_ensembles: int  # fixed amount of work of a traced run


# a pass takes 8-10 s on a 2-vCPU Xeon at the baseline commit
POOLS = {
    "sweep-l1": Pool(base_seed=1000, n_ensembles=24, n_networks=5, coupled=False,
                     traced_ensembles=8),
    "sweep-l3": Pool(base_seed=3000, n_ensembles=8, n_networks=3, coupled=True,
                     traced_ensembles=4),
}

WARMUP_SEED = 999_999   # outside every pool
SETUP_REPEATS = 3


def coupled_cables() -> tuple:
    """3-conductor versions of pl-std, pl-lowloss and pl-lossy."""
    from plnsim import powerline_cable
    return (powerline_cable(3, label="pl-std-3c"),
            powerline_cable(3, r0_ohm_per_m=0.05, c_f_per_m=8e-11, label="pl-lowloss-3c"),
            powerline_cable(3, r0_ohm_per_m=0.2, c_f_per_m=1.2e-10, label="pl-lossy-3c"))


def configs(pool: Pool, cables: tuple = ()) -> list:
    from plnsim import EnsembleConfig
    return [EnsembleConfig(n_networks=pool.n_networks, cables=cables, seed=pool.base_seed + k)
            for k in range(pool.n_ensembles)]


def passes(seed: int, n: int):
    """Endless sequence of passes over the pool, each a seeded permutation."""
    rng = np.random.default_rng(seed)
    while True:
        yield [int(k) for k in rng.permutation(n)]


def run_ensemble(cfg, grid):
    import plnsim.experiments
    return plnsim.experiments.run_distance_sweep(cfg, grid)


def payload(result) -> dict:
    """JSON form of a sweep result: records, skips and summary."""
    return json.loads(json.dumps({
        "records": [dataclasses.asdict(r) for r in result.records],
        "skipped": [[i, msg] for i, msg in result.skipped],
        "summary": result.summary,
    }))


def check(ref: dict, out: dict, n_networks: int):
    """(failed realizations, differences) of one ensemble against its
    reference.  A realization fails when it was skipped or its record is
    missing or differs; a differing summary or skip list fails one more."""
    diffs = []
    ref_rec = {r["network_index"]: r for r in ref["records"]}
    out_rec = {r["network_index"]: r for r in out["records"]}
    skipped = {i for i, _ in out["skipped"]}
    failed = 0
    for i in range(n_networks):
        if i in skipped:
            failed += 1
            continue
        d = harness.diff_json(ref_rec.get(i), out_rec.get(i), f"record[{i}]")
        if d:
            failed += 1
            diffs += d
    ref_skips = [s[:2] for s in ref["skipped"] if s[0] < n_networks]
    extra = harness.diff_json(ref_skips, out["skipped"], "skipped")
    extra += harness.diff_json(ref["summary"], out["summary"], "summary")
    if extra:
        failed = min(failed + 1, n_networks)
        diffs += extra
    return failed, diffs


def _prepare(pool: Pool, grid):
    """In-process input generation and warm-up (decompositions cleared
    first, so each set-up pays them)."""
    import plnsim.mtl
    from plnsim import EnsembleConfig

    plnsim.mtl.line_propagation_params.cache_clear()
    cables = coupled_cables() if pool.coupled else ()
    for cable in cables:
        plnsim.mtl.line_propagation_params(cable, grid)
    run_ensemble(EnsembleConfig(n_networks=1, cables=cables, seed=WARMUP_SEED), grid)
    return configs(pool, cables)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from plnsim import default_grid

    pool = POOLS[workload]
    grid = default_grid()
    ref = harness.load_reference(workload)
    order = passes(seed, pool.n_ensembles)

    if not trace:
        # a set-up is a fresh-interpreter import, calibrated by the
        # interpreter probe, and the in-process preparation, calibrated by
        # the numpy probe
        imports, prepare = calibrate.Clock(interpreter=True), calibrate.Clock()
        for _ in range(SETUP_REPEATS):
            imports.time(harness.fresh_import, "plnsim")
            cfgs = prepare.time(_prepare, pool, grid)
        setup = [a + b for a, b in zip(imports.calibrated, prepare.calibrated)]
        setup_raw = [a + b for a, b in zip(imports.raw, prepare.raw)]
        clock = calibrate.Clock()
        n = pool.n_networks
        keys, outputs, pass_latency = [], [], []
        for pass_keys in harness.whole_passes(order, seconds):
            first = len(clock.calibrated)
            for k in pass_keys:
                keys.append(k)
                outputs.append(clock.time(run_ensemble, cfgs[k], grid))
            pass_latency.append(sum(clock.calibrated[first:]) / (len(pass_keys) * n))
        res = _check_outputs(cfgs, keys, outputs, ref, pool)
        metrics = {
            "ops_per_s": res["completed"] / sum(clock.calibrated),
            # ensembles differ in size, so the median is taken over passes,
            # each of which holds the whole pool
            "op_latency_p50_s": harness.median(pass_latency),
            "setup_s": harness.median(setup),
            "peak_rss_mb": harness.peak_rss_mb(children=False),
        }
        res.update(metrics=metrics, report={
            "networks_per_s": (metrics["ops_per_s"], "1/s"),
            "networks_per_s_raw": (res["completed"] / sum(clock.raw), "1/s"),
            "ensemble_size": (n, "networks"),
            "ensembles_run": (len(keys), "count"),
            "probe_p50_ms": (1e3 * harness.median(clock.probes), "ms"),
            "setup_s": (metrics["setup_s"], "s"),
            "setup_s_raw": (harness.median(setup_raw), "s"),
            "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
        })
        return res

    cfgs = _prepare(pool, grid)
    keys = next(order)[:pool.traced_ensembles]
    tr = tracer.Tracer()
    plain, traced, plain_wall, traced_wall = [], [], 0.0, 0.0
    for i, k in enumerate(keys):
        for is_traced in harness.traced_order(i):
            with tr if is_traced else contextlib.nullcontext():
                t = time.perf_counter()
                result = run_ensemble(cfgs[k], grid)
                wall = time.perf_counter() - t
            if is_traced:
                traced.append(result)
                traced_wall += wall
            else:
                plain.append(result)
                plain_wall += wall
    res = _check_outputs(cfgs, keys + keys, plain + traced, ref, pool)
    dump = tr.dump()
    n_ops = len(keys) * pool.n_networks
    n_skipped = sum(len(r.skipped) for r in traced)
    metrics = tracer.layer_metrics(dump, n_ops, n_skipped)
    metrics.update(_startup_importtime())
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    tracer.write_spans(harness.OUT / f"spans-{workload}-seed{seed}.jsonl", dump["spans"])
    res.update(metrics=metrics, report={})
    return res


def _check_outputs(cfgs, keys, outputs, ref, pool) -> dict:
    res = {"attempted": 0, "failed": 0, "completed": 0, "skips": {}, "diffs": []}
    for k, result in zip(keys, outputs):
        seed = str(cfgs[k].seed)
        failed, diffs = check(ref["ensembles"][seed], payload(result), pool.n_networks)
        res["attempted"] += pool.n_networks
        res["completed"] += len(result.records)
        res["failed"] += failed
        res["diffs"] += [f"ensemble {seed}: {d}" for d in diffs]
        classes = {i: cls for i, _, cls in ref["ensembles"][seed]["skipped"]}
        for i, _ in result.skipped:
            cls = classes.get(i, "unrecorded")
            res["skips"][cls] = res["skips"].get(cls, 0) + 1
    res["correct"] = not res["diffs"]
    return res


def _startup_importtime() -> dict:
    """Import times of plnsim and scipy in one fresh interpreter."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import plnsim"],
                          env=harness.child_env(), cwd=harness.ROOT,
                          capture_output=True, text=True, check=True)
    t = harness.importtime(proc.stderr)
    return {"startup.import_plnsim_s": t["plnsim"], "startup.import_scipy_s": t["scipy"]}
