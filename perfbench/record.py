"""Record the reference outputs the benchmark checks every run against.

    python3 perfbench/record.py [sweep-l1 sweep-l3 cli-oneshot]

Writes perfbench/data/ref-<workload>.json.gz: for the sweeps, the records,
skips (with their error class) and summary of every pool ensemble; for the
CLI workload, the exit code and output files of every command.  Run it only
when outputs are meant to change; the committed files are the baseline.
"""

from __future__ import annotations

import sys

import harness


def record_sweep(workload: str) -> dict:
    import sweeps
    import tracer
    from plnsim import default_grid

    pool = sweeps.POOLS[workload]
    cables = sweeps.coupled_cables() if pool.coupled else ()
    ensembles = {}
    for cfg in sweeps.configs(pool, cables):
        with tracer.Tracer() as tr:
            result = sweeps.run_ensemble(cfg, default_grid())
        classes = tracer.skip_classes(tr.spans)
        out = sweeps.payload(result)
        out["skipped"] = [[i, msg, classes.get(f"{cfg.seed}:{i}", "other")]
                          for i, msg in out["skipped"]]
        ensembles[str(cfg.seed)] = out
        print(f"{workload} ensemble {cfg.seed}: {len(out['records'])} records, "
              f"{len(out['skipped'])} skipped", flush=True)
    return {"pool": pool.__dict__, "ensembles": ensembles}


def record_cli() -> dict:
    import shutil

    import cli_oneshot

    shutil.rmtree(cli_oneshot.OUTDIR, ignore_errors=True)
    cli_oneshot.OUTDIR.mkdir(parents=True)
    commands = {}
    for cmd_id, args in cli_oneshot.COMMANDS:
        _, code, stderr, files = cli_oneshot.invoke(cmd_id, args)
        if code != 0:
            sys.stderr.write(stderr)
        commands[cmd_id] = {"argv": args, "exit": code, "files": files}
        print(f"cli-oneshot {cmd_id}: exit {code}, files {sorted(files)}", flush=True)
    return {"commands": commands}


def main(argv: list[str]) -> int:
    harness.configure_process()
    for workload in argv or ["sweep-l1", "sweep-l3", "cli-oneshot"]:
        payload = record_cli() if workload == "cli-oneshot" else record_sweep(workload)
        print(f"wrote {harness.save_reference(workload, payload)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
