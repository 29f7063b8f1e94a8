"""Command-line front end.

Subcommands: validate, simulate, tdr, ctf, inject, delta, locate, sweep,
scenarios.  Exit status is 0 on success, 1 on validation/parse failure,
2 on numerical failure (singularities), 64 on usage errors.

Each subcommand accepts only the flags its handler reads.  Outputs are
CSV/JSON files in the --out directory with deterministic content; pass
--no-timestamp to drop the one non-reproducible header field.  The
PLNSIM_CABLE_LIBRARY environment variable points at a JSON cable library
that overrides the built-in one for sweeps.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import topofile
from .anomalies import apply_anomaly, delta_chain, delta_superposition
from .cables import builtin_cable_library, cable_velocities
from .errors import (DecompositionError, ParseError, SingularityError,
                     UsageError, ValidationError)
from .experiments import (EnsembleConfig, bundled_single_line_scenarios,
                          run_distance_sweep, run_scenario_suite)
from .mtl import FrequencyGrid
from .network import (Evaluation, end_to_end_ctf, network_input_reflection,
                      reduce_to_port)
from .timedomain import (DEFAULT_MIN_SEPARATION, DEFAULT_REL_THRESHOLD,
                         check_peak_spacing_symmetry, detect_peaks,
                         locate_anomaly_reflectometric, time_to_distance,
                         to_time_domain)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_grid(text: str) -> FrequencyGrid:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError("--grid expects f_start,f_step,n")
    try:
        return FrequencyGrid(float(parts[0]), float(parts[1]), int(parts[2]))
    except (ValueError, ValidationError) as exc:
        raise UsageError(f"bad --grid value: {exc}") from exc


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_topology(args):
    net = topofile.read_topology(args.topology)
    if not net.report.valid:
        raise ValidationError(str(net.report))
    return net


def _single_port(net, name):
    if name:
        if name not in net.ports:
            raise UsageError(f"no port named {name!r}")
        return name
    if len(net.ports) == 1:
        return next(iter(net.ports))
    raise UsageError(f"topology has ports {sorted(net.ports)}; pick one with --port")


def _velocity(args, net) -> float:
    if args.velocity is not None:
        return args.velocity
    f_start = _parse_grid(args.grid).f_start
    return float(cable_velocities(net.branches[0].cable, f_start)[0])


def _cable_library():
    path = os.environ.get("PLNSIM_CABLE_LIBRARY")
    if path:
        return topofile.read_cable_library(path)
    return builtin_cable_library()


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_validate(args) -> int:
    report = topofile.read_topology(args.topology).report
    print(report)
    return EXIT_OK if report.valid else EXIT_INVALID


def cmd_simulate(args) -> int:
    net = _load_topology(args)
    grid = _parse_grid(args.grid)
    port = _single_port(net, args.port)
    out = _outdir(args)
    ts = not args.no_timestamp

    ev = Evaluation(grid)
    red = reduce_to_port(net, port, grid, ev)
    topofile.write_spectrum_csv(out / "yin.csv", red.y_in, ts)
    rho = network_input_reflection(net, port, grid, ev)
    topofile.write_spectrum_csv(out / "rhoin.csv", rho, ts)
    written = ["yin.csv", "rhoin.csv"]
    if args.tx_port:
        rx = args.rx_node or net.ports[port].node
        h = end_to_end_ctf(net, args.tx_port, rx, grid, ev)
        topofile.write_spectrum_csv(out / "htot.csv", h, ts)
        written.append("htot.csv")
    print("wrote " + ", ".join(str(out / w) for w in written))
    return EXIT_OK


def cmd_tdr(args) -> int:
    net = _load_topology(args)
    grid = _parse_grid(args.grid)
    port = _single_port(net, args.port)
    out = _outdir(args)
    ts = not args.no_timestamp

    if args.quantity == "admittance":
        spec = reduce_to_port(net, port, grid).y_in
    else:
        spec = network_input_reflection(net, port, grid)
    trace = to_time_domain(spec, args.window)
    peaks = detect_peaks(trace, args.threshold, args.min_separation)
    v = _velocity(args, net)
    located = time_to_distance(peaks, v, "reflectometric")
    topofile.write_trace_csv(out / "trace.csv", trace, ts)
    topofile.write_peaks_csv(out / "peaks.csv", located, ts)
    print(f"wrote {out / 'trace.csv'}, {out / 'peaks.csv'} "
          f"({len(located)} peaks, v = {v:.6g} m/s)")
    return EXIT_OK


def cmd_ctf(args) -> int:
    net = _load_topology(args)
    grid = _parse_grid(args.grid)
    out = _outdir(args)
    ts = not args.no_timestamp
    if args.rx_port:
        rx_node = net.ports[_single_port(net, args.rx_port)].node
    elif args.rx_node:
        rx_node = args.rx_node
    else:
        raise UsageError("ctf needs --rx-node or --rx-port")

    ev = Evaluation(grid)
    h = end_to_end_ctf(net, args.tx_port, rx_node, grid, ev)
    topofile.write_spectrum_csv(out / "htot.csv", h, ts)
    trace = to_time_domain(h, args.window)
    topofile.write_trace_csv(out / "htot_trace.csv", trace, ts)
    written = ["htot.csv", "htot_trace.csv"]

    if args.check_symmetry:
        if not args.rx_port:
            raise UsageError("--check-symmetry needs --rx-port (the reverse "
                             "direction transmits from there)")
        tx_node = net.ports[args.tx_port].node
        h_rev = end_to_end_ctf(net, args.rx_port, tx_node, grid, ev)
        trace_rev = to_time_domain(h_rev, args.window)
        topofile.write_trace_csv(out / "htot_trace_reverse.csv", trace_rev, ts)
        rep = check_peak_spacing_symmetry(trace, trace_rev,
                                          rel_threshold=args.threshold,
                                          min_separation=args.min_separation)
        topofile.write_json(out / "symmetry.json", {
            "symmetric": rep.symmetric,
            "inconclusive": rep.inconclusive,
            "max_spacing_error_samples": rep.max_spacing_error_samples,
            "spacings_forward_s": rep.spacings_ab_s,
            "spacings_reverse_s": rep.spacings_ba_s,
            "notes": rep.notes,
        }, ts)
        written += ["htot_trace_reverse.csv", "symmetry.json"]
        print(f"peak spacing symmetric: {rep.symmetric} "
              f"(inconclusive: {rep.inconclusive})")
    print("wrote " + ", ".join(str(out / w) for w in written))
    return EXIT_OK


def cmd_inject(args) -> int:
    net = _load_topology(args)
    grid = _parse_grid(args.grid)
    anomaly = topofile.read_anomaly(args.anomaly, net)
    perturbed = apply_anomaly(net, anomaly, grid)
    out = _outdir(args)
    topofile.write_topology(perturbed, out / "perturbed_topology.json")
    print(f"wrote {out / 'perturbed_topology.json'}")
    return EXIT_OK


def _quantity_spectra(net, net_a, quantity, port, tx_port, rx_node, grid):
    ev = Evaluation(grid)
    if quantity == "admittance":
        return (reduce_to_port(net_a, port, grid, ev).y_in,
                reduce_to_port(net, port, grid, ev).y_in)
    if quantity == "reflection":
        return (network_input_reflection(net_a, port, grid, ev),
                network_input_reflection(net, port, grid, ev))
    if quantity == "ctf":
        if not tx_port or not rx_node:
            raise UsageError("--quantity ctf needs --tx-port and --rx-node")
        return (end_to_end_ctf(net_a, tx_port, rx_node, grid, ev),
                end_to_end_ctf(net, tx_port, rx_node, grid, ev))
    raise UsageError(f"unknown quantity {quantity!r}")


def cmd_delta(args) -> int:
    net = _load_topology(args)
    grid = _parse_grid(args.grid)
    anomaly = topofile.read_anomaly(args.anomaly, net)
    net_a = apply_anomaly(net, anomaly, grid)
    port = _single_port(net, args.port) if args.quantity != "ctf" else args.port
    out = _outdir(args)
    ts = not args.no_timestamp

    perturbed, baseline = _quantity_spectra(net, net_a, args.quantity, port,
                                            args.tx_port, args.rx_node, grid)
    if args.model == "chain":
        delta = delta_chain(perturbed, baseline)
    else:
        delta = delta_superposition(perturbed, baseline,
                                    normalize=args.model == "superposition_normalized")
    if delta.warning:
        print(f"warning: {delta.warning}", file=sys.stderr)
    topofile.write_spectrum_csv(out / "delta_spectrum.csv", delta.values, ts)
    trace = to_time_domain(delta, args.window)
    topofile.write_trace_csv(out / "delta_trace.csv", trace, ts)
    print(f"wrote {out / 'delta_spectrum.csv'}, {out / 'delta_trace.csv'}")
    return EXIT_OK


def cmd_locate(args) -> int:
    net = _load_topology(args)
    grid = _parse_grid(args.grid)
    anomaly = topofile.read_anomaly(args.anomaly, net)
    net_a = apply_anomaly(net, anomaly, grid)
    port = _single_port(net, args.port)
    out = _outdir(args)
    ts = not args.no_timestamp

    ev = Evaluation(grid)
    baseline = reduce_to_port(net, port, grid, ev).y_in
    perturbed = reduce_to_port(net_a, port, grid, ev).y_in
    delta = delta_superposition(perturbed, baseline)
    trace = to_time_domain(delta, args.window)
    v = _velocity(args, net)
    res = locate_anomaly_reflectometric(trace, v, args.threshold,
                                        args.min_separation)
    payload = {"found": res.found, "distance_m": res.distance_m,
               "time_s": res.time_s, "confidence": res.confidence,
               "velocity_m_per_s": v}
    topofile.write_json(out / "locate.json", payload, ts)
    if res.found:
        print(f"anomaly at {res.distance_m:.3f} m "
              f"(confidence {res.confidence:.3f})")
    else:
        print("no anomaly signature above threshold")
    return EXIT_OK


def cmd_sweep(args) -> int:
    lib = _cable_library()
    names = args.cables.split(",") if args.cables else []
    for name in names:
        if name not in lib:
            raise UsageError(f"cable {name!r} not in library {sorted(lib)}")
    cables = tuple(lib[n] for n in names)
    cfg = EnsembleConfig(
        n_networks=args.n_networks,
        n_nodes=(args.n_nodes_min, args.n_nodes_max),
        fault_severity_s=(args.severity_min, args.severity_max),
        cables=cables,
        seed=args.seed)
    grid = _parse_grid(args.grid)
    result = run_distance_sweep(cfg, grid, n_bins=args.bins)
    out = _outdir(args)
    ts = not args.no_timestamp

    topofile.write_sweep_records_csv(out / "records.csv", result.records, ts)
    topofile.write_sweep_bins_csv(out / "bins.csv", result.bins, ts)
    topofile.write_json(out / "summary.json", result.summary, ts)
    print(f"{len(result.records)} records, {len(result.skipped)} skipped; "
          f"summary: {topofile._dumps(result.summary)}")
    return EXIT_OK


def cmd_scenarios(args) -> int:
    grid = _parse_grid(args.grid)
    net, scenarios = bundled_single_line_scenarios()
    results = run_scenario_suite(net, scenarios, grid, window=args.window,
                                 rel_threshold=args.threshold,
                                 min_separation=args.min_separation)
    out = _outdir(args)
    ts = not args.no_timestamp
    payload = {
        "scenarios": [
            {"name": r.name,
             "classification": sorted(r.classification),
             "expected": sorted(r.expected),
             "passed": r.passed,
             "new_peaks_s": r.new_peaks_s,
             "shifted_pairs_s": r.shifted_pairs_s,
             "ambiguities": r.ambiguities}
            for r in results]
    }
    topofile.write_json(out / "scenarios.json", payload, ts)
    ok = True
    for r in results:
        status = "ok" if r.passed else "MISMATCH"
        ok = ok and r.passed
        print(f"{r.name}: {sorted(r.classification)} "
              f"(expected {sorted(r.expected)}) [{status}]")
    return EXIT_OK if ok else EXIT_INVALID


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="plnsim",
                     description="Power-line network propagation and anomaly "
                                 "simulation toolkit")
    # small parents, so that each subcommand accepts only the flags it reads
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--grid", default="1e5,1e5,800",
                     help="f_start,f_step,n (Hz, Hz, count)")
    run.add_argument("--out", default="out", help="output directory")
    stamped = argparse.ArgumentParser(add_help=False, parents=[run])
    stamped.add_argument("--no-timestamp", action="store_true",
                         help="omit the header timestamp for byte-stable output")
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--window", default="hann", choices=["hann", "rect"])
    peaks = argparse.ArgumentParser(add_help=False, parents=[window])
    peaks.add_argument("--threshold", type=float, default=DEFAULT_REL_THRESHOLD,
                       help="relative peak threshold")
    peaks.add_argument("--min-separation", type=int,
                       default=DEFAULT_MIN_SEPARATION,
                       help="minimum peak separation, samples")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a topology file")
    p.add_argument("topology")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", parents=[stamped],
                       help="input admittance/reflection spectra (and transfer)")
    p.add_argument("topology")
    p.add_argument("--port", default=None)
    p.add_argument("--tx-port", default=None)
    p.add_argument("--rx-node", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tdr", parents=[stamped, peaks],
                       help="reflectometric time trace, peaks and distances")
    p.add_argument("topology")
    p.add_argument("--port", default=None)
    p.add_argument("--quantity", default="admittance",
                   choices=["admittance", "reflection"])
    p.add_argument("--velocity", type=float, default=None,
                   help="m/s; default from the first branch cable")
    p.set_defaults(func=cmd_tdr)

    p = sub.add_parser("ctf", parents=[stamped, peaks],
                       help="end-to-end transfer trace, optional symmetry check")
    p.add_argument("topology")
    p.add_argument("--tx-port", required=True)
    p.add_argument("--rx-node", default=None)
    p.add_argument("--rx-port", default=None)
    p.add_argument("--check-symmetry", action="store_true")
    p.set_defaults(func=cmd_ctf)

    p = sub.add_parser("inject", parents=[run],
                       help="write the anomaly-perturbed topology")
    p.add_argument("topology")
    p.add_argument("--anomaly", required=True)
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("delta", parents=[stamped, window],
                       help="chain/superposition anomaly deltas, spectrum and trace")
    p.add_argument("topology")
    p.add_argument("--anomaly", required=True)
    p.add_argument("--model", default="superposition",
                   choices=["chain", "superposition", "superposition_normalized"])
    p.add_argument("--quantity", default="admittance",
                   choices=["admittance", "reflection", "ctf"])
    p.add_argument("--port", default=None)
    p.add_argument("--tx-port", default=None)
    p.add_argument("--rx-node", default=None)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("locate", parents=[stamped, peaks],
                       help="anomaly distance from the reflectometric delta")
    p.add_argument("topology")
    p.add_argument("--anomaly", required=True)
    p.add_argument("--port", default=None)
    p.add_argument("--velocity", type=float, default=None)
    p.set_defaults(func=cmd_locate)

    p = sub.add_parser("sweep", parents=[stamped],
                       help="random-network distance sweep")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-networks", type=int, default=200)
    p.add_argument("--n-nodes-min", type=int, default=4)
    p.add_argument("--n-nodes-max", type=int, default=12)
    p.add_argument("--severity-min", type=float, default=1e-3)
    p.add_argument("--severity-max", type=float, default=1e-1)
    p.add_argument("--bins", type=int, default=5)
    p.add_argument("--cables", default=None,
                   help="comma-separated cable names from the library")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("scenarios", parents=[stamped, peaks],
                       help="bundled anomaly signature scenarios")
    p.set_defaults(func=cmd_scenarios)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"plnsim: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, ValidationError) as exc:
        print(f"plnsim: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (SingularityError, DecompositionError) as exc:
        print(f"plnsim: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
