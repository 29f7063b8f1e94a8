"""Command-line front end.

Subcommands: validate, simulate, tdr, ctf, inject, delta, locate, sweep,
scenarios, backbone.  Exit status is 0 on success, 1 on validation/parse
failure or when memory runs out, 2 on numerical failure (singularities), 64
on usage errors.

Each subcommand accepts only the flags its handler reads, and ``main``
builds only the parser of the subcommand it runs.  A handler
``cmd_<name>(args, grid)`` computes and writes nothing: it returns an
``Output``, and only then does ``main`` create the --out directory and write
the files, so a command that stops on an error leaves no output.  Outputs are
CSV/JSON files with deterministic content; pass --no-timestamp to drop the
one non-reproducible header field.  The PLNSIM_CABLE_LIBRARY environment
variable points at a JSON cable library that overrides the built-in one for
sweeps.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path
from typing import NamedTuple

from . import topofile
from .anomalies import (REFLECTION_CHAIN_WARNING, apply_anomaly, delta_chain,
                        delta_superposition)
from .cables import builtin_cable_library, cable_velocities
from .errors import (DecompositionError, ParseError, SingularityError,
                     UsageError, ValidationError)
from .experiments import (EnsembleConfig, bundled_single_line_scenarios,
                          run_backbone_lateral_study, run_distance_sweep,
                          run_scenario_suite)
from .mtl import DELTA_MODELS, FrequencyGrid
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


class Output(NamedTuple):
    """What a handler produced.  ``files`` holds ``(name, writer, content)``
    triples, written in order as ``writer(out / name, content, timestamp)``;
    ``text`` is printed right after the ``wrote`` line's file list."""
    files: list
    text: str = ""
    status: int = EXIT_OK


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


def _load_topology(args):
    net = topofile.read_topology(args.topology)
    if not net.report.valid:
        raise ValidationError(f"{args.topology}: {net.report}")
    return net


def _single_port(net, name):
    if name:
        if name not in net.ports:
            raise UsageError(f"no port named {name!r}")
        return name
    if len(net.ports) == 1:
        return next(iter(net.ports))
    raise UsageError(f"topology has ports {sorted(net.ports)}; pick one with --port")


def _velocity(args, grid, net) -> float:
    if args.velocity is not None:
        return args.velocity
    return float(cable_velocities(net.branches[0].cable, grid.f_start)[0])


def _write_topology(path, net, timestamp):
    """``write_topology`` in the writer form ``main`` calls; it has no timestamp."""
    topofile.write_topology(net, path)


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_validate(args, grid) -> Output:
    report = topofile.read_topology(args.topology).report
    print(report)
    return Output([], status=EXIT_OK if report.valid else EXIT_INVALID)


def cmd_simulate(args, grid) -> Output:
    net = _load_topology(args)
    port = _single_port(net, args.port)
    ev = Evaluation(grid)
    files = [("yin.csv", topofile.write_spectrum_csv,
              reduce_to_port(net, port, grid, ev).y_in),
             ("rhoin.csv", topofile.write_spectrum_csv,
              network_input_reflection(net, port, grid, ev))]
    if args.tx_port:
        rx = args.rx_node or net.ports[port].node
        files.append(("htot.csv", topofile.write_spectrum_csv,
                      end_to_end_ctf(net, args.tx_port, rx, grid, ev)))
    return Output(files)


def cmd_tdr(args, grid) -> Output:
    net = _load_topology(args)
    port = _single_port(net, args.port)
    if args.quantity == "admittance":
        spec = reduce_to_port(net, port, grid).y_in
    else:
        spec = network_input_reflection(net, port, grid)
    trace = to_time_domain(spec, args.window)
    peaks = detect_peaks(trace, args.threshold, args.min_separation)
    v = _velocity(args, grid, net)
    located = time_to_distance(peaks, v, "reflectometric")
    return Output([("trace.csv", topofile.write_trace_csv, trace),
                   ("peaks.csv", topofile.write_peaks_csv, located)],
                  f" ({len(located)} peaks, v = {v:.6g} m/s)")


def cmd_ctf(args, grid) -> Output:
    net = _load_topology(args)
    if args.rx_port:
        rx_node = net.ports[_single_port(net, args.rx_port)].node
    elif args.rx_node:
        rx_node = args.rx_node
    else:
        raise UsageError("ctf needs --rx-node or --rx-port")

    ev = Evaluation(grid)
    h = end_to_end_ctf(net, args.tx_port, rx_node, grid, ev)
    trace = to_time_domain(h, args.window)
    files = [("htot.csv", topofile.write_spectrum_csv, h),
             ("htot_trace.csv", topofile.write_trace_csv, trace)]
    if not args.check_symmetry:
        return Output(files)

    if not args.rx_port:
        raise UsageError("--check-symmetry needs --rx-port (the reverse "
                         "direction transmits from there)")
    tx_node = net.ports[args.tx_port].node
    h_rev = end_to_end_ctf(net, args.rx_port, tx_node, grid, ev)
    trace_rev = to_time_domain(h_rev, args.window)
    rep = check_peak_spacing_symmetry(trace, trace_rev,
                                      rel_threshold=args.threshold,
                                      min_separation=args.min_separation)
    files += [("htot_trace_reverse.csv", topofile.write_trace_csv, trace_rev),
              ("symmetry.json", topofile.write_json, {
                  "symmetric": rep.symmetric,
                  "inconclusive": rep.inconclusive,
                  "max_spacing_error_samples": rep.max_spacing_error_samples,
                  "spacings_forward_s": rep.spacings_ab_s,
                  "spacings_reverse_s": rep.spacings_ba_s,
                  "notes": rep.notes,
              })]
    return Output(files, f"\npeak spacing symmetric: {rep.symmetric} "
                         f"(inconclusive: {rep.inconclusive})")


def cmd_inject(args, grid) -> Output:
    net = _load_topology(args)
    anomaly = topofile.read_anomaly(args.anomaly, net)
    perturbed = apply_anomaly(net, anomaly, grid)
    return Output([("perturbed_topology.json", _write_topology, perturbed)])


def _anomaly_spectra(args, net, grid, quantity):
    """(perturbed, baseline) spectra of ``quantity`` for ``net`` with and
    without the anomaly that ``args.anomaly`` names."""
    pair = (apply_anomaly(net, topofile.read_anomaly(args.anomaly, net), grid), net)
    ev = Evaluation(grid)
    if quantity == "ctf":
        if not args.tx_port or not args.rx_node:
            raise UsageError("--quantity ctf needs --tx-port and --rx-node")
        return tuple(end_to_end_ctf(n, args.tx_port, args.rx_node, grid, ev) for n in pair)
    port = _single_port(net, args.port)
    if quantity == "reflection":
        return tuple(network_input_reflection(n, port, grid, ev) for n in pair)
    return tuple(reduce_to_port(n, port, grid, ev).y_in for n in pair)


def cmd_delta(args, grid) -> Output:
    net = _load_topology(args)
    perturbed, baseline = _anomaly_spectra(args, net, grid, args.quantity)
    if args.model == "chain":
        delta = delta_chain(perturbed, baseline)
    else:
        delta = delta_superposition(perturbed, baseline,
                                    normalize=args.model == "superposition_normalized")
    if args.model == "chain" and args.quantity == "reflection":
        print(f"warning: {REFLECTION_CHAIN_WARNING}", file=sys.stderr)
    return Output([("delta_spectrum.csv", topofile.write_spectrum_csv, delta),
                   ("delta_trace.csv", topofile.write_trace_csv,
                    to_time_domain(delta, args.window))])


def cmd_locate(args, grid) -> Output:
    net = _load_topology(args)
    delta = delta_superposition(*_anomaly_spectra(args, net, grid, "admittance"))
    trace = to_time_domain(delta, args.window)
    v = _velocity(args, grid, net)
    res = locate_anomaly_reflectometric(trace, v, args.threshold,
                                        args.min_separation)
    payload = {"found": res.found, "distance_m": res.distance_m,
               "time_s": res.time_s, "confidence": res.confidence,
               "velocity_m_per_s": v}
    if res.found:
        text = f"anomaly at {res.distance_m:.3f} m (confidence {res.confidence:.3f})"
    else:
        text = "no anomaly signature above threshold"
    return Output([("locate.json", topofile.write_json, payload)], "\n" + text)


def cmd_sweep(args, grid) -> Output:
    path = os.environ.get("PLNSIM_CABLE_LIBRARY")
    lib = topofile.read_cable_library(path) if path else builtin_cable_library()
    names = args.cables.split(",") if args.cables else []
    for name in names:
        if name not in lib:
            raise UsageError(f"cable {name!r} not in library {sorted(lib)}")
    cfg = EnsembleConfig(
        n_networks=args.n_networks,
        n_nodes=(args.n_nodes_min, args.n_nodes_max),
        fault_severity_s=(args.severity_min, args.severity_max),
        cables=tuple(lib[n] for n in names),
        seed=args.seed)
    result = run_distance_sweep(cfg, grid, n_bins=args.bins)
    return Output([("records.csv", topofile.write_sweep_records_csv, result.records),
                   ("bins.csv", topofile.write_sweep_bins_csv, result.bins),
                   ("summary.json", topofile.write_json, result.summary)],
                  f"\n{len(result.records)} records, {len(result.skipped)} skipped; "
                  f"summary: {topofile._dumps(result.summary)}")


def cmd_scenarios(args, grid) -> Output:
    net, scenarios = bundled_single_line_scenarios()
    results = run_scenario_suite(net, scenarios, grid, window=args.window,
                                 rel_threshold=args.threshold,
                                 min_separation=args.min_separation)
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
    text = "".join(f"\n{r.name}: {sorted(r.classification)} "
                   f"(expected {sorted(r.expected)}) "
                   f"[{'ok' if r.passed else 'MISMATCH'}]" for r in results)
    return Output([("scenarios.json", topofile.write_json, payload)], text,
                  EXIT_OK if all(r.passed for r in results) else EXIT_INVALID)


def cmd_backbone(args, grid) -> Output:
    res = run_backbone_lateral_study(args.n_networks, args.seed)
    return Output([("backbone.json", topofile.write_json, dataclasses.asdict(res))],
                  f"\n{res.n_networks} networks ({res.skipped} draws skipped); "
                  f"band-mean chain delta: backbone {res.mean_backbone_db:+.2f} dB, "
                  f"lateral {res.mean_lateral_db:+.2f} dB")


# ---------------------------------------------------------------------------
# the parser: one table of subcommands, each with the flags its handler reads

def _arg(*flags, **kwargs):
    return flags, kwargs


_TOPOLOGY = _arg("topology")
_PORT = _arg("--port", default=None)
_TX_PORT = _arg("--tx-port", default=None)
_RX_NODE = _arg("--rx-node", default=None)
_ANOMALY = _arg("--anomaly", required=True)
_OUT = _arg("--out", default="out", help="output directory")
_NO_TIMESTAMP = _arg("--no-timestamp", action="store_true",
                     help="omit the header timestamp for byte-stable output")
_RUN = (_arg("--grid", default="1e5,1e5,800", help="f_start,f_step,n (Hz, Hz, count)"),
        _OUT)
_STAMPED = (*_RUN, _NO_TIMESTAMP)
_WINDOW = (_arg("--window", default="hann", choices=["hann", "rect"]),)
_PEAKS = (*_WINDOW,
          _arg("--threshold", type=float, default=DEFAULT_REL_THRESHOLD,
               help="relative peak threshold"),
          _arg("--min-separation", type=int, default=DEFAULT_MIN_SEPARATION,
               help="minimum peak separation, samples"))

# name: (help, arguments in the order --help lists them); the handler is cmd_<name>
_COMMANDS = {
    "validate": ("check a topology file", (_TOPOLOGY,)),
    "simulate": ("input admittance/reflection spectra (and transfer)",
                 (*_STAMPED, _TOPOLOGY, _PORT, _TX_PORT, _RX_NODE)),
    "tdr": ("reflectometric time trace, peaks and distances",
            (*_STAMPED, *_PEAKS, _TOPOLOGY, _PORT,
             _arg("--quantity", default="admittance", choices=["admittance", "reflection"]),
             _arg("--velocity", type=float, default=None,
                  help="m/s; default from the first branch cable"))),
    "ctf": ("end-to-end transfer trace, optional symmetry check",
            (*_STAMPED, *_PEAKS, _TOPOLOGY, _arg("--tx-port", required=True), _RX_NODE,
             _arg("--rx-port", default=None), _arg("--check-symmetry", action="store_true"))),
    "inject": ("write the anomaly-perturbed topology",
               (*_RUN, _TOPOLOGY, _ANOMALY)),
    "delta": ("chain/superposition anomaly deltas, spectrum and trace",
              (*_STAMPED, *_WINDOW, _TOPOLOGY, _ANOMALY,
               _arg("--model", default="superposition", choices=DELTA_MODELS),
               _arg("--quantity", default="admittance",
                    choices=["admittance", "reflection", "ctf"]),
               _PORT, _TX_PORT, _RX_NODE)),
    "locate": ("anomaly distance from the reflectometric delta",
               (*_STAMPED, *_PEAKS, _TOPOLOGY, _ANOMALY, _PORT,
                _arg("--velocity", type=float, default=None))),
    "sweep": ("random-network distance sweep",
              (*_STAMPED, _arg("--seed", type=int, default=0),
               _arg("--n-networks", type=int, default=200),
               _arg("--n-nodes-min", type=int, default=4),
               _arg("--n-nodes-max", type=int, default=12),
               _arg("--severity-min", type=float, default=1e-3),
               _arg("--severity-max", type=float, default=1e-1),
               _arg("--bins", type=int, default=5),
               _arg("--cables", default=None,
                    help="comma-separated cable names from the library"))),
    "scenarios": ("bundled anomaly signature scenarios",
                  (*_STAMPED, *_PEAKS)),
    "backbone": ("chain deltas of backbone vs lateral faults",
                 (_arg("--n-networks", type=int, default=50),
                  _arg("--seed", type=int, default=1234), _OUT, _NO_TIMESTAMP)),
}


def build_parser(command: str | None = None) -> _Parser:
    """The parser with every subcommand, or with ``command``'s alone.  The
    one-subcommand parser can still print the top-level usage (for
    unrecognized arguments), so it names every subcommand in its metavar;
    the full parser has none, so its missing-command and invalid-choice
    errors keep calling the argument ``command``."""
    parser = _Parser(prog="plnsim",
                     description="Power-line network propagation and anomaly "
                                 "simulation toolkit")
    names = list(_COMMANDS) if command is None else [command]
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}")
    for name in names:
        help_text, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        # looked up by name at each build, so a handler rebound on the module
        # (perfbench's tracer wraps every cmd_*) is the one that runs
        p.set_defaults(func=globals()[f"cmd_{name}"])
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a run needs only its subcommand's parser; no command, -h or an unknown
    # name gets the full one
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        grid = _parse_grid(args.grid) if "grid" in args else None
        result = args.func(args, grid)
        if result.files:
            out = Path(args.out)
            try:
                out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                print(f"plnsim: cannot make the --out directory {out}: {exc.strerror}",
                      file=sys.stderr)
                return EXIT_INVALID
            timestamp = not getattr(args, "no_timestamp", False)
            for name, write, content in result.files:
                write(out / name, content, timestamp)
            print("wrote " + ", ".join(str(out / name) for name, _, _ in result.files)
                  + result.text)
        return result.status
    except UsageError as exc:
        print(f"plnsim: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, ValidationError) as exc:
        print(f"plnsim: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (SingularityError, DecompositionError) as exc:
        print(f"plnsim: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"plnsim: out of memory: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
