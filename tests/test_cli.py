"""Command-line behavior: subcommands, file formats, exit codes and
reproducibility."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import plnsim
from plnsim.cables import constant_rlgc_cable, powerline_cable, scaled_cable
from plnsim.cli import main
from plnsim.errors import ValidationError
from plnsim.mtl import FrequencyGrid, MatrixSpectrum
from plnsim.network import (Branch, NetworkTopology, Port, constant_admittance,
                            open_circuit, parallel_rc_admittance, table_admittance)
from plnsim.topofile import (read_topology, write_json, write_topology,
                             topology_from_dict, topology_to_dict)

from conftest import single_line_net

BUNDLED = resources.files("plnsim") / "data"
TWO_NODE = json.loads((BUNDLED / "two_node.json").read_text())
FAULT = {"type": "lumped_fault", "branch": "b0", "offset_m": 40.0,
         "y_f": {"model": "constant", "params": {"y_s": [0.05, 0.0]}}}
DIST_FAULT = {"type": "distributed_fault", "branch": "b0", "start_m": 30.0,
              "extent_m": 20.0, "degraded": TWO_NODE["cables"]["fast"]}
NAN, INF = float("nan"), float("inf")


def read_spectrum_csv(path, delta_of=None):
    """A spectrum as ``simulate`` or ``delta`` wrote it, its data rows
    ordered by frequency, row and column.  A delta file's header reads
    ``kind=delta`` and names neither quantity nor model, so ``delta_of``
    gives the (quantity, model) the command was run with."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].removeprefix("# kind=")
    kind, model = delta_of or (header, None)
    assert (header == "delta") == (model is not None)
    data = np.loadtxt([ln for ln in lines if ln[:1].isdigit()], delimiter=",")
    f = np.unique(data[:, 0])
    n = int(data[:, 1].max()) + 1
    values = (data[:, 3] + 1j * data[:, 4]).reshape(f.size, n, n)
    return MatrixSpectrum(FrequencyGrid(f[0], f[1] - f[0], f.size), values,
                          kind, model)


@pytest.fixture()
def two_node(tmp_path):
    path = tmp_path / "two_node.json"
    path.write_text((BUNDLED / "two_node.json").read_text())
    return path


@pytest.fixture()
def star3(tmp_path):
    path = tmp_path / "star3.json"
    path.write_text((BUNDLED / "star3.json").read_text())
    return path


def read_peaks(path):
    rows = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#") or line.startswith("time_s") or not line:
            continue
        t, d, a, entry = line.split(",")
        rows.append((float(t), float(d), float(a), entry))
    return rows


# ---------------------------------------------------------------------------

def test_validate_bundled(two_node, capsys):
    assert main(["validate", str(two_node)]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_cycle_fails(tmp_path, two_node, capsys):
    data = json.loads(two_node.read_text())
    data["nodes"].append("n2")
    data["branches"] += [
        {"id": "b1", "node_a": "n1", "node_b": "n2", "cable": "fast",
         "length_m": 10.0},
        {"id": "b2", "node_a": "n2", "node_b": "n0", "cable": "fast",
         "length_m": 10.0}]
    bad = tmp_path / "cycle.json"
    bad.write_text(json.dumps(data))
    assert main(["validate", str(bad)]) == 1
    assert "not a tree" in capsys.readouterr().out


def test_malformed_json_reports_location(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"nodes": [,]}')
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "broken.json:1:" in err


def test_missing_field_reports_context(tmp_path, two_node, capsys):
    data = json.loads(two_node.read_text())
    del data["branches"][0]["length_m"]
    bad = tmp_path / "nofield.json"
    bad.write_text(json.dumps(data))
    assert main(["validate", str(bad)]) == 1
    assert "length_m" in capsys.readouterr().err


@pytest.mark.parametrize("role,content", [
    ("topology", {**TWO_NODE, "cables": []}),
    ("topology", {**TWO_NODE, "loads": []}),
    ("topology", 5),
    ("topology", {**TWO_NODE,
                  "branches": [{**TWO_NODE["branches"][0], "length_m": "ten"}]}),
    ("anomaly", {**FAULT, "offset_m": "ten"}),
    ("anomaly", {**FAULT, "y_f": {"model": "constant", "params": []}}),
    ("cables", {"c": {"model": "powerline", "params": {"r0_ohm_per_m": "ten"}}}),
    ("cables", {"c": {"model": "powerline", "params": ["ten"]}}),
    # json.dumps writes NaN and Infinity, which are not standard JSON
    ("anomaly", {**DIST_FAULT, "start_m": NAN}),
    ("anomaly", {**DIST_FAULT, "extent_m": NAN}),
    ("anomaly", {**FAULT, "y_f": {"model": "constant", "params": {"y_s": [NAN, 0]}}}),
    ("cables", {"c": {"model": "powerline", "params": {"r0_ohm_per_m": NAN}}}),
    ("topology", {**TWO_NODE,
                  "branches": [{**TWO_NODE["branches"][0], "length_m": INF}]}),
    # a misspelled parameter must not fall back to the default silently
    ("topology", {**TWO_NODE, "cables": {"fast": {
        "model": "powerline", "params": {"r0_ohm_per_meter": 5.0}}}}),
    ("topology", {**TWO_NODE, "cables": {"fast": {"model": ["powerline"]}}}),
    ("topology", {**TWO_NODE, "cables": {"fast": ["powerline"]}}),
    ("topology", {**TWO_NODE, "cables": {"fast": {**TWO_NODE["cables"]["fast"],
                                                  "label": ["fast"]}}}),
    # numbers and booleans are JSON numbers and booleans: bool("false") is
    # True, and an active fault skips the passivity check
    ("anomaly", {**FAULT, "active": "false",
                 "y_f": {"model": "constant", "params": {"y_s": [-0.05, 0]}}}),
    ("anomaly", {**FAULT, "offset_m": "40"}),
    ("topology", {**TWO_NODE, "loads": {"n1": {
        "model": "parallel_rc", "params": {"r_ohm": True, "c_farad": 0}}}}),
    # None stands for a directory, bytes for a file that is not UTF-8
    ("topology", None), ("anomaly", None), ("cables", None),
    ("topology", b"\xff{}"), ("anomaly", b"\xff{}"), ("cables", b"\xff{}"),
], ids=["cables-list", "loads-list", "top-level-number", "length-text",
        "offset-text", "params-list", "cable-param-text", "cable-params-list",
        "start-nan", "extent-nan", "admittance-nan", "cable-param-nan",
        "length-infinity", "cable-param-misspelled", "cable-model-list",
        "cable-entry-list", "cable-label-list", "active-text", "offset-number-text",
        "rc-param-bool",
        "topology-directory", "anomaly-directory", "cables-directory",
        "topology-not-utf8", "anomaly-not-utf8", "cables-not-utf8"])
def test_malformed_file_is_parse_error(tmp_path, two_node, monkeypatch, capsys,
                                       role, content):
    bad = tmp_path / f"bad_{role}.json"
    if content is None:
        bad.mkdir()
    elif isinstance(content, bytes):
        bad.write_bytes(content)
    else:
        bad.write_text(json.dumps(content))
    out = str(tmp_path / "out")
    if role == "topology":
        argv = ["validate", str(bad)]
    elif role == "anomaly":
        argv = ["inject", str(two_node), "--anomaly", str(bad), "--out", out]
    else:
        monkeypatch.setenv("PLNSIM_CABLE_LIBRARY", str(bad))
        argv = ["sweep", "--cables", "c", "--n-networks", "1", "--out", out]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert str(bad) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_out_that_cannot_be_a_directory_is_one_line(tmp_path, two_node, capsys, out):
    (tmp_path / "file").write_text("")
    assert main(["simulate", str(two_node), "--out", str(tmp_path / out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"plnsim: cannot make the --out directory {tmp_path / out}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flags", [
    ["--bins", "0"],
    ["--n-nodes-min", "1"],
    ["--severity-min", "-1", "--severity-max", "-0.5"],
    ["--n-networks", "0"],
    ["--n-networks", "-3"],
    ["--cables", "pl-std,pl-2c"],
    ["--seed", "-1"],
    ["--severity-max", "inf"],
], ids=["no-bins", "one-node", "negative-severity", "no-networks",
        "negative-networks", "mixed-conductors", "negative-seed", "infinite-severity"])
def test_sweep_rejects_bad_parameters(tmp_path, capsys, flags):
    assert main(["sweep", "--n-networks", "2", "--grid", "1e5,4e5,80", *flags,
                 "--out", str(tmp_path / "sw")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("plnsim: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["simulate", "TOPO", "--seed", "1", "--out", "OUT"],
    ["validate", "TOPO", "--window", "rect"],
    ["inject", "TOPO", "--anomaly", "a.json", "--threshold", "0.1",
     "--out", "OUT"],
    ["delta", "TOPO", "--anomaly", "a.json", "--min-separation", "2",
     "--out", "OUT"],
    ["scenarios", "--topology", "x", "--out", "OUT"],
], ids=["simulate-seed", "validate-window", "inject-threshold",
        "delta-min-separation", "scenarios-topology"])
def test_unread_flags_are_usage_errors(two_node, tmp_path, argv):
    argv = [{"TOPO": str(two_node), "OUT": str(tmp_path / "out")}.get(a, a)
            for a in argv]
    with pytest.raises(SystemExit) as exc:
        raise SystemExit(main(argv))
    assert exc.value.code == 64


@pytest.mark.parametrize("grid", ["nan,1e5,10", "inf,1e5,10", "1e5,nan,10",
                                  "1e5,inf,10"])
def test_non_finite_grid_is_usage_error(two_node, tmp_path, capsys, grid):
    assert main(["simulate", str(two_node), f"--grid={grid}",
                 "--out", str(tmp_path / "out")]) == 64
    err = capsys.readouterr().err
    assert "bad --grid value" in err and "Traceback" not in err


@pytest.mark.parametrize("l_h_per_m,grid,f_bad", [(1e300, "1e5,1e5,800", "2.87e+07"),
                                                 (2.5e-7, "1e5,1e300,10", "1e+300")])
def test_overflowing_yz_is_numerical_failure(tmp_path, capsys, l_h_per_m, grid, f_bad):
    # R, L, G, C and the grid are finite but Y Z is not: the error names the
    # first frequency at fault (here the first with 2 pi f L above 1.8e308)
    data = json.loads(json.dumps(TWO_NODE))
    data["cables"]["fast"]["params"]["l_h_per_m"] = l_h_per_m
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(data))
    assert main(["simulate", str(path), f"--grid={grid}",
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("plnsim: numerical failure: cable 'fast': "
                                       f"Y Z overflows (at f = {f_bad} Hz)\n")


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 64


def test_unknown_flag_is_usage_error(two_node):
    with pytest.raises(SystemExit) as exc:
        main(["validate", str(two_node), "--frobnicate"])
    assert exc.value.code == 64


def test_tdr_distance_on_bundled_line(two_node, tmp_path):
    # 100 m line, v = 2e8 m/s: first reflection maps back to 100 m
    out = tmp_path / "out"
    assert main(["tdr", str(two_node), "--out", str(out),
                 "--no-timestamp"]) == 0
    rows = read_peaks(out / "peaks.csv")
    assert rows
    resolution = 2e8 * 6.25e-9 / 2
    assert abs(rows[0][1] - 100.0) <= resolution
    assert (out / "trace.csv").exists()


@pytest.mark.parametrize("velocity", ["0", "-3", "nan"])
@pytest.mark.parametrize("command", ["tdr", "locate"])
def test_bad_velocity_is_invalid(two_node, tmp_path, capsys, command, velocity):
    out = tmp_path / "out"
    argv = [command, str(two_node), f"--velocity={velocity}", "--out", str(out),
            "--no-timestamp"]
    if command == "locate":
        anomaly = tmp_path / "anomaly.json"
        anomaly.write_text(json.dumps(FAULT))
        argv += ["--anomaly", str(anomaly)]
    assert main(argv) == 1
    assert "velocity must be finite and positive" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("argv", [
    ["simulate", "TWO_NODE", "--tx-port", "nope"],
    ["ctf", "STAR3", "--tx-port", "tx", "--rx-node", "n0", "--check-symmetry"],
], ids=["simulate-unknown-tx-port", "ctf-symmetry-without-rx-port"])
def test_failing_command_writes_nothing(two_node, star3, tmp_path, capsys, argv):
    # both usage errors are found after the first spectra are computed
    out = tmp_path / "out"
    argv = [{"TWO_NODE": str(two_node), "STAR3": str(star3)}.get(a, a) for a in argv]
    assert main([*argv, "--out", str(out), "--no-timestamp"]) == 64
    assert capsys.readouterr().err.startswith("plnsim: usage error: ")
    assert not out.exists() or not any(out.iterdir())


def test_out_of_memory_is_one_message(tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.45 GiB for an array")

    monkeypatch.setattr("plnsim.cli.run_distance_sweep", exhausted)
    out = tmp_path / "sw"
    assert main(["sweep", "--n-networks", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("plnsim: out of memory: Unable to "
                                       "allocate 7.45 GiB for an array\n")
    assert not out.exists()


def test_simulate_emits_spectra(two_node, tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", str(two_node), "--out", str(out),
                 "--no-timestamp"]) == 0
    yin = read_spectrum_csv(out / "yin.csv")
    assert yin.kind == "admittance"
    assert yin.grid.n_points == 800
    rho = read_spectrum_csv(out / "rhoin.csv")
    assert rho.kind == "reflection"
    assert np.all(np.abs(rho.values) <= 1.0 + 1e-9)


def test_simulate_zero_source_reflects_fully(tmp_path):
    # a zero source admittance is the limit rho_in = I, not a singular Y_R
    data = json.loads(json.dumps(TWO_NODE))
    data["ports"]["probe"]["source"] = {"model": "constant",
                                        "params": {"y_s": [[[0.0, 0.0]]]}}
    path = tmp_path / "zero_source.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "sim"
    assert main(["simulate", str(path), "--out", str(out), "--no-timestamp"]) == 0
    assert np.all(read_spectrum_csv(out / "rhoin.csv").values == 1.0)


@pytest.mark.parametrize("field,value", [("r0_ohm_per_m", 1e300),
                                         ("l_h_per_m", 1e200)])
def test_simulate_huge_finite_cable_parameter(tmp_path, field, value):
    # Y Z is finite but near 1e300; the diagonalization residual must not
    # overflow on the way (numpy warnings are errors here)
    data = json.loads(json.dumps(TWO_NODE))
    data["cables"]["fast"]["params"][field] = value
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "sim"
    assert main(["simulate", str(path), "--out", str(out), "--no-timestamp"]) == 0
    read_spectrum_csv(out / "yin.csv")  # finite, or MatrixSpectrum raises
    rho = read_spectrum_csv(out / "rhoin.csv").values
    assert np.max(np.abs(rho + 1.0)) < 1e-9  # a nearly open line


def test_delta_zero_severity(two_node, tmp_path):
    anomaly = tmp_path / "anomaly.json"
    anomaly.write_text(json.dumps({
        "type": "lumped_fault", "branch": "b0", "offset_m": 40.0,
        "y_f": {"model": "constant", "params": {"y_s": [0.0, 0.0]}}}))
    out = tmp_path / "delta"
    assert main(["delta", str(two_node), "--anomaly", str(anomaly),
                 "--model", "superposition", "--quantity", "admittance",
                 "--out", str(out), "--no-timestamp"]) == 0
    spec = read_spectrum_csv(out / "delta_spectrum.csv",
                             ("admittance", "superposition"))
    assert np.max(np.abs(spec.values)) <= 1e-12


@pytest.mark.parametrize("quantity", ["admittance", "reflection", "ctf"])
@pytest.mark.parametrize("model", ["chain", "superposition",
                                   "superposition_normalized"])
def test_delta_warns_only_for_chain_of_reflection(star3, tmp_path, capsys,
                                                  model, quantity):
    anomaly = tmp_path / "anomaly.json"
    anomaly.write_text(json.dumps(FAULT))
    ends = (["--tx-port", "tx", "--rx-node", "n0"] if quantity == "ctf"
            else ["--port", "probe"])
    out = tmp_path / "delta"
    assert main(["delta", str(star3), "--anomaly", str(anomaly), "--model", model,
                 "--quantity", quantity, *ends, "--out", str(out),
                 "--no-timestamp"]) == 0
    warned = capsys.readouterr().err.startswith("warning: chain deltas")
    assert warned == (model == "chain" and quantity == "reflection")
    read_spectrum_csv(out / "delta_spectrum.csv", (quantity, model))
    header = (out / "delta_trace.csv").read_text().splitlines()[:3]
    assert header == ["# kind=trace", f"# model={model}", f"# quantity={quantity}"]


def test_inject_roundtrip(two_node, tmp_path):
    anomaly = tmp_path / "anomaly.json"
    anomaly.write_text(json.dumps({
        "type": "distributed_fault", "branch": "b0", "start_m": 20.0,
        "extent_m": 30.0,
        "degraded": {"model": "powerline",
                     "params": {"l_h_per_m": 2.5e-7, "c_f_per_m": 1.3e-10},
                     "label": "aged"}}))
    out = tmp_path / "inj"
    assert main(["inject", str(two_node), "--anomaly", str(anomaly),
                 "--out", str(out)]) == 0
    perturbed = read_topology(out / "perturbed_topology.json")
    assert len(perturbed.branches) == 3
    # emitted file is re-ingestible and re-serializes identically
    round2 = tmp_path / "round2.json"
    write_topology(perturbed, round2)
    assert topology_to_dict(read_topology(round2)) == topology_to_dict(perturbed)


def test_locate_reports_distance(two_node, tmp_path, capsys):
    anomaly = tmp_path / "anomaly.json"
    anomaly.write_text(json.dumps({
        "type": "lumped_fault", "branch": "b0", "offset_m": 60.0,
        "y_f": {"model": "constant", "params": {"y_s": [0.05, 0.0]}}}))
    out = tmp_path / "loc"
    assert main(["locate", str(two_node), "--anomaly", str(anomaly),
                 "--out", str(out), "--no-timestamp"]) == 0
    payload = json.loads((out / "locate.json").read_text())
    assert payload["found"]
    assert abs(payload["distance_m"] - 60.0) <= 2e8 * 6.25e-9 / 2


def test_ctf_symmetry_check(star3, tmp_path):
    out = tmp_path / "ctf"
    assert main(["ctf", str(star3), "--tx-port", "tx", "--rx-port", "probe",
                 "--check-symmetry", "--out", str(out),
                 "--no-timestamp"]) == 0
    rep = json.loads((out / "symmetry.json").read_text())
    assert rep["symmetric"] is True
    assert (out / "htot_trace_reverse.csv").exists()


def test_scenarios_pass(tmp_path, capsys):
    out = tmp_path / "scen"
    assert main(["scenarios", "--out", str(out), "--no-timestamp"]) == 0
    rep = json.loads((out / "scenarios.json").read_text())
    assert all(s["passed"] for s in rep["scenarios"])


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_sweep_small_run(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--n-networks", "6", "--seed", "3",
                 "--grid", "1e5,4e5,100", "--bins", "3",
                 "--out", str(out), "--no-timestamp"]) == 0
    records = (out / "records.csv").read_text().splitlines()
    assert len([l for l in records if not l.startswith("#")
                and not l.startswith("network_index")]) == 6
    # the middle of the 3 link-position bins stays empty: its mean is null
    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=_reject_constant)
    assert summary["h_bin_means"][1] is None
    printed = capsys.readouterr().out.strip().split("summary: ", 1)[1]
    assert json.loads(printed, parse_constant=_reject_constant) == summary


def test_write_json_nonfinite_as_null(tmp_path):
    path = tmp_path / "x.json"
    write_json(path, {"err": float("inf"), "means": (1.5, float("nan"))},
               timestamp=False)
    assert json.loads(path.read_text(), parse_constant=_reject_constant) == {
        "err": None, "means": [1.5, None]}


def test_byte_identical_reruns(two_node, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["tdr", str(two_node), "--out", str(out),
                     "--no-timestamp"]) == 0
        assert main(["sweep", "--n-networks", "4", "--seed", "11",
                     "--grid", "1e5,4e5,80", "--bins", "2",
                     "--out", str(out / "sw"), "--no-timestamp"]) == 0
        outs.append(out)
    for rel in ("trace.csv", "peaks.csv", "sw/records.csv", "sw/bins.csv",
                "sw/summary.json"):
        a = (outs[0] / rel).read_bytes()
        b = (outs[1] / rel).read_bytes()
        assert a == b, rel


def test_timestamp_header_present_by_default(two_node, tmp_path):
    out = tmp_path / "ts"
    assert main(["tdr", str(two_node), "--out", str(out)]) == 0
    assert main(["sweep", "--n-networks", "2", "--grid", "1e5,4e5,80",
                 "--bins", "2", "--out", str(out / "sw")]) == 0
    for rel in ("trace.csv", "sw/records.csv", "sw/bins.csv"):
        head = (out / rel).read_text().splitlines()[:3]
        assert any(line.startswith("# written=") for line in head), rel


def test_custom_cable_library_env(tmp_path, monkeypatch):
    lib = tmp_path / "cables.json"
    lib.write_text(json.dumps({
        "mycable": {"model": "powerline",
                    "params": {"r0_ohm_per_m": 0.15}, "label": "mycable"}}))
    monkeypatch.setenv("PLNSIM_CABLE_LIBRARY", str(lib))
    out = tmp_path / "sweeplib"
    assert main(["sweep", "--n-networks", "3", "--seed", "2",
                 "--cables", "mycable", "--grid", "1e5,4e5,80",
                 "--bins", "2", "--out", str(out), "--no-timestamp"]) == 0
    with pytest.raises(SystemExit) as exc:
        # typo in the cable name is a usage error against that library
        raise SystemExit(main(["sweep", "--cables", "nothere",
                               "--grid", "1e5,4e5,80", "--out", str(out)]))
    assert exc.value.code == 64


def test_cables_sharing_a_label_stay_distinct():
    # two distinct cables with one label are written as "pl" and "pl~2"
    net = NetworkTopology(
        nodes=("a", "j", "b"),
        branches=(Branch("b0", "a", "j", powerline_cable(label="pl"), 50.0),
                  Branch("b1", "j", "b",
                         powerline_cable(c_f_per_m=1.3e-10, label="pl"), 70.0)),
        loads={"b": open_circuit()},
        ports={"p": Port("a", constant_admittance(0.02))})
    data = topology_to_dict(net)
    assert sorted(data["cables"]) == ["pl", "pl~2"]
    assert [b["cable"] for b in data["branches"]] == ["pl", "pl~2"]
    back = topology_from_dict(json.loads(json.dumps(data)))
    f = np.array([1e6])
    c_farad = [b.cable.rlgc(f)[3][0, 0, 0] for b in back.branches]
    assert c_farad == [1e-10, 1.3e-10]
    assert topology_to_dict(back) == data


Y2 = np.array([[0.02 + 1e-3j, -5e-3], [-5e-3, 0.03 - 2e-3j]])


@pytest.mark.parametrize("cable,load", [
    (powerline_cable(2, coupling=0.2), constant_admittance(Y2, 2)),
    (powerline_cable(), parallel_rc_admittance(50.0, 1e-9)),
    (powerline_cable(2), open_circuit(2)),
    (powerline_cable(2), table_admittance([1e5, 1e6, 1e7], [Y2, 2 * Y2, 3 * Y2], 2)),
    (constant_rlgc_cable(0.1, 5e-7, 1e-6, 1e-10), constant_admittance(0.02)),
], ids=["constant-2x2", "parallel_rc", "open", "table-2x2", "constant_rlgc-scalars"])
def test_every_model_round_trips_byte_identical(cable, load):
    # the bundled topologies cover powerline cables and constant loads
    text = json.dumps(topology_to_dict(single_line_net(cable, 50.0, load)), sort_keys=True)
    back = topology_to_dict(topology_from_dict(json.loads(text)))
    assert json.dumps(back, sort_keys=True) == text


def test_models_hold_read_only_copies_of_their_arguments():
    y, f_hz = Y2.copy(), np.array([1e5, 1e6])
    y_t = np.stack([Y2, 2 * Y2])
    rlgc = [a * np.eye(2) for a in (0.1, 5e-7, 1e-6, 1e-10)]
    load, source = constant_admittance(y, 2), table_admittance(f_hz, y_t, 2)
    cable = constant_rlgc_cable(*rlgc)
    net = NetworkTopology(("a", "b"), (Branch("s", "a", "b", cable, 50.0),),
                          {"b": load}, {"p": Port("a", source)})
    f = np.array([3e5, 7e5])

    def state():
        return [load.evaluate(f), source.evaluate(f), *cable.rlgc(f),
                json.dumps(topology_to_dict(net), sort_keys=True)]

    before = state()
    for a in (y, f_hz, y_t, *rlgc):
        a *= 3
    for got, want in zip(state(), before):
        np.testing.assert_array_equal(got, want)
    for spec in (load, source, cable):
        for value in spec.meta[1].values():
            with pytest.raises(ValueError, match="read-only"):
                value[0] = 0


def test_bundled_topologies_are_valid():
    for name in ("two_node.json", "single_line_200m.json", "star3.json"):
        net = read_topology(str(BUNDLED / name))
        assert topology_to_dict(net)  # serializable both ways


IMPORT_GUARD = """
import json, sys
import plnsim.cli
data, out, fault = sys.argv[1:]
codes = [
    plnsim.cli.main(["tdr", f"{data}/single_line_200m.json", "--quantity",
                     "admittance", "--out", f"{out}/tdr-y", "--no-timestamp"]),
    plnsim.cli.main(["tdr", f"{data}/star3.json", "--port", "probe",
                     "--quantity", "reflection", "--out", f"{out}/tdr-rho",
                     "--no-timestamp"]),
    plnsim.cli.main(["locate", f"{data}/single_line_200m.json", "--anomaly",
                     fault, "--out", f"{out}/locate", "--no-timestamp"]),
]
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
scipy = loaded()

from plnsim.cables import powerline_cable
from plnsim.mtl import FrequencyGrid, line_propagation_params
p = line_propagation_params(powerline_cable(n_conductors=3),
                            FrequencyGrid(1e5, 1e5, 20))
print(json.dumps({"codes": codes, "scipy": scipy, "l3_scipy": loaded(),
                  "l3_gamma_shape": list(p.gamma.shape)}))
"""


def test_one_shot_path_imports_no_scipy(tmp_path):
    # a fresh interpreter: scipy must stay unloaded through tdr and locate on
    # the bundled single-conductor topologies, and through the decomposition
    # of a coupled cable
    fault = tmp_path / "fault.json"
    fault.write_text(json.dumps({**FAULT, "offset_m": 120.0}))
    src = str(Path(plnsim.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(BUNDLED), str(tmp_path), str(fault)],
        env=env, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 0], "scipy": [], "l3_scipy": [],
                      "l3_gamma_shape": [20, 3]}


@pytest.mark.parametrize("section,name,model,field", [
    ("cables", "fast", {"model": "powerline", "params": {"f_ref_hz": 0.0}}, "f_ref_hz"),
    ("cables", "fast", {"model": "powerline", "params": {"f_ref_hz": -1e6}}, "f_ref_hz"),
    ("loads", "n1", {"model": "parallel_rc", "params": {"r_ohm": -5, "c_farad": 1e-9}},
     "r_ohm"),
    ("cables", "fast", {"model": "powerline", "params": {"r0_ohm_per_meter": 5.0}},
     "unknown parameter 'r0_ohm_per_meter'"),
    ("cables", "fast", {"model": "powerline", "params": {"n_conductors": 1.7}},
     "n_conductors"),
    ("cables", "fast", {"model": "powerline", "params": {"l_h_per_m": 0}}, "l_h_per_m"),
    ("cables", "fast", {"model": "powerline", "params": {"r0_ohm_per_m": -1}},
     "r0_ohm_per_m"),
    ("cables", "fast", {"model": "powerline", "params": {"c_f_per_m": "1e400"}},
     "c_f_per_m"),
    ("cables", "fast", {"model": "powerline", "params": {"g_factor": -1e-4}}, "g_factor"),
    ("loads", "n1", {"model": "constant", "params": {"y_s": [[["1e400", 0]]]}}, "y_s"),
    ("loads", "n1", {"model": "parallel_rc", "params": {"r_ohm": 50, "c_farad": "1e400"}},
     "c_farad"),
    ("loads", "n1", {"model": "parallel_rc", "params": {"r_ohm": "1e400", "c_farad": 0}},
     "r_ohm"),
    ("loads", "n1", {"model": "table", "params": {"f_hz": [1e5, 1e6],
                                                  "y_s": [[0.01, 0], ["1e400", 0]]}},
     "y_s"),
    ("cables", "fast", {"model": "constant_rlgc",
                        "params": {"r": 0.1, "l": 0.0, "g": 0.0, "c": 1e-10}},
     "L diagonal must be strictly positive"),
    ("cables", "fast", {"model": "constant_rlgc",
                        "params": {"r": [[0.1, 0.0], [0.05, 0.1]], "l": [[5e-7, 0], [0, 5e-7]],
                                   "g": [[0, 0], [0, 0]], "c": [[1e-10, 0], [0, 1e-10]]}},
     "R matrix is not symmetric"),
    ("loads", "n1", {"model": "parallel_rc",
                     "params": {"r_ohm": 50, "c_farad": 0, "l_henry": 1e-6}},
     "unknown parameter 'l_henry'"),
    ("loads", "n1", {"model": "parallel_rc", "params": {"r_ohm": 50}},
     "missing parameter 'c_farad'"),
    ("loads", "n1", {"model": "table", "params": {"f_hz": [1e5, 1e6],
                                                  "y_s": [0.01, [[[0.02, 0]]]]}},
     "y_s must be a regular array"),
    ("cables", "fast", {"model": "constant_rlgc",
                        "params": {"r": [[0.1, 0], [0.1]], "l": 5e-7, "g": 0, "c": 1e-10}},
     "r must be a regular array"),
], ids=["zero", "negative", "load-resistance", "misspelled", "fractional-conductors",
        "zero-inductance", "negative-resistance", "infinite-capacitance",
        "negative-g-factor", "infinite-constant", "infinite-rc-capacitance",
        "infinite-rc-resistance", "infinite-table", "constant-rlgc-zero-inductance",
        "constant-rlgc-asymmetric", "admittance-unknown", "admittance-missing",
        "table-mixed-entries", "constant-rlgc-ragged"])
def test_bad_reference_frequency_is_rejected(tmp_path, recwarn, capsys, section,
                                             name, model, field):
    # R(f) = r0 sqrt(f / f_ref) needs f_ref > 0; the cable is rejected when it
    # is read, before any numpy warning.  A value the model's constructor
    # rejects, or a key it does not take, is reported with the file, field
    # and model it came from.  The string "1e400" stands for that JSON
    # literal, which Python's parser reads as inf without any NaN/Infinity
    # token.
    data = json.loads(json.dumps(TWO_NODE))
    data[section][name] = model
    path = tmp_path / "bad_param.json"
    path.write_text(json.dumps(data).replace('"1e400"', "1e400"))
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"plnsim: {path}.{section}[{name!r}]: model {model['model']!r} ")
    assert field in err
    assert not recwarn.list


@pytest.mark.parametrize("base", [
    powerline_cable(2, coupling=0.2, label="pl-2c"),
    constant_rlgc_cable(0.1 * np.eye(2), [[5e-7, 1e-7], [1e-7, 5e-7]],
                        1e-6 * np.eye(2), [[1e-10, -2e-11], [-2e-11, 1e-10]],
                        label="rlgc-2c"),
], ids=["powerline", "constant_rlgc"])
def test_scaled_cable_round_trips(base):
    scales = (2.0, 1.1, 3.0, 1.3)
    aged = scaled_cable(base, *scales, label="aged")
    net = single_line_net(aged, 50.0, open_circuit(2))
    back = topology_from_dict(json.loads(json.dumps(topology_to_dict(net))))
    assert back.branches[0].cable.label == "aged"
    f = np.linspace(1e5, 8e7, 7)
    for got, want, orig, scale in zip(back.branches[0].cable.rlgc(f), aged.rlgc(f),
                                      base.rlgc(f), scales):
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(got, scale * orig, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("base,scales", [
    (powerline_cable(), {"l_scale": 0.0}),
    (powerline_cable(), {"c_scale": -1.0}),
    (powerline_cable(), {"r_scale": float("nan")}),
    (replace(powerline_cable(), meta=None), {}),
], ids=["zero-l", "negative-c", "nan-r", "no-parametric-form"])
def test_scaled_cable_rejects(base, scales):
    with pytest.raises(ValidationError):
        scaled_cable(base, **scales)
