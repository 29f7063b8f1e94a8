"""Command-line behavior: subcommands, file formats, exit codes and
reproducibility."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import plnsim
from plnsim.cli import main
from plnsim.topofile import (read_spectrum_csv, read_topology, write_json,
                             write_topology, topology_to_dict)

BUNDLED = resources.files("plnsim") / "data"
TWO_NODE = json.loads((BUNDLED / "two_node.json").read_text())
FAULT = {"type": "lumped_fault", "branch": "b0", "offset_m": 40.0,
         "y_f": {"model": "constant", "params": {"y_s": [0.05, 0.0]}}}


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
], ids=["cables-list", "loads-list", "top-level-number", "length-text",
        "offset-text", "params-list", "cable-param-text", "cable-params-list"])
def test_malformed_file_is_parse_error(tmp_path, two_node, monkeypatch, capsys,
                                       role, content):
    bad = tmp_path / f"bad_{role}.json"
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


@pytest.mark.parametrize("flags", [
    ["--bins", "0"],
    ["--n-nodes-min", "1"],
    ["--severity-min", "-1", "--severity-max", "-0.5"],
    ["--n-networks", "0"],
    ["--n-networks", "-3"],
], ids=["no-bins", "one-node", "negative-severity", "no-networks",
        "negative-networks"])
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


def test_delta_zero_severity(two_node, tmp_path):
    anomaly = tmp_path / "anomaly.json"
    anomaly.write_text(json.dumps({
        "type": "lumped_fault", "branch": "b0", "offset_m": 40.0,
        "y_f": {"model": "constant", "params": {"y_s": [0.0, 0.0]}}}))
    out = tmp_path / "delta"
    assert main(["delta", str(two_node), "--anomaly", str(anomaly),
                 "--model", "superposition", "--quantity", "admittance",
                 "--out", str(out), "--no-timestamp"]) == 0
    spec = read_spectrum_csv(out / "delta_spectrum.csv")
    assert np.max(np.abs(spec.values)) <= 1e-12


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
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

from plnsim.cables import powerline_cable
from plnsim.mtl import FrequencyGrid, line_propagation_params
p = line_propagation_params(powerline_cable(n_conductors=3),
                            FrequencyGrid(1e5, 1e5, 20))
print(json.dumps({"codes": codes, "scipy": scipy,
                  "l3_gamma_shape": list(p.gamma.shape)}))
"""


def test_one_shot_path_imports_no_scipy(tmp_path):
    # a fresh interpreter: scipy must stay unloaded through tdr and locate on
    # the bundled single-conductor topologies, and load for a coupled cable
    fault = tmp_path / "fault.json"
    fault.write_text(json.dumps({**FAULT, "offset_m": 120.0}))
    src = str(Path(plnsim.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(BUNDLED), str(tmp_path), str(fault)],
        env=env, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 0], "scipy": [], "l3_gamma_shape": [20, 3]}
