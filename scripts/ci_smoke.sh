#!/usr/bin/env bash
# End-to-end smoke test of the plnsim command line, run by CI after scipy is
# uninstalled (the runtime needs numpy alone).  Run it from anywhere:
#
#     bash scripts/ci_smoke.sh
#
# Every case exits the script non-zero on failure; the outputs go to fresh
# temporary directories.
set -eo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
# a divide or invalid warning precedes a silent inf or NaN
export PYTHONWARNINGS=error::RuntimeWarning
tmp=$(mktemp -d)
python -m plnsim.cli scenarios --out "$tmp/scenarios" --no-timestamp
python -m plnsim.cli sweep --n-networks 4 --grid 1e5,4e5,80 --bins 2 --out "$tmp/sweep" --no-timestamp
# a seeded sweep on the default (L = 1) library writes the same bytes
# in a fresh process
python -m plnsim.cli sweep --n-networks 4 --grid 1e5,4e5,80 --bins 2 --out "$tmp/sweep-again" --no-timestamp
diff -r "$tmp/sweep" "$tmp/sweep-again"
# the default sweep (c12: 200 networks, seed 0), whose reductions
# share carry-backs across ports, writes the same bytes twice too
python -m plnsim.cli sweep --out "$tmp/sweep-c12" --no-timestamp
python -m plnsim.cli sweep --out "$tmp/sweep-c12-again" --no-timestamp
diff -r "$tmp/sweep-c12" "$tmp/sweep-c12-again"
# 6 networks in 3 bins leave the middle bin empty (its mean is null)
python -m plnsim.cli sweep --n-networks 6 --seed 3 --grid 1e5,4e5,100 --bins 3 --out "$tmp/sweep-empty-bin" --no-timestamp
# a one-cable library of 3-conductor cables runs the coupled (L = 3) path
echo '{"pl3": {"model": "powerline", "label": "pl3", "params": {"n_conductors": 3}}}' > "$tmp/pl3.json"
PLNSIM_CABLE_LIBRARY="$tmp/pl3.json" python -m plnsim.cli sweep --cables pl3 --n-networks 3 --grid 1e5,4e5,100 --bins 2 --out "$tmp/sweep-pl3" --no-timestamp
# pl3's matrices commute; a flat formation (the FLAT_3C cable of
# tests/test_network.py) has distinct modes and pivots that swap rows
echo '{"flat3": {"model": "constant_rlgc", "label": "flat3", "params": {
       "r": [[0.08, 0, 0], [0, 0.1, 0], [0, 0, 0.13]],
       "l": [[5e-7, 2e-7, 7.5e-8], [2e-7, 5e-7, 2e-7], [7.5e-8, 2e-7, 5e-7]],
       "g": [[1e-6, 0, 0], [0, 1e-6, 0], [0, 0, 1e-6]],
       "c": [[1e-10, -3e-11, -5e-12], [-3e-11, 1e-10, -3e-11], [-5e-12, -3e-11, 1e-10]]}}}' > "$tmp/flat3.json"
PLNSIM_CABLE_LIBRARY="$tmp/flat3.json" python -m plnsim.cli sweep --cables flat3 --n-networks 3 --grid 1e5,4e5,100 --bins 2 --out "$tmp/sweep-flat3" --no-timestamp
# a seeded sweep writes the same bytes in a fresh process
PLNSIM_CABLE_LIBRARY="$tmp/flat3.json" python -m plnsim.cli sweep --cables flat3 --n-networks 3 --grid 1e5,4e5,100 --bins 2 --out "$tmp/sweep-flat3-again" --no-timestamp
diff -r "$tmp/sweep-flat3" "$tmp/sweep-flat3-again"
# L = 4, the largest conductor count the tests cover, pivots and
# eliminates over more rows; its seeded sweep also writes the same
# bytes in a fresh process
echo '{"pl4": {"model": "powerline", "label": "pl4", "params": {"n_conductors": 4}}}' > "$tmp/pl4.json"
PLNSIM_CABLE_LIBRARY="$tmp/pl4.json" python -m plnsim.cli sweep --cables pl4 --n-networks 3 --grid 1e5,4e5,100 --bins 2 --out "$tmp/sweep-pl4" --no-timestamp
PLNSIM_CABLE_LIBRARY="$tmp/pl4.json" python -m plnsim.cli sweep --cables pl4 --n-networks 3 --grid 1e5,4e5,100 --bins 2 --out "$tmp/sweep-pl4-again" --no-timestamp
diff -r "$tmp/sweep-pl4" "$tmp/sweep-pl4-again"
python scripts/backbone_vs_lateral.py --n-networks 2
# the subcommands that pick peaks, on every bundled topology
echo '{"type": "lumped_fault", "branch": "b0", "offset_m": 50.0,
       "y_f": {"model": "constant", "params": {"y_s": [0.05, 0.0]}}}' > "$tmp/fault.json"
for topo in src/plnsim/data/*.json; do
  name=$(basename "$topo" .json)
  python -m plnsim.cli tdr "$topo" --port probe --out "$tmp/tdr-$name" --no-timestamp
  python -m plnsim.cli locate "$topo" --port probe --anomaly "$tmp/fault.json" --out "$tmp/locate-$name" --no-timestamp
done
# a fault near the largest finite float passes the passivity check
# without an overflow warning
echo '{"type": "lumped_fault", "branch": "b0", "offset_m": 50.0,
       "y_f": {"model": "constant", "params": {"y_s": [1.7e308, 0.0]}}}' > "$tmp/huge-fault.json"
python -m plnsim.cli locate src/plnsim/data/two_node.json --port probe --anomaly "$tmp/huge-fault.json" --out "$tmp/locate-huge" --no-timestamp
# star3 is the bundled topology with a second (transmit) port
python -m plnsim.cli ctf src/plnsim/data/star3.json --tx-port tx --rx-port probe --check-symmetry --out "$tmp/ctf-star3" --no-timestamp
# anomaly deltas on star3 under every model and quantity: each writes
# a "kind=delta" spectrum, and only a chain of reflections warns
for model in chain superposition superposition_normalized; do
  for quantity in admittance reflection ctf; do
    if [ "$quantity" = ctf ]; then ends="--tx-port tx --rx-node n0"; else ends="--port probe"; fi
    out="$tmp/delta-$model-$quantity"
    python -m plnsim.cli delta src/plnsim/data/star3.json --anomaly "$tmp/fault.json" --model "$model" --quantity "$quantity" $ends --out "$out" --no-timestamp 2> "$tmp/delta.stderr"
    if [ "$(head -n 1 "$out/delta_spectrum.csv")" != "# kind=delta" ]; then
      echo "expected a kind=delta header from $model $quantity"
      exit 1
    fi
    warned=no; grep -q '^warning: ' "$tmp/delta.stderr" && warned=yes
    want=no; [ "$model-$quantity" = chain-reflection ] && want=yes
    if [ "$warned" != "$want" ]; then
      cat "$tmp/delta.stderr"
      echo "expected warning: $want from $model $quantity, got $warned"
      exit 1
    fi
  done
done
# a delta writes the same bytes in a fresh process
python -m plnsim.cli delta src/plnsim/data/star3.json --anomaly "$tmp/fault.json" --model chain --quantity reflection --port probe --out "$tmp/delta-again" --no-timestamp 2> /dev/null
diff -r "$tmp/delta-chain-reflection" "$tmp/delta-again"
# bad inputs exit 1 with a "plnsim:" message; a traceback also exits 1,
# so the message and the absence of a traceback are checked too
bad=$(mktemp -d)
fails() {
  code=0
  "$@" > /dev/null 2> "$bad/stderr" || code=$?
  if [ "$code" != 1 ] || ! grep -q '^plnsim: ' "$bad/stderr" || grep -q Traceback "$bad/stderr"; then
    cat "$bad/stderr"
    echo "expected exit 1 with a plnsim: message, got exit $code: $*"
    exit 1
  fi
}
echo '{"type": "distributed_fault", "branch": "b0", "start_m": NaN, "extent_m": 30.0,
       "degraded": {"model": "powerline", "label": "aged", "params": {"c_f_per_m": 1.3e-10}}}' > "$bad/nan-fault.json"
fails python -m plnsim.cli inject src/plnsim/data/two_node.json --anomaly "$bad/nan-fault.json" --out "$bad/inject"
fails python -m plnsim.cli sweep --cables pl-std,pl-2c --n-networks 6 --out "$bad/sweep-mixed"
fails python -m plnsim.cli sweep --seed -1 --n-networks 2 --out "$bad/sweep-seed"
fails python -m plnsim.cli sweep --severity-max inf --n-networks 2 --out "$bad/sweep-severity"
# a boolean is a JSON boolean: "false" would make this fault active
# and skip the passivity check that rejects its negative conductance
echo '{"type": "lumped_fault", "branch": "b0", "offset_m": 50.0, "active": "false",
       "y_f": {"model": "constant", "params": {"y_s": [-0.05, 0.0]}}}' > "$bad/active-text.json"
fails python -m plnsim.cli locate src/plnsim/data/two_node.json --port probe --anomaly "$bad/active-text.json" --out "$bad/locate"
# a directory is no topology, and an existing file no --out directory
fails python -m plnsim.cli simulate src/plnsim/data --out "$bad/simulate"
touch "$bad/file"
fails python -m plnsim.cli simulate src/plnsim/data/two_node.json --out "$bad/file"
# running out of memory is one plnsim: line too (1e9 bins need 7.45 GiB)
(ulimit -v 1500000; export OPENBLAS_NUM_THREADS=1
 fails python -m plnsim.cli sweep --n-networks 3 --bins 1000000000 --grid 1e5,1e5,20 --out "$bad/sweep-oom")
# a usage error found after the first spectra are computed writes no file
code=0
python -m plnsim.cli simulate src/plnsim/data/two_node.json --tx-port nope --out "$bad/simulate-tx" > /dev/null 2> "$bad/stderr" || code=$?
if [ "$code" != 64 ] || [ -n "$(ls -A "$bad/simulate-tx" 2> /dev/null)" ]; then
  cat "$bad/stderr"
  echo "expected exit 64 and no output, got exit $code"
  exit 1
fi
# finite cable parameters whose product Y Z overflows are a numerical
# failure (exit 2) that names the frequency
sed 's/"l_h_per_m": 2.5e-07/"l_h_per_m": 1e300/' src/plnsim/data/two_node.json > "$bad/l-huge.json"
code=0
python -m plnsim.cli simulate "$bad/l-huge.json" --out "$bad/simulate" > /dev/null 2> "$bad/stderr" || code=$?
if [ "$code" != 2 ] || ! grep -q '^plnsim: .*Y Z overflows' "$bad/stderr" || grep -q Traceback "$bad/stderr"; then
  cat "$bad/stderr"
  echo "expected exit 2 with a plnsim: message, got exit $code"
  exit 1
fi
# finite cable parameters whose Y Z comes near 1e300 without
# overflowing simulate to finite spectra (a nearly open line)
for change in r0_ohm_per_m=1e300 l_h_per_m=1e200; do
  out="$tmp/simulate-${change%=*}"
  python -c 'import json, sys; d = json.load(open(sys.argv[1])); k, v = sys.argv[2].split("="); d["cables"]["fast"]["params"][k] = float(v); json.dump(d, open(sys.argv[3], "w"))' src/plnsim/data/two_node.json "$change" "$tmp/huge.json"
  python -m plnsim.cli simulate "$tmp/huge.json" --out "$out" --no-timestamp
  if [ ! -s "$out/yin.csv" ] || [ ! -s "$out/rhoin.csv" ] || grep -qiE 'nan|inf' "$out/yin.csv" "$out/rhoin.csv"; then
    echo "expected finite spectra from $change"
    exit 1
  fi
done
# a near-short receiver (1e300 S) gives a transfer near 1e-302: both
# spectra and the transfer stay finite, with no overflow on the way
python -c 'import json, sys; d = json.load(open(sys.argv[1])); d["loads"]["n1"]["params"]["y_s"] = [[[1e300, 0.0]]]; json.dump(d, open(sys.argv[2], "w"))' src/plnsim/data/two_node.json "$tmp/near-short.json"
python -m plnsim.cli simulate "$tmp/near-short.json" --out "$tmp/simulate-near-short" --no-timestamp
python -m plnsim.cli ctf "$tmp/near-short.json" --tx-port probe --rx-node n1 --out "$tmp/ctf-near-short" --no-timestamp
if grep -qiE 'nan|inf' "$tmp/simulate-near-short"/*.csv "$tmp/ctf-near-short"/*.csv; then
  echo "expected finite spectra and transfer from a near-short load"
  exit 1
fi
# a value the cable model rejects names the file and the field
sed 's/"f_ref_hz": 1000000.0/"f_ref_hz": 0/' src/plnsim/data/two_node.json > "$bad/f-ref-zero.json"
fails python -m plnsim.cli simulate "$bad/f-ref-zero.json" --out "$bad/simulate"
if ! grep -qF "$bad/f-ref-zero.json.cables['fast']" "$bad/stderr"; then
  cat "$bad/stderr"
  echo "expected the file and cables['fast'] in the message"
  exit 1
fi
# a misspelled model parameter is an error, not a silent default
sed 's/"r0_ohm_per_m"/"r0_ohm_per_meter"/' src/plnsim/data/two_node.json > "$bad/misspelled.json"
fails python -m plnsim.cli simulate "$bad/misspelled.json" --out "$bad/simulate"
# every cable parameter is checked when the cable is read
sed 's/"l_h_per_m": 2.5e-07/"l_h_per_m": 0/' src/plnsim/data/two_node.json > "$bad/l-zero.json"
fails python -m plnsim.cli simulate "$bad/l-zero.json" --out "$bad/simulate"
if ! grep -qF "$bad/l-zero.json.cables['fast']" "$bad/stderr"; then
  cat "$bad/stderr"
  echo "expected the file and cables['fast'] in the message"
  exit 1
fi
# constant_rlgc cables are checked when they are read, with the file and field
python -c 'import json, sys; d = json.load(open(sys.argv[1])); d["cables"]["fast"] = {"model": "constant_rlgc", "params": {"r": 0.1, "l": 0.0, "g": 0.0, "c": 1e-10}}; json.dump(d, open(sys.argv[2], "w"))' src/plnsim/data/two_node.json "$bad/rlgc-l-zero.json"
fails python -m plnsim.cli simulate "$bad/rlgc-l-zero.json" --out "$bad/simulate"
if ! grep -qF "$bad/rlgc-l-zero.json.cables['fast']" "$bad/stderr"; then
  cat "$bad/stderr"
  echo "expected the file and cables['fast'] in the message"
  exit 1
fi
# json reads the literal 1e400 as inf; an infinitely long branch is invalid
sed 's/"length_m": 100.0/"length_m": 1e400/' src/plnsim/data/two_node.json > "$bad/length-inf.json"
fails python -m plnsim.cli simulate "$bad/length-inf.json" --out "$bad/simulate"
# a zero source admittance reflects fully (rho_in = I) and is no error
sed 's/0.02,/0.0,/' src/plnsim/data/two_node.json > "$tmp/zero-source.json"
python -m plnsim.cli simulate "$tmp/zero-source.json" --out "$tmp/simulate-zero-source" --no-timestamp
python - "$tmp" <<'EOF'
import json, pathlib, sys
def reject(name):
    raise ValueError(f"non-standard JSON constant {name}")
paths = sorted(pathlib.Path(sys.argv[1]).rglob("*.json"))
assert paths, "no JSON written"
for path in paths:
    json.loads(path.read_text(), parse_constant=reject)
print(f"{len(paths)} JSON files parse strictly")
EOF
