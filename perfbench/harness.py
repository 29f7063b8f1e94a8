"""Shared pieces of the benchmark: paths, child-process environment, the
environment record, memory, import timing and the reference comparison."""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]   # checkout root
BENCH = ROOT / "perfbench"
DATA = BENCH / "data"
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"                 # scratch outputs, git-ignored

# one caller, no worker threads: BLAS runs single-threaded in the benchmark
# process and in every child it starts
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# outputs agree with the recorded reference within this relative tolerance
RTOL = 1e-9


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    # children keep bytecode caches, as an installed package does; without
    # them every fresh interpreter would compile plnsim again
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def configure_process() -> None:
    """Pin BLAS threads (before numpy loads) and make ``src`` importable."""
    os.environ.update(THREAD_ENV)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so the calibration
    probe measures the core the timed work runs on.  Only one of them runs
    at a time: the benchmark waits while a child works."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def whole_passes(passes, seconds: float, at_least: int = 2):
    """Yield passes from ``passes`` while the next one is expected to end
    within ``seconds`` of the first, judged by the mean pass time so far;
    always at least ``at_least``, so a slow spell still leaves a median."""
    t0, done = time.perf_counter(), 0
    for p in passes:
        yield p
        done += 1
        elapsed = time.perf_counter() - t0
        if done >= at_least and elapsed + elapsed / done > seconds:
            return


def traced_order(i: int) -> tuple[bool, bool]:
    """Whether the first and the second run of the ``i``-th unit of a traced
    run are traced.  Each unit runs untraced and traced, and which goes first
    alternates, so warm caches and drift in machine speed affect both sides
    of the overhead ratio alike."""
    return (False, True) if i % 2 == 0 else (True, False)


def median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# set-up and memory

def fresh_import(module: str) -> None:
    """Import ``module`` in a fresh interpreter, as every user run does."""
    subprocess.run([sys.executable, "-c", f"import {module}"], env=child_env(),
                   cwd=ROOT, check=True)


def importtime(stderr: str, names=("plnsim", "scipy")) -> dict[str, float]:
    """Seconds spent importing each package (with its subpackages and what
    they pull in), from ``-X importtime`` lines
    ``import time: self [us] | cumulative | <indent>module``.  Lines come in
    post-order, so reading them backwards visits parents before children;
    only the outermost entry of each package is counted."""
    entries = []
    for line in stderr.splitlines():
        parts = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1]) * 1e-6
        except ValueError:  # the header line
            continue
        field = parts[2].rstrip()
        entries.append((len(field) - len(field.lstrip()), field.strip(), cumulative))

    def package(module: str):
        return next((n for n in names if module == n or module.startswith(n + ".")), None)

    out = {n: 0.0 for n in names}
    stack: list[tuple[int, set]] = []   # (depth, packages open above)
    for depth, module, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        above = stack[-1][1] if stack else set()
        pkg = package(module)
        if pkg is not None and pkg not in above:
            out[pkg] += cumulative
        stack.append((depth, above | {pkg} if pkg else above))
    return out


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # Linux reports KiB


# ---------------------------------------------------------------------------
# environment record

def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "plnsim").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(SRC)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------
# references

def load_reference(name: str) -> dict:
    return json.loads(gzip.decompress((DATA / f"ref-{name}.json.gz").read_bytes()))


def save_reference(name: str, payload: dict) -> Path:
    path = DATA / f"ref-{name}.json.gz"
    raw = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(gzip.compress(raw, mtime=0))
    return path


def _num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def close(a: float, b: float, scale: float = 0.0) -> bool:
    """|a - b| <= RTOL * max(|a|, |b|, scale); NaN equals NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= RTOL * max(abs(a), abs(b), scale)


def diff_json(ref, out, where: str = "") -> list[str]:
    """Differences between two JSON values: numbers within RTOL, everything
    else (booleans, strings, lengths, keys) exactly."""
    if _num(ref) and _num(out):
        return [] if close(float(ref), float(out)) else [f"{where}: {out!r} != {ref!r}"]
    if isinstance(ref, dict) and isinstance(out, dict):
        if set(ref) != set(out):
            return [f"{where}: keys {sorted(out)} != {sorted(ref)}"]
        return [d for k in sorted(ref) for d in diff_json(ref[k], out[k], f"{where}.{k}")]
    if isinstance(ref, list) and isinstance(out, list):
        if len(ref) != len(out):
            return [f"{where}: length {len(out)} != {len(ref)}"]
        return [d for i, (r, o) in enumerate(zip(ref, out))
                for d in diff_json(r, o, f"{where}[{i}]")]
    return [] if ref == out and type(ref) is type(out) else [f"{where}: {out!r} != {ref!r}"]


def _cells(text: str) -> list[list]:
    rows = []
    for line in text.splitlines():
        row = []
        for cell in line.split(","):
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        rows.append(row)
    return rows


def _cell_scales(rows: list[list]) -> list[list[float]]:
    """Scale below which a reference number counts as noise, per cell.

    A spectrum entry (``# kind=`` other than ``trace``, columns ``re,im``)
    is judged on its own complex magnitude |re + i*im|, so a component near
    zero beside a large one is judged on the entry's size and small entries
    stay at RTOL relative.  A time trace is judged on its largest reference
    magnitude per column, because the inverse FFT leaves samples near zero
    with an absolute error on the trace's scale.  Any other number is judged
    on itself (scale 0)."""
    kind = next((r[0].split("=", 1)[1].strip() for r in rows
                 if len(r) == 1 and isinstance(r[0], str) and r[0].startswith("# kind=")), None)
    header = next((r for r in rows if "re" in r and "im" in r), None)
    scales = [[0.0] * len(r) for r in rows]
    if header is None:
        return scales
    cols = (header.index("re"), header.index("im"))
    data = [i for i, r in enumerate(rows)
            if len(r) == len(header) and all(isinstance(r[j], float) for j in cols)]
    if kind == "trace":
        for j in cols:
            top = max((abs(rows[i][j]) for i in data if math.isfinite(rows[i][j])), default=0.0)
            for i in data:
                scales[i][j] = top
    else:
        for i in data:
            mag = abs(complex(rows[i][cols[0]], rows[i][cols[1]]))
            if math.isfinite(mag):
                scales[i][cols[0]] = scales[i][cols[1]] = mag
    return scales


def diff_csv(ref: str, out: str, where: str) -> list[str]:
    """Cell-by-cell CSV comparison.  Text cells must match exactly; a number
    may differ by RTOL times the larger of itself and its scale from
    ``_cell_scales``."""
    r_rows, o_rows = _cells(ref), _cells(out)
    if len(r_rows) != len(o_rows):
        return [f"{where}: {len(o_rows)} lines != {len(r_rows)}"]
    scales = _cell_scales(r_rows)
    diffs = []
    for i, (r, o) in enumerate(zip(r_rows, o_rows)):
        if len(r) != len(o):
            diffs.append(f"{where}:{i + 1}: {len(o)} cells != {len(r)}")
            continue
        for j, (a, b) in enumerate(zip(r, o)):
            ok = (close(a, b, scales[i][j]) if isinstance(a, float)
                  and isinstance(b, float) else a == b)
            if not ok:
                diffs.append(f"{where}:{i + 1}:{j + 1}: {b!r} != {a!r}")
    return diffs
