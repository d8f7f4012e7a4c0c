"""seizeval benchmark: one command for every workload, check and metric.

    python3 perfbench/run.py --workload stream-bands --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1

Run from the repository root. For one workload it

1. generates the seeded inputs in a process of their own (gen.py), cached
   under .perfbench/ and checked against their manifest;
2. with ``--trace 1`` measures ``import seizeval`` with ``python -X importtime``;
3. runs the workload's closed loop in one process (worker.py), which checks
   the outputs after the timed phase. With ``--trace 0`` set-up (a fresh
   interpreter importing seizeval and loading what the ops reuse) is also
   timed in several processes, half before the worker and half after it,
   so the median samples the machine at both ends of the run;
4. prints the run record and every metric with unit and sample count, then,
   as the last line, one JSON object: ``correct``, ``attempted``, ``failed``
   and ``metrics`` (the end-to-end metrics of BENCHMARK.json with
   ``--trace 0``, its per-layer metrics with ``--trace 1``).

``--all`` runs every workload, train-eval included, untraced and traced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

STATE = ROOT / ".perfbench"  # generated inputs and per-run scratch space
SETUP_PROBES = 6  # set-up processes per untraced run, besides the worker's own
# The speed probe's time on the quiet 2-core x86-64 host this benchmark was
# tuned on. setup_s is the median set-up time rescaled by this over the median
# probe time of the set-up processes: the set-up time of a machine that runs
# the probe in PROBE_NOMINAL_S. Changes in the machine's speed that last
# minutes then cancel; setup_wall_s is the time as measured.
PROBE_NOMINAL_S = 2.5e-3
ALL_WORKLOADS = ("stream-bands", "ingest-sincnet", "train-eval")


def log(*parts: object) -> None:
    print(*parts, flush=True)


def run(cmd: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a child from the repository root; it is killed if it overruns."""
    return subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout, check=False
    )


def fingerprint() -> str:
    """Hash of everything that shapes the generated inputs."""
    h = hashlib.sha256()
    for path in [HERE / "gen.py", *sorted((ROOT / "src" / "seizeval").glob("*.py"))]:
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def ensure_inputs(workload: str, seed: int) -> Path:
    """Generate the workload's input set for `seed` unless a checked copy exists."""
    name = harness.INPUT_SETS[workload]
    target = STATE / "inputs" / f"{name}-seed{seed}-{fingerprint()}"
    if (target / "manifest.json").exists():
        return target
    parent = target.parent
    parent.mkdir(parents=True, exist_ok=True)
    for old in parent.glob(f"{name}-seed*"):  # keep one copy per set on disk
        shutil.rmtree(old)
    tmp = parent / f".tmp-{os.getpid()}"
    proc = run([sys.executable, str(HERE / "gen.py"), "--set", name, "--seed", str(seed),
                "--out", str(tmp)], timeout=300)  # fmt: skip
    if proc.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise RuntimeError(f"input generation failed:\n{proc.stderr}")
    tmp.rename(target)
    return target


def worker(workload: str, inputs: Path, work: Path, seed: int, seconds: float,
           trace: int, out: Path, setup_only: bool = False) -> dict:  # fmt: skip
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--inputs", str(inputs), "--work", str(work), "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
    ]  # fmt: skip
    if setup_only:
        cmd.append("--setup-only")
    proc = run(cmd, timeout=seconds + 120)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed:\n{proc.stderr}")
    return json.loads(out.read_text())


def import_times() -> dict[str, float]:
    """Cumulative seconds of `import seizeval` and of the scipy.signal modules it loads.

    scipy loads ``scipy.signal`` lazily, so the log holds no line for the
    package itself: its cost is the sum over the outermost ``scipy.signal.*``
    lines (0 when seizeval no longer imports it).
    """
    code = "import sys; sys.path.insert(0, 'src'); import seizeval"
    proc = run([sys.executable, "-X", "importtime", "-c", code], timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"import failed:\n{proc.stderr}")
    rows = []  # (indent, name, cumulative seconds)
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1]) / 1e6))
    signal = [(d, t) for d, name, t in rows if name.startswith("scipy.signal")]
    top = min((d for d, _ in signal), default=0)
    return {
        "import.seizeval_s": next(t for _, name, t in rows if name == "seizeval"),
        "import.scipy_signal_s": sum(t for d, t in signal if d == top),
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    proc = run(["git", "rev-parse", "HEAD"], timeout=30)
    return proc.stdout.strip() or "unavailable"


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; return the worker's result plus set-up and import figures."""
    inputs = ensure_inputs(workload, seed)
    work = STATE / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    probes = 0 if trace else SETUP_PROBES

    def setup_probe(i: int) -> dict:
        out = work / f"setup-{i}.json"
        return worker(workload, inputs, work, seed, seconds, 0, out, setup_only=True)

    try:
        setups = [setup_probe(i) for i in range(probes // 2)]
        imports = import_times() if trace else {}
        result = worker(workload, inputs, work, seed, seconds, trace, work / "result.json")
        setups += [setup_probe(i) for i in range(probes // 2, probes)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(result)
    walls = [p["setup_s"] for p in setups]
    speed = PROBE_NOMINAL_S / harness.median([p["setup_probe_s"] for p in setups])
    metrics = result["metrics"]
    metrics["setup_s"] = {"value": harness.median(walls) * speed, "unit": "s", "n": len(walls)}
    metrics["setup_wall_s"] = {"value": harness.median(walls), "unit": "s", "n": len(walls)}
    result["record"].update(
        workload=workload, seed=seed, seconds=seconds, trace=bool(trace),
        commit=git_commit(), inputs=inputs.name, manifest_sha256=result["manifest_sha256"],
        setup_samples_s=walls,
        setup_probe_samples_s=[p["setup_probe_s"] for p in setups],
    )  # fmt: skip
    if trace:
        layers = result["layers"]
        for name, value in imports.items():
            layers[name] = {"value": value, "unit": "s", "n": 1}
        layers["process.cpu_per_wall"] = result["metrics"]["process.cpu_per_wall"]
    return result


def fmt(name: str, m: dict) -> str:
    v = m["value"]
    shown = "n/a" if v is None else f"{v:.6g}"
    return f"  {name:<42} {shown:>12} {m['unit']:<6} n={m['n']}"


def report(result: dict, bench: dict) -> dict:
    """Print one run's record, checks and metrics; return its result line."""
    rec = result["record"]
    trace = rec["trace"]
    log(f"== {rec['workload']} seed={rec['seed']} seconds={rec['seconds']} trace={int(trace)}")
    log("run record:", json.dumps(rec, sort_keys=True))
    for note in result["notes"]:
        log("check:", note)
    for err in result["errors"]:
        log("failed op:", err.strip().splitlines()[-1])
    log(f"ops: attempted={result['attempted']} failed={result['failed']}")
    metrics = result["metrics"]
    if trace:
        metrics = result["layers"]
        bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "eeg_s_per_ref")
        over = metrics["trace.overhead_frac"]["value"]
        flagged = over is None or over > bound
        metrics["trace.flagged"] = {"value": int(flagged), "unit": "count", "n": 1}
        if flagged:
            log(f"FLAGGED: tracing overhead {over} exceeds the eeg_s_per_ref bound {bound}; "
                "per-layer numbers of this run are distorted")  # fmt: skip
    wanted = bench["per_layer" if trace else "end_to_end"]
    log("metrics:")
    for name in sorted(metrics):
        log(fmt(name, metrics[name]))
    out = {}
    for spec in wanted:
        m = metrics.get(spec["name"])
        if m is None and spec["unit"] == "count":
            m = {"value": 0, "unit": "count", "n": 0}  # the function was never called
        out[spec["name"]] = {"value": None if m is None else m["value"], "unit": spec["unit"]}
    return {
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": out,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=ALL_WORKLOADS)
    which.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="measured seconds (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "seizeval" / "__init__.py").is_file():
        print(f"error: no seizeval sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    runs = [(args.workload, args.trace)]
    if args.all:
        runs = [(w, t) for w in ALL_WORKLOADS for t in (0, 1)]
    lines = {}
    try:
        for workload, trace in runs:
            result = run_workload(workload, args.seed, seconds, trace)
            lines[f"{workload}.trace{trace}"] = report(result, bench)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.all:
        print(json.dumps(harness.jsonable(lines.popitem()[1])))
        return 0
    summary = {
        "correct": all(v["correct"] for v in lines.values()),
        "attempted": sum(v["attempted"] for v in lines.values()),
        "failed": sum(v["failed"] for v in lines.values()),
        "metrics": {
            f"{key}.{name}": m for key, v in lines.items() for name, m in v["metrics"].items()
        },
    }
    print(json.dumps(harness.jsonable(summary)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
