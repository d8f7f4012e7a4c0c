"""Pure-Python pieces shared by the benchmark's processes.

Nothing here imports numpy or the package under test, so a process can load
this module before it starts timing ``import seizeval``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

INF = math.inf

# The generated input set each workload reads.
INPUT_SETS = {"stream-bands": "stream", "ingest-sincnet": "ingest", "train-eval": "cli"}


# ---------------------------------------------------------------------------
# inputs


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def verify_manifest(directory: Path) -> str:
    """Check every file the manifest lists; return the manifest's own hash."""
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for name, meta in manifest["files"].items():
        path = directory / name
        if path.stat().st_size != meta["bytes"] or sha256(path) != meta["sha256"]:
            raise RuntimeError(f"input {path} does not match its manifest entry")
    return sha256(manifest_path)


# ---------------------------------------------------------------------------
# statistics


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Linear-interpolated q-th percentile and the sample count it rests on.

    Infinite samples (windows of failed ops) sort last; a percentile that
    touches one is infinite.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return math.nan, 0
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    if math.isinf(xs[lo]) or math.isinf(xs[hi]):
        return INF, n
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), n


def median(values: list[float]) -> float:
    return percentile(values, 50)[0]


@dataclass
class Op:
    """One closed-loop request: a window, a file, or a pair of CLI commands."""

    ok: bool
    eeg_s: float  # seconds of EEG the op scores
    op_s: float  # wall time of the op
    window_ms: list[float] = field(default_factory=list)  # extract + detect, per window
    expected_windows: int = 0  # windows the op should have scored
    error: str = ""


@dataclass(frozen=True)
class Metric:
    value: float
    unit: str
    n: int  # samples behind the value


def auroc(labels: list[bool], scores: list[float]) -> float:
    """Mann-Whitney AUROC with average ranks for ties; nan with one class."""
    order = sorted(range(len(scores)), key=scores.__getitem__)
    ranks = [0.0] * len(scores)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2 + 1
        i = j + 1
    pos = sum(labels)
    neg = len(labels) - pos
    if pos == 0 or neg == 0:
        return math.nan
    rank_sum = sum(r for r, y in zip(ranks, labels) if y)
    return (rank_sum - pos * (pos + 1) / 2) / (pos * neg)


CHUNKS = 9  # a run's ops are cut into this many consecutive chunks


def chunks(n: int, k: int = CHUNKS) -> list[range]:
    """Split op indices 0..n-1 into at most k consecutive, near-equal ranges."""
    k = max(1, min(k, n))
    edges = [round(i * n / k) for i in range(k + 1)]
    return [range(a, b) for a, b in zip(edges, edges[1:])]


def summarize(
    ops: list[Op], walls: list[float], cpus: list[float], refs: list[float], shift_ms: float
) -> dict[str, Metric]:
    """End-to-end metrics of one measured phase.

    `walls` and `cpus` are each op's wall and process CPU seconds, loop
    overhead included; `refs` the speed probe's seconds measured next to
    each op. Goodput and the window median are medians over consecutive
    chunks of ops, so a few seconds of interference from outside the
    process move them less. The ``_ref`` metrics express each chunk's time
    in units of the median probe time in that chunk, so a machine that runs
    everything 1.5x slower for a minute leaves them steady. A failed op adds
    nothing to goodput, and each window it should have scored counts as
    infinitely late, so it misses every latency limit.
    """
    n = len(ops)
    good = sum(1 for op in ops if op.ok)
    parts = chunks(n)

    def windows(idx) -> list[float]:
        out: list[float] = []
        for i in idx:
            op = ops[i]
            out += op.window_ms if op.ok else [INF] * op.expected_windows
        return out

    def rate(idx, secs) -> float:
        return sum(ops[i].eeg_s for i in idx if ops[i].ok) / sum(secs[i] for i in idx)

    probe = [median([refs[i] for i in c]) for c in parts]
    every = windows(range(n))
    nw = len(every)
    chunk_p50 = [percentile(windows(c), 50)[0] for c in parts]
    p50_ref = [p * 1e-3 / r for p, r in zip(chunk_p50, probe) if not math.isnan(p)]
    met = sum(1 for w in every if w <= shift_ms)
    return {
        "eeg_s_per_s": Metric(median([rate(c, walls) for c in parts]), "s/s", len(parts)),
        "eeg_s_per_cpu_s": Metric(median([rate(c, cpus) for c in parts]), "s/s", len(parts)),
        "eeg_s_per_ref": Metric(
            median([rate(c, walls) * r for c, r in zip(parts, probe)]), "s/ref", len(parts)
        ),
        "eeg_s_per_cpu_ref": Metric(
            median([rate(c, cpus) * r for c, r in zip(parts, probe)]), "s/ref", len(parts)
        ),
        "window_p50_ms": Metric(median([x for x in chunk_p50 if not math.isnan(x)]), "ms", nw),
        "window_p90_ms": Metric(percentile(every, 90)[0], "ms", nw),
        "window_p99_ms": Metric(percentile(every, 99)[0], "ms", nw),
        "window_p50_ref": Metric(median(p50_ref), "ref", nw),
        "op_p50_s": Metric(median([op.op_s if op.ok else INF for op in ops]), "s", n),
        "ok_frac": Metric(good / n, "frac", n),
        "budget_met_frac": Metric(met / nw if nw else math.nan, "frac", nw),
        "fail_frac": Metric((n - good) / n, "frac", n),
        "budget_miss_frac": Metric(1 - met / nw if nw else math.nan, "frac", nw),
        "speed_probe_ms": Metric(median(refs) * 1e3, "ms", len(set(refs))),
    }


def cpu_seconds() -> float:
    """User plus system CPU of this process, all its threads included."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize() / 2**20


# ---------------------------------------------------------------------------
# tracing


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top
    op: int
    cpu_s: float
    failed: bool
    file_mb: float = 0.0  # size of the file named by the first argument
    rss_rise_mb: float = 0.0  # resident set after the call minus before it: what it keeps
    peak_rise_mb: float = 0.0  # rise of the process's peak resident set across the call

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans around calls into the package's public functions.

    ``wrap`` replaces a module (or class) attribute, the name callers look
    up at call time, so calls made inside the package are traced too.
    ``restore`` puts the original functions back. ``op`` is the id stamped
    on new spans: -1 during set-up.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, name: str, file_arg: bool = False) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)  # type: ignore[arg-type]  # filled in below
            self._stack.append(idx)
            rss0 = rss_mb() if file_arg else 0.0
            peak0 = peak_rss_mb() if file_arg else 0.0
            c0 = time.process_time()
            t0 = time.perf_counter()
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                t1 = time.perf_counter()
                c1 = time.process_time()
                self._stack.pop()
                span = Span(name, t0, t1, parent, self.op, c1 - c0, failed)
                if file_arg:
                    span.file_mb = os.path.getsize(args[0]) / 2**20
                    span.rss_rise_mb = rss_mb() - rss0
                    span.peak_rise_mb = peak_rss_mb() - peak0
                self.spans[idx] = span

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.dur for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.dur
    return out


# Top-level extractor functions: one call per window and extraction pass.
EXTRACTORS = ("features.frequency_bands", "features.sinc_filterbank", "features.extract_raw")


def layer_metrics(spans: list[Span], traced_ops: int, windows_per_op: float) -> dict[str, Metric]:
    """Per-function metrics from the spans; per-op counts use spans of traced ops only.

    For each span name: ``_s`` and ``_self_s`` are per-call medians,
    ``_mb`` the largest file read, ``_rss_rise_mb`` the largest resident
    set a call kept (after minus before) and ``_peak_rise_mb`` the largest
    rise of the process's peak resident set across a call, which counts
    transient copies but reads 0 unless the call sets a new process peak
    (file-reading functions only),
    ``_ms_p50``/``_ms_p99`` per-call percentiles, ``_calls_per_op`` calls per
    traced op, ``_failed`` calls that raised, ``_cpu_per_wall`` process CPU
    over wall time inside the calls (above 1 when library threads spin).
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
    ops = max(traced_ops, 1)
    out: dict[str, Metric] = {}
    for name, idx in sorted(by_name.items()):
        durs = [spans[i].dur for i in idx]
        n = len(idx)
        wall = sum(durs)
        in_ops = sum(1 for i in idx if spans[i].op >= 0)
        out[f"{name}_s"] = Metric(median(durs), "s", n)
        out[f"{name}_self_s"] = Metric(median([selfs[i] for i in idx]), "s", n)
        out[f"{name}_ms_p50"] = Metric(percentile(durs, 50)[0] * 1e3, "ms", n)
        out[f"{name}_ms_p99"] = Metric(percentile(durs, 99)[0] * 1e3, "ms", n)
        out[f"{name}_calls_per_op"] = Metric(in_ops / ops, "count", traced_ops)
        out[f"{name}_failed"] = Metric(sum(spans[i].failed for i in idx), "count", n)
        out[f"{name}_cpu_per_wall"] = Metric(
            sum(spans[i].cpu_s for i in idx) / wall if wall > 0 else math.nan, "ratio", n
        )
        if any(spans[i].file_mb for i in idx):  # largest file, largest rise
            out[f"{name}_mb"] = Metric(max(spans[i].file_mb for i in idx), "MB", n)
            out[f"{name}_rss_rise_mb"] = Metric(max(spans[i].rss_rise_mb for i in idx), "MB", n)
            out[f"{name}_peak_rise_mb"] = Metric(max(spans[i].peak_rise_mb for i in idx), "MB", n)
    extract = [s.dur for s in spans if s.name in EXTRACTORS]
    calls = sum(1 for s in spans if s.name in EXTRACTORS and s.op >= 0)
    out["features.extract_ms_p50"] = Metric(percentile(extract, 50)[0] * 1e3, "ms", len(extract))
    out["features.extract_ms_p99"] = Metric(percentile(extract, 99)[0] * 1e3, "ms", len(extract))
    out["features.calls_per_window"] = Metric(
        calls / (ops * windows_per_op), "count", traced_ops
    )
    return out


def jsonable(obj):
    """JSON has no infinity or nan: a value no op could produce is written as null."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj
