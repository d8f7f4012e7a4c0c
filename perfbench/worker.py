"""One workload in one process: set up, run a closed loop, check the outputs.

    python3 perfbench/worker.py --workload NAME --inputs DIR --work DIR \
        --seed N --seconds S --trace 0|1 --out RESULT.json [--setup-only]

One client: the next op starts only when the previous one has returned.
``--setup-only`` times a fresh interpreter's ``import seizeval`` plus the
loading of the inputs every op reuses, then the speed probe, and exits. With ``--trace 1`` the
measured phase alternates untraced and traced stretches so the tracing
overhead is measured on the same inputs in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import io as stdio
import json
import math
import os
import platform
import random
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from harness import Op  # noqa: E402

SHIFT_S = 1.0
WINDOW_S = 4.0
RATE_HZ = 200
TRACE_BLOCK_S = 0.5  # stream-bands: length of each untraced / traced stretch
PROBE_EVERY_S = 0.5  # measured time between two speed probes
BANDS_AUROC_FLOOR = 0.9
EVAL_AUROC_FLOOR = 0.6
EQUIV_SEGMENTS = 2  # stream-bands: segments re-scored by rtbench.run_stream
EQUIV_WINDOWS = 40  # windows per segment
REF_WINDOWS = 4  # ingest-sincnet: windows per pool file checked against the reference
RESAMPLE_TOL = 1e-4  # relative RMS error allowed against the reference
FEATURE_TOL = 1e-6
SCORE_TOL = 1e-6  # relative, on the logit scale


def n_windows(n_samples: int, fs: int) -> int:
    win, shift = int(WINDOW_S * fs), int(SHIFT_S * fs)
    return 0 if n_samples < win else (n_samples - win) // shift + 1


def read_header(path: Path) -> dict[str, str]:
    with open(path, "rb") as fh:
        head = fh.read(4096)
    text = head[: head.index(b"end_header\n")].decode("ascii")
    return dict(line.split("=", 1) for line in text.splitlines()[1:])


def read_labels(path: Path) -> list[tuple[float, float]]:
    out = []
    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if parts and parts[2] != "bckg":
            out.append((float(parts[0]), float(parts[1])))
    return out


def ictal_windows(events: list[tuple[float, float]], count: int) -> list[bool]:
    """Window k is ictal iff seizure time inside [k*shift, k*shift+window) exceeds the shift."""
    out = []
    for k in range(count):
        a = k * SHIFT_S
        overlap = sum(max(0.0, min(b1, a + WINDOW_S) - max(a1, a)) for a1, b1 in events)
        out.append(overlap > SHIFT_S)
    return out


def bad_score(s: float) -> bool:
    return not (math.isfinite(s) and 0.0 <= s <= 1.0)


# ---------------------------------------------------------------------------
# workloads. Each loads what its ops reuse in __init__ (timed as set-up), runs
# op i on each call to op(i) (warm-up ops have i < 0), and checks the outputs
# in check() after the measured phase. A failed check fails the ops it covers.


class StreamBands:
    """Replay one long recording window by window through bands + LinearDetector."""

    warmup_ops = 20
    trace_by_op = False  # ops are ~7 ms: alternate traced stretches by time

    def __init__(self, inputs: Path, work: Path, seed: int) -> None:
        from seizeval import core, detectors, features, io

        self.core = core
        self.rec = io.load_recording(inputs / "stream.eeg")
        self.det = detectors.LinearDetector(detectors.load_model(inputs / "bands.model"))
        self.extract = features.get_extractor("bands", self.rec.sample_rate_hz)
        self.spec = core.WindowSpec(WINDOW_S, SHIFT_S)
        self.labels_path = inputs / "stream.labels"
        self.seed = seed
        self.scores: dict[int, float] = {}  # first-pass score per window index
        self.mismatch: set[int] = set()  # ops whose replayed score differs from the first pass
        self.op_window: dict[int, int] = {}  # window index of each op
        self._new_pass()

    def _new_pass(self) -> None:
        self.windows = self.core.slice_windows(self.rec, self.spec)
        self.state = self.det.reset_state()

    def expected_windows(self) -> int:
        return 1

    def windows_per_op(self) -> float:
        return 1.0

    def op(self, i: int) -> Op:
        w = next(self.windows, None)
        if w is None:
            self._new_pass()
            w = next(self.windows)
        self.op_window[i] = w.index
        t0 = time.perf_counter()
        feats = self.extract(w.samples)
        t1 = time.perf_counter()
        score, self.state = self.det.detect(self.state, feats)
        t2 = time.perf_counter()
        if self.scores.setdefault(w.index, score) != score:
            self.mismatch.add(i)
        return Op(True, SHIFT_S, t2 - t0, [(t2 - t0) * 1e3], 1)

    def check(self, ops: list[Op]) -> list[str]:
        from seizeval import rtbench

        notes = []
        fails = set(self.mismatch)
        fails.update(i for i, k in self.op_window.items() if bad_score(self.scores[k]))
        fs = self.rec.sample_rate_hz
        expected = n_windows(self.rec.n_samples, fs)
        got = sum(1 for _ in self.core.slice_windows(self.rec, self.spec))
        if got != expected:
            notes.append(f"FAIL window count {got} != {expected}")
            fails.update(range(len(ops)))
        # criterion 09: streamed scores equal rtbench.run_stream bit for bit
        scored = sorted(self.scores)
        rng = random.Random(self.seed)
        shift, win = int(SHIFT_S * fs), int(WINDOW_S * fs)
        for _ in range(EQUIV_SEGMENTS):
            j = rng.randrange(0, max(1, len(scored) - EQUIV_WINDOWS))
            ks = scored[j : j + EQUIV_WINDOWS]
            sub = self.core.Recording(
                fs,
                self.rec.channel_names,
                self.rec.samples[:, ks[0] * shift : ks[-1] * shift + win],
                self.rec.montage,
            )
            track, _ = rtbench.run_stream(sub, self.extract, self.det, self.spec)
            if track.scores.tolist() != [self.scores[k] for k in ks]:
                notes.append(f"FAIL windows {ks[0]}..{ks[-1]} differ from rtbench.run_stream")
                fails.update(i for i, k in self.op_window.items() if ks[0] <= k <= ks[-1])
        labels = ictal_windows(read_labels(self.labels_path), expected)
        a = harness.auroc([labels[k] for k in scored], [self.scores[k] for k in scored])
        notes.append(f"auroc={a:.4f} over {len(scored)} windows, floor {BANDS_AUROC_FLOOR}")
        if not a >= BANDS_AUROC_FLOOR:
            fails.update(range(len(ops)))
        fail_ops(ops, fails)
        return notes


class IngestSincnet:
    """One op: load a 256 Hz unipolar file, bipolar montage, resample, then sincnet.

    The op replays the resampled recording window by window and times each
    window's extract and detect calls itself, as StreamBands does.
    """

    warmup_ops = 1
    trace_by_op = True

    def __init__(self, inputs: Path, work: Path, seed: int) -> None:
        from seizeval import core, detectors, features, io

        self.core, self.io = core, io
        self.det = detectors.LinearDetector(detectors.load_model(inputs / "sincnet.model"))
        self.extract = features.get_extractor("sincnet", RATE_HZ)
        self.spec = core.WindowSpec(WINDOW_S, SHIFT_S)
        self.seed = seed
        self.pool = sorted(inputs.glob("ingest-*.eeg"))
        self.counts = []  # windows each pool file gives at the pipeline rate
        for path in self.pool:
            head = read_header(path)
            n = round(int(head["n_samples"]) * RATE_HZ / int(head["sample_rate_hz"]))
            self.counts.append(n_windows(n, RATE_HZ))
        self.outputs: dict[int, list[float]] = {}  # scores per op

    def expected_windows(self) -> int:
        return self.counts[0]

    def windows_per_op(self) -> float:
        return float(self.counts[0])

    def prepare(self, path: Path):
        """Load, bipolar montage, resample to the pipeline rate."""
        rec = self.io.load_recording(path)
        return rec, self.core.resample(self.core.to_bipolar(rec), RATE_HZ)

    def op(self, i: int) -> Op:
        f = i % len(self.pool)
        t0 = time.perf_counter()
        rec, rec200 = self.prepare(self.pool[f])
        state = self.det.reset_state()
        scores, window_ms = [], []
        for w in self.core.slice_windows(rec200, self.spec):
            t1 = time.perf_counter()
            score, state = self.det.detect(state, self.extract(w.samples))
            window_ms.append((time.perf_counter() - t1) * 1e3)
            scores.append(score)
        t2 = time.perf_counter()
        self.outputs[i] = scores
        return Op(True, rec.duration_s, t2 - t0, window_ms, self.counts[f])

    def check(self, ops: list[Op]) -> list[str]:
        """Score range, window count and repeats per op; then, per pool file, the
        resampled samples, sinc features and timed-phase scores against the
        benchmark's reference, and the scores against rtbench.run_stream."""
        import reference  # not at the top: its numpy and scipy belong to the timed import
        from seizeval import features, rtbench

        notes = []
        fails = set()
        by_file: dict[int, list[int]] = {}
        for i, scores in sorted(self.outputs.items()):
            f = i % len(self.pool)
            by_file.setdefault(f, []).append(i)
            if any(bad_score(s) for s in scores) or len(scores) != self.counts[f]:
                fails.add(i)
            if self.outputs[by_file[f][0]] != scores:  # same file, same scores
                fails.add(i)
        rng = random.Random(self.seed)
        bands = features.SincBank().bands
        for f, idx in sorted(by_file.items()):
            fs, names, raw = reference.read_recording(self.pool[f])
            want = reference.resample(
                reference.bipolar(names, raw, self.core.DEFAULT_BIPOLAR_PAIRS), fs, RATE_HZ
            )
            _, rec200 = self.prepare(self.pool[f])
            bad = []
            if reference.rel_err(rec200.samples, want) > RESAMPLE_TOL:
                bad.append("resampled samples")
            scores = self.outputs[idx[0]]
            win, shift = int(WINDOW_S * RATE_HZ), int(SHIFT_S * RATE_HZ)
            for k in rng.sample(range(len(scores)), min(REF_WINDOWS, len(scores))):
                x = want[:, k * shift : k * shift + win]
                ref = reference.sinc_features(x, RATE_HZ, bands)
                if reference.rel_err(self.extract(x).data, ref) > FEATURE_TOL:
                    bad.append(f"sinc features of window {k}")
                want_score = reference.linear_score(ref, self.det.model)
                if not reference.same_score(scores[k], want_score, SCORE_TOL):
                    bad.append(f"score of window {k}")
            # criterion 09: the replayed scores equal rtbench.run_stream bit for bit
            track, _ = rtbench.run_stream(rec200, self.extract, self.det, self.spec)
            if track.scores.tolist() != scores:
                bad.append("scores against rtbench.run_stream")
            if bad:
                notes.append(f"FAIL {self.pool[f].name}: " + ", ".join(bad) + " differ")
                fails.update(idx)
        fail_ops(ops, fails)
        failed = sum(1 for i in fails if 0 <= i < len(ops))
        notes.append(f"{failed} ops failed the score range, window count, repeat, "
                     f"reference or run_stream check")  # fmt: skip
        return notes


class TrainEval:
    """One op: `seizeval train --feature raw` on a short file, then `seizeval eval` on 1 h."""

    warmup_ops = 1
    trace_by_op = True

    def __init__(self, inputs: Path, work: Path, seed: int) -> None:
        from seizeval import cli

        self.cli = cli
        self.inputs, self.work, self.seed = inputs, work, seed
        self.dirs: dict[int, Path] = {}
        head = read_header(inputs / "test.eeg")
        self.test_s = int(head["n_samples"]) / int(head["sample_rate_hz"])
        self.test_windows = n_windows(int(head["n_samples"]), int(head["sample_rate_hz"]))
        self.train_windows = n_windows(int(read_header(inputs / "train.eeg")["n_samples"]), RATE_HZ)

    def expected_windows(self) -> int:
        return 0  # `eval` reports no per-window times

    def windows_per_op(self) -> float:
        return float(self.train_windows + self.test_windows)

    def op(self, i: int) -> Op:
        d = Path(tempfile.mkdtemp(prefix=f"op{i}-", dir=self.work))
        self.dirs[i] = d
        train = [
            "train",
            "--rec", str(self.inputs / "train.eeg"),
            "--labels", str(self.inputs / "train.labels"),
            "--feature", "raw",
            "--seed", str(self.seed),
            "--out", str(d / "model.bin"),
        ]  # fmt: skip
        evaluate = [
            "eval",
            "--rec", str(self.inputs / "test.eeg"),
            "--labels", str(self.inputs / "test.labels"),
            "--model", str(d / "model.bin"),
            "--seed", "0",
            "--out-dir", str(d / "eval"),  # cmd_eval would default to ./runs/
        ]  # fmt: skip
        err = stdio.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(err):
            rc = self.cli.main(train)
            if rc == 0:
                rc = self.cli.main(evaluate)
        t1 = time.perf_counter()
        ok = rc == 0
        return Op(ok, self.test_s, t1 - t0, [], 0, err.getvalue())

    def check(self, ops: list[Op]) -> list[str]:
        fails = set()
        first = None
        notes = []
        for i, op in enumerate(ops):
            if not op.ok:
                continue
            try:
                data = (self.dirs[i] / "eval" / "report.json").read_bytes()
                a = json.loads(data)["auroc"]
            except (OSError, ValueError, KeyError):
                fails.add(i)
                continue
            if first is None:
                first = data
                notes.append(f"auroc={a:.4f}, floor {EVAL_AUROC_FLOOR}")
            # criterion 10: report.json is identical across the ops of a run
            if data != first or not a >= EVAL_AUROC_FLOOR:
                fails.add(i)
        fail_ops(ops, fails)
        return notes


WORKLOADS = {
    "stream-bands": StreamBands,
    "ingest-sincnet": IngestSincnet,
    "train-eval": TrainEval,
}


def fail_ops(ops: list[Op], indices: set[int]) -> None:
    for i in indices:
        if 0 <= i < len(ops) and ops[i].ok:
            ops[i].ok = False
            ops[i].error = "output check failed"


def trace_targets():
    from seizeval import cli, core, detectors, features, io, metrics, rtbench

    return [
        (io, "load_recording", "io.load_recording"),
        (io, "load_labels", "io.load_labels"),
        (core, "to_bipolar", "core.to_bipolar"),
        (core, "resample", "core.resample"),
        (core, "window_labels", "core.window_labels"),
        (features, "frequency_bands", "features.frequency_bands"),
        (features, "stft", "features.stft"),
        (features, "sinc_filterbank", "features.sinc_filterbank"),
        (features, "extract_raw", "features.extract_raw"),
        (detectors.Detector, "detect", "detectors.detect"),
        (detectors, "train_linear", "detectors.train_linear"),
        (detectors, "load_model", "detectors.load_model"),
        (detectors, "save_model", "detectors.save_model"),
        (rtbench, "run_stream", "rtbench.run_stream"),
        (metrics, "curve_metrics", "metrics.curve_metrics"),
        (metrics, "evaluate_track", "metrics.evaluate_track"),
        (metrics, "export_hypothesis", "metrics.export_hypothesis"),
        (cli, "cmd_train", "cli.train"),
        (cli, "cmd_eval", "cli.eval"),
    ]


def install(tracer: harness.Tracer) -> None:
    for owner, attr, name in trace_targets():
        tracer.wrap(owner, attr, name, file_arg=(name == "io.load_recording"))


def run_op(w, i: int) -> Op:
    """Run one op; an exception is the op's failure, recorded, never fatal."""
    t0 = time.perf_counter()
    try:
        return w.op(i)
    except Exception:  # the loop must go on: a failed op is a measurement
        err = traceback.format_exc(limit=-2)
        return Op(False, 0.0, time.perf_counter() - t0, [], w.expected_windows(), err)


class SpeedProbe:
    """A fixed piece of single-threaded work, independent of the package.

    The machine this benchmark was written on switched, for seconds to
    minutes at a time, between a fast state and one in which the probe took
    twice as long and the workloads about 1.5 times as long. The probe is
    timed between ops, so the ``_ref`` metrics can express the ops' time in
    units of the probe's, which that drift moves far less. It mixes what the
    workloads do: scipy FFT convolution, a numpy FFT and a pure-Python loop.
    It uses no BLAS, whose thread setting the package may change.
    """

    def __init__(self) -> None:
        import numpy as np
        from scipy import signal

        rng = np.random.default_rng(0)
        self.x, self.k = rng.standard_normal((20, 800)), rng.standard_normal((1, 80))
        self.fft, self.convolve = np.fft.rfft, signal.fftconvolve

    def once(self) -> float:
        t0 = time.perf_counter()
        for _ in range(4):
            self.convolve(self.x, self.k, mode="same", axes=1)
            self.fft(self.x, axis=1)
            sum(i * i for i in range(5000))
        return time.perf_counter() - t0

    def __call__(self, n: int = 3) -> float:
        """Median of `n` (odd) timings, in seconds."""
        return sorted(self.once() for _ in range(n))[n // 2]


def measure(w, seconds: float, tracer: harness.Tracer | None, probe: SpeedProbe):
    """Closed loop for `seconds`; with a tracer, alternate untraced and traced stretches.

    After each stretch of PROBE_EVERY_S it times the speed probe, outside
    the ops' own times. Returns the ops, each op's wall and CPU seconds
    including loop overhead, the probe time next to each op, which ops were
    traced, and the phase's wall and CPU seconds.
    """
    ops: list[Op] = []
    walls: list[float] = []
    cpus: list[float] = []
    refs: list[float] = []
    traced: list[bool] = []
    on = False
    c0 = harness.cpu_seconds()
    t0 = block = time.perf_counter()
    probe_due = t0 + PROBE_EVERY_S
    while (now := time.perf_counter()) - t0 < seconds:
        if tracer is not None and (w.trace_by_op or now - block >= TRACE_BLOCK_S):
            on, block = not on, now
            if on:
                install(tracer)
            else:
                tracer.restore()
        if on:
            tracer.op = len(ops)
        cpu = harness.cpu_seconds()
        ops.append(run_op(w, len(ops)))
        cpus.append(harness.cpu_seconds() - cpu)
        walls.append(time.perf_counter() - now)
        traced.append(on)
        if time.perf_counter() >= probe_due:
            refs += [probe()] * (len(ops) - len(refs))
            probe_due = time.perf_counter() + PROBE_EVERY_S
    if len(refs) < len(ops):
        refs += [probe()] * (len(ops) - len(refs))
    wall, cpu = time.perf_counter() - t0, harness.cpu_seconds() - c0
    if tracer is not None:
        tracer.restore()
    return ops, walls, cpus, refs, traced, wall, cpu


def run_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    manifest_hash = harness.verify_manifest(args.inputs)
    tracer = harness.Tracer() if args.trace else None
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import seizeval  # noqa: F401  (timed: set-up starts with the import)

    if tracer is not None:
        install(tracer)
        tracer.op = -1
    w = WORKLOADS[args.workload](args.inputs, args.work, args.seed)
    setup_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.restore()
    probe = SpeedProbe()
    probe.once()  # warm-up, not counted
    result: dict = {"setup_s": setup_s, "setup_probe_s": probe(9)}
    result["manifest_sha256"] = manifest_hash
    if args.setup_only:
        args.out.write_text(json.dumps(result))
        return 0

    for i in range(w.warmup_ops):
        run_op(w, -1 - i)
    ops, walls, cpus, refs, traced, wall, cpu = measure(w, args.seconds, tracer, probe)
    peak = harness.peak_rss_mb()
    notes = w.check(ops)
    e2e = harness.summarize(ops, walls, cpus, refs, SHIFT_S * 1e3)
    e2e["peak_rss_mb"] = harness.Metric(peak, "MB", 1)
    e2e["process.cpu_per_wall"] = harness.Metric(cpu / wall, "ratio", len(ops))
    result.update(
        record=run_record(),
        attempted=len(ops),
        failed=sum(not op.ok for op in ops),
        errors=sorted({op.error for op in ops if not op.ok})[:3],
        notes=notes,
        metrics={k: vars(m) for k, m in e2e.items()},
    )
    if tracer is not None:
        layers = harness.layer_metrics(tracer.spans, sum(traced), w.windows_per_op())
        layers["trace.overhead_frac"] = harness.Metric(
            overhead(ops, walls, traced), "frac", len(ops)
        )
        result["layers"] = {k: vars(m) for k, m in layers.items()}
    args.out.write_text(json.dumps(harness.jsonable(result)))
    return 0


def overhead(ops: list[Op], walls: list[float], traced: list[bool]) -> float:
    """1 - traced goodput / untraced goodput, each over its own ops' wall time."""

    def goodput(flag: bool) -> float:
        sel = [(op, t) for op, t, on in zip(ops, walls, traced) if on == flag]
        secs = sum(t for _, t in sel)
        return sum(op.eeg_s for op, _ in sel if op.ok) / secs if secs else math.nan

    untraced = goodput(False)
    return 1 - goodput(True) / untraced if untraced > 0 else math.nan


if __name__ == "__main__":
    sys.exit(main())
