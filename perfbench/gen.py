"""Seeded input generator for the benchmark, run in its own process.

    python3 perfbench/gen.py --set stream|ingest|cli --seed 7 --out DIR

Writes the recordings, label files and pre-trained stream models of one
input set, then ``manifest.json`` with each file's size and SHA-256.
Synthesis is the benchmark's own (numpy only), so a change to the package's
synthetic-data code cannot change the inputs; files are written with the
package's own writers, so the package under test can read them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
from seizeval import core, detectors, features, io  # noqa: E402

FS = 200
SHIFT_S = 1.0
WINDOW_S = 4.0
CHUNK_S = 600  # synthesise long recordings in pieces to bound generator memory

# Recording lengths, seconds. Every length is a whole number of shifts.
STREAM_S = 3600  # stream-bands replay recording
TRAIN_S = 300  # bands model training recording
INGEST_S = 300  # one ingest-sincnet op
INGEST_POOL = 3  # distinct ingest recordings, cycled op by op
INGEST_FS = 256
SINC_TRAIN_S = 150  # sincnet model training recording (56 000-dim features)
CLI_TRAIN_S = 120  # train-eval: `seizeval train` input
CLI_TEST_S = 3600  # train-eval: `seizeval eval` input

SETS = sorted(set(harness.INPUT_SETS.values()))


def _events(rng: np.random.Generator, duration_s: float) -> list[tuple[float, float]]:
    """About one seizure per 200 s, 8-20 s long, 10 s apart, whole milliseconds."""
    want = max(2, int(duration_s // 200))
    out: list[tuple[float, float]] = []
    for _ in range(1000):
        if len(out) == want:
            break
        length = round(float(rng.uniform(8, 20)), 3)
        start = round(float(rng.uniform(5, duration_s - length - 5)), 3)
        if all(start + length + 10 <= a or b + 10 <= start for a, b in out):
            out.append((start, start + length))
    return sorted(out)


def _pink(rng: np.random.Generator, n_ch: int, n: int) -> np.ndarray:
    spec = np.fft.rfft(rng.standard_normal((n_ch, n)), axis=1)
    f = np.fft.rfftfreq(n)
    scale = np.ones_like(f)
    scale[1:] = 1.0 / np.sqrt(f[1:] / f[1])
    x = np.fft.irfft(spec * scale, n=n, axis=1)
    return x / np.sqrt(np.mean(x**2, axis=1, keepdims=True))


def synth(
    rng: np.random.Generator, names: list[str], fs: int, duration_s: int, montage
) -> tuple[core.Recording, core.LabelTrack]:
    """Pink-noise background (20 uV RMS) plus 3 Hz spike-wave bursts (100 uV RMS)."""
    n_ch, n = len(names), duration_s * fs
    samples = np.empty((n_ch, n), dtype=np.float32)
    step = CHUNK_S * fs
    for i0 in range(0, n, step):
        i1 = min(n, i0 + step)
        samples[:, i0:i1] = 20.0 * _pink(rng, n_ch, i1 - i0)
    events = _events(rng, duration_s)
    for a, b in events:
        i0, i1 = int(round(a * fs)), int(round(b * fs))
        t = np.arange(i0, i1) / fs
        burst = np.zeros((n_ch, i1 - i0))
        for harmonic, weight in ((1, 1.0), (2, 0.5), (3, 0.25)):
            phase = rng.uniform(0, 2 * np.pi, size=(n_ch, 1))
            burst += weight * np.sin(2 * np.pi * 3.0 * harmonic * t[None, :] + phase)
        samples[:, i0:i1] += (100.0 * burst / np.sqrt(np.mean(burst**2))).astype(np.float32)
    rec = core.Recording(fs, list(names), samples, montage)
    labels = core.LabelTrack(
        [core.Event(a, b, core.SeizureLabel.SEIZ) for a, b in events], float(duration_s)
    )
    return rec, labels


def _bipolar(rng, duration_s):
    names = [f"{a}-{c}" for a, c in core.DEFAULT_BIPOLAR_PAIRS]
    return synth(rng, names, FS, duration_s, core.Montage.BIPOLAR)


def _unipolar(rng, duration_s):
    names = list(core.DEFAULT_UNIPOLAR_CHANNELS)
    return synth(rng, names, INGEST_FS, duration_s, core.Montage.UNIPOLAR)


def _train(rec, labels, feature: str, seed: int) -> detectors.LinearModel:
    spec = core.WindowSpec(WINDOW_S, SHIFT_S)
    extract = features.get_extractor(feature, rec.sample_rate_hz)
    feats = [extract(w.samples) for w in core.slice_windows(rec, spec)]
    y = core.window_labels(rec, labels, spec).astype(int)
    return detectors.train_linear(list(zip(feats, y)), detectors.TrainConfig(seed=seed))


def _write(out: Path, stem: str, rec, labels) -> None:
    io.save_recording(rec, out / f"{stem}.eeg")
    io.save_labels(labels, out / f"{stem}.labels")


def generate(input_set: str, seed: int, out: Path) -> None:
    # one random stream per input set, so each set depends only on the seed
    rng = np.random.default_rng([seed, SETS.index(input_set)])
    out.mkdir(parents=True, exist_ok=True)
    if input_set == "stream":
        _write(out, "stream", *_bipolar(rng, STREAM_S))
        model = _train(*_bipolar(rng, TRAIN_S), "bands", seed)
        detectors.save_model(model, out / "bands.model")
    elif input_set == "ingest":
        for i in range(INGEST_POOL):
            _write(out, f"ingest-{i}", *_unipolar(rng, INGEST_S))
        rec, labels = _unipolar(rng, SINC_TRAIN_S)
        rec = core.resample(core.to_bipolar(rec), FS)
        detectors.save_model(_train(rec, labels, "sincnet", seed), out / "sincnet.model")
    else:
        _write(out, "train", *_bipolar(rng, CLI_TRAIN_S))
        _write(out, "test", *_bipolar(rng, CLI_TEST_S))
    files = {
        p.name: {"bytes": p.stat().st_size, "sha256": harness.sha256(p)}
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }
    manifest = {"input_set": input_set, "seed": seed, "files": files}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--set", choices=SETS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    generate(args.set, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
