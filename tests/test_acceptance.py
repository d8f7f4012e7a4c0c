"""Acceptance suite: one pass/fail line per criterion.

Each test prints ``[PASS] criterion N: ...`` (or ``[FAIL]``) so the suite can
be read as a checklist: ``pytest -s tests/test_acceptance.py``.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np
import pytest
from scipy import signal as sps

import seizeval as sv
from seizeval import detectors as dt
from seizeval import features as ft
from seizeval import io as sio
from seizeval.cli import main as cli_main
from seizeval.features import get_extractor
from seizeval.rtbench import run_stream

import oracles

FS = 200


def criterion(n: int, desc: str):
    """Print the checklist line once the wrapped test body succeeds."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {n}: {desc}")
                raise
            print(f"[PASS] criterion {n}: {desc}")

        return inner

    return wrap


def random_tracks(n_pairs: int, seed: int, duration: float = 60.0):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n_pairs):
        lab = oracles.random_event_list(rng, duration, max_events=3)
        hyp = oracles.random_event_list(rng, duration, max_events=4)
        track = sv.LabelTrack([sv.Event(a, b) for a, b in lab], duration)
        pairs.append((track, lab, hyp))
    return pairs


PAIRS_1000 = random_tracks(1000, seed=42)


@criterion(1, "feature shapes for a 20-channel 4 s window")
def test_criterion_01_feature_shapes():
    x = np.random.default_rng(0).normal(size=(20, 800))
    t0 = time.perf_counter()
    assert sv.frequency_bands(x).shape == (20, 7, 100)
    assert sv.sinc_filterbank(x).shape == (7, 20, 400)
    assert sv.stft(x).shape == (20, 100, 100)
    # the 200, 100 and 50 Hz copies, joined on the time axis
    multi = sv.multirate(x)
    assert multi.shape == (20, 1, 1400)
    want = np.concatenate([x, x[:, ::2], x[:, ::4]], axis=1)[:, None, :]
    assert multi.data.tobytes() == want.tobytes()
    assert time.perf_counter() - t0 < 1.0


@criterion(2, "frame energy identity within 1e-6 over 100 random frames")
def test_criterion_02_parseval():
    rng = np.random.default_rng(1)
    taper = sps.get_window("hann", 25, fftbins=True)
    # 817 samples at 200 Hz hold 100 frames unpadded, so frame 0 is x[:25]
    window = np.zeros((1, 817))
    t0 = time.perf_counter()
    for _ in range(100):
        frame = rng.normal(size=25)
        window[0, :25] = frame
        mags = sv.stft(window).data[0, :, 0]
        sq = mags**2
        total = sq[0] + 2 * sq[1:-1].sum() + sq[-1]
        energy = 198 * np.sum((frame * taper) ** 2)
        assert abs(total - energy) / energy < 1e-6
    assert time.perf_counter() - t0 < 1.0


@criterion(3, "event metrics equal 1 ms grid scoring on 1000 random pairs")
def test_criterion_03_metric_oracle_equivalence():
    t0 = time.perf_counter()
    for track, lab, hyp in PAIRS_1000:
        cc = sv.ovlp(track, hyp)
        assert (cc.tp, cc.tn, cc.fp, cc.fn) == oracles.grid_ovlp(lab, hyp, 60.0)

        tc = sv.taes(track, hyp)
        want = oracles.grid_taes(lab, hyp, 60.0)
        for got, ref in zip((tc.tp, tc.tn, tc.fp, tc.fn), want):
            assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))

        for m in (3.0, 5.0):
            on, off = sv.margin(track, hyp, m)
            ref_on, ref_off = oracles.grid_margin(lab, hyp, m)
            for got, ref in ((on, ref_on), (off, ref_off)):
                if math.isnan(ref):
                    assert math.isnan(got)
                else:
                    assert abs(got - ref) <= 1e-9

        lat = sv.onset_latency(track, hyp)
        ref_mean, ref_missed = oracles.grid_onset_latency(lab, hyp)
        assert lat.n_missed == ref_missed
        if ref_mean is None:
            assert lat.mean_s is None
        else:
            assert abs(lat.mean_s - ref_mean) <= 1e-9
    assert time.perf_counter() - t0 < 30.0


@criterion(4, "TAES <= OVLP sensitivity and MARGIN(5s) >= MARGIN(3s), all pairs")
def test_criterion_04_ordering_invariants():
    for track, lab, hyp in PAIRS_1000:
        if not lab:
            continue
        cc = sv.ovlp(track, hyp)
        assert sv.taes(track, hyp).tpr <= cc.tpr + 1e-12
        on3, off3 = sv.margin(track, hyp, 3.0)
        on5, off5 = sv.margin(track, hyp, 5.0)
        assert on5 >= on3 and off5 >= off3


@criterion(5, "trapezoidal AUROC equals the pairwise estimator within 1e-9")
def test_criterion_05_auroc_equivalence():
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    checked = 0
    while checked < 200:
        n = int(rng.integers(10, 200))
        labels = rng.random(n) < 0.4
        if labels.all() or not labels.any():
            continue
        scores = np.round(rng.random(n), 1)  # coarse grid forces ties
        c = sv.curve_metrics(labels, scores)
        assert abs(c.auroc - oracles.pairwise_auroc(labels, scores)) < 1e-9
        checked += 1
    assert sv.curve_metrics([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]).auroc == 1.0
    assert sv.curve_metrics([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]).auroc == 0.5
    assert time.perf_counter() - t0 < 5.0


@criterion(6, "window label flips strictly above one shift of overlap")
def test_criterion_06_labeling_boundary():
    spec = sv.WindowSpec(window_s=4, shift_s=1)
    sample = 1.0 / FS

    rec = sv.Recording(FS, ["CH0"], np.zeros((1, 30 * FS)))

    def label_for(overlap_s):
        # the event covers the tail [4 - overlap, 4) of window 0
        track = sv.LabelTrack([sv.Event(4.0 - overlap_s, 10.0)], 30.0)
        return sv.window_labels(rec, track, spec)[0]

    assert not label_for(1.0)
    assert label_for(1.0 + sample)


@criterion(7, "end-to-end synthetic run: linear AUROC >= 0.90, energy >= 0.80")
def test_criterion_07_end_to_end():
    t0 = time.perf_counter()
    spec = sv.WindowSpec()

    def corpus(seed):
        cfg = sv.SynthConfig(duration_s=120, n_random_events=3, seed=seed)
        rec, labels = sv.synth_recording(cfg)
        feats = [sv.frequency_bands(w.samples) for w in sv.slice_windows(rec, spec)]
        wl = sv.window_labels(rec, labels, spec).astype(bool)
        return rec, labels, feats, wl

    _, _, train_feats, train_wl = corpus(seed=101)
    rec, labels, test_feats, test_wl = corpus(seed=202)

    model = sv.train_linear(
        list(zip(train_feats, train_wl.astype(int))), sv.TrainConfig(seed=0)
    )
    det = sv.LinearDetector(model)
    scores = np.array([det.detect(det.reset_state(), f)[0] for f in test_feats])
    assert oracles.pairwise_auroc(test_wl, scores) >= 0.90

    edet = sv.LinearDetector(sv.fit_energy(list(zip(train_feats, train_wl))))
    escores = np.array([edet.detect(edet.reset_state(), f)[0] for f in test_feats])
    assert oracles.pairwise_auroc(test_wl, escores) >= 0.80

    track = sv.HypothesisTrack(scores, spec, rec.duration_s)
    report = sv.evaluate_track(labels, test_wl, track)
    assert report.record["tnr95_threshold"] is not None
    margins = report.record["margin"]
    assert margins["5.0"]["onset"] >= margins["3.0"]["onset"]
    assert time.perf_counter() - t0 < 120.0


@criterion(8, "raw pipeline stays inside the 1 s shift budget; run exits 3 on a miss")
def test_criterion_08_realtime(tmp_path):
    rec, _ = sv.synth_recording(sv.SynthConfig(duration_s=30, events=[(10, 20)], seed=7))
    rng = np.random.default_rng(0)
    model = dt.LinearModel(
        weights=rng.normal(size=16000) * 1e-3,
        bias=0.0,
        feature_mean=np.zeros(16000),
        feature_std=np.ones(16000),
        extractor_id="raw",
        feature_shape=(20, 1, 800),
    )
    _, report = run_stream(rec, get_extractor("raw"), sv.LinearDetector(model))
    assert report.max_s <= 1.0
    assert report.passed

    rec_path = tmp_path / "rec.eeg"
    model_path = tmp_path / "model.bin"
    sio.save_recording(rec, rec_path)
    dt.save_model(model, model_path)
    args = ["run", "--rec", str(rec_path), "--model", str(model_path)]
    assert cli_main(args + ["--out-hyp", str(tmp_path / "pass.txt")]) == 0
    missed = tmp_path / "missed.txt"
    assert cli_main(args + ["--out-hyp", str(missed), "--budget-sec", "0"]) == 3
    assert missed.read_text() == (tmp_path / "pass.txt").read_text()


@criterion(9, "streamed scores bit-identical to batch on 20 recordings")
def test_criterion_09_stream_batch_equivalence():
    t0 = time.perf_counter()
    spec = sv.WindowSpec()
    rec, labels = sv.synth_recording(sv.SynthConfig(duration_s=30, n_random_events=1, seed=100))
    feats = [sv.frequency_bands(w.samples) for w in sv.slice_windows(rec, spec)]
    model = sv.fit_energy(list(zip(feats, sv.window_labels(rec, labels, spec))))
    for seed in range(20):
        rec, _ = sv.synth_recording(
            sv.SynthConfig(duration_s=30, n_random_events=1, seed=seed)
        )
        det = sv.LinearDetector(model, smoothing=0.5)
        streamed, _ = run_stream(rec, get_extractor("bands"), det)
        batched = oracles.batch_replay_scores(rec, get_extractor("bands"), det)
        assert streamed.scores.tobytes() == batched.tobytes()
    assert time.perf_counter() - t0 < 30.0


@criterion(10, "repeated evaluation with the same seed is byte-identical")
def test_criterion_10_determinism(tmp_path):
    for sub, seed in (("train", "1"), ("test", "2")):
        assert cli_main([
            "synth", "--out-dir", str(tmp_path / sub), "--duration", "120",
            "--n-events", "3", "--seed", seed,
        ]) == 0
    model = tmp_path / "model.bin"
    assert cli_main([
        "train", "--rec", str(tmp_path / "train" / "rec.eeg"),
        "--labels", str(tmp_path / "train" / "labels.txt"),
        "--feature", "bands", "--epochs", "10", "--seed", "0",
        "--out", str(model),
    ]) == 0
    args = [
        "eval", "--rec", str(tmp_path / "test" / "rec.eeg"),
        "--labels", str(tmp_path / "test" / "labels.txt"),
        "--model", str(model), "--seed", "0",
    ]
    assert cli_main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    for name in ("report.json", "report.txt", "curves.csv", "hypothesis.txt"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b
