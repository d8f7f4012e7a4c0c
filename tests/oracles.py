"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the interval arithmetic of the package under test:
event metrics are recomputed on a 1 ms grid, AUROC via the all-pairs
estimator, spectra via a direct DFT sum.
"""

from __future__ import annotations

import numpy as np

MS = 1000  # grid cells per second


def to_ms(x: float) -> int:
    return int(round(x * MS))


def rasterize(intervals, duration_s: float) -> np.ndarray:
    grid = np.zeros(to_ms(duration_s), dtype=bool)
    for a, b in intervals:
        grid[to_ms(a) : to_ms(b)] = True
    return grid


def background_intervals_ms(label_events, duration_s: float):
    """Maximal uncovered (start_ms, stop_ms) gaps, scanned on the grid."""
    grid = rasterize(label_events, duration_s)
    out = []
    start = None
    for i, covered in enumerate(grid):
        if not covered and start is None:
            start = i
        elif covered and start is not None:
            out.append((start, i))
            start = None
    if start is not None:
        out.append((start, len(grid)))
    return out


def grid_ovlp(label_events, hyp_events, duration_s: float):
    """(tp, tn, fp, fn) by cell counting; fp counts the false-alarm events."""
    lab = rasterize(label_events, duration_s)
    hyp = rasterize(hyp_events, duration_s)
    tp = fn = fp = tn = 0
    for a, b in label_events:
        if hyp[to_ms(a) : to_ms(b)].any():
            tp += 1
        else:
            fn += 1
    for a, b in hyp_events:
        if not lab[to_ms(a) : to_ms(b)].any():
            fp += 1
    for i0, i1 in background_intervals_ms(label_events, duration_s):
        if not hyp[i0:i1].any():
            tn += 1
    return tp, tn, fp, fn


def grid_taes(label_events, hyp_events, duration_s: float):
    """(tp, tn, fp, fn) fractional credits by cell counting."""
    hyp = rasterize(hyp_events, duration_s)
    tp = fn = fp = tn = 0.0
    for a, b in label_events:
        i0, i1 = to_ms(a), to_ms(b)
        credit = hyp[i0:i1].sum() / (i1 - i0)
        tp += credit
        fn += 1.0 - credit
    for i0, i1 in background_intervals_ms(label_events, duration_s):
        frac = hyp[i0:i1].sum() / (i1 - i0)
        fp += frac
        tn += 1.0 - frac
    return tp, tn, fp, fn


def grid_margin(label_events, hyp_events, margin_s: float):
    """(onset_acc, offset_acc) by all-pairs integer comparison."""
    if not label_events:
        return float("nan"), float("nan")
    m = to_ms(margin_s)
    onset = offset = 0
    for a, b in label_events:
        if any(abs(to_ms(h[0]) - to_ms(a)) <= m for h in hyp_events):
            onset += 1
        if any(abs(to_ms(h[1]) - to_ms(b)) <= m for h in hyp_events):
            offset += 1
    return onset / len(label_events), offset / len(label_events)


def grid_onset_latency(label_events, hyp_events):
    """(mean latency or None, n_missed) via all-pairs earliest-onset scan;
    onsets up to 5 s before a seizure's onset count."""
    latencies = []
    missed = 0
    for a, b in label_events:
        lo, hi = to_ms(a) - to_ms(5.0), to_ms(b)
        onsets = [to_ms(h[0]) for h in hyp_events if lo <= to_ms(h[0]) <= hi]
        if onsets:
            latencies.append((min(onsets) - to_ms(a)) / MS)
        else:
            missed += 1
    mean = float(np.mean(latencies)) if latencies else None
    return mean, missed


def brute_eventize(decisions, shift_s: float, gap_merge_s: float, min_event_s: float):
    """Rasterized per-step scan with gap closing and short-event dropping."""
    shift_ms = to_ms(shift_s)
    grid = np.zeros(len(decisions) * shift_ms, dtype=bool)
    for k, d in enumerate(decisions):
        if d:
            grid[k * shift_ms : (k + 1) * shift_ms] = True
    gap_ms = to_ms(gap_merge_s)
    # close interior zero-runs of length <= gap
    runs = []
    start = None
    for i, v in enumerate(grid):
        if not v and start is None:
            start = i
        elif v and start is not None:
            runs.append((start, i))
            start = None
    for i0, i1 in runs:
        if i0 > 0 and i1 < len(grid) and i1 - i0 <= gap_ms:
            grid[i0:i1] = True
    events = []
    start = None
    for i, v in enumerate(grid):
        if v and start is None:
            start = i
        elif not v and start is not None:
            events.append((start / MS, i / MS))
            start = None
    if start is not None:
        events.append((start / MS, len(grid) / MS))
    return [(a, b) for a, b in events if to_ms(b - a) >= to_ms(min_event_s)]


def window_label(labels, window_start_s: float, spec) -> bool:
    """The labelling rule one window at a time: ictal iff the seizure time
    inside [start, start + W) strictly exceeds the shift S."""
    stop = window_start_s + spec.window_s
    overlap = sum(
        max(0.0, min(ev.stop_s, stop) - max(ev.start_s, window_start_s))
        for ev in labels.seizure_events
    )
    return overlap > spec.shift_s


def pairwise_auroc(labels, scores) -> float:
    """Mann-Whitney estimator with ties counted one half."""
    labels = np.asarray(labels, dtype=bool)
    scores = np.asarray(scores, dtype=float)
    pos, neg = scores[labels], scores[~labels]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def dft_magnitude(frame, nfft: int) -> np.ndarray:
    """One-sided magnitude spectrum by direct summation."""
    n = np.arange(len(frame))
    bins = nfft // 2 + 1
    return np.array(
        [abs(np.sum(frame * np.exp(-2j * np.pi * k * n / nfft))) for k in range(bins)]
    )


def random_event_list(rng, duration_s: float, max_events: int, min_len_ms: int = 500):
    """Sorted, non-overlapping, ms-aligned intervals."""
    k = int(rng.integers(0, max_events + 1))
    if k == 0:
        return []
    for _ in range(100):
        points = np.sort(rng.choice(to_ms(duration_s), size=2 * k, replace=False))
        starts, stops = points[0::2], points[1::2]
        if np.all(stops - starts >= min_len_ms):
            return [(s / MS, e / MS) for s, e in zip(starts, stops)]
    return []


def batch_replay_scores(rec, extractor, detector, window_s: float = 4.0, shift_s: float = 1.0):
    """Offline scoring oracle for the streaming pass.

    Windows are cut by index arithmetic, every window is extracted before any
    is scored, then the detector replays the features from a fresh state.
    """
    fs = rec.sample_rate_hz
    win, shift = int(round(window_s * fs)), int(round(shift_s * fs))
    feats = [
        extractor(rec.samples[:, s : s + win])
        for s in range(0, rec.n_samples - win + 1, shift)
    ]
    state, out = detector.reset_state(), []
    for f in feats:
        score, state = detector.detect(state, f)
        out.append(score)
    return np.array(out)


def energy_scores(train, test_feats, smoothing: float = 0.0) -> np.ndarray:
    """The energy baseline scored directly, without a linear model.

    Calibrated on the (tensor, label) pairs of ``train``: the background
    median of the mean band-0 energy maps to 0.1 and the 90th percentile to
    0.5. Each test window scores logistic((band-0 mean - p90) / scale), then
    exponential smoothing and a clip to [0, 1].
    """
    energies = [f.data[:, 0, :].mean() for f, y in train if not y]
    p50, p90 = np.percentile(energies, [50, 90])
    scale = max((p90 - p50) / np.log(9.0), 1e-9)
    out, prev = [], None
    for f in test_feats:
        score = 1.0 / (1.0 + np.exp(-np.clip((f.data[:, 0, :].mean() - p90) / scale, -500, 500)))
        if smoothing > 0 and prev is not None:
            score = smoothing * prev + (1 - smoothing) * score
        prev = min(1.0, max(0.0, float(score)))
        out.append(prev)
    return np.array(out)
