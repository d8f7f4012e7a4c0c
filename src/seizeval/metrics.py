"""Seizure scoring: OVLP, TAES, EPOCH, MARGIN, onset latency, FA rate, curves.

Event-level metrics operate on interval arithmetic over a label track and a
hypothesis event list; window-level metrics operate on aligned decision
vectors. Everything here is pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import LabelTrack, WindowSpec
from .errors import DegenerateDatasetError, InvalidArgumentError

Interval = tuple[float, float]

SECONDS_PER_DAY = 86400.0


@dataclass(frozen=True)
class EventizeOpts:
    threshold: float = 0.5
    gap_merge_s: float = 0.0
    min_event_s: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.threshold <= 1.0):
            raise InvalidArgumentError("threshold must be in [0, 1]")
        if self.gap_merge_s < 0 or self.min_event_s < 0:
            raise InvalidArgumentError("gap_merge_s and min_event_s must be >= 0")


@dataclass
class ConfusionCounts:
    tp: float = 0.0
    tn: float = 0.0
    fp: float = 0.0
    fn: float = 0.0

    @property
    def tpr(self) -> float | None:
        pos = self.tp + self.fn
        return self.tp / pos if pos > 0 else None

    @property
    def tnr(self) -> float | None:
        neg = self.tn + self.fp
        return self.tn / neg if neg > 0 else None


@dataclass
class HypothesisTrack:
    """Per-window scores plus the timing needed to eventize them."""

    scores: np.ndarray
    window: WindowSpec
    total_duration_s: float

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.ndim != 1:
            raise InvalidArgumentError("scores must be a 1-D sequence")
        if self.scores.size and (self.scores.min() < 0 or self.scores.max() > 1):
            raise InvalidArgumentError("scores must lie in [0, 1]")

    def events(self, opts: EventizeOpts) -> list[Interval]:
        return eventize(self.scores, self.window, opts)


def eventize(
    scores: np.ndarray, window: WindowSpec, opts: EventizeOpts
) -> list[Interval]:
    """Binarize window scores into merged hypothesis events.

    Window k's decision covers the step interval [k*S, k*S + S); adjacent
    positive steps merge, gaps <= gap_merge_s merge, short events drop.
    """
    scores = np.asarray(scores, dtype=np.float64)
    decisions = scores >= opts.threshold
    shift = float(window.shift_s)
    events: list[list[float]] = []
    for k in np.flatnonzero(decisions).tolist():
        start, stop = k * shift, (k + 1) * shift
        if events and start - events[-1][1] <= opts.gap_merge_s + 1e-12:
            events[-1][1] = stop
        else:
            events.append([start, stop])
    return [
        (a, b) for a, b in events if b - a >= opts.min_event_s - 1e-12
    ]


def _check_hyp(hyp: list[Interval]) -> None:
    prev = -math.inf
    for a, b in hyp:
        if b <= a or a < prev:
            raise InvalidArgumentError("hypothesis events must be sorted, non-overlapping")
        prev = b


def _overlap(a: Interval, b: Interval) -> float:
    return max(0.0, min(a[1], b[1]) - max(a[0], b[0]))


def epoch_counts(
    window_labels: np.ndarray, window_decisions: np.ndarray
) -> ConfusionCounts:
    """Per-window confusion tally (the EPOCH metric)."""
    y = np.asarray(window_labels, dtype=bool)
    d = np.asarray(window_decisions, dtype=bool)
    if y.shape != d.shape:
        raise InvalidArgumentError("label and decision vectors differ in length")
    return ConfusionCounts(
        tp=float(np.sum(y & d)),
        tn=float(np.sum(~y & ~d)),
        fp=float(np.sum(~y & d)),
        fn=float(np.sum(y & ~d)),
    )


def ovlp(labels: LabelTrack, hyp: list[Interval]) -> tuple[ConfusionCounts, int]:
    """Any-overlap event scoring; also returns the false-alarm event count."""
    _check_hyp(hyp)
    seizures = [(ev.start_s, ev.stop_s) for ev in labels.seizure_events]
    counts = ConfusionCounts()
    for lab in seizures:
        if any(_overlap(lab, h) > 0 for h in hyp):
            counts.tp += 1
        else:
            counts.fn += 1
    fa = 0
    for h in hyp:
        if not any(_overlap(lab, h) > 0 for lab in seizures):
            counts.fp += 1
            fa += 1
    for bg in labels.background_intervals():
        if not any(_overlap(bg, h) > 0 for h in hyp):
            counts.tn += 1
    return counts, fa


def taes(labels: LabelTrack, hyp: list[Interval]) -> ConfusionCounts:
    """Time-aligned event scoring with fractional duration credits."""
    _check_hyp(hyp)
    counts = ConfusionCounts()
    for ev in labels.seizure_events:
        covered = sum(_overlap((ev.start_s, ev.stop_s), h) for h in hyp)
        credit = min(1.0, covered / ev.duration_s)
        counts.tp += credit
        counts.fn += 1.0 - credit
    for bg in labels.background_intervals():
        covered = sum(_overlap(bg, h) for h in hyp)
        frac = min(1.0, covered / (bg[1] - bg[0]))
        counts.fp += frac
        counts.tn += 1.0 - frac
    return counts


def margin(
    labels: LabelTrack, hyp: list[Interval], margin_s: float
) -> tuple[float, float]:
    """Fraction of seizure events with a hypothesis boundary within the margin.

    Onset accuracy counts label events having at least one hypothesis onset
    inside [onset - m, onset + m] (inclusive); offset accuracy is analogous
    with hypothesis offsets.
    """
    if margin_s <= 0:
        raise InvalidArgumentError("margin_s must be positive")
    _check_hyp(hyp)
    seizures = labels.seizure_events
    if not seizures:
        return math.nan, math.nan
    onset_hits = sum(
        1
        for ev in seizures
        if any(ev.start_s - margin_s <= h[0] <= ev.start_s + margin_s for h in hyp)
    )
    offset_hits = sum(
        1
        for ev in seizures
        if any(ev.stop_s - margin_s <= h[1] <= ev.stop_s + margin_s for h in hyp)
    )
    return onset_hits / len(seizures), offset_hits / len(seizures)


@dataclass
class OnsetLatency:
    mean_s: float | None
    latencies_s: list[float]
    n_missed: int


def onset_latency(
    labels: LabelTrack, hyp: list[Interval], search_before_s: float = 5.0
) -> OnsetLatency:
    """Mean delay from label onset to the earliest matching hypothesis onset.

    A hypothesis matches when its onset falls in [onset - search_before_s,
    offset]; events with no match are excluded from the mean and counted.
    """
    _check_hyp(hyp)
    latencies = []
    missed = 0
    for ev in labels.seizure_events:
        candidates = [
            h[0] for h in hyp if ev.start_s - search_before_s <= h[0] <= ev.stop_s
        ]
        if candidates:
            latencies.append(min(candidates) - ev.start_s)
        else:
            missed += 1
    mean = float(np.mean(latencies)) if latencies else None
    return OnsetLatency(mean_s=mean, latencies_s=latencies, n_missed=missed)


def fa_per_24h(fp_event_count: float, total_duration_s: float) -> float:
    if total_duration_s <= 0:
        raise InvalidArgumentError("total_duration_s must be positive")
    return fp_event_count * SECONDS_PER_DAY / total_duration_s


# ---------------------------------------------------------------------------
# threshold curves


@dataclass
class Curves:
    thresholds: np.ndarray  # descending
    tpr: np.ndarray
    fpr: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    auroc: float
    auprc: float


def curve_metrics(window_labels: np.ndarray, window_scores: np.ndarray) -> Curves:
    """ROC/PR curves from a threshold sweep with tie grouping.

    Each group of tied scores is one step of the curves. AUROC is the
    trapezoidal area under the ROC with (0, 0) prepended, which equals the
    pairwise (Mann-Whitney) estimator with ties counted as 1/2 (acceptance
    criterion 5 checks this to within 1e-9). AUPRC is the
    step sum of precision over recall increments.
    """
    y = np.asarray(window_labels, dtype=bool)
    s = np.asarray(window_scores, dtype=np.float64)
    if y.shape != s.shape:
        raise InvalidArgumentError("labels and scores differ in length")
    pos, neg = int(y.sum()), int((~y).sum())
    if pos == 0 or neg == 0:
        raise DegenerateDatasetError("curve metrics need both classes present")
    order = np.argsort(-s, kind="stable")
    s_sorted, y_sorted = s[order], y[order]
    # last index of each tie group
    boundary = np.flatnonzero(np.diff(s_sorted)) if s_sorted.size > 1 else np.array([], int)
    cut = np.concatenate([boundary, [s_sorted.size - 1]])
    tp = np.cumsum(y_sorted)[cut].astype(float)
    fp = np.cumsum(~y_sorted)[cut].astype(float)
    thresholds = s_sorted[cut]
    tpr = tp / pos
    fpr = fp / neg
    tpr_ext = np.concatenate([[0.0], tpr])
    fpr_ext = np.concatenate([[0.0], fpr])
    auroc = float(np.sum((fpr_ext[1:] - fpr_ext[:-1]) * (tpr_ext[1:] + tpr_ext[:-1]) / 2.0))
    precision = tp / (tp + fp)
    recall = tpr
    rec_ext = np.concatenate([[0.0], recall])
    auprc = float(np.sum((rec_ext[1:] - rec_ext[:-1]) * precision))
    return Curves(
        thresholds=thresholds,
        tpr=tpr,
        fpr=fpr,
        precision=precision,
        recall=recall,
        auroc=auroc,
        auprc=auprc,
    )


@dataclass
class OperatingPoints:
    youden_threshold: float
    tnr95_threshold: float | None  # None when TNR >= 0.95 is unattainable


def operating_points(curves: Curves, min_tnr: float = 0.95) -> OperatingPoints:
    """Threshold selection: max TPR+TNR, and the most sensitive point with
    TNR above the floor. Ties break to the lowest threshold."""
    tnr = 1.0 - curves.fpr
    j = curves.tpr + tnr
    best = np.flatnonzero(j >= j.max() - 1e-12)[-1]  # thresholds descend
    qualifying = np.flatnonzero(tnr >= min_tnr)
    tnr95 = float(curves.thresholds[qualifying[-1]]) if qualifying.size else None
    return OperatingPoints(
        youden_threshold=float(curves.thresholds[best]),
        tnr95_threshold=tnr95,
    )


# ---------------------------------------------------------------------------
# full report


@dataclass
class MetricsReport:
    """Every scoring family for one (labels, scores) evaluation."""

    auroc: float
    auprc: float
    youden_threshold: float
    tnr95_threshold: float | None
    epoch_tpr: float | None
    epoch_tnr: float | None
    ovlp_tpr: float | None
    ovlp_tnr: float | None
    ovlp_fa_per_24h: float
    taes_tpr: float | None
    taes_tnr: float | None
    taes_fa_per_24h: float
    margin_onset: dict[float, float] = field(default_factory=dict)
    margin_offset: dict[float, float] = field(default_factory=dict)
    onset_latency_mean_s: float | None = None
    onset_latency_missed: int = 0
    n_windows: int = 0
    total_duration_s: float = 0.0

    def to_dict(self) -> dict:
        d = {
            "auroc": self.auroc,
            "auprc": self.auprc,
            "youden_threshold": self.youden_threshold,
            "tnr95_threshold": self.tnr95_threshold,
            "epoch": {"tpr": self.epoch_tpr, "tnr": self.epoch_tnr},
            "ovlp": {
                "tpr": self.ovlp_tpr,
                "tnr": self.ovlp_tnr,
                "fa_per_24h": self.ovlp_fa_per_24h,
            },
            "taes": {
                "tpr": self.taes_tpr,
                "tnr": self.taes_tnr,
                "fa_per_24h": self.taes_fa_per_24h,
            },
            "margin": {
                str(m): {
                    "onset": self.margin_onset[m],
                    "offset": self.margin_offset[m],
                }
                for m in sorted(self.margin_onset)
            },
            "onset_latency": {
                "mean_s": self.onset_latency_mean_s,
                "missed": self.onset_latency_missed,
            },
            "n_windows": self.n_windows,
            "total_duration_s": self.total_duration_s,
        }
        return d

    def to_json(self) -> str:
        def clean(v):
            if isinstance(v, float) and math.isnan(v):
                return None
            return v

        return json.dumps(self.to_dict(), indent=2, sort_keys=True, default=clean)

    def to_text(self) -> str:
        def fmt(v) -> str:
            if v is None or (isinstance(v, float) and math.isnan(v)):
                return "n/a"
            return f"{v:.4f}" if isinstance(v, float) else str(v)

        lines = [
            f"windows          {self.n_windows}  ({self.total_duration_s:.1f} s)",
            f"AUROC / AUPRC    {fmt(self.auroc)} / {fmt(self.auprc)}",
            f"thresholds       youden={fmt(self.youden_threshold)}  "
            f"tnr95={fmt(self.tnr95_threshold)}",
            f"EPOCH            TPR={fmt(self.epoch_tpr)}  TNR={fmt(self.epoch_tnr)}",
            f"OVLP             TPR={fmt(self.ovlp_tpr)}  TNR={fmt(self.ovlp_tnr)}  "
            f"FA/24h={fmt(self.ovlp_fa_per_24h)}",
            f"TAES             TPR={fmt(self.taes_tpr)}  TNR={fmt(self.taes_tnr)}  "
            f"FA/24h={fmt(self.taes_fa_per_24h)}",
        ]
        for m in sorted(self.margin_onset):
            lines.append(
                f"MARGIN({m:g}s)       onset={fmt(self.margin_onset[m])}  "
                f"offset={fmt(self.margin_offset[m])}"
            )
        lines.append(
            f"onset latency    mean={fmt(self.onset_latency_mean_s)} s  "
            f"missed={self.onset_latency_missed}"
        )
        return "\n".join(lines) + "\n"


def evaluate_track(
    labels: LabelTrack,
    window_labels: np.ndarray,
    track: HypothesisTrack,
    margins_s: tuple[float, ...] = (3.0, 5.0),
    gap_merge_s: float = 0.0,
    min_event_s: float = 0.0,
) -> MetricsReport:
    """Score one hypothesis track with every metric family.

    OVLP/TAES/EPOCH use the TPR+TNR-maximizing threshold; MARGIN and onset
    latency use the most sensitive threshold keeping TNR >= 0.95.
    """
    curves = curve_metrics(window_labels, track.scores)
    points = operating_points(curves)

    def events_at(threshold: float) -> list[Interval]:
        opts = EventizeOpts(
            threshold=threshold, gap_merge_s=gap_merge_s, min_event_s=min_event_s
        )
        return track.events(opts)

    hyp_youden = events_at(points.youden_threshold)
    epoch_cc = epoch_counts(window_labels, track.scores >= points.youden_threshold)
    ovlp_cc, ovlp_fa = ovlp(labels, hyp_youden)
    taes_cc = taes(labels, hyp_youden)

    margin_onset: dict[float, float] = {}
    margin_offset: dict[float, float] = {}
    if points.tnr95_threshold is not None:
        hyp_margin = events_at(points.tnr95_threshold)
    else:
        hyp_margin = []
    for m in margins_s:
        on, off = margin(labels, hyp_margin, m)
        margin_onset[m], margin_offset[m] = on, off
    latency = onset_latency(labels, hyp_margin)

    return MetricsReport(
        auroc=curves.auroc,
        auprc=curves.auprc,
        youden_threshold=points.youden_threshold,
        tnr95_threshold=points.tnr95_threshold,
        epoch_tpr=epoch_cc.tpr,
        epoch_tnr=epoch_cc.tnr,
        ovlp_tpr=ovlp_cc.tpr,
        ovlp_tnr=ovlp_cc.tnr,
        ovlp_fa_per_24h=fa_per_24h(ovlp_fa, track.total_duration_s),
        taes_tpr=taes_cc.tpr,
        taes_tnr=taes_cc.tnr,
        taes_fa_per_24h=fa_per_24h(taes_cc.fp, track.total_duration_s),
        margin_onset=margin_onset,
        margin_offset=margin_offset,
        onset_latency_mean_s=latency.mean_s,
        onset_latency_missed=latency.n_missed,
        n_windows=int(track.scores.size),
        total_duration_s=track.total_duration_s,
    )


def export_hypothesis(track: HypothesisTrack, opts: EventizeOpts, path) -> None:
    """Write eventized hypotheses in the label format plus a probability column."""
    events = track.events(opts)
    shift = track.window.shift_s
    with open(path, "w") as fh:
        for a, b in events:
            k0, k1 = int(round(a / shift)), int(round(b / shift))
            prob = float(np.mean(track.scores[k0:k1])) if k1 > k0 else 0.0
            fh.write(f"{a:.3f} {b:.3f} seiz {prob:.6f}\n")
