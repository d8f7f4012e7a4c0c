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
# the most sensitive operating point must keep TNR at or above this
MIN_TNR = 0.95
# a hypothesis onset up to this long before a seizure onset still detects it
ONSET_SEARCH_BEFORE_S = 5.0


@dataclass(frozen=True)
class EventizeOpts:
    threshold: float = 0.5
    gap_merge_s: float = 0.0
    min_event_s: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.threshold <= 1.0):
            raise InvalidArgumentError(f"threshold must be in [0, 1], got {self.threshold:g}")
        for name in ("gap_merge_s", "min_event_s"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise InvalidArgumentError(f"{name} must be finite and >= 0, got {value:g}")


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
        if not np.all((self.scores >= 0) & (self.scores <= 1)):
            raise InvalidArgumentError("scores must lie in [0, 1]")


def _runs(scores, window: WindowSpec, opts: EventizeOpts) -> list[tuple[slice, Interval]]:
    """Each ``eventize`` event as (its window-index range [k0, k1), its interval)."""
    shift = float(window.shift_s)
    runs: list[list[int]] = []
    for k in np.flatnonzero(np.asarray(scores, dtype=np.float64) >= opts.threshold).tolist():
        if runs and k * shift - runs[-1][1] * shift <= opts.gap_merge_s + 1e-12:
            runs[-1][1] = k + 1
        else:
            runs.append([k, k + 1])
    return [
        (slice(k0, k1), (k0 * shift, k1 * shift))
        for k0, k1 in runs
        if k1 * shift - k0 * shift >= opts.min_event_s - 1e-12
    ]


def eventize(scores: np.ndarray, window: WindowSpec, opts: EventizeOpts) -> list[Interval]:
    """Binarize window scores into merged hypothesis events.

    Window k's decision covers the step interval [k*S, k*S + S), so a run of
    positive windows [k0, k1) covers [k0*S, k1*S). Adjacent positive steps
    merge, gaps <= gap_merge_s merge, short events drop.
    """
    return [interval for _, interval in _runs(scores, window, opts)]


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


def ovlp(labels: LabelTrack, hyp: list[Interval]) -> ConfusionCounts:
    """Any-overlap event scoring; ``fp`` counts the false-alarm events."""
    _check_hyp(hyp)
    seizures = [(ev.start_s, ev.stop_s) for ev in labels.seizure_events]
    counts = ConfusionCounts()
    for lab in seizures:
        if any(_overlap(lab, h) > 0 for h in hyp):
            counts.tp += 1
        else:
            counts.fn += 1
    for h in hyp:
        if not any(_overlap(lab, h) > 0 for lab in seizures):
            counts.fp += 1
    for bg in labels.background_intervals():
        if not any(_overlap(bg, h) > 0 for h in hyp):
            counts.tn += 1
    return counts


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
    if not 0 < margin_s < math.inf:
        raise InvalidArgumentError(f"margin_s must be positive and finite, got {margin_s:g}")
    _check_hyp(hyp)
    seizures = labels.seizure_events
    if not seizures:
        return math.nan, math.nan

    def share(times: list[float], edge: int) -> float:
        hits = sum(any(t - margin_s <= h[edge] <= t + margin_s for h in hyp) for t in times)
        return hits / len(times)

    return share([ev.start_s for ev in seizures], 0), share([ev.stop_s for ev in seizures], 1)


@dataclass
class OnsetLatency:
    mean_s: float | None
    n_missed: int


def onset_latency(labels: LabelTrack, hyp: list[Interval]) -> OnsetLatency:
    """Mean delay from label onset to the earliest matching hypothesis onset.

    A hypothesis matches when its onset falls in [onset -
    ONSET_SEARCH_BEFORE_S, offset]; events with no match are excluded from
    the mean and counted.
    """
    _check_hyp(hyp)
    latencies = []
    missed = 0
    for ev in labels.seizure_events:
        candidates = [
            h[0] for h in hyp if ev.start_s - ONSET_SEARCH_BEFORE_S <= h[0] <= ev.stop_s
        ]
        if candidates:
            latencies.append(min(candidates) - ev.start_s)
        else:
            missed += 1
    mean = float(np.mean(latencies)) if latencies else None
    return OnsetLatency(mean_s=mean, n_missed=missed)


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
    precision: np.ndarray  # the recall is tpr
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
    auprc = float(np.sum((tpr_ext[1:] - tpr_ext[:-1]) * precision))
    return Curves(
        thresholds=thresholds,
        tpr=tpr,
        fpr=fpr,
        precision=precision,
        auroc=auroc,
        auprc=auprc,
    )


@dataclass
class OperatingPoints:
    youden_threshold: float
    tnr95_threshold: float | None  # None when TNR >= 0.95 is unattainable


def operating_points(curves: Curves) -> OperatingPoints:
    """Threshold selection: max TPR+TNR, and the most sensitive point with
    TNR >= MIN_TNR. Ties break to the lowest threshold."""
    tnr = 1.0 - curves.fpr
    j = curves.tpr + tnr
    best = np.flatnonzero(j >= j.max() - 1e-12)[-1]  # thresholds descend
    qualifying = np.flatnonzero(tnr >= MIN_TNR)
    tnr95 = float(curves.thresholds[qualifying[-1]]) if qualifying.size else None
    return OperatingPoints(
        youden_threshold=float(curves.thresholds[best]),
        tnr95_threshold=tnr95,
    )


# ---------------------------------------------------------------------------
# full report


@dataclass
class MetricsReport:
    """Every scoring family for one (labels, scores) evaluation.

    ``record`` is ``report.json``: a nested dict of plain Python ``float``,
    ``int`` and ``None`` (a rate with no denominator), keyed in the order of
    ``sweep``'s columns. ``curves`` are the ROC/PR curves behind its
    ``auroc`` and ``auprc``, for ``curves.csv``.
    """

    record: dict
    curves: Curves = field(repr=False, compare=False)

    def to_row(self) -> dict:
        """``record`` flattened to one level, nested keys joined by dots."""

        def flatten(d: dict, prefix: str = ""):
            for key, value in d.items():
                if isinstance(value, dict):
                    yield from flatten(value, f"{prefix}{key}.")
                else:
                    yield prefix + key, value

        return dict(flatten(self.record))

    def to_json(self) -> str:
        return json.dumps(self.record, indent=2, sort_keys=True)

    def to_text(self) -> str:
        def fmt(v) -> str:
            if v is None or (isinstance(v, float) and math.isnan(v)):
                return "n/a"
            return f"{v:.4f}" if isinstance(v, float) else str(v)

        r = self.record
        lines = [
            f"windows          {r['n_windows']}  ({r['total_duration_s']:.1f} s)",
            f"AUROC / AUPRC    {fmt(r['auroc'])} / {fmt(r['auprc'])}",
            f"thresholds       youden={fmt(r['youden_threshold'])}  "
            f"tnr95={fmt(r['tnr95_threshold'])}",
        ]
        names = {"tpr": "TPR", "tnr": "TNR", "fa_per_24h": "FA/24h"}
        for family in ("epoch", "ovlp", "taes"):
            rates = "  ".join(f"{names[key]}={fmt(v)}" for key, v in r[family].items())
            lines.append(f"{family.upper():<17}{rates}")
        for m, edges in r["margin"].items():
            lines.append(
                f"MARGIN({float(m):g}s)       onset={fmt(edges['onset'])}  "
                f"offset={fmt(edges['offset'])}"
            )
        latency = r["onset_latency"]
        lines.append(
            f"onset latency    mean={fmt(latency['mean_s'])} s  missed={latency['missed']}"
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

    Both thresholds come from this track's own curves. EPOCH, OVLP and TAES
    use the TPR+TNR-maximizing (Youden) threshold; MARGIN and onset latency
    use the most sensitive threshold keeping TNR >= 0.95, and score no
    events when no threshold does. The record below is ``report.json``, in
    the order of ``sweep``'s columns, with the margins ascending.
    """
    curves = curve_metrics(window_labels, track.scores)
    points = operating_points(curves)
    duration = track.total_duration_s

    def events_at(threshold: float) -> list[Interval]:
        opts = EventizeOpts(threshold, gap_merge_s, min_event_s)
        return eventize(track.scores, track.window, opts)

    def event_rates(cc: ConfusionCounts) -> dict:
        return {"tpr": cc.tpr, "tnr": cc.tnr, "fa_per_24h": fa_per_24h(cc.fp, duration)}

    hyp_youden = events_at(points.youden_threshold)
    epoch_cc = epoch_counts(window_labels, track.scores >= points.youden_threshold)
    hyp_margin = [] if points.tnr95_threshold is None else events_at(points.tnr95_threshold)
    latency = onset_latency(labels, hyp_margin)
    record = {
        "auroc": curves.auroc,
        "auprc": curves.auprc,
        "youden_threshold": points.youden_threshold,
        "tnr95_threshold": points.tnr95_threshold,
        "epoch": {"tpr": epoch_cc.tpr, "tnr": epoch_cc.tnr},
        "ovlp": event_rates(ovlp(labels, hyp_youden)),
        "taes": event_rates(taes(labels, hyp_youden)),
        "margin": {
            str(m): dict(zip(("onset", "offset"), margin(labels, hyp_margin, m)))
            for m in sorted(margins_s)
        },
        "onset_latency": {"mean_s": latency.mean_s, "missed": latency.n_missed},
        "n_windows": int(track.scores.size),
        "total_duration_s": duration,
    }
    return MetricsReport(record, curves)


def export_hypothesis(track: HypothesisTrack, opts: EventizeOpts, path) -> None:
    """Write eventized hypotheses in the label format; the probability is the run's mean score."""
    with open(path, "w") as fh:
        for ks, (a, b) in _runs(track.scores, track.window, opts):
            fh.write(f"{a:.3f} {b:.3f} seiz {float(np.mean(track.scores[ks])):.6f}\n")
