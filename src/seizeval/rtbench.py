"""Streaming harness: drive windows through extractor + detector and time them.

The real-time contract: every window after the first (the warm-up) must be
processed within the window shift; ``seizeval run`` exits 3 when one is not.
Timing brackets exactly the extract+detect section; I/O, labeling, and
bookkeeping are outside the measured region.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Recording, Window, WindowSpec, _window_starts, slice_windows
from .detectors import LinearDetector, LinearModel
from .errors import IncompatibleFeatureError, InvalidArgumentError, NonFiniteSampleError
from .features import FeatureTensor
from .metrics import HypothesisTrack

Extractor = Callable[[np.ndarray], FeatureTensor]


def check_budget(budget_s: float) -> None:
    """Reject a shift budget that is negative or not finite."""
    # zero is allowed: no measured window meets it, so run exits 3
    if not 0 <= budget_s < np.inf:
        raise InvalidArgumentError(f"shift budget must be finite and >= 0, got {budget_s:g}")


@dataclass
class LatencyReport:
    extract_s: np.ndarray  # per-window feature extraction time
    detect_s: np.ndarray  # per-window detector time
    shift_budget_s: float

    def __post_init__(self) -> None:
        if self.extract_s.size == 0:
            raise InvalidArgumentError("latency report is empty")
        check_budget(self.shift_budget_s)

    @property
    def total_s(self) -> np.ndarray:
        return self.extract_s + self.detect_s

    @property
    def n_windows(self) -> int:
        return int(self.total_s.size)

    def _measured(self) -> np.ndarray:
        # the first window is the warm-up; a one-window report keeps it
        t = self.total_s
        return t[1:] if t.size > 1 else t

    @property
    def mean_s(self) -> float:
        return float(self._measured().mean())

    @property
    def max_s(self) -> float:
        return float(self._measured().max())

    @property
    def p95_s(self) -> float:
        return float(np.percentile(self._measured(), 95))

    @property
    def passed(self) -> bool:
        # inclusive: a window taking exactly the budget still meets it
        return self.max_s <= self.shift_budget_s

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"windows={self.n_windows} mean={self.mean_s:.6f}s "
            f"p95={self.p95_s:.6f}s max={self.max_s:.6f}s "
            f"budget={self.shift_budget_s:g}s [{verdict}]"
        )

    def per_window_csv(self) -> str:
        rows = ["window,extract_s,detect_s,total_s"]
        for i, (e, d) in enumerate(zip(self.extract_s, self.detect_s)):
            rows.append(f"{i},{e:.9f},{d:.9f},{e + d:.9f}")
        return "\n".join(rows) + "\n"


def extract_window(extractor: Extractor, window: Window) -> FeatureTensor:
    """``extractor(window.samples)``; a rejected sample names the window's
    index and start time."""
    try:
        return extractor(window.samples)
    except NonFiniteSampleError as exc:
        raise NonFiniteSampleError(f"window {window.index} at {window.start_s:g} s: {exc}")


def _check_fits(features: FeatureTensor, model: LinearModel) -> None:
    if features.extractor_id != model.extractor_id:
        raise IncompatibleFeatureError(
            f"detector expects {model.extractor_id!r} features, got {features.extractor_id!r}"
        )
    if features.shape != model.feature_shape:
        raise IncompatibleFeatureError(
            f"feature shape {features.shape} does not match the model's {model.feature_shape}"
        )


def run_stream(
    rec: Recording,
    extractor: Extractor,
    detector: LinearDetector,
    spec: WindowSpec | None = None,
    budget_s: float | None = None,
) -> tuple[HypothesisTrack, LatencyReport]:
    """Process windows strictly in order, threading detector state through.

    Scores are identical to offline batch scoring of the same windows; the
    timed section covers only extraction and detection. The report holds
    every window after the first to ``budget_s``, the shift by default. Only
    the first tensor is checked against the model: all windows, so all
    tensors, share a shape. A rejected sample names its window
    (``extract_window``).
    """
    spec = spec or WindowSpec()
    state = detector.reset_state()
    # one float64 per window for each record, filled as the stream goes
    scores, extract_s, detect_s = np.empty((3, _window_starts(rec, spec).size))
    for window in slice_windows(rec, spec):
        k = window.index
        t0 = time.perf_counter()
        features = extract_window(extractor, window)
        t1 = time.perf_counter()
        if k == 0:
            _check_fits(features, detector.model)
        score, state = detector.detect(state, features)
        t2 = time.perf_counter()
        scores[k], extract_s[k], detect_s[k] = score, t1 - t0, t2 - t1
    track = HypothesisTrack(scores=scores, window=spec, total_duration_s=rec.duration_s)
    report = LatencyReport(
        extract_s=extract_s,
        detect_s=detect_s,
        shift_budget_s=spec.shift_s if budget_s is None else budget_s,
    )
    return track, report
