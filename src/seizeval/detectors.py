"""Per-window detectors: linear models on feature tensors, and their fitters.

A LinearDetector scores one FeatureTensor per window with a LinearModel and
emits a score in [0, 1]. State is threaded explicitly so streaming replay is
reproducible; a detector is stateless unless exponential smoothing is enabled.

Two fitters turn labelled training windows into a LinearModel: train_linear
(logistic regression) and fit_energy (the energy baseline, a logistic squash
of mean band-0 energy calibrated on background windows). Both models are
saved, loaded and scored the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateDatasetError,
    IncompatibleFeatureError,
    InvalidArgumentError,
    MalformedHeaderError,
)
from .features import FeatureTensor
from .io import header_ints, open_input, read_header, read_payload, write_headed


# The logistic's argument is clipped to +-LOGIT_CAP, so exp never overflows.
LOGIT_CAP = 500.0


def logistic(z: float | np.ndarray) -> float | np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -LOGIT_CAP, LOGIT_CAP)))


@dataclass(frozen=True)
class DetectorState:
    """Per-stream memory carried between consecutive windows."""

    prev_score: float | None = None


# ---------------------------------------------------------------------------
# trainable linear model


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float
    feature_mean: np.ndarray
    feature_std: np.ndarray
    extractor_id: str
    feature_shape: tuple[int, int, int]
    loss_history: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        n = int(np.prod(self.feature_shape))
        if self.weights.shape != (n,):
            raise InvalidArgumentError("weight length must match feature dimensionality")
        values = (self.bias, self.weights, self.feature_mean, self.feature_std)
        if not all(np.isfinite(v).all() for v in values):
            raise InvalidArgumentError("model bias, weights, mean and std must be finite")
        if np.any(self.feature_std <= 0):
            raise InvalidArgumentError("feature std components must be positive")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 30
    batch_size: int = 32
    l2: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate < np.inf:
            raise InvalidArgumentError(
                f"learning_rate must be positive and finite, got {self.learning_rate:g}"
            )
        if not 0 <= self.l2 < np.inf:
            raise InvalidArgumentError(f"l2 must be finite and >= 0, got {self.l2:g}")
        if self.epochs < 1:
            raise InvalidArgumentError("epochs must be >= 1")
        if self.batch_size < 1:
            raise InvalidArgumentError(f"batch_size must be >= 1, got {self.batch_size}")


# Longest weight row ``LinearDetector`` takes one BLAS dot over: OpenBLAS
# splits a ``ddot`` of more than 10 000 elements across threads.
_DOT_ROW = 8192


class LinearDetector:
    """Scores ``logistic(w . (x - mean) / std + b)`` with one dot per window.

    The standardisation is folded into the weights and bias once, here:
    ``w / std`` and ``b - sum(w * mean / std)``. The folded weights are cut
    into ``k`` rows of at most ``_DOT_ROW`` elements, plus a tail of fewer
    than ``k``; ``detect`` takes the dot as one batched product of those rows
    (one single-threaded BLAS dot each) and sums the partial dots. Weights
    and accumulation are float64: each tensor is first cast to float64, an
    exact cast of a float32 tensor, so it scores bit for bit as its float64
    cast does. Scores differ from the unfolded expression only by rounding
    (at most 7e-13 relative on the models of a 300 s synthetic pair; see
    the README). The
    logit is clipped to ``LOGIT_CAP`` as in ``logistic``, so no logit
    overflows. With ``smoothing`` s > 0 a window scores
    ``s * previous + (1 - s) * current``; every score is clipped to [0, 1].
    ``detect`` trusts the tensor's kind; ``rtbench.run_stream`` checks it.
    """

    def __init__(self, model: LinearModel, smoothing: float = 0.0):
        if not 0 <= smoothing < 1:
            raise InvalidArgumentError(f"smoothing must be in [0, 1), got {smoothing:g}")
        self.model = model
        self.smoothing = smoothing
        self.extractor_id = model.extractor_id
        weights = model.weights / model.feature_std
        self._bias = model.bias - float(np.einsum("i,i->", model.feature_mean, weights))
        k = -(-weights.size // _DOT_ROW)
        self._head = k * (weights.size // k)
        self._rows = weights[: self._head].reshape(k, -1, 1)
        self._tail = weights[self._head :]

    def reset_state(self) -> DetectorState:
        return DetectorState()

    def detect(
        self, state: DetectorState, features: FeatureTensor
    ) -> tuple[float, DetectorState]:
        # one explicit cast: a float32 operand would make matmul cast per call
        f = np.asarray(features.flat(), dtype=np.float64)
        # a batch of row dots, each short enough that OpenBLAS keeps it on
        # one thread; a woken thread pool would spin between windows
        rows = self._rows
        z = np.matmul(f[: self._head].reshape(rows.shape[0], 1, -1), rows).sum()
        if self._tail.size:
            z += np.matmul(f[self._head :], self._tail)
        z = min(LOGIT_CAP, max(-LOGIT_CAP, float(z) + self._bias))
        score = 1.0 / (1.0 + math.exp(-z))
        if self.smoothing > 0 and state.prev_score is not None:
            score = self.smoothing * state.prev_score + (1 - self.smoothing) * score
        score = min(1.0, max(0.0, score))
        return score, DetectorState(prev_score=score)


# the name perfbench/worker.py traces as detectors.Detector.detect
Detector = LinearDetector


def train_linear(
    dataset: list[tuple[FeatureTensor, int]],
    cfg: TrainConfig | None = None,
) -> LinearModel:
    """Logistic regression by seeded mini-batch gradient descent."""
    cfg = cfg or TrainConfig()
    extractor_id, shape = _feature_kind(dataset)
    labels = np.array([int(y) for _, y in dataset], dtype=np.float64)
    if len(set(labels.tolist())) < 2:
        raise DegenerateDatasetError("training set contains a single class")
    # float64 arithmetic over float32 features: the tensors are cast once, here
    X = np.stack([feat.flat() for feat, _ in dataset], dtype=np.float64)
    mean = X.mean(axis=0)
    std = np.maximum(X.std(axis=0), 1e-8)
    Xn = (X - mean) / std

    rng = np.random.default_rng(cfg.seed)
    n, d = Xn.shape
    w = np.zeros(d)
    b = 0.0
    losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb, yb = Xn[idx], labels[idx]
            p = logistic(xb @ w + b)
            err = p - yb
            w -= cfg.learning_rate * (xb.T @ err / len(idx) + cfg.l2 * w)
            b -= cfg.learning_rate * float(err.mean())
        p = logistic(Xn @ w + b)
        eps = 1e-12
        loss = float(
            -np.mean(labels * np.log(p + eps) + (1 - labels) * np.log(1 - p + eps))
            + 0.5 * cfg.l2 * float(w @ w)
        )
        losses.append(loss)
    return LinearModel(
        weights=w,
        bias=b,
        feature_mean=mean,
        feature_std=std,
        extractor_id=extractor_id,
        feature_shape=shape,
        loss_history=losses,
    )


def fit_energy(dataset: list[tuple[FeatureTensor, int]]) -> LinearModel:
    """The energy baseline: a logistic squash of mean band-0 energy.

    The median band-0 energy of the background windows maps to score 0.1 and
    their 90th percentile to 0.5, so most background windows sit below a 0.5
    threshold. As a linear model: weight 1/(scale*C*T) on every band-0 entry
    of a (C, bands, T) tensor, 0 elsewhere, and bias -p90/scale.
    """
    extractor_id, shape = _feature_kind(dataset)
    if extractor_id != "bands":
        raise IncompatibleFeatureError(
            f"the energy baseline needs 'bands' features, got {extractor_id!r}"
        )
    energies = [feat.data[:, 0, :].mean(dtype=np.float64) for feat, y in dataset if not y]
    if not energies:
        raise DegenerateDatasetError("no background windows to calibrate on")
    p50, p90 = np.percentile(energies, [50, 90])
    scale = max((p90 - p50) / np.log(9.0), 1e-9)
    n_channels, _, n_frames = shape
    weights = np.zeros(shape)
    weights[:, 0, :] = 1.0 / (scale * n_channels * n_frames)
    return LinearModel(
        weights=weights.ravel(),
        bias=float(-p90 / scale),
        feature_mean=np.zeros(weights.size),
        feature_std=np.ones(weights.size),
        extractor_id=extractor_id,
        feature_shape=shape,
    )


def _feature_kind(dataset: list[tuple[FeatureTensor, int]]) -> tuple[str, tuple[int, int, int]]:
    """The (extractor_id, shape) shared by every tensor of a non-empty training set."""
    if not dataset:
        raise DegenerateDatasetError("empty training set")
    extractor_id, shape = dataset[0][0].extractor_id, dataset[0][0].shape
    for feat, _ in dataset:
        if feat.extractor_id != extractor_id or feat.shape != shape:
            raise IncompatibleFeatureError("mixed feature kinds in training set")
    return extractor_id, shape


# ---------------------------------------------------------------------------
# model serialization: a headed file (see io), payload float64 bias, weights, mean, std

_MODEL_MAGIC = "#SEIZMODEL v1"


def save_model(model: LinearModel, path: str | Path) -> None:
    fields = {
        "extractor_id": model.extractor_id,
        "feature_shape": ",".join(map(str, model.feature_shape)),
        "n_dims": model.weights.shape[0],
    }
    payload = np.concatenate(
        [[model.bias], model.weights, model.feature_mean, model.feature_std]
    )
    write_headed(path, _MODEL_MAGIC, fields, payload, "<f8")


def load_model(path: str | Path) -> LinearModel:
    with open_input(path, "rb") as fh:
        fields = read_header(fh, path, _MODEL_MAGIC)
        if "extractor_id" not in fields:
            raise MalformedHeaderError(f"{path}: missing header field 'extractor_id'")
        shape = header_ints(path, fields, "feature_shape", minimum=1, n=3)
        (n_dims,) = header_ints(path, fields, "n_dims", minimum=1)
        payload = read_payload(fh, path, "<f8", 1 + 3 * n_dims)
    try:
        return LinearModel(
            weights=payload[1 : 1 + n_dims],
            bias=float(payload[0]),
            feature_mean=payload[1 + n_dims : 1 + 2 * n_dims],
            feature_std=payload[1 + 2 * n_dims :],
            extractor_id=fields["extractor_id"],
            feature_shape=shape,  # type: ignore[arg-type]
        )
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"{path}: {exc}") from None
