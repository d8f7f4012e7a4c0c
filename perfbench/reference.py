"""The benchmark's own reference for the ingest-sincnet pipeline (numpy/scipy only).

Each step is written from its specification, not from the package's code:
the recording file layout, anode-minus-cathode bipolar rows, polyphase
resampling with a Kaiser (beta 8) windowed-sinc filter of 64 taps per phase,
and the sinc filterbank (difference of sincs, Hamming taper, peak response
1, zero "same" padding, stride 2). The worker compares the package's outputs
with these after the timed phase; a mismatch fails the ops it covers.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy import signal as sps

HEADER_END = b"end_header\n"


def read_recording(path: Path) -> tuple[int, list[str], np.ndarray]:
    """Sample rate, channel names and (channels, samples) float32 of a recording file."""
    raw = Path(path).read_bytes()
    sep = raw.index(HEADER_END)
    fields = dict(line.split("=", 1) for line in raw[:sep].decode("ascii").splitlines()[1:])
    n_ch, n = int(fields["n_channels"]), int(fields["n_samples"])
    data = np.frombuffer(raw, dtype="<f4", count=n_ch * n, offset=sep + len(HEADER_END))
    return int(fields["sample_rate_hz"]), fields["channels"].split(","), data.reshape(n_ch, n)


def bipolar(names: list[str], samples: np.ndarray, pairs) -> np.ndarray:
    row = {name: i for i, name in enumerate(names)}
    return np.stack([samples[row[a]] - samples[row[c]] for a, c in pairs])


def resample(samples: np.ndarray, fs_in: int, fs_out: int) -> np.ndarray:
    """Polyphase resampling to `fs_out`, trimmed to round(n * fs_out / fs_in), as float32."""
    g = math.gcd(fs_in, fs_out)
    up, down = fs_out // g, fs_in // g
    taps = 2 * 32 * max(up, down) + 1
    h = sps.firwin(taps, 1.0 / max(up, down), window=("kaiser", 8.0))
    out = sps.resample_poly(samples.astype(np.float64), up, down, axis=1, window=h,
                            padtype="line")  # fmt: skip
    return out[:, : round(samples.shape[1] * fs_out / fs_in)].astype(np.float32)


def sinc_kernel(f1: float, f2: float, taps: int, fs: int) -> np.ndarray:
    n = np.arange(taps) - (taps - 1) / 2
    h = 2 * f2 / fs * np.sinc(2 * f2 / fs * n) - 2 * f1 / fs * np.sinc(2 * f1 / fs * n)
    h = h * np.hamming(taps)
    return h / np.abs(np.fft.rfft(h, n=4096)).max()


def sinc_features(window: np.ndarray, fs: int, bands, taps: int = 80, stride: int = 2):
    """(bands, channels, ceil(samples / stride)) band-passed, strided window."""
    x = np.asarray(window, dtype=np.float64)
    out = []
    for f1, f2 in bands:
        k = sinc_kernel(f1, f2, taps, fs)
        out.append(np.stack([np.convolve(row, k, mode="same") for row in x])[:, ::stride])
    return np.stack(out)


def linear_score(features: np.ndarray, model) -> float:
    """Logistic score of a linear model on standardised, flattened features."""
    z = ((features.reshape(-1) - model.feature_mean) / model.feature_std) @ model.weights
    return float(1.0 / (1.0 + np.exp(-(z + model.bias))))


def logit(score: float) -> float:
    """log(s / (1 - s)); infinite at 0 and 1."""
    if 0.0 < score < 1.0:
        return math.log(score) - math.log1p(-score)
    return math.copysign(math.inf, score - 0.5)


LOGIT_CAP = 500.0  # the detector's logistic clips its argument to +-500


def same_score(got: float, want: float, tol: float) -> bool:
    """Scores agree to a relative `tol` on the logit scale, where scores
    squeezed against 0 or 1 still differ; logits beyond the cap compare as the cap."""
    a, b = (max(-LOGIT_CAP, min(LOGIT_CAP, logit(s))) for s in (got, want))
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """RMS of the difference over RMS of the reference (inf on a shape mismatch)."""
    if got.shape != want.shape:
        return math.inf
    scale = float(np.sqrt(np.mean(np.square(want, dtype=np.float64))))
    diff = float(np.sqrt(np.mean(np.square(got - want, dtype=np.float64))))
    return diff / scale if scale > 0 else diff
