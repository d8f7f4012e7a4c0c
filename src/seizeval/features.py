"""Per-window signal feature extractors.

Six extractors share one contract: input is a (channels, samples) float
window at the pipeline rate, output is a 3-axis FeatureTensor. All of them
are pure and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import signal as sps
from scipy.fft import dct, rfft

from .core import PIPELINE_RATE_HZ
from .errors import InvalidArgumentError, MalformedHeaderError, TruncatedPayloadError

DEFAULT_BAND_EDGES: tuple[tuple[float, float], ...] = (
    (1, 4), (4, 8), (8, 12), (12, 30), (30, 50), (50, 70), (70, 100),
)

AXIS_NAMES = ("channels_or_filters", "bins", "frames")


@dataclass
class FeatureTensor:
    data: np.ndarray
    extractor_id: str
    axes: tuple[str, str, str] = AXIS_NAMES

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data)
        if self.data.ndim != 3:
            raise InvalidArgumentError(
                f"feature tensor must be 3-axis, got shape {self.data.shape}"
            )
        if not np.isfinite(self.data).all():
            raise InvalidArgumentError("feature tensor contains non-finite values")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    def flat(self) -> np.ndarray:
        return self.data.reshape(-1)


def _check_window(samples: np.ndarray) -> np.ndarray:
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise InvalidArgumentError("window must be 2-D (channels, samples)")
    if not np.isfinite(samples).all():
        raise InvalidArgumentError("window contains non-finite samples")
    return samples


# ---------------------------------------------------------------------------
# raw


def extract_raw(samples: np.ndarray) -> FeatureTensor:
    """Identity passthrough shaped (channels, 1, samples)."""
    x = _check_window(samples)
    return FeatureTensor(x[:, None, :], extractor_id="raw")


# ---------------------------------------------------------------------------
# STFT


@dataclass(frozen=True)
class StftParams:
    """Framing parameters for the magnitude spectrogram.

    Two presets are provided: ``literal`` keeps the stated frame length and
    50% hop with no padding; ``shape_compat`` (the default elsewhere) pins
    fft_size=198 / hop=8 with reflect padding so a 4 s, 200 Hz window maps
    to a 100x100 spectrogram.
    """

    frame_len_s: float = 0.125
    hop_fraction: float = 0.5
    fft_size: int | None = None
    window_fn: str = "hann"
    hop_samples: int | None = None
    pad_to_frames: int | None = None

    def __post_init__(self) -> None:
        if not (0 < self.hop_fraction <= 1):
            raise InvalidArgumentError("hop_fraction must be in (0, 1]")
        if self.frame_len_s <= 0:
            raise InvalidArgumentError("frame_len_s must be positive")
        if self.window_fn != "hann":
            raise InvalidArgumentError(f"unsupported window_fn {self.window_fn!r}")

    @classmethod
    def literal(cls) -> "StftParams":
        return cls()

    @classmethod
    def shape_compat(cls) -> "StftParams":
        return cls(fft_size=198, hop_samples=8, pad_to_frames=100)

    def frame_samples(self, fs: int) -> int:
        n = int(round(self.frame_len_s * fs))
        if n < 1:
            raise InvalidArgumentError("frame shorter than one sample")
        return n

    def hop(self, fs: int) -> int:
        if self.hop_samples is not None:
            return self.hop_samples
        return max(1, int(round(self.frame_samples(fs) * self.hop_fraction)))

    def nfft(self, fs: int) -> int:
        n = self.fft_size if self.fft_size is not None else self.frame_samples(fs)
        if n < self.frame_samples(fs):
            raise InvalidArgumentError("fft_size must be >= frame length")
        return n


def _frame_signal(x: np.ndarray, frame: int, hop: int, pad_to_frames: int | None) -> np.ndarray:
    if pad_to_frames is not None:
        needed = (pad_to_frames - 1) * hop + frame
        if needed > x.shape[1]:
            pad = needed - x.shape[1]
            left = pad // 2
            x = np.pad(x, ((0, 0), (left, pad - left)), mode="reflect")
    if x.shape[1] < frame:
        raise InvalidArgumentError("frame longer than window")
    return np.lib.stride_tricks.sliding_window_view(x, frame, axis=1)[:, ::hop, :]


@lru_cache(maxsize=8)
def _dft_basis(frame: int, nfft: int) -> np.ndarray:
    """Read-only (frame, 2 * bins) Hann-tapered real DFT basis, [cos | -sin].

    ``frames @ basis`` equals ``rfft(frames * hann, n=nfft)`` split into real
    and imaginary halves; the zero padding to ``nfft`` never materialises.
    Angles use ``(n * k) % nfft`` so large products lose no precision.
    """
    taper = sps.get_window("hann", frame, fftbins=True)
    nk = np.outer(np.arange(frame), np.arange(nfft // 2 + 1)) % nfft
    angle = (2 * np.pi / nfft) * nk
    basis = np.concatenate([np.cos(angle), -np.sin(angle)], axis=1) * taper[:, None]
    basis.flags.writeable = False
    return basis


def _stft_mags(x: np.ndarray, params: StftParams, fs: int) -> np.ndarray:
    """Magnitudes shaped (channels, frames, bins), one channel at a time.

    Per-channel products keep every temporary small (about 160 KB for the
    default preset), so the allocator reuses their memory from window to
    window instead of faulting in fresh pages each time.
    """
    frame = params.frame_samples(fs)
    nfft = params.nfft(fs)
    frames = _frame_signal(x, frame, params.hop(fs), params.pad_to_frames)
    basis = _dft_basis(frame, nfft)
    bins = nfft // 2 + 1
    mags = np.empty((frames.shape[0], frames.shape[1], bins))
    for block, out in zip(frames, mags):
        z = block @ basis
        np.square(z, out=z)
        np.add(z[:, :bins], z[:, bins:], out=out)
        np.sqrt(out, out=out)
    return mags


def stft(
    samples: np.ndarray,
    params: StftParams | None = None,
    sample_rate_hz: int = PIPELINE_RATE_HZ,
) -> FeatureTensor:
    """Hann-windowed one-sided magnitude spectrogram, (channels, bins, frames).

    Magnitudes come from a cached Hann-DFT basis (``_dft_basis``) rather than
    a zero-padded FFT per frame. They differ from ``abs(rfft(frames * hann,
    n=nfft))`` by less than 1e-15 of the window's largest magnitude; band
    averages differ by under 2e-14 relative.
    """
    x = _check_window(samples)
    mags = _stft_mags(x, params or StftParams.shape_compat(), sample_rate_hz)
    return FeatureTensor(np.transpose(mags, (0, 2, 1)), extractor_id="stft")


def stft_bin_freqs(params: StftParams, sample_rate_hz: int = PIPELINE_RATE_HZ) -> np.ndarray:
    nfft = params.nfft(sample_rate_hz)
    return np.arange(nfft // 2 + 1) * sample_rate_hz / nfft


# ---------------------------------------------------------------------------
# frequency bands


@dataclass(frozen=True)
class BandSpec:
    edges: tuple[tuple[float, float], ...] = DEFAULT_BAND_EDGES

    def __post_init__(self) -> None:
        prev_hi = 0.0
        for lo, hi in self.edges:
            if lo >= hi:
                raise InvalidArgumentError(f"band ({lo}, {hi}) is inverted")
            if lo < prev_hi - 1e-9:
                raise InvalidArgumentError("bands must be ordered")
            prev_hi = hi

    @property
    def n_bands(self) -> int:
        return len(self.edges)


def frequency_bands(
    samples: np.ndarray,
    params: StftParams | None = None,
    bands: BandSpec | None = None,
    sample_rate_hz: int = PIPELINE_RATE_HZ,
    power: bool = False,
) -> FeatureTensor:
    """STFT magnitudes averaged per band, (channels, n_bands, frames)."""
    params = params or StftParams.shape_compat()
    bands = bands or BandSpec()
    nyquist = sample_rate_hz / 2
    for lo, hi in bands.edges:
        if hi > nyquist:
            raise InvalidArgumentError(f"band ({lo}, {hi}) exceeds Nyquist {nyquist}")
    mags = _stft_mags(_check_window(samples), params, sample_rate_hz)
    if power:
        np.square(mags, out=mags)
    freqs = stft_bin_freqs(params, sample_rate_hz)
    averaging = np.zeros((freqs.size, bands.n_bands))
    for b, (lo, hi) in enumerate(bands.edges):
        mask = (freqs >= lo) & (freqs < hi)
        if not mask.any():
            raise InvalidArgumentError(f"band ({lo}, {hi}) covers no STFT bin")
        averaging[mask, b] = 1.0 / mask.sum()
    out = np.transpose(mags @ averaging, (0, 2, 1))
    return FeatureTensor(out, extractor_id="bands")


# ---------------------------------------------------------------------------
# LFCC


@dataclass(frozen=True)
class LfccParams:
    frame_len_s: float = 0.3
    hop_s: float = 0.15
    n_filters: int = 20
    n_coeffs: int = 8
    pad_edges: bool = False
    log_floor: float = 1e-10

    def __post_init__(self) -> None:
        if self.n_coeffs > self.n_filters:
            raise InvalidArgumentError("n_coeffs must not exceed n_filters")
        if self.frame_len_s <= 0 or self.hop_s <= 0:
            raise InvalidArgumentError("frame and hop must be positive")


def linear_triangular_filterbank(
    n_filters: int, n_bins: int, sample_rate_hz: int, nfft: int
) -> np.ndarray:
    """(n_filters, n_bins) triangular filters linearly spaced over 0..Nyquist."""
    nyquist = sample_rate_hz / 2
    centers = np.linspace(0, nyquist, n_filters + 2)
    freqs = np.arange(n_bins) * sample_rate_hz / nfft
    bank = np.zeros((n_filters, n_bins))
    for i in range(n_filters):
        lo, mid, hi = centers[i], centers[i + 1], centers[i + 2]
        rising = (freqs - lo) / (mid - lo)
        falling = (hi - freqs) / (hi - mid)
        bank[i] = np.clip(np.minimum(rising, falling), 0, None)
    return bank


def lfcc(
    samples: np.ndarray,
    params: LfccParams | None = None,
    sample_rate_hz: int = PIPELINE_RATE_HZ,
) -> FeatureTensor:
    """Absolute linear-frequency cepstral coefficients, (channels, n_coeffs, frames)."""
    x = _check_window(samples)
    params = params or LfccParams()
    frame = int(round(params.frame_len_s * sample_rate_hz))
    hop = int(round(params.hop_s * sample_rate_hz))
    if frame > x.shape[1]:
        raise InvalidArgumentError("LFCC frame longer than window")
    if params.pad_edges:
        x = np.pad(x, ((0, 0), (hop, hop)), mode="reflect")
    frames = np.lib.stride_tricks.sliding_window_view(x, frame, axis=1)[:, ::hop, :]
    power = np.abs(rfft(frames, axis=2)) ** 2
    bank = linear_triangular_filterbank(
        params.n_filters, power.shape[2], sample_rate_hz, frame
    )
    energies = np.maximum(power @ bank.T, params.log_floor)
    ceps = dct(np.log(energies), type=2, norm="ortho", axis=2)[:, :, : params.n_coeffs]
    return FeatureTensor(np.abs(np.transpose(ceps, (0, 2, 1))), extractor_id="lfcc")


# ---------------------------------------------------------------------------
# sinc filterbank


def design_sinc_kernel(
    f1_hz: float,
    f2_hz: float,
    kernel_len: int,
    sample_rate_hz: int = PIPELINE_RATE_HZ,
    windowed: bool = True,
    normalized: bool = True,
) -> np.ndarray:
    """Band-pass FIR as a difference of scaled sincs, Hamming-tapered.

    With ``normalized`` the kernel is scaled so the peak of its magnitude
    response is 1.
    """
    nyquist = sample_rate_hz / 2
    if not (0 <= f1_hz < f2_hz <= nyquist):
        raise InvalidArgumentError(
            f"need 0 <= f1 < f2 <= {nyquist}, got ({f1_hz}, {f2_hz})"
        )
    n = np.arange(kernel_len) - (kernel_len - 1) / 2
    f1n, f2n = f1_hz / sample_rate_hz, f2_hz / sample_rate_hz
    h = 2 * f2n * np.sinc(2 * f2n * n) - 2 * f1n * np.sinc(2 * f1n * n)
    if windowed:
        h = h * np.hamming(kernel_len)
    if normalized:
        peak = np.abs(rfft(h, n=4096)).max()
        if peak > 0:
            h = h / peak
    return h


@dataclass(frozen=True)
class SincBank:
    n_filters: int = 7
    kernel_len: int = 80
    stride: int = 2
    bands: tuple[tuple[float, float], ...] = DEFAULT_BAND_EDGES

    def __post_init__(self) -> None:
        if self.kernel_len % 2 != 0:
            raise InvalidArgumentError("kernel_len must be even")
        if self.stride < 1:
            raise InvalidArgumentError("stride must be >= 1")
        if len(self.bands) != self.n_filters:
            raise InvalidArgumentError("band list length must match n_filters")


def sinc_filterbank(
    samples: np.ndarray,
    bank: SincBank | None = None,
    sample_rate_hz: int = PIPELINE_RATE_HZ,
) -> FeatureTensor:
    """Strided band-pass convolution, (n_filters, channels, ceil(N/stride))."""
    x = _check_window(samples)
    bank = bank or SincBank()
    outs = []
    for f1, f2 in bank.bands:
        kernel = design_sinc_kernel(f1, f2, bank.kernel_len, sample_rate_hz)
        # zero same-padding so 800 samples at stride 2 give 400 outputs
        y = sps.fftconvolve(x, kernel[None, :], mode="same", axes=1)
        outs.append(y[:, :: bank.stride])
    return FeatureTensor(np.stack(outs), extractor_id="sincnet")


# ---------------------------------------------------------------------------
# multi-rate raw


@dataclass(frozen=True)
class MultiRateParams:
    rates_hz: tuple[int, ...] = (200, 100, 50)
    anti_alias: bool = False
    anti_alias_cutoff_hz: float = 100.0
    anti_alias_taps: int = 101


def _anti_alias_kernel(cutoff_hz: float, taps: int, sample_rate_hz: int) -> np.ndarray:
    n = np.arange(taps) - (taps - 1) / 2
    fc = min(cutoff_hz, sample_rate_hz / 2) / sample_rate_hz
    h = 2 * fc * np.sinc(2 * fc * n) * np.hamming(taps)
    return h / h.sum()


def multirate(
    samples: np.ndarray,
    params: MultiRateParams | None = None,
    sample_rate_hz: int = PIPELINE_RATE_HZ,
) -> list[FeatureTensor]:
    """Decimated copies of the raw window, one tensor per rate."""
    x = _check_window(samples)
    params = params or MultiRateParams()
    if params.anti_alias:
        kernel = _anti_alias_kernel(
            params.anti_alias_cutoff_hz, params.anti_alias_taps, sample_rate_hz
        )
        x = sps.fftconvolve(x, kernel[None, :], mode="same", axes=1)
    out = []
    for rate in params.rates_hz:
        if rate <= 0 or sample_rate_hz % rate != 0:
            raise InvalidArgumentError(f"rate {rate} does not divide {sample_rate_hz}")
        factor = sample_rate_hz // rate
        out.append(
            FeatureTensor(x[:, None, ::factor], extractor_id=f"multirate@{rate}")
        )
    return out


# ---------------------------------------------------------------------------
# extractor registry (CLI / streaming pipeline surface)

EXTRACTOR_NAMES = ("raw", "sincnet", "stft", "bands", "lfcc", "multirate")


def get_extractor(
    name: str, sample_rate_hz: int = PIPELINE_RATE_HZ
) -> Callable[[np.ndarray], FeatureTensor]:
    """Resolve an extractor by CLI name to a window -> FeatureTensor callable.

    ``multirate`` concatenates its per-rate streams along the time axis so it
    fits the single-tensor detector interface.
    """
    if name == "raw":
        return extract_raw
    if name == "sincnet":
        return lambda w: sinc_filterbank(w, sample_rate_hz=sample_rate_hz)
    if name == "stft":
        return lambda w: stft(w, sample_rate_hz=sample_rate_hz)
    if name == "bands":
        return lambda w: frequency_bands(w, sample_rate_hz=sample_rate_hz)
    if name == "lfcc":
        return lambda w: lfcc(w, sample_rate_hz=sample_rate_hz)
    if name == "multirate":

        def _multi(w: np.ndarray) -> FeatureTensor:
            streams = multirate(w, sample_rate_hz=sample_rate_hz)
            data = np.concatenate([t.data for t in streams], axis=2)
            return FeatureTensor(data, extractor_id="multirate")

        return _multi
    raise InvalidArgumentError(
        f"unknown extractor {name!r}; expected one of {EXTRACTOR_NAMES}"
    )


# ---------------------------------------------------------------------------
# tensor dump format


def save_tensor(tensor: FeatureTensor, path: str | Path, binary: bool = False) -> None:
    """Metadata line + flattened row-major values, text or binary."""
    meta = (
        f"{tensor.extractor_id} {tensor.shape[0]} {tensor.shape[1]} "
        f"{tensor.shape[2]} {'f32' if binary else 'text'}\n"
    )
    if binary:
        with open(path, "wb") as fh:
            fh.write(meta.encode("ascii"))
            fh.write(tensor.flat().astype("<f4").tobytes())
    else:
        with open(path, "w") as fh:
            fh.write(meta)
            np.savetxt(fh, tensor.flat()[None, :], fmt="%.9g")


def load_tensor(path: str | Path) -> FeatureTensor:
    with open(path, "rb") as fh:
        meta = fh.readline().decode("ascii").split()
        if len(meta) != 5:
            raise MalformedHeaderError(f"{path}: bad tensor metadata line")
        extractor_id, *dims, kind = meta
        shape = tuple(int(d) for d in dims)
        expected = int(np.prod(shape))
        if kind == "f32":
            payload = fh.read()
            count = min(len(payload) // 4, expected)
            data = np.frombuffer(payload, dtype="<f4", count=count)
        else:
            data = np.array(fh.read().decode("ascii").split(), dtype=np.float64)
    if data.size < expected:
        raise TruncatedPayloadError(
            f"{path}: payload holds {data.size} values, expected {expected}"
        )
    return FeatureTensor(np.asarray(data, dtype=np.float64).reshape(shape), extractor_id)
