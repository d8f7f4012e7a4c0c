"""Per-window signal feature extractors.

Six extractors share one contract: input is a (channels, samples) float
window at the recording's rate, which ``_check_window`` checks (the one
check a streamed window gets), and output is one 3-axis FeatureTensor
(``multirate`` joins its three decimated copies into one). Each has one
configuration, held in module constants, so each takes at most the window,
the rate and, for ``sinc_filterbank``, ``stft`` and ``frequency_bands``, an
optional cache. All are pure and deterministic, and those three block
extractors return read-only tensors.

``raw``, ``multirate``, ``stft`` and ``bands`` keep a float32 window, as
every recording's windows are, in float32 end to end. ``_check_window``
picks the working dtype from the window's dtype and peak: float32 for a
float32 window none of whose DFT products can come near ``FLOAT32_MAX``
(``_F32_PEAK``), float64 for any other window. The cached DFT and band
matrices exist in both dtypes, and the same code runs in either and returns
tensors of that dtype. ``sinc_filterbank`` keeps the window in its working
dtype too, but casts the samples its products read to float64, so its
products and outputs are float64 whatever the window; ``lfcc`` computes in
float64 whatever the window. The ``sincnet``, ``stft`` and ``bands``
callables from ``get_extractor`` keep per-stream state: a ``BlockCache``
that holds the previous window and the tensor returned for it, whose
outputs the next window can reuse. What they return still depends on the
window alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .core import _ONE_THREAD_MACS, FLOAT32_MAX, PIPELINE_RATE_HZ
from .errors import InvalidArgumentError, NonFiniteSampleError

DEFAULT_BAND_EDGES: tuple[tuple[float, float], ...] = (
    (1, 4), (4, 8), (8, 12), (12, 30), (30, 50), (50, 70), (70, 100),
)


@dataclass
class FeatureTensor:
    """A plain record: one window's 3-axis features and their extractor's id."""

    data: np.ndarray
    extractor_id: str

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    def flat(self) -> np.ndarray:
        return self.data.reshape(-1)


def _check_window(samples: np.ndarray) -> np.ndarray:
    """A new copy of a (channels, samples) window in its working dtype, owned
    by the caller.

    It rejects a window whose values are not real numbers (a dtype other than
    bool, integer or float, such as complex or string), NaN, inf and any
    sample beyond float32 range. A float32 window whose samples stay within
    ``_F32_PEAK`` in magnitude is copied in float32; any other window, a
    float32 one with a larger peak or one of any other dtype, is copied in
    float64, so a float64 window loses no precision. Every extractor maps
    what passes to finite outputs, so no output is checked: ``stft`` and
    ``bands`` take magnitudes of bounded products (see ``_F32_PEAK``),
    ``sinc`` is a bounded FIR, ``lfcc`` floors before its log, and ``raw``
    and ``multirate`` copy.
    """
    x = np.asarray(samples)
    if x.dtype.kind not in "biuf":
        raise InvalidArgumentError(f"window samples must be real numbers, not dtype {x.dtype}")
    if x.dtype != np.float32:
        x = x.astype(np.float64, copy=False)
    if x.ndim != 2:
        raise InvalidArgumentError("window must be 2-D (channels, samples)")
    if x.shape[1] == 0:
        raise InvalidArgumentError("window has no samples")
    # two reductions and no temporary array; a NaN maximum fails the comparison
    hi, lo = x.max(initial=0.0), x.min(initial=0.0)
    if not (hi <= FLOAT32_MAX and lo >= -FLOAT32_MAX):
        raise NonFiniteSampleError("window holds a non-finite sample or one beyond float32 range")
    f32 = x.dtype == np.float32 and max(hi, -lo) <= _F32_PEAK
    return np.array(x, dtype=np.float32 if f32 else np.float64)


# ---------------------------------------------------------------------------
# raw


def extract_raw(samples: np.ndarray) -> FeatureTensor:
    """Identity passthrough shaped (channels, 1, samples): the window's samples,
    exactly, in its working dtype."""
    x = _check_window(samples)
    return FeatureTensor(x[:, None, :], extractor_id="raw")


# ---------------------------------------------------------------------------
# per-stream block reuse (sincnet, stft, bands)


def _frames(x: np.ndarray, length: int, stride: int, first: int, n: int) -> np.ndarray:
    """Read-only (channels, n, length) view of the rows of ``x`` in frames.

    Frame ``j`` holds the ``length`` samples from ``first + stride * j`` on;
    samples outside ``x`` read as zero. The samples are copied into a zeroed
    buffer first, so a product over the view has a shape and layout that
    depend only on ``(channels, n, length)``, whatever the layout of ``x``.
    """
    seg = np.zeros((x.shape[0], stride * (n - 1) + length), x.dtype)
    lo, hi = max(first, 0), min(first + seg.shape[1], x.shape[1])
    if hi > lo:
        seg[:, lo - first : hi - first] = x[:, lo:hi]
    seg.flags.writeable = False
    strides = (seg.strides[0], stride * seg.itemsize, seg.itemsize)
    return np.ndarray((seg.shape[0], n, length), seg.dtype, seg, 0, strides)


class BlockCache:
    """The previous window of one stream, for the extractors whose interior
    outputs come in fixed blocks (``sincnet``, ``stft``, ``bands``; see
    ``_fill_interior``).

    It holds the window's ``key`` (extractor, rate, window shape and working
    dtype), its ``samples`` (the array ``_check_window`` made, which nothing
    else holds: 64 KB for a 4 s, 200 Hz, 20-channel float32 window) and
    ``out``, the output array of the tensor returned for it, which
    ``_fill_interior`` has made read-only. It is written only once all of a
    window's outputs are computed, so a window that fails its input check
    leaves it as it was. A cache serves one stream and is not thread-safe.
    """

    def __init__(self) -> None:
        self.key: tuple | None = None
        self.samples: np.ndarray | None = None
        self.out: np.ndarray | None = None


def _fill_interior(
    out: np.ndarray,
    x: np.ndarray,
    lo: int,
    hi: int,
    block: int,
    step: int,
    rows: Callable[[int, int], np.ndarray],
    cache: BlockCache | None,
    key: tuple,
) -> None:
    """Write the interior outputs ``out[..., lo:hi]`` of window ``x``, then
    make ``out`` read-only.

    ``rows(j0, j1)`` computes outputs ``j0 <= j < j1`` with time on the last
    axis. They come in blocks of ``block`` outputs counted back from ``hi``;
    the oldest block starts before ``lo`` and drops those placeholder
    outputs. With a ``cache``, a window whose leading samples equal the
    previous window's trailing samples, shifted by ``m`` whole blocks of
    ``step`` samples, computes only its ``m`` newest blocks and reads the
    others from the previous window's outputs. Each output comes from the
    same product at the same row, fresh or reused, so the result is
    bit-identical to a call without a cache. It then records the window in
    ``cache``, so callers compute their other outputs first and call it last.
    """
    n_blocks = -(-(hi - lo) // block)
    m = 0
    if cache is not None and cache.key == key:
        # bytes, so -0.0 and 0.0 count as different samples; two copies and
        # one memcmp take about 60% of the time of an elementwise comparison
        n, prev = x.shape[1], cache.samples
        for k in range(1, n_blocks):
            if x[:, : n - k * step].tobytes() == prev[:, k * step :].tobytes():
                m = k
                break
    if m:
        out[..., lo : hi - m * block] = cache.out[..., lo + m * block : hi]
    for b in range(m or n_blocks):
        first, end = hi - (b + 1) * block, hi - b * block
        start = max(lo, first)  # outputs before lo are placeholders
        out[..., start:end] = rows(first, end)[..., start - first :]
    out.flags.writeable = False
    if cache is not None:
        cache.key, cache.samples, cache.out = key, x, out


# ---------------------------------------------------------------------------
# STFT


# The pipeline's framing: 0.125 s frames (25 samples at 200 Hz) every 8
# samples, a 198-point DFT, and reflect padding to 100 frames, so a 4 s,
# 200 Hz window maps to a 100x100 spectrogram.
_FRAME_S = 0.125
_FFT_SIZE = 198
_HOP = 8
_PAD_TO_FRAMES = 100

# The largest L1 norm of a column of the cached DFT basis is at most
# _FFT_SIZE / 2: a column is a Hann taper of at most _FFT_SIZE samples
# (which sums to half its length) times a cosine or sine. A band averaging
# column sums to 1, so a band mean is at most the largest magnitude. Every
# product value, every partial sum BLAS forms, every magnitude and every
# band mean of a window whose samples are at most _F32_PEAK in magnitude
# therefore stays under FLOAT32_MAX / 2, and the window runs in float32.
# The factor of 2 covers the rounding of up to 200 float32 terms.
_F32_PEAK = FLOAT32_MAX / _FFT_SIZE


def _frame_samples(fs: int) -> int:
    """Samples per STFT frame at ``fs``: at least 1 and at most ``_FFT_SIZE``."""
    n = int(round(_FRAME_S * fs))
    if n < 1:
        raise InvalidArgumentError("frame shorter than one sample")
    if n > _FFT_SIZE:
        raise InvalidArgumentError(
            f"a {_FRAME_S} s frame is {n} samples at {fs} Hz, more than the {_FFT_SIZE}-point DFT"
        )
    return n


@lru_cache(maxsize=8)
def _frame_layout(n: int, frame: int) -> tuple:
    """Where the STFT frames of an ``n``-sample window read their samples.

    Returns ``(n_frames, left, lo, hi, edges, edge_idx)``. A window too short
    for ``_PAD_TO_FRAMES`` frames is reflect-padded, ``left`` samples in
    front and the rest behind, so frame ``j`` reads ``frame`` samples from
    ``_HOP * j - left`` on. Frames ``lo <= j < hi`` lie inside the window.
    The others (read-only ``edges``) read padding: ``edge_idx[e]`` holds the
    window samples that frame ``edges[e]`` reads, found by padding the sample
    indices exactly as ``np.pad`` pads the samples.
    """
    pad = max((_PAD_TO_FRAMES - 1) * _HOP + frame - n, 0)
    left = pad // 2
    src = np.pad(np.arange(n), (left, pad - left), mode="reflect")
    n_frames = (src.size - frame) // _HOP + 1
    lo, hi = _interior(n, frame, _HOP, left, n_frames)
    edges = np.r_[0:lo, hi:n_frames]
    edge_idx = src[_HOP * edges[:, None] + np.arange(frame)]
    edges.flags.writeable = edge_idx.flags.writeable = False
    return n_frames, left, lo, hi, edges, edge_idx


def _interior(n: int, length: int, stride: int, offset: int, n_out: int) -> tuple[int, int]:
    """``(lo, hi)``: of ``n_out`` outputs, each reading ``length`` samples from
    ``stride * j - offset`` on, ``lo <= j < hi`` lie inside an ``n``-sample window."""
    lo = min(-(-offset // stride), n_out)
    return lo, max(lo, min(n_out, (n - length + offset) // stride + 1))


def _hann(n: int) -> np.ndarray:
    """Periodic Hann window of length ``n``.

    Built with scipy's cosine-sum formula and summation order, so it is
    bit-equal to ``scipy.signal.get_window("hann", n, fftbins=True)``.
    """
    if n == 1:
        return np.ones(1)
    fac = np.linspace(-np.pi, np.pi, n + 1)[:-1]
    w = np.zeros(n)
    for k, a in enumerate((0.5, 0.5)):
        w += a * np.cos(k * fac)
    return w


@lru_cache(maxsize=8)
def _dft_basis(frame: int, nfft: int, dtype: np.dtype) -> np.ndarray:
    """Read-only (frame, 2 * bins) Hann-tapered DFT basis: bin k's cos, -sin at 2k, 2k + 1.

    ``(frames @ basis).view(complex)`` equals ``rfft(frames * hann,
    n=nfft)``; the zero padding to ``nfft`` never materialises. Angles use
    ``(n * k) % nfft`` so large products lose no precision. The basis is
    computed in float64 and rounded once to ``dtype``.
    """
    taper = _hann(frame)
    nk = np.outer(np.arange(frame), np.arange(nfft // 2 + 1)) % nfft
    angle = (2 * np.pi / nfft) * nk
    basis = np.stack([np.cos(angle), -np.sin(angle)], axis=2).reshape(frame, -1) * taper[:, None]
    basis = basis.astype(dtype)
    basis.flags.writeable = False
    return basis


# Interior STFT frames are computed in blocks of this many frames (1 s at
# 200 Hz and hop 8), anchored at the last interior frame of the window.
_FRAME_BLOCK = 25
# Frames per channel group: the band product stays at 70 000 multiply-adds
# (one core); 300 was no faster in the streamed benchmark.
_MAX_ROWS = 100


def _spectral_rows(
    frames: np.ndarray, basis: np.ndarray, averaging: np.ndarray | None
) -> np.ndarray:
    """Magnitudes of ``frames`` (channels, n, frame), or their band means.

    Returns (channels, bins, n), or (channels, n_bands, n) with the
    ``averaging`` matrix, in the dtype of ``frames``, which ``basis`` and
    ``averaging`` share. A DFT product row reads as a complex64 (complex128)
    spectrum (``_dft_basis``), so one ``np.abs`` takes its magnitudes.
    Channels go in groups of at most ``_MAX_ROWS // n``, so the largest
    temporary, the DFT product, holds 100 x 200 values (80 KB in float32)
    for the pipeline framing.
    """
    n = frames.shape[1]
    bins = basis.shape[1] // 2
    spectrum = np.result_type(frames.dtype, np.complex64)
    k = bins if averaging is None else averaging.shape[1]
    out = np.empty((frames.shape[0], k, n), frames.dtype)
    group = max(1, _MAX_ROWS // n)
    for c in range(0, frames.shape[0], group):
        mags = np.abs((frames[c : c + group] @ basis).view(spectrum))
        if averaging is not None:
            mags = (mags.reshape(-1, bins) @ averaging).reshape(-1, n, averaging.shape[1])
        out[c : c + group] = mags.transpose(0, 2, 1)
    return out


def _spectral(
    x: np.ndarray, fs: int, averaging: np.ndarray | None, cache: BlockCache | None, key: tuple
) -> FeatureTensor:
    """``stft`` (no ``averaging``) or ``frequency_bands`` of window ``x``.

    ``key`` names the extractor (its first item, also the tensor's id), the
    rate and the window's shape and dtype, for ``cache``. ``averaging``
    has the window's dtype.

    The reflect-padded edge frames form one product. The interior frames form
    blocks of ``_FRAME_BLOCK`` frames counted back from the last one, and with
    a ``cache`` a window that follows the previous one by whole blocks takes
    all but its newest blocks from it (``_fill_interior``).
    """
    frame = _frame_samples(fs)
    basis = _dft_basis(frame, _FFT_SIZE, x.dtype)
    n_frames, left, lo, hi, edges, edge_idx = _frame_layout(x.shape[1], frame)
    k = basis.shape[1] // 2 if averaging is None else averaging.shape[1]
    out = np.empty((x.shape[0], k, n_frames), x.dtype)

    def rows(j0: int, j1: int) -> np.ndarray:
        return _spectral_rows(_frames(x, frame, _HOP, _HOP * j0 - left, j1 - j0), basis, averaging)

    if edges.size:
        out[:, :, edges] = _spectral_rows(x[:, edge_idx], basis, averaging)
    _fill_interior(out, x, lo, hi, _FRAME_BLOCK, _HOP * _FRAME_BLOCK, rows, cache, key)
    return FeatureTensor(out, extractor_id=key[0])


def stft(
    samples: np.ndarray,
    sample_rate_hz: int = PIPELINE_RATE_HZ,
    cache: BlockCache | None = None,
) -> FeatureTensor:
    """Hann-windowed one-sided magnitude spectrogram, (channels, bins, frames).

    Magnitudes come from a cached Hann-DFT basis (``_dft_basis``) rather than
    a zero-padded FFT per frame, in the window's working dtype. In float64,
    on random windows (200-256 Hz, 37-2400 samples), they differ from
    ``abs(rfft(frames * hann, n=nfft))`` by at most 8e-16 of the largest
    magnitude, band averages by 2.5e-14 relative. In float32 (u = 2**-24)
    a magnitude differs from the exact value by at most ``(sqrt(2) *
    (frame + 2) + 4) * u`` times the frame's Hann-weighted absolute sum, a
    band mean by ``bins + 2`` more units of it: the bounds of rounding the
    basis and of a ``frame``-term dot, with a unit to spare, of the modulus
    and of a ``bins``-term mean. On a 4 s,
    200 Hz window of noise the magnitude bound is 2e-6 to 3e-6 of the
    largest magnitude, and the largest error 1.6e-7 of it. With a
    ``cache`` each frame is computed once per stream, as in
    ``frequency_bands``.
    """
    x = _check_window(samples)
    key = ("stft", sample_rate_hz, x.shape, x.dtype)
    return _spectral(x, sample_rate_hz, None, cache, key)


def stft_bin_freqs(sample_rate_hz: int = PIPELINE_RATE_HZ) -> np.ndarray:
    return np.arange(_FFT_SIZE // 2 + 1) * sample_rate_hz / _FFT_SIZE


# ---------------------------------------------------------------------------
# frequency bands


@lru_cache(maxsize=8)
def _band_averaging(sample_rate_hz: int, dtype: np.dtype) -> np.ndarray:
    """Read-only (bins, n_bands) ``dtype`` matrix: ``mags @ averaging`` are the band means."""
    nyquist = sample_rate_hz / 2
    for lo, hi in DEFAULT_BAND_EDGES:
        if hi > nyquist:
            raise InvalidArgumentError(f"band ({lo}, {hi}) exceeds Nyquist {nyquist}")
    freqs = stft_bin_freqs(sample_rate_hz)
    averaging = np.zeros((freqs.size, len(DEFAULT_BAND_EDGES)))
    for b, (lo, hi) in enumerate(DEFAULT_BAND_EDGES):
        mask = (freqs >= lo) & (freqs < hi)
        if not mask.any():
            raise InvalidArgumentError(f"band ({lo}, {hi}) covers no STFT bin")
        averaging[mask, b] = 1.0 / mask.sum()
    averaging = averaging.astype(dtype)
    averaging.flags.writeable = False
    return averaging


def frequency_bands(
    samples: np.ndarray,
    sample_rate_hz: int = PIPELINE_RATE_HZ,
    cache: BlockCache | None = None,
) -> FeatureTensor:
    """STFT magnitudes averaged per band, (channels, n_bands, frames).

    Each frame's band means come from the same products at the same rows
    whether they are computed fresh or taken from ``cache``, so a streamed
    window is bit-identical to a call without a cache. At 200 Hz, a 4 s
    window and a 1 s shift, a streamed window computes 28 of its 100 frames.
    """
    x = _check_window(samples)
    averaging = _band_averaging(sample_rate_hz, x.dtype)
    key = ("bands", sample_rate_hz, x.shape, x.dtype)
    return _spectral(x, sample_rate_hz, averaging, cache, key)


# ---------------------------------------------------------------------------
# LFCC


# LFCC: 0.3 s frames every 0.15 s, 20 linear triangular filters whose energies
# are floored before the log, and the first 8 cepstral coefficients
_LFCC_FRAME_S = 0.3
_LFCC_HOP_S = 0.15
_LFCC_FILTERS = 20
_LFCC_COEFFS = 8
_LFCC_LOG_FLOOR = 1e-10


@lru_cache(maxsize=8)
def linear_triangular_filterbank(
    n_filters: int, n_bins: int, sample_rate_hz: int, nfft: int
) -> np.ndarray:
    """Read-only (n_filters, n_bins) triangular filters linearly spaced over 0..Nyquist."""
    nyquist = sample_rate_hz / 2
    centers = np.linspace(0, nyquist, n_filters + 2)
    freqs = np.arange(n_bins) * sample_rate_hz / nfft
    bank = np.zeros((n_filters, n_bins))
    for i in range(n_filters):
        lo, mid, hi = centers[i], centers[i + 1], centers[i + 2]
        rising = (freqs - lo) / (mid - lo)
        falling = (hi - freqs) / (hi - mid)
        bank[i] = np.clip(np.minimum(rising, falling), 0, None)
    bank.flags.writeable = False
    return bank


@lru_cache(maxsize=8)
def _dct_basis(n: int, n_coeffs: int) -> np.ndarray:
    """Read-only (n, n_coeffs) orthonormal DCT-II basis.

    ``x @ basis`` gives the first ``n_coeffs`` columns of
    ``scipy.fft.dct(x, type=2, norm="ortho")``, to about 1e-15 of the largest
    coefficient.
    """
    k = np.arange(n_coeffs)
    angle = (np.pi / (2 * n)) * np.outer(2 * np.arange(n) + 1, k)
    scale = np.where(k == 0, np.sqrt(1.0 / n), np.sqrt(2.0 / n))
    basis = np.cos(angle) * scale
    basis.flags.writeable = False
    return basis


def lfcc(samples: np.ndarray, sample_rate_hz: int = PIPELINE_RATE_HZ) -> FeatureTensor:
    """Absolute linear-frequency cepstral coefficients, (channels, 8, frames), in float64.

    It computes in float64 whatever the window, because numpy's float32
    ``rfft`` of the strided (20, 25, 60) frames of a 4 s, 200 Hz window took
    2.5 times as long as the float64 one, and its power spectrum squares
    magnitudes, which ``_F32_PEAK`` does not bound in float32.
    """
    x = _check_window(samples).astype(np.float64, copy=False)
    frame = int(round(_LFCC_FRAME_S * sample_rate_hz))
    hop = int(round(_LFCC_HOP_S * sample_rate_hz))
    if min(frame, hop) < 1:
        raise InvalidArgumentError(f"LFCC frame or hop is under one sample at {sample_rate_hz} Hz")
    if frame > x.shape[1]:
        raise InvalidArgumentError("LFCC frame longer than window")
    frames = np.lib.stride_tricks.sliding_window_view(x, frame, axis=1)[:, ::hop, :]
    power = np.abs(np.fft.rfft(frames, axis=2)) ** 2
    bank = linear_triangular_filterbank(_LFCC_FILTERS, power.shape[2], sample_rate_hz, frame)
    energies = np.maximum(power @ bank.T, _LFCC_LOG_FLOOR)
    ceps = np.log(energies) @ _dct_basis(_LFCC_FILTERS, _LFCC_COEFFS)
    return FeatureTensor(np.abs(np.transpose(ceps, (0, 2, 1))), extractor_id="lfcc")


# ---------------------------------------------------------------------------
# sinc filterbank


def design_sinc_kernel(
    f1_hz: float, f2_hz: float, kernel_len: int, sample_rate_hz: int = PIPELINE_RATE_HZ
) -> np.ndarray:
    """Band-pass FIR as a difference of scaled sincs, Hamming-tapered and
    scaled so the peak of its magnitude response (a 4096-point rfft) is 1."""
    if kernel_len < 1:
        raise InvalidArgumentError(f"kernel_len must be >= 1, got {kernel_len}")
    nyquist = sample_rate_hz / 2
    if not (0 <= f1_hz < f2_hz <= nyquist):
        raise InvalidArgumentError(
            f"need 0 <= f1 < f2 <= {nyquist}, got ({f1_hz}, {f2_hz})"
        )
    n = np.arange(kernel_len) - (kernel_len - 1) / 2
    f1n, f2n = f1_hz / sample_rate_hz, f2_hz / sample_rate_hz
    h = 2 * f2n * np.sinc(2 * f2n * n) - 2 * f1n * np.sinc(2 * f1n * n)
    h = h * np.hamming(kernel_len)
    return h / np.abs(np.fft.rfft(h, n=4096)).max()


# The pipeline's sinc filterbank: the 7 bands of DEFAULT_BAND_EDGES, 80-tap
# kernels, and every 2nd output kept, so a 4 s, 200 Hz window maps to 7x400.
_SINC_KERNEL_LEN = 80
_SINC_STRIDE = 2


class SincBank:
    """The sinc filterbank's one configuration, read from module constants."""

    kernel_len = _SINC_KERNEL_LEN
    stride = _SINC_STRIDE
    bands = DEFAULT_BAND_EDGES


@lru_cache(maxsize=8)
def _sinc_taps(sample_rate_hz: int) -> np.ndarray:
    """Read-only (80, 7) matrix of the reversed sinc kernels."""
    kernels = [design_sinc_kernel(*b, _SINC_KERNEL_LEN, sample_rate_hz) for b in DEFAULT_BAND_EDGES]
    taps = np.stack([k[::-1] for k in kernels], axis=1)
    taps.flags.writeable = False
    return taps


# Consecutive outputs that one row of a banded product gives (``_sinc_banded``).
# It divides _SINC_BLOCK, so a block is a whole number of rows per channel.
_SINC_GROUP = 5


@lru_cache(maxsize=8)
def _sinc_banded(sample_rate_hz: int) -> np.ndarray:
    """Read-only (88, 35) matrix: ``_SINC_GROUP`` (5) shifted copies of the taps.

    Column block ``j`` holds ``_sinc_taps`` shifted down by ``2 * j`` rows
    and zeros elsewhere, so the 88 samples from ``2 * j0 - 40`` on, times
    this matrix, give outputs ``j0 + j`` of every band for ``0 <= j < 5``.
    """
    taps = _sinc_taps(sample_rate_hz)
    n_bands = taps.shape[1]
    banded = np.zeros((_SINC_STRIDE * (_SINC_GROUP - 1) + _SINC_KERNEL_LEN, _SINC_GROUP * n_bands))
    for j in range(_SINC_GROUP):
        first = _SINC_STRIDE * j
        banded[first : first + _SINC_KERNEL_LEN, j * n_bands : (j + 1) * n_bands] = taps
    banded.flags.writeable = False
    return banded


def _fir_rows(x: np.ndarray, banded: np.ndarray, j0: int, j1: int) -> np.ndarray:
    """Outputs ``j0 <= j < j1`` of every row of ``x`` convolved with every kernel.

    Returns (kernels, channels, j1 - j0). Output ``j`` is centred on sample
    ``2 * j`` like ``np.convolve(row, kernel, "same")[::2]``: it reads the 80
    samples from ``2 * j - 40`` on, and samples outside the window read as
    zero. ``sinc_filterbank`` computes its interior blocks here and its edge
    outputs with ``_fill_edge``.

    Each channel's outputs come in groups of ``_SINC_GROUP`` from ``j0`` on;
    the last group may run past ``j1`` and its extra outputs are dropped. One
    row of samples per group, channel-major, is copied into one contiguous
    array and multiplied by the ``banded`` matrix (``_sinc_banded``) in
    chunks of at most ``core._ONE_THREAD_MACS`` multiply-adds, counted from
    the first row, so OpenBLAS runs each chunk on one core. A range of the
    same length on a window of the same shape thus puts each output at the
    same row of a product of the same shape. A range that reads no padding,
    such as a streamed window's new block, copies its rows straight from
    ``x`` (C-contiguous) in one copy; one that reads padding goes through
    the zero-padded ``_frames`` buffer first. That one copy also casts a
    float32 ``x`` to float64, so the products are float64 whatever the
    window's dtype, and a float32 window gives the bytes its float64 cast
    gives.
    """
    width, cols = banded.shape
    n_groups = -(-(j1 - j0) // _SINC_GROUP)
    first = _SINC_STRIDE * j0 - _SINC_KERNEL_LEN // 2
    step = _SINC_STRIDE * _SINC_GROUP
    if first >= 0 and first + step * (n_groups - 1) + width <= x.shape[1]:
        strides = (x.strides[0], step * x.itemsize, x.itemsize)
        view = np.ndarray((x.shape[0], n_groups, width), x.dtype, x, first * x.itemsize, strides)
    else:
        view = _frames(x, width, step, first, n_groups)
    rows = np.ascontiguousarray(view, dtype=np.float64).reshape(-1, width)
    prod = np.empty((rows.shape[0], cols))
    chunk = max(1, _ONE_THREAD_MACS // (width * cols))
    for r in range(0, rows.shape[0], chunk):
        np.matmul(rows[r : r + chunk], banded, out=prod[r : r + chunk])
    # row (channel, group), column (output in group, band) -> (band, channel, output)
    n_bands = cols // _SINC_GROUP
    return prod.reshape(x.shape[0], -1, n_bands).transpose(2, 0, 1)[..., : j1 - j0]


@lru_cache(maxsize=8)
def _sinc_edge(sample_rate_hz: int, n: int, j0: int, j1: int) -> tuple[int, np.ndarray]:
    """``(first, matrix)``: outputs ``j0 <= j < j1`` of an ``n``-sample window
    as one stacked product.

    ``x[:, first : first + matrix.shape[1]] @ matrix`` gives them as
    (kernels, channels, j1 - j0), the tensor's layout. ``matrix[k]`` holds
    kernel ``k``'s taps shifted to each output's samples, with the taps that
    would read zero padding left out. For the 20 and 19 outputs at the edges
    of a 4 s, 200 Hz window it is (7, 78, 20) and (7, 78, 19). It is
    read-only.
    """
    taps = _sinc_taps(sample_rate_hz)
    reach = _SINC_KERNEL_LEN // 2
    first = max(0, _SINC_STRIDE * j0 - reach)
    last = min(n, _SINC_STRIDE * (j1 - 1) - reach + _SINC_KERNEL_LEN)
    matrix = np.zeros((taps.shape[1], last - first, j1 - j0))
    for j in range(j0, j1):
        start = _SINC_STRIDE * j - reach  # output j reads x[start + i] times taps[i]
        lo, hi = max(start, first), min(start + _SINC_KERNEL_LEN, last)
        matrix[:, lo - first : hi - first, j - j0] = taps[lo - start : hi - start].T
    matrix.flags.writeable = False
    return first, matrix


def _fill_edge(out: np.ndarray, x: np.ndarray, sample_rate_hz: int, j0: int, j1: int) -> None:
    """Write outputs ``j0 <= j < j1`` into ``out[:, :, j0:j1]`` through the
    ``_sinc_edge`` product.

    The samples it reads (78 per channel at the edges of a 4 s, 200 Hz
    window) are cast to one float64 copy. Each kernel's product writes
    straight into the tensor, and channels go in chunks of at most
    ``core._ONE_THREAD_MACS`` multiply-adds per kernel, so each product runs
    on one core.
    """
    first, matrix = _sinc_edge(sample_rate_hz, x.shape[1], j0, j1)
    samples = x[:, first : first + matrix.shape[1]].astype(np.float64)
    chunk = max(1, _ONE_THREAD_MACS // (matrix.shape[1] * matrix.shape[2]))
    for r in range(0, x.shape[0], chunk):
        np.matmul(samples[r : r + chunk], matrix, out=out[:, r : r + chunk, j0:j1])


# Interior sinc outputs are computed in blocks of this many outputs (1 s at
# 200 Hz and stride 2), anchored at the last interior output of the window.
_SINC_BLOCK = 100


def sinc_filterbank(
    samples: np.ndarray,
    sample_rate_hz: int = PIPELINE_RATE_HZ,
    cache: BlockCache | None = None,
) -> FeatureTensor:
    """Strided band-pass convolution, (7, channels, ceil(N / 2)).

    The configuration is fixed: the 7 bands of ``DEFAULT_BAND_EDGES``,
    80-tap kernels and a stride of 2. Each band's kernel is convolved with
    every channel, zero-padded and centred like ``np.convolve(row, kernel,
    "same")``, keeping every 2nd output. The kernels are designed once per
    rate and laid out as a cached banded matrix (``_sinc_banded``): one row
    of 88 samples gives ``_SINC_GROUP`` (5) consecutive kept outputs of
    every band, so only the kept outputs are computed. The rows go through
    BLAS products small enough to run on one core (``_fir_rows``). Outputs
    differ from the per-row ``np.convolve`` result by under 1e-15 of their
    largest magnitude. Its products and outputs are float64 whatever the
    window: the benchmark's self-test (``perfbench/test_harness.py``) holds
    its outputs to 1e-9 of a float64 reference, which no float32 output can
    meet. The window itself stays in its working dtype (``_check_window``),
    and the cache holds it and compares it in that dtype; only the samples
    a product reads are cast to float64. A float32 window thus gives the
    bytes its float64 cast gives.

    The outputs that read zero padding at either edge (20 and 19 per channel
    for a 4 s, 200 Hz window) come from one stacked product each, written
    straight into the tensor: the first or last 78 samples times a matrix
    per kernel, cached per rate and window length (``_fill_edge``). The
    interior outputs form blocks of ``_SINC_BLOCK`` outputs, which a
    ``cache`` lets a stream compute once (``_fill_interior``); the result is
    bit-identical to a call without a cache. The returned tensor is
    read-only.
    """
    x = _check_window(samples)
    banded = _sinc_banded(sample_rate_hz)
    n_out = -(-x.shape[1] // _SINC_STRIDE)
    lo, hi = _interior(x.shape[1], _SINC_KERNEL_LEN, _SINC_STRIDE, _SINC_KERNEL_LEN // 2, n_out)
    out = np.empty((len(DEFAULT_BAND_EDGES), x.shape[0], n_out))

    def rows(j0: int, j1: int) -> np.ndarray:
        return _fir_rows(x, banded, j0, j1)

    for j0, j1 in ((0, lo), (hi, n_out)):
        if j1 > j0:
            _fill_edge(out, x, sample_rate_hz, j0, j1)
    key = ("sincnet", sample_rate_hz, x.shape, x.dtype)
    _fill_interior(out, x, lo, hi, _SINC_BLOCK, _SINC_STRIDE * _SINC_BLOCK, rows, cache, key)
    return FeatureTensor(out, extractor_id="sincnet")


# ---------------------------------------------------------------------------
# multi-rate raw


# rates of the decimated copies that multirate returns
_MULTIRATE_RATES_HZ = (200, 100, 50)


def multirate(samples: np.ndarray, sample_rate_hz: int = PIPELINE_RATE_HZ) -> FeatureTensor:
    """Copies of the raw window decimated to 200, 100 and 50 Hz, with no
    anti-alias filter, joined on the time axis: (channels, 1, samples), in
    the window's working dtype."""
    x = _check_window(samples)
    copies = []
    for rate in _MULTIRATE_RATES_HZ:
        if sample_rate_hz % rate != 0:
            raise InvalidArgumentError(f"rate {rate} does not divide {sample_rate_hz}")
        copies.append(x[:, None, :: sample_rate_hz // rate])
    return FeatureTensor(np.concatenate(copies, axis=2), extractor_id="multirate")


# ---------------------------------------------------------------------------
# extractor registry (CLI / streaming pipeline surface)

EXTRACTOR_NAMES = ("raw", "sincnet", "stft", "bands", "lfcc", "multirate")


def get_extractor(
    name: str, sample_rate_hz: int = PIPELINE_RATE_HZ
) -> Callable[[np.ndarray], FeatureTensor]:
    """Resolve an extractor by CLI name to a window -> FeatureTensor callable.

    Each extractor has one configuration, the one the CLI runs; ``sincnet``
    is the fixed 7-band, 80-tap, stride-2 filterbank. Call this once per
    stream: the ``sincnet``, ``stft`` and ``bands`` callables each carry a
    ``BlockCache`` of the previous window and its tensor, so a window that
    follows the previous one by whole blocks computes only its new outputs
    (28 of 100 frames for ``stft`` and ``bands`` at a 4 s window and a 1 s
    shift); they are not thread-safe. ``raw``, ``lfcc`` and ``multirate``
    keep no state. Each callable returns the one tensor its function returns
    (``multirate`` included; read-only for ``sincnet``, ``stft`` and
    ``bands``) and passes it nothing but the rate and, for ``sincnet``,
    ``stft`` and ``bands``, the cache. Every callable but ``raw`` looks its
    function up in this module when called, so a wrapper installed there
    sees every window.
    """
    if name == "raw":
        return extract_raw
    if name == "sincnet":
        cache = BlockCache()
        return lambda w: sinc_filterbank(w, sample_rate_hz, cache)
    if name == "stft":
        cache = BlockCache()
        return lambda w: stft(w, sample_rate_hz, cache)
    if name == "bands":
        cache = BlockCache()
        return lambda w: frequency_bands(w, sample_rate_hz, cache)
    if name == "lfcc":
        return lambda w: lfcc(w, sample_rate_hz)
    if name == "multirate":
        return lambda w: multirate(w, sample_rate_hz)
    raise InvalidArgumentError(
        f"unknown extractor {name!r}; expected one of {EXTRACTOR_NAMES}"
    )

