"""EEG data model: recordings, labels, montage referencing, windowing, sampling.

Conventions used throughout the package:
  - samples are float32 microvolts, shaped (channels, time)
  - the standard pipeline rate is 200 Hz
  - seizure labels follow the TUH-style type vocabulary; anything not
    covered by an event is implicit background
"""

from __future__ import annotations

import math
import mmap
import os
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import (
    ChannelNotFoundError,
    EmptyStreamError,
    InvalidArgumentError,
    TruncatedPayloadError,
)

PIPELINE_RATE_HZ = 200
FLOAT32_MAX = float(np.finfo(np.float32).max)  # the largest sample magnitude


class Montage(str, Enum):
    UNIPOLAR = "unipolar"
    BIPOLAR = "bipolar"


class SeizureLabel(str, Enum):
    BCKG = "bckg"
    FNSZ = "fnsz"
    GNSZ = "gnsz"
    SPSZ = "spsz"
    CPSZ = "cpsz"
    ABSZ = "absz"
    TNSZ = "tnsz"
    TCSZ = "tcsz"
    SEIZ = "seiz"

    @property
    def is_seizure(self) -> bool:
        return self is not SeizureLabel.BCKG


@dataclass
class Recording:
    """Multi-channel sampled signal, channels x time, microvolts."""

    sample_rate_hz: int
    channel_names: list[str]
    samples: np.ndarray
    montage: Montage = Montage.UNIPOLAR

    def __post_init__(self) -> None:
        if self.sample_rate_hz <= 0:
            raise InvalidArgumentError("sample_rate_hz must be positive")
        self.samples = np.asarray(self.samples, dtype=np.float32)
        if self.samples.ndim != 2:
            raise InvalidArgumentError("samples must be 2-D (channels, time)")
        if self.samples.shape[0] != len(self.channel_names):
            raise InvalidArgumentError(
                f"{len(self.channel_names)} channel names for "
                f"{self.samples.shape[0]} sample rows"
            )

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz


@dataclass(frozen=True)
class MontageSpec:
    """Ordered (anode, cathode) pairs defining a bipolar derivation."""

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if len(set(self.pairs)) != len(self.pairs):
            raise InvalidArgumentError("montage pairs must be unique")

    @property
    def channel_names(self) -> list[str]:
        return [f"{a}-{c}" for a, c in self.pairs]


# The 20-pair temporal-central parasagittal chain used for bipolar referencing.
DEFAULT_BIPOLAR_PAIRS: tuple[tuple[str, str], ...] = (
    ("FP1", "F7"), ("F7", "T3"), ("T3", "T5"), ("T5", "O1"),
    ("FP2", "F8"), ("F8", "T4"), ("T4", "T6"), ("T6", "O2"),
    ("T3", "C3"), ("C3", "CZ"), ("CZ", "C4"), ("C4", "T4"),
    ("FP1", "F3"), ("F3", "C3"), ("C3", "P3"), ("P3", "O1"),
    ("FP2", "F4"), ("F4", "C4"), ("C4", "P4"), ("P4", "O2"),
)

DEFAULT_UNIPOLAR_CHANNELS: tuple[str, ...] = (
    "FP1", "FP2", "F3", "F4", "C3", "C4", "P3", "P4", "O1", "O2",
    "F7", "F8", "T3", "T4", "T5", "T6", "FZ", "CZ", "PZ", "A1", "A2", "EKG",
)


@dataclass(frozen=True, order=True)
class Event:
    start_s: float
    stop_s: float
    label: SeizureLabel = SeizureLabel.SEIZ

    def __post_init__(self) -> None:
        finite = math.isfinite(self.start_s) and math.isfinite(self.stop_s)
        if not finite or self.start_s < 0 or self.stop_s <= self.start_s:
            raise InvalidArgumentError(
                f"bad event interval [{self.start_s}, {self.stop_s})"
            )

    @property
    def duration_s(self) -> float:
        return self.stop_s - self.start_s


@dataclass
class LabelTrack:
    """Sorted non-overlapping events; gaps are implicit background."""

    events: list[Event]
    total_duration_s: float

    def __post_init__(self) -> None:
        self.events = sorted(self.events)
        prev_stop = 0.0
        for ev in self.events:
            if ev.start_s < prev_stop:
                raise InvalidArgumentError("events overlap or are unsorted")
            prev_stop = ev.stop_s
        if self.events and self.events[-1].stop_s > self.total_duration_s + 1e-9:
            raise InvalidArgumentError("event extends past total duration")

    @property
    def seizure_events(self) -> list[Event]:
        return [ev for ev in self.events if ev.label.is_seizure]

    def background_intervals(self) -> list[tuple[float, float]]:
        """Maximal positive-length intervals not covered by a seizure event."""
        out = []
        cursor = 0.0
        for ev in self.seizure_events:
            if ev.start_s > cursor:
                out.append((cursor, ev.start_s))
            cursor = max(cursor, ev.stop_s)
        if cursor < self.total_duration_s:
            out.append((cursor, self.total_duration_s))
        return out


@dataclass(frozen=True)
class WindowSpec:
    window_s: float = 4.0
    shift_s: float = 1.0

    def __post_init__(self) -> None:
        # a finite window bounds the shift; NaN fails every comparison
        if not (math.isfinite(self.window_s) and self.window_s >= self.shift_s > 0):
            raise InvalidArgumentError(
                f"need finite window_s >= shift_s > 0, got {self.window_s:g} and {self.shift_s:g}"
            )

    def window_samples(self, fs: int) -> int:
        return _as_samples(self.window_s, fs, "window_s")

    def shift_samples(self, fs: int) -> int:
        return _as_samples(self.shift_s, fs, "shift_s")


def _as_samples(seconds: float, fs: int, what: str) -> int:
    n = seconds * fs
    if abs(n - round(n)) > 1e-6:
        raise InvalidArgumentError(f"{what}={seconds} is not a whole number of samples at {fs} Hz")
    if round(n) < 1:
        raise InvalidArgumentError(f"{what} must be at least one sample at {fs} Hz, got {seconds}")
    return int(round(n))


@dataclass(frozen=True)
class Window:
    index: int
    start_s: float
    # (channels, window_samples): a view into the recording, or, for a recording
    # mapped from a file, into a read-only chunk read from the file
    samples: np.ndarray


# ---------------------------------------------------------------------------
# signal operations


# OpenBLAS runs a product on one thread while its multiply-adds (rows * inner
# size * columns) stay small; 2**18 is under its threshold. The resampler and
# the sinc filterbank (features._fir_rows, features._fill_edge) cut their
# products to at most this many.
_ONE_THREAD_MACS = 2**18


def _lowpass(numtaps: int, cutoff: float) -> np.ndarray:
    """Kaiser (beta 8) windowed-sinc low-pass with unit DC gain.

    ``cutoff`` is relative to Nyquist. The design is that of
    ``scipy.signal.firwin(numtaps, cutoff, window=("kaiser", 8.0))``.
    """
    m = np.arange(numtaps) - (numtaps - 1) / 2
    h = cutoff * np.sinc(cutoff * m) * np.kaiser(numtaps, 8.0)
    return h / h.sum()


@lru_cache(maxsize=8)
def _polyphase_matrix(up: int, down: int) -> tuple[np.ndarray, int]:
    """Read-only (span, up) matrix ``M`` of the ``up`` sub-filters, and ``reach``.

    With ``h`` the low-pass of ``2 * half + 1`` taps scaled by ``up``, output
    ``t`` is ``sum_i x[i] * h[half + t * down - i * up]``, with ``x`` extended
    past both ends. Output ``q * up + r`` is therefore
    ``x[q * down - reach :][:span] @ M[:, r]``: the ``up`` outputs of one
    frame read one span of input samples.
    """
    half = 32 * max(up, down)
    h = _lowpass(2 * half + 1, 1.0 / max(up, down)) * up
    reach = half // up
    i = np.arange(-reach, ((up - 1) * down + half) // up + 1)[:, None]
    k = half + down * np.arange(up) - up * i
    inside = (k >= 0) & (k <= 2 * half)
    matrix = np.where(inside, h[np.where(inside, k, 0)], 0.0)
    matrix.flags.writeable = False
    return matrix, reach


def resample(rec: Recording, target_hz: int) -> Recording:
    """Polyphase windowed-sinc resampling (Kaiser beta=8, 64 taps/phase).

    Each frame of ``span`` input samples, taken every ``down`` samples, gives
    ``up`` outputs through one product with the cached polyphase matrix.
    Frames go in chunks of at most ``_ONE_THREAD_MACS`` multiply-adds, so
    each product runs on one core, and each chunk's product is rounded
    straight into the float32 output row; a last frame of which only some
    outputs are kept is computed on its own. Each edge is extended along
    the line through the first and last samples, so a DC offset or a
    linear trend passes the edges unbent. The output holds
    ``round(n * target_hz / rate)`` samples, as
    ``scipy.signal.resample_poly(..., padtype="line")`` computes them. A
    recording of fewer than 2 samples, or one that would give no output
    sample, raises InvalidArgumentError.
    """
    if target_hz <= 0:
        raise InvalidArgumentError("target_hz must be positive")
    if target_hz == rec.sample_rate_hz:
        return replace(rec, samples=rec.samples.copy())
    n = rec.n_samples
    n_out = int(round(n * target_hz / rec.sample_rate_hz))
    if n < 2 or n_out < 1:
        raise InvalidArgumentError(
            f"resampling needs at least 2 samples and 1 output sample: {n} samples "
            f"at {rec.sample_rate_hz} Hz give {n_out} at {target_hz} Hz"
        )
    g = math.gcd(target_hz, rec.sample_rate_hz)
    up, down = target_hz // g, rec.sample_rate_hz // g
    matrix, reach = _polyphase_matrix(up, down)
    span = matrix.shape[0]
    n_frames = -(-n_out // up)
    ext = np.empty((n_frames - 1) * down + span)
    # extension offsets: -reach..-1 before the first sample, 1.. after the last
    before = np.arange(-reach, 0)
    after = np.arange(1, ext.size - reach - n + 1)
    frames = np.lib.stride_tricks.sliding_window_view(ext, span)[::down]
    rows = max(1, _ONE_THREAD_MACS // (span * up))
    chunk = np.empty((rows, span))
    full = n_out // up  # frames all of whose outputs are kept
    out = np.empty((rec.n_channels, n_out), dtype=np.float32)
    for x, y in zip(rec.samples, out):
        ext[reach : reach + n] = x
        first, last = ext[reach], ext[reach + n - 1]
        slope = (last - first) / (n - 1)
        ext[:reach] = first + slope * before
        ext[reach + n :] = last + slope * after
        kept = y[: full * up].reshape(full, up)
        for q0 in range(0, full, rows):
            m = min(rows, full - q0)
            np.copyto(chunk[:m], frames[q0 : q0 + m])
            np.matmul(chunk[:m], matrix, out=kept[q0 : q0 + m], casting="same_kind")
        if full < n_frames:
            y[full * up :] = np.matmul(frames[full], matrix)[: n_out - full * up]
    return Recording(
        sample_rate_hz=target_hz,
        channel_names=list(rec.channel_names),
        samples=out,
        montage=rec.montage,
    )


def to_bipolar(rec: Recording, spec: MontageSpec | None = None) -> Recording:
    """Derive a bipolar recording by samplewise anode minus cathode."""
    if rec.montage is not Montage.UNIPOLAR:
        raise InvalidArgumentError("to_bipolar expects a unipolar recording")
    if spec is None:
        spec = MontageSpec(DEFAULT_BIPOLAR_PAIRS)
    index = {name: i for i, name in enumerate(rec.channel_names)}
    # each difference is written straight into its row: no list of rows to stack
    samples = np.empty((len(spec.pairs), rec.n_samples), dtype=np.float32)
    for (anode, cathode), row in zip(spec.pairs, samples):
        for name in (anode, cathode):
            if name not in index:
                raise ChannelNotFoundError(name)
        np.subtract(rec.samples[index[anode]], rec.samples[index[cathode]], out=row)
    return Recording(
        sample_rate_hz=rec.sample_rate_hz,
        channel_names=spec.channel_names,
        samples=samples,
        montage=Montage.BIPOLAR,
    )


def _window_starts(rec: Recording, spec: WindowSpec) -> np.ndarray:
    """Start sample of every sliding window: window k starts at k * shift."""
    win = spec.window_samples(rec.sample_rate_hz)
    if rec.n_samples < win:
        raise EmptyStreamError(
            f"recording of {rec.duration_s:.3f} s is shorter than one "
            f"{spec.window_s} s window"
        )
    return np.arange(0, rec.n_samples - win + 1, spec.shift_samples(rec.sample_rate_hz))


# How far a stream of a mapped recording advances in each row between two
# reads of its file: 82 windows at 200 Hz, 4 s and a 1 s shift.
_CHUNK_BYTES = 1 << 16
_PAGEMAP = "/proc/self/pagemap"
# flags of a /proc/self/pagemap entry: a page of a private file map that a
# write reached is present but no longer the file's page, or swapped out
_PRESENT, _SWAPPED, _FILE_PAGE = (np.uint64(1 << bit) for bit in (63, 62, 61))


@dataclass
class _FileRows:
    """Reads stretches of the rows of a recording mapped by ``io.load_recording``
    from its file, so a stream touches none of the map's pages.

    ``of(samples)`` is None, and windows are views of ``samples``, unless its
    rows are contiguous values on an ``io.PayloadMap`` and ``os.preadv`` and
    ``/proc/self/pagemap`` are available.
    """

    samples: np.ndarray
    payload: mmap.mmap  # the io.PayloadMap
    pagemap: int  # an open descriptor of /proc/self/pagemap

    @classmethod
    def of(cls, samples: np.ndarray) -> _FileRows | None:
        base = samples
        while isinstance(base, np.ndarray):
            base = base.base
        if not (hasattr(base, "fd") and samples.strides[1] == samples.itemsize
                and hasattr(os, "preadv")):
            return None
        try:
            pagemap = os.open(_PAGEMAP, os.O_RDONLY)
        except OSError:
            return None
        return cls(samples, base, pagemap)

    def read(self, lo: int, hi: int) -> np.ndarray:
        """A new read-only copy of ``samples[:, lo:hi]``, read from the file.

        Runs of pages that a write into the map reached, by their pagemap
        flags, are copied from the map instead; a page that two rows share
        is copied into both. A file that ended before ``hi`` (truncated after
        it was loaded) raises TruncatedPayloadError naming it.
        """
        x, page, payload = self.samples, mmap.PAGESIZE, self.payload
        out = np.empty((x.shape[0], hi - lo), x.dtype)
        size = out.shape[1] * x.itemsize
        # the virtual address of each row's sample lo, and the pages it reads
        addrs = [x.ctypes.data + r * x.strides[0] + lo * x.itemsize for r in range(x.shape[0])]
        spans = [(a // page, -(-(a + size) // page)) for a in addrs]
        for a, row in zip(addrs, out):
            if os.preadv(payload.fd, [row], payload.offset + a - payload.address) != size:
                raise TruncatedPayloadError(
                    f"{payload.path}: the file ends before sample {hi} of a row; "
                    "it changed after it was loaded"
                )
        flags = np.frombuffer(
            b"".join(os.pread(self.pagemap, 8 * (p1 - p0), 8 * p0) for p0, p1 in spans), np.uint64
        )
        written = ((flags & (_PRESENT | _FILE_PAGE)) == _PRESENT) | ((flags & _SWAPPED) != 0)
        if written.any():
            first = 0
            for r, (a, (p0, p1)) in enumerate(zip(addrs, spans)):
                runs = np.diff(written[first : first + p1 - p0], prepend=False, append=False)
                first += p1 - p0
                for s, e in np.flatnonzero(runs).reshape(-1, 2):
                    i = (max((p0 + s) * page, a) - a) // x.itemsize
                    j = -(-(min((p0 + e) * page, a + size) - a) // x.itemsize)
                    out[r, i:j] = x[r, lo + i : lo + j]
        out.flags.writeable = False
        return out

    def close(self) -> None:
        os.close(self.pagemap)


def slice_windows(
    rec: Recording, spec: WindowSpec, first: int = 0, stop: int | None = None
) -> Iterator[Window]:
    """Yield sliding windows ``first`` to ``stop - 1`` (all by default); window
    k starts at k * shift_s.

    On a recording mapped by ``io.load_recording``, each window is a
    read-only view of a chunk that holds ``_CHUNK_BYTES`` of each row and
    one window more, read from the file rather than through the map, so the
    map's pages stay untouched: its resident set does not grow with the
    recording. Pages that a write into the recording reached are copied from
    the map, so a window holds what the array holds when its chunk is read.
    On any other recording, or without ``/proc/self/pagemap`` (outside
    Linux), windows are views of ``rec.samples``.
    """
    win = spec.window_samples(rec.sample_rate_hz)
    shift = spec.shift_samples(rec.sample_rate_hz)
    starts = _window_starts(rec, spec)
    last = int(starts[-1])
    rows = _FileRows.of(rec.samples)
    # chunk holds samples lo to end of each row
    chunk, lo, end = rec.samples, 0, math.inf if rows is None else -1
    per_chunk = _CHUNK_BYTES // rec.samples.itemsize // shift * shift
    try:
        for k, start in enumerate(starts[first:stop].tolist(), first):
            if start + win > end:
                lo, end = start, min(start + per_chunk, last) + win
                chunk = rows.read(lo, end)
            yield Window(k, start / rec.sample_rate_hz, chunk[:, start - lo : start - lo + win])
    finally:
        if rows is not None:
            rows.close()


def window_labels(rec: Recording, labels: LabelTrack, spec: WindowSpec) -> np.ndarray:
    """Binary label per sliding window (1 = ictal), aligned with slice_windows.

    Window k spans [t, t + W) with t its start time in seconds; it is ictal
    iff the seizure time inside that span strictly exceeds the shift S.
    """
    starts = _window_starts(rec, spec) / rec.sample_rate_hz
    stops = starts + spec.window_s
    overlap = np.zeros(starts.size)
    for ev in labels.seizure_events:
        overlap += np.maximum(0.0, np.minimum(ev.stop_s, stops) - np.maximum(ev.start_s, starts))
    return overlap > spec.shift_s


# ---------------------------------------------------------------------------
# synthetic data


@dataclass
class SynthConfig:
    """Desk-scale synthetic EEG at the pipeline rate: pink noise plus spike-wave ictal bursts."""

    duration_s: float = 60.0
    n_channels: int = 20
    background_amplitude_uv: float = 20.0
    ictal_amplitude_uv: float = 100.0
    ictal_base_freq_hz: float = 3.0
    events: list[tuple[float, float]] | None = None
    n_random_events: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        # each condition holds only for good values, so NaN fails it
        n = self.duration_s * PIPELINE_RATE_HZ
        if not (math.isfinite(n) and round(n) >= 2):
            raise InvalidArgumentError(
                f"duration_s must be finite and hold at least 2 samples at "
                f"{PIPELINE_RATE_HZ} Hz, got {self.duration_s}"
            )
        if self.n_channels <= 0:
            raise InvalidArgumentError(f"n_channels must be positive, got {self.n_channels}")
        for name, value, rule in (
            ("background_amplitude_uv", self.background_amplitude_uv, "> 0"),
            ("ictal_amplitude_uv", self.ictal_amplitude_uv, ">= 0"),
            ("ictal_base_freq_hz", self.ictal_base_freq_hz, "> 0"),
        ):
            in_range = value >= 0 if rule == ">= 0" else value > 0
            if not (math.isfinite(value) and in_range):
                raise InvalidArgumentError(f"{name} must be finite and {rule}, got {value}")
        if self.n_random_events < 0:
            raise InvalidArgumentError(f"n_random_events must be >= 0, got {self.n_random_events}")


def _pink_noise(rng: np.random.Generator, n_channels: int, n: int) -> np.ndarray:
    """Unit-RMS 1/f-shaped noise per channel."""
    white = rng.standard_normal((n_channels, n))
    spec = np.fft.rfft(white, axis=1)
    freqs = np.fft.rfftfreq(n)
    scale = np.ones_like(freqs)
    nz = freqs > 0
    scale[nz] = 1.0 / np.sqrt(freqs[nz] / freqs[nz][0])
    shaped = np.fft.irfft(spec * scale, n=n, axis=1)
    rms = np.sqrt(np.mean(shaped**2, axis=1, keepdims=True))
    return shaped / rms


def synth_recording(cfg: SynthConfig) -> tuple[Recording, LabelTrack]:
    """Generate a seeded synthetic recording and its exactly matching labels."""
    rng = np.random.default_rng(cfg.seed)
    fs = PIPELINE_RATE_HZ
    n = int(round(cfg.duration_s * fs))
    samples = cfg.background_amplitude_uv * _pink_noise(rng, cfg.n_channels, n)

    if cfg.events is not None:
        intervals = [(float(a), float(b)) for a, b in cfg.events]
    else:
        intervals = _place_random_events(rng, cfg)
    for start, stop in intervals:
        if not (0 <= start < stop <= cfg.duration_s):
            raise InvalidArgumentError(
                f"event [{start}, {stop}) outside recording of {cfg.duration_s} s"
            )

    t = np.arange(n) / fs
    for start, stop in intervals:
        i0, i1 = int(round(start * fs)), int(round(stop * fs))
        seg_t = t[i0:i1]
        burst = np.zeros((cfg.n_channels, i1 - i0))
        for harmonic, weight in ((1, 1.0), (2, 0.5), (3, 0.25)):
            phase = rng.uniform(0, 2 * np.pi, size=(cfg.n_channels, 1))
            f = cfg.ictal_base_freq_hz * harmonic
            burst += weight * np.sin(2 * np.pi * f * seg_t[None, :] + phase)
        rms = np.sqrt(np.mean(burst**2)) or 1.0
        samples[:, i0:i1] += cfg.ictal_amplitude_uv * burst / rms

    rec = Recording(
        sample_rate_hz=fs,
        channel_names=[f"CH{i:02d}" for i in range(cfg.n_channels)],
        samples=samples.astype(np.float32),
        montage=Montage.BIPOLAR if cfg.n_channels == 20 else Montage.UNIPOLAR,
    )
    events = [Event(a, b, SeizureLabel.SEIZ) for a, b in intervals]
    return rec, LabelTrack(events=events, total_duration_s=cfg.duration_s)


def _place_random_events(
    rng: np.random.Generator, cfg: SynthConfig
) -> list[tuple[float, float]]:
    intervals: list[tuple[float, float]] = []
    attempts = 0
    while len(intervals) < cfg.n_random_events and attempts < 1000:
        attempts += 1
        length = float(rng.uniform(5.0, 15.0))  # random events last 5 to 15 s
        if length >= cfg.duration_s:
            continue
        start = float(rng.uniform(0, cfg.duration_s - length))
        start, length = round(start, 3), round(length, 3)
        cand = (start, start + length)
        # keep a 2 s guard band between events
        if all(cand[1] + 2.0 <= a or b + 2.0 <= cand[0] for a, b in intervals):
            intervals.append(cand)
    return sorted(intervals)
