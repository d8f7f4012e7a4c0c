import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps
from scipy.fft import dct, rfft

import seizeval as sv
from seizeval import features as ft
from seizeval.errors import InvalidArgumentError

from oracles import dft_magnitude

FS = 200

# The one STFT framing, restated for the oracles: 0.125 s frames every 8
# samples, a 198-point DFT, reflect padding to 100 frames. At 200 Hz a frame
# is 25 samples, and a window of 99 * 8 + 25 = 817 samples or more is
# framed unpadded: frame j is x[8j : 8j + 25].
FRAME_S, NFFT, HOP, PAD_TO_FRAMES = 0.125, 198, 8, 100
UNPADDED_N = (PAD_TO_FRAMES - 1) * HOP + 25
BINS = NFFT // 2 + 1

# Features of a float32 window whose peak is at most ft._F32_PEAK are
# float32. Their oracle bounds follow from the float32 unit roundoff and the
# length of each reduction (a dot of n terms is off by at most about n * U32
# times the dot of the absolute values), not from errors seen on these
# windows. A float64 window keeps the float64 bounds.
U32 = 2.0**-24
F32 = np.dtype(np.float32)


def sine_window(freq_hz, n_channels=20, n=800, fs=FS, phase=0.0):
    t = np.arange(n) / fs
    return np.tile(np.sin(2 * np.pi * freq_hz * t + phase), (n_channels, 1))


class TestRaw:
    def test_passthrough_shape(self):
        # samples are copied exactly, float32 ones in float32
        x = np.random.default_rng(0).normal(size=(20, 800))
        for window in (x, x.astype(np.float32)):
            out = sv.extract_raw(window)
            assert out.shape == (20, 1, 800)
            assert out.data.dtype == window.dtype
            assert out.data[:, 0, :].tobytes() == window.tobytes()

    def test_tiny_window(self):
        out = sv.extract_raw([[1.0, 2.0, 3.0, 4.0]])
        assert out.shape == (1, 1, 4)

    def test_nan_rejected(self):
        with pytest.raises(InvalidArgumentError):
            sv.extract_raw([[1.0, np.nan]])


class TestStft:
    def test_shape_compat_preset(self):
        # the pipeline framing maps a 4 s window to a 100x100 spectrogram
        out = sv.stft(np.zeros((20, 800)))
        assert out.shape == (20, 100, 100)

    def test_literal_preset_no_padding(self):
        # a window long enough for 100 frames is framed as it is
        for n in (UNPADDED_N, UNPADDED_N + HOP - 1, UNPADDED_N + HOP, 2400):
            out = sv.stft(np.ones((2, n)))
            assert out.shape == (2, NFFT // 2 + 1, (n - 25) // HOP + 1)

    def test_zero_window(self):
        out = sv.stft(np.zeros((3, 800)))
        assert np.all(out.data == 0)

    def test_sinusoid_peak_bin(self):
        # at 1584 Hz a frame fills the 198-point DFT and the bins are 8 Hz
        # apart, so an 80 Hz sine must peak on bin 10 in every frame
        fs = 1584
        out = sv.stft(sine_window(80.0, n_channels=1, n=fs, fs=fs), fs)
        assert ft.stft_bin_freqs(fs)[10] == 80.0
        assert out.shape == (1, 100, (fs - NFFT) // HOP + 1)
        assert np.all(out.data[0].argmax(axis=0) == 10)

    def test_peak_bin_matches_direct_dft(self):
        # frames of an unpadded window, direct DFT summation as the oracle
        rng = np.random.default_rng(1)
        x = sine_window(8.0, n_channels=1, n=UNPADDED_N)[0] + 0.01 * rng.normal(size=UNPADDED_N)
        taper = np.hanning(26)[:25]  # periodic hann
        out = sv.stft(x[None, :])
        for j in (0, 1, 57, 99):
            oracle = dft_magnitude(x[HOP * j : HOP * j + 25] * taper, NFFT)
            np.testing.assert_allclose(out.data[0, :, j], oracle, atol=1e-8)
        x32 = x.astype(np.float32)
        out = sv.stft(x32[None, :])
        for j in (0, 1, 57, 99):
            frame = x32[HOP * j : HOP * j + 25] * taper
            oracle = dft_magnitude(frame, NFFT)
            bound = stft_terms(25) * U32 * np.abs(frame).sum()
            assert np.all(np.abs(out.data[0, :, j] - oracle) <= bound)

    def test_frame_longer_than_window(self):
        # a window shorter than one frame is reflect-padded to 100 frames
        for n in (1, 10):
            x = np.random.default_rng(n).normal(size=(1, n))
            assert sv.stft(x).shape == (1, 100, 100)
            assert_matches_in_both_dtypes(x, sv.stft, rfft_stft_oracle, stft_error_bound)

    def test_parseval_identity(self):
        rng = np.random.default_rng(2)
        taper = sps.get_window("hann", 25, fftbins=True)
        for _ in range(20):
            x = rng.normal(size=UNPADDED_N)
            j = int(rng.integers(PAD_TO_FRAMES))
            frame = x[HOP * j : HOP * j + 25]
            out = sv.stft(x[None, :]).data[0, :, j]
            doubled = out**2
            total = doubled[0] + 2 * doubled[1:-1].sum() + doubled[-1]
            energy = np.sum((frame * taper) ** 2)
            assert abs(total - NFFT * energy) / (NFFT * energy) < 1e-6

    @pytest.mark.parametrize(
        "fs,match",
        [
            (3, "frame shorter than one sample"),  # 0.375 samples
            (2000, "250 samples at 2000 Hz, more than the 198-point DFT"),
        ],
        ids=["3Hz", "2000Hz"],
    )
    def test_frame_outside_dft_rejected(self, fs, match):
        with pytest.raises(InvalidArgumentError, match=match):
            sv.stft(np.zeros((1, 4 * fs)), fs)


class TestFrequencyBands:
    def test_default_shape(self):
        out = sv.frequency_bands(np.random.default_rng(0).normal(size=(20, 800)))
        assert out.shape == (20, 7, 100)

    def test_zero_input(self):
        assert np.all(sv.frequency_bands(np.zeros((2, 800))).data == 0)

    def test_band_power_oracle(self):
        out = sv.frequency_bands(sine_window(10.0, n_channels=1))
        means = out.data[0].mean(axis=1)
        # the short analysis frame leaks into the adjacent bands, so the
        # containing band is only required to be the maximum overall and to
        # dominate the well-separated high-frequency bands
        assert np.argmax(means) == 2  # (8, 12)
        assert np.all(means[2] > 10 * means[4:])  # vs (30,50), (50,70), (70,100)

    def test_band_above_nyquist(self):
        with pytest.raises(InvalidArgumentError, match=r"band \(50, 70\) exceeds Nyquist 50"):
            sv.frequency_bands(np.zeros((1, 400)), 100)

    def test_phase_invariance(self):
        a = sv.frequency_bands(sine_window(10.0, 1)).data[0].mean(axis=1)
        quarter = np.pi / 2
        b = sv.frequency_bands(sine_window(10.0, 1, phase=quarter)).data[0].mean(axis=1)
        # absolute slack for the near-zero high bands, where leakage makes
        # relative comparisons meaningless
        np.testing.assert_allclose(a, b, rtol=0.05, atol=0.02 * a.max())


def tapered_frames(x, fs):
    """The Hann-tapered STFT frames of ``x``, (channels, frames, frame)."""
    frame = int(round(FRAME_S * fs))
    # reflect-pad to 100 frames, the odd sample behind
    pad = max((PAD_TO_FRAMES - 1) * HOP + frame - x.shape[1], 0)
    x = np.pad(x, ((0, 0), (pad // 2, pad - pad // 2)), mode="reflect")
    frames = np.lib.stride_tricks.sliding_window_view(x, frame, axis=1)[:, ::HOP, :]
    return frames * sps.get_window("hann", frame, fftbins=True)


def rfft_stft_oracle(x, fs):
    """Zero-padded per-frame rfft of the Hann-tapered frames, (channels, bins, frames)."""
    return np.transpose(np.abs(rfft(tapered_frames(x, fs), n=NFFT, axis=2)), (0, 2, 1))


def stft_terms(frame):
    """Units of U32, times a frame's Hann-weighted absolute sum S, that bound
    a float32 magnitude's error: rounding the basis and a ``frame``-term
    dot, with a unit to spare, (frame + 2) U32 S for each of the two parts,
    so sqrt(2) of that for the modulus, which itself rounds by a few U32."""
    return np.sqrt(2) * (frame + 2) + 4


def stft_error_bound(x, fs, terms=0):
    """(channels, 1, frames) bound on the error of each float32 STFT output
    of ``x``; ``terms`` adds that many U32 * S, for the band means."""
    frames = np.abs(tapered_frames(x, fs))  # the taper is non-negative
    return (stft_terms(frames.shape[2]) + terms) * U32 * frames.sum(axis=2)[:, None, :]


def bands_error_bound(x, fs):
    """The STFT bound plus a BINS-term mean, which rounds by (BINS + 2) U32
    of its largest term (a magnitude is at most S) with the rounded weights."""
    return stft_error_bound(x, fs, terms=BINS + 2)


def assert_within(got, want, bound):
    assert got.dtype == np.float32 and got.shape == want.shape
    assert np.all(np.abs(got - want) <= bound)


def assert_matches_oracle(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def assert_matches_in_both_dtypes(x, extract, oracle, bound, fs=FS):
    """``extract(x)`` of a float64 window matches ``oracle`` in float64
    (``assert_matches_oracle``); of the float32 cast of ``x``, it is within
    ``bound`` of the oracle of that cast. Both have the oracle's shape."""
    got, want = extract(x).data, oracle(x, fs)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert_matches_oracle(got, want)
    x32 = x.astype(np.float32)
    assert_within(extract(x32).data, oracle(x32, fs), bound(x32, fs))


def bands_oracle(x, fs):
    spec = rfft_stft_oracle(x, fs)
    freqs = np.arange(NFFT // 2 + 1) * fs / NFFT
    return np.stack(
        [spec[:, (freqs >= lo) & (freqs < hi), :].mean(axis=1) for lo, hi in ft.DEFAULT_BAND_EDGES],
        axis=1,
    )


# (rate, window length) cases of the one framing. "shape_compat" windows are
# too short for 100 frames and are reflect-padded to exactly 100;
# "literal" windows are framed as they are, frame j reading the samples from
# 8j on (817 samples is the shortest such window at 200 Hz).
PRESETS = {
    "shape_compat": [(fs, n) for fs in (200, 250, 256) for n in (37, 800)] + [(250, 817), (256, 817)],
    "literal": [(200, UNPADDED_N)] + [(fs, 2400) for fs in (200, 250, 256)],
}


def preset_windows(preset, n_channels):
    """(rate, window, frames) for each case of ``preset``, with the frame count it must give."""
    for fs, n in PRESETS[preset]:
        x = 30 * np.random.default_rng([n_channels, fs, n]).normal(size=(n_channels, n))
        frame = int(round(FRAME_S * fs))
        frames = PAD_TO_FRAMES if preset == "shape_compat" else (n - frame) // HOP + 1
        yield fs, x, frames


class TestDftBasis:
    @pytest.mark.parametrize("n_channels", [1, 20])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_stft_matches_rfft_oracle(self, preset, n_channels):
        for fs, x, frames in preset_windows(preset, n_channels):
            assert sv.stft(x, fs).shape == (n_channels, NFFT // 2 + 1, frames)
            extract = lambda w: sv.stft(w, fs)
            assert_matches_in_both_dtypes(x, extract, rfft_stft_oracle, stft_error_bound, fs)

    @pytest.mark.parametrize("n_channels", [1, 20])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_bands_match_rfft_oracle(self, preset, n_channels):
        for fs, x, frames in preset_windows(preset, n_channels):
            shape = (n_channels, len(ft.DEFAULT_BAND_EDGES), frames)
            assert sv.frequency_bands(x, fs).shape == shape
            extract = lambda w: sv.frequency_bands(w, fs)
            assert_matches_in_both_dtypes(x, extract, bands_oracle, bands_error_bound, fs)

    def test_default_bands_match_rfft_oracle(self):
        x = np.random.default_rng(5).normal(size=(20, 800))
        assert_matches_in_both_dtypes(x, sv.frequency_bands, bands_oracle, bands_error_bound)

    def test_repeated_calls_bit_identical(self):
        x = np.random.default_rng(6).normal(size=(20, 800))
        assert sv.stft(x).data.tobytes() == sv.stft(x).data.tobytes()
        assert sv.frequency_bands(x).data.tobytes() == sv.frequency_bands(x).data.tobytes()

    def test_basis_cached_and_read_only(self):
        # columns 2k and 2k + 1 are bin k's tapered cos and -sin, computed in
        # float64 and rounded once, so each row of a product reads as a
        # complex64 (complex128) spectrum
        angle = (2 * np.pi / 198) * (np.outer(np.arange(25), np.arange(100)) % 198)
        taper = sps.get_window("hann", 25, fftbins=True)[:, None]
        for dtype in (F32, np.dtype(np.float64)):
            basis = ft._dft_basis(25, 198, dtype)
            assert basis is ft._dft_basis(25, 198, dtype)
            assert basis.shape == (25, 2 * 100) and basis.dtype == dtype
            assert basis[:, 0::2].tobytes() == (np.cos(angle) * taper).astype(dtype).tobytes()
            assert basis[:, 1::2].tobytes() == (-np.sin(angle) * taper).astype(dtype).tobytes()
        assert not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[0, 0] = 1.0

    def test_hann_taper_bit_equal_to_scipy(self):
        for n in range(1, 400):
            assert ft._hann(n).tobytes() == sps.get_window("hann", n, fftbins=True).tobytes()

    def test_band_covering_no_bin(self):
        # at 800 Hz the bins are 4.04 Hz apart: none lies in [1, 4)
        with pytest.raises(InvalidArgumentError, match=r"band \(1, 4\) covers no STFT bin"):
            sv.frequency_bands(np.zeros((1, 3200)), 800)


class TestLfcc:
    def test_default_frames(self):
        out = sv.lfcc(np.random.default_rng(0).normal(size=(20, 800)))
        assert out.shape == (20, 8, 25)

    def test_zero_window_constant_frames(self):
        out = sv.lfcc(np.zeros((1, 800)))
        first = out.data[0, :, 0]
        for f in range(out.shape[2]):
            np.testing.assert_allclose(out.data[0, :, f], first)

    def test_scale_shift_property(self):
        # doubling the frame shifts only the DC cepstral coefficient
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 800))
        a = sv.lfcc(x).data[0]
        b = sv.lfcc(2 * x).data[0]
        np.testing.assert_allclose(a[1:], b[1:], atol=1e-6)
        shift = b[0] - a[0]
        assert shift[0] > 0
        np.testing.assert_allclose(shift, shift[0], atol=1e-6)

    @pytest.mark.parametrize("fs", [2, 3])
    def test_hop_under_one_sample_rejected(self, fs):
        # 0.15 s rounds to 0 samples below 4 Hz
        with pytest.raises(InvalidArgumentError, match=f"under one sample at {fs} Hz"):
            ft.get_extractor("lfcc", fs)(np.ones((2, 4 * fs)))

    def test_filterbank_cached_and_read_only(self):
        # 0.3 s frames at 200 Hz: 60 samples, 31 rfft bins
        bank = ft.linear_triangular_filterbank(20, 31, FS, 60)
        assert bank is ft.linear_triangular_filterbank(20, 31, FS, 60)
        fresh = ft.linear_triangular_filterbank.__wrapped__(20, 31, FS, 60)
        assert bank.tobytes() == fresh.tobytes()
        assert not bank.flags.writeable
        with pytest.raises(ValueError):
            bank[0, 0] = 1.0
        # every lfcc window reuses the bank
        hits = ft.linear_triangular_filterbank.cache_info().hits
        sv.lfcc(np.ones((2, 800)), FS)
        assert ft.linear_triangular_filterbank.cache_info().hits == hits + 1

    @pytest.mark.parametrize("n_filters,n_coeffs", [(20, 8), (20, 20), (7, 3), (1, 1)])
    def test_dct_basis_matches_scipy_dct(self, n_filters, n_coeffs):
        x = np.log(np.random.default_rng(n_filters).uniform(1e-6, 1e3, size=(4, 9, n_filters)))
        want = dct(x, type=2, norm="ortho", axis=2)[:, :, :n_coeffs]
        basis = ft._dct_basis(n_filters, n_coeffs)
        assert basis is ft._dct_basis(n_filters, n_coeffs)
        assert not basis.flags.writeable
        np.testing.assert_allclose(x @ basis, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestSincKernel:
    def test_center_tap(self):
        # difference of sincs, Hamming-tapered, divided by the peak of its
        # 4096-point magnitude response; the taper is 1 at the centre tap
        n = np.arange(81) - 40
        f1, f2 = 8 / FS, 12 / FS
        want = (2 * f2 * np.sinc(2 * f2 * n) - 2 * f1 * np.sinc(2 * f1 * n)) * np.hamming(81)
        peak = np.abs(np.fft.rfft(want, 4096)).max()
        h = sv.design_sinc_kernel(8, 12, 81, FS)
        np.testing.assert_allclose(h, want / peak, rtol=0, atol=1e-12)
        assert abs(h[40] - 2 * (f2 - f1) / peak) < 1e-12

    def test_lowpass_dc_gain(self):
        h = sv.design_sinc_kernel(0, 20, 81, FS)
        dc = abs(np.fft.rfft(h, 4096)[0])
        assert abs(dc - 1.0) < 0.05

    def test_bandpass_response(self):
        h = sv.design_sinc_kernel(8, 12, 80, FS)
        resp = np.abs(np.fft.rfft(h, 4096))
        freqs = np.fft.rfftfreq(4096, 1 / FS)
        at = lambda f: resp[np.argmin(np.abs(freqs - f))]
        assert at(10) > 10 * at(40)

    def test_inverted_band(self):
        with pytest.raises(InvalidArgumentError):
            sv.design_sinc_kernel(12, 8, 80, FS)

    @pytest.mark.parametrize("kernel_len", [0, -1])
    def test_empty_kernel_rejected(self, kernel_len):
        with pytest.raises(InvalidArgumentError, match="kernel_len"):
            sv.design_sinc_kernel(1, 4, kernel_len, FS)


def same_convolve(row, kernel):
    """The centred N samples of the full convolution: np.convolve(row, kernel,
    "same") whenever N >= len(kernel), and still N samples when it is shorter."""
    start = (kernel.size - 1) // 2
    return np.convolve(row, kernel)[start : start + row.size]


def sinc_oracle(x, fs):
    # the one sinc configuration: 7 bands, 80 taps, every 2nd output
    kernels = [ft.design_sinc_kernel(f1, f2, 80, fs) for f1, f2 in ft.DEFAULT_BAND_EDGES]
    return np.stack([[same_convolve(row, k)[::2] for row in x] for k in kernels])


class TestSincFilterbank:
    def test_default_shape(self):
        out = sv.sinc_filterbank(np.random.default_rng(0).normal(size=(20, 800)))
        assert out.shape == (7, 20, 400)

    def test_zero_input(self):
        assert np.all(sv.sinc_filterbank(np.zeros((2, 800))).data == 0)

    def test_band_selectivity(self):
        out = sv.sinc_filterbank(sine_window(10.0, 1)).data
        rms = np.sqrt((out**2).mean(axis=2))[:, 0]
        assert rms[2] > 5 * rms[6]  # (8,12) vs (70,100)

    def test_homogeneity(self):
        x = np.random.default_rng(1).normal(size=(3, 800))
        a = sv.sinc_filterbank(x).data
        b = sv.sinc_filterbank(3.0 * x).data
        np.testing.assert_allclose(b, 3.0 * a, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize(
        "n_channels,n,fs",
        [(1, 800, FS), (20, 800, FS), (3, 801, FS), (3, 37, FS), (20, 1024, 256)],
    )
    def test_matches_convolve_oracle(self, n_channels, n, fs):
        x = 30 * np.random.default_rng(n).normal(size=(n_channels, n))
        got = sv.sinc_filterbank(x, fs).data
        want = sinc_oracle(x, fs)
        assert got.shape == want.shape == (7, n_channels, -(-n // 2))
        assert_matches_oracle(got, want)

    def test_repeated_calls_bit_identical(self):
        x = np.random.default_rng(7).normal(size=(20, 800))
        assert sv.sinc_filterbank(x).data.tobytes() == sv.sinc_filterbank(x).data.tobytes()

    def test_sinc_bank_reads_the_constants(self):
        bank = ft.SincBank()
        assert (bank.kernel_len, bank.stride, bank.bands) == (80, 2, ft.DEFAULT_BAND_EDGES)

    def test_taps_cached_and_read_only(self):
        taps = ft._sinc_taps(FS)
        assert taps is ft._sinc_taps(FS)
        assert taps.shape == (80, 7)
        np.testing.assert_array_equal(taps[::-1, 2], ft.design_sinc_kernel(8, 12, 80, FS))
        assert not taps.flags.writeable
        with pytest.raises(ValueError):
            taps[0, 0] = 1.0

    def test_banded_cached_and_read_only(self):
        banded = ft._sinc_banded(FS)
        assert banded is ft._sinc_banded(FS)
        assert not banded.flags.writeable
        with pytest.raises(ValueError):
            banded[0, 0] = 1.0
        taps, g = ft._sinc_taps(FS), ft._SINC_GROUP
        assert banded.shape == (2 * (g - 1) + 80, g * 7)
        for j in range(g):
            block = banded[:, j * 7 : (j + 1) * 7]
            np.testing.assert_array_equal(block[2 * j : 2 * j + 80], taps)
            assert not block[: 2 * j].any() and not block[2 * j + 80 :].any()


# samples per sinc block: a window shifted by a whole number of these reuses outputs
SINC_STEP = ft._SINC_BLOCK * 2
# 60 s of a random float32 recording; streams slice their windows from it
STREAM_REC = (30 * np.random.default_rng(11).normal(size=(3, 60 * FS))).astype(np.float32)
# 30 s of 22 channels, for streams whose blocks take several products each
WIDE_REC = (30 * np.random.default_rng(12).normal(size=(22, 30 * FS))).astype(np.float32)
# STREAM_REC with a sample beyond ft._F32_PEAK every 7 s, on a different
# channel each time: 4 s windows that hold one run in float64, the others in
# float32, and every 12 s window holds one
LOUD_REC = STREAM_REC.copy()
for _k, _t in enumerate(range(7 * FS, LOUD_REC.shape[1], 7 * FS)):
    LOUD_REC[_k % 3, _t] = (-1) ** _k * 2 * ft._F32_PEAK


def assert_stream_equals_fresh(extract, fresh, rec, first, steps):
    """Windows of ``rec`` that start at ``first`` and move by ``steps`` of
    (shift in samples, length in s): ``extract`` returns what ``fresh`` does
    on a copy, bit for bit, and never writes a tensor it returned before."""
    start, returned = first, []
    for shift, window_s in steps:
        n = window_s * FS
        start = min(max(start + shift, 0), rec.shape[1] - n)
        window = rec[:, start : start + n]
        got = extract(window)
        assert got.data.tobytes() == fresh(window.copy()).data.tobytes()
        returned.append((got, got.data.tobytes()))
    assert all(t.data.tobytes() == b for t, b in returned)


def sinc_steps(max_size):
    """Lists of (shift in samples, window length in s) for a sinc stream;
    shifts by whole blocks come up often, so outputs get reused."""
    shift = st.one_of(
        st.sampled_from([0, SINC_STEP, 2 * SINC_STEP]), st.integers(-3 * SINC_STEP, 3 * SINC_STEP)
    )
    return st.lists(st.tuples(shift, st.sampled_from([4, 12])), min_size=1, max_size=max_size)


class TestSincStream:
    """One ``get_extractor("sincnet")`` object returns what a fresh
    ``sinc_filterbank`` call returns, bit for bit, whatever came before."""

    @settings(max_examples=60, deadline=None)
    @given(first=st.integers(0, STREAM_REC.shape[1]), steps=sinc_steps(10))
    def test_stream_equals_fresh(self, first, steps):
        extract = ft.get_extractor("sincnet")
        assert_stream_equals_fresh(extract, ft.sinc_filterbank, STREAM_REC, first, steps)

    def test_computes_only_the_new_block_and_the_edges(self, monkeypatch):
        # 4 s windows at a 1 s shift: 100 new interior outputs plus 20 + 19
        # zero-padded edge outputs per channel, of 400
        # outputs counted through both paths: interior blocks and dense edges
        counted = []
        fir_rows, edge_rows = ft._fir_rows, ft._edge_rows

        def counting_blocks(x, banded, j0, j1):
            counted.append(j1 - j0)
            return fir_rows(x, banded, j0, j1)

        def counting_edges(x, fs, j0, j1):
            counted.append(j1 - j0)
            return edge_rows(x, fs, j0, j1)

        monkeypatch.setattr(ft, "_fir_rows", counting_blocks)
        monkeypatch.setattr(ft, "_edge_rows", counting_edges)
        extract = ft.get_extractor("sincnet")
        per_window = []
        for k in range(5):
            counted.clear()
            extract(STREAM_REC[:, k * FS : k * FS + 4 * FS])
            per_window.append(sum(counted))
        assert per_window == [439, 139, 139, 139, 139]

    @pytest.mark.parametrize("n_channels", [20, 22])
    @settings(max_examples=15, deadline=None)
    @given(first=st.integers(0, WIDE_REC.shape[1]), steps=sinc_steps(6))
    def test_stream_equals_fresh_across_products(self, n_channels, first, steps):
        # at 20 or more channels one block's rows span several products
        banded = ft._sinc_banded(FS)
        block_rows = n_channels * ft._SINC_BLOCK // ft._SINC_GROUP
        assert block_rows * banded.size > ft._ONE_THREAD_MACS
        rec = WIDE_REC[:n_channels]
        extract = ft.get_extractor("sincnet")
        start = first
        for shift, window_s in steps:
            n = window_s * FS
            start = min(max(start + shift, 0), rec.shape[1] - n)
            window = rec[:, start : start + n]
            assert extract(window).data.tobytes() == ft.sinc_filterbank(window.copy()).data.tobytes()

    @pytest.mark.parametrize("n_channels", [3, 22])
    def test_products_stay_on_one_core(self, monkeypatch, n_channels):
        # OpenBLAS runs a product of at most _ONE_THREAD_MACS multiply-adds on
        # one thread; every product the filterbank takes stays under it
        shapes = []
        matmul = np.matmul

        def recording(a, b, **kwargs):
            shapes.append((a.shape, b.shape))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", recording)
        window = np.random.default_rng(n_channels).normal(size=(n_channels, 4 * FS))
        ft.sinc_filterbank(window)
        macs = [a[0] * a[1] * b[1] for a, b in shapes]
        assert macs and max(macs) <= ft._ONE_THREAD_MACS
        # the dense edge products are among them, and cover every channel
        for j0, j1 in ((0, 20), (381, 400)):
            edge = ft._sinc_edge(FS, 4 * FS, j0, j1)[1]
            assert sum(a[0] for a, b in shapes if b == edge.shape) == n_channels

    def test_caller_buffer_mutated_in_place(self):
        # the cache compares against its own copy: after the buffer is
        # overwritten with a 1-block-periodic signal, its leading samples
        # equal its own trailing ones, but not the window the cache saw
        extract = ft.get_extractor("sincnet")
        buf = STREAM_REC[:, : 4 * FS].copy()
        extract(buf)
        buf[:] = np.tile(STREAM_REC[:, :SINC_STEP], 4 * FS // SINC_STEP)
        assert extract(buf).data.tobytes() == ft.sinc_filterbank(buf.copy()).data.tobytes()

    def test_failed_window_leaves_cache_unchanged(self):
        extract = ft.get_extractor("sincnet")
        extract(STREAM_REC[:, : 4 * FS])
        bad = STREAM_REC[:, SINC_STEP : SINC_STEP + 4 * FS].copy()
        bad[1, -1] = np.nan
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            extract(bad)
        nxt = STREAM_REC[:, SINC_STEP : SINC_STEP + 4 * FS]
        assert extract(nxt).data.tobytes() == ft.sinc_filterbank(nxt).data.tobytes()

    def test_flat_is_a_view(self):
        tensor = ft.get_extractor("sincnet")(STREAM_REC[:, : 4 * FS])
        assert np.shares_memory(tensor.flat(), tensor.data)


# samples per STFT block: a 1 s shift at 200 Hz
BANDS_STEP = ft._FRAME_BLOCK * HOP


def bands_steps():
    """Lists of (shift in samples, window length in s) for an STFT stream."""
    shift = st.one_of(
        st.sampled_from([0, BANDS_STEP, 2 * BANDS_STEP]),
        st.integers(-3 * BANDS_STEP, 3 * BANDS_STEP),
    )
    return st.lists(st.tuples(shift, st.sampled_from([4, 12])), min_size=1, max_size=10)


def streamed_bands():
    """``frequency_bands`` with one ``BlockCache`` kept across calls."""
    cache = ft.BlockCache()
    return lambda w: ft.frequency_bands(w, cache=cache)


class TestBandsStream:
    """``frequency_bands`` with one ``BlockCache`` returns what a fresh call
    returns, bit for bit, whatever came before; the ``stft`` callable shares
    its frame blocks."""

    @pytest.mark.parametrize("name,fresh", [("bands", "frequency_bands"), ("stft", "stft")])
    @settings(max_examples=60, deadline=None)
    @given(first=st.integers(0, STREAM_REC.shape[1]), steps=bands_steps())
    def test_stream_equals_fresh(self, name, fresh, first, steps):
        extract = streamed_bands() if name == "bands" else ft.get_extractor(name)
        assert_stream_equals_fresh(extract, getattr(ft, fresh), STREAM_REC, first, steps)

    @pytest.mark.parametrize("name,fresh", [("bands", "frequency_bands"), ("stft", "stft")])
    @settings(max_examples=40, deadline=None)
    @given(first=st.integers(0, LOUD_REC.shape[1]), steps=bands_steps())
    def test_stream_equals_fresh_across_dtypes(self, name, fresh, first, steps):
        # windows on either side of the float32-safe peak share no outputs
        extract = streamed_bands() if name == "bands" else ft.get_extractor(name)
        assert_stream_equals_fresh(extract, getattr(ft, fresh), LOUD_REC, first, steps)

    def test_computes_28_of_100_frames_per_channel(self, monkeypatch):
        # 4 s windows at a 1 s shift: 25 new interior frames plus the 3
        # reflect-padded edge frames; the first window computes 4 blocks of
        # 25 (3 of them placeholders before frame 1) and the edges
        counted = []
        spectral_rows = ft._spectral_rows

        def counting(frames, *args):
            counted.append(frames.shape[1])
            return spectral_rows(frames, *args)

        monkeypatch.setattr(ft, "_spectral_rows", counting)
        extract = streamed_bands()
        per_window = []
        for k in range(5):
            counted.clear()
            extract(STREAM_REC[:, k * FS : k * FS + 4 * FS])
            per_window.append(sum(counted))
        assert per_window == [103, 28, 28, 28, 28]

    def test_get_extractor_streams_bands_through_a_cache(self, monkeypatch):
        # the CLI's and the benchmark's stream: bit-equal to fresh calls, and
        # 28 frames per window after the first
        counted = []
        spectral_rows = ft._spectral_rows

        def counting(frames, *args):
            counted.append(frames.shape[1])
            return spectral_rows(frames, *args)

        monkeypatch.setattr(ft, "_spectral_rows", counting)
        extract = ft.get_extractor("bands")
        rec = sv.Recording(FS, [f"C{i}" for i in range(STREAM_REC.shape[0])], STREAM_REC)
        per_window = []
        for w in sv.slice_windows(rec, sv.WindowSpec(4, 1)):
            counted.clear()
            got = extract(w.samples)
            per_window.append(sum(counted))
            assert got.data.tobytes() == ft.frequency_bands(w.samples.copy()).data.tobytes()
        assert per_window == [103] + [28] * (len(per_window) - 1)

    def test_caller_buffer_mutated_in_place(self):
        extract = streamed_bands()
        buf = STREAM_REC[:, : 4 * FS].copy()
        extract(buf)
        buf[:] = np.tile(STREAM_REC[:, :BANDS_STEP], 4 * FS // BANDS_STEP)
        assert extract(buf).data.tobytes() == ft.frequency_bands(buf.copy()).data.tobytes()

    def test_failed_window_leaves_cache_unchanged(self):
        extract = streamed_bands()
        extract(STREAM_REC[:, : 4 * FS])
        bad = STREAM_REC[:, BANDS_STEP : BANDS_STEP + 4 * FS].copy()
        bad[1, -1] = np.nan
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            extract(bad)
        nxt = STREAM_REC[:, BANDS_STEP : BANDS_STEP + 4 * FS]
        assert extract(nxt).data.tobytes() == ft.frequency_bands(nxt).data.tobytes()

    def test_flat_is_a_view(self):
        tensor = streamed_bands()(STREAM_REC[:, : 4 * FS])
        assert np.shares_memory(tensor.flat(), tensor.data)


@pytest.mark.parametrize("fresh", ["sinc_filterbank", "stft", "frequency_bands"])
@pytest.mark.parametrize("with_cache", [False, True])
def test_block_extractors_return_read_only_tensors(fresh, with_cache):
    # with a cache, the second window reuses the first one's outputs, and the
    # cache keeps the returned array itself rather than a copy
    cache = ft.BlockCache() if with_cache else None
    for start in (0, SINC_STEP):
        tensor = getattr(ft, fresh)(STREAM_REC[:, start : start + 4 * FS], FS, cache)
        with pytest.raises(ValueError, match="read-only"):
            tensor.data[0, 0, -1] = 0.0
        assert cache is None or cache.out is tensor.data


class TestMultirate:
    def test_lengths(self):
        # the 200, 100 and 50 Hz copies, one after the other on the time axis
        x = np.random.default_rng(3).normal(size=(20, 800)).astype(np.float32)
        out = sv.multirate(x)
        assert out.extractor_id == "multirate"
        assert out.shape == (20, 1, 800 + 400 + 200)
        want = np.concatenate([x, x[:, ::2], x[:, ::4]], axis=1)[:, None, :]
        assert out.data.dtype == np.float32 and out.data.tobytes() == want.tobytes()

    def test_constant(self):
        out = sv.multirate(np.full((1, 800), 2.5))
        assert np.all(out.data == 2.5)

    def test_non_divisor_rate(self):
        with pytest.raises(InvalidArgumentError, match="rate 200 does not divide 256"):
            sv.multirate(np.zeros((1, 800)), sample_rate_hz=256)


class TestDeterminismAndDump:
    def test_extractors_pure(self):
        x = np.random.default_rng(9).normal(size=(4, 800))
        for name in ft.EXTRACTOR_NAMES:
            f = ft.get_extractor(name)
            assert f(x).data.tobytes() == f(x).data.tobytes()


@pytest.mark.parametrize("name", ft.EXTRACTOR_NAMES)
def test_empty_window_rejected(name):
    with pytest.raises(InvalidArgumentError, match="no samples"):
        ft.get_extractor(name)(np.ones((2, 0)))


# The one window check (``_check_window``) stands in for a check of every
# output: any window of finite float32 samples gives finite outputs.
F32_MAX = float(np.finfo(np.float32).max)
F32_EXTREMES = [F32_MAX, -F32_MAX, float(np.finfo(np.float32).smallest_subnormal),
                -float(np.finfo(np.float32).smallest_subnormal), 0.0, -0.0]


def documented_shape(name, c, n):
    frames = max(PAD_TO_FRAMES, (n - 25) // HOP + 1)  # at 200 Hz, a 25-sample frame
    return {
        "raw": (c, 1, n),
        "sincnet": (7, c, -(-n // 2)),
        "stft": (c, NFFT // 2 + 1, frames),
        "bands": (c, 7, frames),
        "lfcc": (c, 8, (n - 60) // 30 + 1),  # 0.3 s frames every 0.15 s
        "multirate": (c, 1, n + -(-n // 2) + -(-n // 4)),
    }[name]


@pytest.mark.parametrize("name", ft.EXTRACTOR_NAMES)
@settings(max_examples=40, deadline=None)
@given(
    pattern=st.lists(
        st.one_of(st.sampled_from(F32_EXTREMES), st.floats(width=32, allow_nan=False,
                                                           allow_infinity=False)),
        min_size=1, max_size=40,
    ),
    alternate=st.booleans(),
    c=st.integers(1, 3),
    n=st.sampled_from([400, 800, 1000]),
)
def test_finite_float32_window_gives_finite_outputs(name, pattern, alternate, c, n):
    if alternate:  # full-scale swings: +max, -max, +max, ...
        pattern = [F32_MAX, -F32_MAX] * len(pattern)
    window = np.resize(np.array(pattern, dtype=np.float32), (c, n))
    out = ft.get_extractor(name)(window)
    assert out.shape == documented_shape(name, c, n)
    assert np.isfinite(out.data).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
@pytest.mark.parametrize("name", ft.EXTRACTOR_NAMES)
def test_non_finite_or_out_of_range_sample_rejected(name, bad):
    window = np.zeros((2, 800))
    window[1, 123] = bad
    with pytest.raises(InvalidArgumentError, match="non-finite sample or one beyond float32 range"):
        ft.get_extractor(name)(window)


def test_float32_peak_bounds_every_cached_matrix():
    # _F32_PEAK holds if no column of the DFT basis has an L1 norm above
    # _FFT_SIZE / 2 (up to the rounding of the basis, which the factor of 2
    # in _F32_PEAK covers) and every band averaging column sums to 1; 1584 Hz
    # is the rate whose frame fills the DFT
    f64 = np.dtype(np.float64)
    for fs in (200, 256, 1000, 1584):
        basis = ft._dft_basis(ft._frame_samples(fs), ft._FFT_SIZE, f64)
        assert np.abs(basis).sum(axis=0).max() <= ft._FFT_SIZE / 2 * (1 + 1e-12)
        if fs <= 256:  # at 1000 Hz and above the (1, 4) band covers no bin
            averaging = ft._band_averaging(fs, f64)
            np.testing.assert_allclose(averaging.sum(axis=0), 1.0, rtol=1e-12)
            assert (averaging >= 0).all()


@pytest.mark.parametrize("name", ft.EXTRACTOR_NAMES)
def test_working_dtype_follows_the_peak(name):
    # a float32 window runs in float32 up to ft._F32_PEAK and in float64
    # beyond it, a window of any other dtype in float64; sincnet and lfcc
    # are float64 whatever the window
    extract = ft.get_extractor(name)
    f32 = np.float64 if name in ("sincnet", "lfcc") else np.float32
    window = 30 * np.random.default_rng(13).normal(size=(2, 800))
    assert extract(window).data.dtype == np.float64
    window = window.astype(np.float32)
    peak = np.float32(ft._F32_PEAK)
    assert float(peak) <= ft._F32_PEAK
    window[1, 400] = -peak
    assert extract(window).data.dtype == f32
    window[1, 400] = np.nextafter(-peak, np.float32(-np.inf))
    assert extract(window).data.dtype == np.float64
    # full-scale swings at the bound stay finite in float32
    out = extract(np.resize(np.array([peak, -peak]), (3, 800)))
    assert out.data.dtype == f32 and np.isfinite(out.data).all()
