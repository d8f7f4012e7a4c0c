import numpy as np
import pytest
from scipy.fft import rfft

import seizeval as sv
from seizeval import features as ft
from seizeval.errors import InvalidArgumentError, TruncatedPayloadError

from oracles import dft_magnitude

FS = 200


def sine_window(freq_hz, n_channels=20, n=800, fs=FS, phase=0.0):
    t = np.arange(n) / fs
    return np.tile(np.sin(2 * np.pi * freq_hz * t + phase), (n_channels, 1))


class TestRaw:
    def test_passthrough_shape(self):
        x = np.random.default_rng(0).normal(size=(20, 800))
        out = sv.extract_raw(x)
        assert out.shape == (20, 1, 800)
        np.testing.assert_array_equal(out.data[:, 0, :], x)

    def test_tiny_window(self):
        out = sv.extract_raw([[1.0, 2.0, 3.0, 4.0]])
        assert out.shape == (1, 1, 4)

    def test_nan_rejected(self):
        with pytest.raises(InvalidArgumentError):
            sv.extract_raw([[1.0, np.nan]])


class TestStft:
    def test_shape_compat_preset(self):
        out = sv.stft(np.zeros((20, 800)), ft.StftParams.shape_compat())
        assert out.shape == (20, 100, 100)

    def test_literal_preset_no_padding(self):
        params = ft.StftParams.literal()
        out = sv.stft(np.ones((2, 800)), params)
        frame, hop = params.frame_samples(FS), params.hop(FS)
        assert out.shape[2] == (800 - frame) // hop + 1
        assert out.shape[1] == frame // 2 + 1

    def test_zero_window(self):
        out = sv.stft(np.zeros((3, 800)))
        assert np.all(out.data == 0)

    def test_sinusoid_peak_bin(self):
        # 1 s frames give 1 Hz bins, so the peak must sit on the 8 Hz bin;
        # the short default frame is checked against the DFT oracle below
        params = ft.StftParams(frame_len_s=1.0, hop_fraction=0.25)
        out = sv.stft(sine_window(8.0, n_channels=1), params)
        freqs = ft.stft_bin_freqs(params)
        expected_bin = int(np.argmin(np.abs(freqs - 8.0)))
        peaks = out.data[0].argmax(axis=0)
        assert np.all(peaks == expected_bin)

    def test_peak_bin_matches_direct_dft(self):
        # one frame, direct DFT summation as the oracle
        rng = np.random.default_rng(1)
        frame = np.sin(2 * np.pi * 8.0 * np.arange(25) / FS) + 0.01 * rng.normal(size=25)
        taper = np.hanning(26)[:25]  # periodic hann
        oracle = dft_magnitude(frame * taper, 198)
        params = ft.StftParams(fft_size=198, hop_samples=25)
        out = sv.stft(frame[None, :25], params)
        np.testing.assert_allclose(out.data[0, :, 0], oracle, atol=1e-8)

    def test_frame_longer_than_window(self):
        with pytest.raises(InvalidArgumentError):
            sv.stft(np.zeros((1, 10)), ft.StftParams(frame_len_s=0.125))

    def test_parseval_identity(self):
        rng = np.random.default_rng(2)
        params = ft.StftParams(fft_size=198, hop_samples=25)
        taper = ft.sps.get_window("hann", 25, fftbins=True)
        for _ in range(20):
            frame = rng.normal(size=25)
            out = sv.stft(frame[None, :], params).data[0, :, 0]
            nfft = 198
            doubled = out**2
            total = doubled[0] + 2 * doubled[1:-1].sum() + doubled[-1]
            energy = np.sum((frame * taper) ** 2)
            assert abs(total - nfft * energy) / (nfft * energy) < 1e-6


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
        with pytest.raises(InvalidArgumentError):
            sv.frequency_bands(
                np.zeros((1, 800)), bands=ft.BandSpec(((1, 4), (90, 150)))
            )

    def test_phase_invariance(self):
        a = sv.frequency_bands(sine_window(10.0, 1)).data[0].mean(axis=1)
        quarter = np.pi / 2
        b = sv.frequency_bands(sine_window(10.0, 1, phase=quarter)).data[0].mean(axis=1)
        # absolute slack for the near-zero high bands, where leakage makes
        # relative comparisons meaningless
        np.testing.assert_allclose(a, b, rtol=0.05, atol=0.02 * a.max())


def rfft_stft_oracle(x, params):
    """Zero-padded per-frame rfft of the Hann-tapered frames, (channels, bins, frames)."""
    frame, nfft = params.frame_samples(FS), params.nfft(FS)
    frames = ft._frame_signal(x, frame, params.hop(FS), params.pad_to_frames)
    taper = ft.sps.get_window("hann", frame, fftbins=True)
    return np.transpose(np.abs(rfft(frames * taper, n=nfft, axis=2)), (0, 2, 1))


def bands_oracle(x, params, bands, power):
    spec = rfft_stft_oracle(x, params)
    if power:
        spec = spec**2
    freqs = ft.stft_bin_freqs(params, FS)
    return np.stack(
        [spec[:, (freqs >= lo) & (freqs < hi), :].mean(axis=1) for lo, hi in bands.edges],
        axis=1,
    )


def assert_matches_oracle(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


PRESETS = {
    "shape_compat": (
        ft.StftParams.shape_compat(),
        ft.BandSpec(((0.5, 3), (3, 9.5), (20, 45), (60, 99.9))),
    ),
    # 8 Hz bins: the default (1, 4) band would cover none of them
    "literal": (ft.StftParams.literal(), ft.BandSpec(((0, 10), (10, 40), (40, 100)))),
}


class TestDftBasis:
    @pytest.mark.parametrize("n_channels", [1, 20])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_stft_matches_rfft_oracle(self, preset, n_channels):
        params, _ = PRESETS[preset]
        x = 30 * np.random.default_rng(n_channels).normal(size=(n_channels, 800))
        got = sv.stft(x, params).data
        want = rfft_stft_oracle(x, params)
        assert got.shape == want.shape
        assert_matches_oracle(got, want)

    @pytest.mark.parametrize("power", [False, True])
    @pytest.mark.parametrize("n_channels", [1, 20])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_bands_match_rfft_oracle(self, preset, n_channels, power):
        params, bands = PRESETS[preset]
        x = 30 * np.random.default_rng(n_channels).normal(size=(n_channels, 800))
        got = sv.frequency_bands(x, params, bands, power=power).data
        want = bands_oracle(x, params, bands, power)
        assert got.shape == want.shape
        assert_matches_oracle(got, want)

    def test_default_bands_match_rfft_oracle(self):
        x = np.random.default_rng(5).normal(size=(20, 800))
        params = ft.StftParams.shape_compat()
        assert_matches_oracle(
            sv.frequency_bands(x).data, bands_oracle(x, params, ft.BandSpec(), False)
        )

    def test_repeated_calls_bit_identical(self):
        x = np.random.default_rng(6).normal(size=(20, 800))
        assert sv.stft(x).data.tobytes() == sv.stft(x).data.tobytes()
        assert sv.frequency_bands(x).data.tobytes() == sv.frequency_bands(x).data.tobytes()

    def test_basis_cached_and_read_only(self):
        basis = ft._dft_basis(25, 198)
        assert basis is ft._dft_basis(25, 198)
        assert basis.shape == (25, 2 * 100)
        assert not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[0, 0] = 1.0

    def test_band_covering_no_bin(self):
        with pytest.raises(InvalidArgumentError, match="covers no STFT bin"):
            sv.frequency_bands(np.zeros((1, 800)), ft.StftParams.literal())


class TestLfcc:
    def test_default_frames(self):
        out = sv.lfcc(np.random.default_rng(0).normal(size=(20, 800)))
        assert out.shape == (20, 8, 25)

    def test_padded_frames_reach_27(self):
        out = sv.lfcc(
            np.random.default_rng(0).normal(size=(20, 800)),
            ft.LfccParams(pad_edges=True),
        )
        assert out.shape == (20, 8, 27)

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

    def test_coeffs_le_filters(self):
        with pytest.raises(InvalidArgumentError):
            ft.LfccParams(n_filters=4, n_coeffs=8)


class TestSincKernel:
    def test_center_tap(self):
        h = sv.design_sinc_kernel(8, 12, 81, FS, windowed=False, normalized=False)
        assert abs(h[40] - 2 * (12 - 8) / FS) < 1e-12

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


class TestMultirate:
    def test_lengths(self):
        out = sv.multirate(np.zeros((20, 800)))
        assert [t.shape for t in out] == [(20, 1, 800), (20, 1, 400), (20, 1, 200)]

    def test_constant(self):
        out = sv.multirate(np.full((1, 800), 2.5))
        for t in out:
            assert np.all(t.data == 2.5)

    def test_anti_alias_transparent_below_nyquist(self):
        x = sine_window(30.0, 1)
        on = sv.multirate(x, ft.MultiRateParams(anti_alias=True))[2].data
        off = sv.multirate(x, ft.MultiRateParams(anti_alias=False))[2].data
        assert np.max(np.abs(on - off)) < 1e-3

    def test_non_divisor_rate(self):
        with pytest.raises(InvalidArgumentError):
            sv.multirate(np.zeros((1, 800)), ft.MultiRateParams(rates_hz=(60,)))


class TestDeterminismAndDump:
    def test_extractors_pure(self):
        x = np.random.default_rng(9).normal(size=(4, 800))
        for name in ft.EXTRACTOR_NAMES:
            f = ft.get_extractor(name)
            assert f(x).data.tobytes() == f(x).data.tobytes()

    @pytest.mark.parametrize("binary", [False, True])
    def test_tensor_dump_round_trip(self, tmp_path, binary):
        tensor = sv.frequency_bands(np.random.default_rng(0).normal(size=(2, 800)))
        path = tmp_path / "tensor.dump"
        ft.save_tensor(tensor, path, binary=binary)
        loaded = ft.load_tensor(path)
        assert loaded.extractor_id == tensor.extractor_id
        assert loaded.shape == tensor.shape
        rtol = 0 if binary else 1e-6
        np.testing.assert_allclose(
            loaded.data, tensor.data.astype(np.float32) if binary else tensor.data,
            rtol=rtol, atol=1e-9,
        )

    # bytes cut from the end: "23\n" is the last text value, 1 byte leaves a
    # partial f32 value behind
    @pytest.mark.parametrize(
        "binary,cut", [(False, 3), (False, 40), (True, 1), (True, 4), (True, 40)]
    )
    def test_truncated_payload_typed_error(self, tmp_path, binary, cut):
        tensor = sv.FeatureTensor(np.arange(24.0).reshape(2, 3, 4), extractor_id="raw")
        path = tmp_path / "tensor.dump"
        ft.save_tensor(tensor, path, binary=binary)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(TruncatedPayloadError, match=r"tensor\.dump.*expected 24"):
            ft.load_tensor(path)
