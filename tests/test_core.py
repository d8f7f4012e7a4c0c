import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

import seizeval as sv
from seizeval import core, io
from seizeval.core import DEFAULT_BIPOLAR_PAIRS, DEFAULT_UNIPOLAR_CHANNELS
from seizeval.errors import (
    ChannelNotFoundError,
    EmptyStreamError,
    FileFormatError,
    InvalidArgumentError,
    TruncatedPayloadError,
)

import oracles


def make_rec(samples, fs=200, montage=sv.Montage.UNIPOLAR, names=None):
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float32))
    names = names or [f"CH{i}" for i in range(samples.shape[0])]
    return sv.Recording(fs, names, samples, montage)


class TestResample:
    def test_length_scaling(self):
        rec = make_rec(np.random.default_rng(0).normal(size=(2, 400)), fs=100)
        out = sv.resample(rec, 200)
        assert out.n_samples == 800
        assert out.sample_rate_hz == 200
        assert out.channel_names == rec.channel_names

    def test_dc_invariance(self):
        rec = make_rec(np.full((1, 600), 5.0), fs=200)
        for target in (100, 400, 250):
            out = sv.resample(rec, target)
            assert np.max(np.abs(out.samples - 5.0)) < 1e-4

    def test_sinusoid_oracle(self):
        # 10 Hz sine at 200 Hz -> 100 Hz, compared against the analytic sine.
        # Edge taps see the line extension, not the sine, so the per-sample
        # check covers the interior where the 129-tap filter reads only data.
        fs, target, f0 = 200, 100, 10.0
        t = np.arange(10 * fs) / fs
        rec = make_rec(np.sin(2 * np.pi * f0 * t), fs=fs)
        out = sv.resample(rec, target)
        ref = np.sin(2 * np.pi * f0 * np.arange(out.n_samples) / target)
        margin = 70
        assert np.max(np.abs(out.samples[0] - ref)[margin:-margin]) < 1e-3

    def test_zero_rate_rejected(self):
        rec = make_rec(np.zeros((1, 100)))
        with pytest.raises(InvalidArgumentError):
            sv.resample(rec, 0)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_samples_rejected(self, n):
        # the line extension through the first and last samples needs two
        with pytest.raises(InvalidArgumentError, match="at least 2 samples"):
            sv.resample(make_rec(np.ones((2, n)), fs=256), 200)

    def test_empty_output_rejected(self):
        # 2 samples at 200 Hz round to 0 samples at 50 Hz
        with pytest.raises(InvalidArgumentError, match="give 0"):
            sv.resample(make_rec(np.ones((1, 2)), fs=200), 50)

    @pytest.mark.parametrize("n", [2, 3, 7, 50, 333, 5000])
    @pytest.mark.parametrize(
        "fs,target",
        [(256, 200), (100, 200), (200, 100), (250, 200), (200, 250), (500, 200),
         (200, 256), (173, 200)],
    )
    def test_matches_scipy_resample_poly(self, fs, target, n):
        rng = np.random.default_rng(n)
        x = (rng.normal(scale=40, size=(3, n)) + np.linspace(-20, 60, n)).astype(np.float32)
        out = sv.resample(make_rec(x, fs=fs), target)
        g = math.gcd(fs, target)
        up, down = target // g, fs // g
        h = sps.firwin(64 * max(up, down) + 1, 1.0 / max(up, down), window=("kaiser", 8.0))
        n_out = round(n * target / fs)
        want = sps.resample_poly(x.astype(np.float64), up, down, axis=1, window=h,
                                 padtype="line")[:, :n_out].astype(np.float32)  # fmt: skip
        assert out.samples.dtype == np.float32 and out.samples.shape == want.shape
        assert np.max(np.abs(out.samples - want)) <= 1e-6 * np.max(np.abs(want))

    @pytest.mark.parametrize("fs,target,n", [(256, 200, 76_800), (200, 256, 3001), (173, 200, 999)])
    def test_products_stay_on_one_core(self, monkeypatch, fs, target, n):
        # OpenBLAS runs a product of at most _ONE_THREAD_MACS multiply-adds on
        # one thread; every product the resampler takes stays under it, and
        # together they give every output sample
        shapes = []
        matmul = np.matmul

        def recording(a, b, **kwargs):
            shapes.append((a.shape, b.shape))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", recording)
        x = np.random.default_rng(n).normal(size=(3, n)).astype(np.float32)
        out = sv.resample(make_rec(x, fs=fs), target)
        # a last frame of which only some outputs are kept is a vector product
        macs = [(a[0] if len(a) == 2 else 1) * a[-1] * b[1] for a, b in shapes]
        assert macs and max(macs) <= core._ONE_THREAD_MACS
        frames = sum(a[0] if len(a) == 2 else 1 for a, b in shapes)
        assert frames == 3 * -(-out.n_samples // shapes[0][1][1])

    def test_polyphase_matrix_cached_and_read_only(self):
        core._polyphase_matrix.cache_clear()
        rec = make_rec(np.ones((2, 1000)), fs=256)
        for _ in range(3):
            sv.resample(rec, 200)
        sv.resample(make_rec(np.ones((1, 500)), fs=200), 256)
        info = core._polyphase_matrix.cache_info()
        assert (info.misses, info.hits) == (2, 2)
        matrix, _ = core._polyphase_matrix(25, 32)
        assert matrix.shape[1] == 25 and not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0

    def test_scipy_not_loaded(self):
        # a fresh interpreter: the package, its CLI and resampling load no scipy
        code = (
            "import json, sys\n"
            "import numpy as np\n"
            "import seizeval, seizeval.cli\n"
            "rec = seizeval.Recording(100, ['A'], np.ones((1, 400), np.float32))\n"
            "n = seizeval.resample(rec, 200).n_samples\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(json.dumps([loaded, n]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(sv.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[], 800]


class TestBipolar:
    def test_subtraction(self):
        rec = make_rec([[5.0, 5.0], [2.0, 2.0]], names=["FP1", "F7"])
        out = sv.to_bipolar(rec, sv.MontageSpec((("FP1", "F7"),)))
        assert out.montage is sv.Montage.BIPOLAR
        assert out.channel_names == ["FP1-F7"]
        np.testing.assert_array_equal(out.samples, [[3.0, 3.0]])

    def test_anode_equals_cathode(self):
        rec = make_rec([[1.0, 2.0], [1.0, 2.0]], names=["A", "B"])
        out = sv.to_bipolar(rec, sv.MontageSpec((("A", "B"),)))
        assert np.all(out.samples == 0)

    def test_default_montage_oracle(self):
        rng = np.random.default_rng(3)
        rec = make_rec(
            rng.normal(size=(22, 500)), names=list(DEFAULT_UNIPOLAR_CHANNELS)
        )
        out = sv.to_bipolar(rec)
        assert out.n_channels == 20
        idx = {n: i for i, n in enumerate(rec.channel_names)}
        for _ in range(5):
            ch = int(rng.integers(20))
            t = int(rng.integers(500))
            anode, cathode = DEFAULT_BIPOLAR_PAIRS[ch]
            expected = rec.samples[idx[anode], t] - rec.samples[idx[cathode], t]
            assert out.samples[ch, t] == np.float32(expected)

    def test_bytes_equal_per_pair_float32_differences(self):
        rng = np.random.default_rng(5)
        rec = make_rec(rng.normal(scale=80, size=(22, 777)), names=list(DEFAULT_UNIPOLAR_CHANNELS))
        out = sv.to_bipolar(rec)
        assert out.samples.dtype == np.float32 and out.samples.flags.c_contiguous
        idx = {n: i for i, n in enumerate(rec.channel_names)}
        want = [rec.samples[idx[a]] - rec.samples[idx[c]] for a, c in DEFAULT_BIPOLAR_PAIRS]
        assert out.samples.tobytes() == b"".join(np.asarray(w, np.float32).tobytes() for w in want)

    def test_missing_channel(self):
        rec = make_rec([[1.0]], names=["A"])
        with pytest.raises(ChannelNotFoundError):
            sv.to_bipolar(rec, sv.MontageSpec((("A", "NOPE"),)))

    def test_add_back_recovers_anode(self):
        rng = np.random.default_rng(4)
        rec = make_rec(rng.normal(scale=50, size=(2, 200)), names=["A", "B"])
        out = sv.to_bipolar(rec, sv.MontageSpec((("A", "B"),)))
        recovered = out.samples[0] + rec.samples[1]
        np.testing.assert_allclose(recovered, rec.samples[0], rtol=1e-5, atol=1e-4)


class TestWindows:
    def test_30s_gives_27(self):
        rec = make_rec(np.zeros((1, 6000)))
        assert len(list(sv.slice_windows(rec, sv.WindowSpec(4, 1)))) == 27

    def test_single_window(self):
        rec = make_rec(np.zeros((1, 800)))
        wins = list(sv.slice_windows(rec, sv.WindowSpec(4, 1)))
        assert len(wins) == 1 and wins[0].start_s == 0.0

    def test_tiling(self):
        rec = make_rec(np.zeros((1, 2400)))
        wins = list(sv.slice_windows(rec, sv.WindowSpec(4, 4)))
        assert len(wins) == 3
        assert [w.start_s for w in wins] == [0.0, 4.0, 8.0]

    def test_too_short(self):
        rec = make_rec(np.zeros((1, 700)))
        with pytest.raises(EmptyStreamError):
            list(sv.slice_windows(rec, sv.WindowSpec(4, 1)))

    @settings(max_examples=100, deadline=None)
    @given(
        duration=st.integers(4, 120),
        window=st.integers(1, 12),
        shift=st.integers(1, 5),
    )
    def test_count_formula(self, duration, window, shift):
        if window < shift or duration < window:
            return
        fs = 200
        rec = make_rec(np.zeros((1, duration * fs)))
        wins = list(sv.slice_windows(rec, sv.WindowSpec(window, shift)))
        assert len(wins) == (duration - window) // shift + 1
        for w in wins:
            assert w.samples.shape[1] == window * fs
        last = wins[-1]
        assert last.start_s + window <= duration + 1e-9

    @pytest.mark.parametrize("first,stop", [(-3, None), (-3, -1), (-1, None), (0, -4), (5, 100)])
    def test_part_of_the_stream_keeps_each_window_at_its_position(self, tmp_path, first, stop):
        # 10 s: seven windows of 4 s every 1 s, taken as the slice [first:stop]
        samples = np.random.default_rng(3).normal(scale=30, size=(2, 2000))
        spec = sv.WindowSpec(4, 1)
        for rec in mapped_and_copy(tmp_path, samples):
            full = list(sv.slice_windows(rec, spec))
            part = list(sv.slice_windows(rec, spec, first, stop))
            assert [w.index for w in part] == list(range(len(full)))[first:stop]
            assert all(w.start_s == w.index * spec.shift_s for w in part)
            want = [full[w.index].samples.tobytes() for w in part]
            assert [w.samples.tobytes() for w in part] == want

    def test_closed_stream_leaves_a_mapped_recording_whole(self, tmp_path):
        """A stream closed early leaves the recording as it was: a second
        pass, and a pass over a column slice, equal the copy's."""
        rec, _ = sv.synth_recording(sv.SynthConfig(duration_s=300, n_channels=3, seed=5))
        path = tmp_path / "rec.eeg"
        io.save_recording(rec, path)
        mapped = io.load_recording(path)
        copy = sv.Recording(200, mapped.channel_names, np.array(mapped.samples))
        spec = sv.WindowSpec(4, 1)
        stream = sv.slice_windows(mapped, spec)
        for _ in range(120):  # past the first chunk of each row
            next(stream).samples.sum()
        stream.close()

        def passes(r):
            part = sv.Recording(200, r.channel_names, r.samples[:, 1001:40_000])
            return [[w.samples.tobytes() for w in sv.slice_windows(x, spec)] for x in (r, part)]

        assert passes(mapped) == passes(copy)
        assert mapped.samples.tobytes() == rec.samples.tobytes()


def mapped_and_copy(tmp_path, samples):
    """``samples`` saved and loaded back, so mapped from a file, and a copy in memory."""
    path = tmp_path / "rec.eeg"
    io.save_recording(make_rec(samples), path)
    return io.load_recording(path), make_rec(samples)


def window_bytes(rec, spec=sv.WindowSpec(4, 1)):
    return [w.samples.tobytes() for w in sv.slice_windows(rec, spec)]


@pytest.mark.skipif(not hasattr(os, "preadv"), reason="reads windows with os.preadv")
class TestMappedWindows:
    """Windows of a mapped recording are read from its file; the recording
    is read-only, so they hold what an in-memory copy holds."""

    # rows of 160 800 bytes, not a whole number of pages; the last window ends each row
    SAMPLES = np.random.default_rng(9).normal(scale=30, size=(3, 40_200)).astype(np.float32)
    # samples per chunk at 200 Hz, 4 s windows and a 1 s shift
    PER_CHUNK = core._CHUNK_BYTES // 4 // 200 * 200

    def write(self, tmp_path, row, cols):
        """A write into the mapped recording raises, before its stream and
        during it, and changes neither a window nor the file."""
        mapped, copy = mapped_and_copy(tmp_path, self.SAMPLES)
        path = tmp_path / "rec.eeg"
        data = path.read_bytes()
        with pytest.raises(ValueError, match="read-only"):
            mapped.samples[row, cols] = 1234.5
        assert window_bytes(mapped) == window_bytes(copy)
        stream = sv.slice_windows(mapped, sv.WindowSpec(4, 1))
        next(stream)
        with pytest.raises(ValueError, match="read-only"):
            mapped.samples[row, cols] = -77.0
        assert [w.samples.tobytes() for w in stream] == window_bytes(copy)[1:]
        assert path.read_bytes() == data

    def test_windows_are_read_only_copies(self, tmp_path):
        mapped, copy = mapped_and_copy(tmp_path, self.SAMPLES)
        assert self.SAMPLES.shape[1] > 2 * self.PER_CHUNK  # three chunks
        windows = list(sv.slice_windows(mapped, sv.WindowSpec(4, 1)))
        assert not any(np.shares_memory(w.samples, mapped.samples) for w in windows)
        assert not any(w.samples.flags.writeable for w in windows)
        assert [w.samples.tobytes() for w in windows] == window_bytes(copy)

    @pytest.mark.parametrize("row,col", [(0, -1), (1, 0)], ids=["row-end", "row-start"])
    def test_write_on_a_page_two_rows_share(self, tmp_path, row, col):
        # row 0's last page holds row 1's first samples
        mapped, _ = mapped_and_copy(tmp_path, self.SAMPLES)
        page = os.sysconf("SC_PAGESIZE")
        ends = [mapped.samples[0, -1:], mapped.samples[1, :1]]
        assert len({e.ctypes.data // page for e in ends}) == 1
        self.write(tmp_path, row, col)

    @pytest.mark.parametrize("offset", [0, 200, 799, 800])
    def test_write_at_a_chunk_boundary(self, tmp_path, offset):
        # the first chunk ends at PER_CHUNK + 800, the second starts at PER_CHUNK + 200
        self.write(tmp_path, 2, self.PER_CHUNK + offset)

    def test_a_write_across_20_pages(self, tmp_path):
        # across the first chunk's end
        n = 20 * os.sysconf("SC_PAGESIZE") // 4
        self.write(tmp_path, 1, slice(self.PER_CHUNK - n // 2, self.PER_CHUNK + n // 2))

    def test_without_preadv_windows_are_views(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "preadv")
        mapped, copy = mapped_and_copy(tmp_path, self.SAMPLES)
        windows = list(sv.slice_windows(mapped, sv.WindowSpec(4, 1)))
        assert all(np.shares_memory(w.samples, mapped.samples) for w in windows)
        assert [w.samples.tobytes() for w in windows] == window_bytes(copy)

    def test_truncated_file_raises_a_typed_error(self, tmp_path):
        mapped, _ = mapped_and_copy(tmp_path, self.SAMPLES)
        path = tmp_path / "rec.eeg"
        os.truncate(path, path.stat().st_size // 2)
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: "):
            window_bytes(mapped)


@pytest.mark.skipif(not hasattr(os, "preadv"), reason="reads the file with os.preadv")
class TestMappedMontage:
    """``to_bipolar`` and a same-rate ``resample`` of a mapped recording read
    its file in column chunks; they give the bytes of an in-memory copy."""

    PER_CHUNK = core._CHUNK_BYTES // 4
    # three whole chunks of each row, then a partial one
    SAMPLES = np.random.default_rng(11).normal(scale=40, size=(22, 3 * PER_CHUNK + 777))

    def mapped_and_copy(self, tmp_path, samples=SAMPLES):
        path = tmp_path / "rec.eeg"
        names = list(DEFAULT_UNIPOLAR_CHANNELS)
        io.save_recording(make_rec(samples, fs=256, names=names), path)
        return io.load_recording(path), make_rec(samples, fs=256, names=names)

    def test_bytes_equal_the_in_memory_copy(self, tmp_path):
        mapped, copy = self.mapped_and_copy(tmp_path)
        assert core._file_rows(mapped.samples) is not None
        for spec in (None, sv.MontageSpec((("EKG", "FP1"), ("A2", "A1"), ("FP1", "EKG")))):
            out, want = sv.to_bipolar(mapped, spec), sv.to_bipolar(copy, spec)
            assert out.channel_names == want.channel_names
            assert out.samples.tobytes() == want.samples.tobytes()
            assert out.samples.flags.c_contiguous and out.samples.flags.writeable

    def test_same_rate_resample_is_a_writable_copy(self, tmp_path):
        mapped, copy = self.mapped_and_copy(tmp_path)
        for rec in (mapped, copy):
            out = sv.resample(rec, 256)
            assert out.samples.tobytes() == copy.samples.tobytes()
            assert not np.shares_memory(out.samples, rec.samples)
            assert out.samples.flags.c_contiguous and out.samples.flags.writeable
            out.samples[0, -1] = 0.0
        assert mapped.samples.tobytes() == copy.samples.tobytes()

    @pytest.mark.parametrize("target_hz", [200, 512])
    def test_resample_to_another_rate_equals_the_in_memory_copy(self, tmp_path, target_hz):
        mapped, copy = self.mapped_and_copy(tmp_path)
        out, want = sv.resample(mapped, target_hz), sv.resample(copy, target_hz)
        assert out.samples.tobytes() == want.samples.tobytes()

    def test_column_slice_of_a_mapped_recording(self, tmp_path):
        mapped, copy = self.mapped_and_copy(tmp_path)
        cols = slice(1001, 2 * self.PER_CHUNK + 5)
        part = sv.Recording(256, mapped.channel_names, mapped.samples[:, cols])
        want = sv.Recording(256, copy.channel_names, copy.samples[:, cols])
        assert core._file_rows(part.samples) is not None
        assert sv.to_bipolar(part).samples.tobytes() == sv.to_bipolar(want).samples.tobytes()
        assert sv.resample(part, 256).samples.tobytes() == want.samples.tobytes()

    def test_no_samples(self, tmp_path):
        mapped, copy = self.mapped_and_copy(tmp_path, np.zeros((22, 0)))
        for rec in (mapped, copy):
            assert sv.to_bipolar(rec).samples.shape == (20, 0)
            assert sv.resample(rec, 256).samples.shape == (22, 0)

    def test_missing_channel_raises_before_any_read(self, tmp_path, monkeypatch):
        mapped, _ = self.mapped_and_copy(tmp_path)

        def no_read(*args):
            raise AssertionError("the file was read before the montage was checked")

        monkeypatch.setattr(os, "preadv", no_read)
        # the missing channel is named by the last pair
        spec = sv.MontageSpec((("FP1", "F7"), ("F7", "NOPE")))
        with pytest.raises(ChannelNotFoundError, match="NOPE"):
            sv.to_bipolar(mapped, spec)

    def test_file_truncated_after_loading(self, tmp_path):
        mapped, _ = self.mapped_and_copy(tmp_path)
        path = tmp_path / "rec.eeg"
        os.truncate(path, path.stat().st_size // 2)
        for call in (sv.to_bipolar, lambda rec: sv.resample(rec, 256)):
            with pytest.raises(TruncatedPayloadError, match=f"^{re.escape(str(path))}: "):
                call(mapped)

    def test_resample_to_another_rate_of_a_truncated_file(self, tmp_path):
        # in a fresh interpreter: a read through the map past the file's new
        # end would kill it with SIGBUS
        path = tmp_path / "rec.eeg"
        io.save_recording(make_rec(self.SAMPLES, fs=256), path)
        code = (
            "import os, sys\n"
            "from seizeval import io, resample\n"
            "from seizeval.errors import TruncatedPayloadError\n"
            "rec = io.load_recording(sys.argv[1])\n"
            "os.truncate(sys.argv[1], 1000)\n"
            "try:\n"
            "    resample(rec, 200)\n"
            "except TruncatedPayloadError as exc:\n"
            "    print(exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(sv.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code, str(path)], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(f"{path}: the file ends before sample ")


class TestWindowLabel:
    def label(self, events, k, spec=sv.WindowSpec(4, 1), duration=60):
        """window_labels' label for window k of a recording built for the test."""
        rec = make_rec(np.zeros((1, duration * 200)))
        track = sv.LabelTrack(
            [sv.Event(a, b, sv.SeizureLabel.SEIZ) for a, b in events], duration
        )
        return sv.window_labels(rec, track, spec)[k]

    def test_clear_overlap(self):
        assert self.label([(10, 20)], 9)

    def test_no_overlap(self):
        assert not self.label([(10, 20)], 6)

    def test_exact_shift_overlap_is_nonictal(self):
        assert not self.label([(10, 11)], 8)

    def test_one_sample_past_shift_is_ictal(self):
        # strict boundary: shift_s + one sample period flips the label
        assert self.label([(10, 11 + 1 / 200)], 8)
        assert not self.label([(10, 11)], 8)

    @pytest.mark.parametrize(
        "window_s, shift_s, fs",
        [(4, 1, 200), (2, 0.1, 200), (2, 0.1, 250), (3, 2, 250), (2, 0.25, 256), (4, 0.5, 256)],
    )
    def test_bit_equal_to_scalar_rule(self, window_s, shift_s, fs):
        """Every window of random tracks, with event bounds on the window grid
        (starts and stops) and one sample off it, labels as the scalar rule."""
        rng = np.random.default_rng(fs)
        spec = sv.WindowSpec(window_s, shift_s)
        win, shift = spec.window_samples(fs), spec.shift_samples(fs)
        kinds = [sv.SeizureLabel.SEIZ, sv.SeizureLabel.FNSZ, sv.SeizureLabel.BCKG]
        for _ in range(50):
            n = int(rng.integers(win, 60 * fs))
            rec = make_rec(np.zeros((1, n)), fs=fs)
            grid = {
                k * shift + edge + off
                for k in range(n // shift + 1)
                for edge in (0, win)
                for off in (-1, 0, 1)
            }
            bounds = sorted(b for b in grid if 0 <= b <= n)
            n_events = int(rng.integers(0, 6))
            picks = np.sort(rng.choice(len(bounds), size=2 * n_events, replace=False))
            events = [
                sv.Event(bounds[i] / fs, bounds[j] / fs, kinds[rng.integers(3)])
                for i, j in picks.reshape(-1, 2)
            ]
            labels = sv.LabelTrack(events, n / fs)
            windows = sv.slice_windows(rec, spec)
            expected = [oracles.window_label(labels, w.start_s, spec) for w in windows]
            assert sv.window_labels(rec, labels, spec).tolist() == expected


def band_power(x, fs, lo, hi):
    spec = np.abs(np.fft.rfft(x, axis=-1)) ** 2
    freqs = np.fft.rfftfreq(x.shape[-1], 1 / fs)
    return spec[..., (freqs >= lo) & (freqs < hi)].mean()


class TestSynth:
    def test_label_track_matches(self):
        rec, labels = sv.synth_recording(
            sv.SynthConfig(duration_s=60, events=[(20, 30)], seed=0)
        )
        assert rec.duration_s == 60
        assert len(labels.events) == 1
        ev = labels.events[0]
        assert (ev.start_s, ev.stop_s, ev.label) == (20.0, 30.0, sv.SeizureLabel.SEIZ)

    def test_zero_amplitude_indistinguishable(self):
        cfg = sv.SynthConfig(
            duration_s=60, events=[(20, 30)], ictal_amplitude_uv=0.0, seed=1
        )
        rec, _ = sv.synth_recording(cfg)
        fs = rec.sample_rate_hz
        inside = band_power(rec.samples[:, 20 * fs : 30 * fs], fs, 1, 8)
        outside = band_power(rec.samples[:, 40 * fs : 50 * fs], fs, 1, 8)
        assert 0.8 < inside / outside < 1.2

    def test_ictal_band_power(self):
        cfg = sv.SynthConfig(
            duration_s=60,
            events=[(20, 30)],
            background_amplitude_uv=20,
            ictal_amplitude_uv=100,
            seed=2,
        )
        rec, _ = sv.synth_recording(cfg)
        fs = rec.sample_rate_hz
        inside = band_power(rec.samples[:, 20 * fs : 30 * fs], fs, 1, 8)
        outside = band_power(rec.samples[:, 40 * fs : 50 * fs], fs, 1, 8)
        assert inside / outside > 4

    def test_deterministic(self):
        cfg = sv.SynthConfig(duration_s=30, n_random_events=2, seed=7)
        a, la = sv.synth_recording(cfg)
        b, lb = sv.synth_recording(cfg)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert la.events == lb.events

    def test_event_outside_duration(self):
        with pytest.raises(InvalidArgumentError):
            sv.synth_recording(sv.SynthConfig(duration_s=30, events=[(25, 35)]))
