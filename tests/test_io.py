import gc
import os
import re
import stat
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seizeval as sv
from seizeval import core, detectors, features, io
from seizeval.errors import (
    ChannelCountMismatchError,
    DirectoryPathError,
    InvalidArgumentError,
    LabelParseError,
    MalformedHeaderError,
    NonFiniteSampleError,
    SurplusPayloadError,
    TextEncodingError,
    TruncatedPayloadError,
    UnmappablePayloadError,
)


def sample_rec():
    rng = np.random.default_rng(0)
    return sv.Recording(
        200, ["FP1", "F7", "T3"], rng.normal(size=(3, 400)).astype(np.float32)
    )


class TestBinaryRecording:
    def test_round_trip_bit_exact(self, tmp_path):
        rec = sample_rec()
        path = tmp_path / "rec.eeg"
        io.save_recording(rec, path)
        loaded = io.load_recording(path)
        assert loaded.sample_rate_hz == rec.sample_rate_hz
        assert loaded.channel_names == rec.channel_names
        assert loaded.montage == rec.montage
        assert loaded.samples.tobytes() == rec.samples.tobytes()

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "rec.eeg"
        io.save_recording(sample_rec(), path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(TruncatedPayloadError):
            io.load_recording(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.eeg"
        path.write_bytes(b"not a recording at all")
        with pytest.raises(MalformedHeaderError):
            io.load_recording(path)

    @pytest.mark.parametrize("name", ["F\u00e47", "F,7", "", "F\n7"])
    def test_unstorable_channel_name_rejected(self, tmp_path, name):
        rec = sv.Recording(200, ["FP1", name], np.zeros((2, 4), np.float32))
        path = tmp_path / "rec.eeg"
        with pytest.raises(InvalidArgumentError, match=re.escape(f"{path}: channel name {name!r}")):
            io.save_recording(rec, path)
        assert not path.exists()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text(st.characters(max_codepoint=127, blacklist_characters=",\n"),
                            min_size=1), max_size=4))
    def test_storable_channel_names_round_trip(self, tmp_path_factory, names):
        path = tmp_path_factory.mktemp("names") / "rec.eeg"
        io.save_recording(sv.Recording(200, names, np.zeros((len(names), 2), np.float32)), path)
        assert io.load_recording(path).channel_names == names

    def test_channel_count_mismatch(self, tmp_path):
        path = tmp_path / "rec.eeg"
        io.save_recording(sample_rec(), path)
        text = path.read_bytes().replace(b"n_channels=3", b"n_channels=2")
        path.write_bytes(text)
        with pytest.raises(ChannelCountMismatchError):
            io.load_recording(path)


# Both headed formats: (magic line, a count field, bytes per value, writer, loader).
HEADED = {
    "eeg": (b"#EEG v1", b"n_samples", 4,
            lambda path: io.save_recording(sample_rec(), path), io.load_recording),
    "model": (b"#SEIZMODEL v1", b"n_dims", 8,
              lambda path: detectors.save_model(sample_model(), path), detectors.load_model),
}


def sample_model():
    return detectors.LinearModel(
        weights=np.arange(6.0), bias=0.5, feature_mean=np.zeros(6), feature_std=np.ones(6),
        extractor_id="bands", feature_shape=(1, 2, 3),
    )


# Each case: (edit(data, magic, count key, bytes per value) of a good file's bytes,
# error type, message after "<path>: ").
MALFORMED = {
    "bad-magic": (lambda d, m, k, w: b"#XYZ v1" + d[len(m):], MalformedHeaderError,
                  "bad magic line"),
    "other-version": (lambda d, m, k, w: m[:-1] + b"2" + d[len(m):], MalformedHeaderError,
                      "bad magic line"),
    "no-equals": (lambda d, m, k, w: d.replace(b"\n", b"\ngarbage\n", 1), MalformedHeaderError,
                  "bad header line 'garbage'"),
    "non-ascii": (lambda d, m, k, w: d.replace(b"\n", "\nnote=\u00e4\n".encode(), 1),
                  MalformedHeaderError, "header is not ASCII"),
    "no-end-header": (lambda d, m, k, w: d[: d.index(b"end_header")], MalformedHeaderError,
                      "missing end_header marker"),
    "negative-count": (lambda d, m, k, w: re.sub(k + rb"=\d+", k + b"=-1", d),
                       MalformedHeaderError, "{key}=-1: expected 1 integer(s) >= "),
    "truncated": (lambda d, m, k, w: d[:-w], TruncatedPayloadError,
                  "payload holds {n_less} values, expected {n}"),
    "surplus-whole": (lambda d, m, k, w: d + b"\0" * w, SurplusPayloadError,
                      "payload holds {n_more} values, expected {n}"),
    "surplus-partial": (lambda d, m, k, w: d + b"\0", SurplusPayloadError,
                        "payload holds {n_more} values, expected {n}"),
}


@pytest.mark.parametrize("case", MALFORMED)
@pytest.mark.parametrize("fmt", HEADED)
def test_malformed_headed_file_typed_error(tmp_path, monkeypatch, fmt, case):
    magic, key, width, save, load = HEADED[fmt]
    edit, error, message = MALFORMED[case]
    path = tmp_path / f"bad.{fmt}"
    save(path)
    data = path.read_bytes()
    n = (len(data) - data.index(b"end_header\n") - len(b"end_header\n")) // width
    path.write_bytes(edit(data, magic, key, width))
    message = message.format(key=key.decode(), n=n, n_less=n - 1, n_more=n + 1)

    def refuse(*args, **kwargs):  # the error comes before anything is mapped
        raise AssertionError("mapped the payload of a malformed file")

    monkeypatch.setattr(io, "PayloadMap", refuse)
    with pytest.raises(error, match=re.escape(f"{path}: {message}")):
        load(path)


def test_model_header_counts_must_be_positive(tmp_path):
    path = tmp_path / "zero.model"
    header = b"#SEIZMODEL v1\nextractor_id=bands\nfeature_shape=0,1,1\nn_dims=0\nend_header\n"
    path.write_bytes(header + np.zeros(1, "<f8").tobytes())
    with pytest.raises(MalformedHeaderError, match=re.escape(f"{path}: feature_shape=0,1,1")):
        detectors.load_model(path)


@pytest.mark.parametrize("value", ["0", "2_00", "-200", "200.0", ""])
def test_sample_rate_is_a_positive_header_integer(tmp_path, value):
    path = tmp_path / "rate.eeg"
    io.save_recording(sample_rec(), path)
    data = path.read_bytes().replace(b"sample_rate_hz=200", f"sample_rate_hz={value}".encode())
    path.write_bytes(data)
    with pytest.raises(MalformedHeaderError, match=re.escape(f"{path}: sample_rate_hz={value}:")):
        io.load_recording(path)


def test_empty_recording_round_trips(tmp_path):
    # an empty payload is not mapped: mmap rejects a zero length
    path = tmp_path / "empty.eeg"
    for n_channels, n_samples in [(0, 0), (0, 400), (3, 0)]:
        names = ["FP1", "F7", "T3"][:n_channels]
        io.save_recording(
            sv.Recording(200, names, np.zeros((n_channels, n_samples), np.float32)), path
        )
        loaded = io.load_recording(path)
        assert loaded.samples.shape == (n_channels, n_samples)
        assert not loaded.samples.flags.writeable
        assert loaded.channel_names == names


# (save, load, a sample object) for each headed format
SAVE_LOAD = {
    "eeg": (io.save_recording, io.load_recording, sample_rec),
    "model": (detectors.save_model, detectors.load_model, sample_model),
}


def payload_fields(obj):
    """The values a headed file stores, as bytes."""
    if isinstance(obj, sv.Recording):
        return [obj.samples.tobytes()]
    return [obj.weights.tobytes(), obj.feature_mean.tobytes(), obj.feature_std.tobytes(),
            np.float64(obj.bias).tobytes()]


@pytest.mark.skipif(sys.platform != "linux", reason="counts descriptors in /proc/self/fd")
@pytest.mark.parametrize("fmt", SAVE_LOAD)
def test_loaded_payload_round_trips_and_closes_its_descriptor_with_its_map(tmp_path, fmt):
    save, load, sample = SAVE_LOAD[fmt]
    path = tmp_path / f"rec.{fmt}"
    save(sample(), path)
    gc.collect()  # maps that earlier tests left to the collector close before the count
    fds = len(os.listdir("/proc/self/fd"))
    loaded = load(path)
    assert payload_fields(loaded) == payload_fields(sample())
    save(loaded, tmp_path / "copy")
    assert (tmp_path / "copy").read_bytes() == path.read_bytes()
    del loaded
    gc.collect()
    assert len(os.listdir("/proc/self/fd")) == fds


@pytest.mark.parametrize("fmt", SAVE_LOAD)
def test_loaded_payload_is_read_only_and_its_file_unchanged(tmp_path, fmt):
    save, load, sample = SAVE_LOAD[fmt]
    path = tmp_path / f"rec.{fmt}"
    save(sample(), path)
    data = path.read_bytes()
    loaded = load(path)
    if fmt == "eeg":
        arrays = [loaded.samples]
    else:
        arrays = [loaded.weights, loaded.feature_mean, loaded.feature_std]
    for array in arrays:
        for index in (slice(None), -1):
            with pytest.raises(ValueError, match="read-only"):
                array[index] = 7.0
    assert payload_fields(loaded) == payload_fields(sample())
    assert path.read_bytes() == data


def test_a_mapped_recording_streams_like_its_copy(tmp_path):
    """A file with a NaN and an edited sample, built from a copy: every pass,
    the detector and the writer see the same values mapped as in memory."""
    rec, _ = sv.synth_recording(sv.SynthConfig(duration_s=400, n_channels=4, seed=3))
    # a row holds 320 KB, several chunks: both values lie in chunks after the first
    for r, t, value in [(1, 30_000, np.nan), (2, 50_000, 1234.5)]:
        rec.samples[r, t] = value
    path = tmp_path / "rec.eeg"
    io.save_recording(rec, path)
    mapped = io.load_recording(path)
    spec, extractor = sv.WindowSpec(), features.get_extractor("bands")
    want = [w.samples.tobytes() for w in sv.slice_windows(rec, spec)]
    assert [w.samples.tobytes() for w in sv.slice_windows(mapped, spec)] == want
    clean = sv.synth_recording(sv.SynthConfig(duration_s=60, n_channels=4, seed=4))[0]
    model = sv.fit_energy(
        [(extractor(w.samples), k % 2 == 0) for k, w in enumerate(sv.slice_windows(clean, spec))]
    )
    errors = []
    for r in (rec, mapped):  # the NaN stops the stream at the same window
        with pytest.raises(NonFiniteSampleError) as exc:
            sv.run_stream(r, extractor, sv.LinearDetector(model), spec)
        errors.append(str(exc.value))
    assert errors[0] == errors[1] and "window 147 " in errors[0]
    assert mapped.samples.tobytes() == rec.samples.tobytes()
    assert [w.samples.tobytes() for w in sv.slice_windows(mapped, spec)] == want
    io.save_recording(mapped, tmp_path / "mapped.eeg")
    io.save_recording(rec, tmp_path / "copy.eeg")
    assert (tmp_path / "mapped.eeg").read_bytes() == (tmp_path / "copy.eeg").read_bytes()


@pytest.mark.parametrize("fmt", SAVE_LOAD)
def test_saving_a_loaded_file_over_itself_is_bit_exact(tmp_path, fmt):
    # the loaded payload is mapped from the file it is saved over: the writer
    # replaces the file rather than truncating it
    save, load, sample = SAVE_LOAD[fmt]
    path = tmp_path / f"self.{fmt}"
    save(sample(), path)
    data = path.read_bytes()
    save(load(path), path)
    assert path.read_bytes() == data
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


def test_save_through_symlink_replaces_its_target(tmp_path):
    # the link stays; its target is a new file, and an array mapped from the
    # old one keeps its values
    target = tmp_path / "real" / "rec.eeg"
    target.parent.mkdir()
    io.save_recording(sv.Recording(200, ["A"], np.ones((1, 50), np.float32)), target)
    target.chmod(0o640)
    old, old_inode = io.load_recording(target), target.stat().st_ino
    link = tmp_path / "link.eeg"
    link.symlink_to(target)
    io.save_recording(sample_rec(), link)
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.stat().st_ino != old_inode
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert io.load_recording(target).samples.tobytes() == sample_rec().samples.tobytes()
    assert (old.samples == 1.0).all()
    assert [p.name for p in target.parent.iterdir()] == ["rec.eeg"]


@pytest.mark.skipif(sys.platform != "linux", reason="opens the pipe through /proc/self/fd")
def test_unmappable_payload_typed_error(tmp_path):
    # a pipe holds the whole file but cannot be sized or mapped
    path = tmp_path / "rec.eeg"
    io.save_recording(sample_rec(), path)
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, path.read_bytes())  # 4.8 KB fits in the pipe's buffer
        os.close(write_end)
        fd_path = f"/proc/self/fd/{read_end}"
        with pytest.raises(UnmappablePayloadError, match=re.escape(f"{fd_path}: cannot map")):
            io.load_recording(fd_path)
    finally:
        os.close(read_end)


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_load_recording_peak_memory_is_one_payload(tmp_path):
    """Loading maps the payload: reading all of it raises peak RSS by about one payload, not two.

    The peak is VmHWM, not ru_maxrss: a child's ru_maxrss starts at this test
    process's peak, which forking and exec carry over.
    """
    path = tmp_path / "big.eeg"
    n_channels, n_samples = 16, 640_000  # a 40.96 MB float32 payload
    io.save_recording(
        sv.Recording(200, [f"C{i}" for i in range(n_channels)],
                     np.ones((n_channels, n_samples), np.float32)),
        path,
    )
    code = textwrap.dedent(f"""
        import sys
        from seizeval import io

        def peak_kib():
            with open("/proc/self/status") as fh:
                return int(next(line for line in fh if line.startswith("VmHWM:")).split()[1])

        before = peak_kib()
        rec = io.load_recording(sys.argv[1])
        assert rec.samples.shape == ({n_channels}, {n_samples}) and rec.samples.all()
        print(peak_kib() - before)
    """)
    src = str(Path(io.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code, str(path)], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert int(out.stdout) * 1024 <= 1.5 * 4 * n_channels * n_samples


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_streaming_a_mapped_recording_keeps_few_pages_per_row(tmp_path):
    """Streaming every window of a 200 MB recording raises peak RSS by a few
    chunks, not by the recording, and maps none of its pages: the windows are
    read from the file, so the file-backed resident set stays flat."""
    path = tmp_path / "long.eeg"
    fs, n_channels, n_samples = 10_000, 2, 25_000_000  # 200 MB of float32
    header = (
        f"#EEG v1\nsample_rate_hz={fs}\nn_channels={n_channels}\nn_samples={n_samples}\n"
        "montage=unipolar\nchannels=A,B\nend_header\n"
    )
    chunk = np.ones(1_000_000, "<f4")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for _ in range(n_channels * n_samples // chunk.size):
            fh.write(chunk.data)
    window = 4 * fs * np.dtype("<f4").itemsize
    code = textwrap.dedent(f"""
        import sys
        from seizeval import core, io

        def status_kib(key):
            with open("/proc/self/status") as fh:
                return int(next(line for line in fh if line.startswith(key + ":")).split()[1])

        rec = io.load_recording(sys.argv[1])
        spec = core.WindowSpec(4, 4)
        stream = core.slice_windows(rec, spec)
        assert next(stream).samples.all()
        peak, files = status_kib("VmHWM"), [status_kib("RssFile")]
        for k, w in enumerate(stream):
            assert w.samples.all()
            if k % 50 == 0:
                files.append(status_kib("RssFile"))
        print(status_kib("VmHWM") - peak, max(files) - files[0])
        # a stream still open at exit closes without an error
        stream = core.slice_windows(rec, spec)
        next(stream).samples.all()
    """)
    src = str(Path(io.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code, str(path)], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    peak_kib, file_kib = map(int, out.stdout.split())
    # two chunks of a window each (the window held and the one being read)
    assert peak_kib * 1024 <= n_channels * 2 * window + 2 * 2**20
    assert file_kib * 1024 <= 2**20  # the pass maps 200 MB
    assert out.stderr == ""


@pytest.mark.skipif(sys.platform != "linux", reason="reads RssFile from /proc/self/status")
def test_montage_and_same_rate_resample_of_a_mapped_recording_map_no_page(tmp_path):
    """to_bipolar and a same-rate resample of a 100 MB mapped recording read
    it from the file in chunks, so the file-backed resident set stays flat."""
    path = tmp_path / "long.eeg"
    fs, n_channels, n_samples = 10_000, 2, 12_500_000  # 100 MB of float32
    header = (
        f"#EEG v1\nsample_rate_hz={fs}\nn_channels={n_channels}\nn_samples={n_samples}\n"
        "montage=unipolar\nchannels=A,B\nend_header\n"
    )
    chunk = np.arange(1_250_000, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for _ in range(n_channels * n_samples // chunk.size):
            fh.write(chunk.data)
    code = textwrap.dedent(f"""
        import sys
        from seizeval import core, io

        def rss_file_kib():
            with open("/proc/self/status") as fh:
                return int(next(line for line in fh if line.startswith("RssFile:")).split()[1])

        rec = io.load_recording(sys.argv[1])
        before = rss_file_kib()
        bipolar = core.to_bipolar(rec, core.MontageSpec((("A", "B"),)))
        after_montage = rss_file_kib()
        copy = core.resample(rec, {fs})
        after_resample = rss_file_kib()
        assert bipolar.samples.shape == (1, {n_samples}) and not bipolar.samples.any()
        assert copy.samples.shape == ({n_channels}, {n_samples})
        assert (copy.samples[:, -1] == {chunk.size - 1}).all()
        print(after_montage - before, after_resample - before)
    """)
    src = str(Path(io.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code, str(path)], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    montage_kib, resample_kib = map(int, out.stdout.split())
    assert montage_kib * 1024 <= 2**20  # the pass maps 100 MB
    assert resample_kib * 1024 <= 2**20


class TestCsv:
    def test_two_channel_import(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("FP1,F7\n1.5,2.5\n3.5,4.5\n")
        rec = io.load_csv_recording(path, sample_rate_hz=200)
        assert rec.channel_names == ["FP1", "F7"]
        assert rec.samples.shape == (2, 2)
        assert rec.samples.dtype == np.float32
        np.testing.assert_array_equal(rec.samples, [[1.5, 3.5], [2.5, 4.5]])

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("FP1,F7\n1,2\n3\n")
        with pytest.raises(LabelParseError) as exc:
            io.load_csv_recording(path, 200)
        assert exc.value.line_no == 3

    @pytest.mark.parametrize("cell", ["nan", "-inf", "1e39", "-3.5e38"])
    def test_non_finite_or_out_of_range_cell_rejected(self, tmp_path, cell):
        path = tmp_path / "rec.csv"
        path.write_text(f"FP1,F7\n1,2\n\n3,{cell}\n")
        with pytest.raises(LabelParseError, match=r"column 2 \(F7\)") as exc:
            io.load_csv_recording(path, 200)
        assert exc.value.line_no == 4  # the blank line 3 still counts

    def test_float32_max_accepted(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("FP1\n3.4028234663852886e38\n-1\n")
        rec = io.load_csv_recording(path, 200)
        assert rec.samples[0, 0] == np.finfo(np.float32).max

    def test_header_only_gives_no_samples(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("FP1,F7\n\n")
        rec = io.load_csv_recording(path, 256)
        assert rec.channel_names == ["FP1", "F7"]
        assert rec.samples.shape == (2, 0) and rec.samples.dtype == np.float32

    # rows of blocks of 4: the row of line 10 is in the third block
    ROWS = ["FP1,F7"] + [f"{k}.5,{-k}" for k in range(1, 12)]

    def load_in_blocks(self, monkeypatch, tmp_path, rows):
        monkeypatch.setattr(io, "_CSV_BLOCK_ROWS", 4)
        path = tmp_path / "rec.csv"
        path.write_text("\n".join(rows) + "\n")
        return io.load_csv_recording(path, 200)

    def test_blocks_join_in_order(self, monkeypatch, tmp_path):
        rec = self.load_in_blocks(monkeypatch, tmp_path, self.ROWS[:6] + [""] + self.ROWS[6:])
        assert rec.samples.flags.c_contiguous and rec.samples.shape == (2, 11)
        np.testing.assert_array_equal(rec.samples[0], np.arange(1, 12) + 0.5)
        np.testing.assert_array_equal(rec.samples[1], -np.arange(1, 12))

    @pytest.mark.parametrize("cell,message", [
        ("x", "could not convert string to float: 'x'"),
        ("inf", r"column 2 \(F7\): inf is not a finite float32 value"),
    ])
    def test_bad_cell_in_a_later_block(self, monkeypatch, tmp_path, cell, message):
        rows = list(self.ROWS)
        rows[9] = f"9.5,{cell}"
        with pytest.raises(LabelParseError, match=f"line 10: {message}") as exc:
            self.load_in_blocks(monkeypatch, tmp_path, rows)
        assert exc.value.line_no == 10

    @pytest.mark.parametrize("line", [3, 10, 12])
    def test_parse_error_wins_over_an_earlier_non_finite_cell(self, monkeypatch, tmp_path, line):
        rows = list(self.ROWS)
        rows[1] = "nan,1"
        rows[line - 1] = "1,2,3"
        with pytest.raises(LabelParseError, match="expected 2 columns, got 3") as exc:
            self.load_in_blocks(monkeypatch, tmp_path, rows)
        assert exc.value.line_no == line

    def test_first_non_finite_cell_of_several_blocks(self, monkeypatch, tmp_path):
        rows = list(self.ROWS)
        rows[6], rows[10] = "1e39,1", "nan,nan"
        with pytest.raises(LabelParseError, match=r"line 7: column 1 \(FP1\): 1e\+39 is not"):
            self.load_in_blocks(monkeypatch, tmp_path, rows)


@pytest.mark.parametrize("block", [1, 2, 3, 5, 7, 16])
@pytest.mark.parametrize("data", [
    b"FP1,F7\n1,2\n3,\xe2\x82(\n4,5\n",  # a 3-byte sequence cut short by "("
    b"FP1,F7\n1,2\n\n3,4\xc3",  # a 2-byte sequence cut short by the end of the file
    b"F\xc3\xa47,F8\n\xc3\xa4\n\n\n\xff",  # valid 2-byte sequences before the bad byte
], ids=["cut-by-a-char", "cut-by-the-end", "after-valid-sequences"])
def test_non_utf8_byte_across_a_read_boundary(tmp_path, monkeypatch, block, data):
    """The error names the line a whole-file decode names, wherever the reads split."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        want = f"line {line_no}: not UTF-8 text ({exc.reason})"
    monkeypatch.setattr(io, "_TEXT_BLOCK_BYTES", block)
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(TextEncodingError, match=re.escape(f"{path}: {want}")):
        io.load_csv_recording(path, 200)


@pytest.mark.parametrize("block", [1, 2, 5])
def test_utf8_sequences_across_read_boundaries_load(tmp_path, monkeypatch, block):
    monkeypatch.setattr(io, "_TEXT_BLOCK_BYTES", block)
    path = tmp_path / "montage.txt"
    path.write_text("F\u00e47 \u20ac1\r\nT3 T\u00e45\n", encoding="utf-8")
    spec = io.load_montage(path)
    assert spec.pairs == (("F\u00e47", "\u20ac1"), ("T3", "T\u00e45"))


@pytest.mark.skipif(sys.platform != "linux", reason="opens the pipe through /proc/self/fd")
def test_text_input_from_a_pipe(tmp_path):
    # a pipe cannot be rewound after the UTF-8 check; it is read once
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, b"FP1,F7\n1.5,2.5\n3.5,4.5\n")
        os.close(write_end)
        rec = io.load_csv_recording(f"/proc/self/fd/{read_end}", 200)
    finally:
        os.close(read_end)
    np.testing.assert_array_equal(rec.samples, [[1.5, 3.5], [2.5, 4.5]])


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_load_csv_recording_peak_memory_is_a_few_payloads(tmp_path):
    """Parsing a CSV in blocks raises peak RSS by at most three float32
    payloads: the blocks and the samples they are joined into."""
    path = tmp_path / "big.csv"
    n_channels, n_rows = 16, 200_000  # a 12.8 MB float32 payload
    cells = np.random.default_rng(1).normal(scale=50, size=(1000, n_channels))
    block = "".join(",".join(f"{v:.4f}" for v in row) + "\n" for row in cells)
    with open(path, "w") as fh:
        fh.write(",".join(f"C{i}" for i in range(n_channels)) + "\n")
        for _ in range(n_rows // len(cells)):
            fh.write(block)
    code = textwrap.dedent(f"""
        import sys
        from seizeval import io

        def peak_kib():
            with open("/proc/self/status") as fh:
                return int(next(line for line in fh if line.startswith("VmHWM:")).split()[1])

        before = peak_kib()
        rec = io.load_csv_recording(sys.argv[1], 256)
        assert rec.samples.shape == ({n_channels}, {n_rows})
        print(peak_kib() - before)
    """)
    src = str(Path(io.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code, str(path)], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert int(out.stdout) * 1024 <= 3 * 4 * n_channels * n_rows


class TestLabels:
    def test_single_event(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("10.0 20.0 gnsz\n")
        track = io.load_labels(path, total_duration_s=60)
        assert len(track.events) == 1
        ev = track.events[0]
        assert (ev.start_s, ev.stop_s, ev.label) == (10.0, 20.0, sv.SeizureLabel.GNSZ)

    def test_overlap_rejected_with_line(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0 10 seiz\n5 15 seiz\n")
        with pytest.raises(LabelParseError) as exc:
            io.load_labels(path, 60)
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("line", ["nan 5 seiz", "5 nan seiz", "1 2 seiz\n3 NaN seiz"])
    def test_non_finite_bound_rejected_with_line(self, tmp_path, line):
        path = tmp_path / "labels.txt"
        path.write_text(line + "\n")
        with pytest.raises(LabelParseError, match="finite") as exc:
            io.load_labels(path, 60)
        assert exc.value.line_no == line.count("\n") + 1

    @pytest.mark.parametrize(
        "bounds", [(float("nan"), 5.0), (5.0, float("nan")), (0.0, float("inf"))]
    )
    def test_event_rejects_non_finite_bounds(self, bounds):
        with pytest.raises(InvalidArgumentError):
            sv.Event(*bounds)

    def test_unknown_label(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0 10 eyem\n")
        with pytest.raises(LabelParseError):
            io.load_labels(path, 60)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("")
        track = io.load_labels(path, 60)
        assert track.events == []
        assert track.background_intervals() == [(0.0, 60.0)]

    def test_round_trip(self, tmp_path):
        track = sv.LabelTrack(
            [sv.Event(1.5, 4.25, sv.SeizureLabel.FNSZ), sv.Event(10, 12)], 30
        )
        path = tmp_path / "labels.txt"
        io.save_labels(track, path)
        loaded = io.load_labels(path, 30)
        assert loaded.events == track.events


class TestMontageFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "montage.txt"
        path.write_text("FP1 F7\nF7 T3\n")
        spec = io.load_montage(path)
        assert spec.pairs == (("FP1", "F7"), ("F7", "T3"))
        assert spec.channel_names == ["FP1-F7", "F7-T3"]

    def test_bad_line(self, tmp_path):
        path = tmp_path / "montage.txt"
        path.write_text("FP1\n")
        with pytest.raises(LabelParseError):
            io.load_montage(path)


@pytest.mark.parametrize(
    "load",
    [
        io.load_recording,
        lambda path: io.load_labels(path, 10.0),
        io.load_montage,
        lambda path: io.load_csv_recording(path, 200),
        detectors.load_model,
    ],
    ids=["recording", "labels", "montage", "csv", "model"],
)
def test_directory_path_typed_error(tmp_path, load):
    with pytest.raises(DirectoryPathError, match=f"{re.escape(str(tmp_path))}: is a directory"):
        load(tmp_path)


@pytest.mark.parametrize(
    "name,text,load,message",
    [
        ("nan.lab", "nan 5 seiz\n", lambda path: io.load_labels(path, 10.0),
         "line 1: start and stop must be finite"),
        ("bad.montage", "FP1 F7\nFP1\n", io.load_montage, "line 2: expected 'ANODE CATHODE'"),
        ("ragged.csv", "FP1,F7\n1,2\n3\n", lambda path: io.load_csv_recording(path, 200),
         "line 3: expected 2 columns, got 1"),
    ],
    ids=["labels", "montage", "csv"],
)
def test_parse_error_names_file_and_line(tmp_path, name, text, load, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(LabelParseError, match=re.escape(f"{path}: {message}")) as exc:
        load(path)
    assert exc.value.path == path
