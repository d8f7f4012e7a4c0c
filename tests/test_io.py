import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seizeval as sv
from seizeval import detectors, io
from seizeval.errors import (
    ChannelCountMismatchError,
    DirectoryPathError,
    InvalidArgumentError,
    LabelParseError,
    MalformedHeaderError,
    SurplusPayloadError,
    TruncatedPayloadError,
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
def test_malformed_headed_file_typed_error(tmp_path, fmt, case):
    magic, key, width, save, load = HEADED[fmt]
    edit, error, message = MALFORMED[case]
    path = tmp_path / f"bad.{fmt}"
    save(path)
    data = path.read_bytes()
    n = (len(data) - data.index(b"end_header\n") - len(b"end_header\n")) // width
    path.write_bytes(edit(data, magic, key, width))
    message = message.format(key=key.decode(), n=n, n_less=n - 1, n_more=n + 1)
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
    path = tmp_path / "empty.eeg"
    io.save_recording(sv.Recording(200, [], np.zeros((0, 0), np.float32)), path)
    assert io.load_recording(path).samples.shape == (0, 0)


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_load_recording_peak_memory_is_one_payload(tmp_path):
    """Loading reads the payload in place: peak RSS rises by about one payload, not two.

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
