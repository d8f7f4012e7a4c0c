import re

import numpy as np
import pytest

import seizeval as sv
from seizeval import detectors, features, io
from seizeval.errors import (
    ChannelCountMismatchError,
    DirectoryPathError,
    InvalidArgumentError,
    LabelParseError,
    MalformedHeaderError,
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

    def test_channel_count_mismatch(self, tmp_path):
        path = tmp_path / "rec.eeg"
        io.save_recording(sample_rec(), path)
        text = path.read_bytes().replace(b"n_channels=3", b"n_channels=2")
        path.write_bytes(text)
        with pytest.raises(ChannelCountMismatchError):
            io.load_recording(path)


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
        features.load_tensor,
    ],
    ids=["recording", "labels", "montage", "csv", "model", "tensor"],
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
