"""Byte-level fuzzing of every input parser.

Each case starts from a valid file of one format, flips, inserts and deletes
bytes, and feeds the result to the format's parser. The parser may accept the
file or reject it, but only with a ``SeizevalError`` subclass.
"""

import contextlib
import io as stdio
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import seizeval as sv
from seizeval import cli, detectors, io
from seizeval.errors import SeizevalError


def _report(path):
    # cli.main maps every SeizevalError to an exit code; anything else escapes
    with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(stdio.StringIO()):
        assert cli.main(["report", "--json", str(path)]) in (cli.EXIT_OK, cli.EXIT_VALIDATION)


PARSERS = {
    "eeg": io.load_recording,
    "model": detectors.load_model,
    "labels": lambda path: io.load_labels(path, total_duration_s=60.0),
    "montage": io.load_montage,
    "csv": lambda path: io.load_csv_recording(path, sample_rate_hz=200),
    "report": _report,
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """One small valid file per format, as bytes."""
    root = tmp_path_factory.mktemp("fuzz-seeds")
    rng = np.random.default_rng(0)
    samples = rng.normal(size=(3, 6)).astype(np.float32)
    io.save_recording(sv.Recording(200, ["FP1", "F7", "T3"], samples), root / "rec.eeg")
    detectors.save_model(
        detectors.LinearModel(
            weights=rng.normal(size=6), bias=0.5, feature_mean=rng.normal(size=6),
            feature_std=np.full(6, 2.0), extractor_id="bands", feature_shape=(2, 3, 1),
        ),
        root / "model.bin",
    )
    report = {"auroc": 0.93, "n_windows": 57, "margins": {"3.0": [1, 0.5]}, "feature": "bands"}
    return {
        "eeg": (root / "rec.eeg").read_bytes(),
        "model": (root / "model.bin").read_bytes(),
        "labels": b"10.000 20.000 seiz\n# note\n25.500 30.000 bckg\n",
        "montage": b"FP1 F7\nF7 T3\n",
        "csv": b"FP1,F7\n1.0,2.0\n-3.5,4e1\n",
        "report": json.dumps(report).encode(),
    }


# bytes that the parsers treat specially are drawn more often than the rest
_BYTE = st.one_of(st.sampled_from(b"0123456789-+.,=:#e \n\r\t\"\x00\xff"), st.integers(0, 255))
_EDITS = st.lists(
    st.tuples(st.sampled_from(["flip", "insert", "delete"]), st.integers(0, 1 << 16), _BYTE),
    min_size=1,
    max_size=6,
)


def mutate(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for kind, pos, byte in edits:
        if kind == "insert":
            buf.insert(pos % (len(buf) + 1), byte)
        elif buf and kind == "flip":
            buf[pos % len(buf)] ^= byte or 0xFF
        elif buf:
            del buf[pos % len(buf)]
    return bytes(buf)


@pytest.mark.parametrize("fmt", sorted(PARSERS))
@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(edits=_EDITS)
def test_mutated_file_raises_only_typed_errors(valid_files, tmp_path, fmt, edits):
    path = tmp_path / f"input.{fmt}"
    path.write_bytes(mutate(valid_files[fmt], edits))
    try:
        PARSERS[fmt](path)
    except SeizevalError:
        pass


@pytest.mark.parametrize("fmt", sorted(PARSERS))
def test_valid_seed_file_parses(valid_files, tmp_path, fmt):
    path = tmp_path / f"input.{fmt}"
    path.write_bytes(valid_files[fmt])
    PARSERS[fmt](path)
