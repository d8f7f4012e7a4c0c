"""File formats: .eeg binary recordings, CSV import, label and montage text files.

Binary layout: an ASCII header (key=value lines ending with ``end_header``)
followed by a float32 little-endian channel-major payload. The round-trip is
bit-exact.
"""

from __future__ import annotations

import csv
import io as stdio
import math
from pathlib import Path

import numpy as np

from .core import Event, LabelTrack, Montage, MontageSpec, Recording, SeizureLabel
from .errors import (
    ChannelCountMismatchError,
    DirectoryPathError,
    LabelParseError,
    MalformedHeaderError,
    TextEncodingError,
    TruncatedPayloadError,
)

_MAGIC = "#EEG"
_VERSION = "1"
_HEADER_END = b"end_header\n"


def open_input(path: str | Path, mode: str = "r", **kwargs):
    """open() an input file; a directory raises DirectoryPathError naming the path."""
    try:
        return open(path, mode, **kwargs)
    except IsADirectoryError:
        raise DirectoryPathError(f"{path}: is a directory, expected a file") from None


def open_text(path: str | Path, newline: str | None = None) -> stdio.StringIO:
    """A UTF-8 text input as a file object; bytes that are not UTF-8 raise TextEncodingError."""
    with open_input(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise TextEncodingError(f"{path}: line {line_no}: not UTF-8 text ({exc.reason})") from None
    return stdio.StringIO(text, newline=newline)


def save_recording(rec: Recording, path: str | Path) -> None:
    header = (
        f"{_MAGIC} v{_VERSION}\n"
        f"sample_rate_hz={rec.sample_rate_hz}\n"
        f"n_channels={rec.n_channels}\n"
        f"n_samples={rec.n_samples}\n"
        f"montage={rec.montage.value}\n"
        f"channels={','.join(rec.channel_names)}\n"
        "end_header\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(rec.samples, dtype="<f4").tobytes())


def load_recording(path: str | Path) -> Recording:
    with open_input(path, "rb") as fh:
        raw = fh.read()
    sep = raw.find(_HEADER_END)
    if sep < 0:
        raise MalformedHeaderError(f"{path}: missing end_header marker")
    try:
        header_text = raw[:sep].decode("ascii")
    except UnicodeDecodeError as exc:
        raise MalformedHeaderError(f"{path}: header is not ASCII") from exc
    lines = header_text.splitlines()
    if not lines or not lines[0].startswith(f"{_MAGIC} v"):
        raise MalformedHeaderError(f"{path}: bad magic line")
    fields: dict[str, str] = {}
    for line in lines[1:]:
        if "=" not in line:
            raise MalformedHeaderError(f"{path}: bad header line {line!r}")
        key, value = line.split("=", 1)
        fields[key] = value
    try:
        fs = int(fields["sample_rate_hz"])
        n_channels = int(fields["n_channels"])
        n_samples = int(fields["n_samples"])
        montage = Montage(fields["montage"])
        names = fields["channels"].split(",") if fields["channels"] else []
    except (KeyError, ValueError) as exc:
        raise MalformedHeaderError(f"{path}: {exc}") from exc
    if len(names) != n_channels:
        raise ChannelCountMismatchError(
            f"{path}: header declares {n_channels} channels but names {len(names)}"
        )
    start = sep + len(_HEADER_END)
    expected = 4 * n_channels * n_samples
    if len(raw) - start < expected:
        raise TruncatedPayloadError(
            f"{path}: payload holds {len(raw) - start} bytes, expected {expected}"
        )
    samples = np.frombuffer(
        raw, dtype="<f4", count=n_channels * n_samples, offset=start
    ).reshape(n_channels, n_samples)
    return Recording(
        sample_rate_hz=fs,
        channel_names=names,
        samples=samples.copy(),
        montage=montage,
    )


def load_csv_recording(
    path: str | Path,
    sample_rate_hz: int,
    montage: Montage = Montage.UNIPOLAR,
) -> Recording:
    """Import CSV: header row = channel names, one sample per row."""
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            names = [name.strip() for name in next(reader)]
        except StopIteration:
            raise MalformedHeaderError(f"{path}: empty CSV") from None
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(names):
                raise LabelParseError(
                    path, line_no, f"expected {len(names)} columns, got {len(row)}"
                )
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise LabelParseError(path, line_no, str(exc)) from exc
    samples = np.asarray(rows, dtype=np.float32).T
    return Recording(
        sample_rate_hz=sample_rate_hz,
        channel_names=names,
        samples=samples,
        montage=montage,
    )


def save_labels(track: LabelTrack, path: str | Path) -> None:
    with open(path, "w") as fh:
        for ev in track.events:
            fh.write(f"{ev.start_s:.3f} {ev.stop_s:.3f} {ev.label.value}\n")


def load_labels(path: str | Path, total_duration_s: float) -> LabelTrack:
    """Parse 'start stop label' lines; gaps become implicit background."""
    events: list[Event] = []
    prev_stop = 0.0
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise LabelParseError(path, line_no, f"expected 'start stop label', got {line!r}")
            try:
                start, stop = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise LabelParseError(path, line_no, str(exc)) from exc
            if not (math.isfinite(start) and math.isfinite(stop)):
                raise LabelParseError(
                    path, line_no, f"start and stop must be finite, got {line!r}"
                )
            try:
                label = SeizureLabel(parts[2].lower())
            except ValueError:
                raise LabelParseError(path, line_no, f"unknown label {parts[2]!r}") from None
            if stop <= start:
                raise LabelParseError(path, line_no, "stop must exceed start")
            if start < prev_stop:
                raise LabelParseError(
                    path, line_no, f"event starts at {start} before previous stop {prev_stop}"
                )
            if stop > total_duration_s + 1e-9:
                raise LabelParseError(path, line_no, "event extends past recording end")
            events.append(Event(start, stop, label))
            prev_stop = stop
    return LabelTrack(events=events, total_duration_s=total_duration_s)


def load_montage(path: str | Path) -> MontageSpec:
    """Parse 'ANODE CATHODE' pairs, one per line."""
    pairs: list[tuple[str, str]] = []
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise LabelParseError(path, line_no, f"expected 'ANODE CATHODE', got {line!r}")
            pairs.append((parts[0], parts[1]))
    return MontageSpec(tuple(pairs))
