"""File formats: .eeg binary recordings, CSV import, label and montage text files.

Headed binary layout, shared by ``.eeg`` recordings and model files: an ASCII
magic line (``#EEG v1``, ``#SEIZMODEL v1``) that must match exactly,
``key=value`` lines, an ``end_header`` line, then a little-endian payload of
exactly as many values as the header declares. A ``.eeg`` payload is float32,
channel-major. The round-trip is bit-exact.
"""

from __future__ import annotations

import csv
import io as stdio
import math
import os
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .core import Event, LabelTrack, Montage, MontageSpec, Recording, SeizureLabel
from .errors import (
    ChannelCountMismatchError,
    DirectoryPathError,
    InvalidArgumentError,
    LabelParseError,
    MalformedHeaderError,
    SurplusPayloadError,
    TextEncodingError,
    TruncatedPayloadError,
)

_MAGIC = "#EEG v1"


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


def write_headed(path: str | Path, magic: str, fields: dict, payload: np.ndarray, dtype: str):
    """Write a headed file: the magic line, key=value lines, end_header, then the payload."""
    lines = [magic, *(f"{key}={value}" for key, value in fields.items()), "end_header", ""]
    header = "\n".join(lines).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(payload, dtype=dtype).data)


def read_header(fh: BinaryIO, path: str | Path, magic: str) -> dict[str, str]:
    """Parse a headed file's header and leave ``fh`` at the first payload byte."""
    if fh.readline(len(magic) + 1) != f"{magic}\n".encode("ascii"):
        raise MalformedHeaderError(f"{path}: bad magic line, expected {magic!r}")
    fields: dict[str, str] = {}
    while (line := fh.readline()) != b"end_header\n":
        if not line.endswith(b"\n"):
            raise MalformedHeaderError(f"{path}: missing end_header marker")
        try:
            key, value = line[:-1].decode("ascii").split("=", 1)
        except UnicodeDecodeError:
            raise MalformedHeaderError(f"{path}: header is not ASCII") from None
        except ValueError:
            raise MalformedHeaderError(f"{path}: bad header line {line[:-1].decode()!r}") from None
        fields[key] = value
    return fields


def header_ints(path: str | Path, fields: dict[str, str], key: str, minimum=0, n=1):
    """The ``n`` comma-separated integers of header field ``key``, none below ``minimum``."""
    values = fields.get(key, "").split(",")
    if len(values) != n or not all(v.isdigit() and int(v) >= minimum for v in values):
        raise MalformedHeaderError(
            f"{path}: {key}={fields.get(key)}: expected {n} integer(s) >= {minimum}"
        )
    return tuple(map(int, values))


def check_payload_count(path: str | Path, found: int, expected: int) -> None:
    """Raise TruncatedPayloadError or SurplusPayloadError unless found == expected."""
    if found != expected:
        error = TruncatedPayloadError if found < expected else SurplusPayloadError
        raise error(f"{path}: payload holds {found} values, expected {expected}")


def read_payload(fh: BinaryIO, path: str | Path, dtype: str, count: int) -> np.ndarray:
    """Read the rest of ``fh``, exactly ``count`` values of ``dtype``, into a new array.

    The size is checked before allocating. Short of ``count``, the whole values
    are counted; beyond it, a partial trailing value counts as one.
    """
    itemsize, start = np.dtype(dtype).itemsize, fh.tell()
    size = fh.seek(0, os.SEEK_END) - start
    found = size // itemsize if size < count * itemsize else -(-size // itemsize)
    check_payload_count(path, found, count)
    fh.seek(start)
    out = np.empty(count, dtype=dtype)
    check_payload_count(path, fh.readinto(out) // itemsize, count)
    return out


def save_recording(rec: Recording, path: str | Path) -> None:
    for name in rec.channel_names:
        if not name or not name.isascii() or "," in name or "\n" in name:
            raise InvalidArgumentError(
                f"{path}: channel name {name!r} cannot be stored in a .eeg header; "
                "names must be non-empty ASCII without ',' or a newline"
            )
    fields = {
        "sample_rate_hz": rec.sample_rate_hz,
        "n_channels": rec.n_channels,
        "n_samples": rec.n_samples,
        "montage": rec.montage.value,
        "channels": ",".join(rec.channel_names),
    }
    write_headed(path, _MAGIC, fields, rec.samples, "<f4")


def load_recording(path: str | Path) -> Recording:
    with open_input(path, "rb") as fh:
        fields = read_header(fh, path, _MAGIC)
        (n_channels,) = header_ints(path, fields, "n_channels")
        (n_samples,) = header_ints(path, fields, "n_samples")
        (fs,) = header_ints(path, fields, "sample_rate_hz", minimum=1)
        try:
            montage = Montage(fields["montage"])
            names = fields["channels"].split(",") if fields["channels"] else []
        except (KeyError, ValueError) as exc:
            raise MalformedHeaderError(f"{path}: {exc}") from exc
        if len(names) != n_channels:
            raise ChannelCountMismatchError(
                f"{path}: header declares {n_channels} channels but names {len(names)}"
            )
        samples = read_payload(fh, path, "<f4", n_channels * n_samples)
    return Recording(fs, names, samples.reshape(n_channels, n_samples), montage)


def load_csv_recording(
    path: str | Path,
    sample_rate_hz: int,
    montage: Montage = Montage.UNIPOLAR,
) -> Recording:
    """Import CSV: header row = channel names, one sample per row.

    Every cell must be a finite number within float32 range; the first one
    that is not raises LabelParseError naming its line and column.
    """
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            names = [name.strip() for name in next(reader)]
        except StopIteration:
            raise MalformedHeaderError(f"{path}: empty CSV") from None
        rows, line_nos = [], []
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
            line_nos.append(line_no)
    values = np.asarray(rows)
    # NaN fails the comparison too
    bad = np.argwhere(~(np.abs(values) <= np.finfo(np.float32).max))
    if bad.size:
        row_no, col = bad[0]
        raise LabelParseError(
            path,
            line_nos[row_no],
            f"column {col + 1} ({names[col]}): {rows[row_no][col]!r} is not a finite "
            "float32 value",
        )
    samples = values.astype(np.float32).T
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
