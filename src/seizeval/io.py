"""File formats: .eeg binary recordings, CSV import, label and montage text files.

Headed binary layout, shared by ``.eeg`` recordings and model files: an ASCII
magic line (``#EEG v1``, ``#SEIZMODEL v1``) that must match exactly,
``key=value`` lines, an ``end_header`` line, then a little-endian payload of
exactly as many values as the header declares. A ``.eeg`` payload is float32,
channel-major. The round-trip is bit-exact.

A loaded payload is a read-only map of the file: pages are read when first
touched, so loading takes the same time whatever the recording's length. Its
arrays are read-only; to edit a recording, copy its samples into a new
``Recording``. ``core.slice_windows``, ``core.to_bipolar`` and
``core.resample`` read a mapped recording from the file (``PayloadMap.fd``)
with ``os.preadv`` rather than through the map, so they leave the map's pages
untouched. The package's writers never truncate or rewrite a file in place;
each stages its output beside the target and renames it over the target
(``write_outputs``), so a file that is still mapped keeps its bytes. A file that another process truncates after it was
loaded makes those reads raise TruncatedPayloadError; one that it rewrites in
place while it is loaded is outside this contract.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import errno
import io as stdio
import itertools
import math
import mmap
import os
import shutil
import stat
import tempfile
import weakref
from pathlib import Path
from typing import BinaryIO, Callable, Iterator

import numpy as np

from .core import FLOAT32_MAX, Event, LabelTrack, Montage, MontageSpec, Recording, SeizureLabel
from .errors import (
    ChannelCountMismatchError,
    DirectoryPathError,
    InvalidArgumentError,
    LabelParseError,
    MalformedHeaderError,
    SurplusPayloadError,
    TextEncodingError,
    TruncatedPayloadError,
    UnmappablePayloadError,
)

_MAGIC = "#EEG v1"


def open_input(path: str | Path, mode: str = "r", **kwargs):
    """open() an input file; a directory raises DirectoryPathError naming the path."""
    try:
        return open(path, mode, **kwargs)
    except IsADirectoryError:
        raise DirectoryPathError(f"{path}: is a directory, expected a file") from None


# How much of a text input each read of open_text's UTF-8 check takes.
_TEXT_BLOCK_BYTES = 1 << 20


def open_text(path: str | Path, newline: str | None = None) -> stdio.TextIOWrapper:
    """A UTF-8 text input as a file object that decodes as it is read.

    The bytes are checked in one pass of ``_TEXT_BLOCK_BYTES`` reads, before
    the file is rewound and returned; bytes that are not UTF-8 raise
    TextEncodingError naming the line, so they win over a parse error earlier
    in the file. An input that cannot be rewound, such as a pipe, is read into
    memory first.
    """
    fh = open_input(path, "rb")
    try:
        if not fh.seekable():
            data = fh.read()
            fh.close()
            fh = stdio.BytesIO(data)
        decoder = codecs.getincrementaldecoder("utf-8")()
        line_no = 1  # of the first byte of the next read
        while True:
            block = fh.read(_TEXT_BLOCK_BYTES)
            try:
                decoder.decode(block, final=not block)
            except UnicodeDecodeError as exc:
                # the error's object is this read after the undecoded tail of
                # the last one, which holds no newline
                line_no += exc.object.count(b"\n", 0, exc.start)
                raise TextEncodingError(
                    f"{path}: line {line_no}: not UTF-8 text ({exc.reason})"
                ) from None
            if not block:
                break
            line_no += block.count(b"\n")
        fh.seek(0)
    except BaseException:
        fh.close()
        raise
    return stdio.TextIOWrapper(fh, encoding="utf-8", newline=newline)


def write_outputs(outputs: list[tuple[str | Path, Callable[[Path], object]]]) -> None:
    """Write every output or none of them.

    Each ``(path, write)`` pair has ``write`` fill a file, in the order
    given. A path that names a regular file or nothing is followed through
    any symlink to its target, and ``write`` fills a file in a temporary
    directory beside that target, one per directory; only once every write
    is done are these files moved into place, and one that replaces a file
    takes its permission bits. A replaced file is never truncated, so an
    array mapped from it keeps its values. Any other path (``/dev/null``, a
    FIFO) is written in place. A path that is a directory, or lies in none,
    fails before anything is written.
    """
    targets = []
    for path, _ in outputs:
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and stat.S_ISDIR(mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        target = Path(path).resolve() if mode is None or stat.S_ISREG(mode) else None
        if target is not None and not target.parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))
        targets.append(target)
    with contextlib.ExitStack() as stack:
        tmp_dirs, staged = {}, []
        for (path, write), target in zip(outputs, targets):
            if target is None:
                write(Path(path))
                continue
            if target.parent not in tmp_dirs:
                tmp = tempfile.TemporaryDirectory(prefix=f".{target.name}.", dir=target.parent)
                tmp_dirs[target.parent] = Path(stack.enter_context(tmp))
            # numbered, so two outputs to one path do not share a file
            part = tmp_dirs[target.parent] / f"{len(staged)}.{target.name}"
            write(part)
            if target.exists():
                shutil.copymode(target, part)
            staged.append((part, target))
        for part, target in staged:
            os.replace(part, target)


def write_headed(path: str | Path, magic: str, fields: dict, payload: np.ndarray, dtype: str):
    """Write a headed file: the magic line, key=value lines, end_header, then the payload.

    The file replaces ``path`` through ``write_outputs``, so ``payload`` may be
    mapped from ``path`` itself.
    """
    lines = [magic, *(f"{key}={value}" for key, value in fields.items()), "end_header", ""]
    header = "\n".join(lines).encode("ascii")
    data = np.ascontiguousarray(payload, dtype=dtype)

    def write(part: Path) -> None:
        with open(part, "wb") as fh:
            fh.write(header)
            fh.write(data.data)

    write_outputs([(path, write)])


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


class PayloadMap(mmap.mmap):
    """A read-only map of a file.

    It keeps a duplicate descriptor of the mapped inode, closed with the map,
    from which ``core._file_rows`` reads the payload, so what it reads
    stays the file it mapped even after another file is renamed over ``path``.
    """

    def __new__(cls, fd: int, offset: int, length: int, path: str | Path):
        self = super().__new__(cls, fd, length, access=mmap.ACCESS_READ, offset=offset)
        self.offset, self.path = offset, path
        self.fd = os.dup(fd)
        weakref.finalize(self, os.close, self.fd)
        self.address = np.frombuffer(self, np.uint8, count=1).ctypes.data
        return self


def read_payload(fh: BinaryIO, path: str | Path, dtype: str, count: int) -> np.ndarray:
    """Map the rest of ``fh``, exactly ``count`` values of ``dtype``, read-only.

    The size is checked before anything is mapped, since touching a page past
    the end of the file would kill the process. Short of ``count``, the whole
    values are counted; beyond it, a partial trailing value counts as one. The
    array is read-only, an empty one too. A non-empty one's base is a
    ``PayloadMap``, whose descriptor ``core._file_rows`` reads samples
    from. An input that cannot be mapped, such as a pipe, raises
    UnmappablePayloadError.
    """
    itemsize = np.dtype(dtype).itemsize
    try:
        start = fh.tell()
        size = fh.seek(0, os.SEEK_END) - start
        found = size // itemsize if size < count * itemsize else -(-size // itemsize)
        check_payload_count(path, found, count)
        if count == 0:  # mmap rejects a zero length; read-only, like a map
            return np.frombuffer(b"", dtype=dtype)
        # a map starts at a multiple of the allocation granularity
        skip = start % mmap.ALLOCATIONGRANULARITY
        payload = PayloadMap(fh.fileno(), start - skip, skip + count * itemsize, path)
    except OSError as exc:
        raise UnmappablePayloadError(f"{path}: cannot map the payload: {exc}") from None
    return np.ndarray((count,), dtype, buffer=payload, offset=skip)


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


# How many CSV rows load_csv_recording parses into one float32 block.
_CSV_BLOCK_ROWS = 1 << 12


def load_csv_recording(path: str | Path, sample_rate_hz: int) -> Recording:
    """Import a unipolar CSV: header row = channel names, one sample per row.

    Every cell must be a finite number within float32 range. A row of the
    wrong length or a cell that is not a number raises LabelParseError
    naming its line when it is read; otherwise the first cell that is not
    finite in float32 raises one naming its line and column. Blank rows are
    skipped, and a CSV of only its header row gives a recording of no
    samples.

    The file is read as it is parsed (``open_text``), and each block of
    ``_CSV_BLOCK_ROWS`` rows goes into a C-ordered float32 (channels, rows)
    array; the samples are these blocks joined, so the peak holds about two
    float32 payloads.
    """
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            names = [name.strip() for name in next(reader)]
        except StopIteration:
            raise MalformedHeaderError(f"{path}: empty CSV") from None

        def parsed_rows() -> Iterator[tuple[int, list[float]]]:
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(names):
                    raise LabelParseError(
                        path, line_no, f"expected {len(names)} columns, got {len(row)}"
                    )
                try:
                    values = list(map(float, row))
                except ValueError as exc:
                    raise LabelParseError(path, line_no, str(exc)) from exc
                yield line_no, values

        rows = parsed_rows()
        blocks, bad = [np.empty((len(names), 0), np.float32)], None
        while block := list(itertools.islice(rows, _CSV_BLOCK_ROWS)):
            if bad is not None:  # after one, the rest is only parsed
                continue
            line_nos, cells = zip(*block)
            values = np.array(cells)
            # NaN fails the comparison too
            flagged = np.argwhere(~(np.abs(values) <= FLOAT32_MAX))
            if flagged.size:
                row_no, col = flagged[0]
                bad = LabelParseError(
                    path, line_nos[row_no],
                    f"column {col + 1} ({names[col]}): {float(values[row_no, col])!r} "
                    "is not a finite float32 value",
                )
            else:
                blocks.append(values.T.astype(np.float32, order="C"))
    if bad is not None:
        raise bad
    samples = np.concatenate(blocks, axis=1)
    return Recording(sample_rate_hz=sample_rate_hz, channel_names=names, samples=samples)


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
