"""Exception hierarchy shared by all seizeval modules."""

from pathlib import Path


class SeizevalError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(SeizevalError, ValueError):
    """An argument violates a documented precondition."""


class NonFiniteSampleError(InvalidArgumentError):
    """A window holds a NaN, an infinity or a sample beyond float32 range."""


class ChannelNotFoundError(SeizevalError, KeyError):
    """A montage pair references a channel name missing from the recording."""


class EmptyStreamError(SeizevalError):
    """The recording is shorter than a single analysis window."""


class IncompatibleFeatureError(SeizevalError):
    """A detector was fed a feature tensor it cannot score."""


class DegenerateDatasetError(SeizevalError):
    """An operation requires both classes but the data contains only one."""


class FileFormatError(SeizevalError):
    """Base class for file parsing failures."""


class MalformedHeaderError(FileFormatError):
    """Recording header is missing, truncated, or has invalid fields."""


class ChannelCountMismatchError(FileFormatError):
    """Declared channel count disagrees with the channel name list."""


class TruncatedPayloadError(FileFormatError):
    """Sample payload is shorter than the header promises."""


class SurplusPayloadError(FileFormatError):
    """Payload holds more values than the header promises."""


class TextEncodingError(FileFormatError):
    """A text input holds bytes that are not UTF-8."""


class MalformedReportError(FileFormatError):
    """A report.json file is not valid JSON."""


class DirectoryPathError(SeizevalError, IsADirectoryError):
    """An input path names a directory where a file is expected."""


class LabelParseError(FileFormatError):
    """A label, montage or CSV file failed to parse; carries its path and line number."""

    def __init__(self, path: str | Path, line_no: int, message: str):
        self.path = path
        self.line_no = line_no
        super().__init__(f"{path}: line {line_no}: {message}")
