"""Exception hierarchy shared across the codec."""


class CodecError(Exception):
    """Base class for everything this package raises deliberately."""


class ShapeError(CodecError):
    """Tensor operation received incompatible shapes."""


class LayoutError(CodecError):
    """Two parameter vectors do not share the same segment layout."""


class ConfigError(CodecError):
    """A configuration value is invalid or inconsistent."""


class DataError(CodecError):
    """External data (files, streams, CSV input) is unusable."""


def unreadable(path, exc: Exception) -> DataError:
    """The :class:`DataError` for a file that could not be read, or whose
    text is not UTF-8."""
    if isinstance(exc, UnicodeDecodeError):
        return DataError(f"cannot read {path}: not UTF-8 text")
    return DataError(f"cannot read {path}: {exc.strerror or exc}")


class BitstreamError(DataError):
    """Malformed bitstream.  ``offset`` points at the offending byte."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (offset {offset})"
        super().__init__(message)
        self.offset = offset


class NumericError(CodecError):
    """A non-finite value appeared where a finite one is required."""


class TapeError(CodecError):
    """Autodiff tape misuse (non-scalar loss, double backward, ...)."""
