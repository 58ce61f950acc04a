"""Shared exception types.

File-format problems must stay distinguishable (bad magic vs. wrong version
vs. truncation), and consistency failures between artifacts that have to
agree (dataset, bank, checkpoint, config) are a separate class from plain
argument mistakes. The CLI maps these onto its exit codes.
"""


class ShapeError(ValueError):
    """Operand shapes are inconsistent for an operation."""


class FormatError(ValueError):
    """A binary or text artifact file is malformed."""


class BadMagicError(FormatError):
    """File does not start with the expected magic bytes."""


class VersionMismatchError(FormatError):
    """File declares an unsupported format version."""


class TruncatedFileError(FormatError):
    """File ends before the declared payload is complete."""


class ConsistencyError(ValueError):
    """Two artifacts that must agree (data, bank, checkpoint, config) do not."""


class ConfigError(ValueError):
    """Unknown or invalid configuration key or value."""


class NonFiniteError(ArithmeticError):
    """Training produced a non-finite loss or parameter."""
