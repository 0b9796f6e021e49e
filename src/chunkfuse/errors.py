"""The errors that are the caller's fault.

A ``ConfigError`` or ``InputError`` says the caller passed a bad
setting, bad data or a bad file; the CLI prints it and exits 1, as it
does for an ``OSError``. Any other exception is a fault of the program
itself: the CLI prints its traceback and exits 2.
"""


class ChunkfuseError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ChunkfuseError, ValueError):
    """A hyperparameter or shape constraint was violated."""


class InputError(ChunkfuseError, ValueError):
    """Malformed caller-supplied data (corpus lines, token ids, files)."""
