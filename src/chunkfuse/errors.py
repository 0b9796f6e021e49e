"""Exception taxonomy shared by every module.

Two broad families matter to callers: bad configuration or bad input
(the caller's fault, CLI exit code 1) and broken internal invariants
(our fault, CLI exit code 2).
"""


class ChunkfuseError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ChunkfuseError, ValueError):
    """A hyperparameter or shape constraint was violated."""


class InputError(ChunkfuseError, ValueError):
    """Malformed caller-supplied data (corpus lines, token ids, files)."""


class ContractError(ChunkfuseError, RuntimeError):
    """An internal invariant failed; indicates a bug, not bad input."""
