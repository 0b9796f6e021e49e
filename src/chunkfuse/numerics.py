"""Dense float64 matrix helpers and a deterministic seeded RNG.

Matrices are plain 2-D float64 ``numpy.ndarray`` values. ``save_matrix``
and ``load_matrix`` are their whole text format: first line
``"rows cols"``, then one line per row with entries written as shortest
round-trip decimals. The writer refuses a matrix before it opens the
file; the reader parses one line at a time and holds only the rows it
has read, never a shape the header merely claims.

Randomness comes from :class:`SeededRng`, a SplitMix64 generator whose
integer stream is identical on every platform and run for a given seed.
Every draw, interior samples included, computes that stream in numpy
``uint64`` blocks; Gaussians keep ``log``, ``sin`` and ``cos`` on libm
through ``math``, so a block-wise draw is bitwise the same as the
one-draw-at-a-time loop that ``tests/oracles.py`` keeps.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import ConfigError, InputError

_MASK64 = (1 << 64) - 1
# SplitMix64: the golden-ratio increment and the finalizer's multipliers
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_BLOCK = 1 << 15  # draws per numpy block: bounds the temporaries of a large draw


def as_token_ids(tokens) -> np.ndarray:
    """``tokens`` as an int64 array, or ``InputError`` where a cast would coerce them.

    numpy infers the dtype, so floats, strings and a list of bools are refused
    rather than truncated, parsed or read as 0 and 1, as are ids past int64
    (inferred as uint64, float64 or object). An empty ``tokens`` is left to the
    caller to refuse.
    """
    ids = np.asarray(tokens)
    if ids.size and (ids.dtype.kind not in "iu" or ids.dtype.kind == "u" and ids.max() >= 1 << 63):
        raise InputError(f"token ids must be integers in int64's range, got {ids.dtype} values")
    return ids.astype(np.int64, copy=False)


def check_finite(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Return ``a``; a NaN or infinity in it is a numeric fault, a ``FloatingPointError``."""
    if not np.all(np.isfinite(a)):
        raise FloatingPointError(f"{what} contains non-finite entries")
    return a


# ---------------------------------------------------------------------------
# text serialization


def save_matrix(a: np.ndarray, path: str | os.PathLike) -> None:
    """Write the 2-D float64 matrix ``a`` to ``path``; a refused ``a`` leaves ``path`` as it was."""
    if a.ndim != 2 or a.dtype != np.float64:
        raise ConfigError(f"expected a 2-D float64 matrix, got ndim={a.ndim} {a.dtype}")
    check_finite(a, "serialized matrix")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        # one string, not streamed rows: streaming them slowed wide-corpus memory_s_p50 by 16%;
        # row by row, as the whole matrix as Python floats at once raised peak RSS
        lines = [f"{a.shape[0]} {a.shape[1]}", *(" ".join(map(repr, row.tolist())) for row in a)]
        text = "\n".join(lines) + "\n"
        del lines  # the row strings are freed before the write makes its encoded copy
        fh.write(text)


def load_matrix(path: str | os.PathLike) -> np.ndarray:
    """The matrix ``save_matrix`` wrote to ``path``, read one line at a time.

    Lines split where ``str.splitlines`` splits them. The array grows from
    the rows read, never to the shape the header claims; every fault in the
    text is an ``InputError``.
    """
    with open(path, "r", encoding="ascii") as fh:
        try:
            return _parse_rows(line for chunk in fh for line in chunk.splitlines())
        except UnicodeDecodeError as exc:
            raise InputError(f"matrix file {path} is not ASCII: {exc}") from exc


def _parse_rows(lines) -> np.ndarray:
    """The matrix in the iterator ``lines``: its first non-blank line is the header."""
    header = next((ln.lstrip() for ln in lines if ln.strip()), None)
    if header is None:
        raise InputError("empty matrix text")
    try:
        rows, cols = (int(v) for v in header.split())
    except ValueError as exc:
        raise InputError(f"bad matrix header {header!r}") from exc
    if rows < 0 or cols < 0:
        raise InputError(f"bad matrix shape {rows}x{cols}")
    data = bytearray()
    found = 0
    for line in lines:
        if cols and not line.strip():  # a row of no columns is a blank line; others are skipped
            continue
        if found < rows:  # rows past the header's count are only counted
            parts = line.split()
            if len(parts) != cols:
                raise InputError(f"row {found} has {len(parts)} entries, expected {cols}")
            try:
                data += np.array(parts, dtype=np.float64).data
            except ValueError as exc:
                raise InputError(f"row {found} has a non-numeric entry: {exc}") from exc
        found += 1
    if found != rows:
        raise InputError(f"expected {rows} rows, found {found}")
    matrix = np.frombuffer(data, dtype=np.float64).reshape(rows, cols)
    if not np.all(np.isfinite(matrix)):
        raise InputError("matrix text contains non-finite entries")
    return matrix


# ---------------------------------------------------------------------------
# deterministic randomness


def fnv1a64(text: str) -> int:
    """FNV-1a hash of a UTF-8 string, for deriving per-document seeds."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


class SeededRng:
    """SplitMix64 stream generator.

    State advances by the golden-ratio increment and output is the
    standard SplitMix64 finalizer, so two instances with the same seed
    emit identical 64-bit streams everywhere. Every draw reads that
    stream in numpy blocks; floats derived from it are exact dyadic
    rationals, and Gaussians use Box-Muller.
    """

    __slots__ = ("_state", "_gauss_spare")

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._gauss_spare: float | None = None

    def _u64_blocks(self, count: int):
        """The next ``count`` SplitMix64 outputs, as uint64 blocks.

        The state after i steps is ``state + i*gamma mod 2**64``, so each
        block is one array expression (numpy's uint64 arithmetic wraps).
        ``_state`` is advanced past each block before it is yielded.
        """
        for start in range(0, count, _BLOCK):
            n = min(_BLOCK, count - start)
            z = np.arange(1, n + 1, dtype=np.uint64) * _GAMMA + self._state
            self._state = (self._state + n * _GAMMA) & _MASK64
            z ^= z >> 30
            z *= _MIX1
            z ^= z >> 27
            z *= _MIX2
            z ^= z >> 31
            yield z

    def normal_matrix(self, rows: int, cols: int, std: float) -> np.ndarray:
        """(rows x cols) matrix of independent N(0, std^2) draws, row-major fill.

        Box-Muller over pairs of uniform draws ``(z >> 11) * 2**-53`` of
        stream outputs z: each pair gives ``r*cos(theta)``, then
        ``r*sin(theta)``, kept as the spare for the next call when the
        count is odd. ``sqrt`` and the products are correctly rounded in
        numpy; ``log``, ``sin`` and ``cos`` stay on libm through ``math``,
        so every entry is bitwise the value of a one-draw-at-a-time loop.
        The matrix is read-only: weight stacks, which the decoder caches and
        shares, hold these arrays.
        """
        out = np.empty(rows * cols, dtype=np.float64)
        filled = 0
        if self._gauss_spare is not None and out.size:
            out[0] = self._gauss_spare * std
            self._gauss_spare = None
            filled = 1
        pairs = (out.size - filled + 1) // 2
        for z in self._u64_blocks(2 * pairs):
            u = (z >> 11) * 2.0**-53
            n = u.size // 2
            # 1 - u lies in (0, 1], keeping log() finite
            log_u = np.fromiter(map(math.log, (1.0 - u[0::2]).tolist()), np.float64, n)
            r = np.sqrt(-2.0 * log_u)
            theta = ((2.0 * math.pi) * u[1::2]).tolist()
            g = np.empty(2 * n, dtype=np.float64)
            g[0::2] = r * np.fromiter(map(math.cos, theta), np.float64, n)
            g[1::2] = r * np.fromiter(map(math.sin, theta), np.float64, n)
            take = min(g.size, out.size - filled)
            out[filled:filled + take] = g[:take] * std
            filled += take
            if take < g.size:
                self._gauss_spare = float(g[-1])
        out.flags.writeable = False
        return out.reshape(rows, cols)

    def token_ids(self, count: int, vocab_size: int) -> tuple[int, ...]:
        """``count`` stream outputs reduced modulo ``vocab_size``, as Python ints."""
        if vocab_size <= 0:
            raise ConfigError("token_ids requires vocab_size >= 1")
        ids: list[int] = []
        for z in self._u64_blocks(count):
            ids.extend((z % vocab_size).tolist())
        return tuple(ids)

    def sample_indices(self, rows: int, population: int, count: int) -> np.ndarray:
        """(rows, count) int64 array; each row holds ``count`` distinct indices
        of range(population) in selection order: a partial Fisher-Yates
        shuffle, run on every row at once. The next ``rows*count`` outputs z,
        row-major, pick the swap partner of column i as
        ``i + z % (population - i)``. Raises if count exceeds the population.
        """
        if count > population:
            raise ConfigError(f"cannot sample {count} of {population} without replacement")
        z = np.concatenate([*self._u64_blocks(rows * count), np.empty(0, np.uint64)])
        i = np.arange(count, dtype=np.uint64)
        partner = (i + z.reshape(rows, count) % (np.uint64(population) - i)).astype(np.int64)
        pool = np.tile(np.arange(population, dtype=np.int64), (rows, 1))
        r = np.arange(rows)
        for col, j in enumerate(partner.T):  # one swap per row, all rows at once
            pool[r, col], pool[r, j] = pool[r, j], pool[r, col]
        return pool[:, :count]
