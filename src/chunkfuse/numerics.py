"""Dense float64 matrix helpers and a deterministic seeded RNG.

Matrices are plain 2-D ``numpy.ndarray`` values in row-major (C) order,
always double precision. Helpers here validate shapes, keep results
finite, and provide the text serialization used by golden files:
first line ``"rows cols"``, then one line per row with entries written
as shortest round-trip decimals.

Randomness comes from :class:`SeededRng`, a SplitMix64 generator
implemented in pure Python so the integer stream is identical on every
platform and run for a given seed.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import ConfigError, ContractError, InputError

_MASK64 = (1 << 64) - 1


def as_matrix(data) -> np.ndarray:
    """Coerce ``data`` to a 2-D float64 C-order array."""
    a = np.ascontiguousarray(data, dtype=np.float64)
    if a.ndim != 2:
        raise ConfigError(f"expected a 2-D matrix, got ndim={a.ndim}")
    return a


def check_finite(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise ContractError(f"{what} contains non-finite entries")
    return a


# ---------------------------------------------------------------------------
# text serialization


def matrix_to_text(a: np.ndarray) -> str:
    a = as_matrix(a)
    check_finite(a, "serialized matrix")
    # row by row: the whole matrix as Python floats, held at once, raised peak RSS
    lines = [f"{a.shape[0]} {a.shape[1]}", *(" ".join(map(repr, row.tolist())) for row in a)]
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputError("empty matrix text")
    try:
        rows, cols = (int(v) for v in lines[0].split())
    except ValueError as exc:
        raise InputError(f"bad matrix header {lines[0]!r}") from exc
    if rows < 0 or cols < 0:
        raise InputError(f"bad matrix shape {rows}x{cols}")
    if len(lines) - 1 != rows:
        raise InputError(f"expected {rows} rows, found {len(lines) - 1}")
    data = np.empty((rows, cols), dtype=np.float64)
    # row by row, as matrix_to_text writes: every entry's string at once costs more
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != cols:
            raise InputError(f"row {i} has {len(parts)} entries, expected {cols}")
        data[i] = parts
    if not np.all(np.isfinite(data)):
        raise InputError("matrix text contains non-finite entries")
    return data


def save_matrix(a: np.ndarray, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(matrix_to_text(a))


def load_matrix(path: str | os.PathLike) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        return matrix_from_text(fh.read())


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
    emit identical 64-bit streams everywhere. Floats derived from the
    stream are exact dyadic rationals; Gaussians use Box-Muller.
    """

    __slots__ = ("seed", "_state", "_gauss_spare")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = self.seed
        self._gauss_spare: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform draw in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def gaussian(self) -> float:
        """Standard normal draw (Box-Muller, pairs cached)."""
        if self._gauss_spare is not None:
            z = self._gauss_spare
            self._gauss_spare = None
            return z
        # 1 - uniform() lies in (0, 1], keeping log() finite
        r = math.sqrt(-2.0 * math.log(1.0 - self.uniform()))
        theta = 2.0 * math.pi * self.uniform()
        self._gauss_spare = r * math.sin(theta)
        return r * math.cos(theta)

    def normal_matrix(self, rows: int, cols: int, std: float) -> np.ndarray:
        """(rows x cols) matrix of independent N(0, std^2) draws, row-major fill."""
        out = np.empty(rows * cols, dtype=np.float64)
        for i in range(out.size):
            out[i] = self.gaussian() * std
        return out.reshape(rows, cols)

    def randint_below(self, n: int) -> int:
        """Uniform-ish integer in [0, n); modulo reduction, documented as such."""
        if n <= 0:
            raise ConfigError("randint_below requires n >= 1")
        return self.next_u64() % n

    def token_ids(self, count: int, vocab_size: int) -> tuple[int, ...]:
        return tuple(self.randint_below(vocab_size) for _ in range(count))

    def sample_indices(self, population: int, count: int) -> list[int]:
        """``count`` distinct indices from range(population), selection order.

        Partial Fisher-Yates; raises if count exceeds the population.
        """
        if count > population:
            raise ConfigError(
                f"cannot sample {count} of {population} without replacement"
            )
        pool = list(range(population))
        for i in range(count):
            j = i + self.randint_below(population - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:count]
