"""Per-index reference implementations of the fusion formulas.

These follow PAPER.md one chunk at a time, with explicit loops, so the
library's array-shaped ``contexts`` and ``fuse`` can be checked against
them. Boundaries are (C, k, d) arrays; chunk indices are 1-based.
``mean_of`` is the plain block average the brute-force context checks
use, ``fsum_context`` a correctly rounded one for long documents,
``assemble_per_chunk`` the chunk-by-chunk reference for ``assemble``,
``windows_one_by_one`` the window-by-window reference for ``segment``,
``synthetic_chunks`` builds window starts and random encodings,
``kept_rows`` picks from them, one chunk at a time, the rows and
positions ``assemble`` reads, ``probe_runs`` the assembled sequences
the position probe reads, ``sweep_per_variant`` the memories of
``sweep`` with every document encoded afresh under every variant,
``matrix_to_text_per_value`` and
``matrix_from_text_per_value`` the value-by-value matrix text writer and
parser, and ``next_u64``, ``randint_below``, ``uniform``, ``gaussian``,
``normal_matrix_per_value``, ``token_ids_per_value`` and
``sample_indices_per_value`` the draw-at-a-time forms of ``SeededRng``'s
block-wise streams. ``softmax_out_of_place`` and ``layer_norm_mean_var``
are the textbook forms of the encoder's in-place softmax and one-pass
layer norm, each step in a new array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from chunkfuse.cumulation import CHUNK, LEFT, MIDDLE, POSITION, RIGHT, ROLE
from chunkfuse.encoder import _LN_EPS
from chunkfuse.errors import ConfigError
from chunkfuse.numerics import SeededRng, as_matrix, check_finite
from chunkfuse.pipeline import run_document


def mean_of(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Element-wise arithmetic mean of equally shaped matrices."""
    if len(matrices) == 0:
        raise ValueError("mean_of requires a non-empty list")
    mats = [as_matrix(m) for m in matrices]
    shape = mats[0].shape
    for m in mats[1:]:
        if m.shape != shape:
            raise ConfigError(
                f"mean_of shape mismatch: {shape} vs {m.shape}"
            )
    return check_finite(np.mean(np.stack(mats), axis=0), "mean_of result")


def _check_index(lefts: np.ndarray, index: int) -> None:
    if not 1 <= index <= len(lefts):
        raise IndexError(f"chunk index {index} outside [1, {len(lefts)}]")


def backward_context(lefts: np.ndarray, rights: np.ndarray, index: int) -> np.ndarray:
    """Average of chunk ``index``'s left boundary with all earlier blocks.

    For the first chunk this is exactly the left boundary. Otherwise the
    left boundary plus both boundaries of each earlier chunk are summed
    and divided by their count, 2*index - 1.
    """
    _check_index(lefts, index)
    if index == 1:
        return lefts[0].copy()
    total = lefts[index - 1].copy()
    for j in range(index - 1):
        total += lefts[j]
        total += rights[j]
    return total / (2 * index - 1)


def forward_context(lefts: np.ndarray, rights: np.ndarray, index: int) -> np.ndarray:
    """Mirror of :func:`backward_context` over succeeding chunks.

    For the last chunk this is exactly the right boundary; otherwise the
    divisor is 2*(C - index) + 1.
    """
    _check_index(lefts, index)
    c = len(lefts)
    if index == c:
        return rights[c - 1].copy()
    total = rights[index - 1].copy()
    for j in range(index, c):
        total += lefts[j]
        total += rights[j]
    return total / (2 * (c - index) + 1)


def fsum_context(
    lefts: np.ndarray,
    rights: np.ndarray,
    index: int,
    direction: str,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Chunk ``index``'s backward ("back") or forward ("fwd") context via math.fsum.

    Each entry is the correctly rounded sum of its addends divided by
    their count. Returns (context, sum of the addends' magnitudes, count):
    the last two bound the rounding error of any summation order.
    """
    _check_index(lefts, index)
    if direction == "back":
        blocks = (lefts[index - 1:index], lefts[:index - 1], rights[:index - 1])
    else:
        blocks = (rights[index - 1:index], lefts[index:], rights[index:])
    addends = np.concatenate(blocks)
    count = len(addends)
    columns = addends.reshape(count, -1).T.tolist()
    context = np.array([math.fsum(col) for col in columns]) / count
    magnitude = np.array([math.fsum(abs(v) for v in col) for col in columns])
    return context.reshape(lefts.shape[1:]), magnitude.reshape(lefts.shape[1:]), count


@dataclass(frozen=True)
class FusionJacobian:
    """Exact per-block sensitivities of one chunk's fused boundaries.

    Fusion is linear and acts entrywise, so the derivative of any fused
    entry with respect to the matching entry of a source block is a
    scalar. Keys are ("L", j) or ("R", j) with 1-based j; every source
    block of the set appears, zeros included.
    """

    chunk: int
    alpha: float
    d_fused_left: dict[tuple[str, int], float]
    d_fused_right: dict[tuple[str, int], float]


def fusion_jacobian(lefts: np.ndarray, alpha: float, index: int) -> FusionJacobian:
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must lie in [0, 1], got {alpha}")
    _check_index(lefts, index)
    c = len(lefts)

    d_left = {key: 0.0 for side in ("L", "R") for key in ((side, j) for j in range(1, c + 1))}
    d_right = dict(d_left)

    if index == 1:
        d_left[("L", 1)] = 1.0
    else:
        spread = (1.0 - alpha) / (2 * index - 1)
        d_left[("L", index)] = alpha + spread
        for j in range(1, index):
            d_left[("L", j)] = spread
            d_left[("R", j)] = spread

    if index == c:
        d_right[("R", c)] = 1.0
    else:
        spread = (1.0 - alpha) / (2 * (c - index) + 1)
        d_right[("R", index)] = alpha + spread
        for j in range(index + 1, c + 1):
            d_right[("L", j)] = spread
            d_right[("R", j)] = spread

    return FusionJacobian(chunk=index, alpha=alpha,
                          d_fused_left=d_left, d_fused_right=d_right)


@dataclass(frozen=True)
class PerChunkMemory:
    """What ``assemble_per_chunk`` builds: the memory's rows and provenance,
    and its short chunks and middle shortfall as the manifest writes them."""

    flattened: np.ndarray
    provenance: np.ndarray
    short_chunks: list[int]
    middle_shortfall: dict[str, int]


def assemble_per_chunk(fused_lefts, fused_rights, encodings, middle_indices, starts,
                       middle_requested: int) -> PerChunkMemory:
    """``assemble`` one chunk at a time, reading each chunk's length and start.

    Each chunk may bring its own number of rows and of middle indices,
    so this checks nothing the array version assumes about equal lengths.
    """
    c, k, d = fused_lefts.shape
    rows = sum(2 * k + len(idx) for idx in middle_indices)
    flattened = np.empty((rows, d), dtype=np.float64)
    provenance = np.empty((rows, 3), dtype=np.int64)
    short, shortfall = [], {}
    r = 0
    for i, (enc, idx, start) in enumerate(zip(encodings, middle_indices, starts)):
        n, m = len(enc), len(idx)
        end = r + 2 * k + m
        flattened[r:r + k] = fused_lefts[i]
        flattened[r + k:end - k] = enc[idx]
        flattened[end - k:end] = fused_rights[i]
        provenance[r:end, CHUNK] = i + 1
        provenance[r:end, ROLE] = [LEFT] * k + [MIDDLE] * m + [RIGHT] * k
        provenance[r:end, POSITION] = [*range(k), *idx, *range(n - k, n)]
        provenance[r:end, POSITION] += start
        if n < 2 * k:
            short.append(i + 1)
        if m < middle_requested:
            shortfall[str(i + 1)] = middle_requested - m
        r = end
    return PerChunkMemory(flattened, provenance, short, shortfall)


def windows_one_by_one(tokens: Sequence[int], chunk_len: int,
                       overlap: int) -> list[tuple[int, tuple[int, ...]]]:
    """(start, tokens) of each window, placed one at a time until the end is covered.

    Each window starts a stride after the previous one; a window that
    would run past the end is pulled back to end at the last token. The
    window count comes out of the loop, not from a formula.
    """
    toks = tuple(tokens)
    width = min(chunk_len, len(toks))
    out = []
    start = 0
    while True:
        start = min(start, len(toks) - width)
        out.append((start, toks[start:start + width]))
        if start + width >= len(toks):
            return out
        start += chunk_len - overlap


def synthetic_chunks(rng: np.random.Generator, n_chunks: int, chunk_len: int, dim: int):
    """Starts of back-to-back windows of ``chunk_len`` tokens, and random (C, n, d) encodings."""
    return np.arange(n_chunks) * chunk_len, rng.normal(size=(n_chunks, chunk_len, dim))


def kept_rows(encodings: np.ndarray, boundary_width: int, middle_indices,
              starts) -> tuple[np.ndarray, np.ndarray]:
    """(C, 2k + t, d) kept rows and (C, 2k + t) document positions, chunk by chunk.

    Each chunk keeps its first k rows, the rows ``middle_indices`` names
    and its last k rows, as ``encode_document`` does.
    """
    k = boundary_width
    rows, positions = [], []
    for enc, idx, start in zip(encodings, np.asarray(middle_indices).tolist(),
                               np.asarray(starts).tolist()):
        keep = [*range(k), *idx, *range(len(enc) - k, len(enc))]
        rows.append(enc[keep])
        positions.append([start + i for i in keep])
    return np.stack(rows), np.array(positions, dtype=np.int64)


def probe_runs(docs, alpha: float, cfg, weights=None):
    """One assembled sequence per document, run under ``cfg`` at ``alpha``."""
    cfg = replace(cfg, alpha=alpha)
    return [run_document(doc, cfg, weights=weights).fused for doc in docs]


def sweep_per_variant(docs, variants, weights):
    """Per variant, one fused memory per ``(doc_id, tokens)``, each from its own encode."""
    return [[run_document(tokens, variant, weights, doc_id).fused for doc_id, tokens in docs]
            for variant in variants]


def matrix_to_text_per_value(a: np.ndarray) -> str:
    """``matrix_to_text`` one entry at a time: ``repr(float(v))`` of each value."""
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for row in a:
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def matrix_from_text_per_value(text: str) -> np.ndarray:
    """``matrix_from_text`` on well-formed text, one ``float()`` per entry."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    rows, cols = (int(v) for v in lines[0].split())
    data = np.empty((rows, cols), dtype=np.float64)
    for i, line in enumerate(lines[1:]):
        data[i] = [float(p) for p in line.split()]
    return data


_MASK64 = (1 << 64) - 1


def next_u64(rng: SeededRng) -> int:
    """One SplitMix64 step of ``rng``, in Python ints: the output ``_u64_blocks`` yields."""
    rng._state = (rng._state + 0x9E3779B97F4A7C15) & _MASK64
    z = rng._state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def randint_below(rng: SeededRng, n: int) -> int:
    """Uniform-ish integer in [0, n); modulo reduction, as the library's draws use."""
    if n <= 0:
        raise ConfigError("randint_below requires n >= 1")
    return next_u64(rng) % n


def uniform(rng: SeededRng) -> float:
    """Uniform draw in [0, 1) from the top 53 bits of ``next_u64(rng)``."""
    return (next_u64(rng) >> 11) * 2.0**-53


def gaussian(rng: SeededRng) -> float:
    """One standard normal draw from ``rng`` (Box-Muller, pairs cached)."""
    if rng._gauss_spare is not None:
        z = rng._gauss_spare
        rng._gauss_spare = None
        return z
    # 1 - uniform() lies in (0, 1], keeping log() finite
    r = math.sqrt(-2.0 * math.log(1.0 - uniform(rng)))
    theta = 2.0 * math.pi * uniform(rng)
    rng._gauss_spare = r * math.sin(theta)
    return r * math.cos(theta)


def normal_matrix_per_value(rng: SeededRng, rows: int, cols: int, std: float) -> np.ndarray:
    """``SeededRng.normal_matrix`` one :func:`gaussian` draw per entry."""
    out = np.empty(rows * cols, dtype=np.float64)
    for i in range(out.size):
        out[i] = gaussian(rng) * std
    return out.reshape(rows, cols)


def token_ids_per_value(rng: SeededRng, count: int, vocab_size: int) -> tuple[int, ...]:
    """``SeededRng.token_ids`` one :func:`randint_below` draw per token."""
    return tuple(randint_below(rng, vocab_size) for _ in range(count))


def sample_indices_per_value(rng: SeededRng, population: int, count: int) -> list[int]:
    """One row of ``SeededRng.sample_indices``: partial Fisher-Yates on a list,
    one :func:`randint_below` draw per swap."""
    if count > population:
        raise ConfigError(f"cannot sample {count} of {population} without replacement")
    pool = list(range(population))
    for i in range(count):
        j = i + randint_below(rng, population - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:count]


def softmax_out_of_place(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, each step in a new array; ``x`` is left unchanged."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def layer_norm_mean_var(x: np.ndarray) -> np.ndarray:
    """Layer norm from ``ndarray.mean`` and ``ndarray.var``, with the encoder's eps."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + _LN_EPS)
