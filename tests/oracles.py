"""Per-index reference implementations of the fusion formulas.

These follow PAPER.md one chunk at a time, with explicit loops, so the
library's array-shaped ``contexts`` and ``fuse`` can be checked against
them. Boundaries are (C, k, d) arrays; chunk indices are 1-based.
``synthetic_chunks`` builds random encodings to assemble from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from chunkfuse.encoder import ChunkEncoding
from chunkfuse.errors import ConfigError, ContractError
from chunkfuse.segmenter import segment


def _check_index(lefts: np.ndarray, index: int) -> None:
    if not 1 <= index <= len(lefts):
        raise ContractError(f"chunk index {index} outside [1, {len(lefts)}]")


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


def synthetic_chunks(rng: np.random.Generator, n_chunks: int, chunk_len: int, dim: int):
    """Back-to-back windows of ``chunk_len`` tokens with random encodings."""
    segs = segment(range(n_chunks * chunk_len), chunk_len, 0)
    encodings = [ChunkEncoding(s.index, rng.normal(size=(chunk_len, dim))) for s in segs]
    return segs, encodings
