"""Cumulative directional context, fusion, and the decoder memory layout.

Boundaries are two stacked ``(C, k, d)`` arrays: ``lefts[i - 1]`` and
``rights[i - 1]`` hold the first and last ``k = boundary_width`` rows
of chunk i. The PAPER.md formulas map onto :func:`contexts` and
:func:`fuse` line for line:

- ``backward_ctx_i = (L_i + sum_{j<i} (L_j + R_j)) / (2i - 1)`` is the
  ``back = ...`` line: ``before`` is the exclusive prefix sum of
  ``L + R``, so row i holds the sum over j < i.
- ``forward_ctx_i = (R_i + sum_{j>i} (L_j + R_j)) / (2(C-i) + 1)`` is
  the ``fwd = ...`` line, with ``after`` the exclusive suffix sum.
- ``= L_1 at i=1`` and ``= R_C at i=C`` are the two assignments after
  them. Copying the blocks, rather than adding a zero sum, keeps the
  edge identities bitwise even where a block holds -0.0.
- ``fused_left_i = alpha * L_i + (1 - alpha) * backward_ctx_i`` and
  ``fused_right_i = alpha * R_i + (1 - alpha) * forward_ctx_i`` are the
  two expressions :func:`fuse` returns.

The mechanism has no learned parameters. The assembled decoder input
holds, per chunk, the fused left block, the sampled interior rows, and
the fused right block, giving C * (2 * boundary_width + middle_count)
rows when every chunk is long enough.

Which rows survive is decided once, before any encode, in
``pipeline.encode_document``: its ``keep`` array holds each chunk's rows
0..k-1, its sorted interior sample and rows n-k..n-1, and the encoder
computes those rows alone. All windows of a document have one length,
so every chunk keeps the same number of rows: :func:`assemble` fuses a
copy of each chunk's first and last k rows, and the memory is that
(C, 2k + t, d) array with a copy of its (C, 2k + t) document positions.
Per-row provenance, short chunks and shortfall are read off that layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .numerics import check_finite

# provenance columns, and the role codes stored in the ROLE column
CHUNK, ROLE, POSITION = 0, 1, 2
LEFT, MIDDLE, RIGHT = 0, 1, 2
ROLES = ("left", "middle", "right")


@dataclass(frozen=True)
class FusedSequence:
    """The decoder memory: every chunk's fused kept rows and their positions.

    ``blocks`` is the (C, 2k + t, d) array of each chunk's fused left
    block, t sampled interior rows and fused right block, and
    ``positions`` the (C, 2k + t) document positions they were encoded
    at. ``flattened`` lays the blocks out chunk after chunk as the
    decoder reads them; ``provenance`` describes those rows one per line.
    """

    blocks: np.ndarray
    positions: np.ndarray
    boundary_width: int
    middle_requested: int
    alpha: float

    @property
    def rows(self) -> int:
        return self.positions.size

    @property
    def width(self) -> int:
        return self.blocks.shape[2]

    @property
    def chunk_count(self) -> int:
        return self.blocks.shape[0]

    @property
    def flattened(self) -> np.ndarray:
        return self.blocks.reshape(self.rows, self.width)

    @property
    def provenance(self) -> np.ndarray:
        """(rows, 3) ints: each flattened row's 1-based chunk, ``ROLES`` index and position."""
        c, block = self.positions.shape
        k = self.boundary_width
        roles = np.repeat([LEFT, MIDDLE, RIGHT], [k, block - 2 * k, k])
        return np.stack([np.repeat(np.arange(1, c + 1), block), np.tile(roles, c),
                         self.positions.ravel()], axis=1)


def contexts(lefts: np.ndarray, rights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Backward and forward contexts of every chunk, one O(C) scan each."""
    c = lefts.shape[0]
    pairs = lefts + rights
    before = np.zeros_like(pairs)
    before[1:] = np.cumsum(pairs[:-1], axis=0)
    after = np.zeros_like(pairs)
    after[:-1] = np.cumsum(pairs[:0:-1], axis=0)[::-1]
    i = np.arange(1, c + 1, dtype=np.float64)[:, None, None]
    back = (lefts + before) / (2 * i - 1)
    fwd = (rights + after) / (2 * (c - i) + 1)
    back[0] = lefts[0]
    fwd[-1] = rights[-1]
    return back, fwd


def check_alpha(alpha: float) -> None:
    """Reject a fusion ratio outside ``[0, 1]``."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must lie in [0, 1], got {alpha}")


def fuse(lefts: np.ndarray, rights: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Blend local boundaries with their directional contexts.

    alpha = 1 keeps the local boundaries untouched; alpha = 0 replaces
    them entirely by the cumulative context.
    """
    check_alpha(alpha)
    back, fwd = contexts(lefts, rights)
    return alpha * lefts + (1.0 - alpha) * back, alpha * rights + (1.0 - alpha) * fwd


def assemble(
    rows: np.ndarray,
    positions: np.ndarray,
    boundary_width: int,
    middle_requested: int,
    alpha: float,
) -> FusedSequence:
    """Fuse the kept rows' boundary blocks into the decoder memory.

    ``rows`` is the (C, 2k + t, d) array of every chunk's kept rows: its
    first k rows, t sampled interior rows and last k rows. A copy with
    its first and last k rows fused becomes the memory's blocks, and a
    copy of ``positions``, the (C, 2k + t) array of the rows' document
    positions, its positions; the caller's arrays are left unchanged.
    """
    c, block, _ = rows.shape
    k = boundary_width
    if positions.shape != (c, block) or block < 2 * k:
        raise ConfigError(f"kept rows of shape {rows.shape} with positions of shape "
                          f"{positions.shape} at boundary width {k}")
    rows = rows.copy()
    rows[:, :k], rows[:, block - k:] = fuse(rows[:, :k], rows[:, block - k:], alpha)
    return FusedSequence(
        blocks=check_finite(rows, "assembled sequence"),
        positions=positions.copy(),
        boundary_width=k,
        middle_requested=middle_requested,
        alpha=alpha,
    )


def fused_sequence_manifest(fused: FusedSequence) -> dict:
    """JSON-ready description of an assembled sequence.

    A chunk is short when its left and right blocks share a position.
    Every chunk keeps t interior rows, so all fall short of m alike.
    """
    k, block = fused.boundary_width, fused.positions.shape[1]
    short = fused.positions[:, k - 1] >= fused.positions[:, block - k]
    missing = fused.middle_requested - (block - 2 * k)
    return {
        "chunks": fused.chunk_count,
        "boundary_width": k,
        "middle_count": fused.middle_requested,
        "alpha": fused.alpha,
        "rows": fused.rows,
        "width": fused.width,
        "positions_are_global": True,
        "short_chunks": (np.flatnonzero(short) + 1).tolist(),
        "middle_shortfall": {str(chunk): missing
                             for chunk in range(1, fused.chunk_count + 1) if missing > 0},
        "provenance": [[chunk, ROLES[role], pos]
                       for chunk, role, pos in fused.provenance.tolist()],
    }
