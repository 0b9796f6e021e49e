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

Which rows survive is decided once, in ``pipeline.fuse_document``: its
``keep`` array holds each chunk's rows 0..k-1, its sorted interior
sample and rows n-k..n-1, and it gathers those rows from the encodings.
:func:`assemble` reads only the kept rows and their document positions:
it fuses each chunk's first and last k kept rows in place and lays the
rows out chunk after chunk. All windows of a document have one length,
so every chunk keeps the same number of rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .numerics import check_finite

# provenance columns, and the role codes stored in the ROLE column
CHUNK, ROLE, POSITION = 0, 1, 2
LEFT, MIDDLE, RIGHT = 0, 1, 2
ROLES = ("left", "middle", "right")


@dataclass(frozen=True)
class FusedSequence:
    """Assembled decoder input and its row-level bookkeeping.

    ``provenance`` is an int array of shape (rows, 3): the 1-based
    chunk, the role code (an index into ``ROLES``) and the document
    position each row was encoded at. ``short_chunks`` lists 1-based
    chunks whose left and right blocks share rows.
    """

    flattened: np.ndarray
    provenance: np.ndarray
    boundary_width: int
    middle_requested: int
    alpha: float
    short_chunks: tuple[int, ...] = ()

    @property
    def rows(self) -> int:
        return self.flattened.shape[0]

    @property
    def width(self) -> int:
        return self.flattened.shape[1]

    @property
    def chunk_count(self) -> int:
        return int(self.provenance[-1, CHUNK])

    def middle_counts(self) -> list[int]:
        chunks = self.provenance[self.provenance[:, ROLE] == MIDDLE, CHUNK]
        return np.bincount(chunks, minlength=self.chunk_count + 1)[1:].tolist()

    def middle_shortfall(self) -> dict[int, int]:
        """Chunks that could not supply the requested interior rows."""
        return {chunk: self.middle_requested - got
                for chunk, got in enumerate(self.middle_counts(), start=1)
                if got < self.middle_requested}


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


def fuse(lefts: np.ndarray, rights: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Blend local boundaries with their directional contexts.

    alpha = 1 keeps the local boundaries untouched; alpha = 0 replaces
    them entirely by the cumulative context.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must lie in [0, 1], got {alpha}")
    back, fwd = contexts(lefts, rights)
    return (check_finite(alpha * lefts + (1.0 - alpha) * back, "fused left"),
            check_finite(alpha * rights + (1.0 - alpha) * fwd, "fused right"))


def assemble(
    rows: np.ndarray,
    positions: np.ndarray,
    boundary_width: int,
    middle_requested: int,
    alpha: float,
) -> FusedSequence:
    """Fuse the kept rows' boundary blocks and lay the rows out as the decoder input.

    ``rows`` is the (C, 2k + t, d) array of every chunk's kept rows: its
    first k rows, t sampled interior rows and last k rows. Their first
    and last k rows are fused in place. ``positions`` is the (C, 2k + t)
    array of the rows' document positions, which provenance records. A
    chunk is short when its left and right blocks share a position.
    """
    c, block, d = rows.shape
    k = boundary_width
    if positions.shape != (c, block) or block < 2 * k:
        raise ContractError(f"kept rows of shape {rows.shape} with positions of shape "
                            f"{positions.shape} at boundary width {k}")
    # fused in place: concatenating fused blocks and middles left a freed
    # temporary under the kept array, which raised peak RSS over long documents
    rows[:, :k], rows[:, block - k:] = fuse(rows[:, :k], rows[:, block - k:], alpha)
    roles = np.repeat([LEFT, MIDDLE, RIGHT], [k, block - 2 * k, k])
    provenance = np.stack([np.repeat(np.arange(1, c + 1), block), np.tile(roles, c),
                           positions.ravel()], axis=1)
    short = positions[:, k - 1] >= positions[:, block - k]
    return FusedSequence(
        flattened=check_finite(rows.reshape(c * block, d), "assembled sequence"),
        provenance=provenance,
        boundary_width=k,
        middle_requested=middle_requested,
        alpha=alpha,
        short_chunks=tuple((np.flatnonzero(short) + 1).tolist()),
    )


def fused_sequence_manifest(fused: FusedSequence) -> dict:
    """JSON-ready description of an assembled sequence."""
    return {
        "chunks": fused.chunk_count,
        "boundary_width": fused.boundary_width,
        "middle_count": fused.middle_requested,
        "alpha": fused.alpha,
        "rows": fused.rows,
        "width": fused.width,
        "positions_are_global": True,
        "short_chunks": list(fused.short_chunks),
        "middle_shortfall": {str(k): v for k, v in fused.middle_shortfall().items()},
        "provenance": [[chunk, ROLES[role], pos]
                       for chunk, role, pos in fused.provenance.tolist()],
    }
