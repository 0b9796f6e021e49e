"""Boundary extraction, cumulative directional context, and fusion.

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

All windows of a document have one length n (the segmenter anchors the
last window to the document end; only a document shorter than one window
has a shorter window, its only one). So the encodings are one (C, n, d)
array and the interior sample one (C, t) array, t = min(m, max(n - 2k, 0)).
:func:`boundaries_from_encodings` relies on this to take two slices, and
:func:`assemble` to gather all chunks at once and to give every chunk or
none a shortfall. :func:`assemble` reads each window's document offset
from the (C,) starts the segmenter laid out; it does not derive them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, InputError
from .numerics import SeededRng, check_finite

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


def boundaries_from_encodings(
    encodings: np.ndarray,
    boundary_width: int,
) -> tuple[np.ndarray, np.ndarray]:
    """First and last ``boundary_width`` rows of every chunk, as (C, k, d) views.

    Chunks shorter than twice the width give blocks that share rows;
    chunks shorter than the width itself cannot be represented at all.
    """
    if boundary_width < 1:
        raise ConfigError("boundary_width must be >= 1")
    c, n = encodings.shape[:2]
    if c == 0:
        raise ContractError("no chunk encodings supplied")
    if n < boundary_width:
        raise InputError(f"chunks have {n} rows, need at least {boundary_width}")
    return encodings[:, :boundary_width], encodings[:, n - boundary_width:]


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


def sample_middle_indices(
    n_rows: int,
    middle_count: int,
    boundary_width: int,
    rng: SeededRng,
) -> list[int]:
    """Row indices for the interior sample, ascending.

    The interior excludes the ``boundary_width`` rows at each end so no
    row appears twice in the assembled sequence. If the interior is
    smaller than the request, every interior row is taken; the
    shortfall is visible in the assembled provenance, not an error.
    """
    if middle_count < 0:
        raise ConfigError("middle_count must be >= 0")
    interior = max(n_rows - 2 * boundary_width, 0)
    take = min(middle_count, interior)
    if take == 0:
        return []
    chosen = rng.sample_indices(interior, take)
    return sorted(boundary_width + idx for idx in chosen)


def assemble(
    fused_lefts: np.ndarray,
    fused_rights: np.ndarray,
    encodings: np.ndarray,
    middle_indices: np.ndarray,
    starts: np.ndarray,
    middle_requested: int,
    alpha: float,
) -> FusedSequence:
    """Gather fused boundaries and sampled interior rows into the decoder input.

    Block order per chunk is fused-left, middle, fused-right, chunks in
    document order. ``middle_indices`` is a (C, t) array of chunk-local
    row indices and ``starts`` the (C,) document offsets of the windows;
    provenance records every row's document position.
    """
    c, k, d = fused_lefts.shape
    n = encodings.shape[1]
    idx = np.asarray(middle_indices, dtype=np.int64)
    if not len(encodings) == len(idx) == len(starts) == c:
        raise ContractError(f"{c} boundary pairs, {len(encodings)} encodings, "
                            f"{len(idx)} index rows, {len(starts)} window starts")
    block = 2 * k + idx.shape[1]
    # filled in place: concatenating the parts left a freed temporary under
    # the kept array, which raised peak RSS over a run of long documents
    flattened = np.empty((c, block, d))
    flattened[:, :k] = fused_lefts
    flattened[:, block - k:] = fused_rights
    flattened[:, k:block - k] = encodings[np.arange(c)[:, None], idx]
    lead = np.broadcast_to(np.arange(k), (c, k))
    positions = np.concatenate([lead, idx, lead + (n - k)], axis=1) + starts[:, None]
    roles = np.repeat([LEFT, MIDDLE, RIGHT], [k, idx.shape[1], k])
    provenance = np.stack([np.repeat(np.arange(1, c + 1), block), np.tile(roles, c),
                           positions.ravel()], axis=1)
    return FusedSequence(
        flattened=check_finite(flattened.reshape(c * block, d), "assembled sequence"),
        provenance=provenance,
        boundary_width=k,
        middle_requested=middle_requested,
        alpha=alpha,
        short_chunks=tuple(range(1, c + 1)) if n < 2 * k else (),
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
