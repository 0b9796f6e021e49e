"""Fixed-length overlapping segmentation of token sequences.

A sequence of N token ids is cut into windows of ``chunk_len`` tokens
that advance by ``chunk_len - overlap``. The final window is anchored
to end exactly at position N instead of being padded, so every emitted
token is a real input token; a window shorter than ``chunk_len`` can
only occur when the whole sequence is shorter than one window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, InputError


@dataclass(frozen=True)
class SegmentSet:
    """A document's windows as arrays.

    ``tokens`` is a (C, n) int64 array, one row per window, and ``starts``
    the (C,) int64 source offsets: window i holds the document positions
    ``starts[i]`` to ``starts[i] + n - 1``.
    """

    tokens: np.ndarray
    starts: np.ndarray
    chunk_len: int
    overlap: int

    @property
    def count(self) -> int:
        return len(self.starts)


def segment_count(n_tokens: int, chunk_len: int, overlap: int) -> int:
    """Closed-form window count for a sequence of ``n_tokens``."""
    check_window(chunk_len, overlap)
    if n_tokens < 1:
        raise InputError("token sequence must contain at least one token")
    # a sequence of at most chunk_len tokens gives max(N - overlap, 1) <= stride: one window
    return -(-max(n_tokens - overlap, 1) // (chunk_len - overlap))


def segment(tokens: Sequence[int], chunk_len: int, overlap: int) -> SegmentSet:
    """Cut ``tokens`` into overlapping windows, left to right.

    Window i starts at ``min(i * stride, N - n)``, with stride
    ``chunk_len - overlap`` and window length ``n = min(chunk_len, N)``:
    if the last stride would overrun the sequence, the final window is
    shifted left to end at the last token (it then shares more than
    ``overlap`` positions with its neighbor, never less).
    """
    toks = np.asarray(tokens, dtype=np.int64)
    count = segment_count(toks.size, chunk_len, overlap)
    n = min(chunk_len, toks.size)
    starts = np.minimum(np.arange(count) * (chunk_len - overlap), toks.size - n)
    return SegmentSet(tokens=np.lib.stride_tricks.sliding_window_view(toks, n)[starts],
                      starts=starts, chunk_len=chunk_len, overlap=overlap)


def segment_set_to_dict(segment_set: SegmentSet, include_tokens: bool = False) -> dict:
    """JSON-ready form; token payloads included only on request."""
    n = segment_set.tokens.shape[1]
    entries = [{"i": i, "start": start, "len": n}
               for i, start in enumerate(segment_set.starts.tolist(), start=1)]
    if include_tokens:
        for entry, window in zip(entries, segment_set.tokens.tolist()):
            entry["tokens"] = window
    return {
        "L": segment_set.chunk_len,
        "O": segment_set.overlap,
        "segments": entries,
    }


def check_window(chunk_len: int, overlap: int) -> None:
    """Reject a ``chunk_len`` outside ``[2, 2**63)`` or ``overlap`` outside ``[0, chunk_len)``."""
    if not 2 <= chunk_len < 1 << 63:  # window starts are int64
        raise ConfigError(f"chunk_len must lie in [2, 2**63), got {chunk_len}")
    if overlap < 0:
        raise ConfigError(f"overlap must be >= 0, got {overlap}")
    if overlap >= chunk_len:
        raise ConfigError(
            f"overlap {overlap} >= chunk_len {chunk_len}: stride would be non-positive"
        )
