"""Summary scoring and the position-probe experiment.

ROUGE is implemented from its textbook definition: clipped n-gram
overlap counts for ROUGE-N and longest common subsequence for ROUGE-L,
with no stemming or stopword handling. Token lists may hold ints or
strings; anything hashable works.

The position probe quantifies how much chunk-order information the
fusion stage injects: it fits a ridge-regularized linear readout from
each chunk's fused left boundary to the chunk's index and reports the
mean squared error on the fitted set. It reads assembled sequences that
the pipeline already produced and runs nothing itself.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .cumulation import FusedSequence
from .errors import InputError
from .numerics import SeededRng


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float

    @staticmethod
    def from_counts(overlap: float, candidate_total: int, reference_total: int) -> "RougeScore":
        p = overlap / candidate_total if candidate_total > 0 else 0.0
        r = overlap / reference_total if reference_total > 0 else 0.0
        f1 = 2.0 * p * r / (p + r) if p + r > 0 else 0.0
        return RougeScore(precision=p, recall=r, f1=f1)


def _ngrams(tokens: Sequence[Hashable], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(candidate: Sequence[Hashable], reference: Sequence[Hashable], n: int) -> RougeScore:
    """Clipped n-gram overlap score; all-zero when either side is too short."""
    if n < 1:
        raise InputError(f"n-gram order must be >= 1, got {n}")
    cand = _ngrams(candidate, n)
    ref = _ngrams(reference, n)
    overlap = sum(min(count, ref[gram]) for gram, count in cand.items())
    return RougeScore.from_counts(overlap, sum(cand.values()), sum(ref.values()))


def lcs_length(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Longest-common-subsequence length, O(len(a) * len(b)) rolling DP."""
    if not a or not b:
        return 0
    dp = [0] * (len(b) + 1)
    for x in a:
        prev = 0
        for j, y in enumerate(b, start=1):
            cur = dp[j]
            dp[j] = prev + 1 if x == y else max(dp[j], dp[j - 1])
            prev = cur
    return dp[len(b)]


def rouge_l(candidate: Sequence[Hashable], reference: Sequence[Hashable]) -> RougeScore:
    lcs = lcs_length(candidate, reference)
    return RougeScore.from_counts(lcs, len(candidate), len(reference))


# ---------------------------------------------------------------------------
# position probe


# a readout over fewer chunk positions says nothing about order
PROBE_MIN_CHUNKS = 3
_RIDGE = 1e-8


def position_probe(runs: Sequence[FusedSequence]) -> float:
    """Linear readout from fused left boundaries to chunk position.

    ``runs`` holds one assembled sequence per document, as
    ``fuse_document`` returns it; the flattened fused left blocks of each
    chunk become feature rows. Targets are the 1-based chunk indices,
    centered per document so the error is comparable across chunk
    counts. The readout is solved in closed form from the ridge normal
    equations, and its mean squared error on the fitted set is returned.

    Designed for synthetic documents whose chunks repeat the same token
    block, where any position signal must come from the fusion stage;
    arbitrary documents are accepted.
    """
    if len(runs) == 0:
        raise InputError("position_probe needs at least one document")

    features: list[np.ndarray] = []
    targets: list[float] = []
    for fused in runs:
        count = fused.chunk_count
        if count < PROBE_MIN_CHUNKS:
            raise InputError(
                f"probe documents need at least {PROBE_MIN_CHUNKS} chunks, got {count}")
        features.append(fused.blocks[:, :fused.boundary_width].reshape(count, -1))
        center = (count + 1) / 2.0
        targets.extend(i - center for i in range(1, count + 1))

    x = np.vstack(features)
    y = np.asarray(targets, dtype=np.float64)
    gram = x.T @ x + _RIDGE * np.eye(x.shape[1])
    readout = np.linalg.solve(gram, x.T @ y)
    return float(np.mean((x @ readout - y) ** 2))


# ---------------------------------------------------------------------------
# synthetic documents


def make_repeated_chunk_doc(
    n_chunks: int,
    chunk_len: int,
    overlap: int,
    vocab_size: int,
    seed: int,
) -> tuple[int, ...]:
    """A document whose every segment carries identical token content.

    Tokens repeat with period ``chunk_len - overlap`` and the length is
    exactly chunk_len + (n_chunks - 1) * stride, so segmentation yields
    ``n_chunks`` windows that all read the same block.
    """
    if n_chunks < 1:
        raise InputError("n_chunks must be >= 1")
    stride = chunk_len - overlap
    base = SeededRng(seed).token_ids(stride, vocab_size)
    total = chunk_len + (n_chunks - 1) * stride
    reps = -(-total // stride)
    return (base * reps)[:total]


def make_random_doc(n_tokens: int, vocab_size: int, seed: int) -> tuple[int, ...]:
    return SeededRng(seed).token_ids(n_tokens, vocab_size)
