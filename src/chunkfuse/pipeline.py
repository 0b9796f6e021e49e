"""End-to-end orchestration: one config, one document, one fused memory.

PipelineConfig gathers every hyperparameter of the method. Defaults
follow the reference setting: 1024-token chunks overlapping by 150,
single-row boundaries, 300 sampled interior rows per chunk, and an even
50/50 fusion blend.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, fields, replace
from typing import Sequence

import numpy as np

from . import cumulation, encoder
from .decoder import decode_step
from .encoder import EncoderWeights, ModelConfig, init_weights
from .errors import ConfigError, InputError
from .numerics import SeededRng, fnv1a64
from .segmenter import SegmentSet, segment

# what each field annotation admits; bools are refused apart, being ints
_ADMITS = {"int": int, "float": (int, float), "int | None": (int, type(None))}


@dataclass(frozen=True)
class PipelineConfig:
    chunk_len: int = 1024
    overlap: int = 150
    boundary_width: int = 1
    middle_count: int = 300
    alpha: float = 0.5
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 128
    vocab_size: int = 512
    seed: int = 1234
    middle_seed: int | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _ADMITS[f.type]):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if self.chunk_len < 2:
            raise ConfigError("chunk_len must be >= 2")
        if not 0 <= self.overlap < self.chunk_len:
            raise ConfigError("overlap must satisfy 0 <= overlap < chunk_len")
        if self.boundary_width < 1:
            raise ConfigError("boundary_width must be >= 1")
        if self.middle_count < 0:
            raise ConfigError("middle_count must be >= 0")
        if 2 * self.boundary_width + self.middle_count > self.chunk_len:
            raise ConfigError(
                "a chunk cannot contribute more rows than it has: "
                f"2*{self.boundary_width} + {self.middle_count} > {self.chunk_len}"
            )
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        self.encoder_config()  # ModelConfig checks the model dimensions

    def effective_middle_seed(self) -> int:
        return self.seed if self.middle_seed is None else self.middle_seed

    def encoder_config(self) -> ModelConfig:
        return ModelConfig(
            vocab_size=self.vocab_size,
            d_model=self.d_model,
            n_heads=self.n_heads,
            n_layers=self.n_layers,
            d_ff=self.d_ff,
            max_len=self.chunk_len,
            seed=self.seed,
        )

    def decoder_config(self, max_len: int) -> ModelConfig:
        # decoder weights draw from an offset seed so the two stacks differ
        return replace(self.encoder_config(), max_len=max_len,
                       seed=(self.seed + 1) & ((1 << 64) - 1))

    def canonical_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("ascii")).hexdigest()


@dataclass(frozen=True)
class DocumentRun:
    """Everything one document produced on its way through the pipeline."""

    segments: SegmentSet
    fused: cumulation.FusedSequence


def middle_rng_for(cfg: PipelineConfig, doc_id: str) -> SeededRng:
    """Per-document sampling stream: fixed given (config seed, doc id)."""
    return SeededRng(cfg.effective_middle_seed() ^ fnv1a64(doc_id))


def sample_document_middles(segs: SegmentSet, cfg: PipelineConfig,
                            rng: SeededRng) -> np.ndarray:
    """(C, t) chunk-local interior row indices, ascending, one row per chunk.

    The interior excludes the ``boundary_width`` rows at each end so no
    row is kept twice. A chunk whose interior is smaller than
    ``middle_count`` gives all of it, t = min(m, max(n - 2k, 0)); the
    shortfall is reported in the memory's manifest, not an error.
    """
    c, n = segs.tokens.shape
    k = cfg.boundary_width
    interior = max(n - 2 * k, 0)
    take = min(cfg.middle_count, interior)
    return np.sort(rng.sample_indices(c, interior, take), axis=1) + k


def encode_document(
    tokens: Sequence[int],
    cfg: PipelineConfig,
    weights: EncoderWeights,
    doc_id: str,
) -> tuple[SegmentSet, np.ndarray, np.ndarray]:
    """First stage: cut the document into windows and encode each chunk's kept rows.

    ``keep`` lists each chunk's kept rows: 0..k-1, the interior sample,
    then n-k..n-1. The sample reads only the window layout, so it is
    drawn before any encode, and no array holds a row nobody reads.
    Chunks shorter than 2k keep some rows twice; chunks shorter than k
    cannot be represented at all. Returns the windows, the (C, 2k + t, d)
    kept rows and their (C, 2k + t) document positions.
    """
    segs = segment(tokens, cfg.chunk_len, cfg.overlap)
    c, n = segs.tokens.shape
    k = cfg.boundary_width
    if n < k:
        raise InputError(f"chunks have {n} rows, need at least {k}")
    lead = np.broadcast_to(np.arange(k), (c, k))
    middles = sample_document_middles(segs, cfg, middle_rng_for(cfg, doc_id))
    keep = np.concatenate([lead, middles, lead + (n - k)], axis=1)
    model = cfg.encoder_config()
    rows = np.stack([encoder.encode(window, weights, model, kept)
                     for window, kept in zip(segs.tokens, keep)])
    return segs, rows, keep + segs.starts[:, None]


def fuse_document(rows: np.ndarray, positions: np.ndarray,
                  cfg: PipelineConfig) -> cumulation.FusedSequence:
    """Second stage: fuse the kept rows' boundary blocks and assemble the memory."""
    return cumulation.assemble(rows, positions, cfg.boundary_width, cfg.middle_count,
                               cfg.alpha)


def run_document(
    tokens: Sequence[int],
    cfg: PipelineConfig,
    weights: EncoderWeights | None = None,
    doc_id: str = "doc",
) -> DocumentRun:
    """Segment, sample, encode, fuse, and assemble one document."""
    if weights is None:
        weights = init_weights(cfg.encoder_config())
    segs, rows, positions = encode_document(tokens, cfg, weights, doc_id)
    return DocumentRun(segments=segs, fused=fuse_document(rows, positions, cfg))


def sweep(
    docs: Sequence[tuple[str, Sequence[int]]],
    variants: Sequence[PipelineConfig],
    weights: EncoderWeights,
) -> list[tuple[list[cumulation.FusedSequence], float, float]]:
    """Encode and fuse ``(doc_id, tokens)`` documents under each variant, timing both.

    Returns, per variant and in order, the fused memories and the seconds
    spent encoding (segmenting and sampling included) and fusing them.
    Encoding does not read alpha, so a variant that differs from the one
    before it only in alpha reuses its encodings, at 0.0 encode seconds.
    ``weights`` serve every variant, so all must share one encoder config.
    """
    if len({variant.encoder_config() for variant in variants}) > 1:
        raise ConfigError("sweep variants must share one encoder config")
    results = []
    encoded_for = encoded = None
    for variant in variants:
        encode_seconds = 0.0
        if replace(variant, alpha=0.0) != encoded_for:
            encoded_for = replace(variant, alpha=0.0)
            started = time.perf_counter()
            encoded = [encode_document(tokens, variant, weights, doc_id)[1:]
                       for doc_id, tokens in docs]
            encode_seconds = time.perf_counter() - started
        started = time.perf_counter()
        memories = [fuse_document(rows, positions, variant) for rows, positions in encoded]
        results.append((memories, encode_seconds, time.perf_counter() - started))
    return results


def greedy_decode(
    prefix: Sequence[int],
    memory: cumulation.FusedSequence,
    cfg: ModelConfig,
    steps: int,
) -> list[int]:
    """Repeat decode_step, appending the argmax token each time."""
    out = list(prefix)
    for _ in range(steps):
        logits, _ = decode_step(out, memory, cfg)
        out.append(int(logits[-1].argmax()))
    return out
