"""End-to-end orchestration: one config, one document, one fused memory.

PipelineConfig gathers every hyperparameter of the method. Defaults
follow the reference setting: 1024-token chunks overlapping by 150,
single-row boundaries, 300 sampled interior rows per chunk, and an even
50/50 fusion blend.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
from dataclasses import asdict, dataclass, fields, replace
from typing import Sequence

import numpy as np

from . import cumulation, encoder
from .decoder import decode_step
from .encoder import EncoderWeights, ModelConfig, init_weights
from .errors import ConfigError
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
    """(C, t) chunk-local interior row indices, drawn chunk by chunk from the window layout."""
    c, n = segs.tokens.shape
    return np.array([cumulation.sample_middle_indices(n, cfg.middle_count,
                                                      cfg.boundary_width, rng)
                     for _ in range(c)], dtype=np.int64)


def encode_document(
    tokens: Sequence[int],
    cfg: PipelineConfig,
    weights: EncoderWeights,
) -> tuple[SegmentSet, np.ndarray]:
    """First stage: cut the document into windows, encode them into one (C, n, d) array."""
    segs = segment(tokens, cfg.chunk_len, cfg.overlap)
    model = cfg.encoder_config()
    parts = [encoder.encode(window, weights, model) for window in segs.tokens]
    shape = (len(parts), *parts[0].shape)
    # stacked after the encodes, into an anonymous mmap rather than the malloc
    # heap: in perfbench, an array allocated before the encodes raised long-doc
    # peak RSS by 8%, and a heap block raised small-window's by 11% in 1 run of 4
    out = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=np.float64)
    return segs, np.stack(parts, out=out.reshape(shape))


def fuse_document(
    segs: SegmentSet,
    encodings: np.ndarray,
    cfg: PipelineConfig,
    doc_id: str,
) -> cumulation.FusedSequence:
    """Second stage: fuse the boundaries, sample middles, assemble the memory."""
    lefts, rights = cumulation.boundaries_from_encodings(encodings, cfg.boundary_width)
    fused_lefts, fused_rights = cumulation.fuse(lefts, rights, cfg.alpha)
    indices = sample_document_middles(segs, cfg, middle_rng_for(cfg, doc_id))
    return cumulation.assemble(fused_lefts, fused_rights, encodings, indices, segs.starts,
                               cfg.middle_count, cfg.alpha)


def run_document(
    tokens: Sequence[int],
    cfg: PipelineConfig,
    weights: EncoderWeights | None = None,
    doc_id: str = "doc",
) -> DocumentRun:
    """Segment, encode, fuse, sample, and assemble one document."""
    if weights is None:
        weights = init_weights(cfg.encoder_config())
    segs, encodings = encode_document(tokens, cfg, weights)
    return DocumentRun(segments=segs, fused=fuse_document(segs, encodings, cfg, doc_id))


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
