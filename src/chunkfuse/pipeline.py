"""End-to-end orchestration: every document reaches its fused memory through :func:`sweep`.

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
from .decoder import DecoderMemory, decode_pass
from .encoder import EncoderWeights, ModelConfig, init_weights
from .errors import ConfigError, InputError
from .numerics import SeededRng, fnv1a64
from .segmenter import SegmentSet, check_window, segment

# what each field annotation admits; bools are refused apart, being ints
_ADMITS = {"int": int, "float": (int, float), "int | None": (int, type(None))}
# bytes of scores per encode call, 8 * n_heads * n**2 a window: 2 MiB sends 64-token
# windows of 4 heads 16 to a call (a 1k-window encode 0.45 -> 0.27 s; more gained
# nothing) and 256-token windows of 4 heads one to a call, where grouping gained no time
_SCORES_BUDGET = 2 << 20


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
        check_window(self.chunk_len, self.overlap)
        if self.boundary_width < 1:
            raise ConfigError("boundary_width must be >= 1")
        if self.middle_count < 0:
            raise ConfigError("middle_count must be >= 0")
        if 2 * self.boundary_width + self.middle_count > self.chunk_len:
            raise ConfigError(
                "a chunk cannot contribute more rows than it has: "
                f"2*{self.boundary_width} + {self.middle_count} > {self.chunk_len}"
            )
        cumulation.check_alpha(self.alpha)
        # every draw reads a seed modulo 2**64: -1 would alias 2**64 - 1
        for name in ("seed", "middle_seed"):
            value = getattr(self, name)
            if value is not None and not 0 <= value < 1 << 64:
                raise ConfigError(f"{name} must lie in [0, 2**64), got {value}")
        self.encoder_config()  # ModelConfig checks the model dimensions

    @classmethod
    def from_json(cls, values: dict) -> PipelineConfig:
        """The config of JSON field ``values``, defaults filling the rest."""
        types = {f.name: f.type for f in fields(cls)}
        if not types.keys() >= values.keys():
            raise ConfigError(f"unknown config fields: {sorted(values.keys() - types.keys())}")
        typed = dict(values)
        for name, value in values.items():
            if type(value) is int and types[name] == "float":  # JSON spells 1.0 as 1 too
                try:
                    typed[name] = float(value)
                except OverflowError as exc:
                    raise ConfigError(f"{name} {value} is too large for a float") from exc
        return cls(**typed)

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

    ``keep`` lists each chunk's kept rows: 0..k-1, the interior sample, then
    n-k..n-1. The sample reads only the window layout, so it is drawn before
    any encode, and no array holds a row nobody reads. Chunks shorter than 2k
    keep some rows twice; chunks shorter than k cannot be represented at all.
    Each ``encoder.encode`` call takes as many windows as keep their scores in
    one fixed byte budget. Returns the windows, the (C, 2k + t, d) kept rows
    and their (C, 2k + t) document positions.
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
    g = max(1, _SCORES_BUDGET // (8 * model.n_heads * n * n))
    rows = np.concatenate([encoder.encode(segs.tokens[i:i + g], weights, model, keep[i:i + g])
                           for i in range(0, c, g)])
    return segs, rows, keep + segs.starts[:, None]


def run_document(
    tokens: Sequence[int],
    cfg: PipelineConfig,
    weights: EncoderWeights | None = None,
    doc_id: str = "doc",
) -> DocumentRun:
    """Segment, sample, encode, fuse, and assemble one document: :func:`sweep` over it alone."""
    if weights is None:
        weights = init_weights(cfg.encoder_config())
    return sweep([(doc_id, tokens)], [cfg], weights)[0][0][0]


def sweep(
    docs: Sequence[tuple[str, Sequence[int]]],
    variants: Sequence[PipelineConfig],
    weights: EncoderWeights,
) -> list[tuple[list[DocumentRun], float, float]]:
    """Encode and fuse ``(doc_id, tokens)`` documents under each variant, timing both.

    Returns, per variant and in order, one :class:`DocumentRun` per
    document and the seconds spent encoding (:func:`encode_document`) and
    fusing (``cumulation.assemble``) them. Encoding does not read alpha, so
    a variant that differs from the one before it only in alpha reuses its
    encodings, at 0.0 encode seconds. ``weights`` serve every variant, so
    all must share one encoder config.
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
            encoded = [encode_document(tokens, variant, weights, doc_id)
                       for doc_id, tokens in docs]
            encode_seconds = time.perf_counter() - started
        started = time.perf_counter()
        runs = [DocumentRun(segs, cumulation.assemble(rows, positions, variant.boundary_width,
                                                      variant.middle_count, variant.alpha))
                for segs, rows, positions in encoded]
        results.append((runs, encode_seconds, time.perf_counter() - started))
    return results


def greedy_decode(
    prefix: Sequence[int],
    memory: cumulation.FusedSequence,
    cfg: ModelConfig,
    steps: int,
) -> list[int]:
    """Run ``steps`` decode passes over one bound memory, appending the argmax token each time."""
    bound = DecoderMemory(memory, cfg)
    out = list(prefix)
    for _ in range(steps):
        logits = decode_pass(out, bound)[0]
        out.append(int(logits[-1].argmax()))
    return out
