"""Forward-only decoder bridge over an assembled memory.

Proves the fused sequence is consumable by a standard encoder-decoder
stack: masked self-attention over the prefix, cross-attention over
every memory row, feed-forward, all with frozen seeded weights. No
generation loop lives here; callers repeat :func:`decode_step` for
greedy demos. The last layer's cross-attention (averaged over heads)
is returned for attention accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cumulation import CHUNK, FusedSequence
from .encoder import (
    LayerWeights,
    _feed_forward,
    _layer_norm,
    _merge_heads,
    _softmax_last,
    _split_heads,
    multi_head_self_attention,
    sinusoidal_positions,
)
from .errors import ConfigError, ContractError, InputError
from .numerics import SeededRng, check_finite


@dataclass(frozen=True)
class DecoderConfig:
    vocab_size: int
    d_model: int
    n_heads: int
    n_layers: int
    d_ff: int
    max_len: int
    seed: int

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if min(self.vocab_size, self.d_model, self.n_heads, self.n_layers,
               self.d_ff, self.max_len) < 1:
            raise ConfigError("all decoder dimensions must be >= 1")


@dataclass(frozen=True)
class DecoderLayerWeights:
    self_attn: LayerWeights
    cross_q: np.ndarray
    cross_k: np.ndarray
    cross_v: np.ndarray
    cross_o: np.ndarray


@dataclass(frozen=True)
class DecoderWeights:
    embedding: np.ndarray
    layers: tuple[DecoderLayerWeights, ...]
    out_proj: np.ndarray


def init_decoder_weights(cfg: DecoderConfig) -> DecoderWeights:
    """Seeded Gaussian decoder weights; draw order fixed and documented.

    Embedding first, then per layer: self q, k, v, o, ff w1, w2, cross
    q, k, v, o; finally the output projection. Same 1/sqrt(fan_in)
    scaling as the encoder.
    """
    rng = SeededRng(cfg.seed)
    d = cfg.d_model
    std = 1.0 / math.sqrt(d)
    embedding = rng.normal_matrix(cfg.vocab_size, d, std=std)
    layers = []
    for _ in range(cfg.n_layers):
        self_attn = LayerWeights(
            wq=rng.normal_matrix(d, d, std=std),
            wk=rng.normal_matrix(d, d, std=std),
            wv=rng.normal_matrix(d, d, std=std),
            wo=rng.normal_matrix(d, d, std=std),
            w1=rng.normal_matrix(d, cfg.d_ff, std=std),
            w2=rng.normal_matrix(cfg.d_ff, d, std=1.0 / math.sqrt(cfg.d_ff)),
        )
        layers.append(DecoderLayerWeights(
            self_attn=self_attn,
            cross_q=rng.normal_matrix(d, d, std=std),
            cross_k=rng.normal_matrix(d, d, std=std),
            cross_v=rng.normal_matrix(d, d, std=std),
            cross_o=rng.normal_matrix(d, d, std=std),
        ))
    out_proj = rng.normal_matrix(d, cfg.vocab_size, std=std)
    return DecoderWeights(embedding=embedding, layers=tuple(layers), out_proj=out_proj)


@lru_cache(maxsize=4)
def _cached_weights(cfg: DecoderConfig) -> DecoderWeights:
    return init_decoder_weights(cfg)


def _causal_mask(n: int) -> np.ndarray:
    mask = np.zeros((n, n), dtype=np.float64)
    mask[np.triu_indices(n, k=1)] = -np.inf
    return mask


def decode_step(
    prefix: list[int] | tuple[int, ...],
    memory: FusedSequence,
    cfg: DecoderConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """One decoder forward pass over ``prefix`` and the fused memory.

    Returns per-position next-token logits (prefix length x vocab; the
    last row scores the continuation) and the final layer's
    head-averaged cross-attention (prefix length x memory rows). The
    memory is consumed exactly as assembled, no reshaping.
    """
    if len(prefix) == 0:
        raise InputError("decode_step requires a non-empty prefix")
    if len(prefix) > cfg.max_len:
        raise InputError(f"prefix length {len(prefix)} exceeds max_len {cfg.max_len}")
    ids = np.asarray(prefix, dtype=np.int64)
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise InputError(f"prefix token id outside [0, {cfg.vocab_size})")

    mem = memory.flattened
    if mem.ndim != 2 or mem.shape[1] != cfg.d_model:
        raise ConfigError(
            f"memory width {mem.shape[1]} does not match d_model {cfg.d_model}"
        )
    if len(memory.provenance) != mem.shape[0]:
        raise ContractError(
            f"memory has {mem.shape[0]} rows but {len(memory.provenance)} "
            "provenance entries"
        )

    weights = _cached_weights(cfg)
    n = ids.size
    head_dim = cfg.d_model // cfg.n_heads
    mask = _causal_mask(n)

    h = weights.embedding[ids] + sinusoidal_positions(cfg.max_len, cfg.d_model)[:n]
    cross_attention: np.ndarray | None = None
    for lw in weights.layers:
        h = h + multi_head_self_attention(_layer_norm(h), lw.self_attn, cfg.n_heads,
                                          mask=mask)

        # cross-attention over the raw memory rows
        x = _layer_norm(h)
        q = _split_heads(x @ lw.cross_q, cfg.n_heads)
        k = _split_heads(mem @ lw.cross_k, cfg.n_heads)
        v = _split_heads(mem @ lw.cross_v, cfg.n_heads)
        cross = _softmax_last(q @ k.transpose(0, 2, 1) / math.sqrt(head_dim))
        cross_attention = cross.mean(axis=0)
        h = h + _merge_heads(cross @ v) @ lw.cross_o

        h = h + _feed_forward(_layer_norm(h), lw.self_attn)

    logits = _layer_norm(h) @ weights.out_proj
    check_finite(logits, "decoder logits")
    assert cross_attention is not None
    return logits, cross_attention


def attention_mass_by_chunk(
    cross_attention: np.ndarray,
    provenance: np.ndarray,
) -> np.ndarray:
    """Attention mass per source chunk, averaged over query positions.

    Columns are grouped by the provenance chunk column; each query row's
    grouped sums must still total 1, which guards against misaligned
    provenance.
    """
    attn = np.asarray(cross_attention, dtype=np.float64)
    if attn.ndim != 2:
        raise ConfigError("cross_attention must be 2-D (queries x memory rows)")
    if attn.shape[1] != len(provenance):
        raise ContractError(
            f"{attn.shape[1]} attention columns vs {len(provenance)} provenance rows"
        )
    chunks = np.asarray(provenance)[:, CHUNK]
    per_chunk = np.zeros((chunks.max(), attn.shape[0]), dtype=np.float64)
    # np.add.at applies the columns in order, so each chunk's sum rounds
    # exactly as a left-to-right loop over its columns would
    np.add.at(per_chunk, chunks - 1, attn.T)
    per_row = np.ascontiguousarray(per_chunk.T)
    totals = per_row.sum(axis=1)
    if not np.allclose(totals, 1.0, atol=1e-9):
        raise ContractError("per-query attention mass does not sum to 1")
    return per_row.mean(axis=0)
