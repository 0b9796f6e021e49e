"""Forward-only decoder bridge over an assembled memory.

Proves the fused sequence is consumable by a standard encoder-decoder
stack: masked self-attention over the prefix, cross-attention over
every memory row, feed-forward, all with frozen seeded weights. The
stack is the encoder's: its config type, block draw and attention
routine, with cross-attention taking keys and values from the memory. No
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
    ModelConfig,
    _attention,
    _draw_layer,
    _feed_forward,
    _layer_norm,
    sinusoidal_positions,
)
from .errors import ConfigError, InputError
from .numerics import SeededRng, check_finite


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


def init_decoder_weights(cfg: ModelConfig) -> DecoderWeights:
    """Seeded Gaussian decoder weights; draw order fixed and documented.

    Embedding first, then per layer: self q, k, v, o, ff w1, w2 (the
    encoder's block draw), cross q, k, v, o; finally the output
    projection. Same 1/sqrt(fan_in) scaling as the encoder.
    """
    rng = SeededRng(cfg.seed)
    d = cfg.d_model
    std = 1.0 / math.sqrt(d)
    embedding = rng.normal_matrix(cfg.vocab_size, d, std=std)
    layers = tuple(
        DecoderLayerWeights(
            self_attn=_draw_layer(rng, cfg),
            cross_q=rng.normal_matrix(d, d, std=std),
            cross_k=rng.normal_matrix(d, d, std=std),
            cross_v=rng.normal_matrix(d, d, std=std),
            cross_o=rng.normal_matrix(d, d, std=std),
        )
        for _ in range(cfg.n_layers)
    )
    out_proj = rng.normal_matrix(d, cfg.vocab_size, std=std)
    return DecoderWeights(embedding=embedding, layers=layers, out_proj=out_proj)


@lru_cache(maxsize=4)
def _cached_weights(cfg: ModelConfig) -> DecoderWeights:
    return init_decoder_weights(cfg)


def _causal_mask(n: int) -> np.ndarray:
    mask = np.zeros((n, n), dtype=np.float64)
    mask[np.triu_indices(n, k=1)] = -np.inf
    return mask


def decode_step(
    prefix: list[int] | tuple[int, ...],
    memory: FusedSequence,
    cfg: ModelConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """One decoder forward pass over ``prefix`` and the fused memory.

    Returns per-position next-token logits (prefix length x vocab; the
    last row scores the continuation) and the final layer's
    head-averaged cross-attention (prefix length x memory rows). The
    memory is read as ``flattened`` lays it out, chunk after chunk.
    """
    if len(prefix) == 0:
        raise InputError("decode_step requires a non-empty prefix")
    if len(prefix) > cfg.max_len:
        raise InputError(f"prefix length {len(prefix)} exceeds max_len {cfg.max_len}")
    ids = np.asarray(prefix, dtype=np.int64)
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise InputError(f"prefix token id outside [0, {cfg.vocab_size})")

    if memory.width != cfg.d_model:
        raise ConfigError(f"memory width {memory.width} does not match d_model {cfg.d_model}")

    weights = _cached_weights(cfg)
    n = ids.size
    mask = _causal_mask(n)

    h = weights.embedding[ids] + sinusoidal_positions(cfg.max_len, cfg.d_model)[:n]
    for lw in weights.layers:
        sa = lw.self_attn
        x = _layer_norm(h)
        h = h + _attention(x, x, sa.wq, sa.wk, sa.wv, sa.wo, cfg.n_heads, mask)[0]
        # cross-attention over the raw memory rows
        out, cross = _attention(_layer_norm(h), memory.flattened, lw.cross_q, lw.cross_k,
                                lw.cross_v, lw.cross_o, cfg.n_heads)
        h = h + out
        h = h + _feed_forward(_layer_norm(h), sa)

    logits = _layer_norm(h) @ weights.out_proj
    check_finite(logits, "decoder logits")
    # ModelConfig admits no fewer than one layer, so ``cross`` is the last layer's
    return logits, cross.mean(axis=0)


def attention_mass_by_chunk(
    cross_attention: np.ndarray,
    provenance: np.ndarray,
) -> np.ndarray:
    """Attention mass per source chunk, averaged over query positions.

    Columns are grouped by the provenance chunk column, whose 1-based
    ids must have one entry per column. ``cross_attention`` must be
    row-stochastic: each query row must sum to 1, as a softmax row does.
    """
    attn = np.asarray(cross_attention, dtype=np.float64)
    if attn.ndim != 2:
        raise ConfigError("cross_attention must be 2-D (queries x memory rows)")
    if attn.shape[1] != len(provenance):
        raise ConfigError(f"{attn.shape[1]} attention columns vs "
                          f"{len(provenance)} provenance rows")
    chunks = np.asarray(provenance)[:, CHUNK]
    if not chunks.size or chunks.min() < 1:
        raise ConfigError("provenance needs one chunk id >= 1 per attention column")
    per_chunk = np.zeros((chunks.max(), attn.shape[0]), dtype=np.float64)
    # np.add.at applies the columns in order, so each chunk's sum rounds
    # exactly as a left-to-right loop over its columns would
    np.add.at(per_chunk, chunks - 1, attn.T)
    per_row = np.ascontiguousarray(per_chunk.T)
    totals = per_row.sum(axis=1)
    if not np.allclose(totals, 1.0, atol=1e-9):
        raise InputError("cross_attention rows must each sum to 1")
    return per_row.mean(axis=0)
