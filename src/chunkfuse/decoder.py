"""Forward-only decoder bridge over an assembled memory.

Proves the fused sequence is consumable by a standard encoder-decoder
stack: masked self-attention over the prefix, cross-attention over
every memory row, feed-forward, all with frozen seeded weights. The
stack is the encoder's config, routine and draws: a layer is an encoder
block plus a cross record over the memory, in one fixed draw order, and
the stack carries the config it was drawn for. A :class:`DecoderMemory`
binds the one cached, read-only stack of a config and projects a memory's
keys and values once; :func:`decode_pass` reads every dimension off that
stack, and callers repeat it over one memory for greedy demos. The last
layer's cross-attention is returned for attention accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cumulation import CHUNK, FusedSequence
from .encoder import (
    AttentionWeights,
    LayerWeights,
    ModelConfig,
    _attention,
    _draw_attention,
    _draw_layer,
    _feed_forward,
    _keys_values,
    _layer_norm,
    _token_ids,
    sinusoidal_positions,
)
from .errors import ConfigError, InputError
from .numerics import SeededRng, check_finite


@dataclass(frozen=True)
class DecoderLayerWeights:
    block: LayerWeights
    cross: AttentionWeights


@dataclass(frozen=True)
class DecoderWeights:
    cfg: ModelConfig  # the config the arrays were drawn for
    embedding: np.ndarray
    layers: tuple[DecoderLayerWeights, ...]
    out_proj: np.ndarray


def init_decoder_weights(cfg: ModelConfig) -> DecoderWeights:
    """Seeded Gaussian decoder weights; draw order fixed and documented.

    Embedding first, then per layer: self q, k, v, o, ff w1, w2 (the
    encoder's block draw), cross q, k, v, o (its attention draw);
    finally the output projection. The records group the arrays without
    changing this order, which fixes every array. Same 1/sqrt(fan_in)
    scaling as the encoder; the stack carries ``cfg``, its arrays read-only.
    """
    rng = SeededRng(cfg.seed)
    d = cfg.d_model
    std = 1.0 / math.sqrt(d)
    embedding = rng.normal_matrix(cfg.vocab_size, d, std=std)
    layers = tuple(DecoderLayerWeights(block=_draw_layer(rng, cfg),
                                       cross=_draw_attention(rng, d))
                   for _ in range(cfg.n_layers))
    out_proj = rng.normal_matrix(d, cfg.vocab_size, std=std)
    return DecoderWeights(cfg=cfg, embedding=embedding, layers=layers, out_proj=out_proj)


@lru_cache(maxsize=4)
def _cached_weights(cfg: ModelConfig) -> DecoderWeights:
    return init_decoder_weights(cfg)


def _causal_mask(n: int) -> np.ndarray:
    mask = np.zeros((n, n), dtype=np.float64)
    mask[np.triu_indices(n, k=1)] = -np.inf
    return mask


class DecoderMemory:
    """The decoder weights for ``cfg`` and each layer's cross ``_keys_values`` of a memory."""

    def __init__(self, memory: FusedSequence, cfg: ModelConfig):
        if memory.width != cfg.d_model:
            raise ConfigError(f"memory width {memory.width} does not match d_model {cfg.d_model}")
        self.weights = _cached_weights(cfg)
        self.keys_values = tuple(_keys_values(memory.flattened, lw.cross, cfg.n_heads)
                                 for lw in self.weights.layers)


def decode_pass(
    prefix: list[int] | tuple[int, ...],
    memory: DecoderMemory,
) -> tuple[np.ndarray, np.ndarray]:
    """One decoder forward pass over ``prefix`` and a bound memory.

    Returns per-position next-token logits (prefix length x vocab; the
    last row scores the continuation) and the final layer's
    cross-attention (heads x prefix length x memory rows).
    """
    cfg, weights = memory.weights.cfg, memory.weights
    ids = _token_ids(prefix, cfg, "prefix")
    n = ids.size
    mask = _causal_mask(n)

    h = weights.embedding[ids] + sinusoidal_positions(cfg.max_len, cfg.d_model)[:n]
    for lw, kv in zip(weights.layers, memory.keys_values):
        x = _layer_norm(h)
        h = h + _attention(x, _keys_values(x, lw.block.attn, cfg.n_heads),
                           lw.block.attn, cfg.n_heads, mask)[0]
        cross = None  # frees the previous layer's probabilities before these scores exist
        out, cross = _attention(_layer_norm(h), kv, lw.cross, cfg.n_heads)
        h = h + out
        h = h + _feed_forward(_layer_norm(h), lw.block)

    logits = _layer_norm(h) @ weights.out_proj
    check_finite(logits, "decoder logits")
    # ModelConfig admits no fewer than one layer, so ``cross`` is the last layer's
    return logits, cross


def decode_step(
    prefix: list[int] | tuple[int, ...],
    memory: FusedSequence,
    cfg: ModelConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """One :func:`decode_pass`; its cross-attention averaged over heads (prefix length x rows)."""
    logits, cross = decode_pass(prefix, DecoderMemory(memory, cfg))
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
