"""Forward-only decoder bridge over an assembled memory.

Proves the fused sequence is consumable by a standard encoder-decoder
stack: causal self-attention, cross-attention over every memory row,
feed-forward, all with frozen seeded weights. The stack is the encoder's
config, routine and draws: a layer is an encoder block plus a cross record
over the memory, in one fixed draw order, and the stack carries the config
it was drawn for. :func:`decode` runs one position per pass over a per-layer
self-attention key/value cache, as incremental decoding does, with the one
cached, read-only stack of its config. Its cross-attention reads the memory
rows themselves, through absorbed queries and slice-summed values
(``encoder._attention``), so no key or value of the memory is ever projected
or held. ``pipeline.greedy_decode`` and :func:`decode_step` are its two views.
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


def decode(
    prefix: list[int] | tuple[int, ...],
    memory: FusedSequence,
    cfg: ModelConfig,
    steps: int,
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Run ``prefix``, then ``steps`` greedy positions, over ``memory``, one position a pass.

    Per layer, a pass appends its position's self-attention keys and values
    to a cache and attends over the filled part with no mask, so a position
    reads only the tokens up to it; its cross-attention reads the memory
    itself with one query row, and no key or value of it is projected
    (``encoder._attention``). Returns the tokens (the prefix, then each
    argmax from its last position on), the (positions x vocab) logits and each
    position's last-layer cross-attention averaged over heads (positions x rows).
    """
    tokens = _token_ids(prefix, cfg, "prefix").tolist()
    if not 0 <= steps <= cfg.max_len - len(tokens):
        raise InputError(f"steps must lie in [0, {cfg.max_len - len(tokens)}] after a "
                         f"{len(tokens)}-token prefix under max_len {cfg.max_len}, got {steps}")
    if memory.width != cfg.d_model:
        raise ConfigError(f"memory width {memory.width} does not match d_model {cfg.d_model}")
    n = len(tokens) + steps
    rows = np.empty((n, memory.rows))
    weights = _cached_weights(cfg)
    source = memory.flattened
    # per layer, the self-attention keys [0] and values [1] of every position
    caches = [np.empty((2, cfg.n_heads, n, cfg.d_model // cfg.n_heads)) for _ in weights.layers]
    positions = sinusoidal_positions(cfg.max_len, cfg.d_model)
    logits = np.empty((n, cfg.vocab_size))
    for i in range(n):
        h = weights.embedding[tokens[i]:tokens[i] + 1] + positions[i:i + 1]
        for lw, cache in zip(weights.layers, caches):
            x = _layer_norm(h)
            cache[:, :, i:i + 1] = _keys_values(x, lw.block.attn, cfg.n_heads)
            h = h + _attention(x, cache[:, :, :i + 1], lw.block.attn, cfg.n_heads)[0]
            cross = None  # frees the last probabilities before these scores exist
            out, cross = _attention(_layer_norm(h), source, lw.cross, cfg.n_heads)
            h = h + out
            h = h + _feed_forward(_layer_norm(h), lw.block)
        logits[i] = _layer_norm(h) @ weights.out_proj
        # ModelConfig admits no fewer than one layer, so ``cross`` is the last layer's
        rows[i] = cross.mean(axis=0)
        if len(tokens) == i + 1 < n:  # past the prefix: this pass picks the next token
            tokens.append(int(logits[i].argmax()))
    check_finite(logits, "decoder logits")
    return tokens, logits, rows


def decode_step(
    prefix: list[int] | tuple[int, ...],
    memory: FusedSequence,
    cfg: ModelConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`decode` of ``prefix`` with no steps: its logits and head-mean cross rows."""
    return decode(prefix, memory, cfg, 0)[1:]


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
