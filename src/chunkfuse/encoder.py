"""Frozen-weight transformer encoder for per-chunk hidden states.

The encoder is a stand-in for a pretrained model: weights are Gaussian
draws fully determined by (config, seed), the forward pass is pure, and
every chunk is encoded independently with sinusoidal positions that
restart at 0. Pre-norm blocks keep activations bounded at random
initialization. There is no dropout, no padding mask (chunks contain
only real tokens), and nothing is ever trained. :func:`encode` computes
only the top-layer rows its caller keeps. The decoder is built
from the same parts: :class:`ModelConfig`, the per-block weight draw
and the one attention routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, InputError
from .numerics import SeededRng, check_finite

_LN_EPS = 1e-5


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions and seed of one transformer stack, encoder or decoder."""

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
            raise ConfigError("all model dimensions must be >= 1")


@dataclass(frozen=True)
class LayerWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w1: np.ndarray
    w2: np.ndarray


@dataclass(frozen=True)
class EncoderWeights:
    embedding: np.ndarray
    layers: tuple[LayerWeights, ...]


def _draw_layer(rng: SeededRng, cfg: ModelConfig) -> LayerWeights:
    """One block's q, k, v, o, w1, w2, in that order, each filled row-major."""
    d = cfg.d_model
    std = 1.0 / math.sqrt(d)
    return LayerWeights(
        wq=rng.normal_matrix(d, d, std=std),
        wk=rng.normal_matrix(d, d, std=std),
        wv=rng.normal_matrix(d, d, std=std),
        wo=rng.normal_matrix(d, d, std=std),
        w1=rng.normal_matrix(d, cfg.d_ff, std=std),
        w2=rng.normal_matrix(cfg.d_ff, d, std=1.0 / math.sqrt(cfg.d_ff)),
    )


def init_weights(cfg: ModelConfig) -> EncoderWeights:
    """Deterministic Gaussian weights, std 1/sqrt(fan_in) per tensor.

    Draw order is fixed (embedding first, then per layer q, k, v, o,
    w1, w2, each filled row-major) so identical configs are
    bitwise-identical. The embedding uses fan_in = d_model so lookup
    rows have the same scale as projection outputs.
    """
    rng = SeededRng(cfg.seed)
    embedding = rng.normal_matrix(cfg.vocab_size, cfg.d_model,
                                  std=1.0 / math.sqrt(cfg.d_model))
    layers = tuple(_draw_layer(rng, cfg) for _ in range(cfg.n_layers))
    return EncoderWeights(embedding=embedding, layers=layers)


@lru_cache(maxsize=8)
def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """Classic sin/cos position table of shape (length x dim)."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2.0 * (idx // 2)) / dim)
    table = np.empty((length, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    table.flags.writeable = False  # the cache hands this one array to every caller
    return table


def _layer_norm(x: np.ndarray) -> np.ndarray:
    """Normalize each row of ``x`` to mean 0 and variance 1; ``x`` is left unchanged.

    The steps are numpy's ``mean`` and ``var`` taken apart, in their
    order, with the centred rows computed once and normalized in place.
    """
    n = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= n
    xc = x - mu
    std = np.add.reduce(np.square(xc), axis=-1, keepdims=True)
    std /= n
    std += _LN_EPS
    np.sqrt(std, out=std)
    xc /= std
    return xc


def _softmax_last(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in ``x``: overwrites its argument and returns it."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    n, d = x.shape
    return x.reshape(n, n_heads, d // n_heads).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    h, n, dh = x.shape
    return x.transpose(1, 0, 2).reshape(n, h * dh)


def _attention(
    x: np.ndarray,
    source: np.ndarray,
    wq: np.ndarray,
    wk: np.ndarray,
    wv: np.ndarray,
    wo: np.ndarray,
    n_heads: int,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Multi-head attention of the rows of ``x`` over the rows of ``source``.

    Self-attention passes ``x`` as ``source``; cross-attention passes the
    memory. ``mask`` is additive (0 or -inf) if given. Returns the
    projected output and the (heads x queries x keys) probabilities.
    ``x``, ``source`` and ``mask`` are left unchanged: scaling, masking
    and the softmax all run in the one scores array this call allocates.
    """
    head_dim = x.shape[1] // n_heads
    q = _split_heads(x @ wq, n_heads)
    k = _split_heads(source @ wk, n_heads)
    v = _split_heads(source @ wv, n_heads)
    scores = q @ k.transpose(0, 2, 1)
    scores /= math.sqrt(head_dim)
    if mask is not None:
        scores += mask
    attn = _softmax_last(scores)
    return _merge_heads(attn @ v) @ wo, attn


def _feed_forward(x: np.ndarray, lw: LayerWeights) -> np.ndarray:
    hidden = x @ lw.w1
    np.maximum(hidden, 0.0, out=hidden)
    return hidden @ lw.w2


def encode(
    tokens: np.ndarray,
    weights: EncoderWeights,
    cfg: ModelConfig,
    keep: np.ndarray,
) -> np.ndarray:
    """Encode one window's token ids to the top-layer hidden states of its ``keep`` rows.

    Pure function of (tokens, weights, config): embeddings plus
    positions restarted at 0, then ``n_layers`` pre-norm blocks of
    self-attention and feed-forward with residuals, then a final norm.
    Lower blocks update every row; the top block updates only the
    ``keep`` rows, attending over all rows, and returns a (len(keep) x
    d_model) array. ``keep=np.arange(n)`` gives the full encoding. A kept
    row is bitwise the full encoding's unless BLAS picks another kernel
    for the smaller products: OpenBLAS does for at most 100**3
    multiply-adds over a long inner dimension, as when under 62 kept rows
    attend over a 1024-token window with 16-wide heads.
    """
    ids = np.asarray(tokens, dtype=np.int64)
    if ids.size == 0:
        raise InputError("cannot encode an empty window")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise InputError(f"token id outside [0, {cfg.vocab_size})")
    if ids.size > cfg.max_len:
        raise InputError(f"window length {ids.size} exceeds max_len {cfg.max_len}")

    h = weights.embedding[ids] + sinusoidal_positions(ids.size, cfg.d_model)
    top = len(weights.layers) - 1
    for li, lw in enumerate(weights.layers):
        rows = keep if li == top else slice(None)  # the top block updates kept rows only
        x = _layer_norm(h)
        h = h[rows] + _attention(x[rows], x, lw.wq, lw.wk, lw.wv, lw.wo, cfg.n_heads)[0]
        h = h + _feed_forward(_layer_norm(h), lw)
    return check_finite(_layer_norm(h), "window encoding")
