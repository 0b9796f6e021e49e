"""Frozen-weight transformer encoder for per-chunk hidden states.

The encoder is a stand-in for a pretrained model: weights are Gaussian
draws fully determined by (config, seed), the forward pass is pure, and
every chunk is encoded independently with sinusoidal positions that
restart at 0. Pre-norm blocks keep activations bounded at random
initialization. There is no dropout, no padding mask (chunks contain
only real tokens), and nothing is ever trained. :func:`encode` computes
only the top-layer rows its caller keeps. The decoder is built from
the same parts: :class:`ModelConfig`, the block and attention draws in
one fixed order, and the one attention routine.
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
        # dimensions first: n_heads 0 would divide by zero
        if min(self.vocab_size, self.d_model, self.n_heads, self.n_layers,
               self.d_ff, self.max_len) < 1:
            raise ConfigError("all model dimensions must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )


@dataclass(frozen=True)
class AttentionWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray


@dataclass(frozen=True)
class LayerWeights:
    attn: AttentionWeights
    w1: np.ndarray
    w2: np.ndarray


@dataclass(frozen=True)
class EncoderWeights:
    embedding: np.ndarray
    layers: tuple[LayerWeights, ...]


def _draw_attention(rng: SeededRng, d: int) -> AttentionWeights:
    """One attention sublayer's q, k, v, o, in that order, each (d x d), filled row-major."""
    std = 1.0 / math.sqrt(d)
    return AttentionWeights(*(rng.normal_matrix(d, d, std=std) for _ in range(4)))


def _draw_layer(rng: SeededRng, cfg: ModelConfig) -> LayerWeights:
    """One block's q, k, v, o, w1, w2, in that order, each filled row-major."""
    d = cfg.d_model
    return LayerWeights(attn=_draw_attention(rng, d),
                        w1=rng.normal_matrix(d, cfg.d_ff, std=1.0 / math.sqrt(d)),
                        w2=rng.normal_matrix(cfg.d_ff, d, std=1.0 / math.sqrt(cfg.d_ff)))


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
    *lead, n, d = x.shape  # (..., rows, d) to (..., heads, rows, head dim)
    return x.reshape(*lead, n, n_heads, d // n_heads).swapaxes(-3, -2)


def _keys_values(source: np.ndarray, w: AttentionWeights, n_heads: int) -> tuple[np.ndarray, ...]:
    """The (heads x rows x head dim) keys and values that ``_attention`` reads from ``source``."""
    return _split_heads(source @ w.wk, n_heads), _split_heads(source @ w.wv, n_heads)


def _attention(
    x: np.ndarray,
    kv: tuple[np.ndarray, np.ndarray],
    w: AttentionWeights,
    n_heads: int,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Multi-head attention of the rows of ``x`` over ``kv``, the ``_keys_values`` of a source.

    Self-attention passes those of ``x``; cross-attention those of the
    memory. ``mask`` is additive (0 or -inf) if given. Returns the
    projected output and the (heads x queries x keys) probabilities.
    ``x``, ``kv`` and ``mask`` are left unchanged: scaling, masking and
    the softmax all run in the one scores array this call allocates.
    """
    q = _split_heads(x @ w.wq, n_heads)
    k, v = kv
    scores = q @ k.swapaxes(-1, -2)
    scores /= math.sqrt(x.shape[-1] // n_heads)
    if mask is not None:
        scores += mask
    attn = _softmax_last(scores)
    return (attn @ v).swapaxes(-3, -2).reshape(x.shape) @ w.wo, attn


def _token_ids(tokens, cfg: ModelConfig, what: str) -> np.ndarray:
    """``tokens`` as int64 ids: rows of 1 to ``max_len`` ids, each in the vocabulary."""
    ids = np.asarray(tokens, dtype=np.int64)
    if ids.size == 0:
        raise InputError(f"{what} is empty")
    if ids.shape[-1] > cfg.max_len:
        raise InputError(f"{what} length {ids.shape[-1]} exceeds max_len {cfg.max_len}")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise InputError(f"{what} token id outside [0, {cfg.vocab_size})")
    return ids


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
    """Encode (g x n) windows to the top-layer hidden states of their (g x r) ``keep`` rows.

    Pure function of (tokens, weights, config), each window on its own and
    every product on the stack: embeddings plus positions restarted at 0,
    ``n_layers`` pre-norm blocks of self-attention and feed-forward with
    residuals, a final norm. The top block updates only the ``keep`` rows,
    attending over all rows of their window. One window is ``tokens[None]``;
    ``keep=np.arange(n)[None]`` gives its full encoding. A kept row is
    bitwise the full encoding's unless BLAS picks another kernel for the
    smaller products: OpenBLAS does for at most 100**3 multiply-adds over a
    long inner dimension, as when under 62 kept rows attend over a
    1024-token window with 16-wide heads.
    """
    ids = _token_ids(tokens, cfg, "window")
    h = weights.embedding[ids] + sinusoidal_positions(ids.shape[-1], cfg.d_model)
    kept = (np.arange(len(keep))[:, None], keep)  # the top block updates these rows only
    for li, lw in enumerate(weights.layers, 1):
        rows = kept if li == len(weights.layers) else slice(None)
        x = _layer_norm(h)
        h = h[rows] + _attention(x[rows], _keys_values(x, lw.attn, cfg.n_heads),
                                 lw.attn, cfg.n_heads)[0]
        h = h + _feed_forward(_layer_norm(h), lw)
    return check_finite(_layer_norm(h), "window encoding")
