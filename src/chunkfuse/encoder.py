"""Frozen-weight transformer encoder for per-chunk hidden states.

The encoder is a stand-in for a pretrained model: weights are Gaussian
draws fully determined by their config, seed included, which they carry
as the one record of the model's dimensions; the forward pass is pure, and
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
from .numerics import SeededRng, as_token_ids, check_finite

_LN_EPS = 1e-5
# rows of the memory per product in cross-attention's value sum: one (heads x rows) @
# (rows x d) product rounds differently at 1 and 2 BLAS threads for some row counts
_VALUE_SLICE = 2048


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
    cfg: ModelConfig  # the config the arrays were drawn for
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
    """Deterministic Gaussian weights for ``cfg``, std 1/sqrt(fan_in) per tensor.

    Draw order is fixed (embedding first, then per layer q, k, v, o,
    w1, w2, each filled row-major) so identical configs are
    bitwise-identical. The embedding uses fan_in = d_model so lookup
    rows have the same scale as projection outputs. The stack carries
    ``cfg``, and its arrays are read-only.
    """
    rng = SeededRng(cfg.seed)
    embedding = rng.normal_matrix(cfg.vocab_size, cfg.d_model,
                                  std=1.0 / math.sqrt(cfg.d_model))
    layers = tuple(_draw_layer(rng, cfg) for _ in range(cfg.n_layers))
    return EncoderWeights(cfg=cfg, embedding=embedding, layers=layers)


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
    kv: tuple[np.ndarray, np.ndarray] | np.ndarray,
    w: AttentionWeights,
    n_heads: int,
    work: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Multi-head attention of the (queries x d) rows of ``x`` over a source.

    ``kv`` is the ``_keys_values`` of the source, or the (rows x d) source
    itself. Self-attention passes those of ``x`` (the decoder, those of the
    positions so far); cross-attention passes the memory, and then no key or
    value of it is projected. Per head, ``q·(M W_k)ᵀ = (q W_kᵀ)·Mᵀ`` and
    ``p·(M W_v) = (p·M)·W_v``: each head's query goes through ``W_kᵀ`` and
    scores the memory rows themselves, and its context ``p·M`` is summed in
    order over ``_VALUE_SLICE``-row slices of the memory, whose products round
    alike at any BLAS thread count, before it goes through ``W_v``.

    Returns the projected output and the (heads x queries x keys)
    probabilities. ``x`` and ``kv`` are left unchanged: the softmax runs in
    the one scores array this call allocates, and so does the
    ``1/sqrt(d_head)`` scale unless that root is a power of two. Then it
    divides the queries, bitwise the same since scaling by 2**j is exact,
    except for a term or partial sum below 2**-1022 (subnormal), which
    layer-normed rows and seeded weights stay far above. Given ``work``, the
    scores are computed in it (:func:`_in`), and the probabilities returned
    are a view of it.
    """
    q = x @ w.wq
    root = math.sqrt(x.shape[-1] // n_heads)
    fold = math.frexp(root)[0] == 0.5  # root is 2**j: scaling the queries is exact
    if fold:
        q /= root
    q = _split_heads(q, n_heads)
    source = kv if isinstance(kv, np.ndarray) and kv.ndim == 2 else None
    if source is None:
        k, v = kv
        kt = k.swapaxes(-1, -2)
    else:  # each head's query through W_k,hᵀ, as (heads · queries) rows of width d
        q = (q @ _split_heads(w.wk, n_heads).swapaxes(-1, -2)).reshape(-1, source.shape[1])
        kt = source.T
    scores = np.matmul(q, kt, out=_in(work, (*q.shape[:-1], kt.shape[-1])))
    if not fold:
        scores /= root
    attn = _softmax_last(scores)
    if source is None:
        heads = attn @ v
    else:
        context = attn[:, :_VALUE_SLICE] @ source[:_VALUE_SLICE]
        for start in range(_VALUE_SLICE, len(source), _VALUE_SLICE):
            context += attn[:, start:start + _VALUE_SLICE] @ source[start:start + _VALUE_SLICE]
        attn = attn.reshape(n_heads, -1, len(source))
        heads = context.reshape(n_heads, -1, source.shape[1]) @ _split_heads(w.wv, n_heads)
    return heads.swapaxes(-3, -2).reshape(x.shape) @ w.wo, attn


def _token_ids(tokens, cfg: ModelConfig, what: str) -> np.ndarray:
    """``tokens`` as int64 ids: rows of 1 to ``max_len`` ids, each in the vocabulary."""
    ids = as_token_ids(tokens)
    if ids.size == 0:
        raise InputError(f"{what} is empty")
    if ids.shape[-1] > cfg.max_len:
        raise InputError(f"{what} length {ids.shape[-1]} exceeds max_len {cfg.max_len}")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise InputError(f"{what} token id outside [0, {cfg.vocab_size})")
    return ids


def _in(work: np.ndarray | None, shape: tuple[int, ...]) -> np.ndarray | None:
    """The leading entries of the flat ``work`` as a ``shape`` array, or None: numpy allocates.

    A product written there rounds as one numpy allocates: it is the same BLAS call.
    """
    return None if work is None else work[:math.prod(shape)].reshape(shape)


def _feed_forward(x: np.ndarray, lw: LayerWeights, work: np.ndarray | None = None) -> np.ndarray:
    """The feed-forward sublayer of ``x``; given ``work``, its hidden rows are computed in it."""
    hidden = np.matmul(x, lw.w1, out=_in(work, (*x.shape[:-1], lw.w1.shape[1])))
    np.maximum(hidden, 0.0, out=hidden)
    return hidden @ lw.w2


def encode(
    tokens: np.ndarray,
    weights: EncoderWeights,
    keep: np.ndarray,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Encode (g x n) windows to the top-layer hidden states of their (g x r) ``keep`` rows.

    Pure function of (tokens, weights), each window on its own and
    every product on the stack: embeddings plus positions restarted at 0,
    ``n_layers`` pre-norm blocks of self-attention and feed-forward with
    residuals, a final norm. The top block updates only the ``keep`` rows,
    attending over all rows of their window. One window is ``tokens[None]``;
    ``keep=np.arange(n)[None]`` gives its full encoding. A kept row is
    bitwise the full encoding's unless BLAS picks another kernel for the
    smaller products: OpenBLAS does for at most 100**3 multiply-adds over a
    long inner dimension, as when under 62 kept rows attend over a
    1024-token window with 16-wide heads. Residuals are added in place,
    which rounds as ``h + x`` does.

    ``work``, a flat float64 array of at least ``g · max(n, r) ·
    max(n_heads · n, d_ff)`` entries, holds each layer's scores and then its
    feed-forward hidden rows, so a caller that encodes group after group does
    not grow and trim the heap by a window's working set each call
    (``numerics.save_matrix`` says what that cost).
    """
    cfg = weights.cfg
    ids = _token_ids(tokens, cfg, "window")
    h = weights.embedding[ids]  # a copy: the residual stream is this call's own array
    h += sinusoidal_positions(ids.shape[-1], cfg.d_model)
    kept = (np.arange(len(keep))[:, None], keep)  # the top block updates these rows only
    for li, lw in enumerate(weights.layers, 1):
        rows = kept if li == len(weights.layers) else slice(None)
        x = _layer_norm(h)
        h = h[rows]  # the kept rows' copy in the top block, ``h`` itself below it
        h += _attention(x[rows], _keys_values(x, lw.attn, cfg.n_heads), lw.attn, cfg.n_heads,
                        work)[0]
        h += _feed_forward(_layer_norm(h), lw, work)
    return check_finite(_layer_norm(h), "window encoding")
