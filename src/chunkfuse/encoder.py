"""Frozen-weight transformer encoder for per-chunk hidden states.

The encoder is a stand-in for a pretrained model: weights are Gaussian
draws fully determined by (config, seed), the forward pass is pure, and
every chunk is encoded independently with sinusoidal positions that
restart at 0. Pre-norm blocks keep activations bounded at random
initialization. There is no dropout, no padding mask (chunks contain
only real tokens), and nothing is ever trained.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigError, ContractError, InputError
from .numerics import SeededRng, check_finite, load_matrix, save_matrix
from .segmenter import Segment, SegmentSet

_LN_EPS = 1e-5

AttentionHook = Callable[[int, np.ndarray], None]


@dataclass(frozen=True)
class EncoderConfig:
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
            raise ConfigError("all encoder dimensions must be >= 1")


@dataclass(frozen=True)
class LayerWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w1: np.ndarray
    w2: np.ndarray

    def named(self, prefix: str) -> list[tuple[str, np.ndarray]]:
        return [(f"{prefix}.{n}", getattr(self, n)) for n in
                ("wq", "wk", "wv", "wo", "w1", "w2")]


@dataclass(frozen=True)
class EncoderWeights:
    embedding: np.ndarray
    layers: tuple[LayerWeights, ...]

    def named(self) -> list[tuple[str, np.ndarray]]:
        out = [("embedding", self.embedding)]
        for i, lw in enumerate(self.layers):
            out.extend(lw.named(f"layer{i}"))
        return out


@dataclass(frozen=True)
class ChunkEncoding:
    """Top-layer hidden states for one chunk: (chunk length x d_model)."""

    chunk_index: int
    hidden: np.ndarray

    def __len__(self) -> int:
        return self.hidden.shape[0]


def init_weights(cfg: EncoderConfig) -> EncoderWeights:
    """Deterministic Gaussian weights, std 1/sqrt(fan_in) per tensor.

    Draw order is fixed (embedding first, then per layer q, k, v, o,
    w1, w2, each filled row-major) so identical configs are
    bitwise-identical. The embedding uses fan_in = d_model so lookup
    rows have the same scale as projection outputs.
    """
    rng = SeededRng(cfg.seed)
    d = cfg.d_model
    embedding = rng.normal_matrix(cfg.vocab_size, d, std=1.0 / math.sqrt(d))
    layers = []
    for _ in range(cfg.n_layers):
        proj_std = 1.0 / math.sqrt(d)
        layers.append(LayerWeights(
            wq=rng.normal_matrix(d, d, std=proj_std),
            wk=rng.normal_matrix(d, d, std=proj_std),
            wv=rng.normal_matrix(d, d, std=proj_std),
            wo=rng.normal_matrix(d, d, std=proj_std),
            w1=rng.normal_matrix(d, cfg.d_ff, std=proj_std),
            w2=rng.normal_matrix(cfg.d_ff, d, std=1.0 / math.sqrt(cfg.d_ff)),
        ))
    return EncoderWeights(embedding=embedding, layers=tuple(layers))


@lru_cache(maxsize=8)
def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """Classic sin/cos position table of shape (length x dim)."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2.0 * (idx // 2)) / dim)
    table = np.empty((length, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    return table


def _layer_norm(x: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + _LN_EPS)


def _softmax_last(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    n, d = x.shape
    return x.reshape(n, n_heads, d // n_heads).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    h, n, dh = x.shape
    return x.transpose(1, 0, 2).reshape(n, h * dh)


def multi_head_self_attention(
    x: np.ndarray,
    lw: LayerWeights,
    n_heads: int,
    layer_index: int = 0,
    attention_hook: AttentionHook | None = None,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """One attention sublayer; ``mask`` is additive (0 or -inf) if given."""
    head_dim = x.shape[1] // n_heads
    q = _split_heads(x @ lw.wq, n_heads)
    k = _split_heads(x @ lw.wk, n_heads)
    v = _split_heads(x @ lw.wv, n_heads)
    scores = q @ k.transpose(0, 2, 1) / math.sqrt(head_dim)
    if mask is not None:
        scores = scores + mask
    attn = _softmax_last(scores)
    if attention_hook is not None:
        attention_hook(layer_index, attn)
    return _merge_heads(attn @ v) @ lw.wo


def _feed_forward(x: np.ndarray, lw: LayerWeights) -> np.ndarray:
    return np.maximum(x @ lw.w1, 0.0) @ lw.w2


def encode(
    seg: Segment,
    weights: EncoderWeights,
    cfg: EncoderConfig,
    attention_hook: AttentionHook | None = None,
) -> ChunkEncoding:
    """Encode one segment to its top-layer hidden states.

    Pure function of (segment, weights, config): embeddings plus
    positions restarted at 0, then ``n_layers`` pre-norm blocks of
    self-attention and feed-forward with residuals, then a final norm.
    """
    ids = np.asarray(seg.tokens, dtype=np.int64)
    if ids.size == 0:
        raise InputError("cannot encode an empty segment")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise InputError(
            f"token id outside [0, {cfg.vocab_size}) in segment {seg.index}"
        )
    if ids.size > cfg.max_len:
        raise InputError(
            f"segment length {ids.size} exceeds max_len {cfg.max_len}"
        )

    h = weights.embedding[ids] + sinusoidal_positions(cfg.max_len, cfg.d_model)[:ids.size]
    for li, lw in enumerate(weights.layers):
        h = h + multi_head_self_attention(
            _layer_norm(h), lw, cfg.n_heads,
            layer_index=li, attention_hook=attention_hook,
        )
        h = h + _feed_forward(_layer_norm(h), lw)
    h = _layer_norm(h)
    check_finite(h, f"chunk {seg.index} encoding")
    return ChunkEncoding(chunk_index=seg.index, hidden=h)


def encode_all(
    segments: SegmentSet,
    weights: EncoderWeights,
    cfg: EncoderConfig,
) -> list[ChunkEncoding]:
    """Encode every segment, results in segment order."""
    return [encode(seg, weights, cfg) for seg in segments]


# ---------------------------------------------------------------------------
# weight dump/load (one text file per tensor plus a manifest)


def save_weights(weights: EncoderWeights, directory: str | os.PathLike) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = []
    for name, tensor in weights.named():
        save_matrix(tensor, directory / f"{name}.txt")
        manifest.append({"name": name, "rows": tensor.shape[0], "cols": tensor.shape[1]})
    with open(directory / "manifest.json", "w", encoding="ascii", newline="\n") as fh:
        json.dump({"tensors": manifest}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_weights(directory: str | os.PathLike) -> EncoderWeights:
    directory = Path(directory)
    try:
        with open(directory / "manifest.json", "r", encoding="ascii") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read weight manifest in {directory}: {exc}") from exc

    tensors: dict[str, np.ndarray] = {}
    for entry in manifest["tensors"]:
        tensor = load_matrix(directory / f"{entry['name']}.txt")
        if tensor.shape != (entry["rows"], entry["cols"]):
            raise InputError(
                f"tensor {entry['name']} has shape {tensor.shape}, manifest says "
                f"({entry['rows']}, {entry['cols']})"
            )
        tensors[entry["name"]] = tensor

    if "embedding" not in tensors:
        raise InputError("weight manifest lacks an embedding tensor")
    layers = []
    i = 0
    while f"layer{i}.wq" in tensors:
        try:
            layers.append(LayerWeights(*(tensors[f"layer{i}.{n}"] for n in
                                         ("wq", "wk", "wv", "wo", "w1", "w2"))))
        except KeyError as exc:
            raise InputError(f"layer {i} is missing tensor {exc}") from exc
        i += 1
    if not layers:
        raise ContractError("loaded weights contain no layers")
    return EncoderWeights(embedding=tensors["embedding"], layers=tuple(layers))
