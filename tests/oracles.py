"""Per-index reference implementations of the fusion formulas.

These follow PAPER.md one chunk at a time, with explicit loops, so the
library's array-shaped ``contexts`` and ``fuse`` can be checked against
them. Boundaries are (C, k, d) arrays; chunk indices are 1-based.
``random_set`` draws a random boundary set, ``mean_context`` is the
brute-force context: the ``mean_of`` average of every block it spans,
``fsum_context`` a correctly rounded one for long documents,
``assemble_per_chunk`` the chunk-by-chunk reference for ``assemble``,
``windows_one_by_one`` the window-by-window reference for ``segment``
and ``reconstruct`` the round trip back from its windows,
``synthetic_chunks`` builds window starts and random encodings,
``kept_rows`` picks from them, one chunk at a time, the rows and
positions ``assemble`` reads, ``encode_document_per_window`` the
one-window-per-call reference for ``encode_document``, with
``gaussian_weights`` as quick stand-in encoder weights,
``fused_by_stages`` one document's
memory from ``encode_document`` and ``assemble`` called by hand,
``probe_runs`` the assembled sequences the position probe reads,
``sweep_per_variant`` the memories of ``sweep`` with every document
encoded afresh under every variant,
``matrix_to_text_per_value`` and
``matrix_from_text_per_value`` the value-by-value matrix text writer and
parser, and ``next_u64``, ``randint_below``, ``uniform``, ``gaussian``,
``normal_matrix_per_value``, ``token_ids_per_value`` and
``sample_indices_per_value`` the draw-at-a-time forms of ``SeededRng``'s
block-wise streams. ``softmax_out_of_place`` and ``layer_norm_mean_var``
are the textbook forms of the encoder's in-place softmax and one-pass
layer norm, each step in a new array. ``attention_scaled_after`` is the
attention routine that always scales the scores, never the queries,
and takes an additive ``causal_mask``. ``decode_per_position`` is the
textbook incremental decoder: one position at a time, with that routine,
each layer's keys and values kept in lists. ``decode_uncached`` is the
full decoder pass over a prefix under the causal mask, projecting the
memory's keys and values afresh, and ``greedy_decode_uncached`` repeats it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from chunkfuse.cumulation import (
    CHUNK,
    LEFT,
    MIDDLE,
    POSITION,
    RIGHT,
    ROLE,
    FusedSequence,
    assemble,
)
from chunkfuse.decoder import _cached_weights
from chunkfuse.encoder import (
    _LN_EPS,
    AttentionWeights,
    EncoderWeights,
    LayerWeights,
    ModelConfig,
    _feed_forward,
    _keys_values,
    _layer_norm,
    _softmax_last,
    _split_heads,
    _token_ids,
    encode,
    init_weights,
    sinusoidal_positions,
)
from chunkfuse.errors import ConfigError, InputError
from chunkfuse.numerics import SeededRng, check_finite
from chunkfuse.pipeline import encode_document, middle_rng_for, sample_document_middles
from chunkfuse.segmenter import segment


def mean_of(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Element-wise arithmetic mean of equally shaped matrices."""
    if len(matrices) == 0:
        raise ValueError("mean_of requires a non-empty list")
    mats = [np.asarray(m, dtype=np.float64) for m in matrices]
    shape = mats[0].shape
    if len(shape) != 2:  # the others must match it
        raise ConfigError(f"mean_of expects 2-D matrices, got ndim={len(shape)}")
    for m in mats[1:]:
        if m.shape != shape:
            raise ConfigError(
                f"mean_of shape mismatch: {shape} vs {m.shape}"
            )
    return check_finite(np.mean(np.stack(mats), axis=0), "mean_of result")


def random_set(rng: np.random.Generator, n_chunks=None, width=None, dim=None):
    """Random (C, k, d) lefts and rights; an unset size is drawn, C in [1, 6], k in [1, 3],
    d in [1, 8], in that order."""
    c = n_chunks or int(rng.integers(1, 7))
    k = width or int(rng.integers(1, 4))
    d = dim or int(rng.integers(1, 9))
    return rng.normal(size=(c, k, d)), rng.normal(size=(c, k, d))


def _check_index(lefts: np.ndarray, index: int) -> None:
    if not 1 <= index <= len(lefts):
        raise IndexError(f"chunk index {index} outside [1, {len(lefts)}]")


def backward_context(lefts: np.ndarray, rights: np.ndarray, index: int) -> np.ndarray:
    """Average of chunk ``index``'s left boundary with all earlier blocks.

    For the first chunk this is exactly the left boundary. Otherwise the
    left boundary plus both boundaries of each earlier chunk are summed
    and divided by their count, 2*index - 1.
    """
    _check_index(lefts, index)
    if index == 1:
        return lefts[0].copy()
    total = lefts[index - 1].copy()
    for j in range(index - 1):
        total += lefts[j]
        total += rights[j]
    return total / (2 * index - 1)


def forward_context(lefts: np.ndarray, rights: np.ndarray, index: int) -> np.ndarray:
    """Mirror of :func:`backward_context` over succeeding chunks.

    For the last chunk this is exactly the right boundary; otherwise the
    divisor is 2*(C - index) + 1.
    """
    _check_index(lefts, index)
    c = len(lefts)
    if index == c:
        return rights[c - 1].copy()
    total = rights[index - 1].copy()
    for j in range(index, c):
        total += lefts[j]
        total += rights[j]
    return total / (2 * (c - index) + 1)


def mean_context(lefts: np.ndarray, rights: np.ndarray, index: int,
                 direction: str) -> np.ndarray:
    """Chunk ``index``'s backward ("back") or forward ("fwd") context: every
    contributing block materialized, then averaged by :func:`mean_of`."""
    if direction == "back":
        blocks = [lefts[index - 1]]
        for j in range(index - 1):
            blocks.extend([lefts[j], rights[j]])
    else:
        blocks = [rights[index - 1]]
        for j in range(index, len(lefts)):
            blocks.extend([lefts[j], rights[j]])
    return mean_of(blocks)


def fsum_context(
    lefts: np.ndarray,
    rights: np.ndarray,
    index: int,
    direction: str,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Chunk ``index``'s backward ("back") or forward ("fwd") context via math.fsum.

    Each entry is the correctly rounded sum of its addends divided by
    their count. Returns (context, sum of the addends' magnitudes, count):
    the last two bound the rounding error of any summation order.
    """
    _check_index(lefts, index)
    if direction == "back":
        blocks = (lefts[index - 1:index], lefts[:index - 1], rights[:index - 1])
    else:
        blocks = (rights[index - 1:index], lefts[index:], rights[index:])
    addends = np.concatenate(blocks)
    count = len(addends)
    columns = addends.reshape(count, -1).T.tolist()
    context = np.array([math.fsum(col) for col in columns]) / count
    magnitude = np.array([math.fsum(abs(v) for v in col) for col in columns])
    return context.reshape(lefts.shape[1:]), magnitude.reshape(lefts.shape[1:]), count


@dataclass(frozen=True)
class FusionJacobian:
    """Exact per-block sensitivities of one chunk's fused boundaries.

    Fusion is linear and acts entrywise, so the derivative of any fused
    entry with respect to the matching entry of a source block is a
    scalar. Keys are ("L", j) or ("R", j) with 1-based j; every source
    block of the set appears, zeros included.
    """

    chunk: int
    alpha: float
    d_fused_left: dict[tuple[str, int], float]
    d_fused_right: dict[tuple[str, int], float]


def fusion_jacobian(lefts: np.ndarray, alpha: float, index: int) -> FusionJacobian:
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must lie in [0, 1], got {alpha}")
    _check_index(lefts, index)
    c = len(lefts)

    d_left = {key: 0.0 for side in ("L", "R") for key in ((side, j) for j in range(1, c + 1))}
    d_right = dict(d_left)

    if index == 1:
        d_left[("L", 1)] = 1.0
    else:
        spread = (1.0 - alpha) / (2 * index - 1)
        d_left[("L", index)] = alpha + spread
        for j in range(1, index):
            d_left[("L", j)] = spread
            d_left[("R", j)] = spread

    if index == c:
        d_right[("R", c)] = 1.0
    else:
        spread = (1.0 - alpha) / (2 * (c - index) + 1)
        d_right[("R", index)] = alpha + spread
        for j in range(index + 1, c + 1):
            d_right[("L", j)] = spread
            d_right[("R", j)] = spread

    return FusionJacobian(chunk=index, alpha=alpha,
                          d_fused_left=d_left, d_fused_right=d_right)


@dataclass(frozen=True)
class PerChunkMemory:
    """What ``assemble_per_chunk`` builds: the memory's rows and provenance,
    and its short chunks and middle shortfall as the manifest writes them."""

    flattened: np.ndarray
    provenance: np.ndarray
    short_chunks: list[int]
    middle_shortfall: dict[str, int]

    @property
    def width(self) -> int:
        return self.flattened.shape[1]


def assemble_per_chunk(fused_lefts, fused_rights, encodings, middle_indices, starts,
                       middle_requested: int) -> PerChunkMemory:
    """``assemble`` one chunk at a time, reading each chunk's length and start.

    Each chunk may bring its own number of rows and of middle indices,
    so this checks nothing the array version assumes about equal lengths.
    """
    c, k, d = fused_lefts.shape
    rows = sum(2 * k + len(idx) for idx in middle_indices)
    flattened = np.empty((rows, d), dtype=np.float64)
    provenance = np.empty((rows, 3), dtype=np.int64)
    short, shortfall = [], {}
    r = 0
    for i, (enc, idx, start) in enumerate(zip(encodings, middle_indices, starts)):
        n, m = len(enc), len(idx)
        end = r + 2 * k + m
        flattened[r:r + k] = fused_lefts[i]
        flattened[r + k:end - k] = enc[idx]
        flattened[end - k:end] = fused_rights[i]
        provenance[r:end, CHUNK] = i + 1
        provenance[r:end, ROLE] = [LEFT] * k + [MIDDLE] * m + [RIGHT] * k
        provenance[r:end, POSITION] = [*range(k), *idx, *range(n - k, n)]
        provenance[r:end, POSITION] += start
        if n < 2 * k:
            short.append(i + 1)
        if m < middle_requested:
            shortfall[str(i + 1)] = middle_requested - m
        r = end
    return PerChunkMemory(flattened, provenance, short, shortfall)


def windows_one_by_one(tokens: Sequence[int], chunk_len: int,
                       overlap: int) -> list[tuple[int, tuple[int, ...]]]:
    """(start, tokens) of each window, placed one at a time until the end is covered.

    Each window starts a stride after the previous one; a window that
    would run past the end is pulled back to end at the last token. The
    window count comes out of the loop, not from a formula.
    """
    toks = tuple(tokens)
    width = min(chunk_len, len(toks))
    out = []
    start = 0
    while True:
        start = min(start, len(toks) - width)
        out.append((start, toks[start:start + width]))
        if start + width >= len(toks):
            return out
        start += chunk_len - overlap


def reconstruct(segment_set) -> tuple[int, ...]:
    """The token sequence a ``SegmentSet``'s windows cover, read back from them.

    The first window is taken whole; each later window contributes only
    the tokens at source positions not yet emitted. A window that leaves
    a gap, or ends before the covered positions, raises ``InputError``.
    """
    out: list[int] = []
    covered = 0
    for i, (start, window) in enumerate(zip(segment_set.starts.tolist(),
                                            segment_set.tokens.tolist()), start=1):
        if start > covered:
            raise InputError(f"window {i} starts at {start} but only {covered} "
                             "positions are covered")
        if start + len(window) < covered:
            raise InputError(f"window {i} ends before already-covered positions")
        out.extend(window[covered - start:])
        covered = start + len(window)
    return tuple(out)


def synthetic_chunks(rng: np.random.Generator, n_chunks: int, chunk_len: int, dim: int):
    """Starts of back-to-back windows of ``chunk_len`` tokens, and random (C, n, d) encodings."""
    return np.arange(n_chunks) * chunk_len, rng.normal(size=(n_chunks, chunk_len, dim))


def kept_rows(encodings: np.ndarray, boundary_width: int, middle_indices,
              starts) -> tuple[np.ndarray, np.ndarray]:
    """(C, 2k + t, d) kept rows and (C, 2k + t) document positions, chunk by chunk.

    Each chunk keeps its first k rows, the rows ``middle_indices`` names
    and its last k rows, as ``encode_document`` does.
    """
    k = boundary_width
    rows, positions = [], []
    for enc, idx, start in zip(encodings, np.asarray(middle_indices).tolist(),
                               np.asarray(starts).tolist()):
        keep = [*range(k), *idx, *range(len(enc) - k, len(enc))]
        rows.append(enc[keep])
        positions.append([start + i for i in keep])
    return np.stack(rows), np.array(positions, dtype=np.int64)


def gaussian_weights(cfg: ModelConfig) -> EncoderWeights:
    """Encoder weights of ``init_weights``' shapes, drawn by numpy from ``cfg.seed``.

    Each array has std 1/sqrt(its rows). A stand-in where any weights
    do: the seeded draw of ``init_weights`` at d_model 256 takes about a
    second.
    """
    rng = np.random.default_rng(cfg.seed)
    d, f = cfg.d_model, cfg.d_ff

    def draw(*shape):
        return rng.normal(size=shape) / np.sqrt(shape[0])

    return EncoderWeights(cfg, draw(cfg.vocab_size, d), tuple(
        LayerWeights(AttentionWeights(draw(d, d), draw(d, d), draw(d, d), draw(d, d)),
                     draw(d, f), draw(f, d))
        for _ in range(cfg.n_layers)))


def encode_document_per_window(tokens, cfg, weights, doc_id: str):
    """``encode_document`` with one ``encode`` call per window, the kept rows stacked after.

    Each chunk keeps its first k rows, its interior sample and its last
    k rows, listed one chunk at a time.
    """
    segs = segment(tokens, cfg.chunk_len, cfg.overlap)
    n = segs.tokens.shape[1]
    k = cfg.boundary_width
    middles = sample_document_middles(segs, cfg, middle_rng_for(cfg, doc_id))
    rows, positions = [], []
    for window, start, idx in zip(segs.tokens, segs.starts.tolist(), middles.tolist()):
        keep = np.array([*range(k), *idx, *range(n - k, n)], dtype=np.int64)
        rows.append(encode(window[None], weights, keep[None])[0])
        positions.append(keep + start)
    return segs, np.stack(rows), np.stack(positions)


def fused_by_stages(tokens, cfg, weights, doc_id: str = "doc"):
    """One document's memory, composed by hand: ``encode_document``, then ``assemble``."""
    _, rows, positions = encode_document(tokens, cfg, weights, doc_id)
    return assemble(rows, positions, cfg.boundary_width, cfg.middle_count, cfg.alpha)


def probe_runs(docs, alpha: float, cfg, weights=None):
    """One assembled sequence per document, run under ``cfg`` at ``alpha``."""
    cfg = replace(cfg, alpha=alpha)
    weights = init_weights(cfg.encoder_config()) if weights is None else weights
    return [fused_by_stages(doc, cfg, weights) for doc in docs]


def sweep_per_variant(docs, variants, weights):
    """Per variant, one fused memory per ``(doc_id, tokens)``, each from its own encode."""
    return [[fused_by_stages(tokens, variant, weights, doc_id) for doc_id, tokens in docs]
            for variant in variants]


def matrix_to_text_per_value(a: np.ndarray) -> str:
    """``save_matrix``'s text one entry at a time: ``repr(float(v))`` of each value."""
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for row in a:
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def matrix_from_text_per_value(text: str) -> np.ndarray:
    """``load_matrix`` on well-formed text, one ``float()`` per entry."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    rows, cols = (int(v) for v in lines[0].split())
    data = np.empty((rows, cols), dtype=np.float64)
    for i, line in enumerate(lines[1:]):
        data[i] = [float(p) for p in line.split()]
    return data


_MASK64 = (1 << 64) - 1


def next_u64(rng: SeededRng) -> int:
    """One SplitMix64 step of ``rng``, in Python ints: the output ``_u64_blocks`` yields."""
    rng._state = (rng._state + 0x9E3779B97F4A7C15) & _MASK64
    z = rng._state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def randint_below(rng: SeededRng, n: int) -> int:
    """Uniform-ish integer in [0, n); modulo reduction, as the library's draws use."""
    if n <= 0:
        raise ConfigError("randint_below requires n >= 1")
    return next_u64(rng) % n


def uniform(rng: SeededRng) -> float:
    """Uniform draw in [0, 1) from the top 53 bits of ``next_u64(rng)``."""
    return (next_u64(rng) >> 11) * 2.0**-53


def gaussian(rng: SeededRng) -> float:
    """One standard normal draw from ``rng`` (Box-Muller, pairs cached)."""
    if rng._gauss_spare is not None:
        z = rng._gauss_spare
        rng._gauss_spare = None
        return z
    # 1 - uniform() lies in (0, 1], keeping log() finite
    r = math.sqrt(-2.0 * math.log(1.0 - uniform(rng)))
    theta = 2.0 * math.pi * uniform(rng)
    rng._gauss_spare = r * math.sin(theta)
    return r * math.cos(theta)


def normal_matrix_per_value(rng: SeededRng, rows: int, cols: int, std: float) -> np.ndarray:
    """``SeededRng.normal_matrix`` one :func:`gaussian` draw per entry."""
    out = np.empty(rows * cols, dtype=np.float64)
    for i in range(out.size):
        out[i] = gaussian(rng) * std
    return out.reshape(rows, cols)


def token_ids_per_value(rng: SeededRng, count: int, vocab_size: int) -> tuple[int, ...]:
    """``SeededRng.token_ids`` one :func:`randint_below` draw per token."""
    return tuple(randint_below(rng, vocab_size) for _ in range(count))


def sample_indices_per_value(rng: SeededRng, population: int, count: int) -> list[int]:
    """One row of ``SeededRng.sample_indices``: partial Fisher-Yates on a list,
    one :func:`randint_below` draw per swap."""
    if count > population:
        raise ConfigError(f"cannot sample {count} of {population} without replacement")
    pool = list(range(population))
    for i in range(count):
        j = i + randint_below(rng, population - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:count]


def softmax_out_of_place(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, each step in a new array; ``x`` is left unchanged."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def layer_norm_mean_var(x: np.ndarray) -> np.ndarray:
    """Layer norm from ``ndarray.mean`` and ``ndarray.var``, with the encoder's eps."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + _LN_EPS)


def causal_mask(n: int) -> np.ndarray:
    """The (n x n) additive mask by which query i reads keys 0..i: 0 there, -inf after."""
    mask = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        mask[i, i + 1:] = -np.inf
    return mask


def attention_scaled_after(
    x: np.ndarray,
    kv: tuple[np.ndarray, np.ndarray],
    w: AttentionWeights,
    n_heads: int,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``encoder._attention`` with the ``1/sqrt(d_head)`` scale always after ``q @ kᵀ``."""
    q = _split_heads(x @ w.wq, n_heads)
    k, v = kv
    scores = q @ k.swapaxes(-1, -2)
    scores /= math.sqrt(x.shape[-1] // n_heads)
    if mask is not None:
        scores += mask
    attn = _softmax_last(scores)
    return (attn @ v).swapaxes(-3, -2).reshape(x.shape) @ w.wo, attn


def decode_uncached(
    prefix: Sequence[int],
    memory: FusedSequence,
    cfg: ModelConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """One decoder pass of :func:`attention_scaled_after` that projects the memory's
    keys and values in every layer.

    Returns the logits and the final layer's (heads x prefix length x
    memory rows) cross-attention, which ``decode_step`` averages over heads.
    """
    ids = _token_ids(prefix, cfg, "prefix")
    if memory.width != cfg.d_model:
        raise ConfigError(f"memory width {memory.width} does not match d_model {cfg.d_model}")
    weights = _cached_weights(cfg)
    n = ids.size
    mask = causal_mask(n)
    h = weights.embedding[ids] + sinusoidal_positions(cfg.max_len, cfg.d_model)[:n]
    for lw in weights.layers:
        x = _layer_norm(h)
        h = h + attention_scaled_after(x, _keys_values(x, lw.block.attn, cfg.n_heads),
                                       lw.block.attn, cfg.n_heads, mask)[0]
        out, cross = attention_scaled_after(_layer_norm(h),
                                            _keys_values(memory.flattened, lw.cross,
                                                         cfg.n_heads),
                                            lw.cross, cfg.n_heads)
        h = h + out
        h = h + _feed_forward(_layer_norm(h), lw.block)
    logits = _layer_norm(h) @ weights.out_proj
    return check_finite(logits, "decoder logits"), cross


def decode_per_position(prefix: Sequence[int], memory: FusedSequence, cfg: ModelConfig,
                        steps: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """``prefix``, then ``steps`` greedy tokens, one position at a time, as a textbook
    incremental decoder runs them.

    Each layer keeps a list of every position's self-attention keys and
    one of its values; position i appends its own, then attends, with
    :func:`attention_scaled_after`, over the lists joined. Returns the
    tokens, each position's next-token logits (positions x vocab), and its
    last-layer cross-attention averaged over heads (positions x memory rows).
    """
    if memory.width != cfg.d_model:
        raise ConfigError(f"memory width {memory.width} does not match d_model {cfg.d_model}")
    weights = _cached_weights(cfg)
    tokens = _token_ids(prefix, cfg, "prefix").tolist()
    memory_kv = [_keys_values(memory.flattened, lw.cross, cfg.n_heads) for lw in weights.layers]
    keys = [[] for _ in weights.layers]
    values = [[] for _ in weights.layers]
    logits, rows = [], []
    table = sinusoidal_positions(cfg.max_len, cfg.d_model)
    i = 0
    while i < len(tokens):
        h = weights.embedding[[tokens[i]]] + table[[i]]
        for layer, lw in enumerate(weights.layers):
            x = _layer_norm(h)
            k, v = _keys_values(x, lw.block.attn, cfg.n_heads)
            keys[layer].append(k)
            values[layer].append(v)
            kv = np.concatenate(keys[layer], axis=-2), np.concatenate(values[layer], axis=-2)
            h = h + attention_scaled_after(x, kv, lw.block.attn, cfg.n_heads)[0]
            out, cross = attention_scaled_after(_layer_norm(h), memory_kv[layer], lw.cross,
                                                cfg.n_heads)
            h = h + out
            h = h + _feed_forward(_layer_norm(h), lw.block)
        logits.append((_layer_norm(h) @ weights.out_proj)[0])
        rows.append(cross.mean(axis=0)[0])
        if i + 1 == len(tokens) < len(prefix) + steps:
            tokens.append(int(logits[-1].argmax()))
        i += 1
    return tokens, check_finite(np.array(logits), "decoder logits"), np.array(rows)


def greedy_decode_uncached(prefix: Sequence[int], memory: FusedSequence, cfg: ModelConfig,
                           steps: int) -> list[int]:
    """``steps`` :func:`decode_uncached` passes, appending the argmax token each time."""
    out = list(prefix)
    for _ in range(steps):
        out.append(int(decode_uncached(out, memory, cfg)[0][-1].argmax()))
    return out
