import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import attention_scaled_after, causal_mask

import chunkfuse
from chunkfuse.encoder import (
    ModelConfig,
    _attention,
    _draw_attention,
    _keys_values,
    _layer_norm,
    encode,
    init_weights,
    sinusoidal_positions,
)
from chunkfuse.errors import ConfigError, InputError
from chunkfuse.numerics import SeededRng
from chunkfuse.pipeline import PipelineConfig, encode_document


def small_config(**overrides) -> ModelConfig:
    base = dict(vocab_size=50, d_model=16, n_heads=4, n_layers=2,
                d_ff=32, max_len=64, seed=77)
    base.update(overrides)
    return ModelConfig(**base)


def encode_full(tokens, weights) -> np.ndarray:
    """Every row of one window's encoding."""
    return encode([tokens], weights, np.arange(len(tokens))[None])[0]


def test_config_head_divisibility():
    with pytest.raises(ConfigError):
        small_config(d_model=10, n_heads=4)
    # PipelineConfig leaves the model dimensions to ModelConfig
    with pytest.raises(ConfigError):
        PipelineConfig(d_model=10, n_heads=4)


def test_zero_heads_is_a_config_error():
    # the divisibility check once ran first and divided by zero, a program fault
    with pytest.raises(ConfigError, match="must be >= 1"):
        small_config(n_heads=0)


def test_init_deterministic():
    cfg = small_config()
    w1, w2 = init_weights(cfg), init_weights(cfg)
    np.testing.assert_array_equal(w1.embedding, w2.embedding)
    for a, b in zip(w1.layers, w2.layers):
        np.testing.assert_array_equal(a.attn.wq, b.attn.wq)
        np.testing.assert_array_equal(a.w2, b.w2)


def test_init_seeds_differ():
    a = init_weights(small_config(seed=1))
    b = init_weights(small_config(seed=2))
    assert np.max(np.abs(a.embedding - b.embedding)) > 0


def test_init_variance_matches_fan_in():
    cfg = ModelConfig(vocab_size=8, d_model=64, n_heads=4, n_layers=1,
                      d_ff=64, max_len=8, seed=5)
    wq = init_weights(cfg).layers[0].attn.wq
    assert wq.shape == (64, 64)
    assert abs(wq.var() - 1.0 / 64) / (1.0 / 64) < 0.2


def test_encode_is_pure():
    cfg = small_config()
    w = init_weights(cfg)
    window = (1, 2, 3, 4, 5)
    np.testing.assert_array_equal(encode_full(window, w), encode_full(window, w))


def test_encode_shape():
    cfg = small_config()
    w = init_weights(cfg)
    rng = np.random.default_rng(0)
    for _ in range(5):
        n = int(rng.integers(1, cfg.max_len + 1))
        toks = tuple(int(t) for t in rng.integers(0, cfg.vocab_size, n))
        out = encode_full(toks, w)
        assert out.shape == (n, cfg.d_model)
        assert np.all(np.isfinite(out))
        assert encode([toks], w, np.array([[0, n - 1, 0]])).shape == (1, 3, cfg.d_model)


def test_stacked_windows_are_bitwise_one_window_calls():
    # three windows of max_len tokens: the length check reads a window, not the stack
    cfg = small_config()
    w = init_weights(cfg)
    tokens = np.random.default_rng(4).integers(0, cfg.vocab_size, (3, cfg.max_len))
    keep = np.array([[0, 5, 5, 63], [1, 2, 3, 4], [63, 0, 7, 7]])
    got = encode(tokens, w, keep)
    assert got.shape == (3, 4, cfg.d_model)
    for window, kept, rows in zip(tokens, keep, got):
        assert rows.tobytes() == encode(window[None], w, kept[None])[0].tobytes()


def test_positions_make_order_matter():
    cfg = small_config()
    w = init_weights(cfg)
    tokens = (3, 9, 9, 4, 20, 31)
    swapped = (9, 3, 9, 4, 20, 31)
    a = encode_full(tokens, w)
    b = encode_full(swapped, w)
    assert np.max(np.abs(a - b)) > 0


def test_token_id_out_of_range():
    cfg = small_config()
    w = init_weights(cfg)
    with pytest.raises(InputError):
        encode_full((0, cfg.vocab_size), w)


def test_segment_longer_than_max_len():
    cfg = small_config(max_len=4)
    w = init_weights(cfg)
    with pytest.raises(InputError):
        encode_full((0, 1, 2, 3, 4), w)


def test_attention_rows_sum_to_one_every_layer():
    # at every layer's weights: all rows as queries (the lower blocks), and
    # the kept rows as queries over all rows (the top block)
    cfg = small_config()
    w = init_weights(cfg)
    x = _layer_norm(w.embedding[:10] + sinusoidal_positions(10, cfg.d_model))
    for lw in w.layers:
        for queries in (x, x[[0, 1, 5, 9, 9]]):
            _, attn = _attention(queries, _keys_values(x, lw.attn, cfg.n_heads),
                                 lw.attn, cfg.n_heads)
            assert attn.shape == (cfg.n_heads, len(queries), 10)
            np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-9)


# square head dims (1, 4, 16, 64) scale the queries, the others the scores
@settings(max_examples=150, deadline=None)
@given(d_head=st.sampled_from([1, 2, 4, 8, 16, 32, 64]), n_heads=st.integers(1, 3),
       lead=st.sampled_from([(), (1,), (2,), (3,)]), n_keys=st.integers(1, 64),
       data=st.data(), seed=st.integers(0, 2**64 - 1))
def test_attention_is_bitwise_the_scale_after_product_oracle(d_head, n_heads, lead, n_keys,
                                                             data, seed):
    # seeded weights over layer-normed rows: the encoder's and decoder's domain.
    # The decoder's causal self-attention (row i over a cache of rows 0..i), or
    # fewer query rows than keys, as in cross-attention and the top block's kept rows
    d = d_head * n_heads
    w = _draw_attention(SeededRng(seed), d)
    rng = np.random.default_rng(seed)
    source = _layer_norm(rng.normal(size=(*lead, n_keys, d)))
    kv = _keys_values(source, w, n_heads)
    causal = data.draw(st.booleans(), label="causal")
    if causal:
        i = data.draw(st.integers(0, n_keys - 1), label="i")
        x, cache = source[..., i:i + 1, :], np.stack(kv)[..., :i + 1, :]
    else:
        n_queries = data.draw(st.integers(1, n_keys), label="n_queries")
        x, cache = _layer_norm(rng.normal(size=(*lead, n_queries, d))), kv
    got = _attention(x, cache, w, n_heads)
    want = attention_scaled_after(x, cache, w, n_heads)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    if causal:
        # the oracle's masked full form sums and multiplies in other shapes
        out, probs = attention_scaled_after(source, kv, w, n_heads, causal_mask(n_keys))
        np.testing.assert_allclose(got[0], out[..., i:i + 1, :], rtol=0, atol=1e-12)
        np.testing.assert_allclose(got[1], probs[..., i:i + 1, :i + 1], rtol=0, atol=1e-12)
        assert not probs[..., i, i + 1:].any()


def pipeline_config() -> PipelineConfig:
    """small_config's model, cut into 8-token windows overlapping by 2."""
    return PipelineConfig(chunk_len=8, overlap=2, middle_count=2, vocab_size=50,
                          d_model=16, n_heads=4, n_layers=2, d_ff=32, seed=77)


def test_encode_document_order_and_chunk_independence():
    cfg = pipeline_config()
    w = init_weights(cfg.encoder_config())
    tokens = list(range(24))
    segs, rows, positions = encode_document(tokens, cfg, w, "doc")
    assert rows.shape == (segs.count, 2 * 1 + 2, cfg.d_model)
    assert positions.shape == (segs.count, 4)
    assert segs.tokens.shape == (segs.count, 8)
    for window, start, kept, got in zip(segs.tokens, segs.starts, positions, rows):
        full = encode_full(window, w)
        assert got.tobytes() == full[kept - start].tobytes()

    # editing one chunk's tokens leaves the others bitwise unchanged
    edited = list(tokens)
    edited[0] = 42  # only inside chunk 1
    _, rows2, positions2 = encode_document(edited, cfg, w, "doc")
    np.testing.assert_array_equal(positions, positions2)
    assert np.max(np.abs(rows[0] - rows2[0])) > 0
    for a, b in zip(rows[1:], rows2[1:]):
        np.testing.assert_array_equal(a, b)


def test_sinusoidal_positions_bounds():
    table = sinusoidal_positions(32, 16)
    assert table.shape == (32, 16)
    assert np.max(np.abs(table)) <= 1.0
    assert np.max(np.abs(table[0] - np.tile([0.0, 1.0], 8))) < 1e-15


def test_cached_position_table_is_read_only():
    # the cache hands one array to every caller: a write would reach every later encode
    table = sinusoidal_positions(8, 4)
    before = table.copy()
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 7.0
    assert sinusoidal_positions(8, 4) is table
    assert table.tobytes() == before.tobytes()


# (chunk_len, d_model) of perfbench's long-doc, small-window and wide-corpus configs
@pytest.mark.parametrize("chunk_len, dim", [(1024, 32), (64, 32), (256, 256)])
def test_window_position_table_is_prefix_of_max_len_table(chunk_len, dim):
    # encode sizes the table by the window; a window shorter than max_len must
    # get bitwise the rows a max_len-sized table would have given it
    full = sinusoidal_positions(chunk_len, dim)
    for n in sorted({1, 2, 3, 17, chunk_len // 2 + 1, chunk_len - 1, chunk_len}):
        assert sinusoidal_positions(n, dim).tobytes() == full[:n].tobytes(), n


def test_short_document_memory_does_not_scale_with_chunk_len():
    # a 200-token document encodes 200 positions in any window that holds it:
    # a max_len-sized position table at 100000 x 32 floats alone would be 25.6 MB
    import tracemalloc

    from chunkfuse.pipeline import run_document
    tokens = tuple(range(64)) * 3 + tuple(range(8))
    peaks = []
    for chunk_len in (256, 100_000):
        cfg = PipelineConfig(chunk_len=chunk_len, overlap=16, middle_count=8, d_model=32,
                             n_heads=4, d_ff=64, vocab_size=64, seed=3)
        weights = init_weights(cfg.encoder_config())
        sinusoidal_positions.cache_clear()
        tracemalloc.start()
        try:
            run_document(tokens, cfg, weights=weights)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0], peaks


def test_encodings_deterministic_from_seed():
    cfg = pipeline_config()
    _, a, _ = encode_document(list(range(30)), cfg, init_weights(cfg.encoder_config()), "d")
    _, b, _ = encode_document(list(range(30)), cfg, init_weights(cfg.encoder_config()), "d")
    np.testing.assert_array_equal(a, b)


# the configs of perfbench's long-doc, small-window and wide-corpus workloads;
# only small-window's windows share an encode call. At the long-doc shape a
# keep of under 62 rows is not bitwise (see ``encode``)
THREAD_GUARD_CONFIGS = [
    dict(chunk_len=1024, overlap=150, boundary_width=1, middle_count=300, d_model=32,
         n_heads=2, n_layers=2, d_ff=64, vocab_size=128, seed=7),
    dict(chunk_len=64, overlap=16, boundary_width=2, middle_count=6, d_model=32,
         n_heads=4, n_layers=2, d_ff=64, vocab_size=128, seed=7),
    dict(chunk_len=256, overlap=32, boundary_width=2, middle_count=124, d_model=256,
         n_heads=4, n_layers=2, d_ff=1024, vocab_size=1024, seed=7),
]

# encodes two groups and one window more per config, and prints, per
# config, whether every row encode_document keeps equals the full
# one-window encoding's row bitwise
THREAD_GUARD_SCRIPT = """
import json, sys
import numpy as np
from oracles import gaussian_weights
from chunkfuse.encoder import encode
from chunkfuse.pipeline import _SCORES_BUDGET, PipelineConfig, encode_document

for fields in json.loads(sys.argv[1]):
    cfg = PipelineConfig(**fields)
    n, stride = cfg.chunk_len, cfg.chunk_len - cfg.overlap
    group = max(1, _SCORES_BUDGET // (8 * cfg.n_heads * n * n))
    weights = gaussian_weights(cfg.encoder_config())
    tokens = np.random.default_rng(cfg.seed).integers(0, cfg.vocab_size, n + 2 * group * stride)
    segs, rows, positions = encode_document(tokens.tolist(), cfg, weights, "guard")
    print(segs.count == 2 * group + 1 and all(
        got.tobytes() == encode(window[None], weights,
                                np.arange(n)[None])[0][kept - start].tobytes()
        for window, start, kept, got in zip(segs.tokens, segs.starts, positions, rows)))
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_kept_rows_match_full_rows_at_blas_thread_counts(threads):
    # the pruned top block multiplies fewer rows than the full one; the
    # thread count must not make those products round differently
    tests = Path(__file__).resolve().parent
    src = str(Path(chunkfuse.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join([src, str(tests), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", THREAD_GUARD_SCRIPT,
                           json.dumps(THREAD_GUARD_CONFIGS)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"] * len(THREAD_GUARD_CONFIGS)

