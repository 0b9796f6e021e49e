import numpy as np
import pytest

from chunkfuse.encoder import ModelConfig, encode, init_weights, sinusoidal_positions
from chunkfuse.errors import ConfigError, InputError
from chunkfuse.pipeline import PipelineConfig, encode_document


def small_config(**overrides) -> ModelConfig:
    base = dict(vocab_size=50, d_model=16, n_heads=4, n_layers=2,
                d_ff=32, max_len=64, seed=77)
    base.update(overrides)
    return ModelConfig(**base)


def test_config_head_divisibility():
    with pytest.raises(ConfigError):
        small_config(d_model=10, n_heads=4)
    # PipelineConfig leaves the model dimensions to ModelConfig
    with pytest.raises(ConfigError):
        PipelineConfig(d_model=10, n_heads=4)


def test_init_deterministic():
    cfg = small_config()
    w1, w2 = init_weights(cfg), init_weights(cfg)
    np.testing.assert_array_equal(w1.embedding, w2.embedding)
    for a, b in zip(w1.layers, w2.layers):
        np.testing.assert_array_equal(a.wq, b.wq)
        np.testing.assert_array_equal(a.w2, b.w2)


def test_init_seeds_differ():
    a = init_weights(small_config(seed=1))
    b = init_weights(small_config(seed=2))
    assert np.max(np.abs(a.embedding - b.embedding)) > 0


def test_init_variance_matches_fan_in():
    cfg = ModelConfig(vocab_size=8, d_model=64, n_heads=4, n_layers=1,
                      d_ff=64, max_len=8, seed=5)
    wq = init_weights(cfg).layers[0].wq
    assert wq.shape == (64, 64)
    assert abs(wq.var() - 1.0 / 64) / (1.0 / 64) < 0.2


def test_encode_is_pure():
    cfg = small_config()
    w = init_weights(cfg)
    window = (1, 2, 3, 4, 5)
    np.testing.assert_array_equal(encode(window, w, cfg),
                                  encode(window, w, cfg))


def test_encode_shape():
    cfg = small_config()
    w = init_weights(cfg)
    rng = np.random.default_rng(0)
    for _ in range(5):
        n = int(rng.integers(1, cfg.max_len + 1))
        toks = tuple(int(t) for t in rng.integers(0, cfg.vocab_size, n))
        out = encode(toks, w, cfg)
        assert out.shape == (n, cfg.d_model)
        assert np.all(np.isfinite(out))


def test_positions_make_order_matter():
    cfg = small_config()
    w = init_weights(cfg)
    tokens = (3, 9, 9, 4, 20, 31)
    swapped = (9, 3, 9, 4, 20, 31)
    a = encode(tokens, w, cfg)
    b = encode(swapped, w, cfg)
    assert np.max(np.abs(a - b)) > 0


def test_token_id_out_of_range():
    cfg = small_config()
    w = init_weights(cfg)
    with pytest.raises(InputError):
        encode((0, cfg.vocab_size), w, cfg)


def test_segment_longer_than_max_len():
    cfg = small_config(max_len=4)
    w = init_weights(cfg)
    with pytest.raises(InputError):
        encode((0, 1, 2, 3, 4), w, cfg)


def test_attention_rows_sum_to_one_every_layer():
    cfg = small_config()
    w = init_weights(cfg)
    seen = []
    encode(tuple(range(10)), w, cfg,
           attention_hook=lambda layer, attn: seen.append((layer, attn)))
    assert [layer for layer, _ in seen] == list(range(cfg.n_layers))
    for _, attn in seen:
        assert attn.shape == (cfg.n_heads, 10, 10)
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-9)


def pipeline_config() -> PipelineConfig:
    """small_config's model, cut into 8-token windows overlapping by 2."""
    return PipelineConfig(chunk_len=8, overlap=2, middle_count=2, vocab_size=50,
                          d_model=16, n_heads=4, n_layers=2, d_ff=32, seed=77)


def test_encode_document_order_and_chunk_independence():
    cfg = pipeline_config()
    w = init_weights(cfg.encoder_config())
    tokens = list(range(24))
    segs, encs = encode_document(tokens, cfg, w)
    assert encs.shape == (segs.count, 8, cfg.d_model)
    assert segs.tokens.shape == (segs.count, 8)
    for window, enc in zip(segs.tokens, encs):
        assert enc.tobytes() == encode(window, w, cfg.encoder_config()).tobytes()

    # editing one chunk's tokens leaves the others bitwise unchanged
    edited = list(tokens)
    edited[0] = 42  # only inside chunk 1
    _, encs2 = encode_document(edited, cfg, w)
    assert np.max(np.abs(encs[0] - encs2[0])) > 0
    for a, b in zip(encs[1:], encs2[1:]):
        np.testing.assert_array_equal(a, b)


def test_sinusoidal_positions_bounds():
    table = sinusoidal_positions(32, 16)
    assert table.shape == (32, 16)
    assert np.max(np.abs(table)) <= 1.0
    assert np.max(np.abs(table[0] - np.tile([0.0, 1.0], 8))) < 1e-15


def test_encodings_deterministic_from_seed():
    cfg = pipeline_config()
    _, a = encode_document(list(range(30)), cfg, init_weights(cfg.encoder_config()))
    _, b = encode_document(list(range(30)), cfg, init_weights(cfg.encoder_config()))
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)

