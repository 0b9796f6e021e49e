import numpy as np
import pytest
from oracles import kept_rows, layer_norm_mean_var, softmax_out_of_place, synthetic_chunks

from chunkfuse import decoder, encoder
from chunkfuse.cumulation import MIDDLE, assemble
from chunkfuse.decoder import (
    _causal_mask,
    attention_mass_by_chunk,
    decode_step,
    init_decoder_weights,
)
from chunkfuse.encoder import ModelConfig, _attention
from chunkfuse.errors import ConfigError, InputError
from chunkfuse.pipeline import PipelineConfig, run_document


def decoder_config(**overrides) -> ModelConfig:
    base = dict(vocab_size=40, d_model=16, n_heads=4, n_layers=2,
                d_ff=32, max_len=32, seed=21)
    base.update(overrides)
    return ModelConfig(**base)


def make_memory(rng, n_chunks=3, width=1, middle=2, dim=16, alpha=0.5):
    """(kept rows, their positions, memory): random chunks assembled into a memory."""
    starts, encs = synthetic_chunks(rng, n_chunks, 2 * width + middle, dim)
    indices = np.tile(np.arange(width, width + middle), (n_chunks, 1))
    rows, positions = kept_rows(encs, width, indices, starts)
    memory = assemble(rows, positions, width, middle, alpha)
    return rows, positions, memory


def test_decode_step_shapes_and_stochastic_rows():
    rng = np.random.default_rng(0)
    *_, memory = make_memory(rng)
    cfg = decoder_config()
    logits, cross = decode_step([1, 2, 3], memory, cfg)
    assert logits.shape == (3, cfg.vocab_size)
    assert cross.shape == (3, memory.rows)
    np.testing.assert_allclose(cross.sum(axis=1), 1.0, atol=1e-9)


def test_cross_attention_width_matches_assembly_formula():
    rng = np.random.default_rng(1)
    n_chunks, width, middle = 4, 2, 3
    *_, memory = make_memory(rng, n_chunks=n_chunks, width=width, middle=middle)
    _, cross = decode_step([0], memory, decoder_config())
    assert cross.shape[1] == n_chunks * (2 * width + middle)


def test_decode_is_deterministic():
    rng = np.random.default_rng(2)
    *_, memory = make_memory(rng)
    cfg = decoder_config()
    a = decode_step([5, 6], memory, cfg)
    b = decode_step([5, 6], memory, cfg)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_perturbing_last_right_boundary_moves_logits():
    rng = np.random.default_rng(3)
    rows, positions, memory = make_memory(rng, n_chunks=3, alpha=0.5)
    cfg = decoder_config()
    base_logits, _ = decode_step([1], memory, cfg)

    bumped = rows.copy()
    bumped[-1, -1] += 0.25  # the last chunk's right boundary row
    new_memory = assemble(bumped, positions, 1, 2, 0.5)
    new_logits, _ = decode_step([1], new_memory, cfg)
    assert np.max(np.abs(new_logits - base_logits)) > 0


def test_memory_width_contract():
    rng = np.random.default_rng(4)
    *_, memory = make_memory(rng, dim=16)
    with pytest.raises(ConfigError):
        decode_step([1], memory, decoder_config(d_model=32, n_heads=4))


def test_empty_prefix_rejected():
    rng = np.random.default_rng(6)
    *_, memory = make_memory(rng)
    with pytest.raises(InputError):
        decode_step([], memory, decoder_config())


def test_prefix_token_out_of_range():
    rng = np.random.default_rng(7)
    *_, memory = make_memory(rng)
    cfg = decoder_config()
    with pytest.raises(InputError):
        decode_step([cfg.vocab_size], memory, cfg)


def test_decoder_weights_deterministic():
    cfg = decoder_config()
    a, b = init_decoder_weights(cfg), init_decoder_weights(cfg)
    np.testing.assert_array_equal(a.embedding, b.embedding)
    np.testing.assert_array_equal(a.out_proj, b.out_proj)
    np.testing.assert_array_equal(a.layers[0].cross_k, b.layers[0].cross_k)


@pytest.mark.parametrize("kind", ["causal self-attention", "cross-attention"])
def test_attention_leaves_its_inputs_unchanged(kind):
    # the scores array is the only one attention writes in place
    rng = np.random.default_rng(8)
    *_, memory = make_memory(rng)
    cfg = decoder_config()
    lw = init_decoder_weights(cfg).layers[0]
    n = 5
    x = rng.normal(size=(n, cfg.d_model))
    if kind == "causal self-attention":
        sa = lw.self_attn
        args = (x, x, sa.wq, sa.wk, sa.wv, sa.wo, cfg.n_heads, _causal_mask(n))
    else:
        args = (x, memory.flattened, lw.cross_q, lw.cross_k, lw.cross_v, lw.cross_o,
                cfg.n_heads, None)
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    before = [a.tobytes() for a in arrays]
    _attention(*args)
    assert [a.tobytes() for a in arrays] == before


# perfbench's three model configs, each on short windows
STACK_CONFIGS = {
    "long-doc": PipelineConfig(chunk_len=48, overlap=8, boundary_width=1, middle_count=12,
                               d_model=32, n_heads=2, n_layers=2, d_ff=64, vocab_size=128,
                               seed=7),
    "small-window": PipelineConfig(chunk_len=48, overlap=8, boundary_width=2, middle_count=6,
                                   d_model=32, n_heads=4, n_layers=2, d_ff=64,
                                   vocab_size=128, seed=7),
    "wide-corpus": PipelineConfig(chunk_len=48, overlap=8, boundary_width=2, middle_count=12,
                                  d_model=256, n_heads=4, n_layers=2, d_ff=1024,
                                  vocab_size=1024, seed=7),
}


def stack_bytes(cfg: PipelineConfig) -> tuple[bytes, bytes, bytes]:
    """The memory, logits and cross-attention of one short document, as bytes."""
    tokens = [(37 * i + 11) % cfg.vocab_size for i in range(150)]
    memory = run_document(tokens, cfg, doc_id="doc").fused
    logits, cross = decode_step(tokens[:8], memory, cfg.decoder_config(16))
    return memory.flattened.tobytes(), logits.tobytes(), cross.tobytes()


@pytest.mark.parametrize("name", sorted(STACK_CONFIGS))
def test_stack_is_bitwise_the_out_of_place_routines(name, monkeypatch):
    cfg = STACK_CONFIGS[name]
    shipped = stack_bytes(cfg)
    called = set()

    def counted(module, oracle):
        def run(x):
            called.add((module.__name__, oracle.__name__))
            return oracle(x)
        return run

    monkeypatch.setattr(encoder, "_softmax_last", counted(encoder, softmax_out_of_place))
    # the decoder imports the layer norm by name
    for module in (encoder, decoder):
        monkeypatch.setattr(module, "_layer_norm", counted(module, layer_norm_mean_var))
    assert stack_bytes(cfg) == shipped
    assert len(called) == 3  # every patched routine ran


class TestAttentionMass:
    def _provenance(self, sizes):
        chunks = np.repeat(np.arange(1, len(sizes) + 1), sizes)
        return np.column_stack([chunks, np.full_like(chunks, MIDDLE),
                                np.arange(len(chunks))])

    def test_uniform_attention_equal_chunks(self):
        prov = self._provenance([3, 3, 3, 3])
        attn = np.full((2, 12), 1.0 / 12)
        np.testing.assert_allclose(attention_mass_by_chunk(attn, prov),
                                   [0.25, 0.25, 0.25, 0.25], atol=1e-12)

    def test_single_chunk(self):
        prov = self._provenance([5])
        attn = np.full((1, 5), 0.2)
        np.testing.assert_allclose(attention_mass_by_chunk(attn, prov), [1.0])

    def test_matches_brute_force_grouping(self):
        rng = np.random.default_rng(8)
        sizes = [2, 5, 1, 4]
        prov = self._provenance(sizes)
        raw = rng.uniform(size=(3, sum(sizes)))
        attn = raw / raw.sum(axis=1, keepdims=True)
        got = attention_mass_by_chunk(attn, prov)

        expected = np.zeros(len(sizes))
        for q in range(attn.shape[0]):
            col = 0
            for ci, size in enumerate(sizes):
                expected[ci] += attn[q, col:col + size].sum()
                col += size
        expected /= attn.shape[0]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_misaligned_provenance(self):
        prov = self._provenance([2, 2])
        with pytest.raises(ConfigError, match="5 attention columns"):
            attention_mass_by_chunk(np.full((1, 5), 0.2), prov)

    def test_non_stochastic_rows_rejected(self):
        prov = self._provenance([2, 2])
        with pytest.raises(InputError, match="sum to 1"):
            attention_mass_by_chunk(np.full((1, 4), 0.3), prov)

    @pytest.mark.parametrize("chunks", [[0, 0, 1, 1, 2, 2], [1, 2, -1], []])
    def test_chunk_ids_below_one_rejected(self, chunks):
        # an id of 0 would otherwise land on the last chunk through index -1
        prov = np.column_stack([chunks, np.full(len(chunks), MIDDLE),
                                np.arange(len(chunks))]).astype(np.int64)
        attn = np.full((2, len(chunks)), 1.0 / max(len(chunks), 1))
        with pytest.raises(ConfigError, match="chunk id >= 1"):
            attention_mass_by_chunk(attn, prov)
