import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    attention_scaled_after,
    decode_uncached,
    greedy_decode_uncached,
    kept_rows,
    layer_norm_mean_var,
    softmax_out_of_place,
    synthetic_chunks,
)

from chunkfuse import decoder, encoder
from chunkfuse.cumulation import MIDDLE, assemble
from chunkfuse.decoder import (
    DecoderMemory,
    _causal_mask,
    attention_mass_by_chunk,
    decode_pass,
    decode_step,
    init_decoder_weights,
)
from chunkfuse.encoder import ModelConfig, _attention, _keys_values, init_weights
from chunkfuse.errors import ConfigError, InputError
from chunkfuse.pipeline import PipelineConfig, encode_document, greedy_decode, run_document


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


# decoder_config() has max_len 32 and vocab_size 40
@pytest.mark.parametrize("tokens, message", [
    ([], "is empty"),
    (list(range(33)), "length 33 exceeds max_len 32"),
    ([3, 40], r"token id outside \[0, 40\)"),
    ([-1, 3], r"token id outside \[0, 40\)"),
])
def test_both_stacks_check_their_token_ids_alike(tokens, message):
    cfg = decoder_config()
    *_, memory = make_memory(np.random.default_rng(8))
    with pytest.raises(InputError, match="window " + message):
        encoder.encode([tokens], encoder.init_weights(cfg), np.arange(len(tokens))[None])
    with pytest.raises(InputError, match="prefix " + message):
        decode_step(tokens, memory, cfg)


def test_decoder_weights_deterministic():
    cfg = decoder_config()
    a, b = init_decoder_weights(cfg), init_decoder_weights(cfg)
    np.testing.assert_array_equal(a.embedding, b.embedding)
    np.testing.assert_array_equal(a.out_proj, b.out_proj)
    for name in [f.name for f in fields(a.layers[0].cross)]:
        np.testing.assert_array_equal(getattr(a.layers[0].cross, name),
                                      getattr(b.layers[0].cross, name))


def test_greedy_decode_refuses_a_float_prefix():
    *_, memory = make_memory(np.random.default_rng(9))
    with pytest.raises(InputError, match="got float64 values"):
        greedy_decode([0.9], memory, decoder_config(), 2)


@pytest.mark.parametrize("stack", ["cached decoder", "encoder"])
def test_weight_stacks_are_read_only(stack):
    # every DecoderMemory of one config shares the cached stack: an edit would reach them all
    cfg = decoder_config()
    weights = decoder._cached_weights(cfg) if stack == "cached decoder" else init_weights(cfg)
    arrays = [weights.embedding, weights.layers[0].attn.wq if stack == "encoder"
              else weights.layers[0].cross.wk]
    if stack == "cached decoder":
        arrays.append(weights.out_proj)
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            array *= 2.0


def test_weight_stacks_carry_the_config_they_were_drawn_for():
    cfg = decoder_config()
    assert init_weights(cfg).cfg == cfg
    assert init_decoder_weights(cfg).cfg == cfg
    assert decoder._cached_weights(cfg).cfg == cfg
    assert not hasattr(DecoderMemory(make_memory(np.random.default_rng(10))[2], cfg), "cfg")


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
        source, w, mask = x, lw.block.attn, _causal_mask(n)
    else:
        source, w, mask = memory.flattened, lw.cross, None
    weights = [getattr(w, f.name) for f in fields(w)]
    assert len(weights) == 4  # q, k, v and o
    kv = _keys_values(source, w, cfg.n_heads)
    arrays = [a for a in (x, source, mask, *kv) if a is not None] + weights
    before = [a.tobytes() for a in arrays]
    _attention(x, kv, w, cfg.n_heads, mask)
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


def pipeline_bytes(cfg: PipelineConfig) -> tuple[bytes, list[int], bytes]:
    """One short document's encoded rows, 16 greedy tokens and final cross-attention,
    decoded as ``chunkfuse pipeline`` decodes."""
    tokens = [(37 * i + 11) % cfg.vocab_size for i in range(150)]
    weights = init_weights(cfg.encoder_config())
    rows = encode_document(tokens, cfg, weights, "doc")[1]
    memory = run_document(tokens, cfg, weights=weights, doc_id="doc").fused
    dec_cfg = cfg.decoder_config(17)
    generated = greedy_decode([0], memory, dec_cfg, 16)
    return rows.tobytes(), generated, decode_step(generated, memory, dec_cfg)[1].tobytes()


@pytest.mark.parametrize("name", sorted(STACK_CONFIGS))
def test_stack_is_bitwise_the_scale_after_product_attention(name, monkeypatch):
    # long-doc and wide-corpus (head dims 16 and 64) scale the queries;
    # small-window (8) scales the scores, as the oracle always does
    cfg = STACK_CONFIGS[name]
    shipped = pipeline_bytes(cfg)
    called = set()

    def counted(module):
        def run(*args):
            called.add(module.__name__)
            return attention_scaled_after(*args)
        return run

    # the decoder imports the attention routine by name
    for module in (encoder, decoder):
        monkeypatch.setattr(module, "_attention", counted(module))
    assert pipeline_bytes(cfg) == shipped
    assert called == {encoder.__name__, decoder.__name__}


# a memory of one 1200-token document, read by every prefix from 1 to 17 tokens
PREFIX_LENGTHS = range(1, 18)


def stack_memory(cfg: PipelineConfig):
    """(document tokens, its memory, the decoder config for 17-token prefixes)."""
    tokens = [(37 * i + 11) % cfg.vocab_size for i in range(1200)]
    return tokens, run_document(tokens, cfg, doc_id="doc").fused, cfg.decoder_config(17)


def assert_passes_match_the_oracle(bound, memory, tokens, cfg):
    for n in PREFIX_LENGTHS:
        logits, probs = decode_pass(tokens[:n], bound)
        want_logits, want_probs = decode_uncached(tokens[:n], memory, cfg)
        assert logits.tobytes() == want_logits.tobytes(), n
        assert probs.tobytes() == want_probs.tobytes(), n


@pytest.mark.parametrize("name", sorted(STACK_CONFIGS))
def test_cached_passes_are_bitwise_the_uncached_oracle(name):
    tokens, memory, cfg = stack_memory(STACK_CONFIGS[name])
    assert_passes_match_the_oracle(DecoderMemory(memory, cfg), memory, tokens, cfg)
    logits, cross = decode_step(tokens[:17], memory, cfg)
    want_logits, want_probs = decode_uncached(tokens[:17], memory, cfg)
    assert logits.tobytes() == want_logits.tobytes()
    assert cross.tobytes() == want_probs.mean(axis=0).tobytes()
    assert (greedy_decode(tokens[:1], memory, cfg, 16)
            == greedy_decode_uncached(tokens[:1], memory, cfg, 16))


# prints, per stack config, whether the cached passes and greedy tokens equal the oracle's
CACHED_SCRIPT = """
import sys
from oracles import decode_uncached, greedy_decode_uncached
from test_decoder import PREFIX_LENGTHS, STACK_CONFIGS, stack_memory
from chunkfuse.decoder import DecoderMemory, decode_pass
from chunkfuse.pipeline import greedy_decode

for name in sorted(STACK_CONFIGS):
    tokens, memory, cfg = stack_memory(STACK_CONFIGS[name])
    bound = DecoderMemory(memory, cfg)
    same = all(a.tobytes() == b.tobytes()
               for n in PREFIX_LENGTHS
               for a, b in zip(decode_pass(tokens[:n], bound),
                               decode_uncached(tokens[:n], memory, cfg)))
    print(same and greedy_decode(tokens[:1], memory, cfg, 16)
          == greedy_decode_uncached(tokens[:1], memory, cfg, 16))
"""


def test_cached_passes_match_the_oracle_at_two_blas_threads():
    tests = Path(__file__).resolve().parent
    src = str(Path(encoder.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join([src, str(tests), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", CACHED_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"] * len(STACK_CONFIGS)


def test_a_bound_memory_never_reads_the_memory_again():
    tokens, memory, cfg = stack_memory(STACK_CONFIGS["small-window"])
    copy = replace(memory, blocks=memory.blocks.copy())
    bound = DecoderMemory(memory, cfg)
    memory.blocks[...] = np.nan
    assert_passes_match_the_oracle(bound, copy, tokens, cfg)


def test_a_pass_holds_the_cache_and_one_scores_array():
    # several thousand memory rows, so the (heads x 17 x rows) scores dwarf
    # every other array of a pass; a second live scores array (the previous
    # layer's or the previous pass's probabilities) would pass the bound
    cfg = decoder_config(max_len=17)
    *_, memory = make_memory(np.random.default_rng(9), n_chunks=400, width=1, middle=8)
    prefix = list(range(17))
    scores = cfg.n_heads * len(prefix) * memory.rows * 8
    decode_pass(prefix, DecoderMemory(memory, cfg))  # draws the weights, fills position tables
    tracemalloc.start()
    try:
        bound = DecoderMemory(memory, cfg)
        cache = sum(k.nbytes + v.nbytes for k, v in bound.keys_values)
        tracemalloc.reset_peak()
        decode_pass(prefix, bound)
        pass_peak = tracemalloc.get_traced_memory()[1]
        del bound
        tracemalloc.reset_peak()
        greedy_decode(prefix[:1], memory, cfg, 16)
        greedy_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert memory.rows == 4000
    assert pass_peak < cache + 1.5 * scores, (pass_peak, cache, scores)
    assert greedy_peak < cache + 1.5 * scores, (greedy_peak, cache, scores)


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

    def test_one_dimensional_attention_rejected(self):
        with pytest.raises(ConfigError, match="must be 2-D"):
            attention_mass_by_chunk(np.full(4, 0.25), self._provenance([2, 2]))

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
