import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    attention_scaled_after,
    causal_mask,
    decode_per_position,
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
    attention_mass_by_chunk,
    decode,
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


@pytest.mark.parametrize("kind", ["causal self-attention", "cross-attention", "masked oracle"])
def test_attention_leaves_its_inputs_unchanged(kind):
    # the scores array is the only one attention writes in place. Causal
    # self-attention is the decoder's: the last position's row over a key/value
    # cache of every position so far. The masked form lives in the oracle only
    rng = np.random.default_rng(8)
    *_, memory = make_memory(rng)
    cfg = decoder_config()
    lw = init_decoder_weights(cfg).layers[0]
    n = 5
    x = rng.normal(size=(n, cfg.d_model))
    w = lw.cross if kind == "cross-attention" else lw.block.attn
    weights = [getattr(w, f.name) for f in fields(w)]
    assert len(weights) == 4  # q, k, v and o
    if kind == "cross-attention":
        kv = _keys_values(memory.flattened, w, cfg.n_heads)
        arrays, call = [x, memory.flattened, *kv], partial(_attention, x, kv, w, cfg.n_heads)
    elif kind == "causal self-attention":
        cache = np.stack(_keys_values(x, w, cfg.n_heads))
        arrays, call = [x, cache], partial(_attention, x[-1:], cache, w, cfg.n_heads)
    else:
        kv, mask = _keys_values(x, w, cfg.n_heads), causal_mask(n)
        arrays = [x, mask, *kv]
        call = partial(attention_scaled_after, x, kv, w, cfg.n_heads, mask)
    before = [a.tobytes() for a in arrays + weights]
    call()
    assert [a.tobytes() for a in arrays + weights] == before


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


def stack_memory(cfg: PipelineConfig):
    """(document tokens, its memory, the decoder config for 17 positions)."""
    tokens = [(37 * i + 11) % cfg.vocab_size for i in range(1200)]
    return tokens, run_document(tokens, cfg, doc_id="doc").fused, cfg.decoder_config(17)


def assert_decode_is_the_oracle(memory, tokens, cfg):
    """17 given tokens, and one token and 16 greedy steps, each bitwise the per-position loop."""
    for prefix, steps in ((tokens[:17], 0), (tokens[:1], 16)):
        got = decode(prefix, memory, cfg, steps)
        want = decode_per_position(prefix, memory, cfg, steps)
        assert got[0] == want[0]
        assert [a.tobytes() for a in got[1:]] == [a.tobytes() for a in want[1:]], steps


@pytest.mark.parametrize("name", sorted(STACK_CONFIGS))
def test_decode_is_bitwise_the_per_position_oracle(name):
    tokens, memory, cfg = stack_memory(STACK_CONFIGS[name])
    assert_decode_is_the_oracle(memory, tokens, cfg)


# the full pass under a causal mask takes other products and sums; measured gaps
# on these shapes and the perfbench workloads: logits 6e-15, rows 2e-18
FULL_PASS_LOGITS_BOUND = 1e-13
FULL_PASS_ROWS_BOUND = 1e-16


@pytest.mark.parametrize("name", sorted(STACK_CONFIGS))
def test_decode_is_the_full_pass_oracle_within_a_bound(name):
    tokens, memory, cfg = stack_memory(STACK_CONFIGS[name])
    generated, logits, rows = decode(tokens[:1], memory, cfg, 16)
    assert generated == greedy_decode_uncached(tokens[:1], memory, cfg, 16)
    want_logits, want_cross = decode_uncached(generated, memory, cfg)
    assert np.abs(logits - want_logits).max() <= FULL_PASS_LOGITS_BOUND
    assert np.abs(rows - want_cross.mean(axis=0)).max() <= FULL_PASS_ROWS_BOUND


def test_pipeline_and_benchmark_decodes_write_the_same_mass():
    # chunkfuse pipeline takes tokens and rows from one decode; perfbench takes
    # greedy_decode's tokens, then decode_step's rows over them
    for cfg in STACK_CONFIGS.values():
        _, memory, dec_cfg = stack_memory(cfg)
        tokens, _, rows = decode([0], memory, dec_cfg, 16)
        generated = greedy_decode([0], memory, dec_cfg, 16)
        assert generated == tokens
        assert decode_step(generated, memory, dec_cfg)[1].tobytes() == rows.tobytes()


@st.composite
def causal_cases(draw):
    """A small decoder, a memory, tokens, a position i and another continuation after i."""
    d_head, n_heads = draw(st.sampled_from([1, 2, 4, 8])), draw(st.integers(1, 3))
    n = draw(st.integers(1, 10))
    cfg = decoder_config(d_model=d_head * n_heads, n_heads=n_heads, max_len=12,
                         n_layers=draw(st.integers(1, 2)), d_ff=draw(st.integers(1, 8)),
                         vocab_size=draw(st.integers(2, 12)), seed=draw(st.integers(0, 2**64 - 1)))
    token = st.integers(0, cfg.vocab_size - 1)
    tokens = draw(st.lists(token, min_size=n, max_size=n))
    i = draw(st.integers(0, n - 1))
    tail = draw(st.lists(token, max_size=cfg.max_len - i - 1))
    *_, memory = make_memory(np.random.default_rng(draw(st.integers(0, 2**32))),
                             n_chunks=draw(st.integers(1, 4)), dim=cfg.d_model)
    return cfg, memory, tokens, i, tail


@settings(max_examples=60, deadline=None)
@given(causal_cases())
def test_a_position_reads_no_later_token(case):
    # a later token changed, cut off or added leaves position i bitwise alone
    cfg, memory, tokens, i, tail = case
    _, logits, rows = decode(tokens, memory, cfg, 0)
    _, other_logits, other_rows = decode(tokens[:i + 1] + tail, memory, cfg, 0)
    assert other_logits[:i + 1].tobytes() == logits[:i + 1].tobytes()
    assert other_rows[:i + 1].tobytes() == rows[:i + 1].tobytes()


def test_steps_must_fit_in_max_len():
    *_, memory = make_memory(np.random.default_rng(11))
    cfg = decoder_config(max_len=4)
    assert len(decode([1, 2], memory, cfg, 2)[0]) == 4
    for steps in (-1, 3):
        with pytest.raises(InputError, match=rf"steps must lie in \[0, 2\] .* got {steps}"):
            decode([1, 2], memory, cfg, steps)


# OpenBLAS runs no more threads than the cores this process may use
CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()

# prints, per perfbench workload, one hash of the tokens, logits and rows of one
# greedy decode over a memory of the workload's decoder shape and row count
THREADS_SCRIPT = """
import hashlib
import numpy as np
from test_decoder import STACK_CONFIGS, workload_memory
from chunkfuse.decoder import decode

for name in sorted(STACK_CONFIGS):
    memory, cfg = workload_memory(name)
    tokens, logits, rows = decode([0], memory, cfg, 16)
    print(hashlib.sha256(repr(tokens).encode() + logits.tobytes() + rows.tobytes()).hexdigest())
"""

# (chunks, kept rows per chunk) of perfbench's memories: 11476, about 10.4k and 1152 rows
WORKLOAD_MEMORIES = {"long-doc": (38, 302), "small-window": (1040, 10), "wide-corpus": (9, 128)}


def workload_memory(name: str):
    """A memory of random rows at a workload's size, and its 17-position decoder config."""
    cfg = STACK_CONFIGS[name]
    c, r = WORKLOAD_MEMORIES[name]
    k = cfg.boundary_width
    rng = np.random.default_rng(5)
    positions = np.arange(c * r).reshape(c, r)
    return (assemble(rng.normal(size=(c, r, cfg.d_model)), positions, k, r - 2 * k, 0.5),
            cfg.decoder_config(17))


def run_at(threads: str, script: str) -> list[str]:
    """The words ``script`` prints in a fresh process at ``threads`` BLAS threads."""
    tests = Path(__file__).resolve().parent
    src = str(Path(encoder.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join([src, str(tests), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.skipif((CORES or 1) < 2, reason="one core runs one BLAS thread")
def test_decode_does_not_depend_on_the_blas_thread_count():
    # the full pass of 17 query rows over the long-doc memory rounded differently
    # at 1 and 2 threads; one query row a pass has not been seen to
    one, two = run_at("1", THREADS_SCRIPT), run_at("2", THREADS_SCRIPT)
    assert len(one) == len(STACK_CONFIGS)
    assert one == two


# prints, per stack config, whether decode is bitwise the per-position oracle
ORACLE_SCRIPT = """
from test_decoder import STACK_CONFIGS, assert_decode_is_the_oracle, stack_memory

for name in sorted(STACK_CONFIGS):
    tokens, memory, cfg = stack_memory(STACK_CONFIGS[name])
    assert_decode_is_the_oracle(memory, tokens, cfg)
    print(True)
"""


def test_cached_passes_match_the_oracle_at_two_blas_threads():
    assert run_at("2", ORACLE_SCRIPT) == ["True"] * len(STACK_CONFIGS)


def test_a_bound_memory_never_reads_the_memory_again():
    tokens, memory, cfg = stack_memory(STACK_CONFIGS["small-window"])
    copy = replace(memory, blocks=memory.blocks.copy())
    bound = DecoderMemory(memory, cfg)
    memory.blocks[...] = np.nan
    fresh = DecoderMemory(copy, cfg)
    assert ([a.tobytes() for kv in bound.keys_values for a in kv]
            == [a.tobytes() for kv in fresh.keys_values for a in kv])


def test_decode_projects_the_memory_once_per_layer(monkeypatch):
    *_, memory = make_memory(np.random.default_rng(12))
    cfg = decoder_config(max_len=17)
    sources = []

    def counted(source, w, n_heads):
        sources.append(len(source))
        return _keys_values(source, w, n_heads)

    monkeypatch.setattr(decoder, "_keys_values", counted)
    decode([0], memory, cfg, 16)
    assert sources.count(memory.rows) == cfg.n_layers
    assert sources.count(1) == 17 * cfg.n_layers  # each pass projects its own position


def test_a_pass_holds_the_cache_and_one_scores_array():
    # several thousand memory rows, so the memory's keys and values, the
    # (heads x 1 x rows) scores of a pass, its head mean and the (positions x rows)
    # output dwarf every other array; the previous probabilities kept alive, or a
    # full pass's (heads x positions x rows) scores, would pass the bound
    cfg = decoder_config(max_len=17)
    *_, memory = make_memory(np.random.default_rng(9), n_chunks=400, width=1, middle=8)
    scores = cfg.n_heads * memory.rows * 8
    rows_out = 17 * memory.rows * 8
    decode_step([0], memory, cfg)  # draws the weights, fills position tables
    cache = sum(k.nbytes + v.nbytes for k, v in DecoderMemory(memory, cfg).keys_values)
    peaks = []
    tracemalloc.start()
    try:
        for prefix, steps in ((list(range(17)), 0), ([0], 16)):
            tracemalloc.reset_peak()
            decode(prefix, memory, cfg, steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert memory.rows == 4000
    assert max(peaks) < cache + rows_out + 2 * scores, (peaks, cache, rows_out, scores)


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
