"""End-to-end oracles for ``run_document``.

The assembled memory is checked against the encoder itself: at
alpha = 1 fusion is the identity, so every row must be the full
encoding's row at the position its provenance names. The grouped
``encode_document`` is checked against one ``encode`` call per window,
at perfbench's workload configs and at every edge of a group. ``sweep`` is
checked against a loop that encodes every document under every variant,
and ``run_document``, which is ``sweep`` over one document, against
``encode_document`` and ``assemble`` called by hand.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    encode_document_per_window,
    fused_by_stages,
    gaussian_weights,
    sweep_per_variant,
)
from test_encoder import THREAD_GUARD_CONFIGS

from chunkfuse import encoder, pipeline
from chunkfuse.cumulation import (
    CHUNK,
    LEFT,
    MIDDLE,
    POSITION,
    RIGHT,
    ROLE,
    fuse,
    fused_sequence_manifest,
)
from chunkfuse.encoder import encode, init_weights
from chunkfuse.errors import ConfigError, InputError
from chunkfuse.metrics import make_random_doc
from chunkfuse.pipeline import PipelineConfig, encode_document, run_document, sweep
from chunkfuse.segmenter import segment


def tiny_config(**overrides) -> PipelineConfig:
    base = dict(chunk_len=16, overlap=4, boundary_width=2, middle_count=3,
                alpha=0.5, d_model=8, n_heads=2, n_layers=1, d_ff=8,
                vocab_size=32, seed=3)
    base.update(overrides)
    return PipelineConfig(**base)


def test_alpha_one_rows_are_full_encoder_rows():
    # the last window is anchored to the end, so it overlaps more; k = 1 with
    # m = 0 keeps two rows a chunk; a 4-token document at k = 3 keeps rows twice
    for overrides, n_tokens in [({}, 61), ({"boundary_width": 1, "middle_count": 0}, 61),
                                ({"boundary_width": 3}, 4)]:
        cfg = tiny_config(alpha=1.0, **overrides)
        weights = init_weights(cfg.encoder_config())
        run = run_document(make_random_doc(n_tokens, cfg.vocab_size, 5), cfg, weights=weights)
        n = run.segments.tokens.shape[1]
        full = [encode(window[None], weights, np.arange(n)[None])[0]
                for window in run.segments.tokens]
        starts = run.segments.starts
        for row, (chunk, _role, pos) in zip(run.fused.flattened, run.fused.provenance):
            assert row.tobytes() == full[chunk - 1][pos - starts[chunk - 1]].tobytes()
        short = fused_sequence_manifest(run.fused)["short_chunks"]
        assert bool(short) == (n < 2 * cfg.boundary_width)


@st.composite
def document_configs(draw):
    k = draw(st.integers(1, 3))
    m = draw(st.integers(0, 6))
    chunk_len = draw(st.integers(max(2, 2 * k + m), 24))
    overlap = draw(st.integers(0, chunk_len - 1))
    n_tokens = draw(st.integers(k, 120))
    return tiny_config(chunk_len=chunk_len, overlap=overlap, boundary_width=k,
                       middle_count=m), n_tokens


@given(document_configs(), st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_rows_provenance_and_roles_property(case, doc_seed):
    cfg, n_tokens = case
    k, m = cfg.boundary_width, cfg.middle_count
    run = run_document(make_random_doc(n_tokens, cfg.vocab_size, doc_seed), cfg,
                       doc_id=f"doc-{doc_seed}")
    fused, segs = run.fused, run.segments
    shortfall = sum(fused_sequence_manifest(fused)["middle_shortfall"].values())
    assert fused.rows == segs.count * (2 * k + m) - shortfall
    assert len(fused.provenance) == fused.rows

    chunks = fused.provenance[:, CHUNK]
    assert chunks.tolist() == sorted(chunks.tolist())
    width = segs.tokens.shape[1]
    for index, start in enumerate(segs.starts.tolist(), start=1):
        mine = fused.provenance[chunks == index]
        assert np.all((start <= mine[:, POSITION])
                      & (mine[:, POSITION] < start + width))
        middles = len(mine) - 2 * k
        assert mine[:, ROLE].tolist() == [LEFT] * k + [MIDDLE] * middles + [RIGHT] * k


def grouped_is_per_window(tokens, cfg, weights, doc_id) -> list[int]:
    """Assert ``encode_document`` is bitwise its per-window oracle; return its group sizes."""
    sizes, real = [], encoder.encode

    def counted(windows, *args):
        sizes.append(len(windows))
        return real(windows, *args)

    with mock.patch.object(encoder, "encode", counted):
        got = encode_document(tokens, cfg, weights, doc_id)
    want = encode_document_per_window(tokens, cfg, weights, doc_id)
    for a, b in zip((got[0].tokens, got[0].starts, *got[1:]),
                    (want[0].tokens, want[0].starts, *want[1:])):
        assert (a.shape, a.dtype) == (b.shape, b.dtype)
        assert a.tobytes() == b.tobytes()
    assert sum(sizes) == len(got[1])
    return sizes


@pytest.mark.parametrize("fields, groups", [
    (THREAD_GUARD_CONFIGS[0], [1, 1, 1]),
    (THREAD_GUARD_CONFIGS[1], [16, 16, 1]),
    (THREAD_GUARD_CONFIGS[2], [1, 1, 1]),
], ids=["long-doc", "small-window", "wide-corpus"])
def test_workload_documents_are_bitwise_the_per_window_loop(fields, groups):
    # the score budget groups small-window's 64-token windows 16 to a call,
    # and gives the longer windows of the other two one call each
    cfg = PipelineConfig(**fields)
    n_tokens = cfg.chunk_len + (sum(groups) - 1) * (cfg.chunk_len - cfg.overlap)
    tokens = make_random_doc(n_tokens, cfg.vocab_size, 21)
    weights = gaussian_weights(cfg.encoder_config())
    assert grouped_is_per_window(tokens, cfg, weights, "doc-0000") == groups


# 61 tokens make 5 windows of 16; 10 tokens one short window; 4 tokens at
# k = 3 a window shorter than 2k, whose keep repeats rows
@given(document_configs(), st.integers(0, 6), st.integers(0, 2**16))
@example((tiny_config(), 10), 3, 0)  # C = 1 < g, a document shorter than chunk_len
@example((tiny_config(), 61), 2, 1)  # groups 2, 2, 1: a last group of one window
@example((tiny_config(), 61), 3, 2)  # groups 3, 2
@example((tiny_config(), 61), 5, 3)  # C = g
@example((tiny_config(), 61), 0, 4)  # a budget under one window's scores
@example((tiny_config(boundary_width=3), 4), 2, 5)
@settings(max_examples=30, deadline=None)
def test_encode_document_groups_are_bitwise_the_per_window_loop(case, group, doc_seed):
    cfg, n_tokens = case
    n = min(cfg.chunk_len, n_tokens)
    tokens = make_random_doc(n_tokens, cfg.vocab_size, doc_seed)
    # exactly ``group`` windows' scores
    with mock.patch.object(pipeline, "_SCORES_BUDGET", group * 8 * cfg.n_heads * n * n):
        sizes = grouped_is_per_window(tokens, cfg, init_weights(cfg.encoder_config()),
                                      f"doc-{doc_seed}")
    c, g = sum(sizes), max(group, 1)
    assert sizes == [g] * (c // g) + [c % g] * (c % g > 0)


@pytest.mark.parametrize("overrides", [
    {"chunk_len": 16.0}, {"seed": "3"}, {"n_layers": True}, {"alpha": False},
    {"alpha": "0.5"}, {"middle_seed": 1.5}, {"vocab_size": None},
])
def test_config_rejects_mistyped_values(overrides):
    with pytest.raises(ConfigError, match=next(iter(overrides))):
        tiny_config(**overrides)


@pytest.mark.parametrize("field", ["seed", "middle_seed"])
@pytest.mark.parametrize("value", [-1, 2**64])
def test_config_rejects_seeds_outside_64_bits(field, value):
    with pytest.raises(ConfigError, match=rf"^{field} must lie in \[0, 2\*\*64\), got {value}$"):
        tiny_config(**{field: value})
    tiny_config(**{field: 2**64 - 1})


@pytest.mark.parametrize("chunk_len, overlap", [(1, 0), (8, -1), (8, 8)])
def test_config_and_segment_reject_a_window_alike(chunk_len, overlap):
    with pytest.raises(ConfigError) as from_segment:
        segment(range(10), chunk_len, overlap)
    with pytest.raises(ConfigError) as from_config:
        tiny_config(chunk_len=chunk_len, overlap=overlap)
    assert str(from_config.value) == str(from_segment.value)


@pytest.mark.parametrize("alpha", [-0.5, 1.5, float("nan")])
def test_config_and_fuse_reject_an_alpha_alike(alpha):
    blocks = np.zeros((2, 1, 3))
    with pytest.raises(ConfigError) as from_fuse:
        fuse(blocks, blocks, alpha)
    with pytest.raises(ConfigError) as from_config:
        tiny_config(alpha=alpha)
    assert str(from_config.value) == str(from_fuse.value)


def test_config_keeps_int_alpha_and_seedless_middles():
    cfg = tiny_config(alpha=1, middle_seed=None)
    assert '"alpha":1,' in cfg.canonical_json()


# docs of several chunks, of one short window, and of a window shorter than 2k + m
SWEEP_DOCS = [(f"doc-{i}", make_random_doc(n, 32, 10 + i)) for i, n in enumerate((61, 14, 5))]
SWEEPS = {
    "alpha": [tiny_config(alpha=a) for a in (0.0, 0.5, 1.0, 0.5)],
    "overlap": [tiny_config(overlap=o) for o in (0, 4, 9, 4)],
    "middle_count": [tiny_config(middle_count=m) for m in (0, 3, 7)],
    "mixed": [tiny_config(), tiny_config(alpha=1.0), tiny_config(overlap=8, alpha=1.0),
              tiny_config(overlap=8, alpha=0.25), tiny_config(middle_count=5, alpha=0.25),
              tiny_config(middle_count=5, alpha=0.0, middle_seed=9), tiny_config()],
}


@pytest.mark.parametrize("axis", sorted(SWEEPS))
def test_sweep_is_bitwise_a_per_variant_loop(axis):
    variants = SWEEPS[axis]
    weights = init_weights(variants[0].encoder_config())
    results = sweep(SWEEP_DOCS, variants, weights)
    expected = sweep_per_variant(SWEEP_DOCS, variants, weights)
    assert len(results) == len(expected)
    for variant, (runs, _, _), oracle in zip(variants, results, expected):
        assert len(runs) == len(oracle)
        for run, want, (_, tokens) in zip(runs, oracle, SWEEP_DOCS):
            got = run.fused
            assert got.blocks.shape == want.blocks.shape
            assert got.blocks.tobytes() == want.blocks.tobytes()
            assert got.positions.tobytes() == want.positions.tobytes()
            assert got.alpha == want.alpha
            windows = segment(tokens, variant.chunk_len, variant.overlap)
            assert run.segments.tokens.shape == windows.tokens.shape
            assert run.segments.tokens.tobytes() == windows.tokens.tobytes()
            assert run.segments.starts.tobytes() == windows.starts.tobytes()


@pytest.mark.parametrize("index", range(len(SWEEPS["mixed"]) - 1))
def test_run_document_is_sweep_over_one_document(index):
    cfg = SWEEPS["mixed"][index]
    weights = init_weights(cfg.encoder_config())
    for doc_id, tokens in SWEEP_DOCS:
        run = run_document(tokens, cfg, weights, doc_id)
        swept = sweep([(doc_id, tokens)], [cfg], weights)[0][0][0]
        oracle = fused_by_stages(tokens, cfg, weights, doc_id)
        for got in (run.fused, swept.fused):
            assert got.blocks.shape == oracle.blocks.shape
            assert got.blocks.tobytes() == oracle.blocks.tobytes()
            assert got.positions.tobytes() == oracle.positions.tobytes()
            assert got.alpha == oracle.alpha
        assert run.segments.tokens.tobytes() == swept.segments.tokens.tobytes()
        assert run.segments.starts.tobytes() == swept.segments.starts.tobytes()


def test_sweep_reuses_encodings_only_after_an_alpha_change():
    variants = SWEEPS["mixed"]
    results = sweep(SWEEP_DOCS, variants, init_weights(variants[0].encoder_config()))
    assert [encode_s == 0.0 for _, encode_s, _ in results] == \
        [False, True, False, True, False, False, False]
    assert all(fuse_s > 0.0 for _, _, fuse_s in results)


@pytest.mark.parametrize("caller", ["run_document", "sweep", "encode_document"])
@pytest.mark.parametrize("other", [{"seed": 4}, {"n_heads": 4}, {"d_model": 16},
                                   {"chunk_len": 20}])
def test_a_stack_drawn_for_another_config_is_refused(caller, other):
    cfg = tiny_config()
    weights = init_weights(tiny_config(**other).encoder_config())
    doc_id, tokens = SWEEP_DOCS[0]
    call = {"run_document": lambda: run_document(tokens, cfg, weights, doc_id),
            "sweep": lambda: sweep(SWEEP_DOCS, [cfg], weights),
            "encode_document": lambda: encode_document(tokens, cfg, weights, doc_id)}[caller]
    with pytest.raises(ConfigError, match=r"weights drawn for ModelConfig\(.*\) cannot encode "
                       r"under ModelConfig\("):
        call()


def test_float_ids_are_refused_not_truncated():
    cfg = tiny_config()
    with pytest.raises(InputError, match="got float64 values"):
        run_document([1.7] * 20, cfg)
    assert run_document([1] * 20, cfg).fused.rows > 0


@pytest.mark.parametrize("other", [{"chunk_len": 20}, {"d_model": 16}, {"seed": 4}])
def test_sweep_rejects_variants_of_two_encoder_configs(other):
    variants = [tiny_config(), tiny_config(**other)]
    with pytest.raises(ConfigError, match="weights drawn for .* cannot encode under"):
        sweep(SWEEP_DOCS, variants, init_weights(variants[0].encoder_config()))
