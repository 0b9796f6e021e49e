"""End-to-end oracles for ``run_document``.

The assembled memory is checked against the encoder itself: at
alpha = 1 fusion is the identity, so every row must be the full
encoding's row at the position its provenance names. ``sweep`` is
checked against a loop that encodes every document under every variant.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import sweep_per_variant

from chunkfuse.cumulation import (
    CHUNK,
    LEFT,
    MIDDLE,
    POSITION,
    RIGHT,
    ROLE,
    fused_sequence_manifest,
)
from chunkfuse.encoder import encode, init_weights
from chunkfuse.errors import ConfigError
from chunkfuse.metrics import make_random_doc
from chunkfuse.pipeline import PipelineConfig, run_document, sweep


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
        full = [encode(window, weights, cfg.encoder_config(), np.arange(n))
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


@pytest.mark.parametrize("overrides", [
    {"chunk_len": 16.0}, {"seed": "3"}, {"n_layers": True}, {"alpha": False},
    {"alpha": "0.5"}, {"middle_seed": 1.5}, {"vocab_size": None},
])
def test_config_rejects_mistyped_values(overrides):
    with pytest.raises(ConfigError, match=next(iter(overrides))):
        tiny_config(**overrides)


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
    for (memories, _, _), oracle in zip(results, expected):
        assert len(memories) == len(oracle)
        for got, want in zip(memories, oracle):
            assert got.blocks.shape == want.blocks.shape
            assert got.blocks.tobytes() == want.blocks.tobytes()
            assert got.positions.tobytes() == want.positions.tobytes()
            assert got.alpha == want.alpha


def test_sweep_reuses_encodings_only_after_an_alpha_change():
    variants = SWEEPS["mixed"]
    results = sweep(SWEEP_DOCS, variants, init_weights(variants[0].encoder_config()))
    assert [encode_s == 0.0 for _, encode_s, _ in results] == \
        [False, True, False, True, False, False, False]
    assert all(fuse_s > 0.0 for _, _, fuse_s in results)


@pytest.mark.parametrize("other", [{"chunk_len": 20}, {"d_model": 16}, {"seed": 4}])
def test_sweep_rejects_variants_of_two_encoder_configs(other):
    variants = [tiny_config(), tiny_config(**other)]
    with pytest.raises(ConfigError, match="one encoder config"):
        sweep(SWEEP_DOCS, variants, init_weights(variants[0].encoder_config()))
