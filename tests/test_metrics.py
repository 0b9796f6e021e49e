import random

import numpy as np
import pytest
from oracles import probe_runs

from chunkfuse.errors import InputError
from chunkfuse.metrics import (
    lcs_length,
    make_random_doc,
    make_repeated_chunk_doc,
    position_probe,
    rouge_l,
    rouge_n,
)
from chunkfuse.pipeline import PipelineConfig
from chunkfuse.segmenter import segment


class TestRougeN:
    def test_identical(self):
        score = rouge_n(["a", "b", "c"], ["a", "b", "c"], 1)
        assert score.precision == score.recall == score.f1 == 1.0

    def test_hand_unigram_case(self):
        score = rouge_n("the cat".split(), "the cat sat".split(), 1)
        assert score.precision == 1.0
        assert score.recall == pytest.approx(2.0 / 3.0)
        assert score.f1 == pytest.approx(0.8)

    def test_disjoint(self):
        score = rouge_n(["x", "y"], ["a", "b"], 1)
        assert score == rouge_n(["x"], ["a"], 1)
        assert score.f1 == 0.0

    def test_too_short_for_order(self):
        score = rouge_n(["a"], ["a", "b"], 2)
        assert score.precision == score.recall == score.f1 == 0.0

    def test_clipping(self):
        # candidate repeats a gram more often than the reference holds it
        score = rouge_n(["a", "a", "a"], ["a", "b"], 1)
        assert score.precision == pytest.approx(1.0 / 3.0)
        assert score.recall == pytest.approx(0.5)

    def test_swap_swaps_precision_recall(self):
        rnd = random.Random(0)
        for _ in range(50):
            a = [rnd.randrange(5) for _ in range(rnd.randint(1, 10))]
            b = [rnd.randrange(5) for _ in range(rnd.randint(1, 10))]
            ab = rouge_n(a, b, 1)
            ba = rouge_n(b, a, 1)
            assert ab.precision == ba.recall
            assert ab.recall == ba.precision
            assert ab.f1 == pytest.approx(ba.f1)

    def test_bad_order(self):
        with pytest.raises(InputError):
            rouge_n(["a"], ["a"], 0)


def brute_force_lcs(a, b):
    """Enumerate every subsequence of the shorter side (lengths <= 12)."""
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    best = 0
    for mask in range(1 << len(short)):
        sub = [short[i] for i in range(len(short)) if mask >> i & 1]
        it = iter(long_)
        if all(tok in it for tok in sub):
            best = max(best, len(sub))
    return best


class TestRougeL:
    def test_identical(self):
        assert rouge_l(["a", "b"], ["a", "b"]).f1 == 1.0

    def test_hand_case(self):
        score = rouge_l("a b c d".split(), "a c b d".split())
        assert score.precision == score.recall == pytest.approx(0.75)

    def test_reversal(self):
        score = rouge_l(["a", "b", "c", "d"], ["d", "c", "b", "a"])
        assert score.precision == pytest.approx(0.25)

    def test_empty(self):
        assert rouge_l([], ["a"]).f1 == 0.0

    def test_lcs_against_brute_force(self):
        rnd = random.Random(1)
        for _ in range(200):
            a = [rnd.randrange(4) for _ in range(rnd.randint(0, 12))]
            b = [rnd.randrange(4) for _ in range(rnd.randint(0, 12))]
            assert lcs_length(a, b) == brute_force_lcs(a, b)

    def test_lcs_at_least_longest_common_run(self):
        rnd = random.Random(2)
        for _ in range(50):
            a = [rnd.randrange(3) for _ in range(10)]
            b = [rnd.randrange(3) for _ in range(10)]
            runs = 0
            for n in range(1, 11):
                grams_a = {tuple(a[i:i + n]) for i in range(len(a) - n + 1)}
                grams_b = {tuple(b[i:i + n]) for i in range(len(b) - n + 1)}
                if grams_a & grams_b:
                    runs = n
            assert lcs_length(a, b) >= runs


def probe_config(**overrides) -> PipelineConfig:
    base = dict(chunk_len=12, overlap=0, boundary_width=1, middle_count=0,
                alpha=0.5, d_model=32, n_heads=4, n_layers=2, d_ff=64,
                vocab_size=64, seed=13)
    base.update(overrides)
    return PipelineConfig(**base)


class TestRepeatedChunkDocs:
    @pytest.mark.parametrize("overlap", [0, 3])
    def test_all_segments_identical(self, overlap):
        doc = make_repeated_chunk_doc(5, 12, overlap, 64, seed=4)
        segs = segment(doc, 12, overlap)
        assert segs.count == 5
        first = segs.tokens[0].tolist()
        assert all(row == first for row in segs.tokens.tolist())

    def test_needs_a_chunk(self):
        with pytest.raises(InputError, match="n_chunks must be >= 1"):
            make_repeated_chunk_doc(0, 12, 3, 64, seed=4)


class TestPositionProbe:
    def test_alpha_one_mse_is_target_variance(self):
        cfg = probe_config()
        docs = [make_repeated_chunk_doc(5, 12, 0, 64, seed=s) for s in (1, 2)]
        mse = position_probe(probe_runs(docs, 1.0, cfg))
        variance = np.var([1, 2, 3, 4, 5])
        assert mse == pytest.approx(variance, abs=1e-9)

    def test_blend_beats_local_only(self):
        cfg = probe_config()
        docs = [make_repeated_chunk_doc(5, 12, 0, 64, seed=s) for s in (1, 2, 3)]
        assert position_probe(probe_runs(docs, 0.5, cfg)) < \
            position_probe(probe_runs(docs, 1.0, cfg))

    def test_generic_document_interpolates(self):
        # distinct chunks with d >= chunk count: the readout can hit
        # every target up to the ridge term
        cfg = probe_config()
        doc = make_random_doc(5 * 12, 64, seed=8)
        assert position_probe(probe_runs([doc], 0.5, cfg)) < 1e-6

    def test_needs_three_chunks(self):
        cfg = probe_config()
        runs = probe_runs([make_repeated_chunk_doc(2, 12, 0, 64, seed=1)], 0.5, cfg)
        with pytest.raises(InputError):
            position_probe(runs)

    def test_needs_a_document(self):
        with pytest.raises(InputError, match="at least one document"):
            position_probe([])
