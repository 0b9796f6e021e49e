"""Acceptance suite: one test per release criterion.

Each test prints a PASS line once its assertions hold, so running
``pytest tests/test_acceptance.py -v -s`` gives a one-line verdict per
criterion. Tolerances are fixed here, not configurable.
"""

import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from oracles import (
    backward_context,
    forward_context,
    fusion_jacobian,
    kept_rows,
    mean_context,
    probe_runs,
    random_set,
    reconstruct,
    synthetic_chunks,
)

from chunkfuse.bench import compare_naive_concat, run_scaling
from chunkfuse.cli import main
from chunkfuse.cumulation import assemble, contexts, fuse
from chunkfuse.encoder import init_weights
from chunkfuse.metrics import (
    lcs_length,
    make_random_doc,
    make_repeated_chunk_doc,
    position_probe,
    rouge_l,
    rouge_n,
)
from chunkfuse.pipeline import PipelineConfig, encode_document
from chunkfuse.segmenter import segment, segment_count


def _pass(num: int, detail: str) -> None:
    print(f"ACCEPTANCE {num}: PASS  {detail}")


def test_criterion_01_context_oracle():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        lefts, rights = random_set(rng)
        back, fwd = contexts(lefts, rights)
        for i in range(1, len(lefts) + 1):
            want_back = mean_context(lefts, rights, i, "back")
            want_fwd = mean_context(lefts, rights, i, "fwd")
            for got, want in ((back[i - 1], want_back), (fwd[i - 1], want_fwd),
                              (backward_context(lefts, rights, i), want_back),
                              (forward_context(lefts, rights, i), want_fwd)):
                worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - started
    assert worst < 1e-12
    assert elapsed < 5.0
    _pass(1, f"500 boundary sets, max abs error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_edge_identities():
    rng = np.random.default_rng(102)
    lefts, rights = random_set(rng)
    back, fwd = contexts(lefts, rights)
    assert back[0].tobytes() == lefts[0].tobytes()
    assert fwd[-1].tobytes() == rights[-1].tobytes()

    local_lefts, local_rights = fuse(lefts, rights, 1.0)
    for i in range(len(lefts)):
        assert local_lefts[i].tobytes() == lefts[i].tobytes()
        assert local_rights[i].tobytes() == rights[i].tobytes()

    context_lefts, _ = fuse(lefts, rights, 0.0)
    assert context_lefts[0].tobytes() == lefts[0].tobytes()
    _pass(2, "first/last context identities and fusion fixed points bitwise")


def test_criterion_03_hand_worked_scalar_trace():
    lefts = np.array([1.0, 3.0, 5.0]).reshape(3, 1, 1)
    rights = np.array([2.0, 4.0, 6.0]).reshape(3, 1, 1)
    backs = [backward_context(lefts, rights, i)[0, 0] for i in (1, 2, 3)]
    fwds = [forward_context(lefts, rights, i)[0, 0] for i in (1, 2, 3)]
    assert backs == [1.0, 2.0, 3.0]
    assert fwds == [4.0, 5.0, 6.0]
    back, fwd = contexts(lefts, rights)
    assert back.ravel().tolist() == backs and fwd.ravel().tolist() == fwds
    fused_lefts, _ = fuse(lefts, rights, 0.5)
    assert fused_lefts[1, 0, 0] == 2.5
    _pass(3, "3-chunk scalar trace exact: back [1,2,3], fwd [4,5,6], L'2 = 2.5")


def test_criterion_04_jacobian_matches_finite_differences():
    rng = np.random.default_rng(104)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        c = int(rng.integers(1, 6))
        k = int(rng.integers(1, 3))
        d = int(rng.integers(1, 4))
        lefts = rng.normal(size=(c, k, d))
        rights = rng.normal(size=(c, k, d))
        alpha = float(rng.uniform())
        i = int(rng.integers(1, c + 1))
        jac = fusion_jacobian(lefts, alpha, i)
        side = "L" if rng.uniform() < 0.5 else "R"
        j = int(rng.integers(1, c + 1))
        entry = (int(rng.integers(k)), int(rng.integers(d)))

        def fused_at(delta):
            blocks = {"L": lefts.copy(), "R": rights.copy()}
            blocks[side][(j - 1, *entry)] += delta
            fused_lefts, fused_rights = fuse(blocks["L"], blocks["R"], alpha)
            return fused_lefts[(i - 1, *entry)], fused_rights[(i - 1, *entry)]

        up, dn = fused_at(h), fused_at(-h)
        fd_left = (up[0] - dn[0]) / (2 * h)
        fd_right = (up[1] - dn[1]) / (2 * h)
        worst = max(worst,
                    abs(fd_left - jac.d_fused_left[(side, j)]),
                    abs(fd_right - jac.d_fused_right[(side, j)]))
    assert worst < 1e-6
    _pass(4, f"100 random configs, max |analytic - central FD| = {worst:.2e}")


def test_criterion_05_assembly_length_formula():
    rng = np.random.default_rng(105)
    checked = 0
    for c in range(1, 9):
        for k in range(1, 4):
            for m in range(0, 17):
                starts, encs = synthetic_chunks(rng, c, 2 * k + m, 2)
                middles = np.tile(np.arange(k, k + m), (c, 1))
                out = assemble(*kept_rows(encs, k, middles, starts), k, m, 0.5)
                assert out.rows == c * (2 * k + m)
                assert len(out.provenance) == out.rows
                checked += 1
    _pass(5, f"flattened rows = C*(2k+m) over all {checked} grid points")


def test_criterion_06_segmentation_round_trip():
    rnd = random.Random(106)
    for _ in range(200):
        chunk_len = rnd.randint(2, 2048)
        overlap = rnd.randint(0, chunk_len - 1)
        n = rnd.randint(1, 20000)
        tokens = tuple(rnd.randrange(1 << 16) for _ in range(n))
        segs = segment(tokens, chunk_len, overlap)
        assert reconstruct(segs) == tokens
        assert segs.count == segment_count(n, chunk_len, overlap)

        # coverage: contiguous windows, first at 0, no gaps, ending at n
        width = segs.tokens.shape[1]
        assert segs.starts[0] == 0
        end = 0
        for start in segs.starts.tolist():
            assert start <= end
            end = max(end, start + width)
        assert end == n

        if n > chunk_len:
            assert width == chunk_len
            pairs = list(zip(segs.starts.tolist(), segs.starts[1:].tolist()))
            for idx, (a, b) in enumerate(pairs):
                shared = a + width - b
                assert shared >= overlap
                if idx < len(pairs) - 1:
                    assert shared == overlap
    _pass(6, "200 random (N, L, O) triples: identity, coverage, overlap")


def test_criterion_07_linear_scaling():
    cfg = PipelineConfig(
        chunk_len=1024, overlap=150, boundary_width=1, middle_count=300,
        alpha=0.5, d_model=32, n_heads=2, n_layers=2, d_ff=64,
        vocab_size=128, seed=107,
    )
    started = time.perf_counter()
    report = run_scaling([8192, 16384, 32768, 65536], cfg, repeats=3)
    elapsed = time.perf_counter() - started
    assert report.reliable
    assert 0.8 <= report.slope <= 1.3
    assert report.fuse_encode_ratio < 0.05
    assert elapsed < 300.0
    _pass(7, f"slope {report.slope:.3f} in [0.8, 1.3], fuse/encode "
             f"{report.fuse_encode_ratio:.4f} < 0.05, wall {elapsed:.1f}s")


def test_criterion_08_compression_ratio_exact():
    cfg = PipelineConfig()  # stock: 1024/150, width 1, 300 middles
    for n in (1, 1024, 5000, 8890, 123456):
        scale_rows, naive_rows = compare_naive_concat(n, cfg)
        assert Fraction(scale_rows, naive_rows) == Fraction(302, 1024)
    assert (2 * cfg.boundary_width + cfg.middle_count) / cfg.chunk_len \
        == 302 / 1024
    _pass(8, "decoder-input ratio exactly 302/1024 for every chunk count")


def test_criterion_09_structural_awareness():
    cfg = PipelineConfig(
        chunk_len=12, overlap=0, boundary_width=1, middle_count=0,
        alpha=0.5, d_model=32, n_heads=4, n_layers=2, d_ff=64,
        vocab_size=64, seed=109,
    )
    weights = init_weights(cfg.encoder_config())

    def fused_lefts(doc, alpha):
        _, rows, _ = encode_document(doc, cfg, weights, "doc")
        k = cfg.boundary_width
        return fuse(rows[:, :k], rows[:, rows.shape[1] - k:], alpha)[0]

    ident_docs = [make_repeated_chunk_doc(5, 12, 0, 64, seed=s) for s in (1, 2, 3)]

    blended = fused_lefts(ident_docs[0], 0.5)
    for i in range(5):
        for j in range(i + 1, 5):
            assert np.max(np.abs(blended[i] - blended[j])) > 0

    local_only = fused_lefts(ident_docs[0], 1.0)
    for i in range(1, 5):
        assert local_only[0].tobytes() == local_only[i].tobytes()

    mse_blend = position_probe(probe_runs(ident_docs, 0.5, cfg, weights))
    mse_local = position_probe(probe_runs(ident_docs, 1.0, cfg, weights))
    assert mse_blend < mse_local

    # with distinct chunk content the five fused vectors are in general
    # position in 32 dimensions, so the readout interpolates exactly
    generic = make_random_doc(5 * 12, 64, seed=4)
    mse_generic = position_probe(probe_runs([generic], 0.5, cfg, weights))
    assert mse_generic < 1e-6
    _pass(9, f"distinct at a=0.5, identical at a=1.0; probe mse "
             f"{mse_blend:.3f} < {mse_local:.3f}; single-doc mse "
             f"{mse_generic:.1e} < 1e-6")


def test_criterion_10_rouge_correctness():
    score = rouge_n("the cat".split(), "the cat sat".split(), 1)
    assert score.precision == 1.0
    assert score.recall == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert score.f1 == pytest.approx(0.8, abs=1e-15)

    lcs_case = rouge_l("a b c d".split(), "a c b d".split())
    assert lcs_case.precision == 0.75 and lcs_case.recall == 0.75

    assert rouge_n(["x", "y"], ["x", "y"], 1).f1 == 1.0
    assert rouge_l(["x", "y"], ["x", "y"]).f1 == 1.0
    assert rouge_n(["a"], ["b"], 1).f1 == 0.0
    assert rouge_l(["a"], ["b"]).f1 == 0.0

    def brute_force(a, b):
        short, long_ = (a, b) if len(a) <= len(b) else (b, a)
        best = 0
        for mask in range(1 << len(short)):
            sub = [short[i] for i in range(len(short)) if mask >> i & 1]
            it = iter(long_)
            if all(tok in it for tok in sub):
                best = max(best, len(sub))
        return best

    rnd = random.Random(110)
    for _ in range(200):
        a = [rnd.randrange(5) for _ in range(rnd.randint(0, 12))]
        b = [rnd.randrange(5) for _ in range(rnd.randint(0, 12))]
        assert lcs_length(a, b) == brute_force(a, b)
    _pass(10, "hand-counted scores exact; LCS agrees with brute force x200")


def test_criterion_11_pipeline_determinism(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "a", "tokens": list(range(40))}) + "\n")
        fh.write(json.dumps({"id": "b", "tokens": [5, 4, 3, 2, 1] * 8}) + "\n")

    flags = ["--chunk-len", "16", "--overlap", "4", "--boundary-width", "1",
             "--middle-count", "3", "--alpha", "0.5", "--d-model", "16",
             "--n-heads", "2", "--n-layers", "2", "--d-ff", "32",
             "--vocab-size", "64", "--seed", "11"]
    assert main(["pipeline", str(corpus), "--out-dir", str(tmp_path / "run1"),
                 *flags]) == 0
    assert main(["pipeline", str(corpus), "--out-dir", str(tmp_path / "run2"),
                 *flags]) == 0

    def tree(root):
        return {str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    first, second = tree(tmp_path / "run1"), tree(tmp_path / "run2")
    assert first.keys() == second.keys()
    assert all(first[name] == second[name] for name in first)
    _pass(11, f"two runs produced byte-identical trees ({len(first)} files)")
