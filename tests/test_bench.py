import statistics
import time
from fractions import Fraction

import pytest

from chunkfuse.bench import compare_naive_concat, fit_loglog_slope, run_scaling
from chunkfuse.encoder import init_weights
from chunkfuse.errors import ConfigError
from chunkfuse.metrics import make_random_doc
from chunkfuse.pipeline import PipelineConfig, encode_document
from chunkfuse.segmenter import segment, segment_count


def stock_config(**overrides) -> PipelineConfig:
    base = dict(chunk_len=1024, overlap=150, boundary_width=1, middle_count=300,
                alpha=0.5, d_model=32, n_heads=2, n_layers=2, d_ff=64,
                vocab_size=128, seed=3)
    base.update(overrides)
    return PipelineConfig(**base)


def test_ten_chunk_row_pair():
    cfg = stock_config()
    n = 150 + 874 * 10  # exactly ten stride steps
    assert segment_count(n, cfg.chunk_len, cfg.overlap) == 10
    assert compare_naive_concat(n, cfg) == (3020, 10240)


def test_ratio_one_when_middles_fill_the_chunk():
    cfg = stock_config(middle_count=1024 - 2, boundary_width=1)
    scale_rows, naive_rows = compare_naive_concat(5000, cfg)
    assert scale_rows == naive_rows


def test_boundaries_only_ratio():
    cfg = stock_config(middle_count=0)
    scale_rows, naive_rows = compare_naive_concat(5000, cfg)
    assert Fraction(scale_rows, naive_rows) == Fraction(2, 1024)


def test_row_formulas_exact_over_config_grid():
    for chunk_len in (8, 16, 33):
        for overlap in (0, 3, chunk_len // 2):
            for width in (1, 2):
                for middle in (0, 1, 4):
                    if 2 * width + middle > chunk_len:
                        continue
                    cfg = stock_config(chunk_len=chunk_len, overlap=overlap,
                                       boundary_width=width, middle_count=middle)
                    for n in (1, chunk_len, chunk_len + 1, 5 * chunk_len):
                        scale_rows, naive_rows = compare_naive_concat(n, cfg)
                        c = segment(range(n), chunk_len, overlap).count
                        assert scale_rows == c * (2 * width + middle)
                        assert naive_rows == c * chunk_len


def test_fit_loglog_slope_recovers_exponent():
    ns = [1000, 2000, 4000, 8000]
    times = [2e-4 * n ** 1.0 for n in ns]
    assert fit_loglog_slope(ns, times) == pytest.approx(1.0, abs=1e-9)


def test_run_scaling_validates_lengths():
    cfg = stock_config()
    with pytest.raises(ConfigError):
        run_scaling([100, 200, 300], cfg)
    with pytest.raises(ConfigError):
        run_scaling([100, 200, 150, 400], cfg)


def test_run_scaling_report_structure():
    cfg = stock_config(chunk_len=64, overlap=8, middle_count=8, d_model=16,
                       n_heads=2, n_layers=1, d_ff=32)
    report = run_scaling([512, 1024, 2048, 4096], cfg, repeats=1)
    assert len(report.points) == 4
    for point in report.points:
        assert point.memory_rows == point.n_chunks * (2 * 1 + 8)
        assert point.naive_rows == point.n_chunks * 64
        assert point.total_seconds == point.encode_seconds + point.fuse_seconds
    rows = report.csv_rows()
    assert rows[0][0] == "N" and len(rows) == 5
    assert set(report.verdict()) == {"slope", "pass"}


def test_scaling_slope_stable_between_runs():
    # the shortest point must clear the reliable-timing floor (50 ms) with
    # room to spare: the top block is pruned to the kept rows, so two layers
    # encode 8k tokens in about 38 ms and 16k in 50-75 ms on a 2-core x86
    # machine; three layers encode 16k in about 145 ms
    cfg = stock_config(chunk_len=512, overlap=64, middle_count=50,
                       d_model=32, n_heads=2, n_layers=3, d_ff=64)
    lengths = [16384, 32768, 65536, 131072]
    first = run_scaling(lengths, cfg, repeats=3)
    second = run_scaling(lengths, cfg, repeats=3)
    assert first.reliable and second.reliable
    assert abs(first.slope - second.slope) < 0.15


def test_doubling_chunks_at_most_x2_5():
    cfg = stock_config(chunk_len=256, overlap=0, middle_count=16,
                       d_model=32, n_heads=2, n_layers=1, d_ff=64)
    weights = init_weights(cfg.encoder_config())
    doc_c = make_random_doc(256 * 8, cfg.vocab_size, 1)
    doc_2c = make_random_doc(256 * 16, cfg.vocab_size, 2)

    def encode_seconds(doc) -> float:
        started = time.perf_counter()
        encode_document(doc, cfg, weights, "doc")
        return time.perf_counter() - started

    encode_seconds(doc_c)
    t_c = statistics.median(encode_seconds(doc_c) for _ in range(5))
    t_2c = statistics.median(encode_seconds(doc_2c) for _ in range(5))
    assert t_2c <= 2.5 * t_c
