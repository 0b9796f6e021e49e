"""Empirical scaling checks and decoder-input size accounting.

The pipeline's cost should grow linearly with document length: chunk
count grows linearly, per-chunk encoding cost is constant, and the
context scan is a single pass over chunk boundaries. ``run_scaling``
measures wall time per stage across document lengths and fits the
log-log slope; ``compare_naive_concat`` reports how many rows the
decoder sees here versus the concat-everything baseline, by arithmetic
alone.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

from .encoder import init_weights
from .errors import ConfigError
from .metrics import make_random_doc
from .pipeline import PipelineConfig, sweep
from .segmenter import segment_count

# totals under this at the smallest point are too close to timer noise
MIN_RELIABLE_SECONDS = 0.05
SLOPE_RANGE = (0.8, 1.3)  # log-log slopes the verdict calls linear
DOC_SEED = 7  # the document of length n is drawn from seed DOC_SEED + n


@dataclass(frozen=True)
class ScalingPoint:
    n_tokens: int
    n_chunks: int
    encode_seconds: float
    fuse_seconds: float
    total_seconds: float
    memory_rows: int
    naive_rows: int


@dataclass(frozen=True)
class ScalingReport:
    points: tuple[ScalingPoint, ...]
    slope: float
    fuse_encode_ratio: float
    reliable: bool

    def csv_rows(self) -> list[list]:
        header = ["N", "C", "encode_s", "fuse_s", "total_s", "scale_rows", "naive_rows"]
        rows: list[list] = [header]
        for p in self.points:
            rows.append([p.n_tokens, p.n_chunks, repr(p.encode_seconds),
                         repr(p.fuse_seconds), repr(p.total_seconds),
                         p.memory_rows, p.naive_rows])
        return rows

    def verdict(self) -> dict:
        lo, hi = SLOPE_RANGE
        return {"slope": self.slope, "pass": bool(lo <= self.slope <= hi)}


def compare_naive_concat(n_tokens: int, cfg: PipelineConfig) -> tuple[int, int]:
    """(rows the decoder sees here, rows under full concatenation).

    Pure arithmetic: C * (2 * boundary_width + middle_count) versus
    C * chunk_len. Nothing is allocated.
    """
    c = segment_count(n_tokens, cfg.chunk_len, cfg.overlap)
    scale_rows = c * (2 * cfg.boundary_width + cfg.middle_count)
    naive_rows = c * cfg.chunk_len
    return scale_rows, naive_rows


def fit_loglog_slope(ns, times) -> float:
    return float(np.polyfit(np.log(np.asarray(ns, dtype=np.float64)),
                            np.log(np.asarray(times, dtype=np.float64)), 1)[0])


def check_lengths(lengths: list[int], cfg: PipelineConfig) -> list[int]:
    """``lengths`` if a scaling run can fit a slope to them.

    There must be at least 4, strictly increasing, and each long enough
    that every chunk supplies its full ``2*boundary_width + middle_count`` rows.
    """
    if len(lengths) < 4:
        raise ConfigError("run_scaling needs at least 4 lengths")
    if any(b >= a for a, b in zip(lengths[1:], lengths)):
        raise ConfigError("lengths must be strictly increasing")
    shortest = 2 * cfg.boundary_width + cfg.middle_count
    if lengths[0] < shortest:
        raise ConfigError(f"--lengths entry {str(lengths[0])!r}: fewer tokens than "
                          f"2*boundary_width + middle_count = {shortest}")
    return lengths


def run_scaling(
    lengths: list[int],
    cfg: PipelineConfig,
    repeats: int = 3,
) -> ScalingReport:
    """Time the full encode+fuse pipeline across document lengths.

    Documents are uniform random token ids (content does not affect
    cost). Each point takes the median of ``repeats`` runs; one warm-up
    run at the smallest length is discarded. Runs are sequential by
    design so the slope reflects algorithmic cost.
    """
    check_lengths(lengths, cfg)
    weights = init_weights(cfg.encoder_config())
    docs = {n: make_random_doc(n, cfg.vocab_size, DOC_SEED + n) for n in lengths}
    sweep([("warmup", docs[lengths[0]])], [cfg], weights)

    # interleave repeats across lengths so machine-load drift during the
    # benchmark biases every point alike instead of tilting the slope
    runs: dict[int, list[tuple[float, float]]] = {n: [] for n in lengths}
    for _ in range(repeats):
        for n in lengths:
            runs[n].append(sweep([(f"bench-{n}", docs[n])], [cfg], weights)[0][1:])

    points = []
    for n in lengths:
        encode_s = statistics.median(r[0] for r in runs[n])
        fuse_s = statistics.median(r[1] for r in runs[n])
        scale_rows, naive_rows = compare_naive_concat(n, cfg)
        points.append(ScalingPoint(
            n_tokens=n,
            n_chunks=segment_count(n, cfg.chunk_len, cfg.overlap),
            encode_seconds=encode_s,
            fuse_seconds=fuse_s,
            total_seconds=encode_s + fuse_s,
            memory_rows=scale_rows,
            naive_rows=naive_rows,
        ))

    slope = fit_loglog_slope([p.n_tokens for p in points],
                             [p.total_seconds for p in points])
    largest = points[-1]
    return ScalingReport(
        points=tuple(points),
        slope=slope,
        fuse_encode_ratio=largest.fuse_seconds / largest.encode_seconds,
        reliable=points[0].total_seconds >= MIN_RELIABLE_SECONDS,
    )
