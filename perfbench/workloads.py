"""The benchmark's workloads: one pipeline config and a seeded corpus each.

The program only ever sees the generated token lists; the seed picks
the token ids and the document lengths inside each workload's band.
Bands are narrow on purpose: cost depends on length, not on content, so
a narrow band keeps the per-document medians comparable across seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from chunkfuse.pipeline import PipelineConfig


@dataclass(frozen=True)
class Workload:
    name: str
    cfg: PipelineConfig
    n_docs: int            # documents in the corpus; the loop wraps if it runs out
    min_tokens: int
    max_tokens: int
    small_tokens: int      # document length of the CLI-equivalence corpus
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        name="long-doc",
        # the criterion-7 config of the acceptance suite
        cfg=PipelineConfig(chunk_len=1024, overlap=150, boundary_width=1,
                           middle_count=300, alpha=0.5, d_model=32, n_heads=2,
                           n_layers=2, d_ff=64, vocab_size=128, seed=7),
        n_docs=8, min_tokens=32768, max_tokens=32768, small_tokens=2500,
        why="ROADMAP reference config on 32k-token documents: softmax-bound "
            "encoder, 302/1024 rows kept, 11k-row memories",
    ),
    Workload(
        name="small-window",
        # the README example config
        cfg=PipelineConfig(chunk_len=64, overlap=16, boundary_width=2,
                           middle_count=6, alpha=0.5, d_model=32, n_heads=4,
                           n_layers=2, d_ff=64, vocab_size=128, seed=7),
        n_docs=16, min_tokens=49500, max_tokens=50500, small_tokens=500,
        why="about 1k chunks per 50k-token document: per-chunk overhead, "
            "fusion, matrix writes and decoding over 10k rows count",
    ),
    Workload(
        name="wide-corpus",
        cfg=PipelineConfig(chunk_len=256, overlap=32, boundary_width=2,
                           middle_count=124, alpha=0.5, d_model=256, n_heads=4,
                           n_layers=2, d_ff=1024, vocab_size=1024, seed=7),
        # every length in the band makes exactly 9 chunks
        n_docs=48, min_tokens=1856, max_tokens=2048, small_tokens=600,
        why="many 2k-token documents at d=256: weight init dominates set-up, "
            "BLAS-bound encoder, wide rows make text matrices costly",
    ),
)}


def make_corpus(wl: Workload, seed: int, n_docs: int, length: int | None = None):
    """(doc id, tokens) pairs drawn from ``seed``; ``length`` fixes every length."""
    rng = random.Random(f"{wl.name}:{seed}:{n_docs}:{length}")
    vocab = wl.cfg.vocab_size
    docs = []
    for i in range(n_docs):
        n = length or rng.randint(wl.min_tokens, wl.max_tokens)
        docs.append((f"doc-{i:04d}", [rng.randrange(vocab) for _ in range(n)]))
    return docs


def write_corpus(docs, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for doc_id, tokens in docs:
            fh.write(json.dumps({"id": doc_id, "tokens": tokens}) + "\n")
