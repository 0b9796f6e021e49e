"""The work ``chunkfuse pipeline`` does, one document at a time, plus checks.

Every library call goes through the module attribute (``pipeline.run_document``,
not a local name) so the traced run's wrappers see it. The artifact
writers replicate the CLI's JSON and CSV layout; ``cli_equivalence``
proves the replica byte for byte against ``chunkfuse pipeline`` itself.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from chunkfuse import cli, cumulation, decoder, encoder, numerics, pipeline, segmenter

from spans import Recorder
from workloads import Workload, make_corpus, write_corpus

# the decode demo of ``chunkfuse pipeline``
PREFIX = [0]
STEPS = 16
_SAFE_ID = re.compile(r"[A-Za-z0-9._-]+")


class SetupError(Exception):
    """The workload cannot run at all; the benchmark reports no result."""


@dataclass
class Ready:
    cfg: pipeline.PipelineConfig
    docs: list
    weights: object
    dec_cfg: object
    seconds: float


@dataclass
class Outcome:
    """One document's timings and what the checks need."""

    n_tokens: int
    doc_s: float
    memory_s: float
    decode_s: float
    segments: dict
    manifest: dict
    memory: np.ndarray
    generated: list
    cross: np.ndarray
    mass: np.ndarray
    matrix_path: Path


def set_up(wl: Workload, corpus: Path, rec: Recorder) -> Ready:
    """Corpus load and validation, weight init, and one warm decode step.

    A one-chunk warm-up document runs first so lazily built state
    counts here and not against the first measured document.
    """
    cfg = wl.cfg
    started = time.perf_counter()
    rec.doc = "setup"
    with rec.span("setup.load_corpus"):
        docs, vocab = cli.load_corpus(corpus)
    if vocab is not None or not docs:
        raise SetupError(f"{corpus}: expected a non-empty token corpus")
    if max((max(t) for _, t in docs if t), default=0) >= cfg.vocab_size:
        raise SetupError(f"{corpus}: token id outside the vocabulary")
    ids = [d for d, _ in docs]
    if len(set(ids)) != len(ids) or not all(_SAFE_ID.fullmatch(d) for d in ids):
        raise SetupError(f"{corpus}: document ids must be distinct and path-safe")
    with rec.span("setup.init_weights"):
        weights = encoder.init_weights(cfg.encoder_config())
    dec_cfg = cfg.decoder_config(max_len=len(PREFIX) + STEPS)
    rec.doc = "warmup"
    warm = pipeline.run_document(docs[0][1][:cfg.chunk_len], cfg, weights=weights,
                                 doc_id="warmup")
    rec.doc = "setup"
    with rec.span("setup.decoder"):
        decoder.decode_step(PREFIX, warm.fused, dec_cfg)
    return Ready(cfg, docs, weights, dec_cfg, time.perf_counter() - started)


def _write_json(rec: Recorder, path: Path, obj) -> None:
    with rec.span("doc.write_json"):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")


def write_run_header(out_dir: Path, cfg, rec: Recorder) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(rec, out_dir / "config.json", json.loads(cfg.canonical_json()))
    with open(out_dir / "config_hash.txt", "w", encoding="ascii", newline="\n") as fh:
        fh.write(cfg.config_hash() + "\n")


def write_run_meta(out_dir: Path, cfg, doc_ids: list[str], corpus: Path,
                   rec: Recorder) -> None:
    _write_json(rec, out_dir / "run_meta.json", {
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "middle_seed_effective": cfg.effective_middle_seed(),
        "documents": doc_ids,
        "vocab_size_effective": cfg.vocab_size,
        "corpus": str(corpus),
    })


def process_document(ready: Ready, out_dir: Path, doc_id: str, tokens,
                     rec: Recorder) -> Outcome:
    """The per-document body of ``chunkfuse pipeline``, step for step."""
    cfg, dec_cfg = ready.cfg, ready.dec_cfg
    with rec.span("doc") as doc_span:
        with rec.span("doc.memory") as memory_span:
            run = pipeline.run_document(tokens, cfg, weights=ready.weights, doc_id=doc_id)
        doc_dir = out_dir / "docs" / doc_id
        doc_dir.mkdir(parents=True, exist_ok=True)
        segments = segmenter.segment_set_to_dict(run.segments)
        _write_json(rec, doc_dir / "segments.json", segments)
        manifest = cumulation.fused_sequence_manifest(run.fused)
        manifest["doc_id"] = doc_id
        manifest["n_tokens"] = len(tokens)
        _write_json(rec, doc_dir / "fused_manifest.json", manifest)
        with rec.span("doc.save_matrix"):
            numerics.save_matrix(run.fused.flattened, doc_dir / "fused_matrix.txt")
        with rec.span("doc.decode") as decode_span:
            generated = pipeline.greedy_decode(PREFIX, run.fused, dec_cfg, STEPS)
        _write_json(rec, doc_dir / "decode_demo.json", {
            "doc_id": doc_id,
            "prefix": PREFIX,
            "generated": generated[len(PREFIX):],
        })
        with rec.span("doc.final_step"):
            _, cross = decoder.decode_step(generated, run.fused, dec_cfg)
        with rec.span("doc.attn_mass"):
            mass = decoder.attention_mass_by_chunk(cross, run.fused.provenance)
        with rec.span("doc.write_csv"):
            with open(doc_dir / "attention_mass.csv", "w", encoding="utf-8",
                      newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(
                    [["chunk", "mass"],
                     *[[i + 1, repr(float(m))] for i, m in enumerate(mass)]])
    return Outcome(
        n_tokens=len(tokens),
        doc_s=doc_span[2] - doc_span[1],
        memory_s=memory_span[2] - memory_span[1],
        decode_s=decode_span[2] - decode_span[1],
        segments=segments,
        manifest=manifest,
        memory=run.fused.flattened,
        generated=generated,
        cross=np.asarray(cross),
        mass=np.asarray(mass),
        matrix_path=doc_dir / "fused_matrix.txt",
    )


def check_document(cfg, out: Outcome, rec: Recorder) -> list[str]:
    """Everything that must hold for one document; an empty list passes."""
    problems = []
    man = out.manifest
    chunks = out.segments["segments"]
    shortfall = sum(man["middle_shortfall"].values())
    expected = len(chunks) * (2 * cfg.boundary_width + cfg.middle_count) - shortfall
    if not man["rows"] == len(man["provenance"]) == out.memory.shape[0] == expected:
        problems.append(f"rows {man['rows']} (matrix {out.memory.shape[0]}) "
                        f"!= C*(2k+m) - shortfall = {expected}")
    bounds = {c["i"]: (c["start"], c["start"] + c["len"]) for c in chunks}
    outside = sum(1 for chunk, _role, pos in man["provenance"]
                  if not bounds[chunk][0] <= pos < bounds[chunk][1])
    if outside:
        problems.append(f"{outside} provenance positions outside their chunk")
    for what, values in (("memory", out.memory), ("cross-attention", out.cross),
                         ("attention mass", out.mass)):
        if not np.all(np.isfinite(values)):
            problems.append(f"non-finite {what}")
    with rec.span("check.load_matrix"):
        loaded = numerics.load_matrix(out.matrix_path)
    if (loaded.shape != out.memory.shape
            or loaded.tobytes() != np.ascontiguousarray(out.memory).tobytes()):
        problems.append("fused_matrix.txt does not read back bit-exactly")
    if not np.allclose(out.cross.sum(axis=1), 1.0, rtol=0.0, atol=1e-9):
        problems.append("a query's attention mass does not sum to 1")
    gen = out.generated
    if len(gen) != len(PREFIX) + STEPS or not all(0 <= t < cfg.vocab_size for t in gen):
        problems.append(f"decode produced {gen!r}")
    return problems


def tree_files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


def tree_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for rel, data in sorted(tree_files(root).items()):
        h.update(rel.encode("utf-8") + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def cli_equivalence(wl: Workload, ready: Ready, work: Path, seed: int) -> list[str]:
    """Run a small corpus through the harness and through ``chunkfuse pipeline``.

    The two run directories must match byte for byte.
    """
    rec = Recorder()
    corpus = work / "small.jsonl"
    write_corpus(make_corpus(wl, seed, 2, length=wl.small_tokens), corpus)
    docs, _ = cli.load_corpus(corpus)
    mine, theirs = work / "small-harness", work / "small-cli"
    write_run_header(mine, ready.cfg, rec)
    for doc_id, tokens in docs:
        rec.doc = doc_id
        process_document(ready, mine, doc_id, tokens, rec)
    write_run_meta(mine, ready.cfg, [d for d, _ in docs], corpus, rec)

    flags = []
    for name, value in asdict(ready.cfg).items():
        if value is not None:
            flags += ["--" + name.replace("_", "-"), str(value)]
    code = cli.main(["pipeline", str(corpus), "--out-dir", str(theirs), *flags])
    if code != 0:
        return [f"chunkfuse pipeline exited {code} on the small corpus"]
    a, b = tree_files(mine), tree_files(theirs)
    differ = sorted(rel for rel in a.keys() | b.keys() if a.get(rel) != b.get(rel))
    return [f"harness and chunkfuse pipeline differ in {rel}" for rel in differ]
