"""The run directory of ``chunkfuse pipeline``, built from the test oracles alone.

:func:`reference_run` writes what the CLI writes for a token corpus, one
step at a time and without the library's pipeline:

- windows from ``windows_one_by_one``;
- each chunk's interior sample from ``sample_indices_per_value``, on a
  stream seeded with the middle seed XOR ``fnv1a64`` of the document id;
- each window's kept rows, boundary blocks and sample, from one
  ``encode`` call of that window alone;
- each boundary block blended with its context, ``alpha * block +
  (1 - alpha) * context``;
- the memory from ``assemble_per_chunk``, written by
  ``matrix_to_text_per_value``;
- the greedy tokens and each position's cross-attention from
  ``decode_per_position``, one position at a time, the attention mass
  summed one column at a time.

The contexts alone are the library's ``cumulation.contexts``: the context
oracles add in another order than ``cumsum`` and agree with it only
within the ``fsum_context`` bound. A window is encoded for its kept rows,
not in full: a kept row is bitwise the full encoding's only where BLAS
multiplies r rows and n rows with one kernel, and on small windows with
few kept rows or narrow heads it does not. For the same reason the two
copies of a row that a window shorter than 2k keeps twice can differ in
the last bit, so each block is read from its own place. Weights come from
``init_weights`` and the decoder's cached draw, whose bytes
``test_golden.py`` pins. The config files, names and metadata are spelled
out here from the config's fields.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from oracles import (
    assemble_per_chunk,
    decode_per_position,
    matrix_to_text_per_value,
    sample_indices_per_value,
    windows_one_by_one,
)

from chunkfuse.cumulation import CHUNK, LEFT, MIDDLE, RIGHT, contexts
from chunkfuse.encoder import ModelConfig, encode, init_weights
from chunkfuse.numerics import SeededRng, fnv1a64

PREFIX = [0]  # the decode demo's prefix and step count
STEPS = 16
ROLE_NAMES = {LEFT: "left", MIDDLE: "middle", RIGHT: "right"}
SAFE = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._-")


def safe_name(doc_id: str) -> str:
    """The directory name of a document: other characters become ``_``, as do dot-only names."""
    name = "".join(ch if ch in SAFE else "_" for ch in doc_id)
    return "_" * max(len(name), 1) if set(name) <= {"."} else name


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def model_config(values: dict, max_len: int, seed: int) -> ModelConfig:
    return ModelConfig(vocab_size=values["vocab_size"], d_model=values["d_model"],
                       n_heads=values["n_heads"], n_layers=values["n_layers"],
                       d_ff=values["d_ff"], max_len=max_len, seed=seed)


def middles_of(doc_id: str, values: dict, count: int, n: int) -> list[list[int]]:
    """Each chunk's sorted interior sample, chunk-local, drawn one chunk after another."""
    k = values["boundary_width"]
    seed = values["seed"] if values["middle_seed"] is None else values["middle_seed"]
    rng = SeededRng(seed ^ fnv1a64(doc_id))
    interior = max(n - 2 * k, 0)
    take = min(values["middle_count"], interior)
    return [[k + i for i in sorted(sample_indices_per_value(rng, interior, take))]
            for _ in range(count)]


def attention_mass(per_query: np.ndarray, provenance: np.ndarray) -> list[float]:
    """Per chunk, the mean over queries of the summed attention of its columns.

    ``per_query`` is (queries x rows), each query's attention averaged over
    heads. Each chunk's columns are added in a loop, left to right; the mean
    over queries is numpy's over the (queries x chunks) sums, whose order
    numpy picks by shape: pairwise when there is one chunk.
    """
    chunks = provenance[:, CHUNK].tolist()
    sums = np.zeros((len(per_query), max(chunks)))
    for query, row in enumerate(per_query.tolist()):
        for column, value in enumerate(row):
            sums[query, chunks[column] - 1] += value
    return sums.mean(axis=0).tolist()


def write_document(doc_dir: Path, doc_id: str, tokens: list[int], values: dict,
                   weights, dec_cfg: ModelConfig) -> None:
    k, m, alpha = values["boundary_width"], values["middle_count"], values["alpha"]
    windows = windows_one_by_one(tokens, values["chunk_len"], values["overlap"])
    starts = [start for start, _ in windows]
    n = len(windows[0][1])
    middles = middles_of(doc_id, values, len(windows), n)
    lefts, rights, encodings = [], [], []
    for (_, window), idx in zip(windows, middles):
        keep = [*range(k), *idx, *range(n - k, n)]
        rows = encode(np.array(window)[None], weights, np.array(keep)[None])[0]
        lefts.append(rows[:k])
        rights.append(rows[len(keep) - k:])
        encoding = np.full((n, rows.shape[1]), np.nan)  # a row no file reads stays NaN
        encoding[idx] = rows[k:len(keep) - k]
        encodings.append(encoding)
    lefts, rights = np.stack(lefts), np.stack(rights)
    back, forward = contexts(lefts, rights)
    memory = assemble_per_chunk(alpha * lefts + (1.0 - alpha) * back,
                                alpha * rights + (1.0 - alpha) * forward,
                                encodings, middles, starts, m)

    doc_dir.mkdir(parents=True)
    write_json(doc_dir / "segments.json", {
        "L": values["chunk_len"], "O": values["overlap"],
        "segments": [{"i": i, "start": start, "len": n} for i, start in enumerate(starts, 1)],
    })
    write_json(doc_dir / "fused_manifest.json", {
        "chunks": len(windows), "boundary_width": k, "middle_count": m,
        "alpha": alpha, "rows": len(memory.flattened), "width": memory.width,
        "positions_are_global": True, "short_chunks": memory.short_chunks,
        "middle_shortfall": memory.middle_shortfall,
        "provenance": [[chunk, ROLE_NAMES[role], position]
                       for chunk, role, position in memory.provenance.tolist()],
        "doc_id": doc_id, "n_tokens": len(tokens),
    })
    (doc_dir / "fused_matrix.txt").write_text(matrix_to_text_per_value(memory.flattened),
                                               encoding="ascii")
    generated, _, cross = decode_per_position(PREFIX, memory, dec_cfg, STEPS)
    write_json(doc_dir / "decode_demo.json", {"doc_id": doc_id, "prefix": PREFIX,
                                              "generated": generated[len(PREFIX):]})
    mass = attention_mass(cross, memory.provenance)
    (doc_dir / "attention_mass.csv").write_text(
        "chunk,mass\n" + "".join(f"{i},{value!r}\n" for i, value in enumerate(mass, 1)),
        encoding="utf-8")


def reference_run(run_dir: Path, corpus: str, docs: list[tuple[str, list[int]]],
                  values: dict) -> None:
    """Write the run directory of ``chunkfuse pipeline CORPUS`` given every config field.

    ``values`` holds all of ``PipelineConfig``'s fields, ``alpha`` a float;
    ``docs`` the corpus's ``(id, tokens)`` in file order, ``corpus`` its path
    as the command line spelled it.
    """
    run_dir.mkdir(parents=True)
    canonical = json.dumps(values, sort_keys=True, separators=(",", ":"))
    config_hash = hashlib.sha256(canonical.encode("ascii")).hexdigest()
    write_json(run_dir / "config.json", values)
    (run_dir / "config_hash.txt").write_text(config_hash + "\n", encoding="ascii")
    weights = init_weights(model_config(values, values["chunk_len"], values["seed"]))
    dec_cfg = model_config(values, len(PREFIX) + STEPS, (values["seed"] + 1) % (1 << 64))
    for doc_id, tokens in docs:
        write_document(run_dir / "docs" / safe_name(doc_id), doc_id, tokens, values,
                       weights, dec_cfg)
    write_json(run_dir / "run_meta.json", {
        "config_hash": config_hash, "seed": values["seed"],
        "middle_seed_effective": (values["seed"] if values["middle_seed"] is None
                                  else values["middle_seed"]),
        "documents": [doc_id for doc_id, _ in docs],
        "vocab_size_effective": values["vocab_size"], "corpus": corpus,
    })
