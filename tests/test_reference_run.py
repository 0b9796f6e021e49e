"""``chunkfuse pipeline`` writes, byte for byte, the run that the oracles build.

A hypothesis test draws a config of windows of at most 64 tokens and a
corpus of 1 to 4 token documents with odd ids, each from shorter than
two boundary blocks to several windows long. It runs ``cli.main`` and
compares every file of the run directory with ``reference_run``'s.
"""

import json
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from reference_run import reference_run, safe_name

from chunkfuse.cli import main


@st.composite
def configs(draw) -> dict:
    chunk_len = draw(st.integers(2, 64))
    k = draw(st.integers(1, min(3, chunk_len // 2)))
    d_head, n_heads = draw(st.sampled_from([1, 2, 3, 4, 8, 16])), draw(st.integers(1, 4))
    return {
        "chunk_len": chunk_len,
        "overlap": draw(st.integers(0, chunk_len - 1)),
        "boundary_width": k,
        "middle_count": draw(st.integers(0, min(chunk_len - 2 * k, 12))),
        "alpha": draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 1)),
        "d_model": d_head * n_heads,
        "n_heads": n_heads,
        "n_layers": draw(st.integers(1, 2)),
        "d_ff": draw(st.integers(1, 24)),
        "vocab_size": draw(st.integers(1, 40)),
        "seed": draw(st.integers(0, (1 << 64) - 1)),
        "middle_seed": draw(st.none() | st.integers(0, (1 << 64) - 1)),
    }


# ids of every kind a file name must survive: dots, slashes, spaces, non-ASCII
doc_ids = st.text(st.characters(blacklist_categories=["Cs"]) | st.sampled_from("./ _-"),
                  max_size=8)


@st.composite
def runs(draw) -> tuple[dict, list[tuple[str, list[int]]]]:
    values = draw(configs())
    ids = draw(st.lists(doc_ids, min_size=1, max_size=4, unique_by=safe_name))
    stride = values["chunk_len"] - values["overlap"]
    docs = []
    for doc_id in ids:
        n = draw(st.integers(values["boundary_width"], values["chunk_len"] + 3 * stride))
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        docs.append((doc_id, rng.integers(0, values["vocab_size"], n).tolist()))
    return values, docs


def tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


@given(runs())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@example(({"chunk_len": 12, "overlap": 3, "boundary_width": 3, "middle_count": 2, "alpha": 0.25,
           "d_model": 8, "n_heads": 2, "n_layers": 2, "d_ff": 8, "vocab_size": 20, "seed": 5,
           "middle_seed": None},
          [("..", [1, 2, 3, 4]), ("a/b", list(range(20)) * 2), ("é", [7] * 5)]))
def test_pipeline_writes_the_reference_run(tmp_path_factory, run):
    values, docs = run
    work = tmp_path_factory.mktemp("run")
    corpus = work / "corpus.jsonl"
    corpus.write_text("".join(json.dumps({"id": doc_id, "tokens": tokens}) + "\n"
                              for doc_id, tokens in docs), encoding="utf-8")
    flags = [f"--{name.replace('_', '-')}={json.dumps(value)}" for name, value in values.items()]
    assert main(["pipeline", str(corpus), "--out-dir", str(work / "cli"), *flags]) == 0
    reference_run(work / "reference", str(corpus), docs, values)
    got, want = tree(work / "cli"), tree(work / "reference")
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []
