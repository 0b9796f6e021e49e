"""Per-module metrics of the traced run, derived from its spans.

Per-document values are medians over the traced passes; ratios are
ratios of totals. ``<module>.busy_s`` is the module's self time: its
spans' durations minus the time their child spans cover, so the encoder
is not charged for ``numerics.check_finite`` and the pipeline is not
charged for the encoder. Stage metrics (``cumulation.fuse_s`` ...) are
inclusive times of the named function; they read 0 once a refactor
retires that function, while ``busy_s`` keeps the module's total.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import module_of, self_times, step_of

MB = float(1 << 20)

# stage metric -> the function that does the stage today
STAGES = {
    "cumulation.boundaries_s": "cumulation.boundaries_from_encodings",
    "cumulation.contexts_s": "cumulation.with_contexts",
    "cumulation.fuse_s": "cumulation.fuse",
    "cumulation.assemble_s": "cumulation.assemble",
    "cumulation.manifest_s": "cumulation.fused_sequence_manifest",
    "pipeline.sample_s": "pipeline.sample_document_middles",
}
# metric -> harness step whose inclusive time it reports
STEPS = {
    "pipeline.run_document_s": "doc.memory",
    "numerics.save_s": "doc.save_matrix",
    "numerics.load_s": "check.load_matrix",
    "decoder.attn_mass_s": "doc.attn_mass",
    "cli.write_json_s": "doc.write_json",
}


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], traced_docs: list[str], facts: dict,
                  overhead_ratio: float, encoder_peak: int, retained: int) -> dict:
    """``facts`` maps each traced doc key to the counts its artifacts show."""
    traced = set(traced_docs)
    selfs = self_times(spans)
    steps = step_of(spans)
    per_doc: dict = defaultdict(lambda: defaultdict(float))
    decode_steps: list[float] = []
    for i, (name, start, end, parent, doc, rows) in enumerate(spans):
        d = per_doc[doc]
        module = module_of(name)
        d["self:" + module] += selfs[i]
        d["incl:" + name] += end - start
        if rows is not None:
            d["rows:" + module] += rows
        entry = parent < 0 or module_of(spans[parent][0]) != module
        if module == "decoder" and entry and steps[i] == "doc.decode":
            d["decode_steps"] += 1
            if doc in traced:
                decode_steps.append(end - start)

    docs = [per_doc[k] for k in traced_docs]
    setup = per_doc["setup"]

    def med(key):
        return _median(d[key] for d in docs)

    def fact(key):
        return _median(facts[k][key] for k in traced_docs)

    enc = sum(d["self:encoder"] for d in docs)
    seg = sum(d["self:segmenter"] for d in docs)
    memory = sum(d["incl:doc.memory"] for d in docs)
    rows_encoded = sum(d["rows:encoder"] for d in docs)
    out = {
        "encoder.busy_s": (med("self:encoder"), "s"),
        "encoder.s_per_chunk": (_ratio(enc, sum(facts[k]["chunks"] for k in traced_docs)), "s"),
        "encoder.rows_encoded": (med("rows:encoder"), "count"),
        "encoder.rows_kept_ratio": (_ratio(sum(facts[k]["rows"] for k in traced_docs),
                                           rows_encoded), "ratio"),
        "encoder.peak_mb": (encoder_peak / MB, "MB"),
        "encoder.init_s": (setup["self:encoder"], "s"),
        "cumulation.busy_s": (med("self:cumulation"), "s"),
        "cumulation.rows": (fact("rows"), "count"),
        "cumulation.shortfall_rows": (fact("shortfall"), "count"),
        "cumulation.short_chunks": (fact("short_chunks"), "count"),
        # the acceptance gate's split: segment+encode against everything
        # else run_document does (boundaries, contexts, fuse, sampling, assembly)
        "cumulation.fuse_encode_ratio": (_ratio(memory - enc - seg, enc + seg), "ratio"),
        "pipeline.retained_mb": (retained / MB, "MB"),
        "segmenter.busy_s": (med("self:segmenter"), "s"),
        "segmenter.chunks": (fact("chunks"), "count"),
        "numerics.save_mb": (fact("save_bytes") / MB, "MB"),
        "decoder.init_s": (setup["self:decoder"], "s"),
        "decoder.step_s_p50": (_median(decode_steps), "s"),
        "decoder.steps": (med("decode_steps"), "count"),
        "decoder.memory_rows": (fact("memory_rows"), "count"),
        "cli.load_corpus_s": (setup["self:cli"], "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    for metric, fn in STAGES.items():
        out[metric] = (med("incl:" + fn), "s")
    for metric, step in STEPS.items():
        out[metric] = (med("incl:" + step), "s")
    return out
