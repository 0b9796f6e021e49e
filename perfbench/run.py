"""chunkfuse benchmark: a closed loop over one seeded workload.

    python3 perfbench/run.py --workload long-doc --seed 1 --seconds 25 --trace 0

One process runs one document at a time (``workers=1``) through the
steps ``chunkfuse pipeline`` takes, for ``--seconds`` seconds, and checks
every document's outputs. With ``--trace 0`` the last stdout line
carries the end-to-end metrics; with ``--trace 1`` each document runs
twice, untraced and traced, and the line carries the per-module
metrics. Set-up is also timed in fresh child processes, because the
decoder caches its weights for the life of a process. Earlier stdout
lines give the machine, sample counts, the failure ratio and the
artifact tree's sha256. Scratch files live under ``.perfbench/`` at the
repository root; spans of a traced run stay in ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# fresh-process set-up samples, besides the run's own: at least one, and
# more while they are cheap (wide-corpus set-up alone takes about 6 s)
MAX_SETUP_PROBES = 4
SETUP_PROBE_SECONDS = 3.0
MIN_DOCS = 3          # timed documents (pairs when traced) a run always completes


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", type=Path, metavar="CORPUS",
                   help="only time set-up on CORPUS and print it (internal)")
    args = p.parse_args(argv)
    if args.setup_probe is None and (args.seed is None or args.seconds is None):
        p.error("--seed and --seconds are required")
    return args


def machine() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_line = blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_line = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_line,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def _facts(out) -> dict:
    man = out.manifest
    return {
        "chunks": len(out.segments["segments"]),
        "rows": man["rows"],
        "shortfall": sum(man["middle_shortfall"].values()),
        "short_chunks": len(man["short_chunks"]),
        "memory_rows": out.memory.shape[0],
        "save_bytes": out.matrix_path.stat().st_size,
        "n_tokens": out.n_tokens,
        "doc_s": out.doc_s,
        "memory_s": out.memory_s,
        "decode_s": out.decode_s,
    }


def _probe_setups(wl_name: str, corpus: Path) -> list[float]:
    samples = []
    started = time.perf_counter()
    while len(samples) < MAX_SETUP_PROBES and (
            not samples or time.perf_counter() - started < SETUP_PROBE_SECONDS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", wl_name,
             "--setup-probe", str(corpus)],
            capture_output=True, text=True, timeout=150, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _loop(harness, ready, out_dir, rec, seconds, traced):
    """A warm-up document, then a closed loop until ``seconds`` pass.

    The warm-up is checked but not timed: the first full-size document
    in a process pays one-off costs (the allocator growing its heap,
    OpenBLAS buffers) that made its decode 4x slower on small-window.
    Returns (timed passes, passes attempted, passes failed, distinct
    document ids in order).
    """
    passes, attempted, failed, done = [], 0, 0, []

    def one_pass(i, doc_id, tokens, with_spans):
        nonlocal attempted, failed
        if with_spans:
            rec.install()
        else:
            rec.uninstall()
        rec.doc = f"{i}:{doc_id}:{'traced' if with_spans else 'plain'}"
        attempted += 1
        try:
            out = harness.process_document(ready, out_dir, doc_id, tokens, rec)
            problems = harness.check_document(ready.cfg, out, rec)
            facts = _facts(out)
        except Exception:  # a failing document is counted, the run goes on
            traceback.print_exc()
            problems, facts = ["raised"], None
        finally:
            rec.uninstall()
        if problems:
            failed += 1
            print(f"FAIL {doc_id}: {'; '.join(problems)}", file=sys.stderr)
        if doc_id not in done:
            done.append(doc_id)
        return facts

    one_pass(0, *ready.docs[0], with_spans=False)
    started = time.perf_counter()
    i = 1
    # a traced run times each document untraced and traced, alternating
    # which goes first, and stops on an even count of pairs: the second
    # pass over a document runs faster, and that must not bias the ratio
    while (i <= MIN_DOCS or time.perf_counter() - started < seconds
           or (traced and (i - 1) % 2)):
        doc_id, tokens = ready.docs[i % len(ready.docs)]
        modes = ((False, True) if i % 2 else (True, False)) if traced else (False,)
        for with_spans in modes:
            facts = one_pass(i, doc_id, tokens, with_spans)
            if facts is not None:
                passes.append((rec.doc, with_spans, facts))
        i += 1
    return passes, attempted, failed, done


def _memory_pass(ready, rec):
    """tracemalloc over one run_document: encoder peak and retained bytes."""
    import tracemalloc
    from chunkfuse import pipeline

    doc_id, tokens = ready.docs[0]
    rec.doc = "memory"
    tracemalloc.start()
    rec.install()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run = pipeline.run_document(tokens, ready.cfg, weights=ready.weights,
                                    doc_id=doc_id)
        retained = tracemalloc.get_traced_memory()[0] - before
        del run
    finally:
        rec.uninstall()
        tracemalloc.stop()
    return max(rec.peaks, default=0), retained


def _median(values) -> float:
    return float(statistics.median(values))


def _end_to_end(setups, docs, peak_rss_mb) -> dict:
    return {
        "setup_s": (_median(setups), "s"),
        "tokens_per_s": (sum(f["n_tokens"] for f in docs)
                         / sum(f["doc_s"] for f in docs), "tokens/s"),
        "doc_s_p50": (_median(f["doc_s"] for f in docs), "s"),
        "memory_s_p50": (_median(f["memory_s"] for f in docs), "s"),
        "decode_s_p50": (_median(f["decode_s"] for f in docs), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _per_layer(ready, rec, passes) -> dict:
    from layers import layer_metrics

    traced = [key for key, with_spans, _ in passes if with_spans]
    facts = {key: f for key, with_spans, f in passes if with_spans}
    plain = [f for _, with_spans, f in passes if not with_spans]
    overhead = (sum(f["doc_s"] for f in facts.values())
                / sum(f["doc_s"] for f in plain))
    peak, retained = _memory_pass(ready, rec)
    return layer_metrics(rec.spans, traced, facts, overhead, peak, retained)


def _write_trace(rec, info, workload: str, seed: int) -> None:
    from spans import self_times

    trace_dir = ROOT / ".perfbench" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    with open(trace_dir / f"{workload}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"machine": info, "workload": workload, "seed": seed,
                   "fields": ["name", "start", "end", "parent", "doc", "rows", "self"],
                   "spans": [s + [t] for s, t in zip(rec.spans, self_times(rec.spans))]},
                  fh)


def run(args) -> int:
    # imported here: they import chunkfuse, which main() puts on the path
    import harness
    from spans import Recorder
    from workloads import WORKLOADS, make_corpus, write_corpus

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 1
    wl = WORKLOADS[args.workload]

    if args.setup_probe is not None:
        ready = harness.set_up(wl, args.setup_probe, Recorder())
        print(json.dumps({"setup_s": ready.seconds}))
        return 0

    info = machine()
    print("# machine " + json.dumps(info, sort_keys=True))
    work = ROOT / ".perfbench" / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        corpus = work / "corpus.jsonl"
        write_corpus(make_corpus(wl, args.seed, wl.n_docs), corpus)
        setups = [] if args.trace else _probe_setups(wl.name, corpus)
        rec = Recorder()
        if args.trace:
            rec.install()
        try:
            ready = harness.set_up(wl, corpus, rec)
        finally:
            rec.uninstall()
        setups.append(ready.seconds)

        out_dir = work / "run"
        harness.write_run_header(out_dir, wl.cfg, rec)
        loop_started = time.perf_counter()
        passes, attempted, failed, done = _loop(
            harness, ready, out_dir, rec, args.seconds, traced=bool(args.trace))
        loop_s = time.perf_counter() - loop_started
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        harness.write_run_meta(out_dir, wl.cfg, done, corpus, rec)
        print(f"# artifacts sha256 {harness.tree_sha256(out_dir)} "
              f"({len(done)} documents; first document "
              f"{harness.tree_sha256(out_dir / 'docs' / done[0])})")
        shutil.rmtree(out_dir)

        problems = harness.cli_equivalence(wl, ready, work, args.seed)
        for p in problems:
            print(f"FAIL cli: {p}", file=sys.stderr)
        print(f"# harness matches chunkfuse pipeline byte for byte: {not problems}")

        print(f"# documents {len(done)} distinct, {attempted} passes attempted, "
              f"{failed} failed, fail_ratio {failed / attempted}; "
              f"loop {loop_s:.2f} s")

        if args.trace:
            metrics = _per_layer(ready, rec, passes)
            _write_trace(rec, info, wl.name, args.seed)
            samples = f"{sum(1 for p in passes if p[1])} traced documents"
        else:
            metrics = _end_to_end(setups, [f for _, _, f in passes], peak_rss_mb)
            samples = f"{len(passes)} documents, set-up {len(setups)} processes"
        for name, (value, unit) in metrics.items():
            print(f"# {name} = {value!r} {unit} ({samples})")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted + 1,             # + the CLI equivalence check
        "failed": failed + (1 if problems else 0),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "chunkfuse" / "__init__.py").is_file():
        print(f"error: no chunkfuse sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import chunkfuse
    if Path(chunkfuse.__file__).resolve().parent != SRC / "chunkfuse":
        print(f"error: imported chunkfuse from {chunkfuse.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 1
    try:
        return run(args)
    except Exception:  # no result line, so the run counts as failed
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
