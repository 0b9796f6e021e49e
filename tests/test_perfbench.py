"""The benchmark harness still runs against the library.

``perfbench/`` reads the library by name: ``cli.load_corpus``,
``cli.main``, ``encoder.init_weights``, ``pipeline.run_document``,
``segmenter.segment_set_to_dict``, ``cumulation.fused_sequence_manifest``,
the memory's ``flattened`` and ``provenance``, ``numerics.save_matrix``,
``numerics.load_matrix``, ``pipeline.greedy_decode``,
``decoder.decode_step`` and ``decoder.attention_mass_by_chunk``, beside
``PipelineConfig`` and its methods. One short small-window run, in its own
process, must check every document it ran and find its run directory
byte-identical to ``chunkfuse pipeline``'s. The artifact sha256 is not
pinned: it depends on the numpy and BLAS build.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_small_window_run_is_correct_and_matches_the_cli():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-window", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert "# harness matches chunkfuse pipeline byte for byte: True" in lines
