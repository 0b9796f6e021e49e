"""Smoke test: the narrative demos run against the library as it is.

Each demo runs in a fresh interpreter with ``src`` on the path and must
exit 0, so an API rename that breaks a demo fails here. Demo 04 is left
out because it times a scaling run over 32k-token documents. Demo 01
prints only ints, and demo 05 only 3- and 4-decimal values, so their
whole output is pinned.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_segmentation.py", "02_boundary_fusion_trace.py", "03_full_pipeline.py",
         "05_rouge_and_probe.py"]

SEGMENTATION_STDOUT = """\
26 tokens -> 5 windows (stride 5)

idx  start  tokens
  1      0  [100, 101, 102, 103, 104, 105, 106, 107]
  2      5  [105, 106, 107, 108, 109, 110, 111, 112]
  3     10  [110, 111, 112, 113, 114, 115, 116, 117]
  4     15  [115, 116, 117, 118, 119, 120, 121, 122]
  5     18  [118, 119, 120, 121, 122, 123, 124, 125]

reconstruction matches the input: True
"""

ROUGE_AND_PROBE_STDOUT = """\
candidate: the report urges faster cuts to emissions
reference: the report urges much faster emission cuts this decade
  R-1: precision 0.714  recall 0.556  f1 0.625
  R-2: precision 0.333  recall 0.250  f1 0.286
  R-L: precision 0.714  recall 0.556  f1 0.625

position probe on identical-chunk documents (5 chunks each):
  alpha   readout mse
   0.00   0.5783
   0.25   0.5783
   0.50   0.5783
   0.75   0.5783
   1.00   2.0000
(alpha = 1.0 gives the variance of the targets: nothing learned;
 every alpha < 1 scores the same here because changing alpha only
 rescales how far each fused vector sits along the same line)
"""


def run_demo(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name):
    result = run_demo(name)
    assert result.returncode == 0, result.stderr


def test_segmentation_demo_output_is_pinned():
    assert run_demo("01_segmentation.py").stdout == SEGMENTATION_STDOUT


def test_rouge_and_probe_demo_output_is_pinned():
    assert run_demo("05_rouge_and_probe.py").stdout == ROUGE_AND_PROBE_STDOUT
