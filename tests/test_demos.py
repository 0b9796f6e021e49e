"""Smoke test: the narrative demos run against the library as it is.

Each demo runs in a fresh interpreter with ``src`` on the path and must
exit 0, so an API rename that breaks a demo fails here. Demo 04 is left
out because it times a scaling run over 32k-token documents.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_segmentation.py", "02_boundary_fusion_trace.py", "03_full_pipeline.py",
         "05_rouge_and_probe.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
