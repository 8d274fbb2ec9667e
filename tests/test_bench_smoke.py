"""The benchmark's own smoke test runs against this tree.

perfbench/ wraps engine ops and package functions by name, so renaming or
fusing one of them breaks the benchmark; this catches it in the test suite.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_benchmark_smoke():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
