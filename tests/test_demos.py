"""Every demo script runs to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SLOW = {"05_training_walkthrough.py", "06_component_ablation.py"}


def _params():
    for path in DEMOS:
        marks = [pytest.mark.slow] if path.name in SLOW else []
        yield pytest.param(path, id=path.stem, marks=marks)


@pytest.mark.parametrize("demo", _params())
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
