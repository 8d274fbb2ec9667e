"""The committed probes under probes/ run against this tree, at toy size."""

import importlib.util
import io
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_same_bits_passes_a_tree_against_itself_and_finds_one_changed_byte(tmp_path):
    """Two runs of this tree's benchmark jobs at toy size write the same
    bytes, work directories apart; one flipped checkpoint byte is a DIFF
    row and exit code 1."""
    proc = subprocess.run([sys.executable, "probes/same_bits.py", str(ROOT), str(ROOT), "--toy",
                           "--work", str(tmp_path)], cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    rows = proc.stdout.splitlines()
    checkpoints = [r for r in rows if r.endswith("checkpoint.bin")]
    assert len(checkpoints) == 2 and all(r.startswith("same") for r in checkpoints)
    assert rows[-1].startswith("0 of ")
    spec = importlib.util.spec_from_file_location("same_bits", ROOT / "probes" / "same_bits.py")
    same_bits = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_bits)
    checkpoint = tmp_path / "tree1" / "houston-train" / "job" / "train" / "seed_1" / "checkpoint.bin"
    data = bytearray(checkpoint.read_bytes())
    data[-1] ^= 1
    checkpoint.write_bytes(bytes(data))
    out = io.StringIO()
    tables = [same_bits.digests(tmp_path / f"tree{k}") for k in range(2)]
    assert same_bits.report(tables, out=out) == 1
    diff = [r for r in out.getvalue().splitlines() if r.startswith("DIFF")]
    assert len(diff) == 1 and diff[0].endswith("houston-train/job/train/seed_1/checkpoint.bin")
