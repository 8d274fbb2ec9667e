"""The committed probes under probes/ run against this tree, at toy size."""

import ast
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


def test_lines_lists_a_branch_no_workload_runs_and_not_the_training_step(tmp_path):
    """At toy size the line probe lists ``_cols_matmul``'s K-slice
    accumulation (no preset's K passes 288) among the lines no workload ran,
    and not the first statement of ``training.train_step``, nor the target
    stream's deferred BN update, which only the stream thread runs.  Lines
    are matched by their text."""
    proc = subprocess.run([sys.executable, "probes/lines.py", "--toy", "--work", str(tmp_path)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    unrun, path = {}, None
    for row in proc.stdout.splitlines()[:-1]:
        if row.startswith(" "):
            unrun[path].add(row.split(maxsplit=1)[1])
        else:
            path = row
            unrun[path] = set()
    assert "out += cols[:, k : k + _K_SLICE] @ kernel[k : k + _K_SLICE]" in unrun[
        "crossscene/engine/conv.py"]
    source = (ROOT / "src" / "crossscene" / "training.py").read_text()
    step = next(node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and node.name == "train_step")
    first = source.splitlines()[step.body[1].lineno - 1].strip()  # body[0] is the docstring
    assert first and first not in unrun.get("crossscene/training.py", set())
    assert "bn_updates.append((self, *running))" not in unrun.get("crossscene/model.py", set())
    assert proc.stdout.splitlines()[-1].endswith("executable lines in src/ ran in no workload")
