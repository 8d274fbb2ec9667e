"""Which lines of ``src/`` does no benchmark job run?

    python3 probes/lines.py [--work DIR] [--toy]

For each benchmark workload, a fresh process traces the lines of this
tree's ``src/`` that it runs while it writes the workload's seed-1 inputs
and makes its CLI calls, as ``same_bits.py`` does (``same_bits.run_job``).
The trace is on before ``crossscene`` is imported, so module-level lines
count, and it covers the threads the program starts (the engine's stream
thread).  A file's executable lines are the line numbers that ``co_lines``
gives for its compiled code and every code object nested in it.

Prints, per source file, each executable line that no workload ran, with its
number and text, then the totals.  No coverage package is needed.  The
workloads are those in this tree's BENCHMARK.json; ``--toy`` runs the
benchmark's smoke-test sizes.  Work goes to a temporary directory unless
``--work`` names one.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import tempfile
import threading
from pathlib import Path

import same_bits

HERE = Path(__file__).resolve().parent
TREE = HERE.parent
SEED = 1


def trace_job(workload, work, toy):
    """Run one workload's job under a line tracer of this tree's ``src/``;
    {path relative to src/: sorted line numbers run}.  Runs in the child."""
    src = TREE / "src"
    prefix = f"{src}/"
    hits = {}

    def lines(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set())
        return lines

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        same_bits.run_job(TREE, workload, SEED, work, toy)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return {str(Path(name).relative_to(src)): sorted(run) for name, run in hits.items()}


def executable_lines(path):
    """The line numbers of ``path``'s compiled code and its nested code."""
    found, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        found.update(line for *_, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return found


def report(src, hits):
    """Print, per file under ``src``, the executable lines not in ``hits``
    ({path relative to src: line numbers run}), then the totals."""
    missed = total = 0
    for path in sorted(src.rglob("*.py")):
        rel = str(path.relative_to(src))
        lines = executable_lines(path)
        unrun = sorted(lines - set(hits.get(rel, ())))
        total += len(lines)
        missed += len(unrun)
        if unrun:
            text = path.read_text().splitlines()
            print(rel)
            for n in unrun:
                print(f"{n:6}  {text[n - 1].strip()}")
    print(f"{missed} of {total} executable lines in src/ ran in no workload")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--work", type=Path, help="keep the inputs, outputs and line lists here")
    p.add_argument("--toy", action="store_true", help="the benchmark's smoke-test sizes")
    p.add_argument("--job", help=argparse.SUPPRESS)  # the child: trace this workload
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.job:
        (args.work / "run").mkdir()
        hits = trace_job(args.job, args.work / "run", args.toy)
        (args.work / "lines.json").write_text(json.dumps(hits))
        return 0
    hits = {}
    with contextlib.ExitStack() as stack:
        work = args.work or Path(stack.enter_context(tempfile.TemporaryDirectory()))
        for job in same_bits.spawn_jobs(HERE / "lines.py", ["--toy"] * args.toy,
                                        same_bits.workloads(TREE), work.resolve(), TREE):
            for rel, run in json.loads((job / "lines.json").read_text()).items():
                hits.setdefault(rel, set()).update(run)
    report(TREE / "src", hits)
    return 0


if __name__ == "__main__":
    sys.exit(main())
