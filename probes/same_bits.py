"""Do two source trees write the same bytes?  The benchmark's jobs, hashed.

    python3 probes/same_bits.py TREE [TREE ...] [--seed N] [--work DIR] [--toy]

For each source tree and each benchmark workload, a fresh process imports
the tree's ``src/`` and its ``perfbench/run.py``.  It writes the workload's
seed-N inputs with ``make_inputs`` and makes the workload's CLI calls from
``job_spec``, with ``--deterministic`` on ``train`` so that timing fields are
zero.  Every file under the tree's work directory is then hashed with sha256:
the inputs, the outputs, and each call's standard output.  Before hashing,
the work directory's path in a file is replaced by a fixed name, since
``resolved.cfg`` and the map log name their paths.

One row per file, with the first 16 hex digits of each tree's digest.  The
exit code is 1 if some file differs between the trees or is missing from
one, else 0.  The workloads are those in the first tree's BENCHMARK.json;
``--toy`` runs the benchmark's smoke-test sizes.  Work goes to a temporary
directory unless ``--work`` names one.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

WORK_NAME = b"<work>"


def run_job(tree, workload, seed, work, toy):
    """Write one workload's inputs under ``work`` and make its CLI calls,
    with ``tree``'s program; runs in the child process."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import crossscene.cli
    import run as bench

    config = bench.make_inputs(workload, seed, work, toy)
    job = work / "job"
    job.mkdir()
    for k, argv in enumerate(bench.job_spec(workload, seed, config, job, "job", False)["calls"]):
        if argv[0] == "train":
            argv = [*argv, "--deterministic"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = crossscene.cli.main(argv)
        (job / f"stdout-{k}-{argv[0]}.txt").write_text(out.getvalue())
        if code != 0:
            raise SystemExit(f"{tree}: crossscene {argv[0]} exited with code {code}")


def workloads(tree):
    """The workload names in ``tree``'s BENCHMARK.json."""
    return [w["name"] for w in json.loads((tree / "BENCHMARK.json").read_text())["workloads"]]


def spawn_jobs(script, argv, names, root, cwd):
    """Run ``script`` once per workload in ``names``, each in a fresh process
    in ``cwd`` with ``argv`` and ``--job NAME --work root/NAME``; the job
    directories."""
    jobs = []
    for name in names:
        job = root / name
        job.mkdir(parents=True)
        subprocess.run([sys.executable, str(script), *argv, "--job", name, "--work", str(job)],
                       check=True, cwd=cwd)
        jobs.append(job)
    return jobs


def digests(work):
    """{path relative to ``work``: sha256 hex} of every file under ``work``,
    with ``work``'s path in the bytes replaced by ``WORK_NAME``."""
    name = str(work).encode()
    return {str(p.relative_to(work)): hashlib.sha256(p.read_bytes().replace(name, WORK_NAME))
            .hexdigest() for p in sorted(work.rglob("*")) if p.is_file()}


def report(tables, out=None):
    """Print one row per file of the trees' digest tables (to ``out``, else
    standard output); 1 if they differ, else 0."""
    differ = 0
    for path in sorted(set().union(*tables)):
        cells = [t[path][:16] if path in t else "missing" for t in tables]
        same = len({t.get(path) for t in tables}) == 1
        differ += not same
        print(f"{'same' if same else 'DIFF':4}  {'  '.join(f'{c:16}' for c in cells)}  {path}",
              file=out)
    print(f"{differ} of {len(set().union(*tables))} files differ", file=out)
    return int(differ > 0)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("trees", nargs="+", type=Path, help="source checkouts to compare")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--work", type=Path, help="keep the inputs and outputs here")
    p.add_argument("--toy", action="store_true", help="the benchmark's smoke-test sizes")
    p.add_argument("--job", help=argparse.SUPPRESS)  # the child: run this workload, one tree
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    trees = [t.resolve() for t in args.trees]
    if args.job:
        run_job(trees[0], args.job, args.seed, args.work, args.toy)
        return 0
    names = workloads(trees[0])
    with contextlib.ExitStack() as stack:
        work = args.work or Path(stack.enter_context(tempfile.TemporaryDirectory()))
        tables = []
        for k, tree in enumerate(trees):
            root = work.resolve() / f"tree{k}"
            spawn_jobs(Path(__file__).resolve(), [str(tree), "--seed", str(args.seed)]
                       + ["--toy"] * args.toy, names, root, tree)
            tables.append(digests(root))
        for k, tree in enumerate(trees):
            print(f"tree{k}: {tree}")
        return report(tables)


if __name__ == "__main__":
    sys.exit(main())
