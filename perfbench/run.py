"""The crossscene benchmark: preset-shaped workloads run through the public CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The seed makes the inputs (synthetic source/target bundles written
under ``perfbench/out/``); each job then runs in a fresh worker process, one
at a time.  ``--trace 0`` repeats the job until ``--seconds`` have passed and
reports the end-to-end metrics; ``--trace 1`` runs the job once untraced and
once traced and reports the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  A result
file with the environment the run saw is written under ``perfbench/out/``.
See perfbench/README.md for the workloads and the metric-to-layer mapping.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

RUN_LIMIT_S = 165.0   # every run ends, results printed, well inside 180 s
SETUP_PROBES = 5      # extra processes per run that stop at the first training step
WARMUP_STEPS = 2      # per fit: the first steps pay lazy allocation and BLAS thread start
SHIFT = (1.3, 0.1)    # target = gain * source + offset, per band

# Scene sizes are (blob grid side, blob side) for synth_domain_pair; the scene
# is grid * blob pixels square.  ``labeled`` is the share of target pixels
# that keep their label (real scenes label a small part of the image).
# ``run_s`` is a job's measured time on the 2-core machine the benchmark was
# sized on; a run makes ceil(--seconds / run_s) jobs.
WORKLOADS = {
    # The 45x45 scene of acceptance criterion 5; one epoch per arm = 20 steps.
    "synth-grid": dict(preset="synth", classes=5, bands=16, source=(5, 9), target=(5, 9),
                       labeled=1.0, epochs=1, job="ablate", run_s=5.5,
                       synth=dict(proto_range=(0.35, 0.65))),
    # 36x36 source: 12 steps of batch 100; then a 30x30 target evaluation.
    "houston-train": dict(preset="houston", classes=7, bands=48, source=(4, 9),
                          target=(3, 10), labeled=1.0, epochs=1, job="train", run_s=14.5),
    # 20x20 source (4 steps per epoch); the 80x80 target is mapped in full.
    "hyrank-map": dict(preset="hyrank", classes=12, bands=176, source=(4, 5), target=(10, 8),
                       labeled=0.1, epochs=3, job="train+map", run_s=9.5),
}
# The smoke test's toy sizes: a few small steps per workload.
TOY = dict(source=(2, 5), target=(3, 5), epochs=1, batch=10)

OPS = {"ablate": ["fit", "eval"] * 5, "train": ["fit", "eval", "checkpoint"],
       "train+map": ["fit", "eval", "map"]}

END_TO_END = {"setup_s": "s", "run_s": "s", "train_step_ms_p50": "ms",
              "train_step_ms_p90": "ms", "infer_px_per_s": "px/s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "engine.conv2d.fwd_ms": "ms", "engine.conv2d.bwd_ms": "ms",
    "engine.conv2d.gflop": "GFLOP", "engine.conv2d.mb_moved": "MB",
    "engine.depthwise_conv2d.fwd_ms": "ms", "engine.depthwise_conv2d.bwd_ms": "ms",
    "engine.batch_norm2d.fwd_ms": "ms", "engine.batch_norm2d.bwd_ms": "ms",
    "engine.gelu.fwd_ms": "ms", "engine.gelu.bwd_ms": "ms",
    "engine.matmul.fwd_ms": "ms", "engine.matmul.bwd_ms": "ms",
    "engine.affine.fwd_ms": "ms", "engine.affine.bwd_ms": "ms",
    "engine.exp.fwd_ms": "ms",
    "engine.backward.self_ms": "ms", "engine.op_calls_per_step": "count",
    "engine.sgd_step_ms": "ms",
    "model.features.fwd_ms": "ms", "model.attention_block.fwd_ms": "ms",
    "model.predict_ms": "ms", "model.save_checkpoint_ms": "ms",
    "discrepancy.lmmd.fwd_ms": "ms", "discrepancy.median_bandwidth_ms": "ms",
    "discrepancy.valid_classes": "count",
    "training.train_step.self_ms": "ms", "training.self_training_loss_ms": "ms",
    "training.pseudo_rate": "ratio",
    "data.patch_batch_ms": "ms", "data.patch_batch_mb": "MB", "data.load_scene_ms": "ms",
    "data.normalize_scene_ms": "ms", "data.patch_source_init_ms": "ms",
    "evaluate.predict_scene.self_ms": "ms", "evaluate.metrics_ms": "ms",
    "evaluate.write_map_ms": "ms", "evaluate.target_oa": "%",
    "cli.cpu_util": "ratio", "cli.run_overhead_ms": "ms",
    "trace.overhead_s": "s",
}

# Spans every traced job must contain; a missing one means a wrapper no longer
# sits where the program does its work.
EXPECTED_SPANS = [
    "training.fit", "training.train_step", "training.self_training_loss",
    "model.features", "model.attention_block", "model.predict",
    "discrepancy.lmmd", "discrepancy.median_bandwidth",
    "data.load_scene", "data.normalize_scene", "data.patch_source_init", "data.patch_batch",
    "evaluate.evaluate_scene", "evaluate.predict_scene", "evaluate.metrics",
    "engine.backward", "engine.sgd_step", "engine.exp.fwd",
] + [f"engine.{op}.{d}" for op in ("conv2d", "depthwise_conv2d", "batch_norm2d", "gelu",
                                   "matmul", "affine") for d in ("fwd", "bwd")]
EXTRA_SPANS = {"ablate": [], "train": ["model.save_checkpoint"],
               "train+map": ["model.save_checkpoint", "model.load_checkpoint",
                             "evaluate.write_map"]}


# -- inputs ------------------------------------------------------------------------


def make_inputs(workload, seed, work, toy):
    """Write the seeded source/target bundles and the experiment config."""
    import numpy as np
    from crossscene.data import LabelMap, ShiftSpec, save_bundle, synth_domain_pair

    w = WORKLOADS[workload]
    kw = dict(num_classes=w["classes"], bands=w["bands"], shift=ShiftSpec(*SHIFT),
              seed=seed, **w.get("synth", {}))
    src_grid, src_blob = TOY["source"] if toy else w["source"]
    tgt_grid, tgt_blob = TOY["target"] if toy else w["target"]
    # The prototypes are the generator's first draw, so both calls share the
    # class spectra and the shift; only the scene sizes differ.
    (src, src_labels), _ = synth_domain_pair(blob_grid=src_grid, blob_size=src_blob, **kw)
    _, (tgt, tgt_labels) = synth_domain_pair(blob_grid=tgt_grid, blob_size=tgt_blob, **kw)
    if w["labeled"] < 1.0:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0x1AB)))
        keep = rng.random(tgt_labels.labels.shape) < w["labeled"]
        labels = np.where(keep, tgt_labels.labels, 0)
        counts = [int((labels == c).sum()) for c in range(1, w["classes"] + 1)]
        tgt_labels = LabelMap(labels=labels, class_names=tgt_labels.class_names,
                              expected_counts=counts)
    save_bundle(src, src_labels, work / "source")
    save_bundle(tgt, tgt_labels, work / "target")
    train = {"epochs": TOY["epochs"] if toy else w["epochs"]}
    if toy:
        train["batch"] = TOY["batch"]
    config = work / "experiment.json"
    config.write_text(json.dumps({"source_bundle": str(work / "source"),
                                  "target_bundle": str(work / "target"), "train": train}))
    return config


def job_spec(workload, seed, config, job_dir, mode, trace):
    w = WORKLOADS[workload]
    common = ["--preset", w["preset"], "--config", str(config), "--seed", str(seed)]
    train_out = job_dir / "train"
    checkpoint = train_out / f"seed_{seed}" / "checkpoint.bin"
    if w["job"] == "ablate":
        calls = [["ablate", *common, "--grid", "modules", "--out", str(job_dir / "ablate")]]
    else:
        calls = [["train", *common, "--out", str(train_out)]]
    if w["job"] == "train+map":
        calls.append(["map", *common, "--checkpoint", str(checkpoint),
                      "--bundle", str(config.parent / "target"),
                      "--out", str(job_dir / "map"), "--all-pixels"])
    return {
        "calls": calls,
        "mode": mode,
        "trace": trace,
        "ops": ["setup"] if mode == "setup" else OPS[w["job"]],
        "ppm": str(job_dir / "map" / "map.ppm"),
        "checkpoint": {"preset": w["preset"], "config": str(config), "seed": seed,
                       "path": str(checkpoint)},
        "result": str(job_dir / "result.json"),
        "spans": str(job_dir / "spans.jsonl"),
    }


# -- workers -----------------------------------------------------------------------


def run_worker(spec, job_dir, deadline):
    """Run one worker process to completion; returns its result dict or None."""
    if time.perf_counter() >= deadline:
        print(f"{job_dir.name}: not started, the run's time limit has passed", file=sys.stderr)
        return None
    job_dir.mkdir(parents=True)
    spec_path = job_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    log_path = job_dir / "worker.log"
    with open(log_path, "w") as log:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        try:
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            print(f"{job_dir.name}: killed at the run's time limit", file=sys.stderr)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    result_path = Path(spec["result"])
    if proc.returncode != 0 or not result_path.is_file():
        tail = log_path.read_text()[-2000:]
        print(f"worker in {job_dir.name} failed (exit {proc.returncode}):\n{tail}",
              file=sys.stderr)
        return None
    result = json.loads(result_path.read_text())
    result["t_spawn"] = t_spawn
    for op in result["ops"]:
        if not op["ok"]:
            print(f"{job_dir.name}: {op['op']} failed: {op['why']}", file=sys.stderr)
    return result


def count_ops(spec, result):
    """(attempted, failed) for one worker; a worker that died fails every op."""
    if result is None:
        return len(spec["ops"]), len(spec["ops"])
    return len(result["ops"]), sum(not op["ok"] for op in result["ops"])


def job_run_s(r):
    return r["t_end"] - r["t_first_step"]


# -- the two modes ---------------------------------------------------------------------


def measure(workload, seed, seconds, config, work, deadline, probes):
    """End-to-end metrics from set-up probes and a fixed number of jobs.

    The job count depends on ``seconds`` only, never on how fast this run
    goes, so every run of a workload pools the same number of samples.
    Probes and jobs alternate, so both sample the whole run.
    """
    n_jobs = max(1, math.ceil(seconds / WORKLOADS[workload]["run_s"]))
    attempted = failed = 0
    setups, jobs = [], []
    for k in range(max(probes, n_jobs)):
        for mode, count, results in (("setup", probes, None), ("job", n_jobs, jobs)):
            if k >= count:
                continue
            job_dir = work / f"{mode}{k}"
            spec = job_spec(workload, seed, config, job_dir, mode, False)
            r = run_worker(spec, job_dir, deadline)
            a, f = count_ops(spec, r)
            attempted, failed = attempted + a, failed + f
            if results is not None:
                results.append(r)
            if r is not None and r["t_first_step"] is not None:
                setups.append(r["t_first_step"] - r["t_spawn"])

    ok = [r for r in jobs if r is not None and r["t_first_step"] is not None]
    steps = [ms for r in ok for fit in r["steps_ms"] for ms in fit[WARMUP_STEPS:]]
    metrics = {}
    if ok and setups and len(steps) >= 2:
        predict_s = sum(r["predict_s"] for r in ok)
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(job_run_s(r) for r in ok),
            "train_step_ms_p50": statistics.median(steps),
            "train_step_ms_p90": statistics.quantiles(steps, n=10, method="inclusive")[8],
            "infer_px_per_s": sum(r["predicted_px"] for r in ok) / predict_s,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in ok),
        }
    oas = [oa for r in ok for oa in r["oa"]]
    detail = {"jobs": len(jobs), "setup_samples": len(setups), "step_samples": len(steps),
              "setup_s_samples": setups, "run_s_samples": [job_run_s(r) for r in ok],
              "target_oa": statistics.mean(oas) if oas else None}
    return metrics, attempted, failed, detail


def traced(workload, seed, config, work, deadline):
    """Per-layer metrics: one untraced and one traced run of the same job."""
    attempted = failed = 0
    results = []
    for name, trace in (("untraced", False), ("traced", True)):
        spec = job_spec(workload, seed, config, work / name, "job", trace)
        r = run_worker(spec, work / name, deadline)
        a, f = count_ops(spec, r)
        attempted, failed = attempted + a, failed + f
        results.append(r)
    if any(r is None or r["error"] for r in results):
        return {}, attempted, failed, {}
    plain, full = results

    metrics = dict(full["layers"])
    wall = plain["t_end"] - plain["t_start"]
    metrics["cli.cpu_util"] = plain["cpu_s"] / (wall * nproc())
    overhead = job_run_s(full) - job_run_s(plain)
    metrics["trace.overhead_s"] = overhead

    # Self times partition the traced wall time, so they must add up to it
    # within the overhead the tracing itself adds.
    check = full["trace_check"]
    gap = abs(check["wall_s"] - check["sum_self_s"])
    problems = []
    if gap > max(abs(overhead), 1e-3):
        problems.append(f"layer self times sum to {check['sum_self_s']:.4f} s, "
                        f"wall {check['wall_s']:.4f} s, gap above the {overhead:.4f} s overhead")
    job = WORKLOADS[workload]["job"]
    missing = [s for s in EXPECTED_SPANS + EXTRA_SPANS[job] if not check["calls"].get(s)]
    if missing:
        problems.append(f"wrapped functions never called: {', '.join(missing)}")
    attempted += 1
    for p in problems:
        print(f"TRACE CHECK FAILED ({workload}): {p}", file=sys.stderr)
    failed += bool(problems)
    detail = {"layer_self_s": check["layer_self_s"], "sum_self_s": check["sum_self_s"],
              "traced_wall_s": check["wall_s"], "untraced_run_s": job_run_s(plain),
              "traced_run_s": job_run_s(full), "trace_problems": problems,
              "spans_file": f"spans-{workload}-seed{seed}.jsonl"}
    return metrics, attempted, failed, detail


# -- environment ----------------------------------------------------------------------


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def environment(workload, seed, trace):
    """What a pair of runs must share to be comparable."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": nproc(),
        "threads_env": {v: os.environ.get(v) for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                         "CROSSSCENE_THREADS")},
    }


# -- entry point ------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--toy", action="store_true", help="smoke-test sizes (see smoke.py)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "crossscene" / "__init__.py").is_file():
        print(f"no crossscene sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    deadline = time.perf_counter() + RUN_LIMIT_S
    work = OUT / f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        config = make_inputs(args.workload, args.seed, work, args.toy)
        if args.trace:
            metrics, attempted, failed, detail = traced(args.workload, args.seed, config, work,
                                                         deadline)
            units = PER_LAYER
        else:
            probes = 1 if args.toy else SETUP_PROBES
            metrics, attempted, failed, detail = measure(args.workload, args.seed, args.seconds,
                                                         config, work, deadline, probes)
            units = END_TO_END
        env = environment(args.workload, args.seed, args.trace)
        complete = set(metrics) == set(units)
        report = {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                  for name, unit in units.items()}
        record = {"environment": env, "metrics": report, "attempted": attempted,
                  "failed": failed, "detail": detail}
        result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
        result_path.write_text(json.dumps(record, indent=1) + "\n")
        if args.trace:
            spans = work / "traced" / "spans.jsonl"
            if spans.is_file():
                shutil.move(str(spans), OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"commit {env['git_commit'] or 'n/a'}  src {env['src_sha256'][:12]}")
    print(f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"{env['blas']}  nproc {env['nproc']}  "
          + "  ".join(f"{k}={v}" for k, v in env["threads_env"].items()))
    print("  ".join(f"{k} {v}" for k, v in detail.items()
                    if isinstance(v, (int, float, str)) and not isinstance(v, bool)))
    width = max(len(n) for n in report)
    for name, m in report.items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(f"{'fail_rate':<{width}}  {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} operations)")
    print(f"result file {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0 and complete, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
