"""One workload job in a fresh process: the crossscene CLI under the tracer,
then the output checks.

run.py starts it as ``python3 perfbench/worker.py SPEC.json`` and reads the
result file the spec names.  The spec lists the CLI calls to make, the
operations they should produce and the checks to run on them.  Everything
after the last CLI call (checks, span aggregation, writing) is outside the
timed job.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
# The CLI module applies CROSSSCENE_THREADS to the BLAS variables, so it has to
# load before anything imports numpy, as it does under the installed script.
import crossscene.cli  # noqa: E402

from tracer import NAMED_OPS, SetupReached, Tracer  # noqa: E402


def cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_calls(calls, tracer):
    """Call the CLI for each argv; returns (exit codes, error text or None)."""
    codes = []
    try:
        for argv in calls:
            idx = tracer.open("cli.main")
            try:
                codes.append(crossscene.cli.main(argv))
            finally:
                tracer.close(idx)
            if codes[-1] != 0:
                return codes, f"crossscene {argv[0]} exited with code {codes[-1]}"
    except SetupReached:
        return codes, None
    except Exception:  # the job boundary: report the failure, keep the suite running
        return codes, traceback.format_exc(limit=4)
    return codes, None


# -- output checks -------------------------------------------------------------


def check_fit(result):
    keys = ("loss", "loss_cls", "loss_lmmd", "loss_st")
    if not result.history:
        return "fit logged no epochs"
    bad = [rec["epoch"] for rec in result.history if not all(math.isfinite(rec[k]) for k in keys)]
    return f"non-finite loss in epochs {bad}" if bad else None


def check_eval(args, kwargs, out):
    """Predictions lie in 1..C, cover exactly the requested pixels, and the
    OA recomputed from the raster equals the reported OA."""
    import numpy as np

    label_map = args[2]
    map_all = kwargs.get("map_all", args[4] if len(args) > 4 else False)
    report, raster = out
    gt = label_map.labels
    if raster.shape != gt.shape:
        return f"raster shape {raster.shape} differs from the scene {gt.shape}"
    labeled = gt > 0
    requested = np.ones_like(labeled) if map_all else labeled
    preds = raster[requested]
    if preds.size and (preds.min() < 1 or preds.max() > label_map.num_classes):
        return f"prediction outside 1..{label_map.num_classes}"
    if (raster[~requested] != 0).any():
        return "raster holds predictions for pixels that were not requested"
    oa = np.count_nonzero(raster[labeled] == gt[labeled]) / np.count_nonzero(labeled)
    if abs(oa - report.oa) > 1e-12:
        return f"recomputed OA {oa!r} differs from the reported {report.oa!r}"
    return None


def check_ppm(path, height, width):
    path = Path(path)
    if not path.is_file():
        return f"missing map {path}"
    data = path.read_bytes()
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    if not data.startswith(header):
        return f"map header {data[:len(header)]!r} does not match {width}x{height}"
    if len(data) != len(header) + 3 * width * height:
        return f"map holds {len(data)} bytes, expected {len(header) + 3 * width * height}"
    return None


def check_checkpoint(spec, raster):
    """The checkpoint reloads through load_checkpoint and predicts ``raster``."""
    import numpy as np
    from crossscene.config import resolve_config
    from crossscene.data import load_scene
    from crossscene.evaluate import evaluate_scene
    from crossscene.model import load_checkpoint
    from crossscene.training import build_model

    cfg = resolve_config(spec["preset"], spec["config"], None, spec["seed"])
    scene, labels = load_scene(cfg.target_bundle)
    model = build_model(cfg.train, labels.num_classes, scene.bands)
    load_checkpoint(model, spec["path"])
    _, again = evaluate_scene(model, scene, labels, cfg.train)
    if not np.array_equal(again, raster):
        return f"reloaded checkpoint changes {int((again != raster).sum())} predictions"
    return None


def check_ops(spec, tracer, run_error):
    """One record per operation the job should have produced."""
    fits = tracer.captured["fit"]
    evals = [c for c in tracer.captured["evaluate_scene"]
             if not c[1].get("map_all", False)]
    maps = [c for c in tracer.captured["evaluate_scene"] if c[1].get("map_all", False)]
    seen = defaultdict(int)
    ops = []
    for op in spec["ops"]:
        k = seen[op]
        seen[op] += 1
        why = run_error
        if why is None:
            try:
                why = _check_op(op, k, spec, tracer, fits, evals, maps)
            except Exception:  # a crashing check is a failed check, not a crashed suite
                why = traceback.format_exc(limit=2)
        ops.append({"op": op, "ok": why is None, "why": why})
    return ops


def _check_op(op, k, spec, tracer, fits, evals, maps):
    if op == "setup":
        return None if tracer.first_step is not None else "never reached a training step"
    if op == "fit":
        return check_fit(fits[k][2]) if k < len(fits) else "fit did not run"
    if op == "eval":
        return check_eval(*evals[k]) if k < len(evals) else "evaluation did not run"
    if op == "map":
        if k >= len(maps):
            return "map did not run"
        label_map = maps[k][0][2]
        return check_eval(*maps[k]) or check_ppm(spec["ppm"], label_map.height, label_map.width)
    if op == "checkpoint":
        return check_checkpoint(spec["checkpoint"], evals[0][2][1]) if evals else "no evaluation"
    raise ValueError(f"unknown operation {op!r}")


# -- per-layer metrics (full tracing) ----------------------------------------------


def layer_metrics(tracer, wall, evals):
    names, parents, dur, self_ = tracer.span_table()
    incl = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    in_step = [False] * len(names)
    op_calls = 0
    top_level = 0.0
    for i, name in enumerate(names):
        incl[name] += dur[i]
        own[name] += self_[i]
        calls[name] += 1
        p = parents[i]
        if p >= 0:
            in_step[i] = in_step[p] or names[p] == "training.train_step"
            if names[p] == "cli.main" and name in ("training.fit", "evaluate.evaluate_scene"):
                top_level += dur[i]
        if in_step[i] and name.startswith("engine.") and name.endswith(".fwd"):
            op_calls += 1

    c = tracer.counters
    ms = 1000.0
    out = {}
    for op in NAMED_OPS:
        out[f"engine.{op}.fwd_ms"] = incl[f"engine.{op}.fwd"] * ms
        if op != "exp":
            out[f"engine.{op}.bwd_ms"] = incl[f"engine.{op}.bwd"] * ms
    steps = c["train_steps"]
    out.update({
        "engine.conv2d.gflop": c["conv_flops"] / 1e9,
        "engine.conv2d.mb_moved": c["conv_bytes"] / 1e6,
        "engine.backward.self_ms": own["engine.backward"] * ms,
        "engine.op_calls_per_step": op_calls / steps if steps else 0.0,
        "engine.sgd_step_ms": incl["engine.sgd_step"] * ms,
        "model.features.fwd_ms": incl["model.features"] * ms,
        "model.attention_block.fwd_ms": incl["model.attention_block"] * ms,
        "model.predict_ms": incl["model.predict"] * ms,
        "model.save_checkpoint_ms": incl["model.save_checkpoint"] * ms,
        "discrepancy.lmmd.fwd_ms": incl["discrepancy.lmmd"] * ms,
        "discrepancy.median_bandwidth_ms": incl["discrepancy.median_bandwidth"] * ms,
        "discrepancy.valid_classes": (c["lmmd_valid_classes"] / c["lmmd_calls"]
                                      if c["lmmd_calls"] else 0.0),
        "training.train_step.self_ms": own["training.train_step"] * ms,
        "training.self_training_loss_ms": incl["training.self_training_loss"] * ms,
        "training.pseudo_rate": (c["pseudo_selected"] / c["target_samples"]
                                 if c["target_samples"] else 0.0),
        "data.patch_batch_ms": incl["data.patch_batch"] * ms,
        "data.patch_batch_mb": c["patch_bytes"] / 1e6,
        "data.load_scene_ms": incl["data.load_scene"] * ms,
        "data.normalize_scene_ms": incl["data.normalize_scene"] * ms,
        "data.patch_source_init_ms": incl["data.patch_source_init"] * ms,
        "evaluate.predict_scene.self_ms": own["evaluate.predict_scene"] * ms,
        "evaluate.metrics_ms": (incl["evaluate.confusion"] + incl["evaluate.metrics"]) * ms,
        "evaluate.write_map_ms": incl["evaluate.write_map"] * ms,
        "evaluate.target_oa": mean_oa(evals),
        "cli.run_overhead_ms": (wall - top_level) * ms,
    })
    layer_self = defaultdict(float)
    for name, t in own.items():
        layer_self[name.split(".", 1)[0]] += t
    check = {"sum_self_s": float(sum(own.values())), "wall_s": wall,
             "layer_self_s": dict(layer_self), "calls": dict(calls)}
    return out, check


def mean_oa(evals):
    oas = [out[0].oa * 100.0 for _, _, out in evals]
    return sum(oas) / len(oas) if oas else 0.0


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    tracer = Tracer()
    tracer.install("full" if spec["trace"] else "light", setup_only=spec["mode"] == "setup")

    cpu0 = cpu_seconds()
    t_start = time.perf_counter()
    codes, error = run_calls(spec["calls"], tracer)
    t_end = time.perf_counter()
    cpu = cpu_seconds() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.uninstall()

    names, parents, dur, _ = tracer.span_table()
    steps_ms = defaultdict(list)
    predict_s = 0.0
    for i, name in enumerate(names):
        if name == "training.train_step":
            steps_ms[int(parents[i])].append(dur[i] * 1000.0)
        elif name == "evaluate.predict_scene":
            predict_s += dur[i]

    evals = [c for c in tracer.captured["evaluate_scene"] if not c[1].get("map_all", False)]
    result = {
        "error": error,
        "codes": codes,
        "t_first_step": tracer.first_step,
        "t_start": t_start,
        "t_end": t_end,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "steps_ms": list(steps_ms.values()),
        "predict_s": predict_s,
        "predicted_px": int(tracer.counters["predicted_px"]),
        "oa": [out[0].oa * 100.0 for _, _, out in evals],
    }
    if spec["trace"] and error is None:
        result["layers"], result["trace_check"] = layer_metrics(tracer, t_end - t_start, evals)
        tracer.write(spec["spans"])
    result["ops"] = check_ops(spec, tracer, error)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
