"""Command-line front end: train, eval, map, gradcheck, ablate, synth."""

from __future__ import annotations

import ctypes
import os

# Honor the thread-count env var before numpy spins up its BLAS pools.
_threads = os.environ.get("CROSSSCENE_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def set_allocator_policy():
    """Let freed engine arrays be reused from the heap instead of unmapped.

    Every op allocates fresh output arrays of a few MB.  Under glibc's default
    dynamic mmap threshold those come from new mmaps whose pages fault in on
    every training step.  Serving blocks below 32 MB from the heap and keeping
    up to 256 MB of freed heap top mapped lets each step reuse the last step's
    pages.  Returns False, changing nothing, where libc has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, 32 << 20) and mallopt(_M_TRIM_THRESHOLD, 256 << 20))


import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .checks import GRADCHECK_TOLERANCE, run_all_checks
from .config import ConfigError, PRESETS, resolve_config, save_config
from .data import BundleError, ShiftSpec, load_scene, save_bundle, synth_domain_pair
from .engine import NumericError
from .evaluate import (aggregate_runs, default_palette, evaluate_scene,
                       format_mean_std, format_report, write_map)
from .model import load_checkpoint
from .training import build_model, fit

EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC = 2, 3, 4

# Ablation grids: named module combinations, the pseudo-head/alignment matrix,
# and the four attention-block designs.  The table* names are accepted aliases.
ABLATION_GRIDS = {
    "modules": [
        ("baseline", {"use_attention": False, "use_lmmd": False, "use_self_training": False}),
        ("attn", {"use_attention": True, "use_lmmd": False, "use_self_training": False}),
        ("attn+lmmd", {"use_attention": True, "use_lmmd": True, "use_self_training": False}),
        ("attn+st", {"use_attention": True, "use_lmmd": False, "use_self_training": True}),
        ("full", {"use_attention": True, "use_lmmd": True, "use_self_training": True}),
    ],
    "heads": [
        ("a:st,single-head", {"use_self_training": True, "use_pseudo_head": False, "use_lmmd": False}),
        ("b:st,dual-head", {"use_self_training": True, "use_pseudo_head": True, "use_lmmd": False}),
        ("c:st+lmmd,single-head", {"use_self_training": True, "use_pseudo_head": False, "use_lmmd": True}),
        ("d:st+lmmd,dual-head", {"use_self_training": True, "use_pseudo_head": True, "use_lmmd": True}),
    ],
    "variants": [(f"variant_{v}", {"variant": v}) for v in "abcd"],
}
GRID_ALIASES = {"table7": "modules", "table8": "heads", "table9": "variants"}


def _config_parent():
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", metavar="PATH", help="JSON experiment config")
    p.add_argument("--preset", choices=sorted(PRESETS), help="named defaults to start from")
    p.add_argument("--set", dest="overrides", action="append", metavar="K=V",
                   help="dotted config override, repeatable (e.g. train.epochs=2)")
    p.add_argument("--seed", type=int, help="replace the seed list with this single seed")
    return p


def build_parser():
    parser = argparse.ArgumentParser(
        prog="crossscene",
        description="Cross-scene hyperspectral classification: training, evaluation, diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)
    cfg = _config_parent()

    p = sub.add_parser("train", parents=[cfg], help="train per seed; write checkpoints + history")
    p.add_argument("--out", default="runs/train", metavar="DIR")
    p.add_argument("--deterministic", action="store_true",
                   help="zero timing fields so artifacts are byte-reproducible")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[cfg], help="score a checkpoint on a bundle")
    p.add_argument("--checkpoint", required=True, metavar="BIN")
    p.add_argument("--bundle", required=True, metavar="DIR")
    p.add_argument("--out", default=None, metavar="DIR")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("map", parents=[cfg], help="render a classification map (P6 PPM)")
    p.add_argument("--checkpoint", required=True, metavar="BIN")
    p.add_argument("--bundle", required=True, metavar="DIR")
    p.add_argument("--out", default="runs/map", metavar="DIR")
    p.add_argument("--palette", metavar="JSON", help="palette file: list of [r,g,b], index 0 = background")
    p.add_argument("--all-pixels", action="store_true", help="classify every pixel, not just labeled ones")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("gradcheck", help="finite-difference check of every registered subgraph")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=GRADCHECK_TOLERANCE)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", parents=[cfg], help="run a named experiment grid")
    p.add_argument("--grid", required=True,
                   choices=sorted(ABLATION_GRIDS) + sorted(GRID_ALIASES),
                   help="modules (5 arms), heads (2x2), variants (block designs a-d)")
    p.add_argument("--out", default="runs/ablate", metavar="DIR")
    p.add_argument("--deterministic", action="store_true")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("synth", help="generate a synthetic two-domain bundle pair")
    p.add_argument("--out", default="runs/synth", metavar="DIR")
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--bands", type=int, default=16)
    p.add_argument("--grid", type=int, default=5, help="blob grid side (layout is seed-independent)")
    p.add_argument("--blob", type=int, default=9, help="blob side length in pixels")
    p.add_argument("--gain", type=float, default=1.3)
    p.add_argument("--offset", type=float, default=0.1)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--class-sigma", type=float, default=0.06)
    p.add_argument("--proto-low", type=float, default=0.2,
                   help="lower end of the prototype reflectance range")
    p.add_argument("--proto-high", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)
    return parser


def _load_pair(cfg):
    if not cfg.source_bundle or not cfg.target_bundle:
        raise ConfigError("config must name source_bundle and target_bundle")
    return load_scene(cfg.source_bundle), load_scene(cfg.target_bundle)


def _print_report(report, class_names=None):
    print(format_report(report, class_names))


def cmd_train(args):
    cfg = resolve_config(args.preset, args.config, args.overrides, args.seed)
    source, target = _load_pair(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out / "resolved.cfg")
    reports = []
    for seed in cfg.seeds:
        tc = replace(cfg.train, seed=int(seed))
        res = fit(tc, source, target, out_dir=out / f"seed_{seed}",
                  deterministic=args.deterministic)
        report, _ = evaluate_scene(res.model, target[0], target[1], tc)
        (out / f"seed_{seed}" / "report.txt").write_text(
            format_report(report, target[1].class_names) + "\n")
        print(f"[seed {seed}] target OA {report.oa * 100:.2f}  AA {report.aa * 100:.2f}  "
              f"Kappa x 100 {report.kappa * 100:.2f}")
        reports.append(report)
    if len(reports) > 1:
        agg = aggregate_runs(reports)
        print(f"mean over {len(reports)} seeds: "
              f"OA {format_mean_std(*agg['oa'])}  AA {format_mean_std(*agg['aa'])}  "
              f"Kappa x 100 {format_mean_std(*agg['kappa'])}")
    return 0


def _restore_model(args, cfg):
    scene, labels = load_scene(args.bundle)
    model = build_model(cfg.train, labels.num_classes, scene.bands)
    ckpt = Path(args.checkpoint)
    if not ckpt.is_file():
        raise BundleError(f"missing checkpoint: {ckpt}")
    load_checkpoint(model, ckpt)
    return model, scene, labels


def cmd_eval(args):
    cfg = resolve_config(args.preset, args.config, args.overrides, args.seed)
    model, scene, labels = _restore_model(args, cfg)
    report, _ = evaluate_scene(model, scene, labels, cfg.train)
    _print_report(report, labels.class_names)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(format_report(report, labels.class_names) + "\n")
    return 0


def cmd_map(args):
    cfg = resolve_config(args.preset, args.config, args.overrides, args.seed)
    model, scene, labels = _restore_model(args, cfg)
    _, raster = evaluate_scene(model, scene, labels, cfg.train, map_all=args.all_pixels)
    if args.palette:
        palette = [tuple(int(v) for v in row) for row in json.loads(Path(args.palette).read_text())]
    else:
        palette = default_palette(labels.num_classes)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_map(raster, palette, out / "map.ppm")
    print(f"wrote {out / 'map.ppm'} ({scene.width}x{scene.height})")
    return 0


def cmd_gradcheck(args):
    reports, ok = run_all_checks(seed=args.seed, tolerance=args.tolerance)
    width = max(len(r.name) for r in reports)
    for r in reports:
        status = "PASS" if r.passed(args.tolerance) else "FAIL"
        extra = f"  [{r.failure}]" if r.failure else ""
        print(f"{r.name:<{width}}  max_rel_err {r.max_rel_err:.3e}  {status}{extra}")
    print(f"{'all checks pass' if ok else 'FAILURES PRESENT'} (tolerance {args.tolerance:g})")
    return 0 if ok else 1


def cmd_ablate(args):
    grid_name = GRID_ALIASES.get(args.grid, args.grid)
    arms = ABLATION_GRIDS[grid_name]
    cfg = resolve_config(args.preset, args.config, args.overrides, args.seed)
    source, target = _load_pair(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out / "resolved.cfg")

    rows = []
    for arm_name, mods in arms:
        if grid_name == "variants":
            attention = replace(cfg.train.attention, variant=mods["variant"])
            base = replace(cfg.train, attention=attention)
        else:
            base = replace(cfg.train, ablation=replace(cfg.train.ablation, **mods))
        reports = []
        for seed in cfg.seeds:
            tc = replace(base, seed=int(seed))
            res = fit(tc, source, target, deterministic=args.deterministic)
            report, _ = evaluate_scene(res.model, target[0], target[1], tc)
            reports.append(report)
        agg = aggregate_runs(reports)
        rows.append({"arm": arm_name,
                     "oa": agg["oa"], "aa": agg["aa"], "kappa": agg["kappa"],
                     "seeds": list(cfg.seeds)})
        print(f"{arm_name:24s} OA {format_mean_std(*agg['oa'])}  "
              f"AA {format_mean_std(*agg['aa'])}  Kappa x 100 {format_mean_std(*agg['kappa'])}")
    (out / "ablation.json").write_text(json.dumps({"grid": grid_name, "rows": rows}, indent=1) + "\n")
    return 0


def cmd_synth(args):
    shift = ShiftSpec(gain=args.gain, offset=args.offset)
    (src, src_labels), (tgt, tgt_labels) = synth_domain_pair(
        num_classes=args.classes, bands=args.bands, blob_grid=args.grid,
        blob_size=args.blob, shift=shift, noise_sigma=args.noise,
        seed=args.seed, class_sigma=args.class_sigma,
        proto_range=(args.proto_low, args.proto_high))
    out = Path(args.out)
    save_bundle(src, src_labels, out / "source")
    save_bundle(tgt, tgt_labels, out / "target")
    counts = {name: int((src_labels.labels == i + 1).sum())
              for i, name in enumerate(src_labels.class_names)}
    print(f"wrote {out / 'source'} and {out / 'target'} "
          f"({src.height}x{src.width}x{src.bands})")
    for name, count in counts.items():
        print(f"  {name}: {count} px per domain")
    return 0


def main(argv=None):
    set_allocator_policy()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (BundleError, FileNotFoundError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
