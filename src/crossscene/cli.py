"""Command-line front end: train, eval, map, gradcheck, ablate, synth."""

from __future__ import annotations

import ctypes
import os

# BLAS threads per stream, set before numpy spins up its BLAS pools.  Training
# and scene inference run two streams (engine.fork_join), so one thread each
# fills two cores; CROSSSCENE_THREADS overrides the default of 1.
_threads = os.environ.get("CROSSSCENE_THREADS") or "1"
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
    pages.  The two stream threads keep glibc's per-thread arenas: one shared
    arena (``M_ARENA_MAX`` 1) gave a houston-shape run about 18 MB more peak
    RSS, and a wider spread, likely because the threads' allocations then
    interleave differently from run to run.  Returns False, changing nothing,
    where libc has no ``mallopt``.
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
import shutil
import sys
from pathlib import Path

from .checks import GRADCHECK_TOLERANCE, run_all_checks
from .config import ConfigError, PRESETS, resolve_config, save_config
from .data import BundleError, ShiftSpec, load_scene, save_bundle, synth_domain_pair, write_atomic
from .engine import NumericError
from .evaluate import default_palette, evaluate_scene, format_mean_std, format_report, write_map
from .model import load_checkpoint
from .training import build_model, run_grid

EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC = 2, 3, 4


class _Parser(argparse.ArgumentParser):
    """Usage errors (a removed ``--grid`` name, say) exit 2 with one line, as config errors do."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"config error: {message}\n")

# Ablation grids: named module combinations, the pseudo-head/alignment matrix,
# and the four attention-block designs.  Each arm is (name, nested changes to
# TrainConfig).
ABLATION_GRIDS = {
    "modules": [
        (name, {"ablation": {"use_attention": attn, "use_lmmd": lmmd, "use_self_training": st}})
        for name, attn, lmmd, st in [
            ("baseline", False, False, False),
            ("attn", True, False, False),
            ("attn+lmmd", True, True, False),
            ("attn+st", True, False, True),
            ("full", True, True, True),
        ]
    ],
    "heads": [
        (name, {"ablation": {"use_self_training": True, "use_lmmd": lmmd, "use_pseudo_head": dual}})
        for name, lmmd, dual in [
            ("a:st,single-head", False, False),
            ("b:st,dual-head", False, True),
            ("c:st+lmmd,single-head", True, False),
            ("d:st+lmmd,dual-head", True, True),
        ]
    ],
    "variants": [(f"variant_{v}", {"attention": {"variant": v}}) for v in "abcd"],
}


def _config_parent():
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", metavar="PATH", help="JSON experiment config")
    p.add_argument("--preset", choices=sorted(PRESETS), help="named defaults to start from")
    p.add_argument("--set", dest="overrides", action="append", metavar="K=V",
                   help="dotted config override, repeatable (e.g. train.epochs=2)")
    p.add_argument("--seed", type=int, help="replace the seed list with this single seed")
    return p


def build_parser():
    parser = _Parser(
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
                   choices=sorted(ABLATION_GRIDS),
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


def _prepare_run(args):
    """Resolve the config and load the bundle pair."""
    cfg = resolve_config(args.preset, args.config, args.overrides, args.seed)
    if not cfg.source_bundle or not cfg.target_bundle:
        raise ConfigError("config must name source_bundle and target_bundle")
    pair = []
    for role, bundle in (("source", cfg.source_bundle), ("target", cfg.target_bundle)):
        scene, labels = load_scene(bundle)
        if not labels.labels.any():  # nothing to train on, adapt on or score
            raise BundleError(f"{role} bundle {bundle} has no labeled pixel")
        pair.append((scene, labels))
    return cfg, *pair


def _finish_run(args, cfg):
    """Create --out and snapshot the config there, once every run has succeeded."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out / "resolved.cfg")
    return out


def _mean_std_line(agg):
    return (f"OA {format_mean_std(*agg['oa'])}  AA {format_mean_std(*agg['aa'])}  "
            f"Kappa x 100 {format_mean_std(*agg['kappa'])}")


def cmd_train(args):
    cfg, source, target = _prepare_run(args)
    out = Path(args.out)
    made_out = not out.exists()
    new_runs = [out / f"seed_{s}" for s in cfg.seeds if not (out / f"seed_{s}").exists()]
    try:
        [(_, reports, agg)] = run_grid(cfg.train, cfg.seeds, [("", {})], source, target,
                                       out_dir=out, deterministic=args.deterministic)
        _finish_run(args, cfg)
    except BaseException:
        # artifacts are complete or absent: remove what this call created
        for made in [out] if made_out else new_runs:
            shutil.rmtree(made, ignore_errors=True)
        raise
    if len(reports) > 1:
        print(f"mean over {len(reports)} seeds: {_mean_std_line(agg)}")
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
    print(format_report(report, labels.class_names))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_atomic(out / "report.txt", format_report(report, labels.class_names) + "\n")
    return 0


def _load_palette(path, num_classes):
    """[r, g, b] rows from a JSON list: the background, then one per class."""
    try:
        palette = [tuple(int(v) for v in row) for row in json.loads(Path(path).read_text())]
    except (ValueError, TypeError) as e:
        raise BundleError(f"malformed palette {path}: {e}") from e
    if any(len(rgb) != 3 or not all(0 <= v <= 255 for v in rgb) for rgb in palette):
        raise BundleError(f"malformed palette {path}: each entry must be [r, g, b] in 0..255")
    if len(palette) < num_classes + 1:
        raise BundleError(f"palette {path} has {len(palette)} entries; {num_classes} classes "
                          f"need {num_classes + 1} (index 0 is the background)")
    return palette


def cmd_map(args):
    cfg = resolve_config(args.preset, args.config, args.overrides, args.seed)
    model, scene, labels = _restore_model(args, cfg)
    if args.palette:
        palette = _load_palette(args.palette, labels.num_classes)
    else:
        palette = default_palette(labels.num_classes)
    _, raster = evaluate_scene(model, scene, labels, cfg.train, map_all=args.all_pixels)
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
    cfg, source, target = _prepare_run(args)
    rows = []
    for arm_name, _, agg in run_grid(cfg.train, cfg.seeds, ABLATION_GRIDS[args.grid],
                                     source, target, deterministic=args.deterministic):
        rows.append({"arm": arm_name,
                     "oa": agg["oa"], "aa": agg["aa"], "kappa": agg["kappa"],
                     "seeds": list(cfg.seeds)})
        print(f"{arm_name:24s} {_mean_std_line(agg)}")
    out = _finish_run(args, cfg)
    write_atomic(out / "ablation.json", json.dumps({"grid": args.grid, "rows": rows}, indent=1) + "\n")
    return 0


def cmd_synth(args):
    try:
        shift = ShiftSpec(gain=args.gain, offset=args.offset)
        (src, src_labels), (tgt, tgt_labels) = synth_domain_pair(
            num_classes=args.classes, bands=args.bands, blob_grid=args.grid,
            blob_size=args.blob, shift=shift, noise_sigma=args.noise,
            seed=args.seed, class_sigma=args.class_sigma,
            proto_range=(args.proto_low, args.proto_high))
    except BundleError:
        raise
    except ValueError as e:  # the arguments, checked before anything is generated
        raise ConfigError(str(e)) from e
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
