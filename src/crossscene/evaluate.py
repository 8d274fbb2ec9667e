"""Confusion-matrix metrics, scene-level inference, and map rendering."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import engine as E
from .data import PatchSource, labeled_pixels, normalize_scene, write_atomic


def confusion(preds, truths, num_classes):
    """Row = true class, column = predicted; unlabeled truths (0) are skipped."""
    preds = np.asarray(preds, dtype=np.int64)
    truths = np.asarray(truths, dtype=np.int64)
    if preds.shape != truths.shape:
        raise ValueError("prediction/truth length mismatch")
    keep = truths > 0
    preds, truths = preds[keep], truths[keep]
    if preds.size and (preds.min() < 1 or preds.max() > num_classes or truths.max() > num_classes):
        raise ValueError("label outside 1..C")
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(cm, (truths - 1, preds - 1), 1)
    return cm


@dataclass
class MetricsReport:
    oa: float
    aa: float
    kappa: float
    per_class: list
    n_eval: int
    empty_classes: list = field(default_factory=list)


def metrics(cm):
    """OA, AA (mean recall over classes with support), and Cohen's kappa.

    Classes with an empty row are excluded from AA and flagged; their
    per-class entry is 0.  A degenerate chance agreement of 1 yields kappa 0.
    """
    cm = np.asarray(cm, dtype=np.float64)
    total = cm.sum()
    if total <= 0:
        raise ValueError("empty confusion matrix")
    row = cm.sum(axis=1)
    col = cm.sum(axis=0)
    oa = np.trace(cm) / total
    with np.errstate(invalid="ignore", divide="ignore"):
        per_class = np.where(row > 0, np.diag(cm) / np.where(row > 0, row, 1.0), 0.0)
    nonempty = row > 0
    aa = float(per_class[nonempty].mean()) if nonempty.any() else 0.0
    pe = float((row * col).sum()) / (total * total)
    kappa = 0.0 if pe >= 1.0 else (oa - pe) / (1.0 - pe)
    return MetricsReport(
        oa=float(oa),
        aa=aa,
        kappa=float(kappa),
        per_class=[float(v) for v in per_class],
        n_eval=int(total),
        empty_classes=[int(c + 1) for c in np.nonzero(~nonempty)[0]],
    )


def predict_scene(model, scene, label_map, config, map_all=False, batch=100):
    """Predict labeled pixels (or all pixels) -> (predictions raster, (n, 2) pixels).

    Deterministic raster ordering; eval-mode batch norm throughout; the
    trailing partial batch is kept.  Batches of 100 (the default training
    batch) keep every intermediate small enough for the allocator to reuse
    from one batch to the next instead of mapping fresh pages for each.
    Two batches are scored at a time, the second on the engine's side thread;
    a batch's predictions do not depend on the thread that scores it.
    """
    scene = normalize_scene(scene, config.normalization)
    src = PatchSource(scene, config.patch_size)
    if map_all:
        pixels = np.argwhere(np.ones((scene.height, scene.width), dtype=bool))
    else:
        pixels = labeled_pixels(label_map)
    raster = np.zeros((scene.height, scene.width), dtype=np.int32)

    def score(chunk):
        raster[chunk[:, 0], chunk[:, 1]] = model.predict(src.batch(chunk).patches)

    for start in range(0, len(pixels), 2 * batch):
        first, second = pixels[start : start + batch], pixels[start + batch : start + 2 * batch]
        if len(second):
            E.fork_join(lambda: score(first), lambda: score(second))
        else:
            score(first)
    return raster, pixels


def evaluate_scene(model, scene, label_map, config, map_all=False):
    """MetricsReport over every labeled pixel, plus the prediction raster."""
    raster, _ = predict_scene(model, scene, label_map, config, map_all=map_all)
    mask = label_map.labels > 0
    report = metrics(confusion(raster[mask], label_map.labels[mask], label_map.num_classes))
    return report, raster


# -- multi-run aggregation ----------------------------------------------------


def aggregate_runs(reports):
    """Per-metric mean and sample (n-1) standard deviation; std 0 for n = 1."""
    if not reports:
        raise ValueError("no reports to aggregate")
    out = {}
    for key in ("oa", "aa", "kappa"):
        vals = np.array([getattr(r, key) for r in reports], dtype=np.float64)
        std = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        out[key] = (float(vals.mean()), std)
    n_classes = len(reports[0].per_class)
    per_class = []
    for c in range(n_classes):
        vals = np.array([r.per_class[c] for r in reports], dtype=np.float64)
        std = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        per_class.append((float(vals.mean()), std))
    out["per_class"] = per_class
    return out


def format_mean_std(mean, std):
    """Render as the conventional percentage string, e.g. '80.23±1.92'."""
    return f"{mean * 100:.2f}±{std * 100:.2f}"


def format_report(report, class_names=None):
    """Human-readable metrics block (kappa reported x100)."""
    lines = [
        f"OA (%): {report.oa * 100:.2f}",
        f"AA (%): {report.aa * 100:.2f}",
        f"Kappa x 100: {report.kappa * 100:.2f}",
        f"n_eval: {report.n_eval}",
    ]
    for i, acc in enumerate(report.per_class):
        name = class_names[i] if class_names and i < len(class_names) else f"class_{i + 1}"
        flag = "  (no support)" if (i + 1) in report.empty_classes else ""
        lines.append(f"  C{i + 1} {name}: {acc * 100:.2f}{flag}")
    return "\n".join(lines)


# -- class-map rendering ------------------------------------------------------


def default_palette(num_classes):
    """Background black plus evenly spaced hues; deterministic."""
    import colorsys

    palette = [(0, 0, 0)]
    for c in range(num_classes):
        h = (c * 0.618033988749895) % 1.0
        r, g, b = colorsys.hsv_to_rgb(h, 0.85, 0.95)
        palette.append((int(r * 255), int(g * 255), int(b * 255)))
    return palette


def render_map(raster, palette):
    """Binary P6 PPM bytes for a class raster (row-major, one RGB per pixel)."""
    raster = np.asarray(raster)
    if raster.max() >= len(palette):
        raise ValueError(
            f"palette has {len(palette)} entries but raster holds class {raster.max()}")
    lut = np.asarray(palette, dtype=np.uint8)
    rgb = lut[raster]
    header = f"P6\n{raster.shape[1]} {raster.shape[0]}\n255\n".encode("ascii")
    return header + rgb.tobytes()


def write_map(raster, palette, path):
    data = render_map(raster, palette)
    write_atomic(path, data)
    write_atomic(Path(path).with_suffix(".palette.json"), json.dumps([list(p) for p in palette]) + "\n")
    return path
