"""Confusion-matrix metrics, scene-level inference, and map rendering."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import engine as E
from .data import labeled_pixels, patch_source, write_atomic
from .engine import conv


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

    ``scene`` is a Scene or its ``PatchSource`` (see ``data.patch_source``).

    Deterministic raster ordering; eval-mode batch norm throughout; the
    trailing partial batch is kept.  Batches of 100 (the default training
    batch) keep every intermediate small enough for the allocator to reuse
    from one batch to the next instead of mapping fresh pages for each.
    Each batch is one ``model.predict`` call.  Two streams, the caller and
    the engine's side thread, take alternate strips of consecutive batches;
    a batch's predictions do not depend on the thread that scores it.

    When the extractor ``shares_stem``, overlapping patches share their
    position-wise layers (conv1, bn1 and the block's key and value maps).
    A strip then spans a few pixel rows: at most twice the halo of class
    rows every strip pays (``conv.class_rows(ps - 1, ps)``), and at most a
    stream's working-set budget, ``conv.COL_BYTES``, of maps (but at least
    one pixel row's).  Each stream holds one strip at a time; maps of the
    whole 80x80 hyrank-shape scene raised the peak RSS of a map run by half.
    If its pixels are dense enough to pay for it, it computes its stem maps
    once and gathers each batch's stems from them, bit for bit the stems of
    the batch's patches.  Otherwise batches are cut as patches, and each
    strip is one batch.
    """
    ps = config.patch_size
    src = patch_source(scene, ps, config.normalization)
    if map_all:
        pixels = np.argwhere(np.ones((src.height, src.width), dtype=bool))
    else:
        pixels = labeled_pixels(label_map)
    raster = np.zeros((src.height, src.width), dtype=np.int32)
    batches = [pixels[start : start + batch] for start in range(0, len(pixels), batch)]

    extractor = model.extractor
    width = src.width + ps - 1

    maps = 1 if extractor.block is None else 3  # h, key, value
    row_bytes = width * maps * extractor.config.unit_channels[0] * model.dtype.itemsize
    # h pixel rows are h + ps - 1 map rows: 9h class rows plus a halo that
    # every strip pays.  Past 2 * halo pixel rows a taller strip saves under
    # 1/19 of its class rows but holds more maps.
    halo = conv.class_rows(ps - 1, ps)
    max_rows = max(1, (conv.COL_BYTES // row_bytes - halo) // 9)
    if halo:
        max_rows = min(max_rows, 2 * halo)
    # A patch position's stem costs about two class-map positions' with conv1
    # on the per-tap side, whose tap GEMMs run once per map row for all nine
    # classes, and about one on the im2col side, where each class row runs
    # conv1's whole K = 9 * bands GEMM (measured on one stream: 0.49-0.56 of
    # a patch position at the hyrank shape, 0.68-0.75 at houston's, 1.0-1.06
    # at synth's).
    patch_cost = 2 if extractor.config.input_bands > extractor.config.unit_channels[0] else 1

    def score_strips(strips):
        for strip in strips:
            top, stop = strip[0][0, 0], strip[-1][-1, 0] + 1
            stems = None
            if (extractor.shares_stem and stop - top <= max_rows
                    and patch_cost * sum(map(len, strip)) * ps * ps
                    >= conv.class_rows(stop - top + ps - 1, ps) * width):
                stems = extractor.window_stems(src.rows(top, stop))
            for chunk in strip:
                x = src.batch(chunk).patches if stems is None else stems.gather(chunk - (top, 0))
                raster[chunk[:, 0], chunk[:, 1]] = model.predict(x)

    strips = _row_strips(batches, max_rows) if extractor.shares_stem else [[b] for b in batches]
    E.fork_join(lambda: score_strips(strips[0::2]), lambda: score_strips(strips[1::2]))
    return raster, pixels


def _row_strips(batches, max_rows):
    """Consecutive raster-ordered batches grouped into strips.  The pixel rows
    are cut into an even number of equal spans of at most ``max_rows``, so
    the two streams get equal shares, and a strip takes batches while its
    pixels fit in one span's height; a batch taller than that is a strip of
    its own."""
    if not batches:
        return []
    span = batches[-1][-1, 0] - batches[0][0, 0] + 1
    count = 2 * -(-span // (2 * max_rows))
    rows = -(-span // count)
    strips = []
    for chunk in batches:
        if strips and chunk[-1, 0] - strips[-1][0][0, 0] < rows:
            strips[-1].append(chunk)
        else:
            strips.append([chunk])
    return strips


def evaluate_scene(model, scene, label_map, config, map_all=False):
    """MetricsReport over every labeled pixel, plus the prediction raster;
    ``scene`` is a Scene or its ``PatchSource``."""
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
