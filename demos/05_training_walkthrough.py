#!/usr/bin/env python3
"""Train the dual-head network on a synthetic domain pair, end to end.

Source patches supervise the main head; the unlabeled target batch flows
through the same extractor for class-conditional alignment and
confidence-thresholded self-training on the pseudo head. Afterwards, the
target scene (whose labels were held back during training) is scored.
"""

import tempfile
from pathlib import Path

from crossscene.data import ShiftSpec, synth_domain_pair
from crossscene.evaluate import default_palette, evaluate_scene, format_report, write_map
from crossscene.training import LossWeights, TrainConfig, fit

source, target = synth_domain_pair(
    num_classes=5, bands=16, blob_grid=5, blob_size=9,
    shift=ShiftSpec(1.3, 0.1), noise_sigma=0.05, seed=0,
    proto_range=(0.35, 0.65))

config = TrainConfig(epochs=10, batch=100, patch_size=5,
                     normalization="none", unit_channels=(16, 32, 16),
                     loss_weights=LossWeights(lambda_lmmd=0.2, lambda_st=0.2))

with tempfile.TemporaryDirectory() as d:
    result = fit(config, source, target, seed=0, out_dir=d)
    print("artifacts:", sorted(p.name for p in Path(d).iterdir()))

print("\nepoch  lr       cls     align   self-train  pseudo")
for rec in result.history:
    print(f"{rec['epoch']:4d}  {rec['lr']:.5f}  {rec['loss_cls']:.4f}  "
          f"{rec['loss_lmmd']:.4f}  {rec['loss_st']:.4f}      {rec['pseudo_count']}")

report, raster = evaluate_scene(result.model, target[0], target[1], config)
print("\ntarget-domain score (labels were hidden during training):")
print(format_report(report, target[1].class_names))

with tempfile.TemporaryDirectory() as d:
    path = write_map(raster, default_palette(5), Path(d) / "map.ppm")
    print("\nclass map written:", path.name, f"({Path(path).stat().st_size} bytes)")
