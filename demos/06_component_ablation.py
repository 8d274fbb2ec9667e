#!/usr/bin/env python3
"""Which parts earn their keep? A miniature component ablation.

Five arms: plain supervised baseline, + attention block, + alignment,
+ self-training, and the full combination — all scored on the held-back
target labels. An arm turns a loss term off by setting its lambda to 0.
(The CLI runs the same grid via `crossscene ablate --grid modules` with
multi-seed aggregation.)
"""

from crossscene.data import ShiftSpec, synth_domain_pair
from crossscene.evaluate import evaluate_scene
from crossscene.training import ABLATION_GRIDS, LossWeights, TrainConfig, fit, with_changes

source, target = synth_domain_pair(
    num_classes=5, bands=16, blob_grid=5, blob_size=9,
    shift=ShiftSpec(1.3, 0.1), noise_sigma=0.05, seed=0,
    proto_range=(0.35, 0.65))

base = TrainConfig(epochs=10, batch=100, patch_size=5, normalization="none",
                   unit_channels=(16, 32, 16),
                   loss_weights=LossWeights(lambda_lmmd=0.2, lambda_st=0.2))

print("arm                            target OA")
for name, changes in ABLATION_GRIDS["modules"]:
    cfg = with_changes(base, changes)
    result = fit(cfg, source, target, seed=0)
    report, _ = evaluate_scene(result.model, target[0], target[1], cfg)
    print(f"{name:30s} {report.oa * 100:6.2f}%")
