#!/usr/bin/env python3
"""Generate a controlled two-domain scene pair and poke at the data layer.

The target domain is a per-band affine transform of the source prototypes
plus noise, so the domain gap is known exactly. Bundles written here are the
same on-disk format the real datasets use (BSQ float32 cube + uint16 labels).
"""

import tempfile
from pathlib import Path

import numpy as np

from crossscene.data import (PatchSource, ShiftSpec, labeled_pixels, load_scene,
                             normalize_scene, save_bundle, synth_domain_pair)

(src, src_labels), (tgt, tgt_labels) = synth_domain_pair(
    num_classes=5, bands=16, blob_grid=5, blob_size=9,
    shift=ShiftSpec(gain=1.3, offset=0.1), noise_sigma=0.05, seed=0)

print(f"scene: {src.height}x{src.width}x{src.bands}, "
      f"{(src_labels.labels > 0).sum()} labeled pixels, "
      f"{src_labels.num_classes} classes")

# The shift is visible in the per-class band means.
c = 1
sel = src_labels.labels == c
print(f"\nclass {c} band-0 means: source {src.cube[sel][:, 0].mean():.3f}, "
      f"target {tgt.cube[sel][:, 0].mean():.3f} "
      f"(expected ~ gain*source + offset)")

# Round-trip through the bundle format, bit-exact.
with tempfile.TemporaryDirectory() as d:
    save_bundle(src, src_labels, Path(d) / "source")
    reloaded, _ = load_scene(Path(d) / "source")
    print("\nbundle round-trip bitwise equal:",
          np.array_equal(src.cube.view(np.uint32), reloaded.cube.view(np.uint32)))

# Patches mirror at the borders; the center pixel is always the raw spectrum.
patch = PatchSource(src, 5).batch(np.array([[0, 0]])).patches.data[0]
print("corner patch shape:", patch.shape,
      "| center equals pixel:", np.array_equal(patch[2, 2], src.cube[0, 0]))

# Normalization modes.
mm = normalize_scene(src, "minmax")
print("minmax band ranges:", mm.cube.min(), "..", mm.cube.max())
print("labeled (row, col) pixels (raster order), first three:",
      labeled_pixels(src_labels)[:3].tolist())
