#!/usr/bin/env python3
"""Inside the center-attention convolution block.

Every spatial position's key is scored against a query built from the patch
center (no softmax, scaled inner products); the scores gate a depthwise-conv
stream, with a residual connection around the whole thing.
"""

import numpy as np

from crossscene.engine import Tensor
from crossscene.model import CenterAttentionBlock, CenterAttentionConfig

rng = np.random.default_rng(0)
x = Tensor(rng.normal(size=(1, 5, 5, 8)).astype(np.float32))

# The four design variants differ only in where the activation sits.
for variant in "abcd":
    block = CenterAttentionBlock(8, CenterAttentionConfig(variant=variant),
                                 np.random.default_rng(42), np.float32, f"blk_{variant}")
    out = block(x)
    delta = np.abs(out.data - x.data).mean()
    print(f"variant {variant}: output shape {out.shape}, mean |out - in| = {delta:.4f}")

# Zeroing the key/value/query maps silences the gate: pure residual.
block = CenterAttentionBlock(8, CenterAttentionConfig(), np.random.default_rng(1),
                             np.float32, "blk")
for layer in (block.key, block.value, block.query):
    layer.weight.data[...] = 0.0
    layer.bias.data[...] = 0.0
print("\nzero-weight identity holds:", np.array_equal(block(x).data, x.data))

# The gate responds to how similar each position is to the center pixel.
flat = np.zeros((1, 5, 5, 2), dtype=np.float32)  # (n, h, w, c)
flat[0, 2, 2, :] = 1.0            # distinctive center
flat[0, 0, 0, :] = 1.0            # one corner matches the center exactly
block2 = CenterAttentionBlock(2, CenterAttentionConfig(), np.random.default_rng(2),
                              np.float32, "blk2")
out = block2(Tensor(flat))
gate = np.abs(out.data - flat)[0].sum(axis=-1)
print("\n|output - input| per position (center-similar corner reacts):")
print(np.array2string(gate, precision=3))
