"""Checkpoints written before the channels-last engine still load and agree.

``fixtures/checkpoint_v1/pool`` was written by the (n, c, h, w) engine of
commit c1ae829: a classifier with 4 bands, patch 5 and channels 8/16/8, seed
5, with every parameter and BN buffer set to a non-trivial seeded draw.  The
model has one feature mode, the pooled one the directory is named after.
Beside the checkpoint sits that engine's eval-mode logits (main head, then
pseudo head) on ``patches.npy``.
"""

from pathlib import Path

import numpy as np
import pytest

from crossscene.engine import Tensor
from crossscene.model import (CenterAttentionConfig, DualHeadClassifier, ExtractorConfig,
                              load_checkpoint)

FIXTURE = Path(__file__).parent / "fixtures" / "checkpoint_v1"
ATOL = 1e-4  # float32 tolerance, fixed before comparing


@pytest.mark.parametrize("mode", ["pool"])
def test_v1_checkpoint_logits_unchanged(mode):
    cfg = ExtractorConfig(input_bands=4, patch_size=5, unit_channels=(8, 16, 8))
    model = DualHeadClassifier(cfg, CenterAttentionConfig(), num_classes=3, seed=0)
    load_checkpoint(model, FIXTURE / mode / "checkpoint.bin")
    z = model.features(Tensor(np.load(FIXTURE / "patches.npy")), training=False)
    expected = np.load(FIXTURE / mode / "logits.npy")
    np.testing.assert_allclose(model.head_cls(z).data, expected[0], rtol=0, atol=ATOL)
    np.testing.assert_allclose(model.head_psd(z).data, expected[1], rtol=0, atol=ATOL)
