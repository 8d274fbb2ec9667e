# The CLI module sets the BLAS thread count (one per stream unless
# CROSSSCENE_THREADS says otherwise), so it loads before numpy, as it does
# under the installed script: the suite then runs at the shipped default.
import crossscene.cli  # noqa: F401  isort: skip

import numpy as np
import pytest

from crossscene.data import ShiftSpec, synth_domain_pair
from crossscene.training import TrainConfig


@pytest.fixture(scope="session")
def tiny_pair():
    """Small synthetic domain pair for fast training tests (225 px/domain)."""
    return synth_domain_pair(num_classes=3, bands=8, blob_grid=3, blob_size=5,
                             shift=ShiftSpec(1.3, 0.1), noise_sigma=0.05, seed=7)


@pytest.fixture
def tiny_config():
    return TrainConfig(epochs=2, batch=50, patch_size=5, normalization="none",
                       unit_channels=(16, 32, 16), seed=0)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
