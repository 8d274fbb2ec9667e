import tracemalloc

import numpy as np
import pytest

from crossscene.data import ShiftSpec, synth_domain_pair
from crossscene.engine.tensor import one_blas_thread
from crossscene.training import TrainConfig


@pytest.fixture(scope="session", autouse=True)
def _one_blas_thread():
    """The whole suite at the program's one BLAS thread per stream, so tests
    that call engine ops outside ``fit`` get its bits on any core count."""
    with one_blas_thread():
        yield


@pytest.fixture(scope="session")
def tiny_pair():
    """Small synthetic domain pair for fast training tests (225 px/domain)."""
    return synth_domain_pair(num_classes=3, bands=8, blob_grid=3, blob_size=5,
                             shift=ShiftSpec(1.3, 0.1), noise_sigma=0.05, seed=7)


@pytest.fixture
def tiny_config():
    return TrainConfig(epochs=2, batch=50, patch_size=5, normalization="none",
                       unit_channels=(16, 32, 16))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` -> (fn(), the peak MiB of the memory fn allocates
    beyond what is live when it starts, as tracemalloc traces it)."""
    def run(fn):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = fn()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        return out, peak / 2**20

    return run
