"""The complete gradient-verification suite.

Primitive cases come from the engine; this module adds the network-level
subgraphs: the center-attention block in all four variants, the
class-conditional alignment loss, and the full classifier.  Everything runs
in f64 with central differences regardless of the training dtype.

The alignment check uses a fixed bandwidth: with the median heuristic the
bandwidth is treated as a constant of the step (it is computed from detached
features), so finite differences would disagree by construction.
"""

from __future__ import annotations

import numpy as np

from . import engine as E
from .discrepancy import lmmd, one_hot
from .engine import Parameter, Tensor, grad_check
from .engine.gradcheck import primitive_checks
from .model import CenterAttentionBlock, CenterAttentionConfig, DualHeadClassifier, ExtractorConfig

GRADCHECK_TOLERANCE = 1e-4
GRADCHECK_STEP = 1e-5
FULL_MODEL_ENTRIES = 40  # components sampled per parameter of the whole classifier


def attention_block_case(variant, seed=0):
    """One block on a 5x5 map with 8 channels; input is checked too."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, ord(variant))))
    block = CenterAttentionBlock(8, CenterAttentionConfig(variant=variant), rng,
                                 np.float64, f"attn_{variant}")
    x = Parameter(rng.standard_normal((2, 5, 5, 8)), name="x", dtype=np.float64)
    r = Tensor(rng.standard_normal((2, 5, 5, 8)), dtype=np.float64)
    params = {p.name: p for p in block.parameters()}
    params["x"] = x

    def build():
        return E.tsum(E.mul(block(x), r))

    return f"attention_block_{variant}", params, build, None


def lmmd_case(seed=0):
    """Alignment loss on 6+6 feature vectors, gradients w.r.t. both sides."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x11D)))
    zs = Parameter(rng.standard_normal((6, 5)), name="zs", dtype=np.float64)
    zt = Parameter(rng.standard_normal((6, 5)), name="zt", dtype=np.float64)
    ys = one_hot(rng.integers(1, 4, size=6), 3)
    pt = rng.dirichlet(np.ones(3), size=6)

    def build():
        return lmmd(zs, ys, zt, pt, bandwidth=2.0)

    return "lmmd", {"zs": zs, "zt": zt}, build, None


def full_model_case(seed=0):
    """Whole classifier on a 4-sample, ps=5, 6-band batch; loss = mean p[:, 0]."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xF11)))
    cfg = ExtractorConfig(input_bands=6, patch_size=5)
    model = DualHeadClassifier(cfg, CenterAttentionConfig(), num_classes=3,
                               seed=seed, dtype=np.float64)
    x = Tensor(rng.standard_normal((4, 5, 5, 6)), dtype=np.float64)

    def build():
        z = model.features(x, training=True)
        p = E.softmax(model.head_cls(z))
        return E.tmean(E.gather_rows(E.transpose(p), np.array([0])))

    return "full_model", model.parameters(), build, FULL_MODEL_ENTRIES


def standard_cases(seed=0):
    """Every registered check: primitives, block variants, alignment, model."""
    cases = [(name, params, build, None) for name, params, build in primitive_checks(seed)]
    for variant in "abcd":
        cases.append(attention_block_case(variant, seed))
    cases.append(lmmd_case(seed))
    cases.append(full_model_case(seed))
    return cases


def run_all_checks(seed=0, tolerance=GRADCHECK_TOLERANCE, step=GRADCHECK_STEP):
    """Run the whole suite; returns (reports, all_passed)."""
    reports = []
    ok = True
    for name, params, build, max_entries in standard_cases(seed):
        rep = grad_check(build, params, step=step, max_entries_per_param=max_entries,
                         seed=seed, name=name)
        reports.append(rep)
        ok = ok and rep.passed(tolerance)
    return reports, ok
