"""Finite-difference verification machinery and the primitive property suite."""

import numpy as np
import pytest

from crossscene import engine as E
from crossscene.engine import Parameter, Tensor, grad_check
from crossscene.engine import tensor
from crossscene.engine.gradcheck import primitive_checks
from crossscene.engine.tensor import _make
from crossscene.model import CenterAttentionBlock, CenterAttentionConfig


@pytest.mark.parametrize("seed", range(20))
def test_every_primitive_matches_finite_differences(seed):
    for name, params, build in primitive_checks(seed):
        rep = grad_check(build, params, name=name)
        assert rep.passed(1e-4), f"{name} @ seed {seed}: {rep.max_rel_err:.3e}"


def test_opset_names_engine_functions_with_check_cases():
    """Each OPSET name is an engine function ("sum" and "mean" spell tsum and
    tmean) and has a finite-difference case: the benchmark tracer wraps ops
    by these names."""
    cases = {name for name, _, _ in primitive_checks(0)}
    for op in tensor.OPSET:
        assert callable(getattr(tensor, {"sum": "tsum", "mean": "tmean"}.get(op, op), None)), op
        assert op in cases, op


# The engine's public surface, as ``crossscene.engine.__all__`` sorted.  A new
# op or helper is added here in the same change, next to the model code or
# test that needs it.
PINNED_ENGINE = (
    "BN_MOMENTUM", "GradCheckReport", "NumericError", "OPSET", "Parameter", "Tensor",
    "add", "affine", "avg_pool2d", "backward_pair", "batch_norm2d", "center_pixel",
    "concat_rows", "conv2d", "conv2d_windows", "depthwise_conv2d", "exp", "fork_join",
    "gather_rows", "gelu", "grad_check", "leaky_relu", "log_softmax", "lr_schedule", "matmul",
    "mul", "no_grad", "primitive_checks", "recompute", "reshape", "scale", "sgd_momentum_step",
    "softmax", "tmean", "transpose", "tsum", "zero_grads",
)


def test_engine_surface_is_pinned():
    assert tuple(sorted(E.__all__)) == PINNED_ENGINE


@pytest.mark.parametrize("variant", "abcd")
def test_recomputed_attention_block_matches_finite_differences(variant):
    """The block under ``recompute``, as the extractor runs it in training:
    its backward reruns it with GELU's saved Phi(x)."""
    rng = np.random.default_rng(np.random.SeedSequence((5, ord(variant))))
    block = CenterAttentionBlock(8, CenterAttentionConfig(variant=variant), rng, np.float64,
                                 "attn")
    x = Parameter(rng.standard_normal((2, 5, 5, 8)), name="x", dtype=np.float64)
    r = Tensor(rng.standard_normal((2, 5, 5, 8)), dtype=np.float64)
    params = {p.name: p for p in block.parameters()}
    params["x"] = x
    rep = grad_check(lambda: E.tsum(E.mul(E.recompute(block, x, block.parameters()), r)), params)
    assert rep.passed(1e-4), f"{variant}: {rep.max_rel_err:.3e}"


def test_affine_layer_near_exact(rng):
    x = Parameter(rng.standard_normal((4, 3)), name="x", dtype=np.float64)
    w = Parameter(rng.standard_normal((3, 2)), name="w", dtype=np.float64)
    b = Parameter(rng.standard_normal(2), name="b", dtype=np.float64)
    r = Tensor(rng.standard_normal((4, 2)), dtype=np.float64)
    rep = grad_check(lambda: E.tsum(E.mul(E.affine(x, w, b), r)), [x, w, b])
    assert rep.max_rel_err < 1e-6  # linear map: finite differences near-exact


def test_injected_sign_error_is_reported():
    rng = np.random.default_rng(3)
    x = Parameter(rng.standard_normal((3, 4)), name="x", dtype=np.float64)
    r = Tensor(rng.standard_normal((3, 4)), dtype=np.float64)

    def broken_gelu(t):
        out = E.gelu(t)
        data = out.data

        def vjp(g):
            pdf = np.exp(-0.5 * t.data * t.data) / np.sqrt(2 * np.pi)
            cdf = data / np.where(t.data != 0, t.data, 1.0)
            return (g * (cdf - t.data * pdf),)  # sign flipped on the pdf term

        return _make(data, (t,), vjp)

    rep = grad_check(lambda: E.tsum(E.mul(broken_gelu(x), r)), [x], name="gelu")
    assert not rep.passed(1e-4)
    assert rep.name == "gelu"


def test_non_deterministic_forward_reported():
    x = Parameter(np.ones(1), name="x", dtype=np.float64)
    state = {"n": 0}

    def build():
        state["n"] += 1
        return E.scale(x, float(state["n"]))

    rep = grad_check(build, [x])
    assert rep.failure is not None
    assert "non-deterministic" in rep.failure


def test_requires_f64_parameters():
    x = Parameter(np.ones(2, dtype=np.float32), name="x")
    with pytest.raises(ValueError, match="f64"):
        grad_check(lambda: E.tsum(x), [x])


def test_entry_subsampling_still_probes(rng):
    x = Parameter(rng.standard_normal((20, 20)), name="x", dtype=np.float64)
    r = Tensor(rng.standard_normal((20, 20)), dtype=np.float64)
    rep = grad_check(lambda: E.tsum(E.mul(E.gelu(x), r)), [x], max_entries_per_param=10)
    assert rep.passed(1e-4)
    assert rep.per_param["x"] > 0  # something was actually compared
