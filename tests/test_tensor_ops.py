"""Forward semantics and tape behavior of the engine primitives."""

import sys
import threading

import numpy as np
import pytest

from crossscene import engine as E
from crossscene.engine import Parameter, Tensor, tensor


def test_gelu_fixed_points():
    x = Tensor(np.array([0.0, 1.0, -1.0]))
    y = E.gelu(x).data
    assert y[0] == 0.0
    g1 = 0.8413447460685429  # 0.5 * (1 + erf(1/sqrt(2)))
    assert abs(y[1] - g1) < 1e-6
    assert abs(y[2] - (-1.0 + g1)) < 1e-6  # x*Phi(x) at -1 = -(1 - Phi(1))


def test_leaky_relu_negative_branch():
    y = E.leaky_relu(Tensor(np.array([-1.0, 2.0])), 0.01).data
    assert y[0] == pytest.approx(-0.01)
    assert y[1] == pytest.approx(2.0)


def _bits(a):
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


def _leaky_pair(x, slope, g):
    """(forward, VJP) of the engine op on x with upstream gradient g."""
    t = Tensor(x, requires_grad=True)
    y = E.leaky_relu(t, slope)
    y.backward(g)
    return y.data, t.grad


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 0 * -inf
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("slope", [0.0, 0.01])
def test_leaky_relu_bitwise_matches_select(rng, dtype, slope):
    """The branch-free max form equals the select form bit for bit."""
    specials = [0.0, -0.0, np.nan] + ([np.inf, -np.inf] if slope else [-np.inf])
    x = np.concatenate([rng.normal(size=200), specials]).astype(dtype)
    g = rng.normal(size=x.shape).astype(dtype)
    y, gx = _leaky_pair(x, slope, g)
    s = dtype(slope)
    ref_y = np.where(x > 0, x, s * x)
    ref_gx = np.where(x > 0, g, s * g)
    assert y.dtype == gx.dtype == dtype
    assert np.array_equal(_bits(y), _bits(ref_y))
    assert np.array_equal(_bits(gx), _bits(ref_gx))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_leaky_relu_zero_slope_at_positive_infinity():
    """At slope 0 the max form reads max(inf, 0*inf) = NaN where the select gave inf;
    the gradient still passes through."""
    y, gx = _leaky_pair(np.array([np.inf]), 0.0, np.array([2.0]))
    assert np.isnan(y[0])
    assert gx[0] == 2.0


@pytest.mark.parametrize("slope", [-0.01, 1.5])
def test_leaky_relu_rejects_slope_outside_unit_interval(slope):
    with pytest.raises(ValueError, match="slope"):
        E.leaky_relu(Tensor(np.ones(3)), slope)


def test_softmax_constant_rows():
    for c in (-3.0, 0.0, 11.5):
        p = E.softmax(Tensor(np.full((2, 4), c))).data
        assert np.allclose(p, 0.25, atol=1e-7)


def test_softmax_rows_normalized(rng):
    p = E.softmax(Tensor(rng.normal(size=(50, 7)) * 10)).data
    assert (p >= 0).all()
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-6


def test_batchnorm_training_statistics(rng):
    x = Tensor(rng.normal(loc=3.0, scale=2.5, size=(8, 6, 6, 5)).astype(np.float32))
    gamma = Parameter(np.ones(5, dtype=np.float32))
    beta = Parameter(np.zeros(5, dtype=np.float32))
    out = E.batch_norm2d(x, gamma, beta, np.zeros(5), np.ones(5), training=True).data
    mean = out.mean(axis=(0, 1, 2))
    var = out.var(axis=(0, 1, 2))
    assert np.abs(mean).max() < 1e-5
    assert np.abs(var - 1.0).max() < 1e-4


def test_batchnorm_running_stats_update(rng):
    x = Tensor(rng.normal(loc=1.0, size=(4, 5, 5, 3)).astype(np.float32))
    gamma, beta = Parameter(np.ones(3)), Parameter(np.zeros(3))
    rm, rv = np.zeros(3), np.ones(3)
    E.batch_norm2d(x, gamma, beta, rm, rv, training=True)
    mu = x.data.mean(axis=(0, 1, 2))
    assert np.allclose(rm, 0.1 * mu, atol=1e-6)
    # eval mode must not touch the buffers
    before = rm.copy()
    E.batch_norm2d(x, gamma, beta, rm, rv, training=False)
    assert np.array_equal(rm, before)


@pytest.mark.parametrize("training", [True, False])
def test_batchnorm_epilogue_equals_bn_then_leaky_relu(rng, training):
    """The fused LeakyReLU gives the bits of the two ops it replaces: output,
    input, scale and shift gradients, and the running buffers."""
    f32 = np.float32
    x = rng.normal(loc=0.3, size=(6, 5, 5, 4)).astype(f32)
    g = rng.normal(size=x.shape).astype(f32)
    gamma0, beta0 = rng.normal(size=4).astype(f32), rng.normal(size=4).astype(f32)

    def run(fused):
        t, gamma, beta = Tensor(x, requires_grad=True), Parameter(gamma0), Parameter(beta0)
        rm, rv = np.full(4, 0.2), np.full(4, 1.5)
        if fused:
            out = E.batch_norm2d(t, gamma, beta, rm, rv, training=training, slope=0.01)
        else:
            out = E.leaky_relu(E.batch_norm2d(t, gamma, beta, rm, rv, training=training), 0.01)
        out.backward(g)
        return out.data, t.grad, gamma.grad, beta.grad, rm, rv

    fused, plain = run(True), run(False)
    assert (fused[0] < 0).any() and (fused[0] > 0).any()  # both slopes are taken
    for a, b in zip(fused, plain):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _bn_reference(x, gamma, beta, rm, rv, training, g, momentum=0.1, eps=1e-5):
    """The two-pass f64 batch norm: (out, gx, ggamma, gbeta, running mean, running var)."""
    x, gamma, beta, g = (a.astype(np.float64) for a in (x, gamma, beta, g))
    rm, rv = rm.astype(np.float64), rv.astype(np.float64)
    axes = (0, 1, 2)
    cnt = x.shape[0] * x.shape[1] * x.shape[2]
    if training:
        mu, var = x.mean(axis=axes), x.var(axis=axes)
        rm = (1 - momentum) * rm + momentum * mu
        rv = (1 - momentum) * rv + momentum * var * cnt / (cnt - 1)
    else:
        mu, var = rm, rv
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    gxhat = g * gamma
    if training:
        gx = (inv / cnt) * (cnt * gxhat - gxhat.sum(axis=axes) - xhat * (gxhat * xhat).sum(axis=axes))
    else:
        gx = gxhat * inv
    return gamma * xhat + beta, gx, (g * xhat).sum(axis=axes), g.sum(axis=axes), rm, rv


@pytest.mark.parametrize("training", [True, False])
def test_batchnorm_matches_two_pass_reference(rng, training):
    f32 = np.float32
    x = rng.normal(loc=2.0, scale=3.0, size=(6, 5, 5, 4)).astype(f32)
    gamma = Parameter(rng.normal(size=4).astype(f32))
    beta = Parameter(rng.normal(size=4).astype(f32))
    rm, rv = rng.normal(size=4).astype(f32), rng.uniform(0.5, 2.0, size=4).astype(f32)
    g = rng.normal(size=x.shape).astype(f32)
    ref = _bn_reference(x, gamma.data, beta.data, rm, rv, training, g)
    t = Tensor(x, requires_grad=True)
    out = E.batch_norm2d(t, gamma, beta, rm, rv, training=training)
    out.backward(g)
    tol = dict(rtol=1e-5, atol=1e-5)
    assert out.dtype == t.grad.dtype == f32
    for got, want in zip((out.data, t.grad, gamma.grad, beta.grad, rm, rv), ref):
        np.testing.assert_allclose(got, want, **tol)


# conv2d expands the narrower channel side: im2col when c_in <= c_out, one
# GEMM per kernel tap otherwise; the cases below cover both sides
@pytest.mark.parametrize("c_in,c_out,hw", [(3, 4, (6, 5)), (4, 3, (10, 9))], ids=["im2col", "per_tap"])
def test_conv2d_matches_direct_convolution(rng, c_in, c_out, hw):
    h, w_ = hw
    x = rng.normal(size=(2, c_in, h, w_))  # reference computed in (n, c, h, w)
    w = rng.normal(size=(c_out, c_in, 3, 3))
    out = E.conv2d(Tensor(x.transpose(0, 2, 3, 1)), Tensor(w)).data.transpose(0, 3, 1, 2)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    ref = np.zeros((2, c_out, h, w_))
    for n in range(2):
        for o in range(c_out):
            for i in range(h):
                for j in range(w_):
                    ref[n, o, i, j] = (xp[n, :, i : i + 3, j : j + 3] * w[o]).sum()
    assert np.allclose(out, ref, atol=1e-10)


# 3 -> 6 takes the im2col side of the rule (gw = im2col(x).T g), 6 -> 3 the
# per-tap side (gw = x.T im2col(g)), each on two map sizes
@pytest.mark.parametrize("c_in,c_out,hw", [(3, 6, (4, 5)), (6, 3, (4, 5)), (3, 6, (9, 10)), (6, 3, (9, 10))],
                         ids=["3-6", "6-3", "3-6-9x10", "6-3-9x10"])
def test_conv2d_vjp_skips_input_gradient(rng, c_in, c_out, hw):
    """A non-grad input gets no gradient; gw and gb are still exact."""
    h, w_ = hw
    x = rng.normal(size=(2, h, w_, c_in))
    w = Parameter(rng.normal(size=(c_out, c_in, 3, 3)))
    b = Parameter(rng.normal(size=c_out))
    out = E.conv2d(Tensor(x), w, b)
    g = rng.normal(size=out.shape)
    gx, gw, gb = out._vjp(g)
    assert gx is None
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    ref = np.zeros((c_out, c_in, 3, 3))
    for ki in range(3):
        for kj in range(3):
            ref[:, :, ki, kj] = np.einsum("nhwo,nhwi->oi", g, xp[:, ki : ki + h, kj : kj + w_])
    assert np.allclose(gw, ref, atol=1e-10)
    assert np.allclose(gb, g.sum(axis=(0, 1, 2)), atol=1e-12)


@pytest.mark.parametrize("hw,c_in,c_out", [
    ((5, 5), 32, 32), ((5, 5), 33, 32), ((5, 5), 32, 33),
    ((15, 15), 32, 32), ((15, 15), 33, 32), ((15, 15), 32, 33),
])
def test_conv2d_paths_agree_at_the_rule(rng, hw, c_in, c_out):
    """Both formulations give forward, gw and gx within float32 rounding of
    each other on and next to the rule's boundary, and conv2d takes the one
    it names: im2col for an a -> b conv with a <= b, per-tap GEMMs otherwise,
    and for gw the columns of the narrower of x and g."""
    f32 = np.float32
    x = rng.normal(size=(3, *hw, c_in)).astype(f32)
    w = rng.normal(size=(c_out, c_in, 3, 3)).astype(f32)
    g = rng.normal(size=(3, *hw, c_out)).astype(f32)
    taps = np.ascontiguousarray(w.transpose(2, 3, 1, 0)).reshape(9, c_in, c_out)
    flipped = np.ascontiguousarray(taps[::-1].transpose(0, 2, 1))
    # each pair: (im2col side, per-tap side) of the rule
    fwd = [tensor._conv_im2col(x, taps), tensor._conv_per_tap(x, taps)]
    gw = [tensor._conv_weight_grad(x, g), tensor._conv_weight_grad(x, g, tensor._im2col(g))]
    gx = [tensor._conv_im2col(g, flipped), tensor._conv_per_tap(g, flipped)]
    for a, b in (fwd, gw, gx):
        assert a.dtype == b.dtype == f32
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-5 * np.abs(b).max())
    tx, tw = Tensor(x, requires_grad=True), Parameter(w)
    out = E.conv2d(tx, tw)
    out.backward(g)
    assert np.array_equal(out.data, fwd[0 if c_in <= c_out else 1])
    assert np.array_equal(tw.grad, gw[0 if c_in <= c_out else 1])
    assert np.array_equal(tx.grad, gx[0 if c_out <= c_in else 1])


@pytest.mark.parametrize("hw,c_in,c_out", [
    ((5, 5), 16, 32), ((7, 7), 64, 32), ((7, 7), 32, 64),
    ((7, 7), 176, 32), ((15, 15), 48, 32),
    # 32 -> 16 gave one image other bits alone with strided per-tap kernels
    ((5, 5), 32, 16), ((15, 15), 32, 64), ((15, 15), 64, 32),
    ((5, 5), 16, 4),
])
def test_conv2d_output_independent_of_batch(rng, hw, c_in, c_out):
    """An image's output bits do not depend on the batch it is run in."""
    x = rng.normal(size=(100, *hw, c_in)).astype(np.float32)
    w = Tensor(rng.normal(size=(c_out, c_in, 3, 3)).astype(np.float32))
    full = E.conv2d(Tensor(x), w).data
    for size in (1, 7):
        parts = [E.conv2d(Tensor(x[i : i + size]), w).data for i in range(0, 100, size)]
        assert np.array_equal(np.concatenate(parts), full), size


def test_depthwise_conv_no_channel_mixing(rng):
    x = rng.normal(size=(1, 5, 5, 3))
    w = np.zeros((3, 3, 3))
    w[1] = rng.normal(size=(3, 3))  # only channel 1 has a nonzero kernel
    out = E.depthwise_conv2d(Tensor(x), Tensor(w)).data
    assert np.allclose(out[..., 0], 0) and np.allclose(out[..., 2], 0)
    assert np.abs(out[..., 1]).max() > 0


def test_depthwise_centered_delta_is_identity(rng):
    x = rng.normal(size=(2, 5, 5, 4))
    w = np.zeros((4, 3, 3))
    w[:, 1, 1] = 1.0
    out = E.depthwise_conv2d(Tensor(x), Tensor(w)).data
    assert np.allclose(out, x, atol=1e-12)


def test_depthwise_matches_direct_reference(rng):
    f32 = np.float32
    x = rng.normal(size=(3, 5, 7, 4)).astype(f32)
    w = rng.normal(size=(4, 3, 3)).astype(f32)
    g = rng.normal(size=x.shape).astype(f32)
    xp = np.pad(x.astype(np.float64), ((0, 0), (1, 1), (1, 1), (0, 0)))
    ref = np.zeros(x.shape)
    ref_gw = np.zeros(w.shape)
    ref_gxp = np.zeros(xp.shape)
    for ki in range(3):
        for kj in range(3):
            patch = xp[:, ki : ki + 5, kj : kj + 7]
            ref += w[:, ki, kj] * patch
            ref_gw[:, ki, kj] = (g * patch).sum(axis=(0, 1, 2))
            ref_gxp[:, ki : ki + 5, kj : kj + 7] += w[:, ki, kj] * g
    tx, tw = Tensor(x, requires_grad=True), Parameter(w)
    out = E.depthwise_conv2d(tx, tw)
    out.backward(g)
    assert out.dtype == tx.grad.dtype == tw.grad.dtype == f32
    tol = dict(rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(out.data, ref, **tol)
    np.testing.assert_allclose(tw.grad, ref_gw, **tol)
    np.testing.assert_allclose(tx.grad, ref_gxp[:, 1:-1, 1:-1], **tol)


def test_avg_pool(rng):
    x = rng.normal(size=(3, 4, 4, 2))
    assert np.allclose(E.avg_pool2d(Tensor(x)).data, x.mean(axis=(1, 2)))


def test_center_pixel(rng):
    x = rng.normal(size=(2, 5, 5, 3))
    assert np.array_equal(E.center_pixel(Tensor(x)).data, x[:, 2, 2, :])
    with pytest.raises(ValueError):
        E.center_pixel(Tensor(rng.normal(size=(1, 1, 4, 4))))


def test_concat_rows(rng):
    a, b = Parameter(rng.normal(size=(2, 3))), Parameter(rng.normal(size=(4, 3)))
    out = E.concat_rows(a, b)
    assert np.array_equal(out.data, np.concatenate([a.data, b.data]))
    g = rng.normal(size=(6, 3))
    out.backward(g)
    assert np.array_equal(a.grad, g[:2]) and np.array_equal(b.grad, g[2:])
    with pytest.raises(ValueError, match="trailing shapes"):
        E.concat_rows(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


def test_broadcast_gradient_reduction():
    a = Parameter(np.ones((3, 4)))
    b = Parameter(np.ones((1, 4)))
    out = E.tsum(E.mul(E.add(a, b), Tensor(np.full((3, 4), 2.0))))
    out.backward()
    assert a.grad.shape == (3, 4) and np.allclose(a.grad, 2.0)
    assert b.grad.shape == (1, 4) and np.allclose(b.grad, 6.0)  # summed over rows


def test_gradient_accumulates_on_reuse():
    x = Parameter(np.array([2.0]))
    y = E.add(E.mul(x, x), x)  # x^2 + x -> dy/dx = 2x + 1 = 5
    y.backward(np.ones(1))
    assert np.allclose(x.grad, 5.0)


def test_backward_requires_scalar(rng):
    x = Parameter(rng.normal(size=(3,)))
    with pytest.raises(ValueError):
        E.mul(x, x).backward()


def test_shape_mismatch_raises(rng):
    with pytest.raises(ValueError):
        E.matmul(Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(2, 3))))
    with pytest.raises(ValueError):
        E.conv2d(Tensor(rng.normal(size=(1, 5, 5, 3))), Tensor(rng.normal(size=(4, 2, 3, 3))))


def test_forward_determinism(rng):
    """Same graph, same inputs: bitwise identical outputs."""
    x = rng.normal(size=(4, 7, 7, 3)).astype(np.float32)
    w = rng.normal(size=(8, 3, 3, 3)).astype(np.float32)

    def run():
        h = E.conv2d(Tensor(x), Tensor(w))
        h = E.gelu(h)
        return E.softmax(E.avg_pool2d(h)).data

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_detach_blocks_gradient():
    x = Parameter(np.array([3.0]))
    y = E.mul(x.detach(), x)
    y.backward(np.ones(1))
    assert np.allclose(x.grad, 3.0)  # only the non-detached factor contributes


def test_no_grad_records_no_tape(rng):
    x = Tensor(rng.normal(size=(2, 5, 5, 3)).astype(np.float32))
    w = Parameter(rng.normal(size=(4, 3, 3, 3)).astype(np.float32))
    taped = E.gelu(E.conv2d(x, w))
    with E.no_grad():
        y = E.gelu(E.conv2d(x, w))
    assert not y.requires_grad and y._vjp is None and y._parents == ()
    assert np.array_equal(y.data, taped.data)
    assert E.conv2d(x, w).requires_grad  # recording resumes on exit


def test_no_grad_is_per_thread():
    """``no_grad`` in one thread stops recording there and nowhere else."""
    p = Parameter(np.ones(2))
    entered, release = threading.Event(), threading.Event()
    seen = {}

    def other():
        with E.no_grad():
            entered.set()
            release.wait(10)
            seen["other"] = E.mul(p, p).requires_grad

    t = threading.Thread(target=other)
    t.start()
    assert entered.wait(10)
    seen["this"] = E.mul(p, p).requires_grad  # while the other thread is inside no_grad
    release.set()
    t.join(10)
    assert not t.is_alive()
    assert seen == {"this": True, "other": False}


def test_no_grad_state_survives_fast_thread_switching():
    """Four threads entering and leaving ``no_grad`` at a 1 us switch interval
    each see only their own recording state."""
    p = Parameter(np.ones(2))
    wrong = []

    def toggle(k):
        for i in range(300):
            if (i + k) % 2:
                with E.no_grad():
                    if E.mul(p, p).requires_grad:
                        wrong.append((k, i))
            elif not E.mul(p, p).requires_grad:
                wrong.append((k, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=toggle, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_no_grad_restores_recording_after_error():
    with pytest.raises(RuntimeError):
        with E.no_grad():
            raise RuntimeError("boom")
    assert E.mul(Parameter(np.ones(2)), Parameter(np.ones(2))).requires_grad
