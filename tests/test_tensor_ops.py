"""Forward semantics and tape behavior of the engine primitives."""

import numpy as np
import pytest

from crossscene import engine as E
from crossscene.engine import Parameter, Tensor


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
    E.batch_norm2d(x, gamma, beta, rm, rv, training=True, momentum=0.1)
    mu = x.data.mean(axis=(0, 1, 2))
    assert np.allclose(rm, 0.1 * mu, atol=1e-6)
    # eval mode must not touch the buffers
    before = rm.copy()
    E.batch_norm2d(x, gamma, beta, rm, rv, training=False)
    assert np.array_equal(rm, before)


def test_conv2d_matches_direct_convolution(rng):
    x = rng.normal(size=(2, 3, 6, 5))  # reference computed in (n, c, h, w)
    w = rng.normal(size=(4, 3, 3, 3))
    out = E.conv2d(Tensor(x.transpose(0, 2, 3, 1)), Tensor(w)).data.transpose(0, 3, 1, 2)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    ref = np.zeros((2, 4, 6, 5))
    for n in range(2):
        for o in range(4):
            for i in range(6):
                for j in range(5):
                    ref[n, o, i, j] = (xp[n, :, i : i + 3, j : j + 3] * w[o]).sum()
    assert np.allclose(out, ref, atol=1e-10)


@pytest.mark.parametrize("c_in,c_out", [(3, 6), (6, 3)])
def test_conv2d_vjp_skips_input_gradient(rng, c_in, c_out):
    """A non-grad input gets no gradient; gw and gb are still exact."""
    x = rng.normal(size=(2, 4, 5, c_in))
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
            ref[:, :, ki, kj] = np.einsum("nhwo,nhwi->oi", g, xp[:, ki : ki + 4, kj : kj + 5])
    assert np.allclose(gw, ref, atol=1e-10)
    assert np.allclose(gb, g.sum(axis=(0, 1, 2)), atol=1e-12)


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


def test_avg_pool(rng):
    x = rng.normal(size=(3, 4, 4, 2))
    assert np.allclose(E.avg_pool2d(Tensor(x)).data, x.mean(axis=(1, 2)))


def test_center_pixel(rng):
    x = rng.normal(size=(2, 5, 5, 3))
    assert np.array_equal(E.center_pixel(Tensor(x)).data, x[:, 2, 2, :])
    with pytest.raises(ValueError):
        E.center_pixel(Tensor(rng.normal(size=(1, 1, 4, 4))))


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


def test_no_grad_restores_recording_after_error():
    with pytest.raises(RuntimeError):
        with E.no_grad():
            raise RuntimeError("boom")
    assert E.mul(Parameter(np.ones(2)), Parameter(np.ones(2))).requires_grad


def test_non_finite_guard():
    with pytest.raises(FloatingPointError):
        E.check_finite(Tensor(np.array([1.0, np.inf])), "loss")
