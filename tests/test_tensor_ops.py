"""Forward semantics and tape behavior of the engine primitives."""

import contextlib
import sys
import threading
import weakref

import numpy as np
import pytest

from crossscene import engine as E
from crossscene.engine import Parameter, Tensor, conv, grad_check, tensor
from crossscene.engine.gradcheck import primitive_checks


def test_gelu_fixed_points():
    x = Tensor(np.array([0.0, 1.0, -1.0]))
    y = E.gelu(x).data
    assert y[0] == 0.0
    g1 = 0.8413447460685429  # 0.5 * (1 + erf(1/sqrt(2)))
    assert abs(y[1] - g1) < 1e-6
    assert abs(y[2] - (-1.0 + g1)) < 1e-6  # x*Phi(x) at -1 = -(1 - Phi(1))


def _erf_grid():
    """Subnormals, both fit ranges, the z*z = 1 and |z| = 6 seams and the tail."""
    seams = np.array([1.0, 6.0])
    near = np.concatenate([seams + k * np.spacing(seams) for k in range(-3, 4)])
    z = np.concatenate([
        [5e-324, 1e-320, 2.2250738585072014e-308],
        np.geomspace(1e-300, 1.0, 600),
        np.linspace(0.0, 7.0, 7001),
        np.linspace(0.99, 1.01, 401), np.linspace(5.99, 6.01, 401), near,
        [26.0, 1e10, np.finfo(np.float64).max],
    ])
    return np.concatenate([z, -z])


def test_erf_within_two_ulp_of_mpmath():
    mp = pytest.importorskip("mpmath")
    z = _erf_grid()
    got = E.tensor._erf(z.copy())
    with mp.workdps(40):
        ref = np.array([float(mp.erf(mp.mpf(v))) for v in z])
    assert (np.abs(got - ref) / np.spacing(np.abs(ref))).max() <= 2.0
    fortran = np.asfortranarray(z.reshape(2, -1))  # not C-contiguous: erf of a copy
    assert np.array_equal(E.tensor._erf(fortran), got.reshape(2, -1))
    special = E.tensor._erf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
    assert list(special[:4]) == [0.0, 0.0, 1.0, -1.0] and np.isnan(special[4])
    assert list(np.signbit(special[:2])) == [False, True]


def test_erf_float32_rounding_matches_scipy():
    """Every 64th float32 bit pattern in (0, 6.5] and its negative (erf is
    1 in float32 beyond): rounded to float32, the float64 erf gives
    scipy.special.erf's bits, and so does erf of the float32 array, which
    computes in float64 and rounds into the array."""
    special = pytest.importorskip("scipy.special")
    top = int(np.array(6.5, np.float32).view(np.uint32))
    bits = np.arange(top, 0, -64, dtype=np.uint32)
    for start in range(0, bits.size, 1 << 22):
        z32 = bits[start:start + (1 << 22)].view(np.float32)
        z32 = np.concatenate([z32, -z32])
        z = z32.astype(np.float64)
        want = special.erf(z).astype(np.float32)
        assert np.array_equal(_bits(E.tensor._erf(z).astype(np.float32)), _bits(want))
        assert np.array_equal(_bits(E.tensor._erf(z32)), _bits(want))


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
    fwd = [conv._conv_im2col(x, taps), conv._conv_per_tap(x, taps)]
    # gw as im2col(x).T @ g, and as x.T @ im2col(g) with tap t taken from g's tap 8 - t
    gw_x = (conv._im2col(x).T @ g.reshape(-1, c_out)).reshape(3, 3, c_in, c_out)
    gw_g = (x.reshape(-1, c_in).T @ conv._im2col(g)).reshape(c_in, 9, c_out)[:, ::-1]
    gw = [gw_x.transpose(3, 2, 0, 1), gw_g.reshape(c_in, 3, 3, c_out).transpose(3, 0, 1, 2)]
    gx = [conv._conv_im2col(g, flipped), conv._conv_per_tap(g, flipped)]
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


# Past conv.COL_BYTES, conv2d builds its im2col columns in pieces by one
# rule: a ninth of the images at a time for an im2col GEMM (the forward with
# c_in <= c_out, gx with c_out <= c_in), one tap at a time for gw (a kernel
# row where a tap's product is small).  These are the preset shapes.
@pytest.mark.parametrize("hw,c_in,c_out", [
    ((15, 15), 48, 32), ((15, 15), 32, 64), ((15, 15), 64, 32),
    ((7, 7), 176, 32), ((7, 7), 64, 32), ((7, 7), 32, 64),
    ((5, 5), 16, 16), ((5, 5), 32, 16),
])
def test_conv2d_backward_in_pieces_matches_whole(rng, monkeypatch, hw, c_in, c_out):
    """The output, gx, gw and gb are bit for bit the one-piece results, with
    the columns a third of their size and with a budget of one byte, and
    each im2col GEMM takes one block of n images or blocks of ceil(n/9)."""
    n = 100
    x = rng.normal(size=(n, *hw, c_in)).astype(np.float32)
    w = rng.normal(size=(c_out, c_in, 3, 3)).astype(np.float32)
    bias = rng.normal(size=c_out).astype(np.float32)
    g = rng.normal(size=(n, *hw, c_out)).astype(np.float32)
    cols = conv._col_bytes(g, min(c_in, c_out))
    im2col, tap_cols, images, taps = conv._im2col, conv._tap_cols, [], []

    def spy_im2col(xd):
        images.append(xd.shape[0])
        return im2col(xd)

    def spy_tap_cols(xd, c_other):
        for part in tap_cols(xd, c_other):
            taps.append(part.shape[1] // xd.shape[3])
            yield part

    monkeypatch.setattr(conv, "_im2col", spy_im2col)
    monkeypatch.setattr(conv, "_tap_cols", spy_tap_cols)

    def grads(budget):
        monkeypatch.setattr(conv, "COL_BYTES", budget)
        tx, tw, tb = Tensor(x, requires_grad=True), Parameter(w), Parameter(bias)
        images.clear()
        out = E.conv2d(tx, tw, tb)
        forward_images = images.copy()
        images.clear()  # then count the backward's column matrices only
        out.backward(g)
        return (out.data, tx.grad, tw.grad, tb.grad), forward_images

    whole, forward_images = grads(cols)
    assert set(images) == {n} and not taps
    assert forward_images == ([n] if c_in <= c_out else [])
    step = -(-n // 9)
    for budget in (cols // 3, 1):
        taps.clear()
        pieces, forward_images = grads(budget)
        assert taps == ([1] * 9 if x.size * c_out > conv._SMALL_GEMM else [3] * 3), budget
        if c_in <= c_out:  # the forward on the im2col side
            assert forward_images == [min(step, n - i) for i in range(0, n, step)], budget
        else:
            assert not forward_images, budget
        if c_out <= c_in:  # gx on the im2col side
            assert max(images) == step and sum(images) == n, budget
        else:
            assert not images, budget
        for a, b in zip(whole, pieces):
            assert a.dtype == b.dtype and np.array_equal(a, b), budget


def test_conv2d_gradcheck_with_the_columns_in_pieces(monkeypatch):
    """The f64 finite-difference cases of both conv2d sides pass with every
    column matrix of the backward built one tap (or kernel row) or one image
    at a time."""
    monkeypatch.setattr(conv, "COL_BYTES", 1)
    for seed in range(5):
        for name, params, build in primitive_checks(seed):
            if name.startswith("conv2d"):
                rep = grad_check(build, params, name=name)
                assert rep.passed(1e-4), f"{name} @ seed {seed}: {rep.max_rel_err:.3e}"


# Peak of the arrays one conv2d backward at 100 x 15 x 15, 64 -> 32 allocates
# (gx, gw, gb and the temporaries): 9.03 MiB with gw's columns built one tap
# at a time and gx's a ninth of the images at a time, 15.2 MiB with a kernel
# row or a third of the images per piece, 30.4 MiB with the whole (22500,
# 288) column matrix (25.9 MB) built at once.  The bound is the first + ~10%.
CONV_VJP_PEAK_BOUND_MIB = 9.9


def test_conv2d_backward_peak_memory_guard(rng, traced_peak):
    x = Tensor(rng.normal(size=(100, 15, 15, 64)).astype(np.float32), requires_grad=True)
    w = Parameter(rng.normal(size=(32, 64, 3, 3)).astype(np.float32))
    b = Parameter(np.zeros(32, np.float32))
    out = E.conv2d(x, w, b)
    g = rng.normal(size=out.shape).astype(np.float32)
    vjp = out._vjp
    grads, peak = traced_peak(lambda: vjp(g))
    assert [a.shape for a in grads] == [x.shape, w.shape, b.shape]
    assert peak < CONV_VJP_PEAK_BOUND_MIB


# Peak of the arrays one conv2d forward at 100 x 15 x 15, 32 -> 64 allocates
# (houston's conv2: the output and the temporaries): 8.96 MiB with the
# (22500, 288) column matrix (25.9 MB) built a ninth of the images at a time,
# 15.2 MiB with a third.  The bound is the first + ~9%.
CONV_FWD_PEAK_BOUND_MIB = 9.8


def test_conv2d_forward_peak_memory_guard(rng, traced_peak):
    x = Tensor(rng.normal(size=(100, 15, 15, 32)).astype(np.float32), requires_grad=True)
    w = Parameter(rng.normal(size=(64, 32, 3, 3)).astype(np.float32))
    b = Parameter(np.zeros(64, np.float32))
    assert conv._col_bytes(x.data, 32) > conv.COL_BYTES
    out, peak = traced_peak(lambda: E.conv2d(x, w, b))
    assert out.shape == (100, 15, 15, 64)
    assert peak < CONV_FWD_PEAK_BOUND_MIB


# Peak of the arrays one batch_norm2d backward with the LeakyReLU epilogue at
# 100 x 15 x 15, c = 64 allocates: 5.78 MiB with gx (5.49 MiB) built in one
# array and the xhat term added in row blocks, 11.0 MiB with the factor, the
# product and xhat's term each a full-size array.  The bound is the first + ~10%.
BN_VJP_PEAK_BOUND_MIB = 6.4


def test_batch_norm2d_backward_peak_memory_guard(rng, traced_peak):
    c = 64
    x = Tensor(rng.normal(size=(100, 15, 15, c)).astype(np.float32), requires_grad=True)
    gamma, beta = Parameter(np.ones(c, np.float32)), Parameter(np.zeros(c, np.float32))
    out = E.batch_norm2d(x, gamma, beta, np.zeros(c), np.ones(c), True, slope=0.01)
    g = rng.normal(size=out.shape).astype(np.float32)
    vjp = out._vjp
    grads, peak = traced_peak(lambda: vjp(g))
    assert [a.shape for a in grads] == [x.shape, (c,), (c,)]
    assert peak < BN_VJP_PEAK_BOUND_MIB


@pytest.mark.parametrize("d", [16, 32, 64])
def test_affine_output_independent_of_batch(rng, d):
    """A row's output bits do not depend on the rows it is run with, from the
    9 rows of one 3x3 patch up (the shared key and value maps of scene
    inference rest on it).  One row alone is a GEMV in numpy, which at
    d = 64 gives other bits."""
    x = rng.normal(size=(4900, d)).astype(np.float32)
    w = Tensor(rng.normal(size=(d, d)).astype(np.float32))
    b = Tensor(rng.normal(size=d).astype(np.float32))
    full = E.affine(Tensor(x), w, b).data
    for size in (9, 25, 49, 225, 1118):
        parts = [E.affine(Tensor(x[i : i + size]), w, b).data for i in range(0, 4900, size)]
        assert np.array_equal(np.concatenate(parts), full), size


@pytest.mark.parametrize("ps", [1, 3, 5, 7, 15])
@pytest.mark.parametrize("hw", [(4, 5), (9, 9), (12, 3)])
def test_conv2d_windows_match_batched_conv2d(rng, ps, hw):
    """Every window cut from the border-class maps of a reflect-padded scene
    is bit for bit conv2d + bias of the patch cut out there, corners
    included, on the per-tap side (40 -> 32) and the im2col side; at ps 7
    and 15 the pad is wider than the scene.  Bits are compared as uint32,
    so -0.0 and 0.0 differ."""
    h, w = hw
    half = ps // 2
    pixels = np.argwhere(np.ones((h, w), dtype=bool))
    for c_in, c_out in [(40, 32), (8, 16), (16, 16), (16, 32), (32, 64)]:
        padded = np.pad(rng.normal(size=(h, w, c_in)).astype(np.float32),
                        ((half, half), (half, half), (0, 0)), mode="reflect")
        kernel = Tensor(rng.normal(size=(c_out, c_in, 3, 3)).astype(np.float32))
        bias = Tensor(rng.normal(size=c_out).astype(np.float32))
        out, index = E.conv2d_windows(padded, kernel.data, bias.data, ps)
        patches = np.stack([padded[r : r + ps, c : c + ps] for r, c in pixels])
        rows = (pixels[:, 0] * padded.shape[1] + pixels[:, 1])[:, None, None] + index
        windows = np.take(out, rows, axis=0)
        batched = E.conv2d(Tensor(patches), kernel, bias).data
        assert np.array_equal(windows.view(np.uint32), batched.view(np.uint32)), (c_in, c_out)


def test_conv2d_windows_rejects_a_map_smaller_than_a_window():
    with pytest.raises(ValueError, match="at least 5x5"):
        E.conv2d_windows(np.zeros((4, 9, 3), np.float32), np.zeros((2, 3, 3, 3), np.float32),
                         np.zeros(2, np.float32), 5)


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


def _depthwise_vjp_scatter(x, w, g):
    """(gx, gw) of ``depthwise_conv2d(x, w)`` by the scatter: the gradient
    zero-padded to rows, then nine shifted in-place adds onto zeros."""
    n, h, wd_, c = x.shape
    wp = wd_ + 2
    rows = n * (h + 2) * wp
    length = rows - 2 * wp
    taps = np.tile(w.transpose(1, 2, 0).reshape(9, c), wp)
    xrows, offs = conv.padded_rows(x, extra=2)
    grows = np.zeros((rows, c), dtype=g.dtype)
    grows.reshape(n, h + 2, wp, c)[:, :h, :wd_] = g
    grows = grows[:length]
    gw = np.stack([np.einsum("ij,ij->j", grows, xrows[o : o + length]) for o in offs])
    gxrows = np.zeros_like(xrows)
    gy = grows.reshape(-1, wp * c)
    for k, o in enumerate(offs):
        gxrows[o : o + length].reshape(-1, wp * c)[...] += gy * taps[k]
    return gxrows[:rows].reshape(n, h + 2, wp, c)[:, 1:-1, 1:-1], gw.T.reshape(c, 3, 3)


def _depthwise_case(rng, shape, kind):
    """x, w and an output gradient g of one of three kinds: normal draws,
    half of them +-0, or all -0.  Channel 0's kernel is all positive, so
    all -0 gives nine -0 terms at its pixels off the border."""
    x = rng.normal(size=shape).astype(np.float32)
    w = rng.normal(size=(shape[3], 3, 3)).astype(np.float32)
    w[0] = np.abs(w[0])
    g = rng.normal(size=shape).astype(np.float32)
    if kind == "signed-zeros":
        zeros = np.where(rng.random(shape) < 0.5, np.float32(0.0), np.float32(-0.0))
        g = np.where(rng.random(shape) < 0.5, zeros, g)
    elif kind == "negative-zeros":
        g = np.full(shape, -0.0, dtype=np.float32)
    return x, w, g


@pytest.mark.parametrize("kind", ["normal", "signed-zeros", "negative-zeros"])
@pytest.mark.parametrize("shape", [(100, 15, 15, 32), (7, 4, 5, 3)], ids=["houston", "odd"])
def test_depthwise_vjp_bits_equal_the_scatter(rng, shape, kind):
    """gx, the blocked forward on the rotated gradient, and gw equal as
    uint32 those of the scatter onto zeros, signed zeros included."""
    x, w, g = _depthwise_case(rng, shape, kind)
    gx, gw = E.depthwise_conv2d(Tensor(x, requires_grad=True), Parameter(w))._vjp(g)
    ref_gx, ref_gw = _depthwise_vjp_scatter(x, w, g)
    assert gx.dtype == gw.dtype == np.float32 and gx.flags.c_contiguous
    assert np.array_equal(gx.view(np.uint32), ref_gx.view(np.uint32))
    assert np.array_equal(gw.view(np.uint32), ref_gw.view(np.uint32))


@pytest.mark.parametrize("shape", [(100, 15, 15, 32), (7, 4, 5, 3)], ids=["houston", "odd"])
def test_depthwise_forward_bits_do_not_depend_on_the_block(rng, monkeypatch, shape):
    """The forward and the input gradient run in image blocks of about
    ``_ERF_BLOCK`` padded elements; one image, a few, the default and the
    whole batch per block give the same output and gx, equal as uint32, and
    C-order arrays."""
    x = Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(shape[3], 3, 3)).astype(np.float32))
    g = rng.normal(size=shape).astype(np.float32)
    outs, gxs = [], []
    for block in (1, 3 * (shape[1] + 2) * (shape[2] + 2) * shape[3], tensor._ERF_BLOCK, 1 << 40):
        monkeypatch.setattr(tensor, "_ERF_BLOCK", block)
        out = E.depthwise_conv2d(x, w)
        outs.append(out.data)
        gxs.append(out._vjp(g)[0])
    for arrays in (outs, gxs):
        assert all(a.flags.c_contiguous for a in arrays)
        for a in arrays[1:]:
            assert np.array_equal(a.view(np.uint32), arrays[0].view(np.uint32))


# Peak of the arrays one depthwise_conv2d forward at 100 x 15 x 15, c = 32
# allocates (the houston stream's attention block): 3.75 MiB in image blocks
# of about _ERF_BLOCK padded elements (the 2.75 MiB output and a block's
# padded input, sum and product), 13.35 MiB with the whole batch's.  The
# bound is the first plus ~9%.
DEPTHWISE_FWD_PEAK_BOUND_MIB = 4.1


def test_depthwise_conv2d_forward_peak_memory_guard(rng, traced_peak):
    x = Tensor(rng.normal(size=(100, 15, 15, 32)).astype(np.float32), requires_grad=True)
    w = Parameter(rng.normal(size=(32, 3, 3)).astype(np.float32))
    out, peak = traced_peak(lambda: E.depthwise_conv2d(x, w))
    assert out.shape == x.shape
    assert peak < DEPTHWISE_FWD_PEAK_BOUND_MIB


# Peak of the arrays one depthwise_conv2d VJP at the same shape allocates:
# 7.06 MiB with gx from the blocked forward on the rotated gradient (the
# whole padded x and g rows for gw's einsum, freed before gx, then a block's
# temporaries, the forward's output and gx), 16.86 MiB with gx scattered into
# a padded buffer.  The bound is the first plus ~9%.
DEPTHWISE_VJP_PEAK_BOUND_MIB = 7.7


def test_depthwise_conv2d_vjp_peak_memory_guard(rng, traced_peak):
    x = Tensor(rng.normal(size=(100, 15, 15, 32)).astype(np.float32), requires_grad=True)
    w = Parameter(rng.normal(size=(32, 3, 3)).astype(np.float32))
    out = E.depthwise_conv2d(x, w)
    g = rng.normal(size=x.shape).astype(np.float32)
    (gx, _), peak = traced_peak(lambda: out._vjp(g))
    assert gx.shape == x.shape
    assert peak < DEPTHWISE_VJP_PEAK_BOUND_MIB


def test_avg_pool(rng):
    x = rng.normal(size=(3, 4, 4, 2))
    assert np.allclose(E.avg_pool2d(Tensor(x)).data, x.mean(axis=(1, 2)))


@pytest.mark.parametrize("op,shape,ref", [
    (E.avg_pool2d, (4, 5, 5, 3), lambda g: np.repeat(np.repeat(g[:, None, None] / 25, 5, 1), 5, 2)),
    (lambda x: E.tsum(x, axis=(0,)), (4, 5, 3), lambda g: np.repeat(g[None], 4, 0)),
    (lambda x: E.tsum(x, axis=1, keepdims=True), (4, 5, 3), lambda g: np.repeat(g, 5, 1)),
    (E.tsum, (4, 5, 3), lambda g: np.full((4, 5, 3), g)),
], ids=["avg_pool2d", "tsum-axis0", "tsum-keepdims", "tsum-all"])
def test_broadcast_back_gradients_are_c_contiguous(rng, op, shape, ref):
    """A gradient broadcast back over the reduced axes is a C-order array
    holding the broadcast values, not a copy with the broadcast's strides."""
    out = op(Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True))
    g = rng.normal(size=out.shape).astype(np.float32)
    (gx,) = out._vjp(g)  # what the walk hands on, before any leaf accumulates it
    assert gx.flags.c_contiguous and gx.dtype == np.float32
    assert np.array_equal(gx, ref(g).astype(np.float32))


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
    with E.no_grad():
        x_const = E.scale(x, 1.0)
    y = E.mul(x_const, x)
    y.backward(np.ones(1))
    assert np.allclose(x.grad, 3.0)  # only the factor recorded on the tape contributes


def test_no_grad_records_no_tape(rng):
    x = Tensor(rng.normal(size=(2, 5, 5, 3)).astype(np.float32))
    w = Parameter(rng.normal(size=(4, 3, 3, 3)).astype(np.float32))
    taped = E.gelu(E.conv2d(x, w))
    with E.no_grad():
        y = E.gelu(E.conv2d(x, w))
    assert not y.requires_grad and y._vjp is None and y._node is None
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


# -- what the tape keeps -----------------------------------------------------


def _unread_product(rng):
    a, b = Parameter(rng.normal(size=(4, 5))), Parameter(rng.normal(size=(4, 5)))
    prod = E.mul(a, b)
    return prod, E.tsum(prod), (a, b)


def _unread_sum(rng):
    a, b = Parameter(rng.normal(size=(4, 5))), Parameter(rng.normal(size=(4, 5)))
    prod = E.mul(a, b)
    return prod, E.tsum(E.add(prod, a)), (a, b)


def _unread_conv(rng):
    x = Tensor(rng.normal(size=(2, 5, 5, 3)).astype(np.float32))
    w = Parameter(rng.normal(size=(4, 3, 3, 3)).astype(np.float32))
    gamma, beta = Parameter(np.ones(4, np.float32)), Parameter(np.zeros(4, np.float32))
    conv = E.conv2d(x, w)
    bn = E.batch_norm2d(conv, gamma, beta, np.zeros(4), np.ones(4), training=True, slope=0.01)
    return conv, E.tsum(bn), (w, gamma, beta)


@pytest.mark.parametrize("build", [_unread_product, _unread_sum, _unread_conv],
                         ids=["mul-into-tsum", "mul-into-add", "conv2d-into-batch_norm2d"])
def test_tape_frees_an_output_no_vjp_reads(rng, build):
    """An op output that no VJP reads is freed once the caller drops it, while
    the graph above it is still alive, and the walk still reaches below it."""
    out, loss, leaves = build(rng)
    ref = weakref.ref(out.data)
    del out
    assert ref() is None
    loss.backward()
    assert all(p.grad is not None and np.all(np.isfinite(p.grad)) for p in leaves)


def _vjp_arrays(t):
    """The arrays the VJP closure of op output ``t`` keeps."""
    cells = [c.cell_contents for c in t._vjp.__closure__ or ()]
    return [v for v in cells if isinstance(v, np.ndarray)]


def test_gelu_tape_keeps_one_array(rng):
    """The backward's factor Phi(x) + x*phi(x), not x and Phi(x)."""
    x = Parameter(rng.normal(size=(6, 5)))
    out = E.gelu(x)
    kept = _vjp_arrays(out)
    assert len(kept) == 1 and kept[0].shape == x.shape
    with E.no_grad():
        assert not E.gelu(x).requires_grad  # nothing is computed for a tape not recorded


@pytest.mark.parametrize("training", [True, False])
def test_batch_norm2d_tape_keeps_no_sign_mask(rng, training):
    """The LeakyReLU epilogue reads its sign from its own output, which the
    next conv keeps anyway, not from a stored bool mask."""
    x = Tensor(rng.normal(size=(2, 5, 5, 4)).astype(np.float32), requires_grad=True)
    gamma, beta = Parameter(np.ones(4, np.float32)), Parameter(np.zeros(4, np.float32))
    out = E.batch_norm2d(x, gamma, beta, np.zeros(4), np.ones(4), training=training, slope=0.01)
    kept = _vjp_arrays(out)
    assert kept and not any(a.dtype == bool for a in kept)
    assert any(np.shares_memory(a, out.data) for a in kept)


def test_second_backward_over_a_consumed_graph_is_a_no_op(rng):
    x = Parameter(rng.normal(size=(3, 4)))
    h = E.gelu(E.mul(x, x))
    loss = E.tsum(h)
    loss.backward()
    first = x.grad.copy()
    loss.backward()
    E.tsum(h).backward()  # a new root over the consumed graph
    assert not loss.requires_grad and not h.requires_grad
    assert np.array_equal(x.grad, first)


def test_walk_calls_the_vjp_set_after_the_op(rng):
    """As ``perfbench/tracer.py`` does: wrap ``out._vjp`` after the op."""
    x = Parameter(rng.normal(size=(3, 4)))
    out = E.scale(x, 2.0)
    calls = []
    inner = out._vjp

    def wrapped(g):
        calls.append(g.shape)
        return inner(g)

    out._vjp = wrapped
    assert out._vjp is wrapped
    E.tsum(out).backward()
    assert calls == [(3, 4)]
    assert np.array_equal(x.grad, np.full((3, 4), 2.0))


# -- recompute -----------------------------------------------------------------


def _two_gelus(x, w):
    return E.mul(E.gelu(E.matmul(x, w)), E.gelu(x))


def _saved_phi_state():
    return tensor._tape.saved_phi, tensor._tape.replay_phi


def test_recompute_under_no_grad_is_fn_and_saves_nothing(rng):
    x = Parameter(rng.normal(size=(6, 4)).astype(np.float32))
    w = Parameter(rng.normal(size=(4, 4)).astype(np.float32))
    seen = []

    def fn(t):
        seen.append(_saved_phi_state())
        return _two_gelus(t, w)

    with E.no_grad():
        y = E.recompute(fn, x, [w])
        ref = _two_gelus(x, w)
    assert y._node is None and seen == [(None, None)]
    assert np.array_equal(y.data.view(np.uint32), ref.data.view(np.uint32))
    assert _saved_phi_state() == (None, None)


@pytest.mark.parametrize("fail_on", [0, 1, 2], ids=["no-error", "forward", "rerun"])
def test_recompute_leaves_no_saved_phi_state(rng, fail_on):
    """After the forward and after the backward, also when fn raises in
    either run of it."""
    x = Parameter(rng.normal(size=(6, 4)).astype(np.float32))
    w = Parameter(rng.normal(size=(4, 4)).astype(np.float32))
    calls = []

    def fn(t):
        out = _two_gelus(t, w)
        calls.append(1)
        if len(calls) == fail_on:
            raise RuntimeError("boom")
        return out

    with pytest.raises(RuntimeError, match="boom") if fail_on else contextlib.nullcontext():
        y = E.recompute(fn, x, [w])
        assert _saved_phi_state() == (None, None)
        E.tsum(y).backward()
    assert _saved_phi_state() == (None, None)
    assert len(calls) == (fail_on or 2)
    assert E.mul(w, w).requires_grad  # recording is back on


def test_recompute_runs_erf_once(rng, monkeypatch):
    """The rerun takes each GELU's saved Phi(x) back instead of calling erf."""
    x = Parameter(rng.normal(size=(6, 4)).astype(np.float32))
    w = Parameter(rng.normal(size=(4, 4)).astype(np.float32))
    calls = []
    erf = tensor._erf
    monkeypatch.setattr(tensor, "_erf", lambda z: calls.append(z.shape) or erf(z))
    y = E.recompute(lambda t: _two_gelus(t, w), x, [w])
    E.tsum(y).backward()
    assert calls == [(6, 4), (6, 4)]
