"""Reverse-mode autodiff over dense numpy arrays.

This is the compute substrate for the whole classifier: a small tape of
primitives (convolution, batch norm, activations, reductions) rather than a
general autodiff system.  Every op records a vector-Jacobian product closure;
``Tensor.backward`` walks the tape in reverse topological order and
accumulates gradients on the leaves.  Inside ``no_grad`` nothing is recorded.

Spatial maps are channels-last, (n, h, w, c), end to end: the layout patches
are cut in, so no op or caller transposes activations.  Convolution kernels
keep their (c_out, c_in, 3, 3) and (c, 3, 3) parameter layouts, which is also
their on-disk checkpoint layout.

Training runs in float32; gradient verification rebuilds graphs in float64
(see :mod:`crossscene.engine.gradcheck`).
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
from scipy.special import erf as _erf

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Canonical primitive set; every name here has a registered gradient and a
# finite-difference check case in engine.gradcheck.
OPSET = (
    "add",
    "sub",
    "mul",
    "scale",
    "matmul",
    "affine",
    "conv2d",
    "depthwise_conv2d",
    "batch_norm2d",
    "leaky_relu",
    "gelu",
    "softmax",
    "log_softmax",
    "log",
    "exp",
    "sum",
    "mean",
    "avg_pool2d",
    "reshape",
    "transpose",
    "gather_rows",
    "center_pixel",
)


def _as_array(data, dtype=None):
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    """A dense float array plus an optional edge into the gradient tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = _as_array(data, dtype)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._vjp = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self):
        return self.data.item()

    def numpy(self):
        return self.data

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, grad={self.requires_grad})"

    # -- tape ----------------------------------------------------------

    def detach(self):
        """A view of the same data with no tape edge."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self):
        self.grad = np.zeros_like(self.data)

    def backward(self, grad=None):
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``.grad``.

        ``self`` must be scalar unless an explicit seed gradient is given.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a seed gradient needs a scalar")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError("seed gradient shape mismatch")
        if not self.requires_grad:
            return

        order = _topo_order(self)
        grads = {id(self): grad}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._vjp is None:
                # leaf: accumulate
                if node.grad is None:
                    node.grad = g.copy()
                else:
                    node.grad += g
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_lift(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, s):
        if isinstance(s, Tensor):
            raise TypeError("tensor/tensor division is not a registered primitive")
        return scale(self, 1.0 / float(s))

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes or None)

    @property
    def T(self):
        return transpose(self, None)


class Parameter(Tensor):
    """A leaf tensor the optimizer updates, with its momentum state."""

    __slots__ = ("momentum", "requires_update", "name")

    def __init__(self, data, name="", dtype=None, requires_update=True):
        super().__init__(data, requires_grad=True, dtype=dtype)
        self.momentum = np.zeros_like(self.data)
        self.requires_update = requires_update
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape}, dtype={self.dtype.name})"


def _topo_order(root):
    """Post-order over the requires_grad subgraph (parents before users)."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    return order


def _lift(x, dtype):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


# False inside ``no_grad``: ops then leave no tape edge behind.
_recording = True


@contextlib.contextmanager
def no_grad():
    """Run ops without recording the tape: no output requires grad.

    Inference runs under it, so no VJP closure keeps an op's inputs alive
    and each intermediate is freed as soon as the next op has read it.
    """
    global _recording
    prev, _recording = _recording, False
    try:
        yield
    finally:
        _recording = prev


def _make(data, parents, vjp):
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = _recording and any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._vjp = vjp
    else:
        out._parents = ()
        out._vjp = None
    return out


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise arithmetic (broadcasting) -------------------------------


def add(a, b):
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = _lift(b, a.dtype)
    data = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(data, (a, b), vjp)


def sub(a, b):
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = _lift(b, a.dtype)
    data = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _make(data, (a, b), vjp)


def mul(a, b):
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = _lift(b, a.dtype)
    ad, bd = a.data, b.data
    data = ad * bd

    def vjp(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _make(data, (a, b), vjp)


def scale(a, s):
    """Multiply by a python scalar (kept out of the tape)."""
    s = float(s)
    data = a.data * s

    def vjp(g):
        return (g * s,)

    return _make(data, (a,), vjp)


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    ad, bd = a.data, b.data
    data = ad @ bd

    def vjp(g):
        return g @ bd.T, ad.T @ g

    return _make(data, (a, b), vjp)


def affine(x, w, b):
    """y = x @ w + b for x (n, d), w (d, k), b (k,)."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ValueError("affine expects a 2-D input and weight")
    xd, wd = x.data, w.data
    data = xd @ wd + b.data

    def vjp(g):
        return g @ wd.T, xd.T @ g, g.sum(axis=0)

    return _make(data, (x, w, b), vjp)


# -- reductions and shape ops ---------------------------------------------


def tsum(x, axis=None, keepdims=False):
    data = x.data.sum(axis=axis, keepdims=keepdims)
    shape = x.data.shape

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, shape).astype(x.data.dtype, copy=True),)
        ax = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, shape).astype(x.data.dtype, copy=True),)

    return _make(data, (x,), vjp)


def tmean(x, axis=None, keepdims=False):
    if axis is None:
        n = x.data.size
    else:
        ax = axis if isinstance(axis, tuple) else (axis,)
        n = int(np.prod([x.data.shape[i] for i in ax]))
    return scale(tsum(x, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(x, shape):
    data = x.data.reshape(shape)
    orig = x.data.shape

    def vjp(g):
        return (g.reshape(orig),)

    return _make(data, (x,), vjp)


def transpose(x, axes=None):
    data = x.data.transpose(axes)
    if axes is None:
        inv = None
    else:
        inv = tuple(np.argsort(axes))

    def vjp(g):
        return (g.transpose(inv),)

    return _make(data, (x,), vjp)


def gather_rows(x, idx):
    """y[i] = x[idx[i]] along the first axis; backward scatter-adds."""
    idx = np.asarray(idx, dtype=np.int64)
    data = x.data[idx]
    shape = x.data.shape

    def vjp(g):
        gx = np.zeros(shape, dtype=g.dtype)
        np.add.at(gx, idx, g)
        return (gx,)

    return _make(data, (x,), vjp)


def center_pixel(x):
    """Center spectrum of an NHWC map: (n, h, w, c) -> (n, c). h, w odd."""
    n, h, w, c = x.data.shape
    if h % 2 == 0 or w % 2 == 0:
        raise ValueError("center_pixel needs odd spatial dimensions")
    ci, cj = h // 2, w // 2
    data = x.data[:, ci, cj].copy()

    def vjp(g):
        gx = np.zeros((n, h, w, c), dtype=g.dtype)
        gx[:, ci, cj] = g
        return (gx,)

    return _make(data, (x,), vjp)


# -- pointwise nonlinearities ----------------------------------------------


def exp(x):
    data = np.exp(x.data)

    def vjp(g):
        return (g * data,)

    return _make(data, (x,), vjp)


def log(x):
    data = np.log(x.data)
    xd = x.data

    def vjp(g):
        return (g / xd,)

    return _make(data, (x,), vjp)


def leaky_relu(x, negative_slope=0.01):
    """max(x, s*x) for a slope s in [0, 1], where it equals x if x > 0 else s*x.

    Both passes are branch-free: a select on the sign of each element runs
    several times slower on the random sign pattern of an activation map.
    Outside [0, 1] the max form is wrong, so such slopes are refused.
    """
    if not 0.0 <= negative_slope <= 1.0:
        raise ValueError(f"leaky_relu needs a slope in [0, 1], got {negative_slope}")
    xd = x.data
    data = np.maximum(xd, negative_slope * xd)

    def vjp(g):
        return (g * np.take(np.array([negative_slope, 1.0], dtype=g.dtype), xd > 0),)

    return _make(data, (x,), vjp)


def gelu(x):
    """Exact erf form: x * Phi(x)."""
    xd = x.data
    cdf = 0.5 * (1.0 + _erf(xd * _INV_SQRT2))
    data = xd * cdf

    def vjp(g):
        pdf = np.exp(-0.5 * xd * xd) * _INV_SQRT2PI
        return (g * (cdf + xd * pdf),)

    return _make(data, (x,), vjp)


def softmax(x, axis=-1):
    xd = x.data
    shifted = xd - xd.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        return (data * (g - dot),)

    return _make(data, (x,), vjp)


def log_softmax(x, axis=-1):
    xd = x.data
    shifted = xd - xd.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse
    sm = np.exp(data)

    def vjp(g):
        return (g - sm * g.sum(axis=axis, keepdims=True),)

    return _make(data, (x,), vjp)


# -- spatial ops (NHWC, 3x3, stride 1, zero pad 1) --------------------------
#
# Every spatial map is (n, h, w, c): channels last, the layout patches are cut
# in.  Kernels keep their (c_out, c_in, 3, 3) and (c, 3, 3) parameter layouts.


def _padded_rows(xd, extra=0):
    """(rows, offs): the map zero-padded by one pixel and flattened to
    (n*(h+2)*(w+2) + extra, c) rows, the last ``extra`` rows zero, and the
    row offset of each 3x3 tap (ki, kj) in raster order."""
    n, h, w, c = xd.shape
    count = n * (h + 2) * (w + 2)
    rows = np.zeros((count + extra, c), dtype=xd.dtype)
    rows[:count].reshape(n, h + 2, w + 2, c)[:, 1:-1, 1:-1] = xd
    return rows, [ki * (w + 2) + kj for ki in range(3) for kj in range(3)]


def conv2d(x, w, b=None):
    """3x3 convolution, stride 1, zero padding 1 (spatial size preserved).

    x: (n, h, w, c_in), w: (c_out, c_in, 3, 3), b: (c_out,) or None.
    Output pixel (i, j) sits at row i*(w+2) + j of the flattened zero-padded
    map, and tap (ki, kj) reads the row ki*(w+2) + kj further on, so the conv
    is nine GEMMs over shifted row ranges of that map with no im2col copy.
    Rows that wrap across the padded border land outside the (h, w) crop.
    The weight gradient is nine GEMMs against the same shifted inputs; the
    input gradient is nine more, scattered back along the shifts, and is
    skipped when the input needs no gradient.
    """
    if x.data.ndim != 4 or w.data.ndim != 4 or w.data.shape[2:] != (3, 3):
        raise ValueError("conv2d expects NHWC input and a (c_out, c_in, 3, 3) kernel")
    if x.data.shape[3] != w.data.shape[1]:
        raise ValueError(
            f"conv2d channel mismatch: input has {x.data.shape[3]}, kernel expects {w.data.shape[1]}"
        )
    n, h, wd_, c = x.data.shape
    c_out = w.data.shape[0]
    xrows, offs = _padded_rows(x.data)
    length = xrows.shape[0] - offs[-1]
    taps = w.data.transpose(2, 3, 1, 0).reshape(9, c, c_out)  # taps[k]: (c_in, c_out)

    yrows = np.zeros((xrows.shape[0], c_out), dtype=x.data.dtype)
    np.matmul(xrows[:length], taps[0], out=yrows[:length])
    part = np.empty((length, c_out), dtype=x.data.dtype)
    for k in range(1, 9):
        np.matmul(xrows[offs[k] : offs[k] + length], taps[k], out=part)
        yrows[:length] += part
    out = yrows.reshape(n, h + 2, wd_ + 2, c_out)[:, :h, :wd_].copy()
    if b is not None:
        out += b.data

    def vjp(g):
        grows = np.zeros((xrows.shape[0], c_out), dtype=g.dtype)
        grows.reshape(n, h + 2, wd_ + 2, c_out)[:, :h, :wd_] = g
        grows = grows[:length]
        # these long-K products run fastest with the wider channel axis as rows
        if c >= c_out:
            gtaps = np.stack([xrows[o : o + length].T @ grows for o in offs])
        else:
            gtaps = np.stack([grows.T @ xrows[o : o + length] for o in offs]).transpose(0, 2, 1)
        gw = gtaps.reshape(3, 3, c, c_out).transpose(3, 2, 0, 1).copy()
        gx = None
        if x.requires_grad:
            gxrows = np.zeros_like(xrows, dtype=g.dtype)
            gpart = np.empty((length, c), dtype=g.dtype)
            for k, o in enumerate(offs):
                np.matmul(grows, taps[k].T, out=gpart)
                gxrows[o : o + length] += gpart
            gx = gxrows.reshape(n, h + 2, wd_ + 2, c)[:, 1:-1, 1:-1].copy()
        if b is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 1, 2))

    parents = (x, w) if b is None else (x, w, b)
    return _make(out, parents, vjp)


def depthwise_conv2d(x, w):
    """Per-channel 3x3 convolution, stride 1, zero pad 1, no bias.

    x: (n, h, w, c), w: (c, 3, 3) — one kernel per channel, no cross-channel mixing.
    Uses conv2d's flattened, zero-padded row layout, so each tap is one
    elementwise product of a shifted row range, written into a reused buffer.
    The ranges are taken (w+2) pixels to an array row, with each tap tiled to
    match: a (c,)-wide broadcast would run numpy's inner loop c elements at a
    time.  Two zero rows after the map let every range span whole image rows.
    The kernel gradient is a per-channel dot product per tap; the input
    gradient is nine shifted in-place adds.
    """
    if x.data.ndim != 4 or w.data.ndim != 3 or w.data.shape[1:] != (3, 3):
        raise ValueError("depthwise_conv2d expects NHWC input and a (c, 3, 3) kernel")
    if x.data.shape[3] != w.data.shape[0]:
        raise ValueError("depthwise_conv2d channel mismatch")
    n, h, wd_, c = x.data.shape
    wp = wd_ + 2
    rows = n * (h + 2) * wp
    xrows, offs = _padded_rows(x.data, extra=2)
    length = rows - 2 * wp  # covers every output row; offs[-1] + length == rows + 2
    taps = np.tile(w.data.transpose(1, 2, 0).reshape(9, c), wp)  # taps[k]: (wp*c,)

    def shifted(a, o):
        return a[o : o + length].reshape(-1, wp * c)

    yrows = np.empty((rows, c), dtype=x.data.dtype)
    y = shifted(yrows, 0)
    np.multiply(shifted(xrows, 0), taps[0], out=y)
    part = np.empty_like(y)
    for k in range(1, 9):
        np.multiply(shifted(xrows, offs[k]), taps[k], out=part)
        y += part
    out = yrows.reshape(n, h + 2, wp, c)[:, :h, :wd_].copy()

    def vjp(g):
        grows = np.zeros((rows, c), dtype=g.dtype)
        grows.reshape(n, h + 2, wp, c)[:, :h, :wd_] = g
        grows = grows[:length]
        gw = np.stack([np.einsum("ij,ij->j", grows, xrows[o : o + length]) for o in offs])
        gw = gw.T.reshape(c, 3, 3).copy()
        gxrows = np.zeros_like(xrows, dtype=g.dtype)
        gy = grows.reshape(-1, wp * c)
        gpart = np.empty_like(gy)
        for k, o in enumerate(offs):
            np.multiply(gy, taps[k], out=gpart)
            shifted(gxrows, o)[...] += gpart
        return gxrows[:rows].reshape(n, h + 2, wp, c)[:, 1:-1, 1:-1].copy(), gw

    return _make(out, (x, w), vjp)


def batch_norm2d(x, gamma, beta, running_mean, running_var, training,
                 momentum=0.1, eps=1e-5, update_running=True):
    """Per-channel batch normalization on NHWC maps.

    Training mode normalizes with batch statistics (biased variance) and, when
    ``update_running`` is set, folds an unbiased variance estimate into the
    running buffers in place.  Eval mode normalizes with the running buffers.
    Works on the (n*h*w, c) row view: one centred copy becomes ``xhat`` in
    place, and the backward pass allocates only the input gradient.
    """
    xd = x.data
    if xd.ndim != 4:
        raise ValueError("batch_norm2d expects an NHWC input")
    shape = xd.shape
    c = shape[3]
    rows = xd.reshape(-1, c)
    cnt = rows.shape[0]
    if training:
        mu = rows.mean(axis=0)
        xhat = rows - mu
        var = np.einsum("ij,ij->j", xhat, xhat) / cnt
        if update_running:
            unbiased = var * (cnt / (cnt - 1)) if cnt > 1 else var
            running_mean *= 1.0 - momentum
            running_mean += momentum * mu
            running_var *= 1.0 - momentum
            running_var += momentum * unbiased
    else:
        xhat = rows - running_mean.astype(xd.dtype)
        var = running_var.astype(xd.dtype)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out = xhat * gamma.data
    out += beta.data

    def vjp(g):
        g = g.reshape(-1, c)
        gbeta = g.sum(axis=0)
        ggamma = np.einsum("ij,ij->j", g, xhat)
        if training:
            # gamma*inv * (g - sum(g)/cnt - xhat * sum(g*xhat)/cnt)
            gx = xhat * (-ggamma / cnt)
            gx += g
            gx -= gbeta / cnt
            gx *= gamma.data * inv
        else:
            gx = g * (gamma.data * inv)
        return gx.reshape(shape), ggamma, gbeta

    return _make(out.reshape(shape), (x, gamma, beta), vjp)


def avg_pool2d(x):
    """Global average over the spatial dims: (n, h, w, c) -> (n, c)."""
    n, h, w, c = x.data.shape
    data = x.data.mean(axis=(1, 2))

    def vjp(g):
        return (np.broadcast_to(g[:, None, None, :] / (h * w), (n, h, w, c)).astype(g.dtype, copy=True),)

    return _make(data, (x,), vjp)


def check_finite(t, what="tensor"):
    """Raise if ``t`` contains NaN or Inf values."""
    if not np.isfinite(t.data if isinstance(t, Tensor) else t).all():
        raise FloatingPointError(f"non-finite values in {what}")
    return t
