"""Reverse-mode autodiff over dense numpy arrays.

This is the compute substrate for the whole classifier: a small tape of
primitives (convolution, batch norm, activations, reductions) rather than a
general autodiff system.  Every op records a node with its parents' nodes
and a vector-Jacobian product closure; ``Tensor.backward`` walks the nodes in
reverse topological order and accumulates gradients on the leaves.  The tape
holds no op output itself: a VJP closure captures only the arrays and shapes
its formula reads, so an activation that no backward reads is freed as soon
as the forward code drops it.  Inside ``no_grad`` nothing is recorded (in
the calling thread only).

Two independent subgraphs can run at once: ``fork_join`` runs one of them on
a persistent second thread, and ``backward_pair`` walks two subgraphs that
share only leaves on the two threads.  numpy releases the GIL inside its
GEMMs and ufunc loops, so the two streams use two cores.

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
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf as _erf

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Canonical primitive set; every name here has a registered gradient and a
# finite-difference check case in engine.gradcheck.  "sum" and "mean" name the
# functions tsum and tmean; every other name is the function's own.
OPSET = (
    "add",
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
    "exp",
    "sum",
    "mean",
    "avg_pool2d",
    "reshape",
    "transpose",
    "gather_rows",
    "center_pixel",
    "concat_rows",
)


def _as_array(data, dtype=None):
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    """A dense float array plus an optional edge into the gradient tape.

    An op output that the tape records points to its ``_Node``; the node,
    not the tensor, is what the tape keeps.  A leaf that requires grad is
    its own node.
    """

    __slots__ = ("data", "grad", "_leaf_grad", "_node")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = _as_array(data, dtype)
        self.grad = None
        self._leaf_grad = bool(requires_grad)
        self._node = None

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

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, grad={self.requires_grad})"

    # -- tape ----------------------------------------------------------

    @property
    def requires_grad(self):
        """A leaf: as built.  An op output: until a walk has consumed its node."""
        node = self._node
        return self._leaf_grad if node is None else node.requires_grad

    @property
    def _parents(self):
        node = self._node
        return () if node is None else node._parents

    @property
    def _vjp(self):
        """The VJP the walk calls for this output; settable, so that a
        profiler can wrap it after the op."""
        node = self._node
        return None if node is None else node._vjp

    @_vjp.setter
    def _vjp(self, vjp):
        self._node._vjp = vjp

    def detach(self):
        """A view of the same data with no tape edge."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self):
        self.grad = np.zeros_like(self.data)

    def backward(self, grad=None):
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``.grad``.

        ``self`` must be scalar unless an explicit seed gradient is given.
        The walk consumes the tape: each node drops its VJP closure and its
        parents once it has been used, so the graph below ``self`` can be
        walked only once.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a seed gradient needs a scalar")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError("seed gradient shape mismatch")
        if self.requires_grad:
            _accumulate(_leaf_grads(self, grad))


class _Node:
    """The tape entry of one recorded op: its parents' nodes and its VJP.

    It holds no array: what the backward reads, the VJP closure captures, so
    an op output that no VJP reads is freed as soon as the caller drops it.
    A parent that needs no gradient is held as ``None``.  Parents point
    down the graph only, so the tape holds no reference cycle.
    """

    __slots__ = ("_parents", "_vjp", "requires_grad")

    def __init__(self, parents, vjp):
        self._parents = parents
        self._vjp = vjp
        self.requires_grad = True


def _tape_node(t):
    """The node the walk uses for ``t``: an op output's ``_Node``, else ``t``
    itself (a leaf tensor, or a node already)."""
    node = getattr(t, "_node", None)
    return t if node is None else node


def _leaf_grads(root, grad):
    """{id(leaf): [leaf, summed gradient]} over the tape below ``root``.

    Walks in reverse topological order.  Each node is dropped from the walk
    as soon as its VJP has run: its closure and parent links are cleared, so
    the arrays they kept alive are freed while the walk goes on, and it no
    longer requires grad, so a second walk cannot mistake it for a leaf.
    """
    root = _tape_node(root)
    order = _topo_order(root)
    grads = {id(root): grad}
    leaves = {}
    while order:
        node = order.pop()
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            leaves[id(node)] = [node, g]
            continue
        parents, vjp = node._parents, node._vjp
        node._parents, node._vjp = (), None
        node.requires_grad = False
        for parent, pg in zip(parents, vjp(g)):
            if pg is None or parent is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
    return leaves


def _accumulate(leaves):
    for leaf, g in leaves.values():
        if leaf.grad is None:
            leaf.grad = g.copy()
        else:
            leaf.grad += g


def backward_pair(a, grad_a, b, grad_b):
    """``a.backward(grad_a)`` and ``b.backward(grad_b)`` as one walk over both
    would accumulate them, with the two subgraphs walked on two threads.

    The subgraphs may share only leaves, and a shared leaf must get one
    gradient from each: the two are added before the leaf's ``grad +=``, as
    the one walk's running sum does (``G + (x + y)`` can round differently
    from ``(G + x) + y``).  A ``None`` seed skips that subgraph.
    """
    seeded = [(t, np.asarray(g, dtype=t.dtype)) for t, g in ((a, grad_a), (b, grad_b))
              if g is not None and t.requires_grad]
    if len(seeded) < 2:
        for t, g in seeded:
            _accumulate(_leaf_grads(t, g))
        return
    (a, grad_a), (b, grad_b) = seeded
    la, lb = fork_join(lambda: _leaf_grads(a, grad_a), lambda: _leaf_grads(b, grad_b))
    for key, (leaf, g) in lb.items():
        if key in la:
            la[key][1] = la[key][1] + g
        else:
            la[key] = [leaf, g]
    _accumulate(la)


class Parameter(Tensor):
    """A leaf tensor the optimizer updates, with its momentum state."""

    __slots__ = ("momentum", "name")

    def __init__(self, data, name="", dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)
        self.momentum = np.zeros_like(self.data)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape}, dtype={self.dtype.name})"


def _topo_order(root):
    """Post-order over the requires_grad subgraph below ``root``, a tensor or
    a node (parents before users)."""
    root = _tape_node(root)
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
            if p is not None and p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    return order


def _lift(x, dtype):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


class _TapeState(threading.local):
    recording = True  # per thread; False inside ``no_grad``: ops leave no tape edge


_tape = _TapeState()


@contextlib.contextmanager
def no_grad():
    """Run ops without recording the tape: no output requires grad.

    Inference runs under it, so no VJP closure keeps an op's inputs alive
    and each intermediate is freed as soon as the next op has read it.  It
    holds for the calling thread only; another thread keeps recording.
    """
    prev, _tape.recording = _tape.recording, False
    try:
        yield
    finally:
        _tape.recording = prev


# The side stream: its one thread starts at the first ``fork_join`` and then
# stays, so a training step does not pay for a thread start.
_side = ThreadPoolExecutor(max_workers=1, thread_name_prefix="crossscene-stream")


def fork_join(first, second):
    """``(first(), second())``, with ``second`` run on the persistent side
    thread while ``first`` runs on the caller.

    An exception from ``first`` is raised only after ``second`` has finished,
    so nothing is left running on the side thread.  ``second`` must not call
    ``fork_join`` itself: it would wait on its own thread.
    """
    future = _side.submit(second)
    try:
        out = first()
    except BaseException:
        future.exception()
        raise
    return out, future.result()


def _records(*parents):
    """Whether an op on ``parents`` leaves a tape edge."""
    return _tape.recording and any(p.requires_grad for p in parents)


def _make(data, parents, vjp):
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._leaf_grad = False
    out._node = None
    if _records(*parents):
        out._node = _Node(tuple(_tape_node(p) if p.requires_grad else None for p in parents),
                          vjp)
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
    a_shape, b_shape = a.data.shape, b.data.shape

    def vjp(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

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
    shape, dtype = x.data.shape, x.data.dtype

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, shape).astype(dtype, copy=True),)
        ax = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, shape).astype(dtype, copy=True),)

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


def concat_rows(a, b):
    """Stack b's rows under a's: (n, ...) and (m, ...) -> (n + m, ...)."""
    if a.data.shape[1:] != b.data.shape[1:]:
        raise ValueError(f"concat_rows trailing shapes differ: {a.data.shape} vs {b.data.shape}")
    n = a.data.shape[0]
    data = np.concatenate([a.data, b.data])

    def vjp(g):
        return g[:n], g[n:]

    return _make(data, (a, b), vjp)


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
        return (g * np.maximum((xd > 0).astype(g.dtype), g.dtype.type(negative_slope)),)

    return _make(data, (x,), vjp)


def gelu(x):
    """Exact erf form: x * Phi(x).

    ``erf`` runs on a float64 copy: scipy's float32 loop holds the GIL, the
    float64 one does not, and rounding its result to float32 gives the float32
    loop's bits.  When the op is recorded, the forward also computes the
    backward's factor ``Phi(x) + x * phi(x)``, and the tape keeps that one
    array instead of x and Phi(x).
    """
    xd = x.data
    cdf = _erf((xd * _INV_SQRT2).astype(np.float64, copy=False)).astype(xd.dtype, copy=False)
    cdf += 1.0
    cdf *= 0.5
    data = xd * cdf
    deriv = None
    if _records(x):
        deriv = np.exp(-0.5 * xd * xd)
        deriv *= _INV_SQRT2PI  # phi(x)
        deriv *= xd
        deriv += cdf

    def vjp(g):
        return (g * deriv,)

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
    The forward (c_in -> c_out) and the input gradient (c_out -> c_in, against
    the flipped, channel-transposed kernel) are each an a -> b conv that
    expands only its narrower channel side, chosen from the channel counts
    alone (never h*w, the batch size or a timing):

    - a <= b: one unrolled GEMM with K = 9*a (im2col, Chellapilla, Puri &
      Simard 2006), ``_conv_im2col``;
    - a > b: one GEMM per kernel tap, each shifted into the output (the
      kn2row family, Vasudevan, Anderson & Gregg 2017), ``_conv_per_tap``.

    The weight gradient unrolls the narrower of x and g.  No expanded matrix
    is wider than 9*min(c_in, c_out), and the tape keeps only x.  The input
    gradient is skipped when x needs none.

    The backward builds its column matrix whole only while it fits in
    ``COL_BYTES``.  Past that, the weight gradient takes the columns one
    kernel row (three taps) at a time, and the input gradient takes g's
    columns a block of images at a time.  Each piece is a block of the one
    GEMM's rows or columns with K whole, so at the preset channel counts the
    bits do not change (at others, see the next paragraph).

    On OpenBLAS 0.3.31 an image's output bits do not depend on its batch at
    the preset channel counts (16, 32, 64).  When c_out mod 16 is 1..8 they
    can: a GEMM with N mod 16 in 1..8 rounds a 25- or 49-row A differently
    from a 4900-row one once K reaches 32 to 128 (the bound depends on N and
    M), e.g. for one 7x7 image at 64 -> 4, 176 -> 8 or 32 -> 24.
    """
    if x.data.ndim != 4 or w.data.ndim != 4 or w.data.shape[2:] != (3, 3):
        raise ValueError("conv2d expects NHWC input and a (c_out, c_in, 3, 3) kernel")
    if x.data.shape[3] != w.data.shape[1]:
        raise ValueError(
            f"conv2d channel mismatch: input has {x.data.shape[3]}, kernel expects {w.data.shape[1]}"
        )
    xd = x.data
    c, c_out = xd.shape[3], w.data.shape[0]
    taps = _tap_kernels(w.data)
    out = _conv3x3(xd, taps)
    if b is not None:
        out += b.data
    needs_gx, has_bias = x.requires_grad, b is not None

    def vjp(g):
        gcols = None
        if c > c_out:  # g is the narrower side: while its columns fit, one copy serves gw and gx
            gcols = _im2col(g) if _col_bytes(g, c_out) <= COL_BYTES else _kernel_row_cols(g)
        gw = _conv_weight_grad(xd, g, gcols)
        gx = None
        if needs_gx:
            flipped = np.ascontiguousarray(taps[::-1].transpose(0, 2, 1))  # the c_out -> c_in conv
            if isinstance(gcols, np.ndarray):
                gx = _cols_matmul(gcols, flipped.reshape(9 * c_out, c)).reshape(xd.shape)
            else:
                gx = _conv3x3(g, flipped, COL_BYTES)
        if not has_bias:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 1, 2))

    parents = (x, w) if b is None else (x, w, b)
    return _make(out, parents, vjp)


def _tap_kernels(wd):
    """(c_out, c_in, 3, 3) -> (9, c_in, c_out) per-tap kernels, taps in raster
    order.  Contiguous: with a strided view OpenBLAS rounded one 5x5 image at
    32 -> 16 differently alone than in a batch."""
    c_out, c = wd.shape[:2]
    return np.ascontiguousarray(wd.transpose(2, 3, 1, 0)).reshape(9, c, c_out)


def _conv3x3(xd, taps, col_bytes=None):
    """The conv of (n, h, w, a) ``xd`` with per-tap kernels ``taps`` (9, a, b),
    expanding the narrower channel side (``col_bytes``: see ``_conv_im2col``)."""
    a, b = taps.shape[1:]
    return _conv_im2col(xd, taps, col_bytes) if a <= b else _conv_per_tap(xd, taps)


# The conv backward builds an im2col column matrix whole up to this many
# bytes, and in pieces past it (see ``conv2d``).  At the houston shape (100
# patches of 15x15, 9*32 columns) the matrix is 25.9 MB, and the two streams'
# walks, each at its first conv with most of its tape alive, set a training
# run's peak RSS.  Pieces cost time where g's columns feed both gw and gx
# (a 64 -> 32 VJP took 1.12-1.15x as long at 7x7 and 15x15), so the hyrank
# and pavia shapes (patch 7 and 9: 5.6 and 9.3 MB) stay whole.
COL_BYTES = 12 << 20


def _col_bytes(xd, c):
    """The bytes of the (n*h*w, 9*c) columns of a map shaped like ``xd``."""
    return xd.shape[0] * xd.shape[1] * xd.shape[2] * 9 * c * xd.itemsize


def _windows(xd):
    """(n, h, w, 3, 3, c) view: [..., ki, kj, :] is the zero-padded input
    pixel that tap (ki, kj) reads for each output pixel."""
    n, h, w, c = xd.shape
    padded = _padded_rows(xd)[0].reshape(n, h + 2, w + 2, c)
    return sliding_window_view(padded, (3, 3), axis=(1, 2)).transpose(0, 1, 2, 4, 5, 3)


def _im2col(xd):
    """(n*h*w, 9*c) columns: row p holds the zero-padded 3x3 neighbourhood of
    output pixel p, taps in raster order, channels innermost."""
    n, h, w, c = xd.shape
    return _windows(xd).reshape(n * h * w, 9 * c)  # the one copy


def _kernel_row_cols(xd):
    """The three (n*h*w, 3*c) column blocks of ``_im2col(xd)``, one kernel
    row each, built one at a time."""
    windows = _windows(xd)
    n, h, w, _, _, c = windows.shape
    for ki in range(3):
        yield windows[:, :, :, ki].reshape(n * h * w, 3 * c)


# OpenBLAS 0.3.31 rounds a K = 576 product with M*N*K <= 1e6 differently from
# the same rows inside a larger product (its small-matrix kernel does not split
# K), so one 7x7 image would get other bits alone than in a batch.  At
# K <= 288 the two agree, so the column product takes K in slices of 288.
_K_SLICE = 288


def _cols_matmul(cols, kernel, out=None):
    """``cols @ kernel`` (into ``out`` if given), K taken in slices of ``_K_SLICE``."""
    out = np.matmul(cols[:, :_K_SLICE], kernel[:_K_SLICE], out=out)
    for k in range(_K_SLICE, cols.shape[1], _K_SLICE):
        out += cols[:, k : k + _K_SLICE] @ kernel[k : k + _K_SLICE]
    return out


def _conv_im2col(xd, taps, col_bytes=None):
    """One GEMM of ``_im2col(xd)`` against the taps stacked to K = 9*a.

    With ``col_bytes`` and columns larger than that, the columns are built
    for blocks of images of equal size (at least one image each), each
    block's rows multiplied into its rows of the output.
    """
    n, h, w, a = xd.shape
    kernel = taps.reshape(9 * a, -1)
    blocks = 1 if col_bytes is None else min(n, -(-_col_bytes(xd, a) // col_bytes))
    if blocks <= 1:
        return _cols_matmul(_im2col(xd), kernel).reshape(n, h, w, -1)
    step, b = -(-n // blocks), kernel.shape[1]
    out = np.empty((n, h, w, b), dtype=xd.dtype)
    for i in range(0, n, step):
        _cols_matmul(_im2col(xd[i : i + step]), kernel, out=out[i : i + step].reshape(-1, b))
    return out


# (output, input) slices along one spatial axis for a tap offset of 1, 0 or
# -1 pixels from input to output
_SHIFTS = {1: (slice(1, None), slice(None, -1)), 0: (slice(None), slice(None)),
           -1: (slice(None, -1), slice(1, None))}


def _conv_per_tap(xd, taps):
    """Nine (n*h*w, a) @ (a, b) GEMMs into one reused buffer.  Tap (ki, kj)
    carries input pixel (i, j) to output (i+1-ki, j+1-kj), so each product is
    added into the output at that shift; what shifts off the map is dropped,
    as the zero padding would have it."""
    n, h, w, a = xd.shape
    b = taps.shape[2]
    rows = xd.reshape(-1, a)
    out = np.zeros((n, h, w, b), dtype=xd.dtype)
    part = np.empty_like(out)
    for k in range(9):
        (oi, ii), (oj, ij) = _SHIFTS[1 - k // 3], _SHIFTS[1 - k % 3]
        np.matmul(rows, taps[k], out=part.reshape(-1, b))
        out[:, oi, oj] += part[:, ii, ij]
    return out


def conv2d_windows(xd, wd, bd, ps):
    """Forward-only ``conv2d`` with bias of every ps x ps window of one
    (h, w, c_in) map, each window zero-padded on its own, as if the windows
    were cut out and batched.

    A window position's output depends on the window only through which taps
    stay inside it: all nine in the interior, a subset on the window's top,
    bottom, left or right edge, the centre tap alone at ps = 1.  So the map
    is convolved once per border class (top, middle or bottom row x left,
    middle or right column; one class at ps = 1), each class only over the
    map rows where it occurs in some window.  A class adds its taps in order
    0..8 onto zeros, the subset of what ``_conv_per_tap`` adds.  So on the
    per-tap side (c_in > c_out) a window cut from the classes is bit for bit
    its batched conv wherever a per-tap GEMM gives a row the same bits at any
    row count.

    Returns (out, index): ``out`` (m, c_out) holds the class maps, w pixels
    wide, one after the other; ``index`` (ps, ps) holds the row of ``out``
    for each position of the window at (0, 0).  The window whose top-left
    map pixel is (t, s) reads rows ``index + t*w + s``.
    """
    h, w, c = xd.shape
    if h < ps or w < ps:
        raise ValueError(f"conv2d_windows needs a map of at least {ps}x{ps}, got {h}x{w}")
    taps = _tap_kernels(wd)
    b = taps.shape[2]
    # per class along one axis: its first and last window position, the taps it keeps
    axis = [(0, 0, (1,))] if ps == 1 else [(0, 0, (1, 2)), (1, ps - 2, (0, 1, 2)),
                                          (ps - 1, ps - 1, (0, 1))]
    n = len(axis)
    counts = [h - ps + 1 + last - first for first, last, _ in axis]  # map rows per row class
    starts = np.cumsum([0] + [counts[r] * w for r in range(n) for _ in range(n)])
    out = np.zeros((starts[-1], b), dtype=xd.dtype)
    maps = [out[starts[i] : starts[i + 1]].reshape(-1, w, b) for i in range(n * n)]
    rows = xd.reshape(-1, c)
    part = np.empty((h, w, b), dtype=xd.dtype)
    for k in range(9):
        ki, kj = divmod(k, 3)
        users = [(r, s) for r in range(n) for s in range(n)
                 if ki in axis[r][2] and kj in axis[s][2]]
        if not users:
            continue
        np.matmul(rows, taps[k], out=part.reshape(-1, b))
        oj, ij = _SHIFTS[1 - kj]
        for r, s in users:
            top = axis[r][0] + ki - 1  # the part row read by the class map's first row
            maps[n * r + s][:, oj] += part[top : top + counts[r], ij]
    out += bd
    cls = [0] if ps == 1 else [0] + [1] * (ps - 2) + [2]
    index = np.array([[starts[n * cls[i] + cls[j]] + (i - axis[cls[i]][0]) * w + j
                       for j in range(ps)] for i in range(ps)], dtype=np.int64)
    return out, index


def _conv_weight_grad(xd, g, gcols=None):
    """The (c_out, c_in, 3, 3) kernel gradient.

    Given g's columns ``gcols``, whole or as ``_kernel_row_cols(g)``'s three
    blocks: ``x.T @ gcols``, where tap t is g's tap 8 - t, a block of the
    product's columns per kernel row.  Else ``im2col(x).T @ g``: whole while
    x's columns fit in ``COL_BYTES``, else one block of the product's rows
    per kernel row.  K = n*h*w is never split, so both ways give the same
    bits.
    """
    c, c_out = xd.shape[3], g.shape[3]
    # map, unlike a loop variable, drops each column block before building the next
    if gcols is None:
        g = g.reshape(-1, c_out)
        cols = [_im2col(xd)] if _col_bytes(xd, c) <= COL_BYTES else _kernel_row_cols(xd)
        gtaps = np.concatenate(list(map(lambda part: part.T @ g, cols))).reshape(9, c, c_out)
    else:
        xt = xd.reshape(-1, c).T
        cols = [gcols] if isinstance(gcols, np.ndarray) else gcols
        gtaps = np.concatenate(list(map(lambda part: xt @ part, cols)), axis=1)
        gtaps = gtaps.reshape(c, 9, c_out)[:, ::-1].transpose(1, 0, 2)
    return gtaps.reshape(3, 3, c, c_out).transpose(3, 2, 0, 1).copy()


def depthwise_conv2d(x, w):
    """Per-channel 3x3 convolution, stride 1, zero pad 1, no bias.

    x: (n, h, w, c), w: (c, 3, 3) — one kernel per channel, no cross-channel mixing.
    Works on the flattened, zero-padded rows of ``_padded_rows``, so each tap
    is one elementwise product of a shifted row range, written into a reused
    buffer.
    The ranges are taken (w+2) pixels to an array row, with each tap tiled to
    match: a (c,)-wide broadcast would run numpy's inner loop c elements at a
    time.  Two zero rows after the map let every range span whole image rows.
    The kernel gradient is a per-channel dot product per tap; the input
    gradient is nine shifted in-place adds.  The tape keeps x, not its
    padded copy: the backward pads it again.
    """
    if x.data.ndim != 4 or w.data.ndim != 3 or w.data.shape[1:] != (3, 3):
        raise ValueError("depthwise_conv2d expects NHWC input and a (c, 3, 3) kernel")
    if x.data.shape[3] != w.data.shape[0]:
        raise ValueError("depthwise_conv2d channel mismatch")
    xd = x.data
    n, h, wd_, c = xd.shape
    wp = wd_ + 2
    rows = n * (h + 2) * wp
    xrows, offs = _padded_rows(xd, extra=2)
    length = rows - 2 * wp  # covers every output row; offs[-1] + length == rows + 2
    taps = np.tile(w.data.transpose(1, 2, 0).reshape(9, c), wp)  # taps[k]: (wp*c,)

    def shifted(a, o):
        return a[o : o + length].reshape(-1, wp * c)

    yrows = np.empty((rows, c), dtype=xd.dtype)
    y = shifted(yrows, 0)
    np.multiply(shifted(xrows, 0), taps[0], out=y)
    part = np.empty_like(y)
    for k in range(1, 9):
        np.multiply(shifted(xrows, offs[k]), taps[k], out=part)
        y += part
    out = yrows.reshape(n, h + 2, wp, c)[:, :h, :wd_].copy()

    def vjp(g):
        xrows = _padded_rows(xd, extra=2)[0]  # rebuilt, so the tape keeps only x
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


BN_MOMENTUM, BN_EPS = 0.1, 1e-5


def batch_norm2d(x, gamma, beta, running_mean, running_var, training, slope=None):
    """Per-channel batch normalization on NHWC maps, with an optional
    LeakyReLU epilogue.

    Training mode normalizes with batch statistics (biased variance) and
    folds an unbiased variance estimate into the running buffers in place:
    ``buf = (1 - BN_MOMENTUM) * buf + BN_MOMENTUM * stat``.  Eval mode
    normalizes with the running buffers.
    Works on the (n*h*w, c) row view: one centred copy becomes ``xhat`` in
    place, and the backward pass allocates only the input gradient.

    With ``slope`` the output is ``leaky_relu(bn, slope)``, bit for bit, and
    the tape keeps ``xhat`` and the output, not the BN output (after
    In-Place Activated BatchNorm, Rota Bulo, Porzi & Kontschieder 2018,
    which inverts the activation instead).  For a slope in [0, 1] the
    output is positive exactly where the BN output is, so it gives the
    LeakyReLU gradient's sign without a stored mask, and a conv that reads
    the output keeps that array anyway.
    """
    xd = x.data
    if xd.ndim != 4:
        raise ValueError("batch_norm2d expects an NHWC input")
    if slope is not None and not 0.0 <= slope <= 1.0:
        raise ValueError(f"batch_norm2d needs a slope in [0, 1], got {slope}")
    shape = xd.shape
    c = shape[3]
    rows = xd.reshape(-1, c)
    cnt = rows.shape[0]
    if training:
        mu = rows.mean(axis=0)
        xhat = rows - mu
        var = np.einsum("ij,ij->j", xhat, xhat) / cnt
        unbiased = var * (cnt / (cnt - 1)) if cnt > 1 else var
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mu
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * unbiased
    else:
        xhat = rows - running_mean.astype(xd.dtype)
        var = running_var.astype(xd.dtype)
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv
    gd = gamma.data
    out = xhat * gd
    out += beta.data
    act = None
    if slope is not None:
        act = np.maximum(out, slope * out, out=out)

    def vjp(g):
        g = g.reshape(-1, c)
        if act is not None:
            g = g * np.maximum((act > 0).astype(g.dtype), g.dtype.type(slope))
        gbeta = g.sum(axis=0)
        ggamma = np.einsum("ij,ij->j", g, xhat)
        if training:
            # gamma*inv * (g - sum(g)/cnt - xhat * sum(g*xhat)/cnt)
            gx = xhat * (-ggamma / cnt)
            gx += g
            gx -= gbeta / cnt
            gx *= gd * inv
        else:
            gx = g * (gd * inv)
        return gx.reshape(shape), ggamma, gbeta

    return _make(out.reshape(shape), (x, gamma, beta), vjp)


def avg_pool2d(x):
    """Global average over the spatial dims: (n, h, w, c) -> (n, c)."""
    n, h, w, c = x.data.shape
    data = x.data.mean(axis=(1, 2))

    def vjp(g):
        return (np.broadcast_to(g[:, None, None, :] / (h * w), (n, h, w, c)).astype(g.dtype, copy=True),)

    return _make(data, (x,), vjp)
