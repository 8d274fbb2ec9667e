"""Reverse-mode autodiff over dense numpy arrays.

This is the compute substrate for the whole classifier: a small tape of
primitives (convolution, batch norm, activations, reductions) rather than a
general autodiff system.  Every op records a node with its parents' nodes
and a vector-Jacobian product closure; ``Tensor.backward`` walks the nodes in
reverse topological order and accumulates gradients on the leaves.  The tape
holds no op output itself: a VJP closure captures only the arrays and shapes
its formula reads, so an activation that no backward reads is freed as soon
as the forward code drops it.  ``recompute`` records a whole subgraph as one
node that keeps only its input and GELU's Phi(x) arrays, and reruns it in
the backward.  Inside ``no_grad`` nothing is recorded (in the calling thread
only).

Two independent subgraphs can run at once: ``fork_join`` runs one of them on
a persistent second thread, and ``backward_pair`` walks two subgraphs that
share only leaves on the two threads.  numpy releases the GIL inside its
GEMMs and ufunc loops, so the two streams use two cores, one BLAS thread
each (``one_blas_thread``): a GEMM's bits depend on how many threads split it.

Spatial maps are channels-last, (n, h, w, c), end to end: the layout patches
are cut in, so no op or caller transposes activations.  Convolution kernels
keep their (c_out, c_in, 3, 3) and (c, 3, 3) parameter layouts, which is also
their on-disk checkpoint layout.

Training runs in float32; gradient verification rebuilds graphs in float64
(see :mod:`crossscene.engine.gradcheck`).
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import conv

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
    def _vjp(self):
        """The VJP the walk calls for this output; settable, so that a
        profiler can wrap it after the op."""
        node = self._node
        return None if node is None else node._vjp

    @_vjp.setter
    def _vjp(self, vjp):
        self._node._vjp = vjp

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
        for p in node._parents if isinstance(node, _Node) else ():  # a leaf has none
            if p is not None and p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    return order


def _lift(x, dtype):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


class _TapeState(threading.local):
    recording = True  # per thread; False inside ``no_grad``: ops leave no tape edge
    # Inside ``recompute``: the list each ``gelu`` of the no-grad forward
    # appends its Phi(x) to, then the iterator each ``gelu`` of the rerun
    # takes it back from, in the same order.
    saved_phi = None
    replay_phi = None


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
    ``fork_join`` itself: it would wait on its own thread.  ``second`` runs
    under the caller's floating-point error state (``np.errstate``), which
    the side thread would not otherwise share.
    """
    err = np.geterr()

    def side():
        with np.errstate(**err):
            return second()

    future = _side.submit(side)
    try:
        out = first()
    except BaseException:
        future.exception()
        raise
    return out, future.result()


try:  # numpy's own OpenBLAS, the one the wheel loads; None under another BLAS
    [_path] = (Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*")
    _OPENBLAS = ctypes.CDLL(str(_path))  # ctypes' int in, int out: the C signatures
    _blas_threads, _set_blas_threads = (_OPENBLAS.scipy_openblas_get_num_threads64_,
                                        _OPENBLAS.scipy_openblas_set_num_threads64_)
except (ValueError, OSError, AttributeError):
    _OPENBLAS, _blas_threads, _set_blas_threads = None, lambda: None, lambda count: None


class one_blas_thread(contextlib.ContextDecorator):
    """numpy's bundled OpenBLAS at one thread inside the block or decorated
    call.  Blocks open at once, in any threads, share the process's count:
    the last to leave gives back the count from before the first.  Entered
    and never left, it pins the process for good.  No-op under another BLAS."""

    lock, counts = threading.Lock(), []  # the count on entry, per open block

    def __enter__(self):
        with self.lock:
            self.counts.append(_blas_threads())
            _set_blas_threads(1)

    def __exit__(self, *exc):
        with self.lock:
            count = self.counts.pop()  # the last pop takes the first block's
            _set_blas_threads(1 if self.counts else count)


def recompute(fn, x, params):
    """``fn(x)``, with a tape that keeps x's array and GELU's Phi(x) arrays
    instead of the inner arrays of ``fn``: the backward reruns ``fn``.

    The forward runs ``fn(x)`` under ``no_grad`` and records one node whose
    parents are x and ``params``, the leaves ``fn`` reads besides x.  Each
    ``gelu`` in it saves its Phi(x), the float32 (1 + erf(x / sqrt(2))) / 2
    it builds anyway.  The VJP reruns ``fn`` on a leaf that shares x's
    array, each ``gelu`` taking its Phi(x) back instead of calling ``_erf``,
    walks that subgraph and returns the gradients of x and of each param
    (Chen et al. 2016, keeping the costly part as in Korthikanti et al.
    2022).  The rerun makes the forward's ops in the forward's order, so the
    bits are those of recording ``fn`` directly, as long as every user of x
    is inside ``fn``: the gradient of x is then summed in the same order.
    ``fn`` must not call ``recompute``.  When nothing is recorded it is just
    ``fn(x)``.
    """
    if not _records(x, *params):
        return fn(x)
    saved = []
    _tape.saved_phi = saved
    try:
        with no_grad():
            data = fn(x).data
    finally:
        _tape.saved_phi = None
    xd, needs_gx = x.data, x.requires_grad

    def vjp(g):
        leaf = Tensor(xd, requires_grad=needs_gx)
        prev, _tape.recording, _tape.replay_phi = _tape.recording, True, iter(saved)
        try:
            root = fn(leaf)._node  # the walk needs no output array
        finally:
            _tape.recording, _tape.replay_phi = prev, None
            saved.clear()  # each Phi(x) is now held only by its gelu's VJP
        leaves = _leaf_grads(root, g)
        return tuple(leaves[id(t)][1] if id(t) in leaves else None for t in (leaf, *params))

    return _make(data, (x, *params), vjp)


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
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).astype(dtype, order="C"),)

    return _make(data, (x,), vjp)


def tmean(x):
    return scale(tsum(x), 1.0 / x.data.size)


def reshape(x, shape):
    data = x.data.reshape(shape)
    orig = x.data.shape

    def vjp(g):
        return (g.reshape(orig),)

    return _make(data, (x,), vjp)


def transpose(x):
    def vjp(g):
        return (g.T,)

    return _make(x.data.T, (x,), vjp)


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
        return (_leaky_factor(xd, negative_slope, g),)

    return _make(data, (x,), vjp)


def _leaky_factor(xd, slope, g):
    """``g`` times LeakyReLU's derivative at ``xd`` (1 where xd > 0, else
    ``slope``), in one new array: the factor is built in it, then g is
    multiplied in."""
    factor = np.greater(xd, 0, out=np.empty(xd.shape, g.dtype))
    np.maximum(factor, g.dtype.type(slope), out=factor)
    factor *= g
    return factor


# erf in float64 from two polynomial fits, in the manner of Cody (1969).
# Both were fitted with mpmath 1.3.0 by mp.chebyfit at mp.dps = 40, and are
# listed from the highest power down, the order Horner's rule reads them:
#   _ERF_P    13 terms, f(s) = erf(sqrt(s)) / sqrt(s) on s in [0, 1]; max
#             error 1.3e-19.  erf(z) = z * P(z*z) where z*z < 1.
#   _ERFCX_Q  22 terms, f(u) = exp(z*z) * erfc(z) with z = 1/u - 1, on u in
#             [1/7, 1/2] (z in [1, 6]); relative error 1.4e-19.  Elsewhere
#             erf(z) = sign(z) * (1 - exp(-a*a) * Q(1/(1 + a))), a = min(|z|, 6):
#             past 6, erfc is below half an ulp of 1.
_ERF_P = (
    5.957176147748911e-11, -1.1372848856791674e-09, 1.4659775274047436e-08,
    -1.6350312701054695e-07, 1.6461000484121368e-06, -1.4925595266831182e-05,
    0.0001205533111164271, -0.000854832698083379, 0.0052239776248180145,
    -0.026866170645076792, 0.11283791670954879, -0.3761263890318375,
    1.1283791670955126,
)
_ERFCX_Q = (
    -800.4116633424374, 5783.046692201676, -19714.42967992667,
    42076.44761496659, -62868.938636259336, 69602.72041944152,
    -58878.20250212443, 38632.19289451978, -19738.172870535316,
    7825.7715799377, -2404.0942379263356, 588.2854333715296,
    -124.70095085273661, 21.870546890918607, -1.0043075889388038,
    0.13786770838001736, -0.7286062446456033, -0.28058849875264413,
    0.2820230013864845, 0.5641919535826148, 0.5641895355415215,
    4.438860081971985e-10,
)
_ERF_BLOCK = 1 << 16  # elements per pass: a block's temporaries stay in cache


def _horner(coeffs, x):
    p = x * coeffs[0]
    p += coeffs[1]
    for c in coeffs[2:]:
        p *= x
        p += c
    return p


def _erf(z):
    """erf of a float array, rounded back into z: in place when z is
    C-contiguous, else into a copy, which is returned.

    It is computed in float64 one ``_ERF_BLOCK`` block at a time, so a
    float32 z is never copied whole to float64.  ±0 keep their sign, ±inf
    give ±1 and NaN stays NaN.  The elements with z*z >= 1 are gathered once
    and run through Q in blocks of their own, so a block makes few numpy
    calls: with two streams, each call is a GIL hand-off.
    """
    flat = z.reshape(-1)  # a view of z when z is C-contiguous, else a copy
    tail = np.flatnonzero(np.abs(flat) >= 1.0)  # z*z >= 1
    zt = flat[tail].astype(np.float64, copy=False)
    for start in range(0, flat.size, _ERF_BLOCK):
        block = flat[start:start + _ERF_BLOCK]
        zb = block.astype(np.float64, copy=False)  # the block itself when z is float64
        s = np.abs(zb)
        np.minimum(s, 1.0, out=s)  # a tail element's P(s) is unused; this keeps it finite
        s *= s
        zb *= _horner(_ERF_P, s)
        if zb is not block:
            block[...] = zb
    for start in range(0, zt.size, _ERF_BLOCK):
        zb = zt[start:start + _ERF_BLOCK]
        a = np.abs(zb)
        np.minimum(a, 6.0, out=a)
        q = _horner(_ERFCX_Q, 1.0 / (1.0 + a))
        a *= a
        np.negative(a, out=a)
        np.exp(a, out=a)
        q *= a
        np.subtract(1.0, q, out=q)
        np.copysign(q, zb, out=zb)
    flat[tail] = zt
    return flat.reshape(z.shape)


def gelu(x):
    """Exact erf form: x * Phi(x).

    ``erf`` runs in float64 on x / sqrt(2), so that rounding its result to
    float32 is exact: within 2 float64 ulp of the true erf, it rounds to the
    same float32 as scipy.special.erf on every float32 input.  When the op
    is recorded, the forward also computes the backward's factor
    ``Phi(x) + x * phi(x)``, and the tape keeps that one array instead of x
    and Phi(x).  The array of x / sqrt(2) becomes Phi(x) in place and then
    that factor, and the rest runs in ``_ERF_BLOCK`` blocks, so the forward
    makes no full-size temporary.  Inside ``recompute`` the no-grad forward
    saves Phi(x), and the rerun takes it back instead of calling ``_erf``.
    """
    xd = x.data
    replay = _tape.replay_phi
    cdf = _erf(xd * _INV_SQRT2).reshape(-1) if replay is None else next(replay)
    flat = xd.reshape(-1)
    data = np.empty_like(flat)
    records = _records(x)
    for start in range(0, flat.size, _ERF_BLOCK):
        block = slice(start, start + _ERF_BLOCK)
        xb, cb = flat[block], cdf[block]
        if replay is None:
            cb += 1.0
            cb *= 0.5
        np.multiply(xb, cb, out=data[block])
        if records:
            t = np.multiply(xb, -0.5)
            t *= xb
            np.exp(t, out=t)
            t *= _INV_SQRT2PI  # phi(x)
            t *= xb
            cb += t
    if _tape.saved_phi is not None:
        _tape.saved_phi.append(cdf)
    deriv = cdf.reshape(xd.shape) if records else None

    def vjp(g):
        return (g * deriv,)

    return _make(data.reshape(xd.shape), (x,), vjp)


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


def conv2d(x, w, b=None):
    """3x3 convolution, stride 1, zero padding 1 (spatial size preserved).

    x: (n, h, w, c_in), w: (c_out, c_in, 3, 3), b: (c_out,) or None.  The
    kernels, and every choice they make, are in :mod:`crossscene.engine.conv`.
    The tape keeps x and w's array; the input gradient is skipped when x
    needs none.
    """
    if x.data.ndim != 4 or w.data.ndim != 4 or w.data.shape[2:] != (3, 3):
        raise ValueError("conv2d expects NHWC input and a (c_out, c_in, 3, 3) kernel")
    if x.data.shape[3] != w.data.shape[1]:
        raise ValueError(
            f"conv2d channel mismatch: input has {x.data.shape[3]}, kernel expects {w.data.shape[1]}"
        )
    xd, wd = x.data, w.data
    out = conv.forward(xd, wd)
    if b is not None:
        out += b.data
    needs_gx, has_bias = x.requires_grad, b is not None

    def vjp(g):
        gx, gw = conv.backward(xd, wd, g, needs_gx)
        return (gx, gw, g.sum(axis=(0, 1, 2))) if has_bias else (gx, gw)

    parents = (x, w) if b is None else (x, w, b)
    return _make(out, parents, vjp)


def depthwise_conv2d(x, w):
    """Per-channel 3x3 convolution, stride 1, zero pad 1, no bias.

    x: (n, h, w, c), w: (c, 3, 3) — one kernel per channel, no cross-channel mixing.
    Works on the flattened, zero-padded rows of ``conv.padded_rows``, so each
    tap is one elementwise product of a shifted row range, written into a
    reused buffer.
    The ranges are taken (w+2) pixels to an array row, with each tap tiled to
    match: a (c,)-wide broadcast would run numpy's inner loop c elements at a
    time.  Two zero rows after the map let every range span whole image rows.
    The forward runs in blocks of images of about ``_ERF_BLOCK`` padded
    elements, so its temporaries are a block's size; each output element is
    the same sum in the same order in any block.
    The input gradient is that forward on g rotated 180 degrees, rotated
    back: tap k's terms g(i+1-ki, j+1-kj) * w_k, added in tap order.  Where
    all nine are -0 that gives -0 and a scatter onto zeros +0, so 0.0 is
    added (which also makes the C-order copy).  The kernel gradient is a
    per-channel dot product per tap over all rows, so it runs whole.  The
    tape keeps x, not its padded copy: the backward pads it again.
    """
    if x.data.ndim != 4 or w.data.ndim != 3 or w.data.shape[1:] != (3, 3):
        raise ValueError("depthwise_conv2d expects NHWC input and a (c, 3, 3) kernel")
    if x.data.shape[3] != w.data.shape[0]:
        raise ValueError("depthwise_conv2d channel mismatch")
    xd = x.data
    n, h, wd_, c = xd.shape
    wp = wd_ + 2
    taps = np.tile(w.data.transpose(1, 2, 0).reshape(9, c), wp)  # taps[k]: (wp*c,)
    step = max(1, _ERF_BLOCK // ((h + 2) * wp * c))  # images per block

    def shifted(a, o, length):
        return a[o : o + length].reshape(-1, wp * c)

    def forward(a):
        out = np.empty(a.shape, dtype=a.dtype)
        for i in range(0, n, step):
            block = a[i : i + step]
            m = block.shape[0]
            xrows, offs = conv.padded_rows(block, extra=2)
            yrows = np.empty((m * (h + 2) * wp, c), dtype=a.dtype)
            span = len(yrows) - 2 * wp  # covers every output row; offs[-1] + span == len(yrows) + 2
            y = shifted(yrows, 0, span)
            np.multiply(shifted(xrows, 0, span), taps[0], out=y)
            part = np.empty_like(y)
            for k in range(1, 9):
                np.multiply(shifted(xrows, offs[k], span), taps[k], out=part)
                y += part
            out[i : i + m] = yrows.reshape(m, h + 2, wp, c)[:, :h, :wd_]
        return out

    def vjp(g):
        xrows, offs = conv.padded_rows(xd, extra=2)  # rebuilt, so the tape keeps only x
        rows = n * (h + 2) * wp
        length = rows - 2 * wp
        grows = np.zeros((rows, c), dtype=g.dtype)
        grows.reshape(n, h + 2, wp, c)[:, :h, :wd_] = g
        grows = grows[:length]
        gw = np.stack([np.einsum("ij,ij->j", grows, xrows[o : o + length]) for o in offs])
        del xrows, grows
        return np.add(forward(g[:, ::-1, ::-1])[:, ::-1, ::-1], 0.0), gw.T.reshape(c, 3, 3).copy()

    return _make(forward(xd), (x, w), vjp)


BN_MOMENTUM, BN_EPS = 0.1, 1e-5


def batch_norm2d(x, gamma, beta, running_mean, running_var, training, slope=None):
    """Per-channel batch normalization on NHWC maps, with an optional
    LeakyReLU epilogue.

    Training mode normalizes with batch statistics (biased variance) and
    folds an unbiased variance estimate into the running buffers in place:
    ``buf = (1 - BN_MOMENTUM) * buf + BN_MOMENTUM * stat``.  Eval mode
    normalizes with the running buffers.
    Works on the (n*h*w, c) row view: one centred copy becomes ``xhat`` in
    place, and the backward pass allocates only the input gradient.  The
    passes that would need a full-size temporary (the LeakyReLU epilogue,
    the backward's ``xhat`` term) run in blocks of rows.

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
    step = max(1, _ERF_BLOCK // c)  # rows per block of the full-size elementwise passes
    if slope is not None:
        for start in range(0, cnt, step):
            block = out[start : start + step]
            np.maximum(block, slope * block, out=block)
        act = out.reshape(shape)

    def vjp(g):
        # gx is built in one new array, g times the LeakyReLU factor or a copy
        # of g, without reshaping g first: a strided g would be copied
        gx = (g.copy() if act is None else _leaky_factor(act, slope, g)).reshape(-1, c)
        gbeta = gx.sum(axis=0)
        ggamma = np.einsum("ij,ij->j", gx, xhat)
        if training:
            # gamma*inv * (g - sum(g)/cnt - xhat * sum(g*xhat)/cnt)
            k = -ggamma / cnt
            for start in range(0, cnt, step):
                gx[start : start + step] += xhat[start : start + step] * k
            gx -= gbeta / cnt
        gx *= gd * inv
        return gx.reshape(shape), ggamma, gbeta

    return _make(out.reshape(shape), (x, gamma, beta), vjp)


def avg_pool2d(x):
    """Global average over the spatial dims: (n, h, w, c) -> (n, c)."""
    n, h, w, c = x.data.shape
    data = x.data.mean(axis=(1, 2))

    def vjp(g):
        return (np.broadcast_to(g[:, None, None, :] / (h * w), (n, h, w, c)).astype(g.dtype, order="C"),)

    return _make(data, (x,), vjp)
