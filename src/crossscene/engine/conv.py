"""3x3 convolution kernels on channels-last arrays: stride 1, zero padding 1.

Arrays in, arrays out: nothing here records on the tape.  ``tensor.conv2d``
calls ``forward``, and its VJP calls ``backward``; scene inference calls
``conv2d_windows``.  Maps are (n, h, w, c); kernels keep their
(c_out, c_in, 3, 3) parameter layout.

The input gradient is the forward's conv run on g (c_out -> c_in) with the
kernel rotated 180 degrees, channels transposed (Dumoulin & Visin 2016).
Each a -> b conv expands only its narrower channel side, chosen from the
channel counts alone (never h*w, the batch size or a timing):

- a <= b: one unrolled GEMM with K = 9*a (im2col, Chellapilla, Puri &
  Simard 2006), ``_conv_im2col``;
- a > b: one GEMM per kernel tap, each shifted into the output (the kn2row
  family, Vasudevan, Anderson & Gregg 2017), ``_conv_per_tap``.

The weight gradient unrolls the narrower of x and g (when that is g, gx
builds g's columns again).  No expanded matrix is wider than 9*min(c_in, c_out).

A column matrix (n*h*w rows) is built whole only while it fits in
``COL_BYTES``.  Past that, no piece is wider than one tap's columns: an
im2col GEMM (the forward or the input gradient) takes a ninth of the images
at a time, and the weight gradient one tap at a time (one kernel row where a
tap's product would be small, see ``_SMALL_GEMM``).  Each piece is a block
of the one GEMM's rows or columns with K whole, so at the preset channel
counts the bits do not change (at others, see the next paragraph).

On OpenBLAS 0.3.31 an image's output bits do not depend on its batch at the
preset channel counts (16, 32, 64).  When c_out mod 16 is 1..8 they can: a
GEMM with N mod 16 in 1..8 rounds a 25- or 49-row A differently from a
4900-row one once K reaches 32 to 128 (the bound depends on N and M), e.g.
for one 7x7 image at 64 -> 4, 176 -> 8 or 32 -> 24.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# The working-set budget of one stream: a column matrix is built whole up to
# this many bytes, and in pieces past it; scene inference's row strips hold at
# most this many bytes of stem maps.  Of the preset shapes' column matrices
# (100 patches) only synth's (1.4 MB, 9*16 columns) stays whole: hyrank's
# (5.6 MB), pavia's (9.3 MB) and houston's (25.9 MB, 9*32 columns each) go in
# pieces.  At 12 MiB, which kept hyrank's and pavia's whole, one hyrank-shape
# stream's step peaked at 13.1 MiB of arrays, and at 4 MiB at 8.7 MiB.
# Pieces cost time, but a two-stream hyrank step read 0-2.5% slower (60
# interleaved steps, two runs), inside the spread of a run's step times, for
# about 12% of hyrank-map's peak RSS.
COL_BYTES = 4 << 20

# OpenBLAS 0.3.31 runs a product with M*N*K <= 1e6 through its small-matrix
# kernel, which does not split K, so it rounds a long K differently from the
# same rows or columns inside a larger product.  A K = 576 product of one 7x7
# image would get other bits alone than in a batch; at K <= 288 the two agree,
# so the column product takes K in slices of 288.  The weight gradient never
# splits its K = n*h*w; where one tap's product would fall under the bound,
# its columns come a kernel row (three taps) at a time instead of one tap.
_SMALL_GEMM = 10**6
_K_SLICE = 288

# (output, input) slices along one spatial axis for a tap offset of 1, 0 or
# -1 pixels from input to output
_SHIFTS = {1: (slice(1, None), slice(None, -1)), 0: (slice(None), slice(None)),
           -1: (slice(None, -1), slice(1, None))}


def forward(xd, wd):
    """The conv of ``xd`` (n, h, w, c_in) with ``wd`` (c_out, c_in, 3, 3),
    no bias -> (n, h, w, c_out)."""
    return _conv3x3(xd, _tap_kernels(wd))


def backward(xd, wd, g, needs_gx):
    """(gx, gw) of ``forward(xd, wd)`` for the output gradient ``g``; gx is
    None unless ``needs_gx``."""
    gw = _conv_weight_grad(xd, g)
    if not needs_gx:
        return None, gw
    flipped = np.ascontiguousarray(_tap_kernels(wd)[::-1].transpose(0, 2, 1))  # c_out -> c_in
    return _conv3x3(g, flipped), gw


def padded_rows(xd, extra=0):
    """(rows, offs): the map zero-padded by one pixel and flattened to
    (n*(h+2)*(w+2) + extra, c) rows, the last ``extra`` rows zero, and the
    row offset of each 3x3 tap (ki, kj) in raster order."""
    n, h, w, c = xd.shape
    count = n * (h + 2) * (w + 2)
    rows = np.zeros((count + extra, c), dtype=xd.dtype)
    rows[:count].reshape(n, h + 2, w + 2, c)[:, 1:-1, 1:-1] = xd
    return rows, [ki * (w + 2) + kj for ki in range(3) for kj in range(3)]


def _tap_kernels(wd):
    """(c_out, c_in, 3, 3) -> (9, c_in, c_out) per-tap kernels, taps in raster
    order.  Contiguous: with a strided view OpenBLAS rounded one 5x5 image at
    32 -> 16 differently alone than in a batch."""
    c_out, c = wd.shape[:2]
    return np.ascontiguousarray(wd.transpose(2, 3, 1, 0)).reshape(9, c, c_out)


def _conv3x3(xd, taps):
    """The conv of (n, h, w, a) ``xd`` with per-tap kernels ``taps`` (9, a, b),
    expanding the narrower channel side."""
    a, b = taps.shape[1:]
    return _conv_im2col(xd, taps) if a <= b else _conv_per_tap(xd, taps)


def _col_bytes(xd, c):
    """The bytes of the (n*h*w, 9*c) columns of a map shaped like ``xd``."""
    return xd.shape[0] * xd.shape[1] * xd.shape[2] * 9 * c * xd.itemsize


def _windows(xd):
    """(n, h, w, 3, 3, c) view: [..., ki, kj, :] is the zero-padded input
    pixel that tap (ki, kj) reads for each output pixel."""
    n, h, w, c = xd.shape
    padded = padded_rows(xd)[0].reshape(n, h + 2, w + 2, c)
    return sliding_window_view(padded, (3, 3), axis=(1, 2)).transpose(0, 1, 2, 4, 5, 3)


def _im2col(xd):
    """(n*h*w, 9*c) columns: row p holds the zero-padded 3x3 neighbourhood of
    output pixel p, taps in raster order, channels innermost."""
    n, h, w, c = xd.shape
    return _windows(xd).reshape(n * h * w, 9 * c)  # the one copy


def _tap_cols(xd, c_other):
    """The column blocks of ``_im2col(xd)`` for a weight gradient against
    ``c_other`` channels, built one at a time: one tap, (n*h*w, c), each, or
    one kernel row (three taps) each where a tap's product, M*N*K =
    n*h*w * c * c_other, would be small (``_SMALL_GEMM``)."""
    taps = 1 if xd.size * c_other > _SMALL_GEMM else 3
    windows = _windows(xd)
    n, h, w, _, _, c = windows.shape
    for k in range(0, 9, taps):
        block = windows[:, :, :, k // 3] if taps == 3 else windows[:, :, :, k // 3, k % 3]
        yield block.reshape(n * h * w, taps * c)


def _cols_matmul(cols, kernel, out=None):
    """``cols @ kernel`` (into ``out`` if given), K taken in slices of ``_K_SLICE``."""
    out = np.matmul(cols[:, :_K_SLICE], kernel[:_K_SLICE], out=out)
    for k in range(_K_SLICE, cols.shape[1], _K_SLICE):
        out += cols[:, k : k + _K_SLICE] @ kernel[k : k + _K_SLICE]
    return out


def _conv_im2col(xd, taps):
    """One GEMM of ``_im2col(xd)`` against the taps stacked to K = 9*a.

    The columns are built whole while they fit in ``COL_BYTES``, else a
    ninth of the images at a time, so no block is wider than one tap's
    columns (the weight gradient's pieces, see ``_tap_cols``); each block's
    rows are multiplied into its rows of the output.
    """
    n, h, w, a = xd.shape
    kernel = taps.reshape(9 * a, -1)
    b = kernel.shape[1]
    step = max(n, 1) if _col_bytes(xd, a) <= COL_BYTES else -(-n // 9)  # max: an empty batch
    out = np.empty((n, h, w, b), dtype=xd.dtype)
    for i in range(0, n, step):
        _cols_matmul(_im2col(xd[i : i + step]), kernel, out=out[i : i + step].reshape(-1, b))
    return out


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


def _conv_weight_grad(xd, g):
    """The (c_out, c_in, 3, 3) kernel gradient, unrolling the narrower side.

    c_in <= c_out: ``im2col(x).T @ g``, whole while x's columns fit in
    ``COL_BYTES``, else one block of the product's rows per piece of
    ``_tap_cols(x, c_out)``.  c_in > c_out: ``x.T @ im2col(g)``, where tap t
    is g's tap 8 - t, whole while g's columns fit, else one block of the
    product's columns per piece of ``_tap_cols(g, c_in)``.  K = n*h*w is
    never split, so the pieces give the bits of the whole product.
    """
    c, c_out = xd.shape[3], g.shape[3]
    # map, unlike a loop variable, drops each column block before building the next
    if c <= c_out:
        g = g.reshape(-1, c_out)
        cols = [_im2col(xd)] if _col_bytes(xd, c) <= COL_BYTES else _tap_cols(xd, c_out)
        gtaps = np.concatenate(list(map(lambda part: part.T @ g, cols))).reshape(9, c, c_out)
    else:
        xt = xd.reshape(-1, c).T
        cols = [_im2col(g)] if _col_bytes(g, c_out) <= COL_BYTES else _tap_cols(g, c)
        gtaps = np.concatenate(list(map(lambda part: xt @ part, cols)), axis=1)
        gtaps = gtaps.reshape(c, 9, c_out)[:, ::-1].transpose(1, 0, 2)
    return gtaps.reshape(3, 3, c, c_out).transpose(3, 2, 0, 1).copy()


# -- every window of one map at once (scene inference) ----------------------


def _border_classes(h, ps):
    """Per border class along one axis of ps-wide windows over h map rows:
    its first and last window position, the taps it keeps, and the count of
    map rows where it occurs in some window (one class at ps = 1)."""
    axis = [(0, 0, (1,))] if ps == 1 else [(0, 0, (1, 2)), (1, ps - 2, (0, 1, 2)),
                                          (ps - 1, ps - 1, (0, 1))]
    return [(first, last, keep, h - ps + 1 + last - first) for first, last, keep in axis]


def class_rows(h, ps):
    """The rows, each as wide as the map, of ``conv2d_windows``'s output for
    an h-row map and ps x ps windows."""
    axis = _border_classes(h, ps)
    return len(axis) * sum(count for *_, count in axis)


def conv2d_windows(xd, wd, bd, ps):
    """Forward-only ``conv2d`` with bias of every ps x ps window of one
    (h, w, c_in) map, each window zero-padded on its own, as if the windows
    were cut out and batched.

    A window position's output depends on the window only through which taps
    stay inside it: all nine in the interior, a subset on the window's top,
    bottom, left or right edge, the centre tap alone at ps = 1.  So the map
    is convolved once per border class (top, middle or bottom row x left,
    middle or right column; one class at ps = 1), each class only over the
    map rows where it occurs in some window.  Each class repeats the batched
    conv's arithmetic on the same side of the channel rule.  On the per-tap
    side (c_in > c_out) a class adds its taps in order 0..8 onto zeros, the
    subset of what ``_conv_per_tap`` adds; on the im2col side each class row
    is the cut-out window's im2col row (``_class_maps_im2col``).  So a window
    cut from the classes is bit for bit its batched conv wherever the GEMM
    gives a row the same bits at any row count.

    Returns (out, index): ``out`` (``class_rows(h, ps)`` * w, c_out) holds
    the class maps, w pixels wide, one after the other; ``index`` (ps, ps)
    holds the row of ``out`` for each position of the window at (0, 0).  The
    window whose top-left map pixel is (t, s) reads rows ``index + t*w + s``.
    """
    h, w, c = xd.shape
    if h < ps or w < ps:
        raise ValueError(f"conv2d_windows needs a map of at least {ps}x{ps}, got {h}x{w}")
    taps = _tap_kernels(wd)
    b = taps.shape[2]
    axis = _border_classes(h, ps)
    n = len(axis)
    counts = [count for *_, count in axis]  # map rows per row class
    starts = np.cumsum([0] + [counts[r] * w for r in range(n) for _ in range(n)])
    out = np.zeros((starts[-1], b), dtype=xd.dtype)
    maps = [out[starts[i] : starts[i + 1]].reshape(-1, w, b) for i in range(n * n)]
    if c <= b:
        _class_maps_im2col(xd, taps, axis, maps)
    else:  # each tap's GEMM over the whole map once, shifted into the classes that keep it
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


def _class_maps_im2col(xd, taps, axis, maps):
    """The class maps on the im2col side (c_in <= c_out): the map's im2col
    columns, then per class its map rows with the column blocks of the taps
    it drops zeroed, in one ``_cols_matmul`` against the stacked taps.  Each
    row then holds the values, in the same K order, of the cut-out window's
    im2col row at that position."""
    h, w, c = xd.shape
    kernel = taps.reshape(9 * c, -1)
    cols = _im2col(xd[None]).reshape(h, w, 3, 3, c)
    for r, (top, _, keep_i, count) in enumerate(axis):
        for s, (_, _, keep_j, _) in enumerate(axis):
            rows = cols[top : top + count]
            dropped = ([(ki, slice(None)) for ki in range(3) if ki not in keep_i]
                       + [(slice(None), kj) for kj in range(3) if kj not in keep_j])
            if dropped:
                rows = rows.copy()
                for ki, kj in dropped:
                    rows[:, :, ki, kj] = 0
            _cols_matmul(rows.reshape(-1, 9 * c), kernel,
                         out=maps[len(axis) * r + s].reshape(-1, kernel.shape[1]))
