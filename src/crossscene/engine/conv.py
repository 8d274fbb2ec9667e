"""3x3 convolution kernels on channels-last arrays: stride 1, zero padding 1.

Arrays in, arrays out: nothing here records on the tape.  ``tensor.conv2d``
calls ``forward``, and its VJP calls ``backward``; scene inference calls
``conv2d_windows``.  Maps are (n, h, w, c); kernels keep their
(c_out, c_in, 3, 3) parameter layout.

The input gradient is the transposed conv run on g: c_out -> c_in with the
kernel rotated 180 degrees, channels swapped (Dumoulin & Visin 2016).
Each a -> b conv expands only its narrower channel side, chosen from the
channel counts alone (never h*w, the batch size or a timing):

- a <= b: one unrolled GEMM with K = 9*a (im2col, Chellapilla, Puri &
  Simard 2006), ``_conv_im2col``;
- a > b: one GEMM per kernel tap, each shifted into the output (the kn2row
  family, Vasudevan, Anderson & Gregg 2017), ``_conv_per_tap``.

The weight gradient is one product, ``g.T @ im2col(x)``; where x is the wider
side it is the transposed conv's, which unrolls g.  So no expanded matrix is
wider than 9*min(c_in, c_out).

A column matrix (n*h*w rows) is built whole while it fits in
``COL_BYTES``.  Past that, no piece is wider than one tap's columns: an
im2col GEMM (the forward or the input gradient) takes a ninth of the images
at a time, and the weight gradient one tap at a time (whole where a tap's
product would be small, see ``_SMALL_GEMM``).  Each piece is a block of the
one GEMM's rows or columns with K whole, and no gw piece is a small product,
so gw keeps the whole product's bits at every width, and the forward and gx
at the preset channel counts (at others, see the next paragraph).

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
# this many bytes, and in pieces past it; the weight gradient's alone stays
# whole past it where one tap's product is small (see _SMALL_GEMM).  Scene
# inference's row strips hold at most this many bytes of stem maps.  Of the
# preset shapes' column matrices (100 patches) only synth's (1.4 MB, 9*16
# columns) stays whole: hyrank's (5.6 MB), pavia's (9.3 MB) and houston's
# (25.9 MB, 9*32 columns each) go in pieces.  At 12 MiB, which kept hyrank's
# and pavia's whole, one hyrank-shape stream's step peaked at 13.1 MiB of
# arrays, and at 4 MiB at 8.7 MiB.  Pieces cost time, but a two-stream hyrank
# step read 0-2.5% slower (60 interleaved steps, two runs), inside the spread
# of a run's step times, for about 12% of hyrank-map's peak RSS.
COL_BYTES = 4 << 20

# OpenBLAS 0.3.31 runs a product with M*N*K <= 1e6 through its small-matrix
# kernel, which does not split K, so it rounds a long K differently from the
# same rows or columns inside a larger product.  A K = 576 product of one 7x7
# image would get other bits alone than in a batch; at K <= 288 the two agree,
# so the column product takes K in slices of 288.  The weight gradient never
# splits its K = n*h*w, and keeps its columns whole where one tap's product
# would fall under the bound: 36e6 bytes over the other side's channels at
# most, so past COL_BYTES only where that side has at most 8.
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
    """(gx, gw) of ``forward(xd, wd)`` for the output gradient ``g``; gx, the
    transposed conv of g, is None unless ``needs_gx``."""
    gw = _conv_weight_grad(xd, g)
    if not needs_gx:
        return None, gw
    return _conv3x3(g, _tap_kernels(_transposed(wd))), gw


def padded_rows(xd, extra=0):
    """(rows, offs): the map zero-padded by one pixel and flattened to
    (n*(h+2)*(w+2) + extra, c) rows, the last ``extra`` rows zero, and the
    row offset of each 3x3 tap (ki, kj) in raster order."""
    n, h, w, c = xd.shape
    count = n * (h + 2) * (w + 2)
    rows = np.zeros((count + extra, c), dtype=xd.dtype)
    rows[:count].reshape(n, h + 2, w + 2, c)[:, 1:-1, 1:-1] = xd
    return rows, [ki * (w + 2) + kj for ki in range(3) for kj in range(3)]


def _transposed(wd):
    """The transposed conv's kernel, a (c_in, c_out, 3, 3) view of ``wd``."""
    return wd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)


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


def _tap_cols(xd):
    """The column blocks of ``_im2col(xd)``, one tap's (n*h*w, c) at a time."""
    windows = _windows(xd)
    n, h, w, _, _, c = windows.shape
    for k in range(9):
        yield windows[:, :, :, k // 3, k % 3].reshape(n * h * w, c)


def _cols_matmul(cols, kernel, out=None):
    """``cols @ kernel`` (into ``out`` if given), K taken in slices of ``_K_SLICE``."""
    out = np.matmul(cols[:, :_K_SLICE], kernel[:_K_SLICE], out=out)
    for k in range(_K_SLICE, cols.shape[1], _K_SLICE):
        out += cols[:, k : k + _K_SLICE] @ kernel[k : k + _K_SLICE]
    return out


def _conv_im2col(xd, taps):
    """One GEMM of ``_im2col(xd)`` against the taps stacked to K = 9*a.

    The columns are built whole while they fit in ``COL_BYTES``, and the
    output is allocated after them, once their padded input is gone.  Past
    that, a ninth of the images at a time, so no block is wider than one
    tap's columns (the weight gradient's pieces, see ``_tap_cols``); each
    block goes into its rows of an output allocated first, since allocating
    it after the first block raised houston-train's peak RSS by about 5%.
    """
    n, h, w, a = xd.shape
    kernel = taps.reshape(9 * a, -1)
    b = kernel.shape[1]
    if _col_bytes(xd, a) <= COL_BYTES:
        return _cols_matmul(_im2col(xd), kernel).reshape(n, h, w, b)
    out = np.empty((n, h, w, b), dtype=xd.dtype)
    step = -(-n // 9)
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
    """The (c_out, c_in, 3, 3) kernel gradient ``g.T @ im2col(x)``, whole
    while x's columns fit ``COL_BYTES`` or a tap's product is small
    (``_SMALL_GEMM``), else a tap at a time; K = n*h*w is never split, so
    the pieces give the whole product's bits at every width (and, on
    OpenBLAS 0.3.31 SkylakeX, those of ``im2col(x).T @ g``).  Where c_in >
    c_out, the transposed conv's (input g, output gradient x)."""
    c, c_out = xd.shape[3], g.shape[3]
    if c > c_out:
        return np.ascontiguousarray(_transposed(_conv_weight_grad(g, xd)))
    gt = g.reshape(-1, c_out).T
    whole = _col_bytes(xd, c) <= COL_BYTES or xd.size * c_out <= _SMALL_GEMM
    cols = [_im2col(xd)] if whole else _tap_cols(xd)
    # map, unlike a loop variable, drops each column block before building the next
    gw = np.concatenate(list(map(lambda part: gt @ part, cols)), axis=1)
    return gw.reshape(c_out, 3, 3, c).transpose(0, 3, 1, 2).copy()


# -- every window of one map at once (scene inference) ----------------------


def _border_classes(h, ps):
    """Per border class along one axis of ps-wide windows over h map rows:
    its first and last window position, the taps it keeps, and the count of
    map rows where it occurs in some window."""
    axis = [(0, 0, (1, 2)), (1, ps - 2, (0, 1, 2)), (ps - 1, ps - 1, (0, 1))]
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
    bottom, left or right edge.  So the map is convolved once per border
    class (top, middle or bottom row x left, middle or right column), each
    class only over the map rows where it occurs in some window (ps >= 3,
    so that an axis has its three classes).  Each class repeats the batched
    conv's arithmetic on the same side of the channel rule.  On the per-tap
    side (c_in > c_out) a class adds its taps in order 0..8 onto zeros, the
    subset of what ``_conv_per_tap`` adds; on the im2col side a class
    multiplies the map's columns by a kernel whose dropped taps are zero,
    which adds only zero products where the cut-out window's im2col row
    reads its padding (``_class_maps_im2col``).  So a window cut from the
    classes is bit for bit its batched conv wherever the GEMM gives a row
    the same bits at any row count, and the map and kernel are finite.

    Returns (out, index): ``out`` (``class_rows(h, ps)`` * w, c_out) holds
    the class maps, w pixels wide, one after the other; ``index`` (ps, ps)
    holds the row of ``out`` for each position of the window at (0, 0).  The
    window whose top-left map pixel is (t, s) reads rows ``index + t*w + s``.
    """
    h, w, c = xd.shape
    if ps < 3 or h < ps or w < ps:
        raise ValueError(f"conv2d_windows needs windows of at least 3x3 on a map at least as "
                         f"large, got {ps}x{ps} windows on a {h}x{w} map")
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
            np.matmul(rows, taps[k], out=part.reshape(-1, b))
            oj, ij = _SHIFTS[1 - kj]
            for r, s in users:
                top = axis[r][0] + ki - 1  # the part row read by the class map's first row
                maps[n * r + s][:, oj] += part[top : top + counts[r], ij]
    out += bd
    cls = [0] + [1] * (ps - 2) + [2]
    index = np.array([[starts[n * cls[i] + cls[j]] + (i - axis[cls[i]][0]) * w + j
                       for j in range(ps)] for i in range(ps)], dtype=np.int64)
    return out, index


def _class_maps_im2col(xd, taps, axis, maps):
    """The class maps on the im2col side (c_in <= c_out): per class, its map
    rows of the map's im2col columns in one ``_cols_matmul`` against the
    stacked taps with its dropped taps zeroed.  These add x*0 where the
    cut-out window's im2col row adds 0*w from its zero padding, in the same
    K order: the same bits while x and w are finite."""
    h, w, c = xd.shape
    cols = _im2col(xd[None]).reshape(h, w, 9 * c)
    for r, (top, _, keep_i, count) in enumerate(axis):
        for s, (_, _, keep_j, _) in enumerate(axis):
            kernel = taps.reshape(3, 3, c, -1).copy()
            kernel[[ki for ki in range(3) if ki not in keep_i]] = 0
            kernel[:, [kj for kj in range(3) if kj not in keep_j]] = 0
            _cols_matmul(cols[top : top + count].reshape(-1, 9 * c), kernel.reshape(9 * c, -1),
                         out=maps[len(axis) * r + s].reshape(-1, kernel.shape[3]))
