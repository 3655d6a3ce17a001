"""Dense float64 grid primitives: convolution, sampling, softmax, resizing.

Feature tensors are plain C-contiguous float64 ndarrays laid out
(batch, channel, height, width); masks and per-pixel maps are
(height, width). All operations are pure functions of their inputs.
"""

from __future__ import annotations

import numpy as np

# Byte budget of one block of conv2d's column buffer and of one chunk of
# gated attention's score matrix. Read at call time.
CHUNK_BYTES = 64 << 20


class ShapeMismatchError(ValueError):
    """An operand dimension does not match its contract."""


def as_grid(values, ndim=None) -> np.ndarray:
    """Coerce to a C-contiguous float64 array, optionally checking rank."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if ndim is not None and arr.ndim != ndim:
        raise ShapeMismatchError(f"expected a {ndim}-d grid, got {arr.ndim}-d shape {arr.shape}")
    return arr


def conv2d(x, kernel, bias=None, stride=1, padding=0) -> np.ndarray:
    """Cross-correlate (B,Cin,H,W) with (Cout,Cin,kh,kw), zero padding.

    stride is an int >= 1; padding is a non-negative int or a (ph, pw)
    pair. Output spatial size is (H + 2*ph - kh)//stride + 1 per axis.

    Evaluated as im2col plus GEMM, in blocks of output rows: for each
    block, each kernel tap (i, j) copies its strided window of the padded
    input into a (B, Cin, kh, kw, rows, Wo) column buffer, which one matmul
    with the (Cout, Cin*kh*kw) kernel contracts into the block's rows of
    the output. A block holds as many rows as fit in CHUNK_BYTES (at least
    one), and every block reuses the same buffer.
    """
    if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ValueError(f"stride must be an int >= 1, got {stride!r}")
    pads = (padding, padding) if np.ndim(padding) == 0 else tuple(padding)
    if len(pads) != 2 or any(isinstance(p, bool) or not isinstance(p, (int, np.integer)) or p < 0
                             for p in pads):
        raise ValueError(f"padding must be an int >= 0 or a pair of them, got {padding!r}")
    x = as_grid(x, 4)
    k = as_grid(kernel, 4)
    cout, cin, kh, kw = k.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeMismatchError(f"kernel height/width must be odd, got {kh}x{kw}")
    if x.shape[1] != cin:
        raise ShapeMismatchError(
            f"input channel dimension {x.shape[1]} does not match kernel input channels {cin}")
    ph, pw = pads
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    if xp.shape[2] < kh or xp.shape[3] < kw:
        raise ShapeMismatchError(
            f"padded input {xp.shape[2]}x{xp.shape[3]} smaller than kernel {kh}x{kw}")
    bsz = x.shape[0]
    ho = (xp.shape[2] - kh) // stride + 1
    wo = (xp.shape[3] - kw) // stride + 1
    if bias is not None:
        b = as_grid(bias, 1)
        if b.shape != (cout,):
            raise ShapeMismatchError(
                f"bias length {b.shape[0]} does not match output channels {cout}")
    taps = cin * kh * kw
    rows = min(ho, max(1, CHUNK_BYTES // max(1, 8 * bsz * taps * wo)))
    buf = np.empty(bsz * taps * rows * wo)
    kmat = k.reshape(cout, taps)
    out = np.empty((bsz, cout, ho, wo))
    out_flat = out.reshape(bsz, cout, ho * wo)
    for r0 in range(0, ho, rows):
        r1 = min(r0 + rows, ho)
        n = (r1 - r0) * wo
        cols = buf[:bsz * taps * n].reshape(bsz, cin, kh, kw, r1 - r0, wo)
        for i in range(kh):
            for j in range(kw):
                cols[:, :, i, j] = xp[:, :, i + stride * r0:i + stride * r1:stride,
                                      j:j + stride * wo:stride]
        np.matmul(kmat, cols.reshape(bsz, taps, n), out=out_flat[:, :, r0 * wo:r1 * wo])
    if bias is not None:
        out += b[None, :, None, None]
    return out


def bilinear_sample(x, points) -> np.ndarray:
    """Sample a (C,H,W) grid at fractional (y, x) points.

    Coordinates outside [0,H-1]x[0,W-1] interpolate against zeros beyond the
    border, so a point far outside the grid returns 0. Returns (C, N).
    """
    x = as_grid(x, 3)
    c, h, w = x.shape
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    py, px = pts[:, 0], pts[:, 1]
    y0 = np.floor(py)
    x0 = np.floor(px)
    wy = py - y0
    wx = px - x0
    out = np.zeros((c, pts.shape[0]))
    for dy in (0, 1):
        yy = y0 + dy
        weight_y = wy if dy else 1.0 - wy
        for dx in (0, 1):
            xx = x0 + dx
            weight = weight_y * (wx if dx else 1.0 - wx)
            ok = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w) & (weight != 0)
            if np.any(ok):
                out[:, ok] += weight[ok] * x[:, yy[ok].astype(np.intp), xx[ok].astype(np.intp)]
    return out


def row_softmax(x) -> np.ndarray:
    """Softmax over the last axis of an (N,M) grid, max-subtracted for stability."""
    return row_softmax_inplace(as_grid(x, 2).copy())


def row_softmax_inplace(s: np.ndarray) -> np.ndarray:
    """row_softmax computed in the (N,M) float64 array s itself; returns s."""
    s -= s.max(axis=1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=1, keepdims=True)
    return s


def resize_bilinear(x, out_h, out_w) -> np.ndarray:
    """Bilinearly resize the last two axes to (out_h, out_w).

    Half-pixel-aligned sampling with edge clamping, so constant inputs stay
    constant and upsampled grids keep the source's value range.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        raise ShapeMismatchError(f"resize needs at least 2 dims, got shape {x.shape}")
    h, w = x.shape[-2], x.shape[-1]

    def coords(n_out, n_in):
        c = np.clip((np.arange(n_out) + 0.5) * n_in / n_out - 0.5, 0.0, n_in - 1.0)
        lo = np.floor(c).astype(np.intp)
        hi = np.minimum(lo + 1, n_in - 1)
        return lo, hi, c - lo

    y0, y1, wy = coords(out_h, h)
    x0, x1, wx = coords(out_w, w)
    rows = x[..., y0, :] * (1.0 - wy)[..., :, None] + x[..., y1, :] * wy[..., :, None]
    out = rows[..., :, x0] * (1.0 - wx) + rows[..., :, x1] * wx
    return np.ascontiguousarray(out)


def upsample2x(x) -> np.ndarray:
    """Bilinearly upsample (B,C,H,W) to (B,C,2H,2W)."""
    x = as_grid(x, 4)
    return resize_bilinear(x, 2 * x.shape[2], 2 * x.shape[3])


def logistic(x) -> np.ndarray:
    """Numerically stable elementwise logistic sigmoid.

    With e = exp(-|x|), it is 1/(1+e) where x >= 0 and e/(1+e) elsewhere,
    so exp never overflows. -|x| is taken as min(x, -x), which keeps the
    sign of a NaN input.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.negative(x, out=np.empty_like(x))
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    num = np.where(x >= 0, 1.0, e)
    e += 1.0
    num /= e
    return num


def relu(x) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)
