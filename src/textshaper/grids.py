"""Dense float64 grid primitives: convolution, sampling, resizing, gates.

Feature tensors are plain C-contiguous float64 ndarrays laid out
(batch, channel, height, width); masks and per-pixel maps are
(height, width). All operations are pure functions of their inputs.
"""

from __future__ import annotations

import numpy as np

# Byte budget of one chunk of gated attention's score matrix, of one block
# of polygon_iou's temporaries and of one block of synth_maps' tile
# bounds. Read at call time, except by polygon_iou's work budgets, which
# are fixed at import. conv2d needs no budget: its scratch is one tap's
# product, the size of its output.
CHUNK_BYTES = 64 << 20


class ShapeMismatchError(ValueError):
    """An operand dimension does not match its contract."""


def as_grid(values, ndim=None) -> np.ndarray:
    """Coerce to a C-contiguous float64 array, optionally checking rank."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if ndim is not None and arr.ndim != ndim:
        raise ShapeMismatchError(f"expected a {ndim}-d grid, got {arr.ndim}-d shape {arr.shape}")
    return arr


def conv2d(x, kernel, bias=None, stride=1, out=None) -> np.ndarray:
    """Cross-correlate (B,Cin,H,W) with (Cout,Cin,kh,kw), kh and kw odd.

    The input is zero padded by the kernel's reach, kh//2 rows and kw//2
    columns a side, so at stride s (an int >= 1) the output is
    (B,Cout,ceil(H/s),ceil(W/s)): the input's size at stride 1, half of it
    at stride 2.

    Evaluated by shifted taps, the accumulating "kn2row" scheme of
    Anderson et al. (arXiv 1709.03395): one GEMM per kernel tap and no
    column buffer. Tap (i, j) reads input pixel (s*y + i - kh//2,
    s*x + j - kw//2) for output pixel (y, x). At stride s the input is
    split into its s*s polyphase grids (Vaidyanathan, Multirate Systems and
    Filter Banks, 1993), grid (a, b) holding the pixels (s*r + a, s*c + b),
    so each tap reads one grid at a whole-pixel shift; at stride 1 the one
    grid is the input itself, not copied. Each grid fits the output's
    frame, so the taps go to `_shifted_taps` and write straight into the
    output. When the s*s grids together have no more channels than the
    output, the taps that share a shift are merged into one GEMM over the
    grids stacked as channels, with zero blocks for the grids the shift
    does not read: with so few input channels a GEMM costs about one pass
    over its output, so fewer, wider GEMMs are cheaper.

    The kernel's (kh*kw, Cout, Cin) tap matrices are read without a copy
    from a kernel stored tap-major, as the (Cout, Cin, kh, kw) view of
    such an array; any other layout is copied once per call. With out, a
    (B,Cout,Ho,Wo) array whose (Ho, Wo) planes are C-contiguous (a channel
    slice of a larger grid, say), the taps and bias are added into out in
    place, and out is returned.
    """
    if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ValueError(f"stride must be an int >= 1, got {stride!r}")
    x = as_grid(x, 4)
    # asarray, not as_grid: a tap-major kernel stays a view.
    k = np.asarray(kernel, dtype=np.float64)
    if k.ndim != 4:
        raise ShapeMismatchError(f"expected a 4-d grid, got {k.ndim}-d shape {k.shape}")
    cout, cin, kh, kw = k.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeMismatchError(f"kernel height/width must be odd, got {kh}x{kw}")
    if x.shape[1] != cin:
        raise ShapeMismatchError(
            f"input channel dimension {x.shape[1]} does not match kernel input channels {cin}")
    s = int(stride)
    bsz, _, h, w = x.shape
    if bias is not None:
        b = as_grid(bias, 1)
        if b.shape != (cout,):
            raise ShapeMismatchError(
                f"bias length {b.shape[0]} does not match output channels {cout}")
    ho, wo = -(-h // s), -(-w // s)
    add = out is not None
    if add:
        if out.shape != (bsz, cout, ho, wo):
            raise ShapeMismatchError(f"out shape {out.shape} != output shape {(bsz, cout, ho, wo)}")
        if out.strides[2:] != (out.itemsize * wo, out.itemsize):
            raise ValueError(f"out must have C-contiguous (H, W) planes, got strides {out.strides}")
    else:
        out = np.empty((bsz, cout, ho, wo))
    taps = np.ascontiguousarray(k.transpose(2, 3, 0, 1)).reshape(kh * kw, cout, cin)
    # Tap (i, j) reads polyphase grid p at shift (dy, dx).
    ph, pw = kh // 2, kw // 2
    plan = [(i * kw + j, (i - ph) % s * s + (j - pw) % s, (i - ph) // s, (j - pw) // s)
            for i in range(kh) for j in range(kw)]
    if s == 1:
        src = x.reshape(1, bsz, cin, h * w)
    else:
        phases = np.zeros((bsz, s * s, cin, ho, wo))
        for a in range(s):
            for c in range(s):
                phase = x[:, :, a::s, c::s]
                phases[:, a * s + c, :, :phase.shape[2], :phase.shape[3]] = phase
        src = phases.reshape(bsz, s * s, cin, ho * wo).transpose(1, 0, 2, 3)
    if s > 1 and s * s * cin <= cout:
        shifts = sorted({(dy, dx) for _, _, dy, dx in plan})
        merged = np.zeros((len(shifts), cout, s * s, cin))
        for t, p, dy, dx in plan:
            merged[shifts.index((dy, dx)), :, p] = taps[t]
        taps = merged.reshape(len(shifts), cout, s * s * cin)
        src = phases.reshape(1, bsz, s * s * cin, ho * wo)
        plan = [(g, 0, dy, dx) for g, (dy, dx) in enumerate(shifts)]
    _shifted_taps(src, taps, plan, ho, wo, out.reshape(bsz, cout, ho * wo), add=add)
    if bias is not None:
        out += b[None, :, None, None]
    return out


def _shifted_taps(src, taps: np.ndarray, plan, h: int, w: int, out: np.ndarray,
                 add: bool = False) -> np.ndarray:
    """Sum of shifted per-tap GEMMs over an (h, w) frame, written into out.

    src is a (P, B, Cin, h*w) stack of flattened input grids, taps a
    (T, Cout, Cin) stack of C-contiguous tap matrices, and plan a sequence
    of (t, p, dy, dx). For each, out[..., y, x] gets taps[t] @ src[p] at
    pixel (y + dy, x + dx), zero outside the frame; out is (B, Cout, h*w).
    With add, the taps are added to out's contents; otherwise out is
    overwritten, and the first tap with no shift, if there is one, is
    written by its GEMM straight into out.

    Each other tap's product y_t goes to one scratch array, and a shift is
    one flat shift of the pixel axis by dy*w + dx, so every add is over
    contiguous runs. A horizontal shift would carry each row's first (or
    last) |dx| pixels into the neighbouring row, so those columns of y_t
    are zeroed first. A tap that shifts the whole frame out is skipped.
    Only one y_t is alive at a time.
    """
    n = h * w
    plan = [e for e in plan if abs(e[2]) < h and abs(e[3]) < w]
    if not add:
        first = next((e for e in plan if e[2] == e[3] == 0), None)
        if first is None:
            out[...] = 0.0
        else:
            np.matmul(taps[first[0]], src[first[1]], out=out)
            plan.remove(first)
    if not plan:
        return out
    y_t = np.empty(out.shape)
    cols = y_t.reshape(*out.shape[:-1], h, w)
    for t, p, dy, dx in plan:
        np.matmul(taps[t], src[p], out=y_t)
        if dx > 0:
            cols[..., :dx] = 0.0
        elif dx < 0:
            cols[..., dx:] = 0.0
        # out[..., q] += y_t[..., q + shift], zero beyond the frame.
        shift = dy * w + dx
        lo, hi = max(shift, 0), n - max(-shift, 0)
        out[..., lo - shift:hi - shift] += y_t[..., lo:hi]
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
    """Bilinearly upsample (B,C,H,W) to (B,C,2H,2W), half-pixel aligned.

    The rows are blended first, then the columns, each as fixed-weight
    blends of strided slices: output row 2r is x[r-1]/4 + 3x[r]/4 and row
    2r+1 is 3x[r]/4 + x[r+1]/4, and the first and last rows copy the edge
    rows. That is resize_bilinear's arithmetic, except at the edges, where
    the copy also keeps a non-finite neighbour out: every output is a
    blend of only the inputs it weights.
    """
    x = as_grid(x, 4)
    return _blend2x(_blend2x(x, -2), -1)


def _blend2x(x: np.ndarray, axis: int) -> np.ndarray:
    """upsample2x's pass along one axis (-2 or -1) of x."""
    def at(a, index):
        return a[(Ellipsis, index) + (slice(None),) * (-1 - axis)]

    shape = list(x.shape)
    shape[axis] *= 2
    out = np.empty(shape)
    quarter = 0.25 * x
    three_quarters = 0.75 * x
    np.add(at(quarter, slice(None, -1)), at(three_quarters, slice(1, None)),
           out=at(out, slice(2, None, 2)))
    np.add(at(three_quarters, slice(None, -1)), at(quarter, slice(1, None)),
           out=at(out, slice(1, -1, 2)))
    at(out, 0)[...] = at(x, 0)
    at(out, -1)[...] = at(x, -1)
    return out


def logistic(x) -> np.ndarray:
    """Numerically stable elementwise logistic sigmoid, as a new array.

    It is exp(min(x, 0)) / (1 + exp(min(x, -x))): 1/(1+e) where x >= 0 and
    e/(1+e) elsewhere, with e = exp(-|x|), so exp never overflows and no
    branch or mask is needed. -|x| is taken as min(x, -x), which keeps the
    sign of a NaN input.
    """
    return _logistic_inplace(np.array(x, dtype=np.float64))


def _logistic_inplace(x: np.ndarray) -> np.ndarray:
    """`logistic` of a float64 array, written into that array and returned.
    Needs one scratch array of x's size."""
    e = np.negative(x, out=np.empty_like(x))
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    e += 1.0
    np.minimum(x, 0.0, out=x)
    np.exp(x, out=x)
    x /= e
    return x

