"""Snake convolution: 1-d kernels whose taps follow accumulated offsets.

A snake kernel slides a 1xL (or Lx1) stencil whose sample positions bend
away from the straight line: starting at the center tap, each step outward
adds the base unit step along the kernel axis plus a clamped fractional
2-d displacement, accumulated cumulatively. With zero offsets this reduces
exactly to a standard 1-d convolution; with small offsets the taps snake
along thin structures. Samples are gathered bilinearly with zero padding.

Evaluation is one GEMM per tap. Each tap's weight slice contracts the input
channels first, and only the Cout-channel result is moved to the tap's
sample positions: shifted as a slice for a straight kernel, gathered
bilinearly for an offset one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import ShapeMismatchError, as_grid, bilinear_sample

HORIZONTAL = "horizontal"
VERTICAL = "vertical"


@dataclass(frozen=True)
class SnakeKernel:
    """Weights and per-pixel tap displacements for one snake convolution.

    weights: (cout, cin, length) with odd length.
    offsets: (2*length, H, W) or None for a straight kernel. Channel pair
        (2*t, 2*t+1) holds the (dy, dx) displacement of tap t; each
        component is clamped to [-offset_bound, offset_bound] before the
        cumulative sum. Offsets are shared across channels.
    """

    axis: str
    weights: np.ndarray
    offsets: np.ndarray | None = None
    offset_bound: float = 1.0

    def __post_init__(self):
        if self.axis not in (HORIZONTAL, VERTICAL):
            raise ValueError(f"axis must be '{HORIZONTAL}' or '{VERTICAL}', got {self.axis!r}")
        w = as_grid(self.weights, 3)
        if w.shape[2] % 2 == 0:
            raise ShapeMismatchError(f"kernel length must be odd, got {w.shape[2]}")
        if not np.all(np.isfinite(w)):
            raise ValueError("snake kernel weights must be finite")
        object.__setattr__(self, "weights", w)
        if self.offsets is not None:
            off = as_grid(self.offsets, 3)
            if off.shape[0] != 2 * w.shape[2]:
                raise ShapeMismatchError(
                    f"offsets first dimension {off.shape[0]} must equal 2*length={2 * w.shape[2]}")
            if not np.all(np.isfinite(off)):
                raise ValueError("snake kernel offsets must be finite")
            object.__setattr__(self, "offsets", off)
        if not (self.offset_bound > 0):
            raise ValueError(f"offset_bound must be positive, got {self.offset_bound}")

    @property
    def length(self) -> int:
        return self.weights.shape[2]

    @property
    def cout(self) -> int:
        return self.weights.shape[0]

    @property
    def cin(self) -> int:
        return self.weights.shape[1]


def tap_positions(kernel: SnakeKernel, h: int, w: int) -> np.ndarray:
    """Absolute (y, x) sample positions per tap for an h-by-w output grid.

    Returns (length, 2, h, w). Position of tap c+k (k>0) is the pixel plus
    k base steps along the axis plus the cumulative clamped displacements of
    taps c+1..c+k; symmetric going left. The center tap sits exactly on the
    pixel. Along the kernel axis the positions are strictly increasing as
    long as offset_bound < 1.
    """
    length = kernel.length
    center = length // 2
    if kernel.offsets is None:
        off = np.zeros((length, 2, h, w))
    else:
        if kernel.offsets.shape[1:] != (h, w):
            raise ShapeMismatchError(
                f"offsets spatial shape {kernel.offsets.shape[1:]} does not match input {(h, w)}")
        off = kernel.offsets.reshape(length, 2, h, w)
    off = np.clip(off, -kernel.offset_bound, kernel.offset_bound)
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64),
                         indexing="ij")
    step = np.array([0.0, 1.0]) if kernel.axis == HORIZONTAL else np.array([1.0, 0.0])
    pos = np.empty((length, 2, h, w))
    pos[center, 0] = yy
    pos[center, 1] = xx
    acc = np.zeros((2, h, w))
    for k in range(1, center + 1):
        acc = acc + off[center + k]
        pos[center + k, 0] = yy + k * step[0] + acc[0]
        pos[center + k, 1] = xx + k * step[1] + acc[1]
    acc = np.zeros((2, h, w))
    for k in range(1, center + 1):
        acc = acc + off[center - k]
        pos[center - k, 0] = yy - k * step[0] + acc[0]
        pos[center - k, 1] = xx - k * step[1] + acc[1]
    return pos


def dsc_forward(x, kernel: SnakeKernel) -> np.ndarray:
    """Snake convolution of (B,Cin,H,W), producing (B,Cout,H,W).

    Evaluated one tap at a time, channels first: the tap's (Cout, Cin)
    weight slice multiplies every pixel in one GEMM, y_t = W_t @ x, and
    y_t is then placed at the tap's sample positions. Because sampling is
    linear and shared across channels this equals sampling x and
    contracting afterwards, but gathers Cout channels instead of Cin. A
    straight kernel (offsets=None) samples on whole-pixel shifts along its
    axis, so y_t is added as a shifted slice with no gather at all; a tap
    that shifts the whole axis out of the frame is skipped. Only one tap's
    y_t is alive at a time.

    Output is linear in the input for fixed offsets. Zero offsets reproduce
    a zero-padded standard 1xL (or Lx1) convolution with the same weights.
    """
    x = as_grid(x, 4)
    b, cin, h, w = x.shape
    if cin != kernel.cin:
        raise ShapeMismatchError(
            f"input channel dimension {cin} does not match kernel input channels {kernel.cin}")
    cout, length = kernel.cout, kernel.length
    center = length // 2
    pos = None if kernel.offsets is None else tap_positions(kernel, h, w)
    axis_len = w if kernel.axis == HORIZONTAL else h
    # (cout, length, cin): each tap's weight slice has unit stride along cin,
    # so it feeds BLAS directly.
    taps = np.ascontiguousarray(kernel.weights.transpose(0, 2, 1))
    x_flat = x.reshape(b, cin, h * w)
    y_t = np.empty((b, cout, h * w))
    out = np.zeros((b, cout, h, w))
    for t in range(length):
        k = t - center
        if pos is None and abs(k) >= axis_len:
            continue
        np.matmul(taps[:, t], x_flat, out=y_t)
        if pos is not None:
            pts = pos[t].reshape(2, -1).T
            out += bilinear_sample(y_t.reshape(b * cout, h, w), pts).reshape(b, cout, h, w)
            continue
        # out[..., p] += y_t[..., p + k] along the kernel axis, zero beyond the border.
        src = y_t.reshape(b, cout, h, w)
        dst_ax = slice(max(-k, 0), axis_len - max(k, 0))
        src_ax = slice(max(k, 0), axis_len - max(-k, 0))
        if kernel.axis == HORIZONTAL:
            out[:, :, :, dst_ax] += src[:, :, :, src_ax]
        else:
            out[:, :, dst_ax] += src[:, :, src_ax]
    return out
