"""Snake convolution with straight 1xL or Lx1 kernels.

In the paper's dynamic snake the taps bend along thin structures, following
offsets that a small conv predicts from the input (Qi et al., ICCV 2023).
Untrained, those offsets are zero and the snake is exactly a zero-padded
standard 1-d convolution. This package has no training loop and no trained
weights, so every kernel is straight.

Evaluation is one GEMM per tap. Each tap's stored (Cout, Cin) weight matrix
contracts the input channels first, and the Cout-channel result is added
as a slice shifted along the kernel axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# bilinear_sample is unused here; perfbench/tracing.py looks it up on snakeconv.
from .grids import ShapeMismatchError, as_grid, bilinear_sample  # noqa: F401

HORIZONTAL = "horizontal"
VERTICAL = "vertical"


@dataclass(frozen=True)
class SnakeKernel:
    """Weights (cout, cin, length), odd length, of one straight snake kernel.

    The weights are stored once, tap-major: `taps` is a C-contiguous
    (length, cout, cin) array, so each tap's (cout, cin) slice has unit
    stride along cin and feeds BLAS as it is, and `weights` is its
    (cout, cin, length) view. Weights given as that view of a tap-major
    array are kept without a copy; any other layout is copied once.

    It carries no offsets: static per-pixel ones would tie it to one input
    size, and dynamic ones stay zero without training.
    """

    axis: str
    weights: np.ndarray

    def __post_init__(self):
        if self.axis not in (HORIZONTAL, VERTICAL):
            raise ValueError(f"axis must be '{HORIZONTAL}' or '{VERTICAL}', got {self.axis!r}")
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 3:
            raise ShapeMismatchError(f"expected a 3-d grid, got {w.ndim}-d shape {w.shape}")
        if w.shape[2] % 2 == 0:
            raise ShapeMismatchError(f"kernel length must be odd, got {w.shape[2]}")
        if not np.all(np.isfinite(w)):
            raise ValueError("snake kernel weights must be finite")
        taps = np.ascontiguousarray(w.transpose(2, 0, 1))
        object.__setattr__(self, "weights", taps.transpose(1, 2, 0))

    @property
    def taps(self) -> np.ndarray:
        """The stored (length, cout, cin) C-contiguous tap matrices."""
        return self.weights.transpose(2, 0, 1)

    @property
    def length(self) -> int:
        return self.weights.shape[2]

    @property
    def cout(self) -> int:
        return self.weights.shape[0]

    @property
    def cin(self) -> int:
        return self.weights.shape[1]


def dsc_forward(x, kernel: SnakeKernel, out=None) -> np.ndarray:
    """Snake convolution of (B,Cin,H,W), producing (B,Cout,H,W).

    Every kernel is straight (see the module docstring), so this is a
    zero-padded 1xL (or Lx1) convolution with the same weights. Tap
    t = center + k costs one GEMM over every pixel, y_t = W_t @ x, with
    the stored (cout, cin) tap matrix W_t, added to the output shifted by
    k pixels along the kernel axis; a tap that shifts the whole axis out of
    the frame is skipped. Only one tap's y_t is alive at a time.

    Each shift is one flat shift of the (H*W) pixel axis, by k for a
    horizontal kernel and by k*W for a vertical one, so every add is over
    contiguous runs. A horizontal shift would carry each row's first (or
    last) |k| pixels into the neighbouring row, so those columns of y_t
    are zeroed first.

    With out, a (B,Cout,H,W) array whose (H, W) planes are C-contiguous
    (a channel slice of a larger grid, say), the convolution is added into
    out, which is returned; otherwise it is added into a new zero array.
    """
    x = as_grid(x, 4)
    b, cin, h, w = x.shape
    if cin != kernel.cin:
        raise ShapeMismatchError(
            f"input channel dimension {cin} does not match kernel input channels {kernel.cin}")
    cout, length = kernel.cout, kernel.length
    if out is None:
        out = np.zeros((b, cout, h, w))
    elif out.shape != (b, cout, h, w):
        raise ShapeMismatchError(f"out shape {out.shape} != output shape {(b, cout, h, w)}")
    elif out.strides[2:] != (out.itemsize * w, out.itemsize):
        raise ValueError(f"out must have C-contiguous (H, W) planes, got strides {out.strides}")
    n = h * w
    out_flat = out.reshape(b, cout, n)
    center = length // 2
    horizontal = kernel.axis == HORIZONTAL
    axis_len = w if horizontal else h
    taps = kernel.taps
    x_flat = x.reshape(b, cin, n)
    y_t = np.empty((b, cout, n))
    cols = y_t.reshape(b, cout, h, w)
    for t in range(length):
        k = t - center
        if abs(k) >= axis_len:
            continue
        np.matmul(taps[t], x_flat, out=y_t)
        if horizontal and k > 0:
            cols[..., :k] = 0.0
        elif horizontal and k < 0:
            cols[..., k:] = 0.0
        # out[..., p] += y_t[..., p + shift], zero beyond the border.
        shift = k if horizontal else k * w
        lo, hi = max(shift, 0), n - max(-shift, 0)
        out_flat[..., lo - shift:hi - shift] += y_t[..., lo:hi]
    return out
