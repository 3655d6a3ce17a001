"""Snake convolution with straight 1xL or Lx1 kernels.

In the paper's dynamic snake the taps bend along thin structures, following
offsets that a small conv predicts from the input (Qi et al., ICCV 2023).
Untrained, those offsets are zero and the snake is exactly a zero-padded
standard 1-d convolution. This package has no training loop and no trained
weights, so every kernel is straight.

Evaluation is one GEMM per tap. Each tap's weight slice contracts the input
channels first, and the Cout-channel result is added as a slice shifted
along the kernel axis.
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

    It carries no offsets: static per-pixel ones would tie it to one input
    size, and dynamic ones stay zero without training.
    """

    axis: str
    weights: np.ndarray

    def __post_init__(self):
        if self.axis not in (HORIZONTAL, VERTICAL):
            raise ValueError(f"axis must be '{HORIZONTAL}' or '{VERTICAL}', got {self.axis!r}")
        w = as_grid(self.weights, 3)
        if w.shape[2] % 2 == 0:
            raise ShapeMismatchError(f"kernel length must be odd, got {w.shape[2]}")
        if not np.all(np.isfinite(w)):
            raise ValueError("snake kernel weights must be finite")
        object.__setattr__(self, "weights", w)

    @property
    def length(self) -> int:
        return self.weights.shape[2]

    @property
    def cout(self) -> int:
        return self.weights.shape[0]

    @property
    def cin(self) -> int:
        return self.weights.shape[1]


def dsc_forward(x, kernel: SnakeKernel) -> np.ndarray:
    """Snake convolution of (B,Cin,H,W), producing (B,Cout,H,W).

    Every kernel is straight (see the module docstring), so this is a
    zero-padded 1xL (or Lx1) convolution with the same weights. Tap
    t = center + k costs one GEMM over every pixel, y_t = W_t @ x, added as
    a slice shifted by k along the kernel axis; a tap that shifts the whole
    axis out of the frame is skipped. Only one tap's y_t is alive at a time.
    """
    x = as_grid(x, 4)
    b, cin, h, w = x.shape
    if cin != kernel.cin:
        raise ShapeMismatchError(
            f"input channel dimension {cin} does not match kernel input channels {kernel.cin}")
    cout, length = kernel.cout, kernel.length
    center = length // 2
    axis_len = w if kernel.axis == HORIZONTAL else h
    # (cout, length, cin): each tap's weight slice has unit stride along cin,
    # so it feeds BLAS directly.
    taps = np.ascontiguousarray(kernel.weights.transpose(0, 2, 1))
    x_flat = x.reshape(b, cin, h * w)
    y_t = np.empty((b, cout, h * w))
    src = y_t.reshape(b, cout, h, w)
    out = np.zeros((b, cout, h, w))
    for t in range(length):
        k = t - center
        if abs(k) >= axis_len:
            continue
        np.matmul(taps[:, t], x_flat, out=y_t)
        # out[..., p] += y_t[..., p + k] along the kernel axis, zero beyond the border.
        dst_ax = slice(max(-k, 0), axis_len - max(k, 0))
        src_ax = slice(max(k, 0), axis_len - max(-k, 0))
        if kernel.axis == HORIZONTAL:
            out[:, :, :, dst_ax] += src[:, :, :, src_ax]
        else:
            out[:, :, dst_ax] += src[:, :, src_ax]
    return out
