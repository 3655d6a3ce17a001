"""Snake convolution with straight 1xL or Lx1 kernels.

In the paper's dynamic snake the taps bend along thin structures, following
offsets that a small conv predicts from the input (Qi et al., ICCV 2023).
Untrained, those offsets are zero and the snake is exactly a zero-padded
standard 1-d convolution. This package has no training loop and no trained
weights, so every kernel is straight.

Evaluation is grids.conv2d's shifted-tap scheme in one dimension: one GEMM
per tap, in which the tap's stored (Cout, Cin) weight matrix contracts the
input channels, and the Cout-channel result is added as a slice shifted
along the kernel axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import ShapeMismatchError, _shifted_taps, as_grid
# bilinear_sample is unused here; perfbench/tracing.py looks it up on snakeconv.
from .grids import bilinear_sample  # noqa: F401

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
    zero-padded 1xL (or Lx1) convolution with the same weights: the 1-d
    case of grids.conv2d's shifted taps. Tap t = center + k is one GEMM
    over every pixel with the stored (cout, cin) tap matrix, shifted by k
    pixels along the kernel axis; a tap that shifts the whole axis out of
    the frame is skipped.

    With out, a (B,Cout,H,W) array whose (H, W) planes are C-contiguous
    (a channel slice of a larger grid, say), the convolution is added into
    out, which is returned; otherwise it is written into a new array.
    """
    x = as_grid(x, 4)
    b, cin, h, w = x.shape
    if cin != kernel.cin:
        raise ShapeMismatchError(
            f"input channel dimension {cin} does not match kernel input channels {kernel.cin}")
    cout, length = kernel.cout, kernel.length
    add = out is not None
    if out is None:
        out = np.empty((b, cout, h, w))
    elif out.shape != (b, cout, h, w):
        raise ShapeMismatchError(f"out shape {out.shape} != output shape {(b, cout, h, w)}")
    elif out.strides[2:] != (out.itemsize * w, out.itemsize):
        raise ValueError(f"out must have C-contiguous (H, W) planes, got strides {out.strides}")
    center = length // 2
    if kernel.axis == HORIZONTAL:
        plan = [(t, 0, 0, t - center) for t in range(length)]
    else:
        plan = [(t, 0, t - center, 0) for t in range(length)]
    _shifted_taps(x.reshape(1, b, cin, h * w), kernel.taps, plan, h, w,
                  out.reshape(b, cout, h * w), add=add)
    return out
