"""Snake convolution with straight 1xL or Lx1 kernels.

In the paper's dynamic snake the taps bend along thin structures, following
offsets that a small conv predicts from the input (Qi et al., ICCV 2023).
Untrained, those offsets are zero and the snake is exactly a zero-padded
standard 1-d convolution. This package has no training loop and no trained
weights, so every kernel is straight, and a snake is a grids.conv2d call,
padded by L//2 along its axis like every conv2d, so it keeps the input's size.
"""

from __future__ import annotations

import numpy as np

from .grids import conv2d
# bilinear_sample is unused here; perfbench/tracing.py looks it up on snakeconv.
from .grids import bilinear_sample  # noqa: F401


def dsc_forward(x, kernel, out=None) -> np.ndarray:
    """Snake convolution of (B,Cin,H,W) with a (Cout,Cin,1,L) or (Cout,Cin,L,1)
    kernel, L odd, producing (B,Cout,H,W).

    Every kernel is straight (see the module docstring), so this is conv2d
    at stride 1, zero-padded by L//2 along the kernel axis: one GEMM per
    tap, shifted along that axis, read without a copy from a kernel stored
    tap-major. With out, the convolution is added into out, as conv2d's
    out does.
    """
    return conv2d(x, kernel, out=out)
