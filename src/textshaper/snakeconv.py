"""Snake convolution with straight 1xL or Lx1 kernels.

In the paper's dynamic snake the taps bend along thin structures, following
offsets that a small conv predicts from the input (Qi et al., ICCV 2023).
Untrained, those offsets are zero and the snake is exactly a zero-padded
standard 1-d convolution. This package has no training loop and no trained
weights, so every kernel is straight, and a snake is a grids.conv2d call.
"""

from __future__ import annotations

import numpy as np

from .grids import conv2d
# bilinear_sample is unused here; perfbench/tracing.py looks it up on snakeconv.
from .grids import bilinear_sample  # noqa: F401


def dsc_forward(x, kernel, out=None) -> np.ndarray:
    """Snake convolution of (B,Cin,H,W) with a (Cout,Cin,1,L) or (Cout,Cin,L,1)
    kernel, L odd, producing (B,Cout,H,W).

    Every kernel is straight (see the module docstring), so this is the
    zero-padded 1xL (or Lx1) conv2d that keeps the input's size: one GEMM
    per tap, shifted along the kernel axis, read without a copy from a
    kernel stored tap-major. With out, the convolution is added into out,
    as conv2d's out does.
    """
    # The last two axes, so that a kernel of the wrong rank meets conv2d's check.
    kh, kw = np.shape(kernel)[-2:]
    return conv2d(x, kernel, padding=(kh // 2, kw // 2), out=out)
