import tracemalloc

import numpy as np
import pytest

from helpers import conv2d_einsum_oracle
from textshaper.grids import ShapeMismatchError
from textshaper.snakeconv import dsc_forward


def snake_kernel(weights, axis):
    """The (cout, cin, 1, L) or (cout, cin, L, 1) kernel of (cout, cin, L) weights."""
    cout, cin, length = weights.shape
    if axis == "horizontal":
        return weights.reshape(cout, cin, 1, length)
    return weights.reshape(cout, cin, length, 1)


def straight_conv(x, kernel):
    """Reference: zero-offset snake equals a same-padded 1xL / Lx1 convolution."""
    kh, kw = kernel.shape[2:]
    return conv2d_einsum_oracle(x, kernel, np.zeros(kernel.shape[0]), 1, (kh // 2, kw // 2))


class TestDegenerateSnake:
    @pytest.mark.parametrize("axis", ["horizontal", "vertical"])
    @pytest.mark.parametrize("seed", range(4))
    def test_zero_offsets_equal_standard_conv(self, axis, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 3, 6, 7))
        kern = snake_kernel(rng.normal(size=(2, 3, 5)), axis)
        got = dsc_forward(x, kern)
        assert np.max(np.abs(got - straight_conv(x, kern))) < 1e-12

    def test_constant_field_interior(self):
        c = 1.5
        length = 5
        x = np.full((1, 1, 4, 12), c)
        out = dsc_forward(x, np.full((1, 1, 1, length), 0.3))
        interior = out[0, 0, :, length // 2:-(length // 2)]
        np.testing.assert_allclose(interior, c * 0.3 * length, atol=1e-12)

    @pytest.mark.parametrize("axis", ["horizontal", "vertical"])
    def test_batch_and_unequal_channels(self, axis):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(2, 5, 7, 6))
        kern = snake_kernel(rng.normal(size=(3, 5, 5)), axis)
        got = dsc_forward(x, kern)
        assert got.shape == (2, 3, 7, 6)
        assert np.max(np.abs(got - straight_conv(x, kern))) < 1e-12

    @pytest.mark.parametrize("axis", ["horizontal", "vertical"])
    def test_taps_beyond_short_axis(self, axis):
        # Length 9 on a 3-pixel axis: taps -4, -3, 3 and 4 miss every pixel.
        rng = np.random.default_rng(22)
        shape = (1, 4, 5, 3) if axis == "horizontal" else (1, 4, 3, 5)
        x = rng.normal(size=shape)
        kern = snake_kernel(rng.normal(size=(2, 4, 9)), axis)
        got = dsc_forward(x, kern)
        assert np.max(np.abs(got - straight_conv(x, kern))) < 1e-12


class TestStorage:
    def test_tap_major_weights_are_not_copied(self, monkeypatch):
        # The (cout, cin, L, 1) view of a C-contiguous (L, cout, cin) store:
        # every tap's GEMM reads its (cout, cin) matrix from the store itself.
        rng = np.random.default_rng(24)
        taps = rng.normal(size=(5, 3, 4))
        kern = taps.reshape(5, 1, 3, 4).transpose(2, 3, 0, 1)
        x = rng.normal(size=(1, 4, 6, 7))
        reads = []
        real_matmul = np.matmul

        def spy(a, *args, **kwargs):
            reads.append(np.shares_memory(a, taps))
            return real_matmul(a, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        got = dsc_forward(x, kern)
        monkeypatch.undo()
        assert reads == [True] * 5
        assert np.max(np.abs(got - straight_conv(x, kern))) < 1e-12

    def test_working_set_holds_no_weight_copy(self):
        # A (1, 512, 48, 48) input through a tap-major (256, 512, 1, 9)
        # kernel: the finest pyramid level of a 192 px image. The kernel is
        # 9.4 MB; the output and one tap product are 4.7 MB each.
        rng = np.random.default_rng(26)
        x = rng.normal(size=(1, 512, 48, 48))
        taps = rng.uniform(-0.05, 0.05, (9, 256, 512))
        kern = taps.reshape(1, 9, 256, 512).transpose(2, 3, 0, 1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            dsc_forward(x, kern)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        out_bytes = 8 * 256 * 48 * 48
        assert peak < 2 * out_bytes + (1 << 20)


class TestValidation:
    def test_even_length_rejected(self):
        # conv2d's odd-kernel check.
        with pytest.raises(ShapeMismatchError, match="odd"):
            dsc_forward(np.zeros((1, 1, 4, 4)), np.ones((1, 1, 1, 4)))

    def test_input_channel_mismatch(self):
        with pytest.raises(ShapeMismatchError, match="channel"):
            dsc_forward(np.zeros((1, 3, 4, 4)), np.ones((1, 2, 1, 3)))
