import tracemalloc

import numpy as np
import pytest

from textshaper.grids import ShapeMismatchError, conv2d
from textshaper.snakeconv import HORIZONTAL, VERTICAL, SnakeKernel, dsc_forward


def straight_conv(x, weights, axis):
    """Reference: zero-offset snake equals a same-padded 1xL / Lx1 convolution."""
    cout, cin, length = weights.shape
    if axis == HORIZONTAL:
        k = weights.reshape(cout, cin, 1, length)
        return conv2d(x, k, padding=(0, length // 2))
    k = weights.reshape(cout, cin, length, 1)
    return conv2d(x, k, padding=(length // 2, 0))


class TestDegenerateSnake:
    @pytest.mark.parametrize("axis", [HORIZONTAL, VERTICAL])
    @pytest.mark.parametrize("seed", range(4))
    def test_zero_offsets_equal_standard_conv(self, axis, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 3, 6, 7))
        weights = rng.normal(size=(2, 3, 5))
        kern = SnakeKernel(axis, weights)
        got = dsc_forward(x, kern)
        want = straight_conv(x, weights, axis)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_constant_field_interior(self):
        c = 1.5
        length = 5
        weights = np.full((1, 1, length), 0.3)
        x = np.full((1, 1, 4, 12), c)
        out = dsc_forward(x, SnakeKernel(HORIZONTAL, weights))
        interior = out[0, 0, :, length // 2:-(length // 2)]
        np.testing.assert_allclose(interior, c * 0.3 * length, atol=1e-12)

    @pytest.mark.parametrize("axis", [HORIZONTAL, VERTICAL])
    def test_batch_and_unequal_channels(self, axis):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(2, 5, 7, 6))
        weights = rng.normal(size=(3, 5, 5))
        got = dsc_forward(x, SnakeKernel(axis, weights))
        assert got.shape == (2, 3, 7, 6)
        assert np.max(np.abs(got - straight_conv(x, weights, axis))) < 1e-12

    @pytest.mark.parametrize("axis", [HORIZONTAL, VERTICAL])
    def test_taps_beyond_short_axis(self, axis):
        # Length 9 on a 3-pixel axis: taps -4, -3, 3 and 4 miss every pixel.
        rng = np.random.default_rng(22)
        shape = (1, 4, 5, 3) if axis == HORIZONTAL else (1, 4, 3, 5)
        x = rng.normal(size=shape)
        weights = rng.normal(size=(2, 4, 9))
        got = dsc_forward(x, SnakeKernel(axis, weights))
        assert np.max(np.abs(got - straight_conv(x, weights, axis))) < 1e-12


class TestStorage:
    def test_weights_keep_shape_and_values(self):
        weights = np.random.default_rng(23).normal(size=(3, 4, 5))
        kern = SnakeKernel(HORIZONTAL, weights)
        assert kern.weights.shape == (3, 4, 5)
        np.testing.assert_array_equal(kern.weights, weights)
        assert (kern.cout, kern.cin, kern.length) == (3, 4, 5)
        # One store: tap t's (cout, cin) matrix, unit stride along cin.
        assert kern.taps.shape == (5, 3, 4) and kern.taps.flags.c_contiguous
        assert np.shares_memory(kern.taps, kern.weights)
        np.testing.assert_array_equal(kern.taps[2], weights[:, :, 2])

    def test_tap_major_weights_are_not_copied(self):
        taps = np.random.default_rng(24).normal(size=(5, 3, 4))
        kern = SnakeKernel(VERTICAL, taps.transpose(1, 2, 0))
        assert np.shares_memory(kern.taps, taps)
        np.testing.assert_array_equal(kern.taps, taps)

    @pytest.mark.parametrize("axis", [HORIZONTAL, VERTICAL])
    def test_out_accumulates_into_a_channel_slice(self, axis):
        rng = np.random.default_rng(25)
        x = rng.normal(size=(2, 3, 6, 7))
        weights = rng.normal(size=(2, 3, 5))
        grid = rng.normal(size=(2, 5, 6, 7))
        before = grid.copy()
        got = dsc_forward(x, SnakeKernel(axis, weights), out=grid[:, 3:])
        assert np.shares_memory(got, grid) and got.shape == (2, 2, 6, 7)
        np.testing.assert_array_equal(grid[:, :3], before[:, :3])
        want = before[:, 3:] + straight_conv(x, weights, axis)
        assert np.max(np.abs(grid[:, 3:] - want)) < 1e-12

    def test_out_shape_or_layout_mismatch(self):
        kern = SnakeKernel(HORIZONTAL, np.ones((2, 3, 3)))
        with pytest.raises(ShapeMismatchError, match="out shape"):
            dsc_forward(np.zeros((1, 3, 4, 4)), kern, out=np.zeros((1, 3, 4, 4)))
        # Transposed planes cannot be added to as flat pixel runs.
        with pytest.raises(ValueError, match="C-contiguous"):
            dsc_forward(np.zeros((1, 3, 4, 4)), kern,
                        out=np.zeros((1, 2, 4, 4)).transpose(0, 1, 3, 2))

    def test_working_set_holds_no_weight_copy(self):
        # A (1, 512, 48, 48) input through a (256, 512, 9) kernel: the finest
        # pyramid level of a 192 px image. The kernel is 9.4 MB; the output
        # and one tap product are 4.7 MB each.
        rng = np.random.default_rng(26)
        x = rng.normal(size=(1, 512, 48, 48))
        kern = SnakeKernel(HORIZONTAL, rng.uniform(-0.05, 0.05, (256, 512, 9)))
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
        with pytest.raises(ShapeMismatchError, match="odd"):
            SnakeKernel(HORIZONTAL, np.ones((1, 1, 4)))

    def test_input_channel_mismatch(self):
        kern = SnakeKernel(HORIZONTAL, np.ones((1, 2, 3)))
        with pytest.raises(ShapeMismatchError, match="channel"):
            dsc_forward(np.zeros((1, 3, 4, 4)), kern)

    def test_bad_axis(self):
        with pytest.raises(ValueError, match="axis"):
            SnakeKernel("diagonal", np.ones((1, 1, 3)))
