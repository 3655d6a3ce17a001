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
