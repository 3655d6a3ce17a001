import numpy as np
import pytest

from textshaper.grids import ShapeMismatchError, conv2d
from textshaper.snakeconv import HORIZONTAL, VERTICAL, SnakeKernel, dsc_forward, tap_positions


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


class TestStraightMatchesGather:
    """The shifted-slice path (offsets=None) against the bilinear gather path
    with all-zero offsets, which samples the same whole-pixel positions."""

    @staticmethod
    def both_paths(x, weights, axis):
        _, _, h, w = x.shape
        straight = dsc_forward(x, SnakeKernel(axis, weights))
        zeros = np.zeros((2 * weights.shape[2], h, w))
        gathered = dsc_forward(x, SnakeKernel(axis, weights, offsets=zeros))
        return straight, gathered

    @pytest.mark.parametrize("axis", [HORIZONTAL, VERTICAL])
    def test_batch_and_unequal_channels(self, axis):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(2, 5, 7, 6))
        weights = rng.normal(size=(3, 5, 5))
        straight, gathered = self.both_paths(x, weights, axis)
        assert straight.shape == (2, 3, 7, 6)
        assert np.max(np.abs(straight - gathered)) < 1e-12

    @pytest.mark.parametrize("axis", [HORIZONTAL, VERTICAL])
    def test_taps_beyond_short_axis(self, axis):
        # Length 9 on a 3-pixel axis: taps -4, -3, 3 and 4 miss every pixel.
        rng = np.random.default_rng(22)
        shape = (1, 4, 5, 3) if axis == HORIZONTAL else (1, 4, 3, 5)
        x = rng.normal(size=shape)
        weights = rng.normal(size=(2, 4, 9))
        straight, gathered = self.both_paths(x, weights, axis)
        assert np.max(np.abs(straight - gathered)) < 1e-12
        assert np.max(np.abs(straight - straight_conv(x, weights, axis))) < 1e-12


def test_impulse_with_half_offset_splits_between_neighbors():
    # Impulse at (2, 2); the tap one step right of center carries a +0.5
    # perpendicular (dy) displacement, so its sample position for output
    # pixel (y, x) is (y + 0.5, x + 1). The impulse response must split
    # equally between the two rows whose sample rows straddle it.
    h = w = 5
    length = 3
    weights = np.zeros((1, 1, length))
    weights[0, 0, 2] = 1.0  # only the rightmost tap active
    offsets = np.zeros((2 * length, h, w))
    offsets[2 * 2 + 0] = 0.5  # dy of tap index 2
    x = np.zeros((1, 1, h, w))
    x[0, 0, 2, 2] = 1.0
    out = dsc_forward(x, SnakeKernel(HORIZONTAL, weights, offsets=offsets))

    expected = np.zeros((h, w))
    for y in range(h):
        for xx in range(w):
            sy, sx = y + 0.5, xx + 1.0
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            for dy in (0, 1):
                for dx in (0, 1):
                    yy, xc = y0 + dy, x0 + dx
                    wgt = (sy - y0 if dy else 1 - (sy - y0)) * (sx - x0 if dx else 1 - (sx - x0))
                    if (yy, xc) == (2, 2):
                        expected[y, xx] += wgt
    np.testing.assert_allclose(out[0, 0], expected, atol=1e-12)
    assert expected[1, 1] == pytest.approx(0.5)
    assert expected[2, 1] == pytest.approx(0.5)


class TestTapPositions:
    @pytest.mark.parametrize("axis", [HORIZONTAL, VERTICAL])
    @pytest.mark.parametrize("seed", range(6))
    def test_monotone_along_axis(self, axis, seed):
        rng = np.random.default_rng(seed)
        h, w, length = 4, 5, 9
        weights = rng.normal(size=(1, 1, length))
        offsets = rng.uniform(-3, 3, size=(2 * length, h, w))
        kern = SnakeKernel(axis, weights, offsets=offsets, offset_bound=0.999)
        pos = tap_positions(kern, h, w)
        along = pos[:, 1] if axis == HORIZONTAL else pos[:, 0]
        assert np.all(np.diff(along, axis=0) > 0)

    def test_center_tap_at_pixel(self):
        kern = SnakeKernel(HORIZONTAL, np.ones((1, 1, 3)),
                           offsets=np.random.default_rng(0).normal(size=(6, 2, 3)))
        pos = tap_positions(kern, 2, 3)
        yy, xx = np.meshgrid(np.arange(2.0), np.arange(3.0), indexing="ij")
        np.testing.assert_array_equal(pos[1, 0], yy)
        np.testing.assert_array_equal(pos[1, 1], xx)

    def test_offsets_clamped(self):
        offsets = np.full((6, 1, 1), 100.0)
        kern = SnakeKernel(HORIZONTAL, np.ones((1, 1, 3)), offsets=offsets, offset_bound=0.25)
        pos = tap_positions(kern, 1, 1)
        assert pos[2, 0, 0, 0] == pytest.approx(0.25)
        assert pos[2, 1, 0, 0] == pytest.approx(1.25)


class TestLinearity:
    def test_linear_in_input_for_fixed_offsets(self):
        rng = np.random.default_rng(7)
        h, w, length = 5, 6, 5
        weights = rng.normal(size=(2, 3, length))
        offsets = rng.uniform(-0.8, 0.8, size=(2 * length, h, w))
        kern = SnakeKernel(HORIZONTAL, weights, offsets=offsets)
        x = rng.normal(size=(1, 3, h, w))
        y = rng.normal(size=(1, 3, h, w))
        a, b = 1.7, -2.3
        lhs = dsc_forward(a * x + b * y, kern)
        rhs = a * dsc_forward(x, kern) + b * dsc_forward(y, kern)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestValidation:
    def test_even_length_rejected(self):
        with pytest.raises(ShapeMismatchError, match="odd"):
            SnakeKernel(HORIZONTAL, np.ones((1, 1, 4)))

    def test_offset_channel_count(self):
        with pytest.raises(ShapeMismatchError, match="2\\*length"):
            SnakeKernel(HORIZONTAL, np.ones((1, 1, 3)), offsets=np.zeros((4, 2, 2)))

    def test_offset_spatial_mismatch(self):
        kern = SnakeKernel(HORIZONTAL, np.ones((1, 1, 3)), offsets=np.zeros((6, 4, 4)))
        with pytest.raises(ShapeMismatchError, match="spatial"):
            dsc_forward(np.zeros((1, 1, 5, 5)), kern)

    def test_input_channel_mismatch(self):
        kern = SnakeKernel(HORIZONTAL, np.ones((1, 2, 3)))
        with pytest.raises(ShapeMismatchError, match="channel"):
            dsc_forward(np.zeros((1, 3, 4, 4)), kern)

    def test_bad_axis(self):
        with pytest.raises(ValueError, match="axis"):
            SnakeKernel("diagonal", np.ones((1, 1, 3)))
