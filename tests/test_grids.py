import inspect
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import textshaper.grids as grids
from helpers import conv2d_einsum_oracle, logistic_masked_oracle
from textshaper.grids import (ShapeMismatchError, bilinear_sample, conv2d, logistic,
                              resize_bilinear, upsample2x)


def conv2d_oracle(x, k, bias, stride):
    """Direct six-loop cross-correlation, zero padded by (kh // 2, kw // 2)."""
    b, cin, h, w = x.shape
    cout, _, kh, kw = k.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // stride + 1
    ow = (w + 2 * pw - kw) // stride + 1
    out = np.zeros((b, cout, oh, ow))
    for bi in range(b):
        for oc in range(cout):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ic in range(cin):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += (xp[bi, ic, oy * stride + ky, ox * stride + kx]
                                        * k[oc, ic, ky, kx])
                    out[bi, oc, oy, ox] = acc + (bias[oc] if bias is not None else 0.0)
    return out


class TestConv2d:
    def test_parameter_list_is_pinned(self):
        # Every parameter is a promise to callers: adding or dropping one must
        # edit this test. The padding is the kernel's reach, never an option.
        assert list(inspect.signature(conv2d).parameters) == [
            "x", "kernel", "bias", "stride", "out"]

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 5, 6))
        k = np.zeros((3, 3, 1, 1))
        for c in range(3):
            k[c, c, 0, 0] = 1.0
        out = conv2d(x, k, np.zeros(3))
        np.testing.assert_array_equal(out, x)

    def test_constant_field_interior(self):
        # The output keeps the input's size; only the border reads the padding.
        c = 2.5
        x = np.full((1, 1, 6, 7), c)
        k = np.ones((1, 1, 3, 3))
        out = conv2d(x, k)
        assert out.shape == x.shape
        np.testing.assert_allclose(out[:, :, 1:-1, 1:-1], 9 * c)
        np.testing.assert_allclose(out[:, :, [0, -1], [0, -1]], 4 * c)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 2, 5, 5))
        k = rng.normal(size=(3, 2, 3, 3))
        bias = rng.normal(size=3)
        expected = conv2d_oracle(x, k, bias, 1)
        got = conv2d(x, k, bias)
        assert np.max(np.abs(got - expected)) < 1e-12

    @pytest.mark.parametrize("seed", range(12))
    def test_random_instances_stride_padding(self, seed):
        rng = np.random.default_rng(100 + seed)
        b = int(rng.integers(1, 4))
        cin = int(rng.integers(1, 5))
        cout = int(rng.integers(1, 4))
        h, w = int(rng.integers(3, 9)), int(rng.integers(3, 9))
        kh, kw = 2 * int(rng.integers(0, 2)) + 1, 2 * int(rng.integers(0, 2)) + 1
        stride = int(rng.integers(1, 3))
        x = rng.normal(size=(b, cin, h, w))
        k = rng.normal(size=(cout, cin, kh, kw))
        expected = conv2d_oracle(x, k, None, stride)
        got = conv2d(x, k, stride=stride)
        assert got.shape == expected.shape == (b, cout, -(-h // stride), -(-w // stride))
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_asymmetric_padding(self):
        # A 1x3 kernel pads the columns by one and the rows not at all.
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 2, 4, 6))
        k = rng.normal(size=(2, 2, 1, 3))
        expected = conv2d_oracle(x, k, None, 1)
        got = conv2d(x, k)
        assert got.shape == (1, 2, 4, 6)
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_channel_mismatch_names_dimension(self):
        with pytest.raises(ShapeMismatchError, match="channel"):
            conv2d(np.zeros((1, 3, 4, 4)), np.zeros((2, 2, 3, 3)))

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeMismatchError, match="odd"):
            conv2d(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 2, 3)))

    def test_bad_bias_length(self):
        with pytest.raises(ShapeMismatchError, match="bias"):
            conv2d(np.zeros((1, 1, 4, 4)), np.zeros((2, 1, 3, 3)), bias=np.zeros(3))

    @pytest.mark.parametrize("name,value", [("stride", 0), ("stride", 1.5), ("stride", (1, 1))])
    def test_bad_stride_or_padding_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            conv2d(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 3, 3)), **{name: value})

    @pytest.mark.parametrize("ksize", [1, 3, 5])
    # padding marks the axes the kernel pads, which are the axes it spans:
    # 1 is a ksize x ksize kernel, (0, 1) a 1 x ksize one, (1, 0) ksize x 1.
    @pytest.mark.parametrize("padding", [1, (0, 1), (1, 0)])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_shifted_taps_match_oracle(self, stride, padding, ksize):
        # Sides of 1 (and 3 for 5-tap kernels) are narrower than the kernel's
        # reach, so some taps shift the whole frame out. One input channel
        # into five takes the merged path at stride 2.
        rng = np.random.default_rng(7 * stride + 3 * ksize + np.sum(padding))
        ph, pw = (padding, padding) if isinstance(padding, int) else padding
        kh, kw = (ksize if ph else 1), (ksize if pw else 1)
        for (h, w), (cin, cout) in itertools.product(
                [(7, 6), (1, 6), (6, 1), (1, 1), (3, 8), (8, 3)], [(2, 3), (1, 5)]):
            k = rng.normal(size=(cout, cin, kh, kw))
            bias = rng.normal(size=cout)
            x = rng.normal(size=(2, cin, h, w))
            want = conv2d_oracle(x, k, bias, stride)
            got = conv2d(x, k, bias, stride=stride)
            assert got.shape == want.shape and got.flags.c_contiguous
            assert np.max(np.abs(got - want)) < 1e-12

    def test_working_set_holds_no_column_buffer(self):
        # A (1, 512, 48, 48) input through a tap-major (256, 512, 3, 3)
        # kernel: the finest level's 3x3 conv at 192 px. The kernel is
        # 9.4 MB; the output and one tap product are 4.7 MB each.
        rng = np.random.default_rng(27)
        x = rng.normal(size=(1, 512, 48, 48))
        taps = rng.uniform(-0.05, 0.05, (9, 256, 512))
        k = taps.reshape(3, 3, 256, 512).transpose(2, 3, 0, 1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            conv2d(x, k)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        out_bytes = 8 * 256 * 48 * 48
        assert peak < 2 * out_bytes + (1 << 20)

    def test_pointwise_kernel_is_one_matmul_without_padding(self, monkeypatch):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(2, 5, 4, 6))
        k = rng.normal(size=(3, 5, 1, 1))
        bias = rng.normal(size=3)
        calls = []
        real_matmul, real_pad = np.matmul, np.pad

        def spy(*args, **kwargs):
            calls.append("matmul")
            return real_matmul(*args, **kwargs)

        def pad_spy(*args, **kwargs):
            calls.append("pad")
            return real_pad(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        monkeypatch.setattr(np, "pad", pad_spy)
        got = conv2d(x, k, bias)
        monkeypatch.undo()
        assert calls == ["matmul"]
        assert got.shape == (2, 3, 4, 6) and got.flags.c_contiguous
        assert np.max(np.abs(got - conv2d_oracle(x, k, bias, 1))) < 1e-12

    @pytest.mark.parametrize("kshape,stride,side", [
        ((1, 5), 1, (7, 6)),   # horizontal snake
        ((5, 1), 1, (7, 6)),   # vertical snake
        ((3, 3), 2, (7, 6)),   # stride 2 on an odd and an even side
        ((3, 3), 2, (7, 5)),   # stride 2 on two odd sides
    ], ids=["horizontal", "vertical", "stride2", "stride2-odd"])
    def test_out_accumulates_into_a_channel_slice(self, kshape, stride, side):
        rng = np.random.default_rng(25)
        x = rng.normal(size=(2, 3, *side))
        k = rng.normal(size=(2, 3, *kshape))
        bias = rng.normal(size=2)
        want = conv2d_oracle(x, k, bias, stride)
        grid = rng.normal(size=(2, 5, *want.shape[2:]))
        before = grid.copy()
        got = conv2d(x, k, bias, stride=stride, out=grid[:, 3:])
        assert np.shares_memory(got, grid) and got.shape == want.shape
        np.testing.assert_array_equal(grid[:, :3], before[:, :3])
        assert np.max(np.abs(grid[:, 3:] - (before[:, 3:] + want))) < 1e-12

    def test_out_shape_or_layout_mismatch(self):
        k = np.ones((2, 3, 1, 3))
        with pytest.raises(ShapeMismatchError, match="out shape"):
            conv2d(np.zeros((1, 3, 4, 4)), k, out=np.zeros((1, 3, 4, 4)))
        # Output size (2, 2) at stride 2, not the input's (4, 4).
        with pytest.raises(ShapeMismatchError, match="out shape"):
            conv2d(np.zeros((1, 3, 4, 4)), k, stride=2, out=np.zeros((1, 2, 4, 4)))
        # Transposed planes cannot be added to as flat pixel runs.
        with pytest.raises(ValueError, match="C-contiguous"):
            conv2d(np.zeros((1, 3, 4, 4)), k, out=np.zeros((1, 2, 4, 4)).transpose(0, 1, 3, 2))


class TestConv2dPyramidShapes:
    """Shifted-tap conv2d against the einsum oracle at the pyramid's layer shapes.

    padding is the oracle's, ksize // 2, which conv2d applies by itself."""

    @pytest.mark.parametrize("cin,cout,ksize,stride,padding,side", [
        (512, 256, 3, 1, 1, 6),    # level 3x3 conv, coarsest levels
        (512, 256, 3, 1, 1, 12),
        (256, 256, 3, 2, 1, 16),   # strided backbone stub conv
        (512, 256, 1, 1, 0, 12),   # 1x1 projection
        (256, 7, 3, 1, 1, 12),     # detection head
    ])
    def test_matches_einsum_oracle(self, cin, cout, ksize, stride, padding, side):
        rng = np.random.default_rng(cin + cout + side)
        x = rng.normal(size=(1, cin, side, side))
        k = rng.uniform(-0.05, 0.05, size=(cout, cin, ksize, ksize))
        bias = rng.uniform(-0.05, 0.05, size=cout)
        want = conv2d_einsum_oracle(x, k, bias, stride, padding)
        got = conv2d(x, k, bias, stride=stride)
        assert got.shape == want.shape == (1, cout, -(-side // stride), -(-side // stride))
        assert got.flags.c_contiguous
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestBilinearSample:
    def test_lattice_point_exact(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 5, 7))
        out = bilinear_sample(x, [(2.0, 3.0)])
        np.testing.assert_array_equal(out[:, 0], x[:, 2, 3])

    def test_midpoint_average(self):
        x = np.zeros((1, 3, 3))
        x[0, 1, 1] = 4.0
        x[0, 1, 2] = 10.0
        out = bilinear_sample(x, [(1.0, 1.5)])
        assert out[0, 0] == pytest.approx(7.0, abs=1e-15)

    def test_far_outside_is_zero(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 4, 4))
        out = bilinear_sample(x, [(-5.0, -5.0)])
        np.testing.assert_array_equal(out, np.zeros((2, 1)))

    def test_border_fades_to_zero(self):
        x = np.ones((1, 2, 2))
        out = bilinear_sample(x, [(-0.5, 0.0)])
        assert out[0, 0] == pytest.approx(0.5, abs=1e-15)

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=0, max_value=3))
    def test_linear_along_axis(self, t, row):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 4, 5))
        a, b = x[0, row, 2], x[0, row, 3]
        out = bilinear_sample(x, [(float(row), 2.0 + t)])
        assert out[0, 0] == pytest.approx((1 - t) * a + t * b, abs=1e-12)


def upsample2x_oracle(x):
    """Per-pixel half-pixel-aligned bilinear formula with edge clamping."""
    b, c, h, w = x.shape
    out = np.zeros((b, c, 2 * h, 2 * w))
    for oy in range(2 * h):
        for ox in range(2 * w):
            sy = min(max((oy + 0.5) / 2 - 0.5, 0.0), h - 1.0)
            sx = min(max((ox + 0.5) / 2 - 0.5, 0.0), w - 1.0)
            y0, x0 = int(math.floor(sy)), int(math.floor(sx))
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            fy, fx = sy - y0, sx - x0
            out[:, :, oy, ox] = ((1 - fy) * (1 - fx) * x[:, :, y0, x0]
                                 + (1 - fy) * fx * x[:, :, y0, x1]
                                 + fy * (1 - fx) * x[:, :, y1, x0]
                                 + fy * fx * x[:, :, y1, x1])
    return out


class TestUpsample2x:
    def test_constant_stays_constant(self):
        out = upsample2x(np.full((1, 2, 3, 4), 3.25))
        np.testing.assert_allclose(out, 3.25, atol=1e-15)
        assert out.shape == (1, 2, 6, 8)

    def test_single_pixel(self):
        out = upsample2x(np.full((1, 1, 1, 1), 7.0))
        np.testing.assert_array_equal(out, np.full((1, 1, 2, 2), 7.0))

    def test_checkerboard_matches_formula(self):
        x = np.array([[[[1.0, 0.0], [0.0, 1.0]]]])
        np.testing.assert_allclose(upsample2x(x), upsample2x_oracle(x), atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_matches_formula(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 2, 3, 5))
        np.testing.assert_allclose(upsample2x(x), upsample2x_oracle(x), atol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 3, 4, 5), (1, 2, 1, 3), (1, 1, 3, 1), (1, 1, 1, 1)])
    def test_blends_equal_resize_bilinear(self, shape):
        x = np.random.default_rng(11).normal(size=shape)
        np.testing.assert_array_equal(upsample2x(x),
                                      resize_bilinear(x, 2 * shape[2], 2 * shape[3]))

    def test_infinite_pixel_reaches_only_its_weighted_outputs(self):
        # An inf on the top edge beside the corner, a -inf on the right edge:
        # the edge outputs copy their edge pixel instead of adding 0 * inf.
        rng = np.random.default_rng(12)
        x = rng.normal(size=(1, 2, 4, 5))
        finite = x.copy()
        weighted = np.zeros((1, 2, 8, 10), dtype=bool)
        for c, y, xx, value in [(0, 0, 1, np.inf), (1, 2, 4, -np.inf)]:
            x[0, c, y, xx] = value
            finite[0, c, y, xx] = 0.0
            one = np.zeros((1, 1, 4, 5))
            one[0, 0, y, xx] = 1.0
            weighted[0, c] = upsample2x_oracle(one)[0, 0] > 0
        out = upsample2x(x)
        assert not np.isnan(out).any()
        np.testing.assert_array_equal(np.isinf(out), weighted)
        np.testing.assert_array_equal(out[0, 0][weighted[0, 0]], np.inf)
        np.testing.assert_array_equal(out[0, 1][weighted[0, 1]], -np.inf)
        np.testing.assert_array_equal(out[~weighted], upsample2x(finite)[~weighted])

    def test_resize_general_shape(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 6))
        out = resize_bilinear(x, 8, 3)
        assert out.shape == (8, 3)
        const = resize_bilinear(np.full((4, 6), 2.0), 9, 5)
        np.testing.assert_allclose(const, 2.0, atol=1e-15)


def test_logistic_stable_and_correct():
    assert logistic(0.0) == pytest.approx(0.5)
    assert logistic(np.array([800.0]))[0] == pytest.approx(1.0)
    assert logistic(np.array([-800.0]))[0] == pytest.approx(0.0)
    x = np.linspace(-5, 5, 11)
    np.testing.assert_allclose(logistic(x), 1.0 / (1.0 + np.exp(-x)), atol=1e-15)


@pytest.mark.parametrize("x", [
    np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 800.0, -800.0, 36.7, -36.7, 1e-300]),
    np.random.default_rng(9).normal(scale=20.0, size=(4, 5, 6)),
    np.array(-0.0),
    np.array(-3.25),
    0.0,
    -2.5,
])
def test_logistic_matches_masked_oracle(x):
    before = np.array(x, copy=True)
    got = logistic(x)
    want = logistic_masked_oracle(x)
    assert isinstance(got, np.ndarray) and got.shape == np.shape(x)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    np.testing.assert_array_equal(np.asarray(x), before)
    buf = np.array(x, dtype=np.float64)
    assert grids._logistic_inplace(buf) is buf
    np.testing.assert_array_equal(buf, want)
    np.testing.assert_array_equal(np.signbit(buf), np.signbit(want))
