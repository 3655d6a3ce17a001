import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

import textshaper.grids as grids
from helpers import logistic_masked_oracle, row_softmax_oracle
from textshaper.grids import (ShapeMismatchError, bilinear_sample, conv2d, logistic,
                              resize_bilinear, row_softmax, upsample2x)


def conv2d_oracle(x, k, bias, stride, padding):
    """Direct six-loop cross-correlation."""
    ph, pw = (padding, padding) if isinstance(padding, int) else padding
    b, cin, h, w = x.shape
    cout, _, kh, kw = k.shape
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
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 5, 6))
        k = np.zeros((3, 3, 1, 1))
        for c in range(3):
            k[c, c, 0, 0] = 1.0
        out = conv2d(x, k, np.zeros(3))
        np.testing.assert_array_equal(out, x)

    def test_constant_field_interior(self):
        c = 2.5
        x = np.full((1, 1, 6, 7), c)
        k = np.ones((1, 1, 3, 3))
        out = conv2d(x, k, stride=1, padding=0)
        np.testing.assert_allclose(out, 9 * c)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 2, 5, 5))
        k = rng.normal(size=(3, 2, 3, 3))
        bias = rng.normal(size=3)
        expected = conv2d_oracle(x, k, bias, 1, 0)
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
        padding = int(rng.integers(0, 2))
        x = rng.normal(size=(b, cin, h, w))
        k = rng.normal(size=(cout, cin, kh, kw))
        expected = conv2d_oracle(x, k, None, stride, padding)
        got = conv2d(x, k, stride=stride, padding=padding)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_asymmetric_padding(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 2, 4, 6))
        k = rng.normal(size=(2, 2, 1, 3))
        expected = conv2d_oracle(x, k, None, 1, (0, 1))
        got = conv2d(x, k, padding=(0, 1))
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

    @pytest.mark.parametrize("name,value", [
        ("stride", 0), ("stride", 1.5), ("stride", (1, 1)),
        ("padding", -1), ("padding", 1.5), ("padding", (1, -1)), ("padding", (1, 2, 3)),
    ])
    def test_bad_stride_or_padding_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            conv2d(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 3, 3)), **{name: value})

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (1, (0, 1)), (2, (1, 0))])
    def test_row_blocks_match_one_block(self, monkeypatch, stride, padding):
        rng = np.random.default_rng(stride * 10 + np.sum(padding))
        x = rng.normal(size=(2, 3, 9, 8))
        k = rng.normal(size=(7, 3, 3, 3))
        bias = rng.normal(size=7)
        whole = conv2d(x, k, bias, stride=stride, padding=padding)
        calls = []
        real_matmul = np.matmul

        def spy(*args, **kwargs):
            calls.append(args[1].shape)
            return real_matmul(*args, **kwargs)

        # Two output rows per block: 8 bytes x batch x Cin*kh*kw x Wo x 2.
        monkeypatch.setattr(grids, "CHUNK_BYTES", 8 * 2 * 27 * whole.shape[3] * 2)
        monkeypatch.setattr(np, "matmul", spy)
        blocked = conv2d(x, k, bias, stride=stride, padding=padding)
        monkeypatch.undo()
        assert len(calls) == -(-whole.shape[2] // 2) > 1
        np.testing.assert_allclose(blocked, whole, atol=1e-12)
        np.testing.assert_allclose(blocked, conv2d_oracle(x, k, bias, stride, padding),
                                   atol=1e-12)


def conv2d_einsum_oracle(x, k, bias, stride, padding):
    """Reference cross-correlation: sliding_window_view windows contracted by einsum."""
    ph, pw = (padding, padding) if isinstance(padding, int) else padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    win = sliding_window_view(xp, k.shape[2:], axis=(2, 3))[:, :, ::stride, ::stride]
    out = np.einsum("bchwkl,ockl->bohw", win, k, optimize=True)
    return out + bias[None, :, None, None]


class TestConv2dPyramidShapes:
    """im2col conv2d against the einsum oracle at the pyramid's layer shapes."""

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
        got = conv2d(x, k, bias, stride=stride, padding=padding)
        assert got.shape == want.shape
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


class TestRowSoftmax:
    def test_uniform_rows(self):
        out = row_softmax(np.full((3, 4), 1.7))
        np.testing.assert_allclose(out, 0.25, atol=1e-15)

    def test_closed_form(self):
        out = row_softmax(np.array([[0.0, math.log(3.0)]]))
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-12)

    def test_large_value_no_overflow(self):
        out = row_softmax(np.array([[1000.0, 0.0, 0.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0, abs=1e-12)

    @given(arrays(np.float64, (4, 5), elements=st.floats(min_value=-100, max_value=100)))
    def test_rows_sum_to_one(self, x):
        out = row_softmax(x)
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    @given(arrays(np.float64, (3, 4), elements=st.floats(min_value=-50, max_value=50)),
           st.floats(min_value=-100, max_value=100))
    def test_shift_invariance(self, x, c):
        np.testing.assert_allclose(row_softmax(x), row_softmax(x + c), atol=1e-12)

    def test_in_place_steps_match_fresh_arrays_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.normal(scale=40.0, size=(6, 33))
        x[1, 3] = np.inf
        x[2] = -np.inf
        x[3, 5] = np.nan
        x[4, :3] = -0.0
        before = x.copy()
        with np.errstate(invalid="ignore"):
            np.testing.assert_array_equal(row_softmax(x), row_softmax_oracle(x))
            assert row_softmax(x[:, ::2]).shape == (6, 17)
        np.testing.assert_array_equal(x, before)


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
