import math

import numpy as np
import pytest

from textshaper.losses import loss_seg, smooth_l1

from helpers import finite_diff_grad, max_rel_err


def random_instance(rng, n=8):
    gt_text = (rng.uniform(size=(n, n)) > 0.5).astype(float)
    gt_center = (rng.uniform(size=(n, n)) > 0.7).astype(float)
    pred_text = rng.uniform(0.05, 0.95, size=(n, n))
    pred_center = rng.uniform(0.05, 0.95, size=(n, n))
    return pred_text, pred_center, gt_text, gt_center


class TestLossSeg:
    def test_perfect_predictions_near_zero(self):
        gt_text = np.zeros((4, 4))
        gt_text[1:3] = 1.0
        gt_center = np.zeros((4, 4))
        loss, _, _ = loss_seg(gt_text, gt_center, gt_text, gt_center)
        assert loss < 1e-6

    def test_half_prediction_is_ln2_per_map(self):
        gt = (np.arange(16).reshape(4, 4) % 2).astype(float)
        half = np.full((4, 4), 0.5)
        loss, _, _ = loss_seg(half, gt, gt, gt)
        assert loss == pytest.approx(math.log(2.0), abs=1e-6)
        loss_both, _, _ = loss_seg(half, half, gt, gt)
        assert loss_both == pytest.approx(2.0 * math.log(2.0), abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        pt, pc, gt, gc = random_instance(rng)
        _, grad_t, grad_c = loss_seg(pt, pc, gt, gc)
        fd_t = finite_diff_grad(lambda x: loss_seg(x, pc, gt, gc)[0], pt)
        fd_c = finite_diff_grad(lambda x: loss_seg(pt, x, gt, gc)[0], pc)
        assert max_rel_err(grad_t, fd_t) < 1e-5
        assert max_rel_err(grad_c, fd_c) < 1e-5


class TestSmoothL1:
    def test_zero_error(self):
        x = np.random.default_rng(0).normal(size=(5, 5))
        loss, grad = smooth_l1(x, x.copy())
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(x))

    def test_piecewise_value(self):
        pred = np.zeros((3, 3))
        gt = np.zeros((3, 3))
        pred[1, 1] = 2.0
        region = np.zeros((3, 3), dtype=bool)
        region[1, 1] = True
        loss, grad = smooth_l1(pred, gt, region=region)
        assert loss == pytest.approx(1.5)
        assert grad[1, 1] == pytest.approx(1.0)
        assert grad[0, 0] == 0.0

    def test_empty_region(self):
        loss, grad = smooth_l1(np.ones((4, 4)), np.zeros((4, 4)),
                               region=np.zeros((4, 4), dtype=bool))
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros((4, 4)))

    def test_continuous_and_smooth_at_beta(self):
        # The quadratic and linear pieces meet at |e| = beta = 1.
        gt = np.zeros((1, 1))
        eps = 1e-8
        below = smooth_l1(np.array([[1.0 - eps]]), gt)[0]
        above = smooth_l1(np.array([[1.0 + eps]]), gt)[0]
        assert abs(above - below) < 1e-7
        g_below = smooth_l1(np.array([[1.0 - eps]]), gt)[1][0, 0]
        g_above = smooth_l1(np.array([[1.0 + eps]]), gt)[1][0, 0]
        assert abs(g_above - g_below) < 1e-7

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(20 + seed)
        gt = rng.normal(size=(8, 8))
        offs = rng.choice([-1.0, 1.0], size=(8, 8)) * rng.uniform(0.02, 2.5, size=(8, 8))
        # keep errors away from the |e| = beta seam (second derivative jump)
        offs[np.abs(np.abs(offs) - 1.0) < 0.02] = 0.5
        pred = gt + offs
        region = rng.uniform(size=(8, 8)) > 0.3
        _, grad = smooth_l1(pred, gt, region=region)
        fd = finite_diff_grad(lambda x: smooth_l1(x, gt, region=region)[0], pred)
        assert max_rel_err(grad, fd) < 1e-6

