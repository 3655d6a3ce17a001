import math

import numpy as np
import pytest

from textshaper.losses import LossTargets, loss_seg, smooth_l1, total_loss
from textshaper.maps import GeometryMaps
from textshaper.spatial import build_position_mask

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


def build_total_inputs(rng, n=8, perfect=False):
    gt_text = np.zeros((n, n))
    gt_text[2:6, 1:7] = 1.0
    gt_center = np.zeros((n, n))
    gt_center[3:5, 2:6] = 1.0
    gt_h = np.full((n, n), 4.0)
    gt_theta = np.full((n, n), 0.1)
    mask = build_position_mask([[(1, 2), (7, 2), (7, 6), (1, 6)]], n, n)
    aux = rng.normal(size=(4, n, n))
    if perfect:
        pred = GeometryMaps(text=np.clip(gt_text, 1e-9, 1 - 1e-9),
                            center=np.clip(gt_center, 1e-9, 1 - 1e-9),
                            x=np.zeros((n, n)), y=np.zeros((n, n)),
                            h=gt_h.copy(), w=np.full((n, n), 4.0), theta=gt_theta.copy())
        recon = mask.astype(float)
        main = aux.copy()
    else:
        pred = GeometryMaps(text=rng.uniform(0.05, 0.95, (n, n)),
                            center=rng.uniform(0.05, 0.95, (n, n)),
                            x=rng.normal(size=(n, n)), y=rng.normal(size=(n, n)),
                            h=gt_h + rng.normal(size=(n, n)),
                            w=np.full((n, n), 4.0),
                            theta=gt_theta + 0.2 * rng.normal(size=(n, n)))
        recon = rng.uniform(size=(n, n))
        main = aux + rng.normal(size=aux.shape)
    targets = LossTargets(text=gt_text, center=gt_center, h=gt_h, theta=gt_theta, mask=mask)
    return pred, recon, aux, main, targets


class TestTotalLoss:
    def test_perfect_predictions(self):
        rng = np.random.default_rng(0)
        pred, recon, aux, main, targets = build_total_inputs(rng, perfect=True)
        bundle = total_loss(pred, recon, aux, main, targets)
        for field in ("l_seg", "l_h", "l_theta", "l_ss", "l_sr", "total"):
            assert getattr(bundle, field) < 1e-6

    def test_total_is_exact_component_sum(self):
        rng = np.random.default_rng(1)
        pred, recon, aux, main, targets = build_total_inputs(rng)
        b = total_loss(pred, recon, aux, main, targets)
        assert b.total == b.l_seg + b.l_h + b.l_theta + b.l_ss + b.l_sr
        assert all(v >= 0 for v in (b.l_seg, b.l_h, b.l_theta, b.l_ss, b.l_sr))

    def test_zeroing_one_component_removes_exactly_it(self):
        rng = np.random.default_rng(2)
        pred, recon, aux, main, targets = build_total_inputs(rng)
        b1 = total_loss(pred, recon, aux, main, targets)
        perfect_theta = GeometryMaps(text=pred.text, center=pred.center, x=pred.x, y=pred.y,
                                     h=pred.h, w=pred.w, theta=targets.theta.copy())
        b2 = total_loss(perfect_theta, recon, aux, main, targets)
        assert b2.l_theta == 0.0
        assert b2.total == b1.l_seg + b1.l_h + 0.0 + b1.l_ss + b1.l_sr

    def test_matches_resummation_oracle(self):
        rng = np.random.default_rng(3)
        pred, recon, aux, main, targets = build_total_inputs(rng)
        b = total_loss(pred, recon, aux, main, targets)
        from textshaper.losses import loss_seg as seg_fn, smooth_l1 as sl1
        from textshaper.spatial import loss_sr as sr_fn, loss_ss as ss_fn
        region = targets.text > 0.5
        expected = (seg_fn(pred.text, pred.center, targets.text, targets.center)[0]
                    + sl1(pred.h, targets.h, region=region)[0]
                    + sl1(pred.theta, targets.theta, region=region)[0]
                    + ss_fn(aux, main)[0]
                    + sr_fn(recon, targets.mask)[0])
        assert b.total == pytest.approx(expected, rel=1e-15)
