"""The spatial-constraint losses: L_sr (reconstruction) and L_ss (semantic
alignment), both in textshaper.losses."""

import numpy as np
import pytest

from textshaper.losses import loss_sr, loss_ss

from helpers import finite_diff_grad, max_rel_err


class TestLossSr:
    def test_perfect_reconstruction(self):
        mask = np.zeros((4, 4))
        mask[1:3, 1:3] = 1.0
        loss, grad = loss_sr(mask.copy(), mask)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros((4, 4)))

    def test_constant_offset_closed_form(self):
        mask = np.zeros((3, 5))
        mask[1, 1:4] = 1.0
        loss, grad = loss_sr(mask + 0.5, mask)
        assert loss == pytest.approx(0.5)
        np.testing.assert_allclose(grad, np.full((3, 5), 1.0 / 15.0))

    def test_sign_symmetry(self):
        rng = np.random.default_rng(2)
        mask = (rng.uniform(size=(6, 6)) > 0.5).astype(float)
        e = rng.uniform(0.1, 0.9, size=(6, 6))
        assert loss_sr(mask + e, mask)[0] == pytest.approx(loss_sr(mask - e, mask)[0])

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        mask = (rng.uniform(size=(8, 8)) > 0.5).astype(float)
        # keep |recon - mask| away from the |.| kink so central differences hold
        recon = mask + rng.choice([-1.0, 1.0], size=(8, 8)) * rng.uniform(0.05, 0.5, (8, 8))
        _, grad = loss_sr(recon, mask)
        fd = finite_diff_grad(lambda r: loss_sr(r, mask)[0], recon)
        assert max_rel_err(grad, fd) < 1e-6


class TestLossSs:
    def test_identical_features(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(4, 6))
        loss, (ga, gm) = loss_ss(f, f.copy())
        assert loss == 0.0
        np.testing.assert_array_equal(ga, np.zeros_like(f))
        np.testing.assert_array_equal(gm, np.zeros_like(f))

    def test_constant_difference(self):
        a = np.zeros((3, 3))
        loss, _ = loss_ss(a + 0.7, a)
        assert loss == pytest.approx(0.49)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(10 + seed)
        a = rng.normal(size=(6, 6))
        m = rng.normal(size=(6, 6))
        _, (ga, gm) = loss_ss(a, m)
        fd_a = finite_diff_grad(lambda x: loss_ss(x, m)[0], a)
        fd_m = finite_diff_grad(lambda x: loss_ss(a, x)[0], m)
        assert max_rel_err(ga, fd_a) < 1e-6
        assert max_rel_err(gm, fd_m) < 1e-6
