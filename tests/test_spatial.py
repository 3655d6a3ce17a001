import numpy as np
import pytest

from textshaper.grids import ShapeMismatchError
from textshaper.spatial import (build_position_mask, init_spatial_decoder, loss_sr, loss_ss,
                                merge_positional, positional_embedding, spatial_branch)


from helpers import finite_diff_grad, max_rel_err, point_in_polygon_oracle


def mask_oracle(polys, h, w):
    out = np.zeros((h, w), dtype=bool)
    for i in range(h):
        for j in range(w):
            out[i, j] = any(point_in_polygon_oracle(j + 0.5, i + 0.5, p) for p in polys)
    return out


class TestBuildPositionMask:
    def test_rectangle_pixel_count(self):
        # Vertices (2,2)-(6,5): centers 2.5..5.5 in x (4 columns) and
        # 2.5..4.5 in y (3 rows).
        rect = [(2, 2), (6, 2), (6, 5), (2, 5)]
        pm = build_position_mask([rect], 8, 8)
        assert int(pm.sum()) == 12

    def test_small_rectangle_pixel_count(self):
        rect = [(2, 2), (5, 2), (5, 4), (2, 4)]
        pm = build_position_mask([rect], 8, 8)
        assert int(pm.sum()) == 6

    def test_empty_list_all_zero(self):
        pm = build_position_mask([], 5, 7)
        assert pm.shape == (5, 7)
        assert not pm.any()

    def test_union_matches_oracle(self):
        a = [(1, 1), (6, 1), (6, 4), (1, 4)]
        b = [(4, 2), (9, 2), (9, 7), (4, 7)]
        pm = build_position_mask([a, b], 10, 12)
        np.testing.assert_array_equal(pm, mask_oracle([a, b], 10, 12))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_polygons_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        polys = [rng.uniform(0, 12, size=(int(rng.integers(3, 7)), 2)) for _ in range(2)]
        pm = build_position_mask(polys, 12, 12)
        np.testing.assert_array_equal(pm, mask_oracle(polys, 12, 12))

    @pytest.mark.parametrize("shift", [1, 2, 3])
    def test_vertex_rotation_invariance(self, shift):
        rng = np.random.default_rng(shift)
        poly = rng.uniform(0, 10, size=(5, 2))
        base = build_position_mask([poly], 10, 10)
        rotated = np.roll(poly, shift, axis=0)
        np.testing.assert_array_equal(build_position_mask([rotated], 10, 10), base)

    def test_too_few_vertices_rejected(self):
        with pytest.raises(ValueError, match="3 vertices"):
            build_position_mask([[(0, 0), (1, 1)]], 4, 4)


class TestMergePositional:
    def test_zero_embedding_is_identity(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=(2, 3, 4, 5))
        np.testing.assert_array_equal(merge_positional(f, np.zeros((3, 4, 5))), f)

    def test_zero_features_broadcast_embedding(self):
        emb = positional_embedding(4, 3, 5)
        out = merge_positional(np.zeros((2, 4, 3, 5)), emb)
        np.testing.assert_array_equal(out[0], emb)
        np.testing.assert_array_equal(out[1], emb)

    def test_random_pair_elementwise_sum(self):
        rng = np.random.default_rng(1)
        f = rng.normal(size=(2, 3, 4, 4))
        e = rng.normal(size=(3, 4, 4))
        out = merge_positional(f, e)
        for b in range(2):
            for c in range(3):
                for i in range(4):
                    for j in range(4):
                        assert out[b, c, i, j] == f[b, c, i, j] + e[c, i, j]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            merge_positional(np.zeros((1, 3, 4, 4)), np.zeros((3, 5, 5)))


class TestPositionalEmbedding:
    def test_row_col_ramps(self):
        emb = positional_embedding(4, 3, 5)
        assert emb.shape == (4, 3, 5)
        np.testing.assert_allclose(emb[0][:, 0], [0.0, 0.5, 1.0])
        np.testing.assert_allclose(emb[1][0], [0.0, 0.25, 0.5, 0.75, 1.0])
        np.testing.assert_array_equal(emb[0], emb[2])
        np.testing.assert_array_equal(emb[1], emb[3])


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


class TestSpatialBranch:
    def test_decoder_shapes_and_range(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(2, 4, 5, 6))
        recon, merged = spatial_branch(feats, init_spatial_decoder(4, seed=0))
        assert recon.shape == (2, 10, 12)
        assert merged.shape == (2, 4, 10, 12)
        assert np.all((recon > 0) & (recon < 1))
