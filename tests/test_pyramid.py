import math

import numpy as np
import pytest

from textshaper.dataio import write_map
from textshaper.grids import ShapeMismatchError, conv2d
from textshaper.maps import CHANNELS
from textshaper.pyramid import (AttentionParams, BlockParams, DsfParams, PyramidSpec,
                                _param_sections, backbone_stub, dsf_forward, gated_attention,
                                geometry_maps_from_head, init_dsf_params, init_stub_params,
                                load_dsf_params, modulation_block, save_dsf_params)
from textshaper.snakeconv import HORIZONTAL, VERTICAL, SnakeKernel


def small_spec(channels=8):
    return PyramidSpec(levels=((1 / 32, channels), (1 / 16, channels),
                               (1 / 8, channels), (1 / 4, channels)))


def pyramid_feats(spec, base, rng=None, batch=1):
    feats = []
    n = len(spec.levels)
    for i, (_, c) in enumerate(spec.levels):
        side = base // (2 ** (n - 1 - i))
        if rng is None:
            feats.append(np.zeros((batch, c, side, side)))
        else:
            feats.append(rng.normal(size=(batch, c, side, side)))
    return feats


def zero_params(spec, kernel_length=3):
    blocks = []
    for _, c in spec.levels:
        d = 2 * c
        blocks.append(BlockParams(
            conv_w=np.zeros((c, d, 3, 3)), conv_b=np.zeros(c),
            snake_h=SnakeKernel(HORIZONTAL, np.zeros((c, d, kernel_length))),
            snake_v=SnakeKernel(VERTICAL, np.zeros((c, d, kernel_length))),
            attention=AttentionParams(w_q=np.zeros((d, d)), w_k=np.zeros((d, d)),
                                      b_q=np.zeros(d), b_k=np.zeros(d)),
            proj_w=np.zeros((c, d, 1, 1)), proj_b=np.zeros(c)))
    c = spec.channels
    return DsfParams(blocks=tuple(blocks), head_w=np.zeros((len(CHANNELS), c, 3, 3)),
                     head_b=np.zeros(len(CHANNELS)))


class TestGatedAttention:
    def test_two_token_closed_form(self):
        v = np.array([[1.0, 0.0], [0.0, 2.0]])
        w_q = np.array([[0.5, -0.25], [0.1, 0.3]])
        w_k = np.array([[-0.2, 0.4], [0.6, 0.05]])
        b_q = np.array([0.05, -0.1])
        b_k = np.array([0.2, 0.0])
        params = AttentionParams(w_q=w_q, w_k=w_k, b_q=b_q, b_k=b_k)
        out = gated_attention(v, params)

        def sig(z):
            return 1.0 / (1.0 + math.exp(-z))

        q = [[sig(v[i] @ w_q[r] + b_q[r]) for r in range(2)] for i in range(2)]
        k = [[sig(v[i] @ w_k[r] + b_k[r]) for r in range(2)] for i in range(2)]
        expected_att = np.zeros((2, 2))
        for i in range(2):
            scores = [ (q[i][0] * k[j][0] + q[i][1] * k[j][1]) / math.sqrt(2.0)
                       for j in range(2) ]
            m = max(scores)
            exps = [math.exp(s - m) for s in scores]
            z = sum(exps)
            for j in range(2):
                expected_att[i, j] = exps[j] / z
        # v is invertible, so matching expected_att @ v pins the attention matrix.
        np.testing.assert_allclose(out, expected_att @ v, atol=1e-12)

    def test_chunked_matches_full(self, monkeypatch):
        import textshaper.grids as grids
        import textshaper.pyramid as pyr
        rng = np.random.default_rng(1)
        v = rng.normal(size=(32, 3))
        params = AttentionParams(w_q=rng.normal(size=(3, 3)), w_k=rng.normal(size=(3, 3)),
                                 b_q=rng.normal(size=3), b_k=rng.normal(size=3))
        full = gated_attention(v, params)
        chunks = []
        real_softmax = pyr.row_softmax_inplace

        def spy(s):
            chunks.append(s.shape)
            return real_softmax(s)

        # Seven query rows of 32 scores each per chunk.
        monkeypatch.setattr(grids, "CHUNK_BYTES", 8 * 32 * 7)
        monkeypatch.setattr(pyr, "row_softmax_inplace", spy)
        chunked = gated_attention(v, params)
        assert chunks == [(7, 32)] * 4 + [(4, 32)]
        np.testing.assert_allclose(chunked, full, atol=1e-12)

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_single_token(self, n):
        rng = np.random.default_rng(2)
        params = AttentionParams(w_q=rng.normal(size=(3, 3)), w_k=rng.normal(size=(3, 3)),
                                 b_q=rng.normal(size=3), b_k=rng.normal(size=3))
        v = rng.normal(size=(n, 3))
        out = gated_attention(v, params)
        assert out.shape == (n, 3)
        # A lone token attends only to itself.
        np.testing.assert_allclose(out, v, atol=1e-15)


class TestModulationBlock:
    def test_zero_attention_weights_give_uniform_mean(self):
        rng = np.random.default_rng(2)
        c, h, w = 2, 3, 4
        d = 2 * c
        params = BlockParams(
            conv_w=rng.normal(size=(c, d, 3, 3)), conv_b=rng.normal(size=c),
            snake_h=SnakeKernel(HORIZONTAL, rng.normal(size=(c, d, 3))),
            snake_v=SnakeKernel(VERTICAL, rng.normal(size=(c, d, 3))),
            attention=AttentionParams(w_q=np.zeros((d, d)), w_k=np.zeros((d, d)),
                                      b_q=np.zeros(d), b_k=np.zeros(d)),
            proj_w=rng.normal(size=(c, d, 1, 1)), proj_b=rng.normal(size=c))
        c_i = rng.normal(size=(1, c, h, w))
        f_prev = rng.normal(size=(1, c, h, w))
        out = modulation_block(c_i, f_prev, params)

        from textshaper.snakeconv import dsc_forward
        x = np.concatenate([c_i, f_prev], axis=1)
        v = np.concatenate([conv2d(x, params.conv_w, params.conv_b, padding=1),
                            dsc_forward(x, params.snake_h) + dsc_forward(x, params.snake_v)],
                           axis=1)
        mean_token = v[0].reshape(d, h * w).mean(axis=1)
        uniform = np.tile(mean_token[:, None], (1, h * w)).reshape(1, d, h, w)
        expected = conv2d(uniform, params.proj_w, params.proj_b)
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_full_width_shape_contract(self):
        rng = np.random.default_rng(3)
        spec = PyramidSpec()  # 256 channels
        params = init_dsf_params(spec, seed=0, kernel_length=3)
        c_i = rng.normal(size=(1, 256, 4, 4))
        f_prev = rng.normal(size=(1, 256, 4, 4))
        out = modulation_block(c_i, f_prev, params.blocks[0])
        assert out.shape == (1, 256, 4, 4)

    def test_branch_shape_mismatch(self):
        spec = small_spec()
        params = init_dsf_params(spec, seed=0, kernel_length=3)
        with pytest.raises(ShapeMismatchError, match="branch"):
            modulation_block(np.zeros((1, 8, 4, 4)), np.zeros((1, 8, 2, 2)), params.blocks[0])


class TestDsfForward:
    def test_four_level_contract(self):
        spec = small_spec()
        rng = np.random.default_rng(4)
        params = init_dsf_params(spec, seed=1, kernel_length=3)
        feats = pyramid_feats(spec, base=16, rng=rng)
        out = dsf_forward(feats, params, spec)
        assert out.head.shape == (1, 7, 16, 16)
        assert [f.shape for f in out.fused] == [(1, 8, 2, 2), (1, 8, 4, 4),
                                                (1, 8, 8, 8), (1, 8, 16, 16)]
        maps = geometry_maps_from_head(out.head)
        assert maps.shape == (16, 16)

    def test_zero_everything_gives_half_scores(self):
        spec = small_spec()
        params = zero_params(spec)
        feats = pyramid_feats(spec, base=16)
        out = dsf_forward(feats, params, spec)
        np.testing.assert_allclose(out.head[:, :2], 0.5, atol=1e-15)
        np.testing.assert_allclose(out.head[:, 2:], 0.0, atol=1e-15)

    def test_deterministic_replay(self):
        spec = small_spec()
        rng = np.random.default_rng(5)
        feats = pyramid_feats(spec, base=16, rng=rng)
        out1 = dsf_forward(feats, init_dsf_params(spec, seed=42, kernel_length=3), spec)
        out2 = dsf_forward(feats, init_dsf_params(spec, seed=42, kernel_length=3), spec)
        np.testing.assert_array_equal(out1.head, out2.head)

    def test_wrong_level_count(self):
        spec = small_spec()
        params = init_dsf_params(spec, seed=0, kernel_length=3)
        feats = pyramid_feats(spec, base=16)[:3]
        with pytest.raises(ShapeMismatchError, match="levels"):
            dsf_forward(feats, params, spec)

    def test_off_pyramid_spacing_rejected(self):
        spec = small_spec()
        params = init_dsf_params(spec, seed=0, kernel_length=3)
        feats = pyramid_feats(spec, base=16)
        feats[2] = np.zeros((1, 8, 9, 9))
        with pytest.raises(ShapeMismatchError, match="2x"):
            dsf_forward(feats, params, spec)

    def test_zeroed_snake_branch_keeps_shapes(self):
        spec = small_spec()
        params = init_dsf_params(spec, seed=3, kernel_length=3)
        blocks = tuple(
            BlockParams(conv_w=b.conv_w, conv_b=b.conv_b,
                        snake_h=SnakeKernel(HORIZONTAL, np.zeros_like(b.snake_h.weights)),
                        snake_v=SnakeKernel(VERTICAL, np.zeros_like(b.snake_v.weights)),
                        attention=b.attention, proj_w=b.proj_w, proj_b=b.proj_b)
            for b in params.blocks)
        ablated = DsfParams(blocks=blocks, head_w=params.head_w, head_b=params.head_b)
        rng = np.random.default_rng(6)
        feats = pyramid_feats(spec, base=16, rng=rng)
        out = dsf_forward(feats, ablated, spec)
        assert out.head.shape == (1, 7, 16, 16)
        assert [f.shape for f in out.fused] == [f.shape for f in
                                                dsf_forward(feats, params, spec).fused]


class TestParamsIO:
    def test_save_load_round_trip(self, tmp_path):
        spec = small_spec()
        params = init_dsf_params(spec, seed=11, kernel_length=3)
        path = tmp_path / "params.tmap"
        save_dsf_params(path, params)
        loaded = load_dsf_params(path)
        assert len(loaded.blocks) == len(params.blocks)
        for a, b in zip(params.blocks, loaded.blocks):
            np.testing.assert_array_equal(a.conv_w, b.conv_w)
            np.testing.assert_array_equal(a.snake_h.weights, b.snake_h.weights)
            np.testing.assert_array_equal(a.attention.w_q, b.attention.w_q)
        np.testing.assert_array_equal(params.head_w, loaded.head_w)
        rng = np.random.default_rng(7)
        feats = pyramid_feats(spec, base=16, rng=rng)
        np.testing.assert_array_equal(dsf_forward(feats, params, spec).head,
                                      dsf_forward(feats, loaded, spec).head)

    def test_loads_file_with_blocks_per_level_section(self, tmp_path):
        # Parameter files of earlier versions carry meta/blocks_per_level.
        spec = small_spec()
        params = init_dsf_params(spec, seed=4, kernel_length=3)
        path = tmp_path / "old.tmap"
        write_map(path, {**_param_sections(params), "meta/blocks_per_level": np.array([1.0])})
        loaded = load_dsf_params(path)
        feats = pyramid_feats(spec, base=16, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(dsf_forward(feats, params, spec).head,
                                      dsf_forward(feats, loaded, spec).head)

    def test_stacked_file_fails_block_count(self, tmp_path):
        spec = small_spec()
        params = init_dsf_params(spec, seed=4, kernel_length=3)
        stacked = DsfParams(blocks=params.blocks * 2, head_w=params.head_w, head_b=params.head_b)
        path = tmp_path / "stacked.tmap"
        write_map(path, {**_param_sections(stacked), "meta/blocks_per_level": np.array([2.0])})
        loaded = load_dsf_params(path)
        assert len(loaded.blocks) == 8
        with pytest.raises(ShapeMismatchError, match="8 blocks for 4 levels"):
            dsf_forward(pyramid_feats(spec, base=16), loaded, spec)


class TestPyramidSpec:
    def test_default_levels(self):
        spec = PyramidSpec()
        assert [s for s, _ in spec.levels] == [1 / 32, 1 / 16, 1 / 8, 1 / 4]
        assert spec.channels == 256

    def test_rejects_decreasing_resolution(self):
        with pytest.raises(ValueError, match="increase"):
            PyramidSpec(levels=((1 / 4, 8), (1 / 8, 8)))

    def test_rejects_unknown_scale(self):
        with pytest.raises(ValueError, match="scale"):
            PyramidSpec(levels=((1 / 64, 8), (1 / 4, 8)))

    def test_rejects_mixed_channels(self):
        with pytest.raises(ValueError, match="uniform"):
            PyramidSpec(levels=((1 / 8, 8), (1 / 4, 16)))


class TestBackboneStub:
    def test_pyramid_shapes(self):
        params = init_stub_params(seed=0, channels=8, width=4)
        feats = backbone_stub(np.random.default_rng(0).uniform(size=(64, 64)), params)
        assert [f.shape for f in feats] == [(1, 8, 2, 2), (1, 8, 4, 4),
                                            (1, 8, 8, 8), (1, 8, 16, 16)]

    def test_rejects_odd_size(self):
        params = init_stub_params(seed=0, channels=8, width=4)
        with pytest.raises(ShapeMismatchError, match="divisible"):
            backbone_stub(np.zeros((60, 64)), params)
