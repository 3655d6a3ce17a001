import math
import tracemalloc

import numpy as np
import pytest

from textshaper import grids
from helpers import conv2d_einsum_oracle
from textshaper.grids import ShapeMismatchError, conv2d
from textshaper.maps import CHANNELS
from textshaper.pyramid import (INIT_SCALE, LEVELS, SNAKE_LENGTH, AttentionParams, BlockParams,
                                DsfParams, PyramidSpec, backbone_stub, dsf_forward,
                                gated_attention, geometry_maps_from_head, init_dsf_params,
                                init_stub_params, modulation_block)


def small_spec(channels=8):
    return PyramidSpec(channels=channels)


def pyramid_feats(spec, base, rng=None, batch=1):
    feats = []
    c = spec.channels
    for i in range(LEVELS):
        side = base // (2 ** (LEVELS - 1 - i))
        if rng is None:
            feats.append(np.zeros((batch, c, side, side)))
        else:
            feats.append(rng.normal(size=(batch, c, side, side)))
    return feats


def zero_params(spec):
    c = spec.channels
    d = 2 * c
    block = BlockParams(
        conv_w=np.zeros((c, d, 3, 3)), conv_b=np.zeros(c),
        snake_h=np.zeros((c, d, 1, SNAKE_LENGTH)), snake_v=np.zeros((c, d, SNAKE_LENGTH, 1)),
        attention=AttentionParams(w_q=np.zeros((d, d)), w_k=np.zeros((d, d)),
                                  b_q=np.zeros(d), b_k=np.zeros(d)),
        proj_w=np.zeros((c, d, 1, 1)), proj_b=np.zeros(c))
    return DsfParams(blocks=(block,) * LEVELS, head_w=np.zeros((len(CHANNELS), c, 3, 3)),
                     head_b=np.zeros(len(CHANNELS)))


class TestGatedAttention:
    # Tokens are channel-major (d, n): column j is token j.

    def test_two_token_closed_form(self):
        v = np.array([[1.0, 0.0], [0.0, 2.0]])
        w_q = np.array([[0.5, -0.25], [0.1, 0.3]])
        w_k = np.array([[-0.2, 0.4], [0.6, 0.05]])
        b_q = np.array([0.05, -0.1])
        b_k = np.array([0.2, 0.0])
        params = AttentionParams(w_q=w_q, w_k=w_k, b_q=b_q, b_k=b_k)
        out = gated_attention(v.T, params, v.T).T

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
        rng = np.random.default_rng(1)
        v = rng.normal(size=(32, 3))
        params = AttentionParams(w_q=rng.normal(size=(3, 3)), w_k=rng.normal(size=(3, 3)),
                                 b_q=rng.normal(size=3), b_k=rng.normal(size=3))
        full = gated_attention(v.T, params, v.T).T
        shapes = []
        real_exp = np.exp

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real_exp(a, *args, **kwargs)

        # Seven query columns of 32 scores each per chunk.
        monkeypatch.setattr(grids, "CHUNK_BYTES", 8 * 32 * 7)
        monkeypatch.setattr(np, "exp", spy)
        chunked = gated_attention(v.T, params, v.T).T
        monkeypatch.undo()
        # The two logistic gates exponentiate (3, 32) arrays; the rest are score chunks.
        assert [s for s in shapes if s != (3, 32)] == [(7, 32)] * 4 + [(4, 32)]
        np.testing.assert_allclose(chunked, full, atol=1e-12)

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_single_token(self, n):
        rng = np.random.default_rng(2)
        params = AttentionParams(w_q=rng.normal(size=(3, 3)), w_k=rng.normal(size=(3, 3)),
                                 b_q=rng.normal(size=3), b_k=rng.normal(size=3))
        v = rng.normal(size=(n, 3))
        out = gated_attention(v.T, params, v.T).T
        assert out.shape == (n, 3)
        # A lone token attends only to itself.
        np.testing.assert_allclose(out, v, atol=1e-15)

    def test_working_set_is_two_gates_and_one_score_chunk(self):
        # The finest level of a 192 px image: 2304 tokens of 512 channels.
        rng = np.random.default_rng(6)
        d, n = 512, 2304
        tokens = rng.normal(size=(d, n))
        params = AttentionParams(w_q=rng.uniform(-0.05, 0.05, (d, d)),
                                 w_k=rng.uniform(-0.05, 0.05, (d, d)),
                                 b_q=rng.uniform(-0.05, 0.05, d), b_k=rng.uniform(-0.05, 0.05, d))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            gated_attention(tokens, params, tokens)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        rows = min(n, grids.CHUNK_BYTES // (8 * n))
        # 1 MB covers the per-row maxima and sums of a chunk.
        assert peak < 8 * (2 * d * n + rows * n) + (1 << 20)


    def test_values_are_mapped_by_the_attention_matrix(self):
        # Projected values give the projection of the attended tokens.
        rng = np.random.default_rng(7)
        d, n = 6, 10
        tokens = rng.normal(size=(d, n))
        proj = rng.normal(size=(4, d))
        params = AttentionParams(w_q=rng.normal(size=(d, d)), w_k=rng.normal(size=(d, d)),
                                 b_q=rng.normal(size=d), b_k=rng.normal(size=d))
        want = proj @ gated_attention(tokens, params, tokens)
        got = gated_attention(tokens, params, proj @ tokens)
        assert got.shape == (4, n) and got.flags.c_contiguous
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(7, 10), (4, 9)])
    def test_values_shape_checked(self, shape):
        rng = np.random.default_rng(8)
        params = AttentionParams(w_q=np.eye(6), w_k=np.eye(6), b_q=np.zeros(6), b_k=np.zeros(6))
        with pytest.raises(ShapeMismatchError, match="values"):
            gated_attention(rng.normal(size=(6, 10)), params, rng.normal(size=shape))


class TestModulationBlock:
    def test_zero_attention_weights_give_uniform_mean(self):
        rng = np.random.default_rng(2)
        c, h, w = 2, 3, 4
        d = 2 * c
        params = BlockParams(
            conv_w=rng.normal(size=(c, d, 3, 3)), conv_b=rng.normal(size=c),
            snake_h=rng.normal(size=(c, d, 1, 3)), snake_v=rng.normal(size=(c, d, 3, 1)),
            attention=AttentionParams(w_q=np.zeros((d, d)), w_k=np.zeros((d, d)),
                                      b_q=np.zeros(d), b_k=np.zeros(d)),
            proj_w=rng.normal(size=(c, d, 1, 1)), proj_b=rng.normal(size=c))
        c_i = rng.normal(size=(1, c, h, w))
        f_prev = rng.normal(size=(1, c, h, w))
        out = modulation_block(c_i, f_prev, params)

        from textshaper.snakeconv import dsc_forward
        x = np.concatenate([c_i, f_prev], axis=1)
        v = np.concatenate([conv2d(x, params.conv_w, params.conv_b),
                            dsc_forward(x, params.snake_h) + dsc_forward(x, params.snake_v)],
                           axis=1)
        mean_token = v[0].reshape(d, h * w).mean(axis=1)
        uniform = np.tile(mean_token[:, None], (1, h * w)).reshape(1, d, h, w)
        expected = conv2d(uniform, params.proj_w, params.proj_b)
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_random_weights_match_unfolded_reference(self):
        # Full width (512-row tokens) with non-zero attention weights, against
        # the block in its original order: concat -> 3x3 conv + both snakes
        # -> attention over the tokens themselves -> 1x1 projection + bias.
        rng = np.random.default_rng(9)
        c, h, w = 256, 5, 6
        d, n = 2 * c, h * w
        params = init_dsf_params(PyramidSpec(), seed=11).blocks[2]
        att = params.attention
        c_i = rng.normal(size=(2, c, h, w))
        f_prev = rng.normal(size=(2, c, h, w))
        got = modulation_block(c_i, f_prev, params)

        x = np.concatenate([c_i, f_prev], axis=1)
        tokens = np.concatenate(
            [conv2d_einsum_oracle(x, params.conv_w, params.conv_b, 1, 1),
             conv2d_einsum_oracle(x, params.snake_h, np.zeros(c), 1, (0, SNAKE_LENGTH // 2))
             + conv2d_einsum_oracle(x, params.snake_v, np.zeros(c), 1, (SNAKE_LENGTH // 2, 0))],
            axis=1)
        sig = lambda z: 1.0 / (1.0 + np.exp(-z))
        want = np.empty_like(got)
        for i in range(2):
            t = tokens[i].reshape(d, n)
            q = sig(att.w_q @ t + att.b_q[:, None])
            k = sig(att.w_k @ t + att.b_k[:, None])
            scores = q.T @ k / math.sqrt(d)
            a = np.exp(scores - scores.max(axis=1, keepdims=True))
            a /= a.sum(axis=1, keepdims=True)
            attended = (t @ a.T).reshape(1, d, h, w)
            want[i] = conv2d_einsum_oracle(attended, params.proj_w, params.proj_b, 1, 0)[0]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_full_width_shape_contract(self):
        rng = np.random.default_rng(3)
        spec = PyramidSpec()  # 256 channels
        params = init_dsf_params(spec, seed=0)
        c_i = rng.normal(size=(1, 256, 4, 4))
        f_prev = rng.normal(size=(1, 256, 4, 4))
        out = modulation_block(c_i, f_prev, params.blocks[0])
        assert out.shape == (1, 256, 4, 4)

    def test_branch_shape_mismatch(self):
        spec = small_spec()
        params = init_dsf_params(spec, seed=0)
        with pytest.raises(ShapeMismatchError, match="branch"):
            modulation_block(np.zeros((1, 8, 4, 4)), np.zeros((1, 8, 2, 2)), params.blocks[0])


class TestDsfForward:
    def test_four_level_contract(self):
        spec = small_spec()
        rng = np.random.default_rng(4)
        params = init_dsf_params(spec, seed=1)
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
        out1 = dsf_forward(feats, init_dsf_params(spec, seed=42), spec)
        out2 = dsf_forward(feats, init_dsf_params(spec, seed=42), spec)
        np.testing.assert_array_equal(out1.head, out2.head)

    def test_wrong_level_count(self):
        spec = small_spec()
        params = init_dsf_params(spec, seed=0)
        feats = pyramid_feats(spec, base=16)[:3]
        with pytest.raises(ShapeMismatchError, match="levels"):
            dsf_forward(feats, params, spec)

    def test_off_pyramid_spacing_rejected(self):
        spec = small_spec()
        params = init_dsf_params(spec, seed=0)
        feats = pyramid_feats(spec, base=16)
        feats[2] = np.zeros((1, 8, 9, 9))
        with pytest.raises(ShapeMismatchError, match="2x"):
            dsf_forward(feats, params, spec)

    def test_stacked_blocks_fail_block_count(self):
        spec = small_spec()
        params = init_dsf_params(spec, seed=4)
        stacked = DsfParams(blocks=params.blocks * 2, head_w=params.head_w, head_b=params.head_b)
        with pytest.raises(ShapeMismatchError, match="8 blocks for 4 levels"):
            dsf_forward(pyramid_feats(spec, base=16), stacked, spec)

    def test_wrong_channel_count_names_level(self):
        spec = small_spec()
        params = init_dsf_params(spec, seed=0)
        feats = pyramid_feats(spec, base=16)
        feats[1] = np.zeros((1, 6, 4, 4))
        with pytest.raises(ShapeMismatchError, match="level 1: expected 8 channels, got 6"):
            dsf_forward(feats, params, spec)

    def test_zeroed_snake_branch_keeps_shapes(self):
        spec = small_spec()
        params = init_dsf_params(spec, seed=3)
        blocks = tuple(
            BlockParams(conv_w=b.conv_w, conv_b=b.conv_b,
                        snake_h=np.zeros_like(b.snake_h), snake_v=np.zeros_like(b.snake_v),
                        attention=b.attention, proj_w=b.proj_w, proj_b=b.proj_b)
            for b in params.blocks)
        ablated = DsfParams(blocks=blocks, head_w=params.head_w, head_b=params.head_b)
        rng = np.random.default_rng(6)
        feats = pyramid_feats(spec, base=16, rng=rng)
        out = dsf_forward(feats, ablated, spec)
        assert out.head.shape == (1, 7, 16, 16)
        assert [f.shape for f in out.fused] == [f.shape for f in
                                                dsf_forward(feats, params, spec).fused]


class TestPyramidSpec:
    def test_default_levels(self):
        spec = PyramidSpec()
        assert LEVELS == 4
        assert spec.channels == 256
        params = init_dsf_params(small_spec(), seed=0)
        assert len(params.blocks) == LEVELS
        assert params.blocks[0].snake_h.shape == (8, 16, 1, SNAKE_LENGTH)

    def test_init_draws_every_array_in_its_own_c_order(self):
        # 10 channels: not a whole number of the snake draw's channel groups.
        c, d = 10, 20
        params = init_dsf_params(small_spec(c), seed=3)
        rng = np.random.default_rng(3)
        u = lambda *shape: rng.uniform(-INIT_SCALE, INIT_SCALE, shape)
        for b in params.blocks:
            a = b.attention
            for got, shape in [(b.conv_w, (c, d, 3, 3)), (b.conv_b, (c,)),
                               (b.snake_h, (c, d, 1, SNAKE_LENGTH)),
                               (b.snake_v, (c, d, SNAKE_LENGTH, 1)),
                               (a.w_q, (d, d)), (a.w_k, (d, d)), (a.b_q, (d,)), (a.b_k, (d,)),
                               (b.proj_w, (c, d, 1, 1)), (b.proj_b, (c,))]:
                np.testing.assert_array_equal(got, u(*shape))
        np.testing.assert_array_equal(params.head_w, u(len(CHANNELS), c, 3, 3))
        np.testing.assert_array_equal(params.head_b, u(len(CHANNELS)))

    def test_kernels_are_stored_tap_major(self):
        params = init_dsf_params(small_spec(10), seed=3)
        kernels = [params.head_w] + [w for w, _ in init_stub_params(seed=3, channels=10)]
        kernels += [k for b in params.blocks for k in (b.conv_w, b.snake_h, b.snake_v)]
        for k in kernels:
            # The (cout, cin, kh, kw) view of a C-contiguous (kh, kw, cout, cin) store.
            assert k.transpose(2, 3, 0, 1).flags.c_contiguous

    def test_stub_draws_every_array_in_its_own_c_order(self):
        params = init_stub_params(seed=5, channels=10)
        rng = np.random.default_rng(5)
        u = lambda *shape: rng.uniform(-INIT_SCALE, INIT_SCALE, shape)
        dims = [1, 16, 10, 10, 10, 10]
        for i, (wgt, b) in enumerate(params):
            np.testing.assert_array_equal(wgt, u(dims[i + 1], dims[i], 3, 3))
            np.testing.assert_array_equal(b, u(dims[i + 1]))

    @pytest.mark.parametrize("channels", [0, -8, True, 8.0, "8", None])
    def test_rejects_bad_channels(self, channels):
        with pytest.raises(ValueError, match="channels must be a positive int"):
            PyramidSpec(channels=channels)


class TestBackboneStub:
    def test_pyramid_shapes(self):
        params = init_stub_params(seed=0, channels=8)
        feats = backbone_stub(np.random.default_rng(0).uniform(size=(64, 64)), params)
        assert [f.shape for f in feats] == [(1, 8, 2, 2), (1, 8, 4, 4),
                                            (1, 8, 8, 8), (1, 8, 16, 16)]

    def test_rejects_odd_size(self):
        params = init_stub_params(seed=0, channels=8)
        with pytest.raises(ShapeMismatchError, match="divisible"):
            backbone_stub(np.zeros((60, 64)), params)
