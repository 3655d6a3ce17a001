"""Feature pyramid with parallel standard/snake convolution branches fused
under gated self-attention, plus the seven-channel detection head.

Top-down traversal runs coarsest to finest. At each level the incoming
lateral features are concatenated with the upsampled previous output, pushed
through a standard 3x3 convolution and a paired-axis snake convolution in
parallel, and the concatenated branch outputs are re-weighted by a gated
self-attention over per-pixel tokens before a 1x1 projection back to the
level width. The finest level feeds a head emitting text/center score maps
(logistic squashed) and the five rotated-rectangle regression channels.

Beyond the feature maps themselves, the working set does not grow with
the input: the convolutions' im2col blocks and the attention's score
chunks are each sized to grids.CHUNK_BYTES and reuse one buffer, and the
branch outputs are written straight into the token grid instead of being
concatenated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grids
from .grids import (ShapeMismatchError, as_grid, conv2d, logistic, relu, row_softmax_inplace,
                    upsample2x)
from .maps import CHANNELS, GeometryMaps
from .snakeconv import HORIZONTAL, VERTICAL, SnakeKernel, dsc_forward

INIT_SCALE = 0.05


@dataclass(frozen=True)
class AttentionParams:
    """Query/key projections of the gated self-attention combiner.

    The token value dimension d equals the concatenated branch channels;
    the key dimensionality d_k of the 1/sqrt(d_k) scaling is w_k.shape[0].
    """

    w_q: np.ndarray
    w_k: np.ndarray
    b_q: np.ndarray
    b_k: np.ndarray

    def __post_init__(self):
        wq = as_grid(self.w_q, 2)
        wk = as_grid(self.w_k, 2)
        if wq.shape != wk.shape or wq.shape[0] != wq.shape[1]:
            raise ShapeMismatchError(
                f"attention weights must be square and equal-shaped, got {wq.shape} / {wk.shape}")
        object.__setattr__(self, "w_q", wq)
        object.__setattr__(self, "w_k", wk)
        object.__setattr__(self, "b_q", as_grid(self.b_q, 1))
        object.__setattr__(self, "b_k", as_grid(self.b_k, 1))


@dataclass(frozen=True)
class PyramidSpec:
    """Ordered pyramid levels (scale, channels), coarsest resolution first."""

    levels: tuple[tuple[float, int], ...] = (
        (1 / 32, 256), (1 / 16, 256), (1 / 8, 256), (1 / 4, 256))

    def __post_init__(self):
        allowed = (1 / 4, 1 / 8, 1 / 16, 1 / 32)
        scales = [s for s, _ in self.levels]
        chans = {c for _, c in self.levels}
        if not scales:
            raise ValueError("pyramid needs at least one level")
        for s in scales:
            if not any(math.isclose(s, a) for a in allowed):
                raise ValueError(f"scale {s} not one of {allowed}")
        if any(b <= a for a, b in zip(scales, scales[1:])):
            raise ValueError("scales must strictly increase in resolution (coarsest first)")
        if len(chans) != 1:
            raise ValueError(f"channel count must be uniform across levels, got {sorted(chans)}")
        object.__setattr__(self, "levels", tuple((float(s), int(c)) for s, c in self.levels))

    @property
    def channels(self) -> int:
        return self.levels[0][1]


@dataclass(frozen=True)
class BlockParams:
    conv_w: np.ndarray
    conv_b: np.ndarray
    snake_h: SnakeKernel
    snake_v: SnakeKernel
    attention: AttentionParams
    proj_w: np.ndarray
    proj_b: np.ndarray


@dataclass(frozen=True)
class DsfParams:
    """One block per pyramid level, coarsest first, plus the head."""

    blocks: tuple[BlockParams, ...]
    head_w: np.ndarray
    head_b: np.ndarray


@dataclass(frozen=True)
class DsfOutput:
    fused: list[np.ndarray]
    head: np.ndarray


def init_dsf_params(spec: PyramidSpec, seed: int = 0, kernel_length: int = 9) -> DsfParams:
    """Seeded uniform [-INIT_SCALE, INIT_SCALE] parameters for every block."""
    rng = np.random.default_rng(seed)
    u = lambda *shape: rng.uniform(-INIT_SCALE, INIT_SCALE, shape)
    blocks = []
    for _, c in spec.levels:
        d = 2 * c
        blocks.append(BlockParams(
            conv_w=u(c, d, 3, 3), conv_b=u(c),
            snake_h=SnakeKernel(HORIZONTAL, u(c, d, kernel_length)),
            snake_v=SnakeKernel(VERTICAL, u(c, d, kernel_length)),
            attention=AttentionParams(w_q=u(d, d), w_k=u(d, d), b_q=u(d), b_k=u(d)),
            proj_w=u(c, d, 1, 1), proj_b=u(c),
        ))
    c = spec.channels
    return DsfParams(blocks=tuple(blocks), head_w=u(len(CHANNELS), c, 3, 3),
                     head_b=u(len(CHANNELS)))


def gated_attention(tokens, params: AttentionParams) -> np.ndarray:
    """Self-attention over (n, d) token rows: softmax(g(Q) g(K)^T / sqrt(d_k)) V.

    The gate g is the logistic function, the raw tokens serve as values and
    d_k is the key dimension. Query rows go in chunks whose (rows, n) score
    block fits in grids.CHUNK_BYTES (at least one row), so the n x n
    attention matrix is never held whole. Every chunk reuses one score
    buffer, softmaxes it in place and multiplies it into its rows of the
    output.
    """
    v = as_grid(tokens, 2)
    if v.shape[1] != params.w_q.shape[1]:
        raise ShapeMismatchError(
            f"token dimension {v.shape[1]} does not match attention weights {params.w_q.shape}")
    q = v @ params.w_q.T
    q += params.b_q
    q = logistic(q)
    k = v @ params.w_k.T
    k += params.b_k
    k = logistic(k)
    scale = 1.0 / math.sqrt(params.w_k.shape[0])
    n = v.shape[0]
    out = np.empty_like(v)
    rows = max(1, grids.CHUNK_BYTES // max(1, 8 * n))
    buf = np.empty((min(rows, n), n))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        s = np.matmul(q[lo:hi], k.T, out=buf[:hi - lo])
        s *= scale
        row_softmax_inplace(s)
        np.matmul(s, v, out=out[lo:hi])
    return out


def modulation_block(c_i, f_prev, params: BlockParams) -> np.ndarray:
    """One fusion block: concat, parallel conv/snake branches, gated attention.

    c_i and f_prev must already share (B, C, H, W); returns features of the
    same shape. The branch outputs are written side by side into one
    (B, 2C, H, W) token grid, the concatenated input is dropped before
    attention runs, and each item's attention output overwrites its tokens.
    """
    c_i = as_grid(c_i, 4)
    f_prev = as_grid(f_prev, 4)
    if c_i.shape != f_prev.shape:
        raise ShapeMismatchError(
            f"lateral branch shape {c_i.shape} != top-down branch shape {f_prev.shape}")
    x = np.concatenate([c_i, f_prev], axis=1)
    b, _, h, w = x.shape
    c = params.conv_w.shape[0]
    v = np.empty((b, c + params.snake_h.cout, h, w))
    v[:, :c] = conv2d(x, params.conv_w, params.conv_b, padding=1)
    v[:, c:] = dsc_forward(x, params.snake_h)
    v[:, c:] += dsc_forward(x, params.snake_v)
    del x
    d = v.shape[1]
    for i in range(b):
        # gated_attention returns a new array, so its result can replace
        # the tokens it was computed from.
        tokens = v[i].reshape(d, h * w).T
        v[i] = gated_attention(tokens, params.attention).T.reshape(d, h, w)
    return conv2d(v, params.proj_w, params.proj_b)


def dsf_forward(backbone_feats, params: DsfParams, spec: PyramidSpec | None = None) -> DsfOutput:
    """Fuse a backbone pyramid top-down and emit the seven head channels.

    backbone_feats are (B, C, H, W) grids ordered coarsest first per the
    spec, each finer level exactly doubling the previous spatial size. The
    head maps live at the finest scale; channels 0-1 (text, center) are
    squashed to (0, 1).
    """
    spec = spec or PyramidSpec()
    feats = [as_grid(f, 4) for f in backbone_feats]
    if len(feats) != len(spec.levels):
        raise ShapeMismatchError(
            f"expected {len(spec.levels)} pyramid levels, got {len(feats)}")
    if len(params.blocks) != len(spec.levels):
        raise ShapeMismatchError(
            f"parameter set has {len(params.blocks)} blocks for {len(spec.levels)} levels")
    f = None
    fused = []
    for i, (feat, block, (scale, c)) in enumerate(zip(feats, params.blocks, spec.levels)):
        if feat.shape[1] != c:
            raise ShapeMismatchError(
                f"level {i} (scale {scale:g}): expected {c} channels, got {feat.shape[1]}")
        prev = np.zeros_like(feat) if f is None else upsample2x(f)
        if prev.shape[2:] != feat.shape[2:]:
            raise ShapeMismatchError(
                f"level {i} (scale {scale:g}): spatial size {feat.shape[2:]} does not follow "
                f"2x growth from previous level {prev.shape[2:]}")
        try:
            f = modulation_block(feat, prev, block)
        except ShapeMismatchError as e:
            raise ShapeMismatchError(f"level {i} (scale {scale:g}): {e}") from e
        fused.append(f)
    head = conv2d(f, params.head_w, params.head_b, padding=1)
    head[:, :2] = logistic(head[:, :2])
    return DsfOutput(fused=fused, head=head)


def geometry_maps_from_head(head, index: int = 0) -> GeometryMaps:
    """Split one batch item of a (B, 7, H, W) head tensor into named maps."""
    head = as_grid(head, 4)
    if head.shape[1] != len(CHANNELS):
        raise ShapeMismatchError(f"head must have {len(CHANNELS)} channels, got {head.shape[1]}")
    return GeometryMaps.from_stack(head[index])


@dataclass(frozen=True)
class StubParams:
    convs: tuple[tuple[np.ndarray, np.ndarray], ...]


def init_stub_params(seed: int = 0, channels: int = 256, width: int = 16) -> StubParams:
    rng = np.random.default_rng(seed)
    u = lambda *shape: rng.uniform(-INIT_SCALE, INIT_SCALE, shape)
    dims = [1, width, channels, channels, channels, channels]
    convs = tuple((u(dims[i + 1], dims[i], 3, 3), u(dims[i + 1])) for i in range(5))
    return StubParams(convs=convs)


def backbone_stub(image, params: StubParams) -> list[np.ndarray]:
    """Tiny strided-convolution feature extractor for running images end to end.

    Takes a (H, W) grayscale grid with H and W divisible by 32 and returns a
    4-level pyramid [1/32, 1/16, 1/8, 1/4], coarsest first.
    """
    img = as_grid(image, 2)
    h, w = img.shape
    if h % 32 or w % 32:
        raise ShapeMismatchError(f"image sides must be divisible by 32, got {h}x{w}")
    x = img[None, None]
    feats = []
    for i, (wgt, b) in enumerate(params.convs):
        x = relu(conv2d(x, wgt, b, stride=2, padding=1))
        if i >= 1:
            feats.append(x)
    return feats[::-1]


def _param_sections(params: DsfParams) -> dict[str, np.ndarray]:
    sections = {}
    for i, blk in enumerate(params.blocks):
        p = f"block{i}/"
        sections[p + "conv_w"] = blk.conv_w
        sections[p + "conv_b"] = blk.conv_b
        sections[p + "snake_h_w"] = blk.snake_h.weights
        sections[p + "snake_v_w"] = blk.snake_v.weights
        sections[p + "w_q"] = blk.attention.w_q
        sections[p + "w_k"] = blk.attention.w_k
        sections[p + "b_q"] = blk.attention.b_q
        sections[p + "b_k"] = blk.attention.b_k
        sections[p + "proj_w"] = blk.proj_w
        sections[p + "proj_b"] = blk.proj_b
    sections["head/w"] = params.head_w
    sections["head/b"] = params.head_b
    return sections


def save_dsf_params(path, params: DsfParams) -> None:
    """Persist parameters as named tensor sections."""
    from .dataio import write_map

    write_map(path, _param_sections(params))


def load_dsf_params(path) -> DsfParams:
    """Rebuild parameters from save_dsf_params sections; others (meta/) are ignored."""
    from .dataio import MapFileError, read_map

    sections = read_map(path)
    n_blocks = len({name.split("/")[0] for name in sections if name.startswith("block")})
    blocks = []
    try:
        for i in range(n_blocks):
            p = f"block{i}/"
            blocks.append(BlockParams(
                conv_w=sections[p + "conv_w"], conv_b=sections[p + "conv_b"],
                snake_h=SnakeKernel(HORIZONTAL, sections[p + "snake_h_w"]),
                snake_v=SnakeKernel(VERTICAL, sections[p + "snake_v_w"]),
                attention=AttentionParams(
                    w_q=sections[p + "w_q"], w_k=sections[p + "w_k"],
                    b_q=sections[p + "b_q"], b_k=sections[p + "b_k"]),
                proj_w=sections[p + "proj_w"], proj_b=sections[p + "proj_b"],
            ))
        return DsfParams(blocks=tuple(blocks), head_w=sections["head/w"],
                         head_b=sections["head/b"])
    except KeyError as e:
        raise MapFileError(f"parameter file {path} is missing section {e}") from e
