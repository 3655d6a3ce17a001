"""Feature pyramid with parallel standard/snake convolution branches fused
under gated self-attention, plus the seven-channel detection head.

The pyramid has four levels at the backbone stub's strides (1/32, 1/16,
1/8, 1/4), set by one channel width. Top-down traversal runs coarsest to
finest. At each level the incoming lateral features are concatenated with
the upsampled previous output, pushed through a standard 3x3 convolution
and a paired-axis snake convolution in parallel, and the concatenated
branch outputs are re-weighted by a gated self-attention over per-pixel
tokens before a 1x1 projection back to the level width. The finest level
feeds a head emitting text/center score maps (logistic squashed) and the
five rotated-rectangle regression channels.

Every convolution (the level's 3x3, the 1xL and Lx1 snake branches, the
1x1 projection, the head and the backbone stub's strided convs) is a
grids.conv2d call, padded by its kernel's reach: it keeps its map's size,
and the stub's stride-2 convs halve it. Each runs as shifted taps, one
GEMM per kernel tap, with the kernels stored tap-major, in the layout
those GEMMs read, so no column buffer or weight copy is made. Beyond the
feature maps themselves, the working set does not grow with the input: a
convolution's scratch is one tap's product, and the attention's score
chunks are sized to grids.CHUNK_BYTES and reuse one buffer. Nothing is
copied just to change layout: the branch outputs are written (3x3) and
added (snake, through conv2d's out) straight into the token grid, the 1x1
projection is one GEMM on that grid, run before attention on the values
(it commutes with the attention average), and attention reads the grid's
channel-major (d, H*W) view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grids
from .grids import (ShapeMismatchError, _logistic_inplace, as_grid, conv2d, logistic,
                    upsample2x)
from .maps import CHANNELS, GeometryMaps
from .snakeconv import dsc_forward

INIT_SCALE = 0.05
LEVELS = 4
SNAKE_LENGTH = 9
STUB_WIDTH = 16


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
    """Channel width shared by all LEVELS pyramid levels."""

    channels: int = 256

    def __post_init__(self):
        if (isinstance(self.channels, bool) or not isinstance(self.channels, (int, np.integer))
                or self.channels < 1):
            raise ValueError(f"channels must be a positive int, got {self.channels!r}")
        object.__setattr__(self, "channels", int(self.channels))


@dataclass(frozen=True)
class BlockParams:
    conv_w: np.ndarray
    conv_b: np.ndarray
    snake_h: np.ndarray
    snake_v: np.ndarray
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


def init_dsf_params(spec: PyramidSpec, seed: int = 0) -> DsfParams:
    """Seeded uniform [-INIT_SCALE, INIT_SCALE] parameters for every block.

    Every array is drawn in its own C order, one after another; the conv,
    head and snake kernels go through `_uniform_taps`, which stores them
    tap-major.
    """
    rng = np.random.default_rng(seed)
    u = lambda *shape: rng.uniform(-INIT_SCALE, INIT_SCALE, shape)
    c = spec.channels
    d = 2 * c
    blocks = tuple(BlockParams(
        conv_w=_uniform_taps(rng, c, d, 3, 3), conv_b=u(c),
        snake_h=_uniform_taps(rng, c, d, 1, SNAKE_LENGTH),
        snake_v=_uniform_taps(rng, c, d, SNAKE_LENGTH, 1),
        attention=AttentionParams(w_q=u(d, d), w_k=u(d, d), b_q=u(d), b_k=u(d)),
        proj_w=u(c, d, 1, 1), proj_b=u(c),
    ) for _ in range(LEVELS))
    return DsfParams(blocks=blocks, head_w=_uniform_taps(rng, len(CHANNELS), c, 3, 3),
                     head_b=u(len(CHANNELS)))


def _uniform_taps(rng: np.random.Generator, cout: int, cin: int, *kernel: int) -> np.ndarray:
    """rng.uniform(-INIT_SCALE, INIT_SCALE, (cout, cin, *kernel)), stored tap-major.

    The result is the (cout, cin, *kernel) view of a C-contiguous
    (prod(kernel), cout, cin) store, the layout in which conv2d feeds each
    tap's (cout, cin) matrix to BLAS. The draw is made eight output
    channels at a time, with the arithmetic of rng.uniform, into one small
    buffer that is scattered into the store, so the kernel is never held
    in both layouts.
    """
    ntaps = math.prod(kernel)
    taps = np.empty((ntaps, cout, cin))
    buf = np.empty((min(8, cout), cin, ntaps))
    for lo in range(0, cout, 8):
        b = buf[:min(8, cout - lo)]
        # rng.uniform(low, high) draws low + (high - low) * rng.random().
        rng.random(out=b)
        b *= 2 * INIT_SCALE
        b -= INIT_SCALE
        taps[:, lo:lo + len(b)] = b.transpose(2, 0, 1)
    return np.moveaxis(taps.reshape(*kernel, cout, cin), (-2, -1), (0, 1))


def gated_attention(tokens, params: AttentionParams, values) -> np.ndarray:
    """Self-attention over (d, n) channel-major tokens: softmax(g(Q) g(K)^T / sqrt(d_k)) V.

    Column j of tokens is token j, as in a (d, H, W) feature grid flattened
    to (d, H*W). The gate g is the logistic function, d_k is the key
    dimension, and 1/sqrt(d_k) is folded into the query gate. values is
    an (m, n) array, m <= d, whose column j is token j's value (the tokens
    themselves, or a linear map of them); the result is (m, n), in the
    same layout.

    Both gates lie in [0, 1], so every scaled score lies in [0, sqrt(d_k)]:
    the scores are exponentiated as they are, without the usual shift by
    the row maximum, since exp cannot overflow for any d_k below 500 000
    and each row sums to at least n.

    Query columns go in chunks whose (rows, n) score block fits in
    grids.CHUNK_BYTES (at least one column), so the n x n attention matrix
    is never held whole. Every chunk reuses one score buffer and
    exponentiates it in place, and the softmax normalisation is deferred:
    the (m, rows) value product is divided by the row sums, instead of the
    (rows, n) scores, and written into the first m rows of the query
    gate's columns that the chunk has just consumed. AttentionParams makes
    d_k equal d, so the gate's buffer holds the output, which is returned
    as a view of its first m rows, and no third array is made.
    """
    t = as_grid(tokens, 2)
    v = as_grid(values, 2)
    d, n = t.shape
    if d != params.w_q.shape[1]:
        raise ShapeMismatchError(
            f"token dimension {d} does not match attention weights {params.w_q.shape}")
    if v.shape[1] != n or v.shape[0] > d:
        raise ShapeMismatchError(
            f"values {v.shape} must be (m, {n}) with m <= token dimension {d}")
    # Each gate is computed in its projection's buffer, so no result array
    # of size (d_k, n) is held beside the gates.
    q = params.w_q @ t
    q += params.b_q[:, None]
    _logistic_inplace(q)
    q *= 1.0 / math.sqrt(params.w_k.shape[0])
    k = params.w_k @ t
    k += params.b_k[:, None]
    _logistic_inplace(k)
    m = v.shape[0]
    rows = max(1, grids.CHUNK_BYTES // max(1, 8 * n))
    buf = np.empty((min(rows, n), n))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        s = np.matmul(q[:, lo:hi].T, k, out=buf[:hi - lo])
        np.exp(s, out=s)
        total = s.sum(axis=1)
        out = np.matmul(v, s.T, out=q[:m, lo:hi])
        out /= total
    return q[:m]


def modulation_block(c_i, f_prev, params: BlockParams) -> np.ndarray:
    """One fusion block: concat, parallel conv/snake branches, gated attention.

    c_i and f_prev must already share (B, C, H, W); returns features of the
    same shape. The 3x3 branch is written, and both snake branches are
    added, straight into one (B, 2C, H, W) token grid, whose (2C, H*W) view
    per item is attention's token layout. The concatenated input is dropped
    before attention runs.

    The level's 1x1 projection is linear and each softmax row sums to 1,
    so proj(attn V) + b = attn (proj V) + b: the projection (without its
    bias) runs first, on the tokens, and attention takes the C-channel
    projected values instead of the 2C-channel tokens, halving its value
    product. Each item's attention output, plus the bias, then overwrites
    that item's projected values, which are the block's output.
    """
    c_i = as_grid(c_i, 4)
    f_prev = as_grid(f_prev, 4)
    if c_i.shape != f_prev.shape:
        raise ShapeMismatchError(
            f"lateral branch shape {c_i.shape} != top-down branch shape {f_prev.shape}")
    x = np.concatenate([c_i, f_prev], axis=1)
    b, _, h, w = x.shape
    c = params.conv_w.shape[0]
    v = np.zeros((b, c + params.snake_h.shape[0], h, w))
    v[:, :c] = conv2d(x, params.conv_w, params.conv_b)
    dsc_forward(x, params.snake_h, out=v[:, c:])
    dsc_forward(x, params.snake_v, out=v[:, c:])
    del x
    values = conv2d(v, params.proj_w)
    d, m, n = v.shape[1], values.shape[1], h * w
    for i in range(b):
        # Item i's values are read only by its own attention call.
        out = values[i].reshape(m, n)
        np.add(gated_attention(v[i].reshape(d, n), params.attention, out),
               params.proj_b[:, None], out=out)
    return values


def dsf_forward(backbone_feats, params: DsfParams, spec: PyramidSpec | None = None) -> DsfOutput:
    """Fuse a backbone pyramid top-down and emit the seven head channels.

    backbone_feats are LEVELS (B, C, H, W) grids with C = spec.channels,
    coarsest first, each finer level exactly doubling the previous spatial
    size. The head maps live at the finest scale; channels 0-1 (text,
    center) are squashed to (0, 1).
    """
    spec = spec or PyramidSpec()
    feats = [as_grid(f, 4) for f in backbone_feats]
    if len(feats) != LEVELS:
        raise ShapeMismatchError(f"expected {LEVELS} pyramid levels, got {len(feats)}")
    if len(params.blocks) != LEVELS:
        raise ShapeMismatchError(
            f"parameter set has {len(params.blocks)} blocks for {LEVELS} levels")
    f = None
    fused = []
    for i, (feat, block) in enumerate(zip(feats, params.blocks)):
        if feat.shape[1] != spec.channels:
            raise ShapeMismatchError(
                f"level {i}: expected {spec.channels} channels, got {feat.shape[1]}")
        prev = np.zeros_like(feat) if f is None else upsample2x(f)
        if prev.shape[2:] != feat.shape[2:]:
            raise ShapeMismatchError(
                f"level {i}: spatial size {feat.shape[2:]} does not follow "
                f"2x growth from previous level {prev.shape[2:]}")
        try:
            f = modulation_block(feat, prev, block)
        except ShapeMismatchError as e:
            raise ShapeMismatchError(f"level {i}: {e}") from e
        fused.append(f)
    head = conv2d(f, params.head_w, params.head_b)
    head[:, :2] = logistic(head[:, :2])
    return DsfOutput(fused=fused, head=head)


def geometry_maps_from_head(head) -> GeometryMaps:
    """Split the first batch item of a (B, 7, H, W) head tensor into named maps."""
    head = as_grid(head, 4)
    if head.shape[1] != len(CHANNELS):
        raise ShapeMismatchError(f"head must have {len(CHANNELS)} channels, got {head.shape[1]}")
    return GeometryMaps.from_stack(head[0])


def init_stub_params(seed: int = 0,
                     channels: int = 256) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Seeded uniform [-INIT_SCALE, INIT_SCALE] stub convolutions: one
    (kernel, bias) pair per conv, each kernel then bias drawn in C order,
    the kernels stored tap-major."""
    rng = np.random.default_rng(seed)
    dims = [1, STUB_WIDTH, channels, channels, channels, channels]
    return tuple((_uniform_taps(rng, dims[i + 1], dims[i], 3, 3),
                  rng.uniform(-INIT_SCALE, INIT_SCALE, dims[i + 1])) for i in range(5))


def backbone_stub(image, params) -> list[np.ndarray]:
    """Tiny strided-convolution feature extractor for running images end to end.

    Takes a (H, W) grayscale grid with H and W divisible by 32 and the
    (kernel, bias) pairs of init_stub_params, and returns the LEVELS-level
    pyramid [1/32, 1/16, 1/8, 1/4], coarsest first.
    """
    img = as_grid(image, 2)
    h, w = img.shape
    if h % 32 or w % 32:
        raise ShapeMismatchError(f"image sides must be divisible by 32, got {h}x{w}")
    x = img[None, None]
    feats = []
    for i, (wgt, b) in enumerate(params):
        x = conv2d(x, wgt, b, stride=2)
        np.maximum(x, 0.0, out=x)
        if i >= 1:
            feats.append(x)
    return feats[::-1]
