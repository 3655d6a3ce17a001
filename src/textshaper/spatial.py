"""Spatial-constraint training aids: position masks, positional embedding,
and the reconstruction / semantic-alignment losses with analytic gradients.

These run only at training time; nothing here sits on the inference path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import TextPolygon, rasterize
from .grids import ShapeMismatchError, as_grid, conv2d, logistic, relu, upsample2x
from .pyramid import INIT_SCALE


def build_position_mask(polygons, h: int, w: int) -> np.ndarray:
    """Rasterize the union of text polygons into an h x w bool mask.

    A pixel is set when its center lies inside any polygon (even-odd rule).
    """
    if h <= 0 or w <= 0:
        raise ValueError(f"frame must be positive, got {h}x{w}")
    mask = np.zeros((h, w), dtype=bool)
    for p in polygons:
        poly = p if isinstance(p, TextPolygon) else TextPolygon(np.asarray(p, dtype=np.float64))
        mask |= rasterize(poly, h, w)
    return mask


def positional_embedding(channels: int, h: int, w: int) -> np.ndarray:
    """Fixed coordinate embedding: normalized row/column ramps tiled to C channels.

    Even channels carry row coordinates in [0, 1], odd channels column
    coordinates.
    """
    rows = np.linspace(0.0, 1.0, h)[:, None] * np.ones((1, w)) if h > 1 else np.zeros((h, w))
    cols = np.ones((h, 1)) * np.linspace(0.0, 1.0, w)[None, :] if w > 1 else np.zeros((h, w))
    emb = np.empty((channels, h, w))
    emb[0::2] = rows
    emb[1::2] = cols
    return emb


def merge_positional(features, embedding) -> np.ndarray:
    """Elementwise add a (C,H,W) positional embedding onto (B,C,H,W) features."""
    f = as_grid(features, 4)
    e = as_grid(embedding, 3)
    if f.shape[1:] != e.shape:
        raise ShapeMismatchError(
            f"embedding shape {e.shape} does not match feature shape {f.shape[1:]}")
    return f + e[None]


def loss_sr(reconstruction, mask) -> tuple[float, np.ndarray]:
    """Mean absolute reconstruction error against the position mask.

    Returns (loss, gradient w.r.t. the reconstruction); the subgradient of
    |e| at e = 0 is taken as 0.
    """
    r = as_grid(reconstruction, 2)
    t = np.asarray(mask, dtype=np.float64)
    if r.shape != t.shape:
        raise ShapeMismatchError(f"reconstruction shape {r.shape} != mask shape {t.shape}")
    diff = r - t
    loss = float(np.mean(np.abs(diff)))
    grad = np.sign(diff) / diff.size
    return loss, grad


def loss_ss(aux_feat, main_feat) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Mean squared alignment error between auxiliary and main feature maps.

    Returns (loss, (grad_aux, grad_main)).
    """
    a = np.asarray(aux_feat, dtype=np.float64)
    m = np.asarray(main_feat, dtype=np.float64)
    if a.shape != m.shape:
        raise ShapeMismatchError(f"feature shapes differ: {a.shape} vs {m.shape}")
    diff = a - m
    loss = float(np.mean(diff * diff))
    g = 2.0 * diff / diff.size
    return loss, (g, -g)


@dataclass(frozen=True)
class SpatialDecoder:
    """Two-layer convolutional decoder: C -> C/2 (ReLU) -> 1 (logistic)."""

    conv1_w: np.ndarray
    conv1_b: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray


def init_spatial_decoder(channels: int, seed: int = 0) -> SpatialDecoder:
    rng = np.random.default_rng(seed)
    mid = max(channels // 2, 1)
    u = lambda *shape: rng.uniform(-INIT_SCALE, INIT_SCALE, shape)
    return SpatialDecoder(
        conv1_w=u(mid, channels, 3, 3), conv1_b=u(mid),
        conv2_w=u(1, mid, 3, 3), conv2_b=u(1),
    )


def decode_position(features, decoder: SpatialDecoder) -> np.ndarray:
    """Decode (B,C,H,W) features to (B,H,W) position reconstructions in (0,1)."""
    x = relu(conv2d(features, decoder.conv1_w, decoder.conv1_b))
    x = conv2d(x, decoder.conv2_w, decoder.conv2_b)
    return logistic(x[:, 0])


def spatial_branch(features, decoder: SpatialDecoder) -> tuple[np.ndarray, np.ndarray]:
    """Auxiliary branch: upsample, merge the positional embedding, decode.

    Returns (reconstruction (B,2H,2W), merged features (B,C,2H,2W)); the
    merged features double as the branch's semantic map.
    """
    up = upsample2x(features)
    merged = merge_positional(up, positional_embedding(up.shape[1], up.shape[2], up.shape[3]))
    return decode_position(merged, decoder), merged
