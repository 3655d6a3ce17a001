"""The paper's four training losses with analytic gradients: text + center
cross-entropy, smooth-L1 regression, the L1 spatial-reconstruction term and
the L2 semantic-alignment term.

They are reference implementations for a training loop, which this package
does not have; nothing here sits on the inference path.
"""

from __future__ import annotations

import numpy as np

from .grids import ShapeMismatchError, as_grid

CLAMP_EPS = 1e-7


def _bce(pred, gt) -> tuple[float, np.ndarray]:
    p = np.asarray(pred, dtype=np.float64)
    y = np.asarray(gt, dtype=np.float64)
    if p.shape != y.shape:
        raise ShapeMismatchError(f"prediction shape {p.shape} != target shape {y.shape}")
    p = np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)
    loss = float(-np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p)))
    grad = (p - y) / (p * (1.0 - p)) / p.size
    return loss, grad


def loss_seg(pred_text, pred_center, gt_text, gt_center):
    """Mean text BCE plus mean center-region BCE.

    Predictions are clamped to [eps, 1-eps] with eps = 1e-7. Returns
    (loss, grad_text, grad_center).
    """
    lt, gt_grad = _bce(pred_text, gt_text)
    lc, gc_grad = _bce(pred_center, gt_center)
    return lt + lc, gt_grad, gc_grad


def smooth_l1(pred, gt, region=None) -> tuple[float, np.ndarray]:
    """Smooth-L1 regression loss averaged over the supervised region.

    Per element: 0.5*e^2 for |e| < 1, else |e| - 0.5. An empty region
    yields (0, zero gradient), signalling no supervised pixels.
    """
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(gt, dtype=np.float64)
    if p.shape != t.shape:
        raise ShapeMismatchError(f"prediction shape {p.shape} != target shape {t.shape}")
    sel = np.ones(p.shape, dtype=bool) if region is None else np.asarray(region, dtype=bool)
    if sel.shape != p.shape:
        raise ShapeMismatchError(f"region shape {sel.shape} != prediction shape {p.shape}")
    n = int(np.count_nonzero(sel))
    grad = np.zeros_like(p)
    if n == 0:
        return 0.0, grad
    e = p[sel] - t[sel]
    small = np.abs(e) < 1.0
    vals = np.where(small, 0.5 * e * e, np.abs(e) - 0.5)
    grad[sel] = np.where(small, e, np.sign(e)) / n
    return float(vals.sum() / n), grad


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
