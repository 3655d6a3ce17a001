"""Detector loss heads with analytic gradients w.r.t. the predicted maps.

The joint objective is the unweighted sum of a segmentation term (text +
center cross-entropy), smooth-L1 height and angle regression terms
restricted to text pixels, and the two spatial-constraint terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import ShapeMismatchError
from .maps import GeometryMaps
from .spatial import loss_sr, loss_ss

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


@dataclass(frozen=True)
class LossBundle:
    l_seg: float
    l_h: float
    l_theta: float
    l_ss: float
    l_sr: float
    total: float


@dataclass(frozen=True)
class LossTargets:
    """Ground truth for one image: binary maps, regression maps, position mask.

    Height and angle are supervised only where text > 0.5.
    """

    text: np.ndarray
    center: np.ndarray
    h: np.ndarray
    theta: np.ndarray
    mask: np.ndarray


def total_loss(pred: GeometryMaps, recon, aux_feat, main_feat,
               targets: LossTargets) -> LossBundle:
    """Joint loss over one image's predictions; total is the exact component sum."""
    region = np.asarray(targets.text, dtype=np.float64) > 0.5
    l_seg, _, _ = loss_seg(pred.text, pred.center, targets.text, targets.center)
    l_h, _ = smooth_l1(pred.h, targets.h, region=region)
    l_theta, _ = smooth_l1(pred.theta, targets.theta, region=region)
    l_ss, _ = loss_ss(aux_feat, main_feat)
    l_sr, _ = loss_sr(recon, targets.mask)
    return LossBundle(l_seg=l_seg, l_h=l_h, l_theta=l_theta, l_ss=l_ss, l_sr=l_sr,
                      total=l_seg + l_h + l_theta + l_ss + l_sr)
