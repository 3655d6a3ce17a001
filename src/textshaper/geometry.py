"""Rotated rectangles, polygons, rasterization, and polygon IoU.

Pixel convention: pixel (i, j) covers the unit square [j, j+1) x [i, i+1)
and is sampled at its center (j + 0.5, i + 0.5). Polygon containment uses
the even-odd rule throughout, so rasterization, point-in-polygon tests and
the supersampled IoU fallback all agree.

_clip_ccw is the package's one Sutherland-Hodgman clipper, shared by
clip_convex and the rotated-rect NMS baseline in shaping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RotatedRect:
    """A text component: center, height, fixed width, orientation (radians)."""

    cx: float
    cy: float
    h: float
    w: float
    theta: float

    def __post_init__(self):
        for name in ("cx", "cy", "h", "w", "theta"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"rect field {name} must be finite, got {v}")
            object.__setattr__(self, name, v)
        if self.h <= 0 or self.w <= 0:
            raise ValueError(f"rect sides must be positive, got h={self.h}, w={self.w}")
        if not (-math.pi / 2 < self.theta <= math.pi / 2):
            raise ValueError(f"rect angle must lie in (-pi/2, pi/2], got {self.theta}")


@dataclass(frozen=True)
class TextPolygon:
    """Closed polygon contour given as an (n, 2) array of (x, y) vertices."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.vertices, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError(f"vertices must be (n, 2), got shape {v.shape}")
        if v.shape[0] < 3:
            raise ValueError(f"a polygon needs at least 3 vertices, got {v.shape[0]}")
        if not np.all(np.isfinite(v)):
            raise ValueError("polygon vertices must be finite")
        object.__setattr__(self, "vertices", v)


def normalize_angle(theta: float) -> float:
    """Wrap an angle into (-pi/2, pi/2] modulo pi."""
    t = math.fmod(float(theta), math.pi)
    if t > math.pi / 2:
        t -= math.pi
    elif t <= -math.pi / 2:
        t += math.pi
    return t


def rect_corners(rect: RotatedRect) -> np.ndarray:
    """The four corners of a rect, counter-clockwise by the shoelace sign."""
    c, s = math.cos(rect.theta), math.sin(rect.theta)
    hw, hh = rect.w / 2.0, rect.h / 2.0
    local = np.array([
        (-hw, -hh),
        (hw, -hh),
        (hw, hh),
        (-hw, hh),
    ])
    rot = np.array([[c, -s], [s, c]])
    return local @ rot.T + np.array([rect.cx, rect.cy])


def _vertices_of(shape) -> np.ndarray:
    if isinstance(shape, RotatedRect):
        return rect_corners(shape)
    if isinstance(shape, TextPolygon):
        return shape.vertices
    v = np.asarray(shape, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
        raise ValueError(f"expected a polygon as (n>=3, 2) vertices, got shape {v.shape}")
    return v


def signed_area(pts: np.ndarray) -> float:
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def polygon_area(pts) -> float:
    return abs(signed_area(_vertices_of(pts)))


def is_convex(pts) -> bool:
    """True when every turn has the same orientation (collinear runs allowed)."""
    v = _vertices_of(pts)
    d = np.roll(v, -1, axis=0) - v
    cross = d[:, 0] * np.roll(d[:, 1], -1) - d[:, 1] * np.roll(d[:, 0], -1)
    pos, neg = np.any(cross > 1e-12), np.any(cross < -1e-12)
    return not (pos and neg)


def _clip_ccw(subject: list, clip) -> list:
    """Sutherland-Hodgman clip of (x, y) subject vertices by a convex CCW polygon.

    Returns the clipped vertices, possibly none; clip-edge points count as inside.
    """
    out = subject
    n = len(clip)
    for i in range(n):
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        inp = out
        out = []
        if not inp:
            break
        sx, sy = inp[-1]
        s_in = ex * (sy - ay) - ey * (sx - ax) >= 0
        for px, py in inp:
            p_in = ex * (py - ay) - ey * (px - ax) >= 0
            if p_in != s_in:
                dx, dy = px - sx, py - sy
                denom = ex * dy - ey * dx
                if denom != 0:
                    t = (ex * (ay - sy) - ey * (ax - sx)) / denom
                    out.append((sx + t * dx, sy + t * dy))
            if p_in:
                out.append((px, py))
            sx, sy, s_in = px, py, p_in
    return out


def clip_convex(subject, clip) -> np.ndarray:
    """Sutherland-Hodgman clip by a convex polygon of either orientation, as an (m, 2) array."""
    clip = _vertices_of(clip)
    if signed_area(clip) < 0:
        clip = clip[::-1]
    out = _clip_ccw([tuple(p) for p in _vertices_of(subject)], clip)
    return np.array(out).reshape(-1, 2)


def _scanline_inside(pts: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Even-odd containment of the grid ys x xs of sample points (ys, xs ascending).

    Equivalent to ray casting each point toward +x: a point is inside when
    an odd number of edge crossings lie strictly to its right. Each edge
    crosses the rows whose y lies in [min(y1, y2), max(y1, y2)); every
    (row, edge) crossing is binned by the number of samples left of it, and
    a reverse cumulative sum counts the crossings right of each sample.
    Counts are kept in uint8: wrapping modulo 256 keeps their parity.
    """
    x1s, y1s = pts.T
    x2s, y2s = np.concatenate([pts[1:], pts[:1]]).T
    lo = np.searchsorted(ys, np.minimum(y1s, y2s), side="left")
    hi = np.searchsorted(ys, np.maximum(y1s, y2s), side="left")
    n = hi - lo
    edge = np.repeat(np.arange(pts.shape[0]), n)
    row = np.arange(edge.size) - np.repeat(np.cumsum(n) - n - lo, n)
    x1, y1 = x1s[edge], y1s[edge]
    xc = x1 + (ys[row] - y1) * (x2s[edge] - x1) / (y2s[edge] - y1)
    hist = np.zeros((ys.size, xs.size + 1), dtype=np.uint8)
    np.add.at(hist, (row, np.searchsorted(xs, xc, side="left")), 1)
    right = np.cumsum(hist[:, :0:-1], axis=1, dtype=np.uint8)[:, ::-1]
    return (right & 1).astype(bool)


def _raster_window(pts: np.ndarray, h: int, w: int):
    """Rows, columns and even-odd block of a polygon's pixel bounding box
    clipped to h x w, or None when that box is empty."""
    (xmin, ymin), (xmax, ymax) = pts.min(axis=0), pts.max(axis=0)
    i0 = max(int(math.floor(ymin - 0.5)), 0)
    i1 = min(int(math.ceil(ymax - 0.5)) + 1, h)
    j0 = max(int(math.floor(xmin - 0.5)), 0)
    j1 = min(int(math.ceil(xmax - 0.5)) + 1, w)
    if i0 >= i1 or j0 >= j1:
        return None
    ys = np.arange(i0, i1) + 0.5
    xs = np.arange(j0, j1) + 0.5
    return slice(i0, i1), slice(j0, j1), _scanline_inside(pts, ys, xs)


def rasterize(shape, h: int, w: int) -> np.ndarray:
    """Pixel-center even-odd rasterization of a rect or polygon, clipped to h x w.

    Returns a bool (h, w) mask.
    """
    if h <= 0 or w <= 0:
        raise ValueError(f"frame must be positive, got {h}x{w}")
    mask = np.zeros((h, w), dtype=bool)
    window = _raster_window(_vertices_of(shape), h, w)
    if window is not None:
        rows, cols, block = window
        mask[rows, cols] = block
    return mask


def _raster_iou(a: np.ndarray, b: np.ndarray, scale: int = 4) -> float:
    """IoU of two polygons by pixel counting on a supersampled joint frame."""
    allp = np.vstack([a, b])
    ox = math.floor(allp[:, 0].min()) - 1.0
    oy = math.floor(allp[:, 1].min()) - 1.0
    w = allp[:, 0].max() - ox + 1.0
    h = allp[:, 1].max() - oy + 1.0
    gw, gh = int(math.ceil(w * scale)), int(math.ceil(h * scale))
    cells = max(gw, 1) * max(gh, 1)
    if cells > 64_000_000:
        scale = max(int(scale / math.sqrt(cells / 64_000_000)), 1)
        gw, gh = int(math.ceil(w * scale)), int(math.ceil(h * scale))
    off = np.array([ox, oy])
    ma = rasterize((a - off) * scale, gh, gw)
    mb = rasterize((b - off) * scale, gh, gw)
    union = np.count_nonzero(ma | mb)
    if union == 0:
        return 0.0
    return np.count_nonzero(ma & mb) / union


def polygon_iou(a, b) -> float:
    """Area IoU of two polygons (or rects) in [0, 1].

    Convex operands are clipped exactly; pairs with a nonconvex member fall
    back to 4x supersampled rasterization. Degenerate zero-area inputs give 0.
    """
    pa, pb = _vertices_of(a), _vertices_of(b)
    area_a, area_b = polygon_area(pa), polygon_area(pb)
    if area_a == 0.0 or area_b == 0.0:
        return 0.0
    if (pa[:, 0].max() <= pb[:, 0].min() or pb[:, 0].max() <= pa[:, 0].min()
            or pa[:, 1].max() <= pb[:, 1].min() or pb[:, 1].max() <= pa[:, 1].min()):
        return 0.0
    conv_a, conv_b = is_convex(pa), is_convex(pb)
    if conv_a or conv_b:
        subject, clip = (pa, pb) if conv_b else (pb, pa)
        inter_pts = clip_convex(subject, clip)
        inter = polygon_area(inter_pts) if inter_pts.shape[0] >= 3 else 0.0
        union = area_a + area_b - inter
        return min(max(inter / union, 0.0), 1.0)
    return _raster_iou(pa, pb)
