"""Bottom-up text shaping: threshold the center-region map, pick component
centers by farthest point sampling down to a coverage radius, accumulate the
fixed-width rotated rectangles of every component into one frame mask, close
its gaps morphologically once, and trace its contours.

Neither hot step rescans what it does not change. After each pick, farthest
point sampling updates only the candidates within the pick's distance along
the component's longer axis, a window found by bisection; no candidate
outside it can come nearer, so the picks are those of a full rescan. The
rectangles are rasterized in one batched scanline pass, each in its pixel
bounding box.

Candidate filtering is overlap-free by construction: farthest point
sampling never compares rectangles pairwise. A module-level counter
instruments every rotated-rectangle overlap computation so the contrast
with the greedy-NMS baseline is measurable.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (RotatedRect, TextPolygon, _clip_ccw, normalize_angle, rasterize_union,
                       rect_corners, rects_corners)
from .maps import GeometryMaps

MIN_RECT_HEIGHT = 1e-3
# Most samples per component: above what long bands need, so it bounds only adversarial maps.
FPS_CAP = 1024


class OverlapCounter:
    """Counts pairwise rectangle-overlap computations (not thread-safe)."""

    def __init__(self):
        self.count = 0

    def add(self, n: int = 1) -> None:
        self.count += n

    def reset(self) -> None:
        self.count = 0


OVERLAP_COUNTER = OverlapCounter()


@dataclass(frozen=True)
class ShapingConfig:
    """Knobs of the shaping pipeline; defaults work at map scale.

    The text score map is not read, and the regressed (x, y) channels hold
    absolute map coordinates. Sampling stops at `coverage_radius`.
    """

    center_thresh: float = 0.5
    rect_width: float = 4.0
    close_kernel: int = 5
    min_area: float = 150.0

    def __post_init__(self):
        if not (0.0 < self.center_thresh < 1.0):
            raise ValueError(f"center_thresh must lie in (0, 1), got {self.center_thresh}")
        if not (0.0 < self.rect_width < math.inf):
            raise ValueError(f"rect_width must be positive and finite, got {self.rect_width}")
        if self.close_kernel < 1 or self.close_kernel % 2 == 0:
            raise ValueError(f"close_kernel must be a positive odd int, got {self.close_kernel}")
        if not self.min_area >= 0.0:
            raise ValueError(f"min_area must be >= 0, got {self.min_area}")

    @property
    def coverage_radius(self) -> float:
        """Sampling stop distance r. Samples along a band are then at most 2r
        apart, leaving gaps of at most 2r - rect_width = close_kernel - 1 px
        between rectangles, which the closing bridges."""
        return (self.rect_width + self.close_kernel - 1) / 2.0


@dataclass(frozen=True)
class CenterPointSet:
    """Candidate center pixels of one component."""

    candidates: np.ndarray


def _label8(mask: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """8-connected labeling. Returns (label grid, per-label (n,2) x,y points).

    Labels follow first-appearance scan order; each component's points are
    sorted row-major. Run-based (He, Chao and Suzuki, IEEE TIP 2008): the
    row runs of the mask are linked to the runs they touch in the next row,
    merged by union-find, and a component is ranked by its first run.
    """
    m = np.asarray(mask, dtype=bool)
    h, w = m.shape
    labels = np.full((h, w), -1, dtype=np.int32)
    steps = np.diff(np.pad(m, ((0, 0), (1, 1))).view(np.int8), axis=1)
    run_row, start = np.nonzero(steps == 1)
    end = np.nonzero(steps == -1)[1] - 1
    if run_row.size == 0:
        return labels, []
    # Row-major keys; a stride of w + 2 keeps columns -1..w inside their row.
    stride = w + 2
    start_key = run_row * stride + start
    end_key = run_row * stride + end
    # Runs of the next row that touch run i: s_j <= e_i + 1 and e_j >= s_i - 1.
    below = (run_row + 1) * stride
    lo = np.searchsorted(end_key, below + start - 1, side="left")
    hi = np.searchsorted(start_key, below + end + 1, side="right")
    n = np.maximum(hi - lo, 0)
    upper = np.repeat(np.arange(run_row.size), n)
    lower = np.arange(upper.size) - np.repeat(np.cumsum(n) - n - lo, n)
    root = _merge_runs(run_row.size, upper, lower)
    first_runs, run_label = np.unique(root, return_inverse=True)
    length = end - start + 1
    pixel_label = np.repeat(run_label, length)
    labels[m] = pixel_label
    ys, xs = np.nonzero(m)
    order = np.argsort(pixel_label, kind="stable")
    pts = np.stack([xs, ys], axis=1).astype(np.int64)[order]
    sizes = np.bincount(pixel_label, minlength=first_runs.size)
    return labels, np.split(pts, np.cumsum(sizes)[:-1])


def _merge_runs(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Union-find over n nodes joined by the edges (a, b): each node's root
    is the smallest index in its component."""
    parent = np.arange(n)
    while True:
        ra, rb = parent[a], parent[b]
        if np.array_equal(ra, rb):
            return parent
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


def connected_components(mask) -> list[np.ndarray]:
    """Point sets (x, y) of the 8-connected components of a binary mask."""
    return _label8(mask)[1]


def extract_centers(center_map, thresh: float) -> list[CenterPointSet]:
    """Threshold the center-region map and split it into connected components."""
    cm = np.asarray(center_map, dtype=np.float64)
    if cm.ndim != 2:
        raise ValueError(f"center map must be 2-d, got shape {cm.shape}")
    return [CenterPointSet(candidates=pts) for pts in connected_components(cm >= thresh)]


def farthest_point_sample_indices(points, budget: int, stop_dist: float = 0.0) -> list[int]:
    """Indices into `points` chosen by greedy farthest point sampling; see
    `farthest_point_sample`."""
    flat = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    n = flat.shape[0]
    if n == 0:
        raise ValueError("cannot sample from an empty point set")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if not np.isfinite(flat).all():
        raise ValueError("cannot sample from non-finite points")
    centroid = flat.mean(axis=0)
    seed = int(np.argmin(((flat - centroid) ** 2).sum(axis=1)))
    chosen = [seed]
    min_d2 = ((flat - flat[seed]) ** 2).sum(axis=1)
    stop2 = float(stop_dist) * float(stop_dist)
    # Candidates sorted along the longer bounding-box axis, for the window.
    axis = int(np.ptp(flat[:, 1]) > np.ptp(flat[:, 0]))
    order = np.argsort(flat[:, axis], kind="stable")
    by_key = flat[order]
    key = by_key[:, axis].tolist()
    while len(chosen) < budget:
        nxt = int(np.argmax(min_d2))
        best = min_d2[nxt]
        if best <= 0.0 or best < stop2:
            break
        chosen.append(nxt)
        at = flat[nxt, axis]
        reach = math.sqrt(best) * (1.0 + 1e-9) + abs(at) * 1e-9
        lo, hi = bisect.bisect_left(key, at - reach), bisect.bisect_right(key, at + reach)
        near = order[lo:hi]
        d2 = ((by_key[lo:hi] - flat[nxt]) ** 2).sum(axis=1)
        min_d2[near] = np.minimum(min_d2[near], d2)
    return chosen


def farthest_point_sample(points, budget: int, stop_dist: float = 0.0) -> np.ndarray:
    """Greedy max-min selection of up to `budget` points.

    Seeds with the point nearest the centroid, then repeatedly adds the
    point farthest from the selected set, breaking ties toward the lowest
    index. Stops early once the best max-min distance drops below
    stop_dist, or when only duplicates of selected points remain. Points
    must be finite.

    Adding a sample at max-min squared distance `best` can lower only the
    min-distances of points within sqrt(best) of it: any other point's
    min-distance is at most `best` already, below its distance to the new
    sample. So each update scans only the points whose coordinate along
    the set's longer bounding-box axis lies within sqrt(best) of the
    sample's, found by bisection in a once-sorted order. The window is
    widened by a relative 1e-9 of the reach and of the coordinate, far
    above float rounding, so rounding can only add points to it; a point
    it adds is updated with the full scan's expression, so the min-distances,
    and the selection, are bit-identical to updating every point.
    """
    pts = np.asarray(points).reshape(-1, 2)
    return pts[farthest_point_sample_indices(pts, budget, stop_dist)]


def build_components(centers, maps: GeometryMaps, cfg: ShapingConfig) -> list[RotatedRect]:
    """One rotated rectangle per sampled center, read off the regression maps.

    The centers' x, y, h and theta must be finite; `shape_text` samples
    only such pixels. Height is clamped to a small positive floor so
    degenerate regressions stay representable; width is fixed by the config.
    """
    pts = np.asarray(centers).reshape(-1, 2)
    ix, iy = pts[:, 0].astype(np.int64), pts[:, 1].astype(np.int64)
    outside = (iy < 0) | (iy >= maps.shape[0]) | (ix < 0) | (ix >= maps.shape[1])
    if outside.any():
        px, py = pts[np.argmax(outside)]
        raise ValueError(f"center ({px}, {py}) outside the {maps.shape} map frame")
    values = zip(*(m[iy, ix].tolist() for m in (maps.x, maps.y, maps.h, maps.theta)))
    return [RotatedRect(cx=cx, cy=cy, h=max(h, MIN_RECT_HEIGHT), w=cfg.rect_width,
                        theta=normalize_angle(theta)) for cx, cy, h, theta in values]


def _row_window(m: np.ndarray, kernel: int, reduce) -> np.ndarray:
    """`reduce` over each pixel's 1 x kernel window, outside the frame False."""
    w = m.shape[1]
    padded = np.pad(m, ((0, 0), (kernel // 2, kernel // 2)), constant_values=False)
    out = padded[:, :w].copy()
    for d in range(1, kernel):
        reduce(out, padded[:, d:d + w], out=out)
    return out


def _square_window(mask, kernel: int, reduce) -> np.ndarray:
    """`reduce` (np.logical_or or np.logical_and) over each pixel's
    kernel x kernel window, outside the frame counting as False. A square
    window is separable: one pass along rows, then one along columns."""
    rows = _row_window(np.asarray(mask, dtype=bool), kernel, reduce)
    return _row_window(rows.T, kernel, reduce).T


def dilate(mask, kernel: int) -> np.ndarray:
    """Binary dilation with a kernel x kernel square structuring element."""
    return _square_window(mask, kernel, np.logical_or)


def erode(mask, kernel: int) -> np.ndarray:
    """Binary erosion with a kernel x kernel square structuring element."""
    return _square_window(mask, kernel, np.logical_and)


def close_binary(mask, kernel: int) -> np.ndarray:
    """Morphological closing (dilate then erode), border-safe.

    The working frame is padded by the kernel radius so shapes touching the
    frame edge are not eaten by the erosion step.
    """
    if kernel < 1 or kernel % 2 == 0:
        raise ValueError(f"kernel must be a positive odd int, got {kernel}")
    if kernel == 1:
        return np.asarray(mask, dtype=bool).copy()
    r = kernel // 2
    padded = np.pad(np.asarray(mask, dtype=bool), r, constant_values=False)
    closed = erode(dilate(padded, kernel), kernel)
    return closed[r:-r, r:-r]


def accumulate_and_close(rects, frame: tuple[int, int], cfg: ShapingConfig) -> np.ndarray:
    """Union of rasterized rectangles, then a closing to bridge small gaps.

    All rectangles are rasterized in one batch, each in its pixel bounding
    box only.
    """
    h, w = frame
    if h <= 0 or w <= 0:
        raise ValueError(f"frame must be positive, got {frame}")
    return close_binary(rasterize_union(rects_corners(rects), h, w), cfg.close_kernel)


# Crack-boundary walk directions: R, D, L, U as (dx, dy) with y pointing down.
_DIRS = ((1, 0), (0, 1), (-1, 0), (0, -1))
_LEFT_TURN = (3, 0, 1, 2)
_RIGHT_TURN = (1, 2, 3, 0)
# Pixel offsets (dx, dy) from a corner to the pixels right/left of an edge
# leaving that corner in direction d.
_RIGHT_PIXEL = ((0, 0), (-1, 0), (-1, -1), (0, -1))
_LEFT_PIXEL = ((0, -1), (0, 0), (-1, 0), (-1, -1))


def trace_boundary(mask) -> np.ndarray:
    """Outer boundary of a connected pixel region, walked along pixel edges.

    Vertices are lattice corners (pixel (i, j) spans [j, j+1] x [i, i+1]),
    so the traced polygon covers the pixels' full area and re-rasterizes to
    the region. Emits only direction-change corners, counter-clockwise by
    the shoelace sign. Preferring left turns keeps diagonally connected
    pixels on a single contour.
    """
    m = np.asarray(mask, dtype=bool)
    h, w = m.shape
    ys, xs = np.nonzero(m)
    if ys.size == 0:
        return np.empty((0, 2))

    def filled(px, py):
        return 0 <= py < h and 0 <= px < w and m[py, px]

    def valid(cx, cy, d):
        rx, ry = _RIGHT_PIXEL[d]
        lx, ly = _LEFT_PIXEL[d]
        return filled(cx + rx, cy + ry) and not filled(cx + lx, cy + ly)

    start = (int(xs[0]), int(ys[0]))
    cx, cy, d = start[0], start[1], 0
    verts = [start]
    while True:
        nx, ny = cx + _DIRS[d][0], cy + _DIRS[d][1]
        for nd in (_LEFT_TURN[d], d, _RIGHT_TURN[d]):
            if valid(nx, ny, nd):
                break
        else:
            break
        if (nx, ny) == start and nd == 0:
            break
        if nd != d:
            verts.append((nx, ny))
        cx, cy, d = nx, ny, nd
    return np.array(verts, dtype=np.float64)


def _point_segment_dist(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Only differences from a enter, so an integer shift of every point
    # (exact on the vertex lattice) leaves each distance bit-identical.
    d = pts - a
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return np.linalg.norm(d, axis=1)
    t = np.clip(d @ ab / denom, 0.0, 1.0)
    return np.linalg.norm(d - t[:, None] * ab, axis=1)


def _dp_open(pts: np.ndarray, eps: float) -> np.ndarray:
    n = pts.shape[0]
    keep = np.zeros(n, dtype=bool)
    keep[0] = keep[-1] = True
    stack = [(0, n - 1)]
    while stack:
        i, j = stack.pop()
        if j <= i + 1:
            continue
        d = _point_segment_dist(pts[i + 1:j], pts[i], pts[j])
        k = int(np.argmax(d))
        if d[k] > eps:
            keep[i + 1 + k] = True
            stack.append((i, i + 1 + k))
            stack.append((i + 1 + k, j))
    return pts[keep]


def douglas_peucker(pts, eps: float) -> np.ndarray:
    """Douglas-Peucker simplification of a closed vertex ring."""
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
    n = pts.shape[0]
    if n <= 4:
        return pts
    far = int(np.argmax(((pts - pts[0]) ** 2).sum(axis=1)))
    if far == 0:
        return pts[:1]
    first = _dp_open(pts[:far + 1], eps)
    second = _dp_open(np.vstack([pts[far:], pts[:1]]), eps)
    return np.vstack([first[:-1], second[:-1]])


def trace_contours(mask, min_area: float, eps: float = 1.0) -> list[TextPolygon]:
    """Polygons of the 8-connected components covering at least min_area pixels.

    Each component is traced in its own bounding box plus a 1 px margin.
    """
    polys = []
    for pts in connected_components(mask):
        if pts.shape[0] < min_area:
            continue
        origin = pts.min(axis=0) - 1
        local = pts - origin
        crop = np.zeros(local.max(axis=0)[::-1] + 2, dtype=bool)
        crop[local[:, 1], local[:, 0]] = True
        simplified = douglas_peucker(trace_boundary(crop) + origin, eps)
        if simplified.shape[0] >= 3:
            polys.append(TextPolygon(simplified))
    return polys


def shape_text(maps: GeometryMaps, cfg: ShapingConfig | None = None) -> list[TextPolygon]:
    """Full bottom-up shaping of one image's head maps into text polygons.

    Each center-region component is sampled on its own; candidates whose x,
    y, h or theta is not finite are never sampled. The rectangles of all
    components are then accumulated into one frame mask, closed once and
    traced once, so every component whose rectangles land on the same text
    joins that text's polygon. The output may be empty. Deterministic for
    fixed inputs and config.

    The closing also joins two instances whose rectangles come within
    close_kernel - 1 px of each other: at the defaults, two bands with edge
    gaps of 4 px or less come out as one polygon, from 5 px on as two.
    """
    cfg = cfg or ShapingConfig()
    usable = np.all([np.isfinite(m) for m in (maps.x, maps.y, maps.h, maps.theta)], axis=0)
    rects: list[RotatedRect] = []
    for comp in extract_centers(maps.center, cfg.center_thresh):
        cands = comp.candidates[usable[comp.candidates[:, 1], comp.candidates[:, 0]]]
        if cands.shape[0] == 0:
            continue
        selected = farthest_point_sample(cands, FPS_CAP, cfg.coverage_radius)
        rects.extend(build_components(selected, maps, cfg))
    del usable  # frame-sized: not held through the frame-sized stages below
    if not rects:
        return []
    return trace_contours(accumulate_and_close(rects, maps.shape, cfg), cfg.min_area)


def _rect_geom(rect: RotatedRect):
    pts = [(float(x), float(y)) for x, y in rect_corners(rect)]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return pts, (min(xs), min(ys), max(xs), max(ys)), rect.h * rect.w


def _pair_iou(ga, gb) -> float:
    """Counted IoU of two precomputed rect geometries, bbox-rejected early."""
    OVERLAP_COUNTER.add(1)
    (pa, ba, aa) = ga
    (pb, bb, ab) = gb
    if ba[2] <= bb[0] or bb[2] <= ba[0] or ba[3] <= bb[1] or bb[3] <= ba[1]:
        return 0.0
    out = _clip_ccw(pa, pb)
    m = len(out)
    inter = 0.0
    if m >= 3:
        for i in range(m):
            x1, y1 = out[i]
            x2, y2 = out[(i + 1) % m]
            inter += x1 * y2 - x2 * y1
        inter = abs(inter) / 2.0
    union = aa + ab - inter
    return inter / union if union > 0 else 0.0


def nms_baseline(rects, scores, iou_thresh: float = 0.5) -> list[RotatedRect]:
    """Greedy score-descending NMS over rotated rectangles (benchmark baseline).

    Ties in score keep the earlier candidate. A candidate is suppressed when
    its IoU with any already-kept rectangle exceeds iou_thresh. Each candidate
    is compared against the kept set pairwise; every comparison counts toward
    the overlap-computation counter.
    """
    rects = list(rects)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (len(rects),):
        raise ValueError(f"got {len(rects)} rects but {scores.shape} scores")
    geoms = [_rect_geom(r) for r in rects]
    kept: list[int] = []
    for i in np.argsort(-scores, kind="stable"):
        gi = geoms[int(i)]
        if all(_pair_iou(gi, geoms[j]) <= iou_thresh for j in kept):
            kept.append(int(i))
    return [rects[i] for i in kept]
