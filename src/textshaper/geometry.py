"""Rectangle corners, polygons, rasterization, and polygon IoU.

A rectangle is a row [cx, cy, h, w, theta] of a (k, 5) float array: centre,
height, width and orientation in radians.

Pixel convention: pixel (i, j) covers the unit square [j, j+1) x [i, i+1)
and is sampled at its center (j + 0.5, i + 0.5). Polygon containment uses
the even-odd rule throughout, so rasterization, point-in-polygon tests and
the exact slab-integration IoU all agree, self-intersecting polygons
included.

_clip_ccw is the package's one Sutherland-Hodgman clipper, used by the
rectangle NMS baseline in shaping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grids


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


def normalize_angle(theta):
    """Wrap angles into (-pi/2, pi/2] modulo pi: a float for a scalar, an
    array for an array. np.fmod is exact, like math.fmod, so either gives
    the same bits. Non-finite angles raise ValueError."""
    t = np.asarray(theta, dtype=np.float64)
    if not np.isfinite(t).all():
        raise ValueError(f"angle must be finite, got {t[~np.isfinite(t)].ravel()[0]}")
    t = np.fmod(t, math.pi)
    t = np.where(t > math.pi / 2, t - math.pi, np.where(t <= -math.pi / 2, t + math.pi, t))
    return float(t) if t.ndim == 0 else t


# Signs of (w / 2, h / 2) at the four corners, counter-clockwise by the
# shoelace sign; multiplying by +-1 is exact.
_CORNER_SIGNS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


def rects_corners(rows) -> np.ndarray:
    """The four corners of each rectangle row [cx, cy, h, w, theta] of a
    (k, 5) array, as a (k, 4, 2) array, counter-clockwise by the shoelace
    sign: the local corners times the transposed rotation [[c, s], [-s, c]],
    one stacked matrix product, plus the centre. Cosine and sine come from
    math.cos and math.sin, row by row, whose bits do not depend on the
    numpy build."""
    r = np.asarray(rows, dtype=np.float64).reshape(-1, 5)
    theta = r[:, 4].tolist()
    # Terms in one C-ordered (k, 8) array, [cx, cy, w/2, h/2, c, s, -s, c]
    # per rect: which matmul loop runs, and so its rounding, can depend on
    # the operands' strides.
    p = np.empty((r.shape[0], 8))
    p[:, :2] = r[:, :2]
    p[:, 2] = r[:, 3] / 2.0
    p[:, 3] = r[:, 2] / 2.0
    p[:, 4] = np.fromiter(map(math.cos, theta), np.float64, len(theta))
    p[:, 5] = np.fromiter(map(math.sin, theta), np.float64, len(theta))
    p[:, 6] = -p[:, 5]
    p[:, 7] = p[:, 4]
    return np.matmul(_CORNER_SIGNS * p[:, None, 2:4], p[:, 4:].reshape(-1, 2, 2)) + p[:, None, :2]


def _vertices_of(shape) -> np.ndarray:
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
    """Absolute shoelace area. On a self-intersecting polygon it differs
    from the even-odd area that rasterize and polygon_iou use: a bowtie's
    two loops cancel to 0."""
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


def _ranges(lo: np.ndarray, hi: np.ndarray):
    """Owner and value of every integer in the ranges [lo[i], hi[i]), range
    by range, as two int64 arrays."""
    n = hi - lo
    owner = np.repeat(np.arange(n.size), n)
    return owner, np.arange(owner.size) + np.repeat(lo - (n.cumsum() - n), n)


def _packed_crossings(xy, ys, xs, shift, width, size) -> np.ndarray:
    """uint8 histogram of the edge crossings of every window row, packed
    window by window and row by row; row r of window i starts at
    shift[i] + r * width[i] + start column. Kept apart from
    `_scanline_inside` so that its crossing-sized arrays are freed before
    the inside samples are placed."""
    n = xy.shape[2]
    x1s, y1s = xy[0].ravel(), xy[1].ravel()
    ends = np.concatenate((xy[..., 1:], xy[..., :1]), axis=2)
    x2s, y2s = ends[0].ravel(), ends[1].ravel()
    edge, row = _ranges(ys.searchsorted(np.minimum(y1s, y2s), side="left"),
                        ys.searchsorted(np.maximum(y1s, y2s), side="left"))
    x1, y1 = x1s[edge], y1s[edge]
    xc = x1 + (ys[row] - y1) * (x2s[edge] - x1) / (y2s[edge] - y1)
    poly = edge // n
    cell = xs.searchsorted(xc, side="left") + shift[poly] + row * width[poly]
    hist = np.zeros(size, dtype=np.uint8)
    # A uint8 increment keeps ufunc.at on its fast typed loop.
    np.add.at(hist, cell, np.uint8(1))
    return hist


def _scanline_inside(xy: np.ndarray, ys: np.ndarray, xs: np.ndarray, start: np.ndarray,
                     stop: np.ndarray, out: np.ndarray) -> None:
    """OR into the C-ordered bool grid `out` the samples of the grid ys x xs
    (both ascending) that lie inside any of k polygons by the even-odd rule.

    xy is (2, k, n): the x and the y coordinates of each polygon's n
    vertices. Polygon i is tested only on its window of the grid: columns
    start[0, i]:stop[0, i] and rows start[1, i]:stop[1, i]. A window must
    hold every sample closer than one unit to its polygon's bounding box,
    or reach the grid's edge there, so that every crossing's row and bin
    fall inside it: the whole grid does, and so does a polygon's pixel
    bounding box on the pixel-centre grid. Equivalent to ray casting each
    sample toward +x: it is inside when an odd number of edge crossings lie
    strictly to its right. Each edge crosses the rows whose y lies in
    [min(y1, y2), max(y1, y2)). Every (row, edge) crossing is binned by the
    number of window samples left of it into one histogram that packs the
    windows' rows, each with one bin more than the window has columns. Bin
    c of a row counts the crossings between samples c - 1 and c. As every
    row holds an even number of crossings, those right of sample c have the
    parity of those left of it, which a cumulative sum over the packed
    histogram gives at bin c: earlier rows add even counts. Counts are kept
    in uint8: wrapping modulo 256 keeps their parity. Rows and bins come
    from searchsorted over the whole grid, which compares with the same
    sample values the window holds.
    """
    (c0, r0), (c1, r1) = start, stop
    width = c1 - c0 + 1
    nrows = r1 - r0
    cells = nrows * width
    base = cells.cumsum() - cells
    hist = _packed_crossings(xy, ys, xs, base - r0 * width - c0, width,
                             int(base[-1] + cells[-1]))
    odd = (hist.cumsum(dtype=np.uint8) & 1).view(bool)
    if xy.shape[1] == 1:
        # One window: a block of rows, each row's last bin past its samples.
        # Placing it whole is about 4x faster than the scatter below on a
        # large window, such as that of a band polygon in synth_maps.
        out[r0[0]:r1[0], c0[0]:c1[0]] |= odd.reshape(nrows[0], width[0])[:, :-1]
        return
    # A row's last bin is never odd, as the row's crossings are even in
    # number. Each packed row's positions map to the grid's flat indices by
    # one offset.
    row_owner = np.repeat(np.arange(nrows.size), nrows)
    local = np.arange(row_owner.size) - np.repeat(nrows.cumsum() - nrows, nrows)
    row_start = base[row_owner] + local * width[row_owner]
    to_grid = (r0[row_owner] + local) * out.shape[1] + c0[row_owner] - row_start
    p = np.flatnonzero(odd)
    p += to_grid[row_start.searchsorted(p, side="right") - 1]
    np.put(out, p, True)


def rasterize_union(polys, h: int, w: int) -> np.ndarray:
    """Pixel-centre even-odd rasterization of the union of k polygons with n
    vertices each, given as (k, n, 2), clipped to h x w. Returns a bool (h, w)
    mask. Each polygon is scanned in its pixel bounding box only."""
    if h <= 0 or w <= 0:
        raise ValueError(f"frame must be positive, got {h}x{w}")
    xy = np.ascontiguousarray(np.asarray(polys, dtype=np.float64).transpose(2, 0, 1))
    mask = np.zeros((h, w), dtype=bool)
    if xy.shape[1] == 0:
        return mask
    if not np.isfinite(xy).all():
        raise ValueError("polygon vertices must be finite")
    # Pixel bounding boxes clipped to the frame: [start, stop) column and
    # row indices, stacked; a box off the frame comes out empty.
    box = np.concatenate((np.floor(xy.min(axis=2) - 0.5), np.ceil(xy.max(axis=2) - 0.5) + 1))
    box = np.minimum(np.maximum(box, 0), [[w], [h], [w], [h]]).astype(np.int64)
    _scanline_inside(xy, np.arange(h) + 0.5, np.arange(w) + 0.5, box[:2], box[2:], mask)
    return mask


def rasterize(shape, h: int, w: int) -> np.ndarray:
    """Pixel-center even-odd rasterization of a polygon, clipped to h x w.

    Returns a bool (h, w) mask.
    """
    return rasterize_union(_vertices_of(shape)[None], h, w)


# Peak bytes of temporaries per candidate edge pair and per slab crossing,
# as tracemalloc measures them; with grids.CHUNK_BYTES they size
# polygon_iou's blocks.
_PAIR_BYTES = 96
_CROSSING_BYTES = 80
# Work budgets of polygon_iou's two quadratic stages for one pair: ten full
# blocks each, about 7.0M candidate edge pairs and 8.4M mid-line
# crossings, some 2 s in all. Text polygons use a small share of one
# block. Fixed when the module loads, so a smaller CHUNK_BYTES set later
# shrinks the blocks, not the budgets.
_MAX_PAIRS = 10 * grids.CHUNK_BYTES // _PAIR_BYTES
_MAX_CROSSINGS = 10 * grids.CHUNK_BYTES // _CROSSING_BYTES


def _check_budget(count: int, budget: int, what: str) -> None:
    if count > budget:
        raise ValueError(f"polygon pair needs {count} {what}, over polygon_iou's budget of "
                         f"{budget}")


def _blocks(counts: np.ndarray, item_bytes: int):
    """[start, stop) runs of consecutive items whose counts sum to at most
    grids.CHUNK_BYTES // item_bytes, each run holding at least one item."""
    cap = max(1, grids.CHUNK_BYTES // item_bytes)
    cum = counts.cumsum()
    start = 0
    while start < counts.size:
        base = int(cum[start - 1]) if start else 0
        stop = max(int(cum.searchsorted(base + cap, side="right")), start + 1)
        yield start, stop
        start = stop


def _crossing_ys(seg: np.ndarray) -> np.ndarray:
    """y of every point where two of the edges (x1, y1) -> (x2, y2), the
    rows of seg, meet, edges of one polygon included. Candidate pairs come
    from one sort along the longer axis of the edges' joint bounding box: in
    the order of their lower ends on that axis, edge i pairs with each later
    edge whose lower end lies within its extent. Pairs are tested in blocks
    of edges."""
    axis = int(np.ptp(seg[0]) < np.ptp(seg[1]))
    lo = np.minimum(seg[axis], seg[axis + 2])
    order = lo.argsort()
    lo = lo[order]
    end = lo.searchsorted(np.maximum(seg[axis], seg[axis + 2])[order], side="right")
    x1, y1, x2, y2 = seg[:, order]
    dx, dy = x2 - x1, y2 - y1
    first = np.arange(1, lo.size + 1)
    _check_budget(int((end - first).sum()), _MAX_PAIRS, "candidate edge pairs")
    out = []
    for i0, i1 in _blocks(end - first, _PAIR_BYTES):
        i, j = _ranges(first[i0:i1], end[i0:i1])
        i += i0
        rx, ry = x1[j] - x1[i], y1[j] - y1[i]
        den = dx[i] * dy[j] - dy[i] * dx[j]
        t = rx * dy[j] - ry * dx[j]
        u = rx * dy[i] - ry * dx[i]
        # Signs flipped so that den >= 0: the edges meet where t / den and
        # u / den both lie in [0, 1].
        flip = den < 0
        np.negative(den, out=den, where=flip)
        np.negative(t, out=t, where=flip)
        np.negative(u, out=u, where=flip)
        hit = (den > 0) & (t >= 0) & (t <= den) & (u >= 0) & (u <= den)
        i = i[hit]
        out.append(y1[i] + t[hit] / den[hit] * dy[i])
    return np.concatenate(out)


def _slab_areas(seg: np.ndarray, tag: np.ndarray, ys: np.ndarray):
    """Even-odd areas of the intersection and of the union of two polygons
    whose edges (x1, y1) -> (x2, y2) are the rows of seg, tag 0 for the first
    polygon and 1 for the second, between the ascending breakpoints ys.

    Between two breakpoints no edge ends and no two edges cross, so the
    length of either set along a horizontal line is linear in y, and its
    length on the slab's mid-line times the slab's height is the slab's
    area. Every mid-line crossing is sorted by (slab, x); the cumulative
    parities of each polygon's crossings tell which gaps between
    neighbouring crossings lie inside it. A slab holds an even number of
    crossings of each polygon, so one running count over all slabs gives
    each slab's parities, and the gap from a slab's last crossing to the
    next slab's first lies outside both. Slabs are taken in blocks."""
    x1, y1, x2, y2 = seg
    height = np.diff(ys)
    mid = ys[:-1] + height / 2
    # Edge e crosses the mid-lines of slabs lo[e]:hi[e]; a horizontal edge
    # crosses none.
    lo = ys.searchsorted(np.minimum(y1, y2))
    hi = ys.searchsorted(np.maximum(y1, y2))
    dy = y2 - y1
    slope = np.divide(x2 - x1, dy, out=np.zeros_like(dy), where=dy != 0)
    per_slab = np.cumsum(np.bincount(lo, minlength=ys.size) - np.bincount(hi, minlength=ys.size))
    _check_budget(int(per_slab[:-1].sum()), _MAX_CROSSINGS, "mid-line crossings")
    inter = union = 0.0
    for k0, k1 in _blocks(per_slab[:-1], _CROSSING_BYTES):
        edge, slab = _ranges(np.clip(lo, k0, k1) - k0, np.clip(hi, k0, k1) - k0)
        x = x1[edge] + (mid[k0:k1][slab] - y1[edge]) * slope[edge]
        # Sorted by x, then stably by slab: on a block of at most 65536
        # slabs the narrow slab index takes numpy's radix sort.
        order = x.argsort()
        slab = slab.astype(np.min_scalar_type(k1 - k0 - 1))[order]
        by_slab = slab.argsort(kind="stable")
        order = order[by_slab]
        owner = tag[edge[order]]
        inside_b = np.cumsum(owner, dtype=np.uint8) & 1
        inside_a = np.cumsum(owner ^ 1, dtype=np.uint8) & 1
        gap = np.diff(x[order]) * height[k0:k1][slab[by_slab[:-1]]]
        inter += float(gap @ (inside_a & inside_b)[:-1])
        union += float(gap @ (inside_a | inside_b)[:-1])
    return inter, union


def polygon_iou(a, b) -> float:
    """Area IoU of two polygons in [0, 1], each filled by the
    even-odd rule, so a self-intersecting polygon covers what rasterize
    marks inside it.

    Exact up to rounding, by slab integration: the breakpoints are the y of
    every vertex and of every point where two edges meet, and _slab_areas
    integrates between them. Pairs whose bounding boxes share no area, and
    pairs whose union has zero area, give 0. Non-finite vertices raise
    ValueError, as does a pair whose candidate edge pairs or mid-line
    crossings exceed their budget (_MAX_PAIRS, _MAX_CROSSINGS): spiky
    polygons with thousands of vertices make both grow quadratically.
    """
    pa, pb = _vertices_of(a), _vertices_of(b)
    if not (np.isfinite(pa).all() and np.isfinite(pb).all()):
        raise ValueError("polygon vertices must be finite")
    if (pa[:, 0].max() <= pb[:, 0].min() or pb[:, 0].max() <= pa[:, 0].min()
            or pa[:, 1].max() <= pb[:, 1].min() or pb[:, 1].max() <= pa[:, 1].min()):
        return 0.0
    v = np.concatenate((pa, pb))
    ends = np.concatenate((pa[1:], pa[:1], pb[1:], pb[:1]))
    seg = np.concatenate((v.T, ends.T))
    ys = np.unique(np.concatenate((v[:, 1], _crossing_ys(seg))))
    tag = (np.arange(v.shape[0]) >= pa.shape[0]).view(np.uint8)
    inter, union = _slab_areas(seg, tag, ys)
    return inter / union if union > 0 else 0.0
