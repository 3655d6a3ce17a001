"""Bottom-up text shaping: threshold the center-region map, pick component
centers by farthest point sampling down to a coverage radius, accumulate the
fixed-width rotated rectangles of every component into one frame mask, close
its gaps morphologically once, and trace its contours.

No step rescans what it does not change, and none walks pixels, vertices or
rectangles one at a time in Python. Farthest point sampling runs once per
component: a component whose points all lie within the coverage radius of
its seed (most components of a dark frame) returns the seed at once, and
after each further pick only the candidates within the pick's distance
along the component's longer axis are updated, a window found by
bisection; no candidate outside it can come nearer, so the picks are those
of a full rescan. The samples of all components then become one (k, 5)
array of rectangle rows [cx, cy, h, w, theta] in a single
`build_components` call, and the rectangles are rasterized in one batched
scanline pass, each in its pixel bounding box. The contour step makes three
whole-frame passes: a run-based labelling that keeps each component's
first pixel and size, the linking of every boundary pixel edge to its
successor with the outer rings of the kept components ranked by pointer
jumping (`trace_boundary`), and a Douglas-Peucker simplification of all
rings at once, one split depth at a time (`douglas_peucker`).

Candidate filtering is overlap-free by construction: farthest point
sampling never compares rectangles pairwise. A module-level counter
instruments every rotated-rectangle overlap computation so the contrast
with the greedy-NMS baseline, which takes the same (k, 5) rectangle rows,
is measurable.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .geometry import TextPolygon, _clip_ccw, normalize_angle, rasterize_union, rects_corners
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


def _row_runs(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row runs of a 2-d boolean mask, row-major: (row, first column, last column)."""
    padded = np.pad(m, ((0, 0), (1, 1)))
    # Each padded row starts and ends empty, so its changes alternate
    # between a run's first column and the column after its last.
    row, col = np.divmod(np.flatnonzero(padded[:, 1:] != padded[:, :-1]), m.shape[1] + 1)
    return row[0::2], col[0::2], col[1::2] - 1


def _run_components(m: np.ndarray):
    """Runs of `m` and the component of each run, 8-connected.

    Run-based (He, Chao and Suzuki, IEEE TIP 2008): the row runs are linked
    to the runs they touch in the next row and merged by union-find.
    Components are numbered by their first run, which is first-appearance
    scan order. Returns (row, start, end, first_runs, run_label).
    """
    row, start, end = _row_runs(m)
    # Row-major keys; a stride of w + 2 keeps columns -1..w inside their row.
    stride = m.shape[1] + 2
    start_key = row * stride + start
    end_key = row * stride + end
    # Runs of the next row that touch run i: s_j <= e_i + 1 and e_j >= s_i - 1.
    below = (row + 1) * stride
    lo = np.searchsorted(end_key, below + start - 1, side="left")
    hi = np.searchsorted(start_key, below + end + 1, side="right")
    n = np.maximum(hi - lo, 0)
    upper = np.repeat(np.arange(row.size), n)
    lower = np.arange(upper.size) - np.repeat(np.cumsum(n) - n - lo, n)
    root = _merge_runs(row.size, upper, lower)
    is_first = root == np.arange(row.size)
    run_label = (np.cumsum(is_first) - 1)[root]
    return row, start, end, np.flatnonzero(is_first), run_label


def _component_seeds(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First pixel (x, y), row-major, and pixel count of each 8-connected
    component of a boolean mask, in first-appearance scan order."""
    row, start, end, first_runs, run_label = _run_components(m)
    sizes = np.bincount(run_label, weights=end - start + 1, minlength=first_runs.size)
    return np.stack([start[first_runs], row[first_runs]], axis=1), sizes.astype(np.int64)


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
    """Point sets of the 8-connected components of a binary mask, in
    first-appearance scan order: one (n, 2) int64 array of (x, y) pixels
    per component, sorted row-major."""
    m = np.asarray(mask, dtype=bool)
    row, start, end, first_runs, run_label = _run_components(m)
    if row.size == 0:
        return []
    pixel_label = np.repeat(run_label, end - start + 1)
    ys, xs = np.divmod(np.flatnonzero(m), m.shape[1])
    order = np.argsort(pixel_label, kind="stable")
    pts = np.stack([xs, ys], axis=1).astype(np.int64)[order]
    sizes = np.bincount(pixel_label, minlength=first_runs.size)
    return np.split(pts, np.cumsum(sizes)[:-1])


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
    if n == 1:
        return [0]
    # flat.mean(axis=0) is this sum divided by n, bit for bit, behind
    # Python-level set-up that costs more than the sum on small components
    centroid = flat.sum(axis=0) / n
    seed = int(((flat - centroid) ** 2).sum(axis=1).argmin())
    min_d2 = ((flat - flat[seed]) ** 2).sum(axis=1)
    stop2 = float(stop_dist) * float(stop_dist)
    best = min_d2.max()
    if budget == 1 or best <= 0.0 or best < stop2:
        return [seed]
    chosen = [seed]
    # Candidates sorted along the longer bounding-box axis, for the window;
    # their x and y as two contiguous columns in that order.
    axis = int(np.ptp(flat[:, 1]) > np.ptp(flat[:, 0]))
    order = np.argsort(flat[:, axis], kind="stable")
    xs, ys = flat[order, 0], flat[order, 1]
    key = (ys if axis else xs).tolist()
    px_of, py_of = flat[:, 0].tolist(), flat[:, 1].tolist()
    d2_buf, dy2_buf = np.empty(n), np.empty(n)
    while len(chosen) < budget:
        nxt = int(min_d2.argmax())
        best = min_d2.item(nxt)
        if best <= 0.0 or best < stop2:
            break
        chosen.append(nxt)
        px, py = px_of[nxt], py_of[nxt]
        at = py if axis else px
        reach = math.sqrt(best) * (1.0 + 1e-9) + abs(at) * 1e-9
        lo, hi = bisect.bisect_left(key, at - reach), bisect.bisect_right(key, at + reach)
        # (x - px)^2 + (y - py)^2, the full scan's squared distance
        d2, dy2 = d2_buf[:hi - lo], dy2_buf[:hi - lo]
        np.subtract(xs[lo:hi], px, out=d2)
        np.multiply(d2, d2, out=d2)
        np.subtract(ys[lo:hi], py, out=dy2)
        np.multiply(dy2, dy2, out=dy2)
        d2 += dy2
        near = order[lo:hi]
        min_d2[near] = np.minimum(min_d2[near], d2, out=d2)
    return chosen


def farthest_point_sample(points, budget: int, stop_dist: float = 0.0) -> np.ndarray:
    """Greedy max-min selection of up to `budget` points.

    Seeds with the point nearest the centroid, then repeatedly adds the
    point farthest from the selected set, breaking ties toward the lowest
    index. Stops early once the best max-min distance drops below
    stop_dist, or when only duplicates of selected points remain. Points
    must be finite. When the budget is 1, or no point lies at stop_dist or
    beyond from the seed, the seed is returned at once; most components of
    a dark frame end there.

    Adding a sample at max-min squared distance `best` can lower only the
    min-distances of points within sqrt(best) of it: any other point's
    min-distance is at most `best` already, below its distance to the new
    sample. So each update scans only the points whose coordinate along
    the set's longer bounding-box axis lies within sqrt(best) of the
    sample's, found by bisection in a once-sorted order. The window is
    widened by a relative 1e-9 of the reach and of the coordinate, far
    above float rounding, so rounding can only add points to it. A point in
    it is updated with (x - px)^2 + (y - py)^2, the same IEEE operations as
    a full scan's ((p - q) ** 2).sum(axis=1), and the min-distances are
    kept in the points' own order, so that argmax breaks ties as a full
    scan does: the selection is bit-identical to updating every point.
    """
    pts = np.asarray(points).reshape(-1, 2)
    return pts[farthest_point_sample_indices(pts, budget, stop_dist)]


def build_components(centers, maps: GeometryMaps, cfg: ShapingConfig) -> np.ndarray:
    """One rotated rectangle per sampled center, read off the regression
    maps, as a (k, 5) float64 array of rows [cx, cy, h, w, theta].

    Height is floored at MIN_RECT_HEIGHT so degenerate regressions stay
    representable, width is fixed by the config and theta is wrapped into
    (-pi/2, pi/2]. A center outside the map frame, or one whose x, y, h or
    theta is not finite, raises ValueError; `shape_text` samples only
    pixels whose values are finite.
    """
    pts = np.asarray(centers).reshape(-1, 2)
    ix, iy = pts[:, 0].astype(np.int64), pts[:, 1].astype(np.int64)
    outside = (iy < 0) | (iy >= maps.shape[0]) | (ix < 0) | (ix >= maps.shape[1])
    if outside.any():
        px, py = pts[np.argmax(outside)]
        raise ValueError(f"center ({px}, {py}) outside the {maps.shape} map frame")
    rows = np.stack([maps.x[iy, ix], maps.y[iy, ix], maps.h[iy, ix],
                     np.full(pts.shape[0], cfg.rect_width), maps.theta[iy, ix]], axis=1)
    bad = ~np.isfinite(rows)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"center ({pts[i, 0]}, {pts[i, 1]}): {('x', 'y', 'h', 'w', 'theta')[j]} "
                         f"must be finite, got {rows[i, j]}")
    np.maximum(rows[:, 2], MIN_RECT_HEIGHT, out=rows[:, 2])
    rows[:, 4] = normalize_angle(rows[:, 4])
    return rows


def _window_pass(flat: np.ndarray, row_len: int, kernel: int, reduce) -> np.ndarray:
    """`reduce` over the kernel x kernel windows of a flattened C-ordered
    2-D array with rows of row_len pixels, each stored at its window's
    top-left pixel in a new array of the same size.

    The rows are reduced first, then the columns. A column shift is a flat
    shift by 1 and a row shift one by row_len, so every step is one ufunc
    over two contiguous slices. Windows that would leave the array keep
    their input value, and windows that wrap past a row's end mix two rows:
    the caller's padding keeps both out of the pixels it reads.
    """
    for step in (1, row_len):
        n = flat.size - (kernel - 1) * step
        out = flat.copy()
        for d in range(1, kernel):
            reduce(out[:n], flat[d * step:d * step + n], out=out[:n])
        flat = out
    return flat


def close_binary(mask, kernel: int) -> np.ndarray:
    """Morphological closing (dilate then erode), border-safe.

    The mask is closed inside a frame padded by the kernel radius, so
    shapes touching the frame edge are not eaten by the erosion step. Both
    steps run on one C-ordered copy padded by twice the radius, which holds
    every window the result depends on: the dilation's row and column
    passes, then the erosion's, each over whole contiguous slices.
    """
    if kernel < 1 or kernel % 2 == 0:
        raise ValueError(f"kernel must be a positive odd int, got {kernel}")
    m = np.asarray(mask, dtype=bool)
    if kernel == 1:
        return m.copy()
    padded = np.pad(m, 2 * (kernel // 2), constant_values=False)
    row_len = padded.shape[1]
    flat = _window_pass(padded.ravel(), row_len, kernel, np.logical_or)
    flat = _window_pass(flat, row_len, kernel, np.logical_and)
    return flat.reshape(padded.shape)[:m.shape[0], :m.shape[1]].copy()


def accumulate_and_close(rects, frame: tuple[int, int], cfg: ShapingConfig) -> np.ndarray:
    """Union of rasterized rectangles, given as (k, 5) rows [cx, cy, h, w,
    theta], then a closing to bridge small gaps.

    All rectangles are rasterized in one batch, each in its pixel bounding
    box only.
    """
    h, w = frame
    if h <= 0 or w <= 0:
        raise ValueError(f"frame must be positive, got {frame}")
    return close_binary(rasterize_union(rects_corners(rects), h, w), cfg.close_kernel)


# Left turn of each crack-edge direction: 0 R, 1 D, 2 L, 3 U (y pointing down).
_LEFT_TURN = np.array([3, 0, 1, 2])


def _crack_edges(m: np.ndarray) -> np.ndarray:
    """Sorted keys of the directed boundary crack edges of a boolean mask.

    An edge runs between two lattice corners with its filled pixel on its
    right (below an R edge). Its key is corner * 4 + direction, where the
    corner it starts from is y * (w + 1) + x.
    """
    w = m.shape[1]
    stride = w + 1
    # Changes down the columns give the horizontal edges: R from the
    # top-left corner of a filled pixel below an empty one, L from the
    # top-right corner of an empty pixel below a filled one.
    padded = np.pad(m, ((1, 1), (0, 0)))
    at = np.flatnonzero(padded[1:] != padded[:-1])
    left = ~padded.ravel()[at + w]
    horizontal = (at + at // w + left) * 4 + 2 * left
    # Each row run gives the vertical ones: U up its left side, from its
    # bottom-left corner, and D down its right side.
    row, start, end = _row_runs(m)
    up = ((row + 1) * stride + start) * 4 + 3
    down = (row * stride + end + 1) * 4 + 1
    return np.sort(np.concatenate([horizontal, up, down]))


def trace_boundary(mask, starts) -> list[np.ndarray]:
    """Boundary rings of a pixel mask, walked along pixel edges.

    `starts` holds one (x, y) pixel per ring: a filled pixel whose upper
    neighbour is empty, at most one per ring. Its ring is walked from the
    top-left corner of that pixel, rightwards, with the filled pixels on
    the right and, at each corner, the first boundary edge out of a left
    turn, straight on or a right turn. The first pixel of an 8-connected
    component, row-major, starts that component's outer boundary.

    Vertices are lattice corners (pixel (i, j) spans [j, j+1] x [i, i+1]),
    so a traced polygon covers its pixels' full area and re-rasterizes to
    the region. Each ring lists only its direction-change corners, as
    float64; an outer boundary comes out counter-clockwise by the shoelace
    sign. Preferring left turns keeps diagonally connected pixels on a
    single contour.

    Every boundary crack edge of the mask is taken at once. Each edge's
    successor is found by bisection in the sorted edge keys; only at a
    saddle corner (two diagonal pixels filled) are there two to choose
    from, and the left turn is then always one of them. The successors form
    rings; each traced ring is cut before its start and ranked by pointer
    jumping, so no step walks the boundary one edge at a time.
    """
    m = np.asarray(mask, dtype=bool)
    seeds = np.asarray(starts, dtype=np.int64).reshape(-1, 2)
    if seeds.shape[0] == 0:
        return []
    w = m.shape[1]
    stride = w + 1
    keys = _crack_edges(m)
    start_keys = (seeds[:, 1] * stride + seeds[:, 0]) * 4
    first = np.searchsorted(keys, start_keys)
    found = (seeds[:, 0] >= 0) & (seeds[:, 0] < w) & (first < keys.size)
    found[found] = keys[first[found]] == start_keys[found]
    if not found.all():
        x, y = seeds[np.argmin(found)]
        raise ValueError(f"start ({x}, {y}) is not a filled pixel below an empty one")

    corner, d = keys >> 2, keys & 3
    # Key of the corner an edge ends at, direction 0; the edges leaving that
    # corner have the next 4 keys.
    end = (corner + np.array([1, stride, -1, -stride])[d]) * 4
    succ = np.searchsorted(keys, end)
    second = np.minimum(succ + 1, keys.size - 1)
    saddle = (keys[second] < end + 4) & (succ + 1 < keys.size)
    succ[saddle & (keys[succ] & 3 != _LEFT_TURN[d])] += 1
    turn = np.empty(keys.size, dtype=bool)
    turn[succ] = d[succ] != d

    # Cut each traced ring before its start and rank its edges by their
    # distance to the cut (Wyllie's list ranking).
    last = np.empty_like(succ)
    last[succ] = np.arange(keys.size)
    last = last[first]
    succ[last] = last
    dist = np.ones(keys.size, dtype=np.int64)
    dist[last] = 0
    while not np.array_equal(succ[first], succ[succ[first]]):
        dist += dist[succ]
        succ = succ[succ]
    if not np.array_equal(succ[first], last) or np.unique(first).size < first.size:
        raise ValueError("two starts lie on one ring")
    ring = np.full(keys.size, -1)
    ring[last] = np.arange(last.size)
    ring = ring[succ]
    members = np.flatnonzero(ring >= 0)
    length = dist[first] + 1
    offset = np.cumsum(length) - length
    order = np.empty(int(length.sum()), dtype=np.int64)
    order[(offset + dist[first])[ring[members]] - dist[members]] = members
    corners = corner[order[turn[order]]]
    verts = np.stack([corners % stride, corners // stride], axis=1).astype(np.float64)
    counts = np.add.reduceat(turn[order], offset, dtype=np.int64)
    return np.split(verts, np.cumsum(counts)[:-1])


def _first_argmax(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Index into `values` of the first maximum of each non-empty segment
    values[starts[i]:starts[i + 1]]."""
    peak = np.maximum.reduceat(values, starts)
    counts = np.diff(np.append(starts, values.size))
    hit = np.flatnonzero(values == np.repeat(peak, counts))
    return hit[np.searchsorted(hit, starts)]


def douglas_peucker(rings, eps: float) -> list[np.ndarray]:
    """Douglas-Peucker simplification of closed vertex rings.

    A ring of at most 4 vertices is returned as it is, and one whose
    vertices all coincide as its first vertex. Any other ring is cut at its
    first vertex farthest from vertex 0 into two open chains, each
    simplified by recursive splitting at the first vertex farthest from the
    chord beyond eps; the kept vertices keep their ring order.

    All chains of all rings are split together, one split depth at a time,
    with one batched distance computation per depth. A vertex's distance
    uses only its differences from the chord's first end, so an integer
    shift of a ring shifts its result exactly. On integer vertices (as
    traced) a chord's squared length and each projection dx*abx + dy*aby
    are exact, so no order of summation changes them; the remaining steps
    are elementwise, so each distance has the bits of a one-chord
    computation.
    """
    rings = [np.asarray(r, dtype=np.float64).reshape(-1, 2) for r in rings]
    big = [i for i, r in enumerate(rings) if r.shape[0] > 4]
    if not big:
        return rings
    n = np.array([rings[i].shape[0] for i in big])
    first = np.cumsum(n) - n
    # Each ring followed by a copy of its vertex 0, so that its chains are
    # [head, far] and [far, head + n] in one index space. The copy only
    # ever ends a chord, so it is never kept.
    head = first + np.arange(n.size)
    source = np.arange(n.sum() + n.size) - np.repeat(head - first, n + 1)
    source[head + n] = first
    pts = np.concatenate([rings[i] for i in big])[source]
    x, y = pts[:, 0].copy(), pts[:, 1].copy()
    dx, dy = x - np.repeat(x[head], n + 1), y - np.repeat(y[head], n + 1)
    far = _first_argmax(dx * dx + dy * dy, head)
    keep = np.zeros(pts.shape[0], dtype=bool)
    keep[head] = keep[far] = True
    i, j = np.concatenate([head, far]), np.concatenate([far, head + n])
    while True:
        live = j - i > 1
        i, j = i[live], j[live]
        if i.size == 0:
            break
        inner = j - i - 1
        at = np.cumsum(inner) - inner
        idx = np.arange(inner.sum()) - np.repeat(at - i - 1, inner)
        abx, aby = x[j] - x[i], y[j] - y[i]
        denom = abx * abx + aby * aby
        denom[denom == 0.0] = 1.0  # a closed chord: ab = 0, so t = 0
        abx, aby = np.repeat(abx, inner), np.repeat(aby, inner)
        dx, dy = x[idx] - np.repeat(x[i], inner), y[idx] - np.repeat(y[i], inner)
        t = np.clip((dx * abx + dy * aby) / np.repeat(denom, inner), 0.0, 1.0)
        dx -= t * abx
        dy -= t * aby
        dist = np.sqrt(dx * dx + dy * dy)
        k = _first_argmax(dist, at)
        split = dist[k] > eps
        k = idx[k[split]]
        keep[k] = True
        i, j = np.concatenate([i[split], k]), np.concatenate([k, j[split]])
    kept = np.add.reduceat(keep, head, dtype=np.int64)
    for r, part, coincide in zip(big, np.split(pts[keep], np.cumsum(kept)[:-1]), far == head):
        rings[r] = rings[r][:1] if coincide else part
    return rings


def trace_contours(mask, min_area: float, eps: float = 1.0) -> list[TextPolygon]:
    """Polygons of the 8-connected components covering at least min_area pixels.

    Each polygon is a component's outer boundary on the pixel-edge lattice
    (its holes filled), simplified with tolerance eps; components come in
    first-appearance scan order, and one that simplifies to fewer than 3
    vertices is dropped. One labelling pass finds each component's first
    pixel and size; the kept components are then traced together
    (`trace_boundary`) and simplified together (`douglas_peucker`).
    """
    m = np.asarray(mask, dtype=bool)
    seeds, sizes = _component_seeds(m)
    # Drop as `size < min_area` does: a NaN min_area drops nothing.
    rings = trace_boundary(m, seeds[~(sizes < min_area)])
    return [TextPolygon(r) for r in douglas_peucker(rings, eps) if r.shape[0] >= 3]


def shape_text(maps: GeometryMaps, cfg: ShapingConfig | None = None) -> list[TextPolygon]:
    """Full bottom-up shaping of one image's head maps into text polygons.

    Each center-region component is sampled on its own; candidates whose x,
    y, h or theta is not finite are never sampled. The samples of all
    components are read off the maps as one array of rectangle rows, whose
    rectangles are accumulated into one frame mask, closed once and traced
    once, so every component whose rectangles land on the same text joins
    that text's polygon. The output may be empty. Deterministic for
    fixed inputs and config.

    The closing also joins two instances whose rectangles come within
    close_kernel - 1 px of each other: at the defaults, two bands with edge
    gaps of 4 px or less come out as one polygon, from 5 px on as two.
    """
    cfg = cfg or ShapingConfig()
    usable = np.all([np.isfinite(m) for m in (maps.x, maps.y, maps.h, maps.theta)], axis=0)
    samples = []
    for comp in extract_centers(maps.center, cfg.center_thresh):
        cands = comp.candidates[usable[comp.candidates[:, 1], comp.candidates[:, 0]]]
        if cands.shape[0] == 0:
            continue
        samples.append(farthest_point_sample(cands, FPS_CAP, cfg.coverage_radius))
    del usable  # frame-sized: not held through the frame-sized stages below
    if not samples:
        return []
    rects = build_components(np.concatenate(samples), maps, cfg)
    return trace_contours(accumulate_and_close(rects, maps.shape, cfg), cfg.min_area)


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


def nms_baseline(rows, scores, iou_thresh: float = 0.5) -> np.ndarray:
    """Greedy score-descending NMS over rotated rectangles (benchmark baseline).

    `rows` is a (k, 5) array of rectangle rows [cx, cy, h, w, theta], as
    `build_components` returns; the kept rows come back in the order they
    were kept. Rows must be finite with h and w positive, or ValueError is
    raised. Ties in score keep the earlier candidate. A candidate is
    suppressed when its IoU with any already-kept rectangle exceeds
    iou_thresh. Each candidate is compared against the kept set pairwise;
    every comparison counts toward the overlap-computation counter.
    """
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 5)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (rows.shape[0],):
        raise ValueError(f"got {rows.shape[0]} rects but {scores.shape} scores")
    bad = ~(np.isfinite(rows).all(axis=1) & (rows[:, 2] > 0) & (rows[:, 3] > 0))
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"rect {i} must be finite with h, w > 0, got {rows[i].tolist()}")
    corners = rects_corners(rows)
    boxes = np.concatenate((corners.min(axis=1), corners.max(axis=1)), axis=1)
    geoms = list(zip(corners.tolist(), boxes.tolist(), (rows[:, 2] * rows[:, 3]).tolist()))
    kept: list[int] = []
    for i in np.argsort(-scores, kind="stable").tolist():
        gi = geoms[i]
        if all(_pair_iou(gi, geoms[j]) <= iou_thresh for j in kept):
            kept.append(i)
    return rows[kept]
