"""Shared test oracles, deliberately independent of the library internals.

The rectangle oracles are the scalar forms the array code replaced: a
rectangle is a tuple (cx, cy, h, w, theta) of Python floats."""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def finite_diff_grad(f, x, step=1e-5):
    """Central-difference gradient of a scalar function, one element at a time."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += step
        xm = x.copy()
        xm[idx] -= step
        g[idx] = (f(xp) - f(xm)) / (2 * step)
    return g


def max_rel_err(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def write_pgm(path, gray):
    """Write a float [0, 1] or uint8 (H, W) grid as a binary 8-bit PGM (P5)."""
    arr = np.asarray(gray)
    if arr.dtype != np.uint8:
        arr = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode() + arr.tobytes())


def point_in_polygon_oracle(px, py, verts):
    """Even-odd ray cast toward +x, one point at a time."""
    inside = False
    n = len(verts)
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        if (y1 > py) != (y2 > py):
            xc = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if px < xc:
                inside = not inside
    return inside


def rasterize_oracle(verts, h, w):
    out = np.zeros((h, w), dtype=bool)
    for i in range(h):
        for j in range(w):
            out[i, j] = point_in_polygon_oracle(j + 0.5, i + 0.5, verts)
    return out


def scanline_rows_oracle(pts, ys, xs):
    """Even-odd containment of the grid ys x xs, one row at a time: the
    crossings of each row are sorted and counted right of every x."""
    inside = np.zeros((ys.size, xs.size), dtype=bool)
    x1s, y1s = pts[:, 0], pts[:, 1]
    x2s, y2s = np.roll(x1s, -1), np.roll(y1s, -1)
    for row, py in enumerate(ys):
        hit = (y1s > py) != (y2s > py)
        if not np.any(hit):
            continue
        xc = x1s[hit] + (py - y1s[hit]) * (x2s[hit] - x1s[hit]) / (y2s[hit] - y1s[hit])
        xc.sort()
        idx = np.searchsorted(xc, xs, side="right")
        inside[row] = (xc.size - idx) % 2 == 1
    return inside


def scanline_windows_oracle(xy, ys, xs, start, stop, out):
    """Drop-in for geometry._scanline_inside: OR into `out` each polygon's
    per-row oracle containment on its own window of the grid."""
    for i in range(xy.shape[1]):
        (c0, r0), (c1, r1) = start[:, i], stop[:, i]
        out[r0:r1, c0:c1] |= scanline_rows_oracle(xy[:, i].T, ys[r0:r1], xs[c0:c1])


def fps_full_scan_oracle(points, budget, stop_dist=0.0):
    """Farthest point sampling that updates every point's min-distance after
    each pick, with the same arithmetic as the windowed library version."""
    flat = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    centroid = flat.mean(axis=0)
    seed = int(np.argmin(((flat - centroid) ** 2).sum(axis=1)))
    chosen = [seed]
    min_d2 = ((flat - flat[seed]) ** 2).sum(axis=1)
    stop2 = float(stop_dist) * float(stop_dist)
    while len(chosen) < budget:
        nxt = int(np.argmax(min_d2))
        best = min_d2[nxt]
        if best <= 0.0 or best < stop2:
            break
        chosen.append(nxt)
        d2 = ((flat - flat[nxt]) ** 2).sum(axis=1)
        np.minimum(min_d2, d2, out=min_d2)
    return chosen


def label8_bfs_oracle(mask):
    """8-connected labeling by flood fill from each unlabeled pixel in scan
    order. Returns (label grid with -1 background, per-label (n, 2) int64 x,y
    points sorted row-major)."""
    m = np.asarray(mask, dtype=bool)
    h, w = m.shape
    labels = np.full((h, w), -1, dtype=np.int32)
    comps = []
    for sy, sx in zip(*np.nonzero(m)):
        if labels[sy, sx] >= 0:
            continue
        lab = len(comps)
        labels[sy, sx] = lab
        stack = [(int(sy), int(sx))]
        pts = []
        while stack:
            y, x = stack.pop()
            pts.append((x, y))
            for ny in range(max(y - 1, 0), min(y + 2, h)):
                for nx in range(max(x - 1, 0), min(x + 2, w)):
                    if m[ny, nx] and labels[ny, nx] < 0:
                        labels[ny, nx] = lab
                        stack.append((ny, nx))
        pts.sort(key=lambda p: (p[1], p[0]))
        comps.append(np.array(pts, dtype=np.int64).reshape(-1, 2))
    return labels, comps


def conv2d_einsum_oracle(x, k, bias, stride, padding):
    """Reference cross-correlation: sliding_window_view windows contracted by einsum."""
    ph, pw = (padding, padding) if isinstance(padding, int) else padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    win = sliding_window_view(xp, k.shape[2:], axis=(2, 3))[:, :, ::stride, ::stride]
    out = np.einsum("bchwkl,ockl->bohw", win, k, optimize=True)
    return out + bias[None, :, None, None]


def square_window_oracle(mask, kernel, all_=False):
    """Any (dilation) or all (erosion) over each pixel's kernel x kernel
    window, outside the frame False, as one 2-D window reduction."""
    padded = np.pad(np.asarray(mask, dtype=bool), kernel // 2, constant_values=False)
    windows = sliding_window_view(padded, (kernel, kernel))
    return windows.all(axis=(2, 3)) if all_ else windows.any(axis=(2, 3))


def signed_area_oracle(verts):
    s = 0.0
    n = len(verts)
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        s += x1 * y2 - x2 * y1
    return 0.5 * s


def ear_clip_triangulate(verts):
    """Triangulate a simple polygon by ear clipping (CCW normalized)."""
    pts = [tuple(map(float, p)) for p in verts]
    if signed_area_oracle(pts) < 0:
        pts = pts[::-1]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def point_in_tri(p, a, b, c):
        d1 = cross(a, b, p)
        d2 = cross(b, c, p)
        d3 = cross(c, a, p)
        return d1 >= -1e-12 and d2 >= -1e-12 and d3 >= -1e-12

    idx = list(range(len(pts)))
    tris = []
    guard = 0
    while len(idx) > 3 and guard < 10000:
        guard += 1
        n = len(idx)
        for k in range(n):
            i0, i1, i2 = idx[(k - 1) % n], idx[k], idx[(k + 1) % n]
            a, b, c = pts[i0], pts[i1], pts[i2]
            if cross(a, b, c) <= 1e-12:
                continue
            if any(point_in_tri(pts[j], a, b, c)
                   for j in idx if j not in (i0, i1, i2)):
                continue
            tris.append(np.array([a, b, c]))
            idx.pop(k)
            break
        else:
            break
    if len(idx) == 3:
        tris.append(np.array([pts[idx[0]], pts[idx[1]], pts[idx[2]]]))
    return tris


def convex_hull(pts):
    """Andrew's monotone chain, an independent convexification."""
    pts = sorted(map(tuple, pts))
    if len(pts) <= 2:
        return np.array(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


def segment_intersections(a, b):
    pts = []
    na, nb = len(a), len(b)
    for i in range(na):
        p1, p2 = a[i], a[(i + 1) % na]
        d1 = p2 - p1
        for j in range(nb):
            q1, q2 = b[j], b[(j + 1) % nb]
            d2 = q2 - q1
            denom = d1[0] * d2[1] - d1[1] * d2[0]
            if abs(denom) < 1e-14:
                continue
            t = ((q1[0] - p1[0]) * d2[1] - (q1[1] - p1[1]) * d2[0]) / denom
            u = ((q1[0] - p1[0]) * d1[1] - (q1[1] - p1[1]) * d1[0]) / denom
            if -1e-12 <= t <= 1 + 1e-12 and -1e-12 <= u <= 1 + 1e-12:
                pts.append(p1 + t * d1)
    return pts


def point_in_convex(p, poly):
    n = len(poly)
    sign = 0
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        cr = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if abs(cr) < 1e-12:
            continue
        s = 1 if cr > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return True


def convex_intersection_area_oracle(a, b):
    """Candidate vertices (mutual containments + edge crossings) hulled."""
    cands = [p for p in a if point_in_convex(p, b)]
    cands += [p for p in b if point_in_convex(p, a)]
    cands += segment_intersections(a, b)
    if len(cands) < 3:
        return 0.0
    hull = convex_hull(np.array(cands))
    if len(hull) < 3:
        return 0.0
    return abs(signed_area_oracle(hull))


def segments_meet(p1, p2, q1, q2):
    """True when the closed segments p1p2 and q1q2 share a point, by the
    signs of four orientation tests."""
    def side(a, b, c):
        v = float((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
        return (v > 0) - (v < 0)

    o1, o2, o3, o4 = side(p1, p2, q1), side(p1, p2, q2), side(q1, q2, p1), side(q1, q2, p2)
    if o1 == o2 == o3 == o4 == 0:
        return all(max(min(p1[k], p2[k]), min(q1[k], q2[k])) <=
                   min(max(p1[k], p2[k]), max(q1[k], q2[k])) for k in (0, 1))
    return o1 * o2 <= 0 and o3 * o4 <= 0


def is_simple_oracle(verts):
    """True when no two edges of a closed polygon meet, except neighbours at
    their shared vertex, and no edge folds back onto its neighbour."""
    v = np.asarray(verts, dtype=np.float64)
    n = len(v)
    d = np.roll(v, -1, axis=0) - v
    for i in range(n):
        nxt = (i + 1) % n
        if d[i, 0] * d[nxt, 1] == d[i, 1] * d[nxt, 0] and d[i] @ d[nxt] < 0:
            return False
        for j in range(i + 2, n - (i == 0)):
            if segments_meet(v[i], v[i + 1], v[j], v[(j + 1) % n]):
                return False
    return True


def exact_iou_oracle(a, b):
    """Exact IoU for simple polygons: triangulate both, intersect triangle
    pairs. Ear clipping and the shoelace union hold for simple polygons
    only, so a self-intersecting operand raises ValueError."""
    for name, p in (("a", a), ("b", b)):
        if not is_simple_oracle(p):
            raise ValueError(f"operand {name} is not a simple polygon")
    tris_a = ear_clip_triangulate(a)
    tris_b = ear_clip_triangulate(b)
    inter = sum(convex_intersection_area_oracle(ta, tb)
                for ta in tris_a for tb in tris_b)
    union = abs(signed_area_oracle(a)) + abs(signed_area_oracle(b)) - inter
    return inter / union if union > 0 else 0.0


def logistic_masked_oracle(x):
    """Logistic sigmoid by boolean masks: 1/(1+exp(-x)) where x >= 0 and
    exp(x)/(1+exp(x)) elsewhere."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# Crack-boundary walk directions: R, D, L, U as (dx, dy) with y pointing down.
_DIRS = ((1, 0), (0, 1), (-1, 0), (0, -1))
_LEFT_TURN = (3, 0, 1, 2)
_RIGHT_TURN = (1, 2, 3, 0)
# Pixel offsets (dx, dy) from a corner to the pixels right/left of an edge
# leaving that corner in direction d.
_RIGHT_PIXEL = ((0, 0), (-1, 0), (-1, -1), (0, -1))
_LEFT_PIXEL = ((0, -1), (0, 0), (-1, 0), (-1, -1))


def trace_boundary_oracle(mask):
    """Outer boundary of the region holding the first pixel (row-major) of
    a mask, walked one pixel edge at a time from that pixel's top-left
    corner, trying a left turn, straight on, then a right turn at each
    corner. Returns the direction-change corners as float64 (x, y)."""
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


def point_segment_dist_oracle(pts, a, b):
    """Distance of each point to the segment ab, from differences to a."""
    d = pts - a
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return np.linalg.norm(d, axis=1)
    t = np.clip(d @ ab / denom, 0.0, 1.0)
    return np.linalg.norm(d - t[:, None] * ab, axis=1)


def dp_open_oracle(pts, eps):
    """Douglas-Peucker of an open chain, one segment per stack pop."""
    n = pts.shape[0]
    keep = np.zeros(n, dtype=bool)
    keep[0] = keep[-1] = True
    stack = [(0, n - 1)]
    while stack:
        i, j = stack.pop()
        if j <= i + 1:
            continue
        d = point_segment_dist_oracle(pts[i + 1:j], pts[i], pts[j])
        k = int(np.argmax(d))
        if d[k] > eps:
            keep[i + 1 + k] = True
            stack.append((i, i + 1 + k))
            stack.append((i + 1 + k, j))
    return pts[keep]


def douglas_peucker_oracle(pts, eps):
    """Douglas-Peucker of one closed ring: rings of at most 4 vertices kept,
    otherwise cut at the first vertex farthest from vertex 0 into two open
    chains."""
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
    n = pts.shape[0]
    if n <= 4:
        return pts
    far = int(np.argmax(((pts - pts[0]) ** 2).sum(axis=1)))
    if far == 0:
        return pts[:1]
    first = dp_open_oracle(pts[:far + 1], eps)
    second = dp_open_oracle(np.vstack([pts[far:], pts[:1]]), eps)
    return np.vstack([first[:-1], second[:-1]])


def trace_contours_oracle(mask, min_area, eps=1.0):
    """Vertex arrays of the simplified outer boundaries of the 8-connected
    components of at least min_area pixels, each component traced alone in
    its bounding box plus a 1 px margin."""
    out = []
    for pts in label8_bfs_oracle(mask)[1]:
        if pts.shape[0] < min_area:
            continue
        origin = pts.min(axis=0) - 1
        local = pts - origin
        crop = np.zeros(local.max(axis=0)[::-1] + 2, dtype=bool)
        crop[local[:, 1], local[:, 0]] = True
        simplified = douglas_peucker_oracle(trace_boundary_oracle(crop) + origin, eps)
        if simplified.shape[0] >= 3:
            out.append(simplified)
    return out


def normalize_angle_scalar_oracle(theta):
    """Wrap one angle into (-pi/2, pi/2] modulo pi with math.fmod."""
    t = math.fmod(float(theta), math.pi)
    if t > math.pi / 2:
        t -= math.pi
    elif t <= -math.pi / 2:
        t += math.pi
    return t


def build_components_rect_oracle(centers, maps, rect_width, min_height=1e-3):
    """One (cx, cy, h, w, theta) tuple per center, built one at a time from
    the map values as Python floats."""
    pts = np.asarray(centers).reshape(-1, 2)
    ix, iy = pts[:, 0].astype(np.int64), pts[:, 1].astype(np.int64)
    values = zip(*(m[iy, ix].tolist() for m in (maps.x, maps.y, maps.h, maps.theta)))
    return [(cx, cy, max(h, min_height), float(rect_width), normalize_angle_scalar_oracle(theta))
            for cx, cy, h, theta in values]


def rect_rows(rects):
    """(cx, cy, h, w, theta) tuples as (k, 5) rows."""
    return np.array(rects, dtype=np.float64).reshape(-1, 5)


_CORNER_SIGNS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


def rects_corners_oracle(rects):
    """(k, 4, 2) corners of (cx, cy, h, w, theta) tuples: one tuple of
    cosine, sine and half sides per rect, then the same stacked matrix
    product."""
    p = np.array([(cx, cy, w / 2.0, h / 2.0, math.cos(t), math.sin(t), -math.sin(t), math.cos(t))
                  for cx, cy, h, w, t in rects]).reshape(-1, 8)
    return np.matmul(_CORNER_SIGNS * p[:, None, 2:4], p[:, 4:].reshape(-1, 2, 2)) + p[:, None, :2]


def draw_outline_oracle(rgb, verts, color):
    """The per-step Bresenham walk of every edge, rounded vertices, in frame
    or not; only the pixels inside the frame are set."""
    h, w = rgb.shape[:2]
    n = len(verts)
    for i in range(n):
        x0, y0 = int(round(verts[i][0])), int(round(verts[i][1]))
        x1, y1 = int(round(verts[(i + 1) % n][0])), int(round(verts[(i + 1) % n][1]))
        dx, dy = abs(x1 - x0), -abs(y1 - y0)
        sx = 1 if x0 < x1 else -1
        sy = 1 if y0 < y1 else -1
        err = dx + dy
        x, y = x0, y0
        while True:
            if 0 <= y < h and 0 <= x < w:
                rgb[y, x] = color
            if x == x1 and y == y1:
                break
            e2 = 2 * err
            if e2 >= dy:
                err += dy
                x += sx
            if e2 <= dx:
                err += dx
                y += sy


def nearest_sample_oracle(sx, sy, h, w):
    """(h, w) index of the centreline sample nearest to each pixel centre by
    brute force: one (w, S) squared-distance matrix per pixel row against
    every sample, first argmin, so ties go to the lowest index."""
    px = np.arange(w) + 0.5
    py = np.arange(h) + 0.5
    out = np.empty((h, w), dtype=np.intp)
    dx2_cols = (px[:, None] - sx[None, :]) ** 2
    for i in range(h):
        out[i] = np.argmin(dx2_cols + (py[i] - sy[None, :]) ** 2, axis=1)
    return out
