"""Shared test oracles, deliberately independent of the library internals."""

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


def exact_iou_oracle(a, b):
    """Exact IoU for simple polygons: triangulate both, intersect triangle pairs."""
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


def row_softmax_oracle(x):
    """Row softmax with fresh arrays: exp(x - row max) over its row sum."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    z = np.exp(x - x.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)
