import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (build_components_rect_oracle, convex_intersection_area_oracle,
                     douglas_peucker_oracle, fps_full_scan_oracle, label8_bfs_oracle, rect_rows,
                     rects_corners_oracle, signed_area_oracle, square_window_oracle,
                     trace_boundary_oracle, trace_contours_oracle)
from textshaper import shaping
from textshaper.dataio import SynthBand, SynthSpec, band_polygon, lowlight_suite, synth_maps
from textshaper.geometry import polygon_iou, rasterize, rasterize_union, rects_corners
from textshaper.maps import GeometryMaps
from textshaper.shaping import (FPS_CAP, MIN_RECT_HEIGHT, OVERLAP_COUNTER, ShapingConfig,
                                accumulate_and_close, build_components, close_binary,
                                connected_components, douglas_peucker,
                                extract_centers, farthest_point_sample,
                                farthest_point_sample_indices, nms_baseline, shape_text,
                                trace_boundary, trace_contours)


def fps_oracle(points, budget, stop_dist=0.0, seed_index=None):
    """Exhaustive greedy selection: recompute every min-distance each round."""
    pts = [(float(x), float(y)) for x, y in np.asarray(points).reshape(-1, 2)]
    n = len(pts)
    if seed_index is None:
        cx = sum(p[0] for p in pts) / n
        cy = sum(p[1] for p in pts) / n
        best, seed_index = None, 0
        for i, (x, y) in enumerate(pts):
            d = (x - cx) * (x - cx) + (y - cy) * (y - cy)
            if best is None or d < best:
                best, seed_index = d, i
    chosen = [seed_index]
    stop2 = stop_dist * stop_dist
    while len(chosen) < budget:
        best_d, best_i = -1.0, -1
        for i, (x, y) in enumerate(pts):
            dmin = min((x - pts[j][0]) ** 2 + (y - pts[j][1]) ** 2 for j in chosen)
            if dmin > best_d:
                best_d, best_i = dmin, i
        if best_d <= 0.0 or best_d < stop2:
            break
        chosen.append(best_i)
    return chosen


def dilate_oracle(mask, k):
    h, w = mask.shape
    r = k // 2
    out = np.zeros_like(mask)
    for y in range(h):
        for x in range(w):
            out[y, x] = mask[max(0, y - r):y + r + 1, max(0, x - r):x + r + 1].any()
    return out


def window_pass_2d(mask, k, reduce):
    """shaping._window_pass over the mask padded by the kernel radius,
    cropped back: `reduce` over each pixel's k x k window, outside the
    frame counting as False (np.logical_or dilates, np.logical_and erodes)."""
    m = np.asarray(mask, dtype=bool)
    padded = np.pad(m, k // 2, constant_values=False)
    flat = shaping._window_pass(padded.ravel(), padded.shape[1], k, reduce)
    return flat.reshape(padded.shape)[:m.shape[0], :m.shape[1]]


def erode_oracle(mask, k):
    h, w = mask.shape
    r = k // 2
    out = np.zeros_like(mask)
    for y in range(h):
        for x in range(w):
            win = mask[max(0, y - r):y + r + 1, max(0, x - r):x + r + 1]
            full = (min(y + r + 1, h) - max(0, y - r)) * (min(x + r + 1, w) - max(0, x - r))
            out[y, x] = win.all() and full == k * k
    return out


def rect_iou_oracle(a, b):
    """IoU of two (cx, cy, h, w, theta) rectangles."""
    ca, cb = rects_corners_oracle([a, b])
    inter = convex_intersection_area_oracle(ca, cb)
    union = abs(signed_area_oracle(ca)) + abs(signed_area_oracle(cb)) - inter
    return inter / union if union > 0 else 0.0


def nms_oracle(rects, scores, thresh):
    """Reference greedy NMS over a precomputed IoU matrix."""
    n = len(rects)
    iou = [[rect_iou_oracle(rects[i], rects[j]) if i != j else 1.0
            for j in range(n)] for i in range(n)]
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    kept = []
    for i in order:
        if all(iou[i][j] <= thresh for j in kept):
            kept.append(i)
    return kept


class TestShapingConfig:
    def test_coverage_radius_from_rect_geometry(self):
        assert ShapingConfig().coverage_radius == 4.0
        assert ShapingConfig(rect_width=6.0, close_kernel=3).coverage_radius == 4.0

    @pytest.mark.parametrize("field, value", [("rect_width", math.nan), ("rect_width", math.inf),
                                              ("rect_width", 0.0), ("min_area", math.nan),
                                              ("min_area", -1.0)])
    def test_invalid_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ShapingConfig(**{field: value})


class TestExtractCenters:
    def test_zero_map(self):
        assert extract_centers(np.zeros((6, 6)), 0.5) == []

    def test_single_pixel(self):
        m = np.zeros((5, 5))
        m[2, 3] = 0.9
        comps = extract_centers(m, 0.5)
        assert len(comps) == 1
        np.testing.assert_array_equal(comps[0].candidates, [[3, 2]])

    def test_two_blobs_match_flood_fill_oracle(self):
        m = np.zeros((10, 12))
        m[1:4, 1:5] = 1.0
        m[6:9, 7:11] = 1.0
        comps = extract_centers(m, 0.5)
        oracle = label8_bfs_oracle(m >= 0.5)[1]
        assert len(comps) == 2
        assert [c.candidates.shape[0] for c in comps] == [len(o) for o in oracle]
        for c, o in zip(comps, oracle):
            np.testing.assert_array_equal(c.candidates, o)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_masks_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = (rng.uniform(size=(12, 12)) > 0.6).astype(float)
        comps = connected_components(m >= 0.5)
        oracle = label8_bfs_oracle(m >= 0.5)[1]
        assert len(comps) == len(oracle)
        for c, o in zip(comps, oracle):
            np.testing.assert_array_equal(c, o)

    def test_diagonal_pixels_are_one_component(self):
        m = np.zeros((4, 4))
        m[0, 0] = m[1, 1] = 1.0
        assert len(extract_centers(m, 0.5)) == 1


def assert_labels_match_bfs(mask):
    comps = connected_components(mask)
    want_comps = label8_bfs_oracle(mask)[1]
    assert len(comps) == len(want_comps)
    for got, want in zip(comps, want_comps):
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype and got.shape == want.shape


class TestLabel8:
    """The run-based labeller equals the flood-fill oracle bit for bit."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (7, 11)])
    def test_empty(self, shape):
        assert_labels_match_bfs(np.zeros(shape, dtype=bool))
        assert connected_components(np.zeros(shape, dtype=bool)) == []

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (7, 11)])
    def test_full(self, shape):
        assert_labels_match_bfs(np.ones(shape, dtype=bool))

    @pytest.mark.parametrize("y, x", [(0, 0), (0, 10), (6, 0), (6, 10), (3, 5)])
    def test_single_pixel(self, y, x):
        m = np.zeros((7, 11), dtype=bool)
        m[y, x] = True
        assert_labels_match_bfs(m)

    def test_diagonal_only(self):
        # anti-diagonal chains join only through corners; the checkerboard
        # is one component under 8-connectivity
        m = np.zeros((9, 9), dtype=bool)
        for i in range(9):
            m[i, 8 - i] = True
            m[i, i // 2] = True
        assert_labels_match_bfs(m)
        board = (np.add.outer(np.arange(8), np.arange(8)) % 2).astype(bool)
        assert_labels_match_bfs(board)
        assert len(connected_components(board)) == 1

    def test_runs_touching_only_at_run_ends(self):
        m = np.zeros((4, 12), dtype=bool)
        m[0, 2:5] = True
        m[1, 5:8] = True  # touches the run above at its end, diagonally
        m[2, 0:4] = True  # one column short of touching the run above
        m[3, 8:10] = True  # touches row 1 only, which is two rows up
        assert_labels_match_bfs(m)
        assert len(connected_components(m)) == 3

    @pytest.mark.parametrize("seed", range(12))
    def test_random_masks(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            h, w = (int(v) for v in rng.integers(1, 24, size=2))
            assert_labels_match_bfs(rng.uniform(size=(h, w)) < rng.uniform(0.05, 0.95))


class TestFarthestPointSample:
    def test_singleton(self):
        out = farthest_point_sample(np.array([[4, 7]]), budget=5)
        np.testing.assert_array_equal(out, [[4, 7]])

    def test_triangle_tie_breaks_to_lowest_index(self):
        # Seed (5, 1) is nearest the centroid; (0, 0) and (10, 0) tie for farthest.
        t = np.array([[0, 0], [10, 0], [5, 1]])
        out = farthest_point_sample(t, budget=2)
        np.testing.assert_array_equal(out, [[5, 1], [0, 0]])

    def test_triangle_default_seed_is_nearest_centroid(self):
        t = np.array([[0, 0], [10, 0], [5, 1]])
        out = farthest_point_sample(t, budget=1)
        np.testing.assert_array_equal(out, [[5, 1]])

    def test_collinear_selects_endpoints(self):
        pts = np.column_stack([np.arange(0, 33, 2), np.zeros(17, dtype=int)])
        out = farthest_point_sample(pts, budget=4)
        sel = {tuple(p) for p in out}
        assert (0, 0) in sel
        assert (32, 0) in sel

    def test_budget_respected_and_subset(self):
        rng = np.random.default_rng(0)
        pts = rng.integers(0, 40, size=(60, 2))
        out = farthest_point_sample(pts, budget=7)
        assert out.shape[0] <= 7
        as_set = {tuple(p) for p in pts}
        assert all(tuple(p) in as_set for p in out)

    def test_stop_distance(self):
        pts = np.array([[0, 0], [1, 0], [0, 1], [30, 0]])
        out = farthest_point_sample(pts, budget=4, stop_dist=5.0)
        # after seed and the far point, remaining max-min distance < 5
        assert out.shape[0] == 2

    def test_determinism(self):
        rng = np.random.default_rng(1)
        pts = rng.integers(0, 100, size=(120, 2))
        a = farthest_point_sample(pts, budget=10, stop_dist=3.0)
        b = farthest_point_sample(pts, budget=10, stop_dist=3.0)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        pts = rng.integers(0, 50, size=(n, 2))
        budget = int(rng.integers(1, 12))
        stop = float(rng.choice([0.0, 2.0, 5.0]))
        got = farthest_point_sample_indices(pts, budget, stop)
        assert got == fps_oracle(pts, budget, stop)

    @pytest.mark.parametrize("seed", range(6))
    def test_two_approximation_of_k_center(self, seed):
        rng = np.random.default_rng(50 + seed)
        n = int(rng.integers(12, 30))
        k = int(rng.integers(2, 5))
        pts = rng.integers(0, 60, size=(n, 2)).astype(float)
        idx = farthest_point_sample_indices(pts, budget=k)
        if len(idx) < k:
            return

        dist = [[math.dist(p, q) for q in pts] for p in pts]

        def covering_radius(centers):
            return max(min(row[c] for c in centers) for row in dist)

        fps_radius = covering_radius(idx)
        optimal = min(covering_radius(sub) for sub in itertools.combinations(range(n), k))
        assert fps_radius <= 2.0 * optimal + 1e-9

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            farthest_point_sample(np.empty((0, 2)), budget=3)

    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, column, value):
        pts = np.array([[0.0, 0.0], [3.0, 1.0], [5.0, 5.0]])
        pts[1, column] = value
        with pytest.raises(ValueError, match="non-finite"):
            farthest_point_sample_indices(pts, budget=5)

    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                    min_size=1, max_size=50),
           st.integers(min_value=1, max_value=12),
           st.floats(min_value=0.0, max_value=6.0))
    def test_selection_invariants(self, raw_points, budget, stop_dist):
        pts = np.array(raw_points)
        idx = farthest_point_sample_indices(pts, budget, stop_dist)
        assert 1 <= len(idx) <= budget
        assert len(set(idx)) == len(idx)
        assert all(0 <= i < len(pts) for i in idx)
        assert idx == farthest_point_sample_indices(pts, budget, stop_dist)


def fps_point_sets():
    """Named point sets on which the windowed sampler must reproduce the
    full scan: 600 x 8 px bands in three orientations, float clouds from
    0.1 to 100 px across, duplicates, and exact distance ties."""
    rng = np.random.default_rng(7)
    gx, gy = np.meshgrid(np.arange(600), np.arange(8))
    band = np.column_stack([gx.ravel(), gy.ravel()])
    diag = np.column_stack([band[:, 0] + band[:, 1], band[:, 0] - band[:, 1] + 1000])
    sets = {"horizontal": band, "vertical": band[:, ::-1].copy(), "diagonal": diag}
    for scale in (0.1, 1.0, 10.0, 100.0):
        sets[f"cloud{scale}"] = rng.uniform(0, scale, size=(400, 2))
        sets[f"offset_cloud{scale}"] = 1e4 + rng.normal(0, scale, size=(300, 2))
    base = rng.integers(0, 30, size=(40, 2)).astype(float)
    sets["duplicates"] = np.vstack([base, base, base[:10]])
    ring = np.array([[math.cos(a), math.sin(a)] for a in np.arange(12) * math.pi / 6])
    sets["ring_ties"] = np.vstack([[0.0, 0.0], 20.0 * np.round(ring, 12)])
    sets["lattice_ties"] = np.column_stack([np.arange(30) % 6, np.arange(30) // 6]) * 3.0
    # Integer pixel sets, as components come, where many candidates share a
    # min-distance: squares and diamonds centred on a pixel, crosses, a
    # 2 x 2 block (four-way tie for the seed), and a lattice with spacing 3.
    gy, gx = np.mgrid[0:9, 0:9]
    sets["int_square"] = np.column_stack([gx.ravel(), gy.ravel()])
    diamond = np.abs(gx - 4) + np.abs(gy - 4) <= 4
    sets["int_diamond"] = np.column_stack([gx[diamond], gy[diamond]])
    cross = (gx == 4) | (gy == 4)
    sets["int_cross"] = np.column_stack([gx[cross], gy[cross]])
    sets["int_block2"] = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])
    sets["int_pair"] = np.array([[5, 5], [6, 6]])
    sets["int_lattice3"] = np.column_stack([gx.ravel(), gy.ravel()]) * 3
    ring = np.array([(x, y) for x in range(-5, 6) for y in range(-5, 6) if x * x + y * y == 25])
    sets["int_circle25"] = np.vstack([[0, 0], ring])
    return sets


class TestWindowedFps:
    """The windowed sampler picks the full scan's indices, in order."""

    @pytest.mark.parametrize("stop", [0.0, 1.5, 4.5])
    @pytest.mark.parametrize("name", sorted(fps_point_sets()))
    def test_matches_full_scan(self, name, stop):
        pts = fps_point_sets()[name]
        budget = 300 if stop == 0.0 else FPS_CAP
        got = farthest_point_sample_indices(pts, budget, stop)
        assert got == fps_full_scan_oracle(pts, budget, stop)

    def test_point_just_inside_the_window_is_updated(self):
        # Five copies of O pull the seed onto it; A is then farthest. P lies
        # 10 - 1e-6 from A along x, the sort axis, so just inside the window
        # of reach sqrt(100), and nearer to A than to O. Its min-distance
        # must drop below Q's, or P is picked third instead of Q.
        o = [5.0, 5.0 * math.sqrt(3.0)]
        q = [5.0 - math.sqrt(100.0 - 1.5e-5), o[1]]
        pts = np.array([o] * 5 + [[0.0, 0.0], [10.0 - 1e-6, 0.0], q])
        assert farthest_point_sample_indices(pts, 3) == [0, 5, 7]
        assert fps_full_scan_oracle(pts, 3) == [0, 5, 7]

    @pytest.mark.parametrize("seed", range(20))
    def test_random_sets_match_full_scan(self, seed):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(1, 400))
        spread = rng.uniform(0.1, 100, size=2)
        pts = rng.uniform(-1, 1, size=(n, 2)) * spread + rng.uniform(-1e3, 1e3, size=2)
        if seed % 2:
            pts = np.round(pts)
        stop = float(rng.choice([0.0, 1.5, 4.5]))
        budget = int(rng.integers(1, 200))
        assert farthest_point_sample_indices(pts, budget, stop) == fps_full_scan_oracle(
            pts, budget, stop)


class TestBuildComponents:
    def make_maps(self, n=16, x=7.0, y=9.0, h=6.0, theta=0.0):
        shape = (n, n)
        return GeometryMaps(text=np.zeros(shape), center=np.zeros(shape),
                            x=np.full(shape, x), y=np.full(shape, y),
                            h=np.full(shape, h), w=np.full(shape, 4.0),
                            theta=np.full(shape, theta))

    def test_constant_channels_axis_aligned(self):
        maps = self.make_maps()
        cfg = ShapingConfig()
        rows = build_components(np.array([[3, 4], [8, 8]]), maps, cfg)
        assert rows.shape == (2, 5) and rows.dtype == np.float64
        for r in rows:
            assert tuple(r) == (7.0, 9.0, 6.0, cfg.rect_width, 0.0)

    def test_rotated_channels_rotate_corners(self):
        theta = math.pi / 4
        maps = self.make_maps(theta=theta)
        rows = build_components(np.array([[5, 5]]), maps, ShapingConfig())
        expected = rects_corners_oracle([(7.0, 9.0, 6.0, 4.0, theta)])[0]
        np.testing.assert_allclose(rects_corners(rows)[0], expected, atol=1e-12)

    @pytest.mark.parametrize("h, theta, want_h, want_theta", [
        (-2.0, 3 * math.pi / 4, MIN_RECT_HEIGHT, -math.pi / 4),
        (0.0, -math.pi / 2, MIN_RECT_HEIGHT, math.pi / 2),
        (MIN_RECT_HEIGHT, 7.0, MIN_RECT_HEIGHT, 7.0 - 2 * math.pi)])
    def test_height_floor_and_angle_wrap(self, h, theta, want_h, want_theta):
        rows = build_components(np.array([[1, 2]]), self.make_maps(h=h, theta=theta),
                                ShapingConfig())
        assert rows[0, 2] == want_h
        assert rows[0, 4] == pytest.approx(want_theta, abs=1e-12)
        assert -math.pi / 2 < rows[0, 4] <= math.pi / 2

    def test_empty_centers(self):
        rows = build_components(np.empty((0, 2)), self.make_maps(), ShapingConfig())
        assert rows.shape == (0, 5)

    def test_out_of_frame_center_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            build_components(np.array([[99, 2]]), self.make_maps(), ShapingConfig())

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("channel", ["x", "y", "h", "theta"])
    def test_non_finite_value_rejected(self, channel, value):
        # one finiteness check on all rows at once
        maps = self.make_maps()
        poisoned = getattr(maps, channel).copy()
        poisoned[8, 3] = value
        maps = dataclasses.replace(maps, **{channel: poisoned})
        with pytest.raises(ValueError, match=rf"center \(3, 8\): {channel} must be finite"):
            build_components(np.array([[1, 1], [3, 8], [5, 5]]), maps, ShapingConfig())

    @pytest.mark.parametrize("seed", range(6))
    def test_rows_and_corners_match_rect_oracle(self, seed):
        # random regressions: heights around the floor, angles over several
        # periods and on the pi/2 boundaries
        rng = np.random.default_rng(400 + seed)
        shape = (20, 30)
        theta = rng.uniform(-10, 10, size=shape)
        theta.flat[::7] = rng.choice([math.pi / 2, -math.pi / 2, math.pi, 0.0, -0.0], size=86)
        maps = GeometryMaps(text=np.zeros(shape), center=np.zeros(shape),
                            x=rng.uniform(-5, 35, size=shape), y=rng.uniform(-5, 25, size=shape),
                            h=rng.uniform(-0.01, 20, size=shape), w=np.zeros(shape), theta=theta)
        centers = np.column_stack([rng.integers(0, 30, 200), rng.integers(0, 20, 200)])
        cfg = ShapingConfig(rect_width=float(rng.uniform(1, 8)))
        rows = build_components(centers, maps, cfg)
        rects = build_components_rect_oracle(centers, maps, cfg.rect_width)
        np.testing.assert_array_equal(rows, rect_rows(rects))
        np.testing.assert_array_equal(rects_corners(rows), rects_corners_oracle(rects))


class TestMorphology:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [3, 5])
    def test_dilate_erode_match_oracle(self, seed, k):
        rng = np.random.default_rng(seed)
        m = rng.uniform(size=(16, 16)) > 0.7
        np.testing.assert_array_equal(window_pass_2d(m, k, np.logical_or), dilate_oracle(m, k))
        np.testing.assert_array_equal(window_pass_2d(m, k, np.logical_and), erode_oracle(m, k))

    @staticmethod
    def border_masks(rng):
        """Random masks with set pixels on all four borders, each also as a
        transposed and a sliced (non-contiguous) view."""
        for shape in [(1, 17), (17, 1), (1, 1), (13, 19), (2, 3)]:
            m = rng.uniform(size=shape) < rng.uniform(0.2, 0.9)
            for edge in (m[0], m[-1], m[:, 0], m[:, -1]):
                edge |= rng.uniform(size=edge.size) < 0.5
            big = np.zeros((2 * shape[0] + 1, shape[1] + 3), dtype=bool)
            big[1::2, 2:-1] = m
            yield from (m, m.T, big[1::2, 2:-1])

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_separable_matches_2d_window(self, seed, k):
        for m in self.border_masks(np.random.default_rng(seed)):
            np.testing.assert_array_equal(window_pass_2d(m, k, np.logical_or),
                                          square_window_oracle(m, k))
            np.testing.assert_array_equal(window_pass_2d(m, k, np.logical_and),
                                          square_window_oracle(m, k, all_=True))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_closing_matches_2d_window(self, seed, k):
        # The closing of the frame padded by the kernel radius, cropped back.
        r = k // 2
        for m in self.border_masks(np.random.default_rng(100 + seed)):
            padded = np.pad(m, r)
            want = square_window_oracle(square_window_oracle(padded, k), k, all_=True)
            got = close_binary(m, k)
            assert got.flags.c_contiguous
            np.testing.assert_array_equal(got, want[r:r + m.shape[0], r:r + m.shape[1]])

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0)])
    @pytest.mark.parametrize("k", [1, 5])
    def test_empty_mask_keeps_shape(self, shape, k):
        m = np.zeros(shape, dtype=bool)
        assert close_binary(m, k).shape == shape
        for reduce in (np.logical_or, np.logical_and):
            assert window_pass_2d(m, k, reduce).shape == shape

    def test_closing_solid_rectangle_unchanged(self):
        m = np.zeros((16, 16), dtype=bool)
        m[4:11, 3:13] = True
        np.testing.assert_array_equal(close_binary(m, 5), m)

    def test_closing_bridges_one_pixel_gap(self):
        m = np.zeros((16, 16), dtype=bool)
        m[4:8, 2:7] = True
        m[4:8, 8:13] = True  # 1-px vertical gap at column 7
        closed = close_binary(m, 3)
        comps = connected_components(closed)
        assert len(comps) == 1
        oracle = erode_oracle(dilate_oracle(np.pad(m, 1), 3), 3)[1:-1, 1:-1]
        np.testing.assert_array_equal(closed, oracle)

    def test_closing_near_border_is_safe(self):
        m = np.zeros((8, 8), dtype=bool)
        m[0:3, 0:8] = True
        np.testing.assert_array_equal(close_binary(m, 5), m)


class TestAccumulateAndClose:
    def test_empty_rect_list(self):
        cfg = ShapingConfig()
        assert not accumulate_and_close(np.empty((0, 5)), (10, 10), cfg).any()

    def test_union_then_close_connects(self):
        cfg = ShapingConfig(close_kernel=5, min_area=1.0)
        rows = np.array([[6 + 5 * i, 8, 8, 4, 0.0] for i in range(4)], dtype=float)
        mask = accumulate_and_close(rows, (16, 32), cfg)
        assert len(connected_components(mask)) == 1

    def test_single_solid_rect_closing_idempotent(self):
        cfg = ShapingConfig(close_kernel=5)
        rows = np.array([[8.0, 8.0, 6.0, 10.0, 0.0]])
        raw = rasterize(rects_corners(rows)[0], 16, 16)
        np.testing.assert_array_equal(accumulate_and_close(rows, (16, 16), cfg), raw)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_union_of_rasterized_rects(self, seed):
        rng = np.random.default_rng(seed)
        rects = [(float(rng.uniform(-6, 46)), float(rng.uniform(-6, 30)),
                  float(rng.uniform(0.5, 14)), float(rng.uniform(0.5, 6)),
                  float(rng.uniform(-1.5, 1.5))) for _ in range(30)]
        union = np.zeros((24, 40), dtype=bool)
        for c in rects_corners_oracle(rects):
            union |= rasterize(c, 24, 40)
        cfg = ShapingConfig(close_kernel=3)
        np.testing.assert_array_equal(accumulate_and_close(rect_rows(rects), (24, 40), cfg),
                                      close_binary(union, 3))


class TestTraceContours:
    def test_solid_rectangle_four_vertices(self):
        m = np.zeros((12, 16), dtype=bool)
        m[3:9, 2:13] = True
        polys = trace_contours(m, min_area=4.0)
        assert len(polys) == 1
        v = polys[0].vertices
        assert v.shape == (4, 2)
        assert {tuple(p) for p in v} == {(2.0, 3.0), (13.0, 3.0), (13.0, 9.0), (2.0, 9.0)}

    def test_below_min_area_dropped(self):
        m = np.zeros((10, 10), dtype=bool)
        m[2:4, 2:4] = True  # 4 px
        assert trace_contours(m, min_area=5.0) == []
        assert len(trace_contours(m, min_area=4.0)) == 1

    def test_l_shape_reraster_iou(self):
        m = np.zeros((40, 40), dtype=bool)
        m[5:35, 5:15] = True
        m[25:35, 5:35] = True
        polys = trace_contours(m, min_area=10.0)
        assert len(polys) == 1
        re = rasterize(polys[0], 40, 40)
        iou = np.count_nonzero(re & m) / np.count_nonzero(re | m)
        assert iou >= 0.98

    def test_boundary_covers_pixel_area(self):
        m = np.zeros((6, 6), dtype=bool)
        m[2, 3] = True
        m[4:, :] = True
        verts, band = trace_boundary(m, [(3, 2), (0, 4)])
        assert {tuple(p) for p in verts} == {(3.0, 2.0), (4.0, 2.0), (4.0, 3.0), (3.0, 3.0)}
        assert signed_area_oracle(verts) == pytest.approx(1.0)
        np.testing.assert_array_equal(band, [[0.0, 4.0], [6.0, 4.0], [6.0, 6.0], [0.0, 6.0]])
        assert signed_area_oracle(band) == pytest.approx(12.0)

    def test_reraster_matches_mask_exactly_for_rectilinear(self):
        rng = np.random.default_rng(3)
        m = np.zeros((20, 20), dtype=bool)
        m[4:15, 6:17] = True
        m[10:15, 2:9] = True
        polys = trace_contours(m, min_area=1.0, eps=0.0)
        combined = np.zeros_like(m)
        for p in polys:
            combined |= rasterize(p, 20, 20)
        np.testing.assert_array_equal(combined, m)

    @pytest.mark.parametrize("seed", range(10))
    def test_outer_boundary_reproduces_hole_filled_mask(self, seed):
        # the traced polygon is the outer boundary, so re-rasterizing it
        # must reproduce the mask with interior holes filled; random noise
        # masks exercise single pixels and diagonal chains
        rng = np.random.default_rng(seed)
        if seed % 2:
            m = rng.uniform(size=(24, 24)) < rng.uniform(0.25, 0.7)
        else:
            m = np.zeros((24, 24), dtype=bool)
            for _ in range(5):
                y, x = rng.integers(2, 16, size=2)
                h, w = rng.integers(3, 9, size=2)
                m[y:y + h, x:x + w] = True

        def fill_holes(mask):
            sea = np.zeros_like(mask)
            stack = [(y, x) for y in range(mask.shape[0]) for x in (0, mask.shape[1] - 1)]
            stack += [(y, x) for x in range(mask.shape[1]) for y in (0, mask.shape[0] - 1)]
            stack = [p for p in stack if not mask[p]]
            for p in stack:
                sea[p] = True
            while stack:
                y, x = stack.pop()
                for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ny, nx = y + dy, x + dx
                    if (0 <= ny < mask.shape[0] and 0 <= nx < mask.shape[1]
                            and not mask[ny, nx] and not sea[ny, nx]):
                        sea[ny, nx] = True
                        stack.append((ny, nx))
            return ~sea

        polys = trace_contours(m, min_area=1.0, eps=0.0)
        combined = np.zeros_like(m)
        for p in polys:
            combined |= rasterize(p, 24, 24)
        np.testing.assert_array_equal(combined, fill_holes(m))


    @pytest.mark.parametrize("seed", range(6))
    def test_translation_exact(self, seed):
        # shifting the mask by whole pixels shifts every simplified
        # polygon by exactly that amount
        rng = np.random.default_rng(seed)
        m = rng.uniform(size=(30, 40)) < 0.55
        polys = trace_contours(m, min_area=4.0)
        shifted = trace_contours(np.pad(m, ((7, 0), (13, 0))), min_area=4.0)
        assert len(shifted) == len(polys) > 0
        for p, q in zip(polys, shifted):
            np.testing.assert_array_equal(q.vertices, p.vertices + [13.0, 7.0])

    def test_point_segment_distance_depends_on_differences_only(self):
        # distances are taken from differences to each chord's first end,
        # so shifting the rings shifts every simplified ring exactly
        rng = np.random.default_rng(0)
        rings = [rng.integers(0, 50, size=(n, 2)).astype(float) for n in (5, 9, 40, 200)]
        off = np.array([1013.0, 517.0])
        for eps in (0.0, 1.0, 2.5):
            shifted = douglas_peucker([r + off for r in rings], eps)
            for r, q in zip(douglas_peucker(rings, eps), shifted):
                np.testing.assert_array_equal(q, r + off)


def assert_contours_match_oracle(mask, min_area, eps):
    got = trace_contours(mask, min_area, eps)
    want = trace_contours_oracle(mask, min_area, eps)
    assert len(got) == len(want)
    for p, w in zip(got, want):
        assert p.vertices.dtype == w.dtype
        np.testing.assert_array_equal(p.vertices, w)
    return got


def band_frame(seed, h=640, w=640):
    """Union mask of 4-6 sinusoid bands over a 640x640 frame, with pixel
    dropout and speckle closed as shape_text closes its union mask."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 7))
    m = np.zeros((h, w), dtype=bool)
    for y in np.linspace(0, h, n + 2)[1:-1]:
        band = SynthBand(y_center=float(y), height=float(rng.uniform(14, 24)),
                         x_start=float(rng.uniform(16, 80)), x_end=float(rng.uniform(560, 624)),
                         amplitude=float(rng.uniform(4, 20)), period=float(rng.uniform(90, 220)),
                         phase=float(rng.uniform(0, 2 * math.pi)))
        m |= rasterize(band_polygon(band), h, w)
    m &= rng.uniform(size=m.shape) > 0.05
    m |= rng.uniform(size=m.shape) < 0.002
    return close_binary(m, 5)


def saddle_mask(rng, h, w):
    """Random diagonal chains, crossing and touching only at corners."""
    m = np.zeros((h, w), dtype=bool)
    for _ in range(int(rng.integers(1, 25))):
        y, x = (int(v) for v in rng.integers(0, (h, w)))
        step = 1 if rng.uniform() < 0.5 else -1
        for k in range(int(rng.integers(1, 30))):
            if 0 <= y + k < h and 0 <= x + step * k < w:
                m[y + k, x + step * k] = True
    return m


class TestBatchContours:
    """The whole-frame tracing and simplification equal the per-component
    walk and stack-based Douglas-Peucker of tests/helpers.py bit for bit."""

    @pytest.mark.parametrize("seed", range(2))
    def test_synthetic_640_multi_band_frames(self, seed):
        m = band_frame(seed)
        polys = assert_contours_match_oracle(m, 150.0, 1.0)
        assert 4 <= len(polys) <= 6
        assert_contours_match_oracle(m, 0.0, 0.0)

    @pytest.mark.parametrize("gamma", [0.3, 0.15])
    def test_dark_suite_frames(self, gamma, monkeypatch):
        masks = []

        def spy(mask, min_area, eps=1.0):
            masks.append(mask)
            return trace_contours(mask, min_area, eps)

        monkeypatch.setattr(shaping, "trace_contours", spy)
        cfg = ShapingConfig()
        for i, spec in enumerate(lowlight_suite(4, noise_sigma=0.1, gamma=gamma)):
            maps, _ = synth_maps(spec, seed=100 + i)
            polys = shape_text(maps, cfg)
            want = assert_contours_match_oracle(masks[-1], cfg.min_area, 1.0)
            assert [p.vertices.tolist() for p in polys] == [p.vertices.tolist() for p in want]
            assert_contours_match_oracle(masks[-1], 0.0, 0.0)
        assert len(masks) == 4

    @pytest.mark.parametrize("seed", range(8))
    def test_saddle_rich_masks(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(6):
            h, w = (int(v) for v in rng.integers(1, 48, size=2))
            m = saddle_mask(rng, h, w)
            if seed % 2:
                m |= rng.uniform(size=(h, w)) < 0.3
            for min_area, eps in ((0.0, 0.0), (1.0, 1.0), (4.0, 2.5)):
                assert_contours_match_oracle(m, min_area, eps)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (8, 8), (9, 14)])
    def test_checkerboards(self, shape):
        board = (np.add.outer(np.arange(shape[0]), np.arange(shape[1])) % 2).astype(bool)
        for m in (board, ~board):
            for min_area, eps in ((0.0, 0.0), (1.0, 1.0)):
                assert_contours_match_oracle(m, min_area, eps)
        holed = board.copy()
        holed[1::3, ::4] = False
        assert_contours_match_oracle(holed, 0.0, 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_components_touching_frame_edge(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.uniform(size=(20, 30)) < 0.5
        m[:, 0] = m[:, -1] = True
        m[8:12] = False
        m[0, 10:14] = m[-1, 3:9] = False
        for min_area, eps in ((0.0, 0.0), (1.0, 1.0), (5.0, 2.0)):
            assert_contours_match_oracle(m, min_area, eps)
        assert_contours_match_oracle(np.ones((5, 9), dtype=bool), 0.0, 0.0)

    def test_min_area_is_inclusive_and_eps_zero_keeps_every_turn(self):
        m = np.zeros((10, 12), dtype=bool)
        m[1:3, 1:3] = True  # 4 px
        m[5:9, 4:11] = True
        m[6:8, 10] = False  # a notch: 8 turns
        got = assert_contours_match_oracle(m, 4.0, 0.0)
        assert [p.vertices.shape[0] for p in got] == [4, 8]
        assert len(assert_contours_match_oracle(m, 4.5, 0.0)) == 1
        assert trace_contours(np.zeros((6, 6), dtype=bool), 0.0, 0.0) == []

    @pytest.mark.parametrize("seed", range(6))
    def test_douglas_peucker_matches_oracle(self, seed):
        # integer rings with repeated vertices, closed chords and short rings
        rng = np.random.default_rng(seed)
        rings = [rng.integers(0, 6 + 10 * seed, size=(int(n), 2)).astype(float)
                 for n in rng.integers(1, 60, size=20)]
        rings.append(np.tile([[3.0, 4.0]], (7, 1)))  # all vertices coincide
        rings.append(np.array([[0.0, 0], [4, 0], [4, 3], [0, 0], [0, 3], [2, 5]]))
        for eps in (0.0, 0.5, 1.0, 3.0):
            got = douglas_peucker(rings, eps)
            assert len(got) == len(rings)
            for ring, g in zip(rings, got):
                np.testing.assert_array_equal(g, douglas_peucker_oracle(ring, eps))
        assert douglas_peucker([], 1.0) == []

    def test_trace_boundary_equals_each_component_alone(self):
        rng = np.random.default_rng(5)
        m = rng.uniform(size=(30, 40)) < 0.45
        comps = connected_components(m)
        rings = trace_boundary(m, [c[0] for c in comps])
        assert len(rings) == len(comps)
        for ring, pts in zip(rings, comps):
            alone = np.zeros_like(m)
            alone[pts[:, 1], pts[:, 0]] = True
            np.testing.assert_array_equal(ring, trace_boundary_oracle(alone))

    @pytest.mark.parametrize("starts", [[(3, 3)], [(4, 2)], [(-1, 2)], [(6, 1)], [(2, 9)]])
    def test_trace_boundary_rejects_a_start_off_the_boundary(self, starts):
        m = np.zeros((6, 6), dtype=bool)
        m[2:4, 2:4] = True
        m[5, 0] = True
        with pytest.raises(ValueError, match="not a filled pixel below an empty one"):
            trace_boundary(m, starts)

    @pytest.mark.parametrize("starts", [[(2, 2), (3, 2)], [(2, 2), (2, 2)]])
    def test_trace_boundary_rejects_two_starts_on_one_ring(self, starts):
        m = np.zeros((6, 6), dtype=bool)
        m[2:4, 2:4] = True
        with pytest.raises(ValueError, match="two starts lie on one ring"):
            trace_boundary(m, starts)
        assert trace_boundary(m, np.empty((0, 2))) == []


class TestShapeText:
    def band_maps(self, two=False, seed=0):
        bands = [SynthBand(y_center=24.0, height=12.0, x_start=8.0, x_end=120.0,
                           amplitude=6.0, period=70.0)]
        if two:
            bands.append(SynthBand(y_center=56.0, height=12.0, x_start=8.0, x_end=120.0))
        spec = SynthSpec(frame_h=80 if two else 48, frame_w=128, bands=tuple(bands))
        return synth_maps(spec, seed=seed)

    def test_single_band_recovered(self):
        maps, gt = self.band_maps()
        polys = shape_text(maps)
        assert len(polys) == 1
        assert polygon_iou(polys[0], gt[0]) >= 0.90

    def test_padded_maps_shift_polygons_exactly(self):
        maps, _ = self.band_maps(two=True)
        dy, dx = 7, 13

        def pad(a):
            return np.pad(a, ((dy, 5), (dx, 3)))

        padded = GeometryMaps(text=pad(maps.text), center=pad(maps.center),
                              x=pad(maps.x + dx), y=pad(maps.y + dy), h=pad(maps.h),
                              w=pad(maps.w), theta=pad(maps.theta))
        polys, shifted = shape_text(maps), shape_text(padded)
        assert len(shifted) == len(polys) == 2
        for p, q in zip(polys, shifted):
            np.testing.assert_array_equal(q.vertices, p.vertices + [dx, dy])

    def test_all_zero_maps_empty(self):
        z = np.zeros((32, 32))
        maps = GeometryMaps(text=z, center=z, x=z, y=z, h=z, w=z, theta=z)
        assert shape_text(maps) == []

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0)])
    def test_zero_size_maps_empty(self, shape):
        z = np.zeros(shape)
        maps = GeometryMaps(text=z, center=z, x=z, y=z, h=z, w=z, theta=z)
        assert shape_text(maps) == []

    def test_two_bands_two_polygons(self):
        maps, gt = self.band_maps(two=True)
        polys = shape_text(maps)
        assert len(polys) == 2
        for g in gt:
            assert max(polygon_iou(p, g) for p in polys) >= 0.90

    def test_polygons_respect_text_components(self):
        maps, _ = self.band_maps(two=True)
        polys = shape_text(maps)
        text_comps = connected_components(maps.text >= 0.5)
        labels = np.full(maps.shape, -1)
        for i, comp in enumerate(text_comps):
            labels[comp[:, 1], comp[:, 0]] = i
        for p in polys:
            mask = rasterize(p, *maps.shape)
            touched = {int(l) for l in np.unique(labels[mask]) if l >= 0}
            assert len(touched) == 1

    def test_no_overlap_computations_on_sampling_path(self):
        maps, _ = self.band_maps(two=True)
        OVERLAP_COUNTER.reset()
        shape_text(maps)
        assert OVERLAP_COUNTER.count == 0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("channel", ["x", "y", "h", "theta"])
    def test_non_finite_sample_costs_only_that_sample(self, channel, value):
        maps, gt = self.band_maps(two=True)
        band0 = extract_centers(maps.center, ShapingConfig().center_thresh)[0].candidates
        sx, sy = farthest_point_sample(band0, 1)[0]
        poisoned = getattr(maps, channel).copy()
        poisoned[sy, sx] = value
        polys = shape_text(dataclasses.replace(maps, **{channel: poisoned}))
        assert max(polygon_iou(p, gt[1]) for p in polys) >= 0.90

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("channel", ["x", "h"])
    def test_non_finite_strip_keeps_band_whole(self, channel, seed):
        # a 3-column strip through the pixel sampling starts from: the
        # samples around it must still cover the band's usable candidates
        rng = np.random.default_rng(seed)
        spec = SynthSpec(frame_h=128, frame_w=224, noise_sigma=0.05, bands=(
            SynthBand(y_center=40.0, height=float(rng.uniform(12, 17)), x_start=14.0,
                      x_end=210.0, amplitude=float(rng.uniform(4, 12)),
                      period=float(rng.uniform(70, 130)), phase=float(rng.uniform(0, 6.28))),
            SynthBand(y_center=92.0, height=float(rng.uniform(12, 17)), x_start=14.0,
                      x_end=210.0)))
        maps, gt = synth_maps(spec, seed=seed)
        band0 = extract_centers(maps.center, ShapingConfig().center_thresh)[0].candidates
        seed_x = farthest_point_sample(band0, 1)[0][0]
        strip = band0[np.abs(band0[:, 0] - seed_x) <= 1]
        poisoned = getattr(maps, channel).copy()
        poisoned[strip[:, 1], strip[:, 0]] = np.inf
        polys = shape_text(dataclasses.replace(maps, **{channel: poisoned}))
        ious = [polygon_iou(p, gt[0]) for p in polys]
        assert sum(iou > 0 for iou in ious) == 1
        assert max(ious) >= 0.90

    def test_all_center_map_sampling_stays_under_cap(self, monkeypatch):
        n = 320
        yy, xx = np.mgrid[0:n, 0:n].astype(float)
        maps = GeometryMaps(text=np.ones((n, n)), center=np.ones((n, n)), x=xx, y=yy,
                            h=np.full((n, n), 8.0), w=np.full((n, n), 4.0),
                            theta=np.zeros((n, n)))
        sizes = []

        def recording(points, *args, **kwargs):
            out = farthest_point_sample(points, *args, **kwargs)
            sizes.append(len(out))
            return out

        monkeypatch.setattr(shaping, "farthest_point_sample", recording)
        shape_text(maps)
        assert sizes and max(sizes) <= FPS_CAP


def curved_frame(rng, n_bands, h=640, w=640):
    """A multi-band frame as the curved-640 benchmark makes it: one
    sinusoid band per horizontal strip, each strip synthesised alone and
    the strips stacked, with y shifted into the frame."""
    edges = np.linspace(0, h, n_bands + 1).round().astype(int)
    parts = []
    for y0, y1 in zip(edges[:-1], edges[1:]):
        sh = int(y1 - y0)
        height = float(rng.uniform(14.0, 24.0))
        band = SynthBand(y_center=sh / 2, height=height, x_start=float(rng.uniform(16, 80)),
                         x_end=float(rng.uniform(w - 80, w - 16)),
                         amplitude=float(rng.uniform(4.0, min(20.0, sh / 2 - height / 2 - 6))),
                         period=float(rng.uniform(90, 220)), phase=float(rng.uniform(0, 6.28)))
        stack = synth_maps(SynthSpec(sh, w, (band,)), 0)[0].stack()
        stack[3] += y0
        parts.append(stack)
    return GeometryMaps.from_stack(np.concatenate(parts, axis=1))


def assert_matches_scalar_path(maps, cfg=ShapingConfig()):
    """Sampling, rectangle rows, corners and polygons of shape_text equal,
    bit for bit, those of the path the arrays replaced: a full-scan sampler,
    one (cx, cy, h, w, theta) tuple per sample and one tuple of corner terms
    per rect.
    Returns the sample count of each component."""
    usable = np.all([np.isfinite(m) for m in (maps.x, maps.y, maps.h, maps.theta)], axis=0)
    samples, rects = [], []
    for comp in extract_centers(maps.center, cfg.center_thresh):
        cands = comp.candidates[usable[comp.candidates[:, 1], comp.candidates[:, 0]]]
        if cands.shape[0] == 0:
            continue
        idx = farthest_point_sample_indices(cands, FPS_CAP, cfg.coverage_radius)
        assert idx == fps_full_scan_oracle(cands, FPS_CAP, cfg.coverage_radius)
        samples.append(cands[idx])
        rects += build_components_rect_oracle(cands[idx], maps, cfg.rect_width)
    got = shape_text(maps, cfg)
    if not samples:
        assert got == []
        return []
    rows = build_components(np.concatenate(samples), maps, cfg)
    np.testing.assert_array_equal(rows, rect_rows(rects))
    corners = rects_corners_oracle(rects)
    np.testing.assert_array_equal(rects_corners(rows), corners)
    mask = close_binary(rasterize_union(corners, *maps.shape), cfg.close_kernel)
    want = trace_contours(mask, cfg.min_area)
    assert len(got) == len(want)
    for p, q in zip(got, want):
        np.testing.assert_array_equal(p.vertices, q.vertices)
    return [len(s) for s in samples]


class TestArrayShapingMatchesScalarPath:
    @pytest.mark.parametrize("seed, n_bands", [(0, 4), (1, 6)])
    def test_curved_multi_band_frames(self, seed, n_bands):
        counts = assert_matches_scalar_path(curved_frame(np.random.default_rng(seed), n_bands))
        assert len(counts) >= n_bands and max(counts) > 50

    @pytest.mark.parametrize("gamma", [0.3, 0.15])
    def test_dark_frames(self, gamma):
        for i, spec in enumerate(lowlight_suite(3, noise_sigma=0.1, gamma=gamma)):
            counts = assert_matches_scalar_path(synth_maps(spec, seed=100 + i)[0])
            # hundreds of components, most of them sampled by their seed alone
            assert len(counts) > 300 and counts.count(1) > len(counts) // 2

    def test_seed_only_components(self):
        # 1- and 2-pixel components and blobs within the coverage radius of
        # their seed end after the seed; a few longer runs do not
        rng = np.random.default_rng(3)
        shape = (64, 60)
        center = np.zeros(shape)
        center[2, 2] = center[2, 6] = 1.0  # single pixels
        center[6, 2:4] = 1.0  # horizontal pair
        center[6, 7] = center[7, 8] = 1.0  # diagonal pair
        center[10:13, 2:5] = 1.0  # 3 x 3 block, corners 1.41 px from its seed
        center[16, 2:7] = 1.0  # 5 px run: ends 2 px from the seed
        center[20:25, 2:7] = np.eye(5)  # 5 px diagonal: ends 2.83 px away
        center[30, 2:11] = 1.0  # 9 px run: ends exactly at the radius, 4 px
        center[34, 2:12] = 1.0  # 10 px run: one end beyond it
        center[40:62, 2:58] = rng.uniform(size=(22, 56)) < 0.2  # noise
        yy, xx = np.mgrid[0:shape[0], 0:shape[1]].astype(float)
        maps = GeometryMaps(text=center, center=center, x=xx + rng.normal(0, 0.3, shape),
                            y=yy + rng.normal(0, 0.3, shape), h=rng.uniform(-1, 9, shape),
                            w=np.zeros(shape), theta=rng.uniform(-4, 4, shape))
        cfg = ShapingConfig(min_area=1.0)
        counts = assert_matches_scalar_path(maps, cfg)
        assert counts[:7] == [1] * 7
        assert counts[7:9] == [3, 3]

    @pytest.mark.parametrize("pts, stop", [([[4, 7]], 0.0), ([[4, 7], [5, 7]], 4.0),
                                           ([[4, 7], [5, 8]], 1.5), ([[4, 7], [4, 7]], 0.0),
                                           ([[0, 0], [4, 0], [0, 4], [4, 4]], 6.0)])
    def test_seed_only_sampling_matches_full_scan(self, pts, stop):
        for budget in (1, 2, FPS_CAP):
            idx = farthest_point_sample_indices(np.array(pts), budget, stop)
            assert idx == fps_full_scan_oracle(np.array(pts), budget, stop)
            assert len(idx) == 1


class TestNmsBaseline:
    def test_single_rect_kept(self):
        r = [5.0, 5.0, 4.0, 3.0, 0.1]
        np.testing.assert_array_equal(nms_baseline([r], [0.7]), [r])

    def test_identical_rects_highest_score_survives(self):
        r = [5.0, 5.0, 4.0, 3.0, 0.1]
        kept = nms_baseline(np.array([r, r]), [0.8, 0.9])
        assert kept.shape == (1, 5)
        np.testing.assert_array_equal(kept, [r])
        rows = np.array([r, [5.0, 5.0, 4.0, 3.0, 0.2]])
        np.testing.assert_array_equal(nms_baseline(rows, [0.8, 0.9]), rows[1:])

    def test_no_rows(self):
        assert nms_baseline(np.empty((0, 5)), []).shape == (0, 5)

    def test_counter_positive(self):
        rng = np.random.default_rng(5)
        rects = [(float(rng.uniform(0, 20)), float(rng.uniform(0, 20)), 4.0, 3.0, 0.0)
                 for _ in range(8)]
        OVERLAP_COUNTER.reset()
        nms_baseline(rect_rows(rects), list(rng.uniform(size=8)))
        assert OVERLAP_COUNTER.count > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_implementation(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        rects = [(float(rng.uniform(2, 18)), float(rng.uniform(2, 18)), float(rng.uniform(2, 8)),
                  float(rng.uniform(2, 8)), float(rng.uniform(-1.5, 1.5))) for _ in range(n)]
        scores = list(rng.uniform(size=n))
        kept = nms_baseline(rect_rows(rects), scores, iou_thresh=0.4)
        expected = rect_rows([rects[i] for i in nms_oracle(rects, scores, 0.4)])
        np.testing.assert_array_equal(kept, expected)

    def test_score_length_mismatch(self):
        with pytest.raises(ValueError, match="scores"):
            nms_baseline([[0.0, 0.0, 1.0, 1.0, 0.0]], [0.5, 0.2])

    @pytest.mark.parametrize("col, value", [(0, math.nan), (1, math.inf), (4, -math.inf),
                                            (2, 0.0), (3, 0.0), (2, -1.0), (3, math.nan)])
    def test_bad_row_rejected(self, col, value):
        rows = np.array([[5.0, 5.0, 4.0, 3.0, 0.1]] * 3)
        rows[1, col] = value
        with pytest.raises(ValueError, match=r"rect 1 must be finite with h, w > 0"):
            nms_baseline(rows, [0.3, 0.2, 0.1])
