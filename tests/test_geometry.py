import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from helpers import (convex_hull, convex_intersection_area_oracle, exact_iou_oracle,
                     is_simple_oracle, normalize_angle_scalar_oracle, rasterize_oracle, rect_rows,
                     rects_corners_oracle, scanline_rows_oracle, scanline_windows_oracle,
                     signed_area_oracle)
from textshaper import geometry, grids
from textshaper.geometry import (TextPolygon, _clip_ccw, is_convex, normalize_angle,
                                 polygon_area, polygon_iou, rasterize, rasterize_union,
                                 rects_corners)


def corners_of(cx, cy, h, w, theta):
    """The (4, 2) corners of one rectangle row."""
    return rects_corners([cx, cy, h, w, theta])[0]


def random_convex(rng, n=6, radius=10.0, center=(0.0, 0.0)):
    """Convex polygon via angle-sorted points on a random radius profile."""
    angles = np.sort(rng.uniform(0, 2 * math.pi, n))
    radii = rng.uniform(0.5 * radius, radius, n)
    pts = np.column_stack([center[0] + radii * np.cos(angles),
                           center[1] + radii * np.sin(angles)])
    hull = convex_hull(pts)
    return hull


class TestRectCorners:
    def test_axis_aligned(self):
        corners = corners_of(0, 0, 2, 4, 0.0)
        expected = {(-2.0, -1.0), (2.0, -1.0), (2.0, 1.0), (-2.0, 1.0)}
        assert {tuple(np.round(c, 12)) for c in corners} == expected

    def test_quarter_turn_swaps_extents(self):
        corners = corners_of(0, 0, 2, 4, math.pi / 2)
        assert corners[:, 0].max() == pytest.approx(1.0)
        assert corners[:, 1].max() == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_pairwise_distances(self, seed):
        rng = np.random.default_rng(seed)
        cx, cy = float(rng.normal()), float(rng.normal())
        h, w = float(rng.uniform(1, 5)), float(rng.uniform(1, 5))
        theta = float(rng.uniform(-math.pi / 2 + 0.01, math.pi / 2))
        corners = corners_of(cx, cy, h, w, theta)
        dists = sorted(float(np.linalg.norm(corners[i] - corners[j]))
                       for i in range(4) for j in range(i + 1, 4))
        diag = math.hypot(w, h)
        expected = sorted([h, h, w, w, diag, diag])
        np.testing.assert_allclose(dists, expected, atol=1e-9)

    def test_counter_clockwise(self):
        from textshaper.geometry import signed_area
        assert signed_area(corners_of(3, 4, 2, 5, 0.7)) > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_match_per_rect_oracle(self, seed):
        # cosine and sine are math.cos and math.sin per row, as for one
        # rectangle at a time, so the corners carry the same bits
        rng = np.random.default_rng(200 + seed)
        k = 500
        theta = rng.uniform(-math.pi / 2, math.pi / 2, k)
        theta[::5] = rng.choice([math.pi / 2, 0.0, -0.0, 1e-300, -math.pi / 2 + 1e-15], size=100)
        rects = list(zip(
            rng.uniform(-1e3, 1e3, k).tolist(), rng.normal(0, 50, k).tolist(),
            rng.uniform(1e-3, 40, k).tolist(), rng.uniform(0.5, 8, k).tolist(), theta.tolist()))
        corners = rects_corners(rect_rows(rects))
        assert corners.shape == (k, 4, 2)
        np.testing.assert_array_equal(corners, rects_corners_oracle(rects))
        for r, c in zip(rects[:20], corners):
            np.testing.assert_array_equal(corners_of(*r), c)

    def test_no_rows(self):
        assert rects_corners(np.empty((0, 5))).shape == (0, 4, 2)


class TestNormalizeAngle:
    @pytest.mark.parametrize("theta,expected", [
        (0.0, 0.0), (math.pi, 0.0), (-math.pi / 2, math.pi / 2),
        (math.pi / 2, math.pi / 2), (3 * math.pi / 4, -math.pi / 4),
    ])
    def test_values(self, theta, expected):
        assert normalize_angle(theta) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_array_matches_scalar_fmod(self, seed):
        # np.fmod is exact like math.fmod: each element gets the scalar's bits
        rng = np.random.default_rng(seed)
        theta = np.concatenate([rng.uniform(-50, 50, 3000), rng.normal(0, 1e6, 500),
                                np.arange(-8, 9) * (math.pi / 2), [0.0, -0.0, 1e-310, -1e-310],
                                np.nextafter(np.arange(-8, 9) * (math.pi / 2), math.inf),
                                np.nextafter(np.arange(-8, 9) * (math.pi / 2), -math.inf)])
        got = normalize_angle(theta)
        want = np.array([normalize_angle_scalar_oracle(t) for t in theta.tolist()])
        np.testing.assert_array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert all(normalize_angle(t) == w and type(normalize_angle(t)) is float
                   for t, w in zip(theta[:50].tolist(), want[:50].tolist()))
        assert normalize_angle(theta.reshape(-1, 1)).shape == (theta.size, 1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="angle must be finite"):
            normalize_angle(value)
        with pytest.raises(ValueError, match="angle must be finite"):
            normalize_angle(np.array([0.0, value]))

    @given(st.floats(min_value=-20, max_value=20))
    def test_range_and_period(self, theta):
        t = normalize_angle(theta)
        assert -math.pi / 2 < t <= math.pi / 2
        assert math.isclose(math.tan(t), math.tan(theta), rel_tol=1e-6, abs_tol=1e-6) or \
            abs(abs(t) - math.pi / 2) < 1e-9


class TestRectValidation:
    def test_polygon_needs_three_vertices(self):
        with pytest.raises(ValueError, match="3 vertices"):
            TextPolygon(np.array([[0.0, 0.0], [1.0, 1.0]]))

    @pytest.mark.parametrize("call", [polygon_area, is_convex, lambda v: polygon_iou(v, v),
                                      lambda v: rasterize(v, 4, 4)],
                             ids=["polygon_area", "is_convex", "polygon_iou", "rasterize"])
    def test_raw_vertices_must_be_finite(self, call):
        # A raw array takes the same check as a TextPolygon, in every routine.
        with pytest.raises(ValueError, match="polygon vertices must be finite"):
            call(np.array([[0.0, 0.0], [np.nan, 0.0], [1.0, 1.0]]))


class TestRasterize:
    def test_axis_aligned_popcount(self):
        mask = rasterize(corners_of(8, 6, 5, 9, 0.0), 16, 16)
        count = int(mask.sum())
        area = 5 * 9
        perim = 2 * (5 + 9)
        assert abs(count - area) <= perim

    def test_fully_outside_is_empty(self):
        assert not rasterize(corners_of(100, 100, 4, 4, 0.3), 16, 16).any()

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_per_pixel_oracle(self, seed):
        rng = np.random.default_rng(seed)
        corners = corners_of(float(rng.uniform(2, 14)), float(rng.uniform(2, 14)),
                               float(rng.uniform(1, 8)), float(rng.uniform(1, 8)),
                               float(rng.uniform(-1.5, 1.5)))
        mask = rasterize(corners, 16, 16)
        np.testing.assert_array_equal(mask, rasterize_oracle(corners, 16, 16))

    @pytest.mark.parametrize("scale", [1, 2, 4, 8])
    def test_area_converges_with_resolution(self, scale):
        corners = corners_of(10, 10, 6, 11, 0.6) * scale
        mask = rasterize(corners, 20 * scale, 20 * scale)
        est = mask.sum() / scale ** 2
        area, perim = 6 * 11, 2 * (6 + 11)
        assert abs(est - area) / area < 2 * perim / area / scale


def random_scan_polygon(rng, i):
    """Axis-aligned rects on half-integer edges (vertices on sample rows and
    columns, zero extents included), rotated rects, star-shaped polygons and
    self-intersecting ones, in turn."""
    kind = i % 4
    if kind == 0:
        x0, y0 = rng.integers(-4, 28, size=2) + 0.5
        w, h = rng.integers(0, 12, size=2) * 0.5
        return np.array([[x0, y0], [x0 + w, y0], [x0 + w, y0 + h], [x0, y0 + h]])
    if kind == 1:
        return corners_of(float(rng.uniform(-4, 36)), float(rng.uniform(-4, 28)),
                            float(rng.uniform(0.1, 15)), float(rng.uniform(0.1, 8)),
                            float(rng.uniform(-1.57, 1.57)))
    n = int(rng.integers(3, 30))
    if kind == 2:
        angles = np.sort(rng.uniform(0, 2 * math.pi, n))
        radii = rng.uniform(2, 14, n)
        return np.column_stack([16 + radii * np.cos(angles), 12 + radii * np.sin(angles)])
    return rng.uniform(-3, 36, size=(n, 2))


def scan(pts, ys, xs):
    """geometry._scanline_inside of one polygon on the whole grid ys x xs."""
    out = np.zeros((ys.size, xs.size), dtype=bool)
    xy = np.asarray(pts, dtype=np.float64).T[:, None, :].copy()
    geometry._scanline_inside(xy, ys, xs, np.array([[0], [0]]), np.array([[xs.size], [ys.size]]),
                              out)
    return out


class TestScanline:
    """The vectorised scanline equals the per-row oracle bit for bit."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_row_oracle(self, seed):
        rng = np.random.default_rng(seed)
        ys = np.arange(-2, 26) + 0.5
        xs = np.arange(-2, 34) + 0.5
        for i in range(60):
            pts = random_scan_polygon(rng, i)
            np.testing.assert_array_equal(scan(pts, ys, xs), scanline_rows_oracle(pts, ys, xs))

    @pytest.mark.parametrize("seed", range(4))
    def test_rasterize_matches_per_row_oracle(self, seed, monkeypatch):
        rng = np.random.default_rng(100 + seed)
        shapes = [random_scan_polygon(rng, i) for i in range(60)]
        fast = [rasterize(p, 24, 32) for p in shapes]
        monkeypatch.setattr(geometry, "_scanline_inside", scanline_windows_oracle)
        for p, got in zip(shapes, fast):
            np.testing.assert_array_equal(got, rasterize(p, 24, 32))

    @pytest.mark.parametrize("teeth", [127, 128, 300])
    def test_many_crossings_between_two_samples(self, teeth):
        # a zigzag whose 2 * teeth edges all cross each row between the
        # samples x = 10.5 and x = 11.5, more than a uint8 count holds
        xs_zig = 10.6 + 0.8 * np.arange(2 * teeth) / (2 * teeth)
        ys_zig = np.where(np.arange(2 * teeth) % 2, 9.0, 1.0)
        pts = np.vstack([np.column_stack([xs_zig, ys_zig]), [[30.0, 9.0], [30.0, 0.0]]])
        ys, xs = np.arange(12) + 0.5, np.arange(34) + 0.5
        np.testing.assert_array_equal(scan(pts, ys, xs), scanline_rows_oracle(pts, ys, xs))

    @pytest.mark.parametrize("seed", range(6))
    def test_union_matches_per_rect_oracle(self, seed):
        # Rects partly or fully off the 24 x 32 frame, flat ones, axis-aligned
        # ones with edges on half-integers (on sample rows and columns), and
        # rects at theta pi/2 and 0, rasterized in one batch.
        rng = np.random.default_rng(300 + seed)
        rects = []
        for i in range(80):
            theta = [math.pi / 2, 0.0, float(rng.uniform(-1.57, 1.57))][i % 3]
            h = 1e-3 if i % 7 == 0 else float(rng.integers(1, 24)) if i % 5 == 0 else float(
                rng.uniform(0.2, 30))
            w = float(rng.integers(1, 9)) if i % 5 == 0 else float(rng.uniform(0.2, 8))
            cx = float(rng.integers(-12, 45)) + (0.5 * (h % 2 == 0) if i % 5 == 0 else
                                                 float(rng.uniform(0, 1)))
            cy = float(rng.integers(-12, 37)) + float(rng.uniform(0, 1))
            rects.append((cx, cy, h, w, theta))
        ys, xs = np.arange(24) + 0.5, np.arange(32) + 0.5
        expected = np.zeros((24, 32), dtype=bool)
        corners = rects_corners(rect_rows(rects))
        for c in corners:
            expected |= scanline_rows_oracle(c, ys, xs)
        np.testing.assert_array_equal(rasterize_union(corners, 24, 32), expected)
        assert expected.any() and not expected.all()

    @pytest.mark.parametrize("seed", range(4))
    def test_union_of_quadrilaterals_matches_per_polygon_oracle(self, seed):
        # Axis-aligned boxes with zero extents, rotated rects and
        # self-intersecting quadrilaterals in one batch.
        rng = np.random.default_rng(400 + seed)
        polys = np.array([random_scan_polygon(rng, i % 2) if i % 3 < 2 else
                          rng.uniform(-3, 36, size=(4, 2)) for i in range(45)])
        ys, xs = np.arange(24) + 0.5, np.arange(32) + 0.5
        expected = np.zeros((24, 32), dtype=bool)
        for p in polys:
            expected |= scanline_rows_oracle(p, ys, xs)
        np.testing.assert_array_equal(rasterize_union(polys, 24, 32), expected)

    def test_union_of_none_is_empty(self):
        assert not rasterize_union(np.empty((0, 4, 2)), 5, 7).any()

    def test_non_finite_vertices_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            rasterize(np.array([[0.0, 0.0], [4.0, np.nan], [4.0, 4.0]]), 8, 8)

    def test_no_crossing_rows_or_columns(self):
        pts = np.array([[2.0, 2.0], [6.0, 2.0], [6.0, 6.0], [2.0, 6.0]])
        assert not scan(pts, np.array([0.5, 7.5]), np.arange(8) + 0.5).any()
        assert scan(pts, np.arange(8) + 0.5, np.empty(0)).shape == (8, 0)


def star(spikes, outer=100.0, inner=60.0, phase=0.0, center=(0.0, 0.0)):
    """Regular star polygon: 2 * spikes vertices at evenly spaced angles,
    radii alternating between outer and inner."""
    ang = np.arange(2 * spikes) * (math.pi / spikes) + phase
    r = np.where(np.arange(2 * spikes) % 2 == 0, outer, inner)
    return np.column_stack([center[0] + r * np.cos(ang), center[1] + r * np.sin(ang)])


def jittered_star(spikes, seed, center=(0.0, 0.0)):
    """Star polygon: 2 * spikes vertices at evenly spaced angles, outer radii
    drawn from [80, 100] and inner ones from [40, 60]."""
    rng = np.random.default_rng(seed)
    ang = np.arange(2 * spikes) * (math.pi / spikes)
    r = np.where(np.arange(2 * spikes) % 2 == 0, rng.uniform(80, 100, 2 * spikes),
                 rng.uniform(40, 60, 2 * spikes))
    return np.column_stack([center[0] + r * np.cos(ang), center[1] + r * np.sin(ang)])


@st.composite
def simple_nonconvex(draw, center):
    """Star-shaped polygon around a centre near `center`: angles evenly
    spaced and jittered by less than half a step, so they stay increasing
    with gaps under pi and the polygon is simple; radii alternate between
    an outer and an inner band."""
    k = draw(st.integers(6, 24))
    jitter = np.array(draw(st.lists(st.floats(-0.45, 0.45), min_size=k, max_size=k)))
    outer = np.array(draw(st.lists(st.floats(8.0, 14.0), min_size=k, max_size=k)))
    inner = np.array(draw(st.lists(st.floats(2.0, 6.0), min_size=k, max_size=k)))
    cx, cy = (c + draw(st.floats(-5.0, 5.0)) for c in center)
    angles = (np.arange(k) + jitter) * (2 * math.pi / k)
    radii = np.where(np.arange(k) % 2 == 0, outer, inner)
    return np.column_stack([cx + radii * np.cos(angles), cy + radii * np.sin(angles)])


class TestPolygonIou:
    def test_identical(self):
        p = np.array([[0, 0], [4, 0], [4, 3], [0, 3]], float)
        assert polygon_iou(p, p.copy()) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint(self):
        a = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
        assert polygon_iou(a, a + 10.0) == 0.0

    def test_half_overlap_unit_squares(self):
        a = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
        b = a + [0.5, 0.0]
        assert polygon_iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_degenerate_zero_area(self):
        line = np.array([[0, 0], [1, 0], [2, 0]], float)
        square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
        assert polygon_iou(line, square) == 0.0
        # a collinear "polygon" across the square's interior covers nothing
        diagonal = np.array([[0, 0], [0.5, 0.5], [1, 1]], float)
        assert polygon_iou(diagonal, square) == 0.0
        assert polygon_iou(diagonal, diagonal) == 0.0

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_vertices_rejected(self, value):
        square = np.array([[0, 0], [4, 0], [4, 4], [0, 4]], float)
        bad = np.array([[1, 1], [value, 2], [3, 3], [1, 3]], float)
        with pytest.raises(ValueError, match="finite"):
            polygon_iou(square, bad)

    def test_bowtie_with_itself(self):
        # shoelace area 0, even-odd area 2: two triangles meeting at (1, 1)
        bowtie = np.array([[0, 0], [2, 2], [2, 0], [0, 2]], float)
        assert polygon_area(bowtie) == 0.0
        assert polygon_iou(bowtie, bowtie) == 1.0
        square = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], float)
        assert polygon_iou(bowtie, square) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_bowtie_against_convex_matches_triangles(self, seed):
        # A quadrilateral whose first and third edges cross covers, by the
        # even-odd rule, the two triangles that meet at the crossing.
        rng = np.random.default_rng(700 + seed)
        p0, p1 = rng.uniform([-10, -10], [-4, -2]), rng.uniform([4, 2], [10, 10])
        p2, p3 = rng.uniform([4, -10], [10, -2]), rng.uniform([-10, 2], [-4, 10])
        bowtie = np.array([p0, p1, p2, p3])
        d1, d2 = p1 - p0, p3 - p2
        t = ((p2[0] - p0[0]) * d2[1] - (p2[1] - p0[1]) * d2[0]) / (d1[0] * d2[1] - d1[1] * d2[0])
        x = p0 + t * d1
        tris = [np.array([p0, x, p3]), np.array([x, p1, p2])]
        clip = random_convex(rng, n=7, radius=8.0, center=tuple(rng.uniform(-4, 4, 2)))
        inter = sum(convex_intersection_area_oracle(convex_hull(tri), clip) for tri in tris)
        union = sum(abs(signed_area_oracle(tri)) for tri in tris) + polygon_area(clip) - inter
        assert polygon_iou(bowtie, clip) == pytest.approx(inter / union, abs=1e-9)
        assert polygon_iou(clip, bowtie[::-1]) == pytest.approx(inter / union, abs=1e-9)

    def test_pentagram_leaves_its_centre_out(self):
        # {5/2}: the even-odd rule leaves the inner pentagon out, so the
        # pentagram and that pentagon share no area
        outer = np.column_stack([np.cos(np.arange(5) * 0.4 * math.pi + math.pi / 2),
                                 np.sin(np.arange(5) * 0.4 * math.pi + math.pi / 2)])
        pentagram = outer[[0, 2, 4, 1, 3]]
        inner_r = math.cos(0.4 * math.pi) / math.cos(0.2 * math.pi)
        centre = -inner_r * outer
        assert polygon_iou(pentagram, centre) == pytest.approx(0.0, abs=1e-12)
        # the five points are the simple ten-vertex outline minus the centre
        ring = np.vstack([outer, centre])
        ring = ring[np.argsort(np.arctan2(ring[:, 1], ring[:, 0]))]
        points = polygon_area(ring) - polygon_area(centre)
        assert polygon_iou(pentagram, outer) == pytest.approx(points / polygon_area(outer),
                                                              abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_self_intersecting_matches_fine_raster(self, seed):
        # random, mostly self-intersecting polygons against the even-odd
        # raster of both at 32 samples per unit
        rng = np.random.default_rng(800 + seed)
        a, b = (rng.uniform(0, 12, size=(int(rng.integers(4, 12)), 2)) for _ in range(2))
        ma, mb = (rasterize(p * 32, 384, 384) for p in (a, b))
        raster = np.count_nonzero(ma & mb) / np.count_nonzero(ma | mb)
        assert polygon_iou(a, b) == pytest.approx(raster, abs=1e-3)

    @pytest.mark.parametrize("seed", range(20))
    def test_convex_pairs_match_exact_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = random_convex(rng, center=(0.0, 0.0))
        b = random_convex(rng, center=(float(rng.uniform(-6, 6)), float(rng.uniform(-6, 6))))
        if len(a) < 3 or len(b) < 3:
            return
        inter = convex_intersection_area_oracle(a, b)
        union = polygon_area(a) + polygon_area(b) - inter
        expected = inter / union if union else 0.0
        assert polygon_iou(a, b) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_nonconvex_pairs_match_exact_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        # a star-like nonconvex polygon and another spiky blob, decent sized
        angles = np.sort(rng.uniform(0, 2 * math.pi, 10))
        radii = np.where(np.arange(10) % 2 == 0, rng.uniform(12, 16, 10), rng.uniform(5, 8, 10))
        a = np.column_stack([20 + radii * np.cos(angles), 20 + radii * np.sin(angles)])
        angles_b = np.sort(rng.uniform(0, 2 * math.pi, 9))
        radii_b = np.where(np.arange(9) % 2 == 0, rng.uniform(11, 15, 9), rng.uniform(6, 9, 9))
        b = np.column_stack([20 + radii_b * np.cos(angles_b) + rng.uniform(-4, 4),
                             20 + radii_b * np.sin(angles_b) + rng.uniform(-4, 4)])
        got = polygon_iou(a, b)
        oracle = exact_iou_oracle(a, b)
        assert abs(got - oracle) < 1e-9

    @pytest.mark.parametrize("seed", range(12))
    def test_one_convex_operand_matches_exact_oracle(self, seed):
        # simple (non-self-intersecting) star subject against a convex clip
        rng = np.random.default_rng(400 + seed)
        k = int(rng.integers(6, 13))
        base = np.linspace(0, 2 * math.pi, k, endpoint=False)
        angles = base + rng.uniform(-0.4, 0.4, k) * (math.pi / k)
        radii = np.where(np.arange(k) % 2 == 0, rng.uniform(10, 15, k), rng.uniform(4, 8, k))
        subject = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        if seed % 2:
            subject = subject[::-1]
        ca = np.sort(rng.uniform(0, 2 * math.pi, 7))
        cr = rng.uniform(6, 12, 7)
        clip = convex_hull(np.column_stack([
            rng.uniform(-6, 6) + cr * np.cos(ca), rng.uniform(-6, 6) + cr * np.sin(ca)]))
        if len(clip) < 3 or is_convex(subject):
            return
        assert polygon_iou(subject, clip) == pytest.approx(
            exact_iou_oracle(subject, clip), abs=1e-9)

    @given(simple_nonconvex((0.0, 0.0)), simple_nonconvex((4.0, 2.0)), st.integers(1, 23),
           st.integers(1, 23))
    def test_order_and_operand_invariance(self, a, b, shift_a, shift_b):
        assume(not is_convex(a) and not is_convex(b))
        base = polygon_iou(a, b)
        assert 0.0 <= base <= 1.0
        for a2, b2 in ((a[::-1], b), (a, b[::-1]), (np.roll(a, shift_a, axis=0), b),
                       (a, np.roll(b, shift_b, axis=0)), (a[::-1], np.roll(b, shift_b, axis=0))):
            assert abs(polygon_iou(a2, b2) - base) < 1e-12
            assert abs(polygon_iou(b2, a2) - base) < 1e-12

    def test_oracle_rejects_self_intersecting_operand(self):
        bowtie = np.array([[0, 0], [2, 2], [2, 0], [0, 2]], float)
        square = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], float)
        assert not is_simple_oracle(bowtie) and is_simple_oracle(square)
        with pytest.raises(ValueError, match="not a simple polygon"):
            exact_iou_oracle(square, bowtie)
        # A fan: angles sorted but all within 118 degrees, so the closing
        # edge cuts across the inner vertices, which the star generators of
        # C09 and test_nonconvex_pairs_match_exact_oracle can in principle
        # draw. polygon_iou still matches the even-odd raster on it.
        ang = np.radians(np.linspace(113, 231, 10))
        r = np.where(np.arange(10) % 2 == 0, 15.0, 5.0)
        fan = np.column_stack([20 + r * np.cos(ang), 20 + r * np.sin(ang)])
        star_b = star(5, outer=13.0, inner=7.0, center=(20.0, 20.0))
        assert not is_simple_oracle(fan) and is_simple_oracle(star_b)
        with pytest.raises(ValueError, match="operand a is not a simple polygon"):
            exact_iou_oracle(fan, star_b)
        ma, mb = (rasterize(p * 32, 1280, 1280) for p in (fan, star_b))
        raster = np.count_nonzero(ma & mb) / np.count_nonzero(ma | mb)
        assert polygon_iou(fan, star_b) == pytest.approx(raster, abs=1e-3)

    @pytest.mark.parametrize("seed", range(3))
    def test_blocks_agree_with_one_block(self, seed, monkeypatch):
        # 4 KiB blocks split both the edge-pair tests and the slabs many times
        rng = np.random.default_rng(900 + seed)
        a = star(40, outer=float(rng.uniform(20, 30)), inner=float(rng.uniform(8, 15)),
                 phase=float(rng.uniform(0, 1)))
        b = star(37, outer=float(rng.uniform(20, 30)), inner=float(rng.uniform(8, 15)),
                 center=tuple(rng.uniform(-5, 5, 2)))
        whole = polygon_iou(a, b)
        calls = []
        ranges = geometry._ranges

        def counted(lo, hi):
            calls.append(1)
            return ranges(lo, hi)

        monkeypatch.setattr(grids, "CHUNK_BYTES", 4 << 10)
        monkeypatch.setattr(geometry, "_ranges", counted)
        assert abs(polygon_iou(a, b) - whole) < 1e-12
        assert len(calls) > 20 and 0.1 < whole < 0.9

    def test_large_star_pair_working_set(self):
        # 3000 vertices each, 8850 slabs and 7.0M mid-line crossings, whose
        # temporaries would take about 560 MB at once: each block's fit in
        # grids.CHUNK_BYTES, so the call peaks below it plus the per-edge
        # and per-slab arrays
        a, b = star(1500), star(1500, phase=math.pi / 3000)
        tracemalloc.start()
        try:
            iou = polygon_iou(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.5 < iou < 1.0
        assert peak < grids.CHUNK_BYTES + (4 << 20)

    def test_spiky_pair_over_edge_pair_budget_fails_fast(self):
        # 8.4M candidate edge pairs, which would cut 138.5M mid-line
        # crossings: refused before any pair is tested
        a, b = jittered_star(2000, 0), jittered_star(2000, 1, center=(7.0, -4.0))
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=r"needs 8417256 candidate edge pairs, over "
                                             r"polygon_iou's budget of \d+"):
            polygon_iou(a, b)
        assert time.perf_counter() - t0 < 1.0

    def test_spiky_pair_over_crossing_budget(self):
        # 4.7M candidate edge pairs fit the budget, but their 58k meeting
        # points cut 59.6M mid-line crossings
        a, b = jittered_star(1500, 0), jittered_star(1500, 1, center=(7.0, -4.0))
        with pytest.raises(ValueError, match=r"needs 59624914 mid-line crossings, over "
                                             r"polygon_iou's budget of \d+"):
            polygon_iou(a, b)

    @pytest.mark.parametrize("seed", range(10))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(200 + seed)
        a = random_convex(rng)
        b = random_convex(rng, center=(2.0, 1.0))
        if len(a) < 3 or len(b) < 3:
            return
        assert abs(polygon_iou(a, b) - polygon_iou(b, a)) < 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_rigid_invariance(self, seed):
        rng = np.random.default_rng(300 + seed)
        a = random_convex(rng)
        b = random_convex(rng, center=(3.0, -1.0))
        if len(a) < 3 or len(b) < 3:
            return
        base = polygon_iou(a, b)
        phi = float(rng.uniform(0, 2 * math.pi))
        rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        shift = rng.uniform(-50, 50, 2)
        assert polygon_iou(a @ rot.T + shift, b @ rot.T + shift) == \
            pytest.approx(base, abs=1e-9)


def clipped_area(subject, clip_ccw):
    """Area of _clip_ccw's output for array operands."""
    out = _clip_ccw([tuple(p) for p in subject.tolist()], clip_ccw.tolist())
    return polygon_area(np.array(out)) if len(out) >= 3 else 0.0


class TestClipConvex:
    """_clip_ccw, the Sutherland-Hodgman clipper of the NMS baseline."""

    def test_square_clip(self):
        subject = np.array([[0, 0], [4, 0], [4, 4], [0, 4]], float)
        clip_ccw = np.array([[2, -1], [6, -1], [6, 5], [2, 5]], float)
        assert clipped_area(subject, clip_ccw) == pytest.approx(8.0)

    def test_no_overlap_empty(self):
        subject = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
        assert _clip_ccw([tuple(p) for p in subject.tolist()], (subject + 5.0).tolist()) == []

    def test_clip_orientation_irrelevant(self):
        # the subject may run either way round
        subject = np.array([[0, 0], [4, 0], [4, 4], [0, 4]], float)
        clip_ccw = np.array([[2, 2], [6, 2], [6, 6], [2, 6]], float)
        assert clipped_area(subject, clip_ccw) == pytest.approx(4.0)
        assert clipped_area(subject[::-1], clip_ccw) == pytest.approx(4.0)

    def test_is_convex(self):
        assert is_convex(np.array([[0, 0], [2, 0], [2, 2], [0, 2]], float))
        assert not is_convex(np.array([[0, 0], [4, 0], [1, 1], [0, 4]], float))
        # collinear run stays convex
        assert is_convex(np.array([[0, 0], [1, 0], [2, 0], [2, 2], [0, 2]], float))
