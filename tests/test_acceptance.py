"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Criterion 1 checks every reference operating point
(precision, recall, F1 triple) against the harmonic-mean identity; nine of
the embedded reference rows are internally inconsistent beyond rounding
slack (one is impossible for any mean, its F1 exceeds both P and R), so
that single check reports FAIL by design. See the assertion message for
the offending rows.
"""

import math
import statistics
import time
from contextlib import contextmanager

import numpy as np

from helpers import (conv2d_einsum_oracle, convex_intersection_area_oracle, exact_iou_oracle,
                     rasterize_oracle)
from test_shaping import fps_oracle
from textshaper.cli import _bench_candidates
from textshaper.dataio import (AnnotationError, MapFileError, SynthBand, SynthSpec,
                               lowlight_suite, parse_annotation_text, parse_annotations,
                               read_map, synth_maps, write_map)
from textshaper.evaluation import ImageCounts, aggregate, harmonic_f1, match_image
from textshaper.geometry import normalize_angle, polygon_area, polygon_iou, rasterize
from textshaper.losses import loss_seg, loss_sr, loss_ss, smooth_l1
from textshaper.pyramid import PyramidSpec, dsf_forward, init_dsf_params
from textshaper.shaping import (OVERLAP_COUNTER, farthest_point_sample_indices, nms_baseline,
                                shape_text)
from textshaper.snakeconv import dsc_forward


@contextmanager
def criterion(num, name, budget_s=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:2d} {name}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE {num:2d} {name}: PASS ({elapsed:.2f}s)")
    if budget_s is not None:
        assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeded budget {budget_s}s"


# Published detection operating points (precision %, recall %, F1 %) collected
# from the scene-text literature; used purely as harmonic-mean test vectors.
REFERENCE_ROWS = [
    ("r00", 53.7, 7.5, 13.1), ("r01", 56.4, 8.1, 14.2), ("r02", 4.6, 9.8, 13.2),
    ("r03", 73.2, 12.2, 20.9), ("r04", 61.2, 19.5, 24.1), ("r05", 21.8, 91.8, 37.4),
    ("r06", 15.5, 72.4, 32.1), ("r07", 21.9, 65.9, 42.7), ("r08", 61.2, 19.6, 29.6),
    ("r09", 86.7, 30.6, 45.3), ("r10", 73.6, 35.3, 47.7), ("r11", 88.4, 35.9, 51.1),
    ("r12", 90.8, 37.7, 53.3), ("r13", 90.4, 36.5, 52.0), ("r14", 91.1, 34.0, 49.5),
    ("r15", 88.6, 39.1, 54.2), ("r16", 89.4, 34.3, 49.6), ("r17", 76.0, 43.6, 55.4),
    ("r18", 78.1, 46.6, 59.1), ("r19", 79.1, 48.1, 59.8), ("r20", 78.0, 47.7, 59.2),
    ("r21", 75.2, 47.5, 58.2), ("r22", 72.5, 40.8, 52.4), ("r23", 74.5, 49.5, 59.5),
    ("r24", 82.6, 57.0, 67.1), ("r25", 86.9, 80.2, 83.4), ("r26", 84.0, 78.0, 80.9),
    ("r27", 86.9, 80.2, 83.4), ("r28", 87.1, 82.5, 84.7), ("r29", 91.5, 79.2, 84.9),
    ("r30", 83.7, 84.1, 83.9), ("r31", 86.9, 83.9, 85.4), ("r32", 85.0, 85.8, 85.4),
    ("r33", 87.5, 83.2, 85.3), ("r34", 85.9, 83.0, 84.4), ("r35", 86.5, 84.9, 85.7),
    ("r36", 88.1, 82.3, 85.1), ("r37", 85.7, 80.7, 83.1), ("r38", 87.4, 79.8, 83.4),
    ("r39", 86.5, 83.6, 85.5), ("r40", 90.7, 85.2, 87.9), ("r41", 86.6, 84.5, 85.6),
    ("r42", 88.1, 82.4, 85.2), ("r43", 90.7, 85.7, 88.1), ("r44", 87.9, 82.8, 85.3),
    ("r45", 88.9, 83.2, 86.0), ("r46", 91.5, 83.3, 87.2), ("r47", 87.4, 83.7, 85.5),
    ("r48", 90.9, 85.6, 88.2), ("r49", 93.6, 86.0, 89.6), ("r50", 85.8, 83.4, 84.6),
    ("r51", 89.6, 82.1, 85.7), ("r52", 90.3, 81.4, 85.6), ("r53", 87.3, 83.8, 85.5),
    ("r54", 91.8, 85.3, 88.5), ("r55", 89.2, 85.4, 87.3), ("r56", 88.7, 83.9, 86.2),
    ("r57", 90.4, 86.6, 88.5), ("r58", 91.0, 83.5, 87.1),
]


def test_c01_metric_arithmetic():
    with criterion(1, "metric arithmetic on reference rows", budget_s=1.0):
        bad = []
        for label, p, r, f1 in REFERENCE_ROWS:
            computed = harmonic_f1(p, r)
            if abs(computed - f1) > 0.15:
                bad.append(f"{label}: P={p} R={r} published F1={f1} harmonic={computed:.2f}")
        # spot checks of the formula itself
        assert round(harmonic_f1(74.5, 49.5), 1) == 59.5
        assert round(harmonic_f1(86.9, 80.2), 1) == 83.4
        assert harmonic_f1(100.0, 100.0) == 100.0
        assert not bad, (
            f"{len(bad)}/{len(REFERENCE_ROWS)} reference rows are inconsistent with the "
            "harmonic-mean identity beyond the 0.15 rounding slack:\n  " + "\n  ".join(bad))


def test_c02_fps_oracle_equivalence():
    with criterion(2, "farthest point sampling equals exhaustive oracle", budget_s=10.0):
        rng = np.random.default_rng(7)
        for _ in range(500):
            n = int(rng.integers(1, 201))
            pts = rng.integers(0, 64, size=(n, 2))
            budget = int(rng.integers(1, 11))
            stop = float(rng.choice([0.0, 1.5, 3.0]))
            got = farthest_point_sample_indices(pts, budget, stop)
            assert got == fps_oracle(pts, budget, stop)


def bench_rows(pts, thetas, heights, width):
    """(k, 5) rectangle rows [cx, cy, h, w, theta] of bench candidates."""
    return np.column_stack([pts, heights, np.full(len(pts), width), normalize_angle(thetas)])


def test_c03_fps_vs_nms_overlap_and_speed():
    with criterion(3, "sampling path does zero overlap computations and beats NMS"):
        width = 4.0
        for k in (2, 3, 5, 10, 50):
            pts, thetas, heights, scores = _bench_candidates(k, seed=k)
            OVERLAP_COUNTER.reset()
            idx = farthest_point_sample_indices(pts, 64, width / 2.0)
            bench_rows(pts[idx], thetas[idx], heights[idx], width)
            assert OVERLAP_COUNTER.count == 0
            OVERLAP_COUNTER.reset()
            nms_baseline(bench_rows(pts, thetas, heights, width), scores, 0.5)
            assert OVERLAP_COUNTER.count > 0

        fps_times, nms_times = [], []
        for trial in range(20):
            pts, thetas, heights, scores = _bench_candidates(2000, seed=trial)
            OVERLAP_COUNTER.reset()
            t0 = time.perf_counter()
            idx = farthest_point_sample_indices(pts, 64, width / 2.0)
            bench_rows(pts[idx], thetas[idx], heights[idx], width)
            fps_times.append(time.perf_counter() - t0)
            assert OVERLAP_COUNTER.count == 0
            OVERLAP_COUNTER.reset()
            t0 = time.perf_counter()
            nms_baseline(bench_rows(pts, thetas, heights, width), scores, 0.5)
            nms_times.append(time.perf_counter() - t0)
            assert OVERLAP_COUNTER.count > 0
        assert statistics.median(fps_times) < statistics.median(nms_times)


def test_c04_end_to_end_synthetic_shaping():
    with criterion(4, "end-to-end shaping of 50 synthetic instances", budget_s=60.0):
        counts = []
        for i, spec in enumerate(lowlight_suite(50)):
            maps, gt = synth_maps(spec, seed=100 + i)
            polys = shape_text(maps)
            for g in gt:
                best = max((polygon_iou(p, g) for p in polys), default=0.0)
                assert best >= 0.90, f"instance {i}: best IoU {best:.3f} below 0.90"
            counts.append(ImageCounts(f"img{i}", *match_image(polys, gt, 0.5)))
        report = aggregate(counts)
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.f1 == 1.0


def test_c05_low_light_robustness():
    with criterion(5, "shaping under contrast dimming and noise", budget_s=60.0):
        counts = []
        for i, spec in enumerate(lowlight_suite(50, noise_sigma=0.05, gamma=0.3)):
            maps, gt = synth_maps(spec, seed=100 + i)
            polys = shape_text(maps)
            counts.append(ImageCounts(f"img{i}", *match_image(polys, gt, 0.5)))
        report = aggregate(counts)
        assert report.f1 >= 0.95, f"degraded-suite F1 {100 * report.f1:.1f}% below 95%"


def c11_spec(h, w):
    """C11's frame: 4 sinusoid bands spread over an h x w frame, sigma 0.05."""
    bands = tuple(SynthBand(y_center=float(y), height=16.0, x_start=16.0, x_end=w - 16.0,
                            amplitude=10.0, period=120.0 + 20.0 * i, phase=0.7 * i)
                  for i, y in enumerate(np.linspace(0, h, 6)[1:-1]))
    return SynthSpec(frame_h=h, frame_w=w, bands=bands, noise_sigma=0.05)


def c12_spec(gap):
    """C12's frame: two straight 14 px bands whose edges are gap px apart."""
    offset = (14.0 + gap) / 2
    bands = tuple(SynthBand(y_center=64.0 + side * offset, height=14.0, x_start=14.0,
                            x_end=210.0) for side in (-1, 1))
    return SynthSpec(frame_h=128, frame_w=224, bands=bands)


def dark_spec(size, n_bands, gamma):
    """C14's and C15's frame: n_bands sinusoid bands 16 px high, one every
    size / n_bands px from size / (2 n_bands), at contrast gamma, sigma 0.1."""
    pitch = size / n_bands
    bands = tuple(SynthBand(y_center=pitch / 2 + pitch * i, height=16.0, x_start=16.0,
                            x_end=size - 16.0, amplitude=10.0, period=120.0 + 20.0 * i,
                            phase=0.7 * i)
                  for i in range(n_bands))
    return SynthSpec(size, size, bands, noise_sigma=0.1, gamma=gamma)


def test_c11_large_frame_multi_band_shaping():
    with criterion(11, "default shaping of 4 sinusoid bands at 256x448 and 640x640",
                   budget_s=60.0):
        for h, w in ((256, 448), (640, 640)):
            maps, gt = synth_maps(c11_spec(h, w), seed=3)
            counts = match_image(shape_text(maps), gt, 0.5)
            assert counts == (4, 0, 0), f"{h}x{w}: TP/FP/FN {counts}, want (4, 0, 0)"


def test_c12_merge_distance_of_two_bands():
    # shape_text closes the union of every component's rectangles, so two
    # instances whose edges come within close_kernel - 1 px merge
    with criterion(12, "two straight bands merge at a 4 px gap, stay apart at 5 px",
                   budget_s=30.0):
        for gap, n_polys, want in ((4, 1, (0, 1, 2)), (5, 2, (2, 0, 0))):
            maps, gt = synth_maps(c12_spec(gap), seed=0)
            polys = shape_text(maps)
            assert len(polys) == n_polys, f"gap {gap} px: {len(polys)} polygons"
            counts = match_image(polys, gt, 0.5)
            assert counts == want, f"gap {gap} px: TP/FP/FN {counts}, want {want}"


def test_c13_dark_frames_keep_bands_whole():
    # gamma 0.15 with noise splits each centre line into hundreds of
    # components; shaped through one union mask they still give one
    # polygon per band
    with criterion(13, "shaping of dark frames (gamma 0.15, sigma 0.1)", budget_s=60.0):
        counts = []
        for i, spec in enumerate(lowlight_suite(6, noise_sigma=0.1, gamma=0.15)):
            maps, gt = synth_maps(spec, seed=100 + i)
            counts.append(ImageCounts(f"img{i}", *match_image(shape_text(maps), gt, 0.5)))
        report = aggregate(counts)
        assert report.f1 >= 0.95, f"dark-suite F1 {100 * report.f1:.1f}% below 95%: {counts}"


def test_c14_dark_large_frames_keep_bands_whole():
    # At 640x640 the dark regime breaks five centre lines into about 20 000
    # components per frame, most of them sampled by their seed alone; each
    # band must still come out as one polygon. The budget covers shaping
    # and matching, not the synthesis of the maps.
    frames = {gamma: synth_maps(dark_spec(640, 5, gamma), seed=100) for gamma in (0.3, 0.15)}
    with criterion(14, "shaping of dark 640x640 frames (gamma 0.3 and 0.15, sigma 0.1)",
                   budget_s=10.0):
        counts = [ImageCounts(f"gamma {gamma}", *match_image(shape_text(maps), gt, 0.5))
                  for gamma, (maps, gt) in frames.items()]
        report = aggregate(counts)
        assert report.f1 >= 0.95, f"dark 640x640 F1 {100 * report.f1:.1f}% below 95%: {counts}"


def test_c15_dark_1280_frame_keeps_bands_whole():
    # A frame four times C14's area: nine dark centre lines, each still one
    # polygon under the default settings. As in C14, the budget covers
    # shaping and matching, not the synthesis of the maps.
    maps, gt = synth_maps(dark_spec(1280, 9, 0.15), seed=100)
    with criterion(15, "shaping of a dark 1280x1280 frame (gamma 0.15, sigma 0.1)",
                   budget_s=20.0):
        counts = match_image(shape_text(maps), gt, 0.5)
        assert counts == (9, 0, 0), f"dark 1280x1280: TP/FP/FN {counts}, want (9, 0, 0)"


def finite_diff(f, x, step=1e-5):
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


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


def test_c06_gradient_correctness():
    with criterion(6, "all loss heads pass finite-difference checks", budget_s=30.0):
        rng = np.random.default_rng(11)
        n = 8
        for _ in range(100):
            gt_text = (rng.uniform(size=(n, n)) > 0.5).astype(float)
            gt_center = (rng.uniform(size=(n, n)) > 0.7).astype(float)
            pred_text = rng.uniform(0.05, 0.95, (n, n))
            pred_center = rng.uniform(0.05, 0.95, (n, n))
            _, g_text, g_center = loss_seg(pred_text, pred_center, gt_text, gt_center)
            fd_text = finite_diff(lambda x: loss_seg(x, pred_center, gt_text, gt_center)[0],
                                  pred_text)
            fd_center = finite_diff(lambda x: loss_seg(pred_text, x, gt_text, gt_center)[0],
                                    pred_center)
            assert rel_err(g_text, fd_text) < 1e-5
            assert rel_err(g_center, fd_center) < 1e-5

            region = rng.uniform(size=(n, n)) > 0.3
            region[0, 0] = True
            gt_h = rng.uniform(2, 8, (n, n))
            offs = rng.choice([-1.0, 1.0], (n, n)) * rng.uniform(0.02, 2.5, (n, n))
            offs[np.abs(np.abs(offs) - 1.0) < 0.02] = 0.5
            pred_h = gt_h + offs
            _, g_h = smooth_l1(pred_h, gt_h, region=region)
            fd_h = finite_diff(lambda x: smooth_l1(x, gt_h, region=region)[0], pred_h)
            assert rel_err(g_h, fd_h) < 1e-5

            gt_th = rng.uniform(-1.2, 1.2, (n, n))
            offs = rng.choice([-1.0, 1.0], (n, n)) * rng.uniform(0.02, 0.8, (n, n))
            pred_th = gt_th + offs
            _, g_th = smooth_l1(pred_th, gt_th, region=region)
            fd_th = finite_diff(lambda x: smooth_l1(x, gt_th, region=region)[0], pred_th)
            assert rel_err(g_th, fd_th) < 1e-5

            aux = rng.normal(size=(n, n))
            main = rng.normal(size=(n, n))
            _, (g_aux, g_main) = loss_ss(aux, main)
            assert rel_err(g_aux, finite_diff(lambda x: loss_ss(x, main)[0], aux)) < 1e-5
            assert rel_err(g_main, finite_diff(lambda x: loss_ss(aux, x)[0], main)) < 1e-5

            mask = (rng.uniform(size=(n, n)) > 0.5).astype(float)
            recon = mask + rng.choice([-1.0, 1.0], (n, n)) * rng.uniform(0.02, 0.5, (n, n))
            _, g_sr = loss_sr(recon, mask)
            assert rel_err(g_sr, finite_diff(lambda x: loss_sr(x, mask)[0], recon)) < 1e-5


def test_c07_pyramid_shape_contract():
    with criterion(7, "256-channel 4-level pyramid emits 7 head channels at 1/4 scale"):
        spec = PyramidSpec()  # scales 1/32..1/4, 256 channels per level
        params = init_dsf_params(spec, seed=0)
        rng = np.random.default_rng(0)
        base = 128
        feats = [rng.normal(size=(1, 256, base // 32 * 2 ** i, base // 32 * 2 ** i))
                 for i in range(4)]
        out = dsf_forward(feats, params, spec)
        assert out.head.shape == (1, 7, base // 4, base // 4)
        assert [f.shape[1] for f in out.fused] == [256, 256, 256, 256]
        assert np.all((out.head[:, 0] > 0) & (out.head[:, 0] < 1))
        assert np.all((out.head[:, 1] > 0) & (out.head[:, 1] < 1))


def test_c08_snake_degeneracy():
    with criterion(8, "zero-offset snake equals standard 1-d convolution"):
        rng = np.random.default_rng(13)
        for _ in range(100):
            b = int(rng.integers(1, 3))
            cin = int(rng.integers(1, 4))
            cout = int(rng.integers(1, 4))
            h, w = int(rng.integers(3, 9)), int(rng.integers(3, 9))
            length = int(rng.choice([3, 5, 9]))
            axis = str(rng.choice(["horizontal", "vertical"]))
            x = rng.normal(size=(b, cin, h, w))
            weights = rng.normal(size=(cout, cin, length))
            if axis == "horizontal":
                kernel, padding = weights.reshape(cout, cin, 1, length), (0, length // 2)
            else:
                kernel, padding = weights.reshape(cout, cin, length, 1), (length // 2, 0)
            got = dsc_forward(x, kernel)
            # dsc_forward is a conv2d call, so the reference is the
            # independent sliding-window oracle.
            want = conv2d_einsum_oracle(x, kernel, np.zeros(cout), 1, padding)
            assert np.max(np.abs(got - want)) < 1e-12


def test_c09_geometry_oracles():
    with criterion(9, "rasterization and IoU match brute-force oracles"):
        rng = np.random.default_rng(17)
        # 100 rasterization instances: exact pixel-for-pixel agreement
        for _ in range(100):
            n_v = int(rng.integers(3, 8))
            poly = rng.uniform(0, 15, size=(n_v, 2))
            got = rasterize(poly, 16, 16)
            np.testing.assert_array_equal(got, rasterize_oracle(poly, 16, 16))

        # 60 convex pairs: exact clipping against the hull-construction oracle
        def random_convex(center):
            angles = np.sort(rng.uniform(0, 2 * math.pi, 7))
            radii = rng.uniform(4, 9, 7)
            pts = np.column_stack([center[0] + radii * np.cos(angles),
                                   center[1] + radii * np.sin(angles)])
            from helpers import convex_hull
            return convex_hull(pts)

        checked = 0
        while checked < 60:
            a = random_convex((0.0, 0.0))
            b = random_convex((float(rng.uniform(-7, 7)), float(rng.uniform(-7, 7))))
            if len(a) < 3 or len(b) < 3:
                continue
            inter = convex_intersection_area_oracle(a, b)
            union = polygon_area(a) + polygon_area(b) - inter
            expected = inter / union if union else 0.0
            assert abs(polygon_iou(a, b) - expected) < 1e-9
            checked += 1

        # 40 nonconvex pairs: exact, like the convex ones
        for _ in range(40):
            angles = np.sort(rng.uniform(0, 2 * math.pi, 10))
            radii = np.where(np.arange(10) % 2 == 0,
                             rng.uniform(11, 15, 10), rng.uniform(5, 8, 10))
            a = np.column_stack([20 + radii * np.cos(angles), 20 + radii * np.sin(angles)])
            angles = np.sort(rng.uniform(0, 2 * math.pi, 9))
            radii = np.where(np.arange(9) % 2 == 0,
                             rng.uniform(10, 14, 9), rng.uniform(5, 9, 9))
            b = np.column_stack([20 + radii * np.cos(angles) + rng.uniform(-4, 4),
                                 20 + radii * np.sin(angles) + rng.uniform(-4, 4)])
            assert abs(polygon_iou(a, b) - exact_iou_oracle(a, b)) < 1e-9


def test_c10_format_fuzzing(tmp_path):
    with criterion(10, "10,000-round parser fuzz raises structured errors only"):
        rng = np.random.default_rng(23)
        map_path = tmp_path / "fuzz.tmap"
        base_map = tmp_path / "base.tmap"
        write_map(base_map, {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(4)})
        base_bytes = base_map.read_bytes()

        for _ in range(2500):  # random bytes into the map parser
            blob = rng.bytes(int(rng.integers(0, 200)))
            map_path.write_bytes(blob)
            try:
                read_map(map_path)
            except MapFileError:
                pass

        for _ in range(2500):  # structured mutations of a valid map file
            data = bytearray(base_bytes)
            op = int(rng.integers(0, 3))
            if op == 0:
                data = data[:int(rng.integers(0, len(data)))]
            elif op == 1:
                for _ in range(int(rng.integers(1, 9))):
                    data[int(rng.integers(0, len(data)))] = int(rng.integers(0, 256))
            else:
                data += rng.bytes(int(rng.integers(1, 40)))
            map_path.write_bytes(bytes(data))
            try:
                read_map(map_path)
            except MapFileError:
                pass

        ann_path = tmp_path / "fuzz.txt"
        for _ in range(2500):  # random bytes into the annotation parser
            ann_path.write_bytes(rng.bytes(int(rng.integers(0, 120))))
            try:
                parse_annotations(ann_path)
            except AnnotationError:
                pass

        base_text = "0,0,9,0,9,4,0,4\n3,1,8,1,8,6,3,6,#ignore\n"
        alphabet = "0123456789,-#ignore \nx."
        for _ in range(2500):  # character-level mutations of valid annotations
            chars = list(base_text)
            for _ in range(int(rng.integers(1, 6))):
                pos = int(rng.integers(0, len(chars)))
                chars[pos] = alphabet[int(rng.integers(0, len(alphabet)))]
            try:
                parse_annotation_text("".join(chars))
            except AnnotationError:
                pass
