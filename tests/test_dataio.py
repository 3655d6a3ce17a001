import dataclasses
import hashlib
import math
import re
import struct
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import draw_outline_oracle, nearest_sample_oracle, write_pgm
from test_acceptance import c11_spec, c12_spec, dark_spec
from textshaper import dataio, grids
from textshaper.dataio import (AnnotationError, ImageFormatError, MapFileError, SynthBand,
                               SynthSpec, band_polygon, draw_polygon_outline, lowlight_suite,
                               parse_annotation_text, parse_annotations, read_geometry_maps,
                               read_map, read_pgm, synth_maps, write_annotations,
                               write_geometry_maps, write_map, write_ppm)
from textshaper.geometry import TextPolygon, rasterize


class TestAnnotations:
    def test_rectangle_line(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("0,0,4,0,4,2,0,2\n")
        polys, flags = parse_annotations(p)
        assert len(polys) == 1
        np.testing.assert_array_equal(polys[0].vertices, [[0, 0], [4, 0], [4, 2], [0, 2]])
        assert flags == [False]

    def test_ignore_flag(self):
        polys, flags = parse_annotation_text("1,1,5,1,5,4,1,4,#ignore\n2,2,6,2,6,5,2,5\n")
        assert flags == [True, False]

    def test_odd_count_is_error(self):
        with pytest.raises(AnnotationError, match="odd"):
            parse_annotation_text("0,0,4,0,4\n")

    def test_too_few_vertices(self):
        with pytest.raises(AnnotationError, match="3"):
            parse_annotation_text("0,0,4,0\n")

    def test_non_integer_token_reports_line_and_column(self):
        with pytest.raises(AnnotationError, match=r":2: token 3"):
            parse_annotation_text("0,0,4,0,4,2,0,2\n1,2,x,4,5,6,7,8\n")

    def test_negative_coordinate(self):
        with pytest.raises(AnnotationError, match="negative"):
            parse_annotation_text("0,0,-4,0,4,2,0,2\n")

    @pytest.mark.parametrize("tok", ["1_0", "\u0663", "\uff15"])
    def test_only_sign_and_ascii_digits_parse(self, tok):
        # int() alone would read 1_0 as 10 and Arabic-Indic or fullwidth digits as 3 and 5.
        msg = f":2: token 2 ({tok!r}) is not an integer"
        with pytest.raises(AnnotationError, match=re.escape(msg)):
            parse_annotation_text(f"0,0,4,0,4,2\n1,{tok},5,0,5,5\n")

    def test_only_newline_ends_a_line(self):
        # U+2028 and form feed are whitespace around a token, not line ends.
        polys, _ = parse_annotation_text("0,0,4,0\u2028,4,2")
        np.testing.assert_array_equal(polys[0].vertices, [[0, 0], [4, 0], [4, 2]])
        with pytest.raises(AnnotationError, match=re.escape(":2: token 3 ('x')")):
            parse_annotation_text("0,0,4,0,4,2\x0c\n1,1,x")

    def test_crlf_line_ends_parse(self):
        polys, flags = parse_annotation_text("0,0,4,0,4,2\r\n1,1,5,1,5,4,#ignore\r\n")
        assert len(polys) == 2
        assert flags == [False, True]

    def test_signed_coordinates_parse(self):
        polys, _ = parse_annotation_text("+1,0,5,-0,5,+5\n")
        np.testing.assert_array_equal(polys[0].vertices, [[1, 0], [5, 0], [5, 5]])

    def test_coordinate_too_large_for_a_float(self):
        with pytest.raises(AnnotationError, match=r":2: token 3 \(400 digits\) is too large"):
            parse_annotation_text("0,0,4,0,4,2\n1,1," + "9" * 400 + ",1,1,5\n")

    def test_large_coordinates_round_to_nearest_float(self):
        big = 10 ** 300
        polys, _ = parse_annotation_text(f"0,0,{2 ** 53 + 1},0,{big},2\n")
        np.testing.assert_array_equal(polys[0].vertices, [[0, 0], [2.0 ** 53, 0], [1e300, 2]])

    def test_round_trip_random_integer_polygons(self, tmp_path):
        rng = np.random.default_rng(0)
        polys = [TextPolygon(rng.integers(0, 500, size=(int(rng.integers(3, 9)), 2)))
                 for _ in range(100)]
        flags = [bool(rng.integers(0, 2)) for _ in range(100)]
        path = tmp_path / "round.txt"
        write_annotations(path, polys, flags)
        parsed, parsed_flags = parse_annotations(path)
        assert parsed_flags == flags
        assert len(parsed) == 100
        for a, b in zip(polys, parsed):
            np.testing.assert_array_equal(a.vertices, b.vertices)

    def test_round_trip_coordinates_beyond_int64(self, tmp_path):
        # 1e20 and 3e20 are integers as floats but do not fit an int64.
        big = np.array([[0.0, 0.0], [1e20, 0.0], [3e20, 1e20], [-0.4, 1e20]])
        path = tmp_path / "big.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_annotations(path, [TextPolygon(big)])
        (poly,), _ = parse_annotations(path)
        np.testing.assert_array_equal(poly.vertices, np.rint(big))

    def test_write_accepts_generator(self, tmp_path):
        squares = [[[x, 0], [x + 4, 0], [x + 4, 4], [x, 4]] for x in (0, 10)]
        path = tmp_path / "gen.txt"
        write_annotations(path, (TextPolygon(np.array(s)) for s in squares))
        parsed, flags = parse_annotations(path)
        assert [p.vertices.tolist() for p in parsed] == squares
        assert flags == [False, False]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_write_rejects_non_finite_vertex(self, tmp_path, bad):
        path = tmp_path / "nonfinite.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AnnotationError, match="non-finite vertex"):
                write_annotations(path, [np.array([[0.0, 0.0], [bad, 1.0], [3.0, 3.0]])])
        assert not path.exists()

    def test_write_rejects_ignore_length_mismatch(self, tmp_path):
        polys = [TextPolygon(np.array([[0, 0], [4, 0], [4, 4]])),
                 TextPolygon(np.array([[9, 0], [12, 0], [12, 4]]))]
        path = tmp_path / "flags.txt"
        with pytest.raises(AnnotationError, match="2 polygons but 1 ignore flags"):
            write_annotations(path, polys, [True])
        assert not path.exists()

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("")
        polys, flags = parse_annotations(p)
        assert polys == [] and flags == []


class TestMapFile:
    def test_empty_section_list_is_8_bytes(self, tmp_path):
        p = tmp_path / "empty.tmap"
        write_map(p, {})
        data = p.read_bytes()
        assert len(data) == 8
        assert data[:4] == b"TMAP"
        assert read_map(p) == {}

    def test_round_trip_bit_exact(self, tmp_path):
        p = tmp_path / "g.tmap"
        grid = np.array([[1.5, -0.0], [2 ** -1040, 1e300]])
        vec = np.array([3.0, -7.25, 0.1])
        write_map(p, {"grid": grid, "vec": vec})
        out = read_map(p)
        assert list(out) == ["grid", "vec"]
        assert out["grid"].tobytes() == grid.tobytes()
        assert out["vec"].tobytes() == vec.tobytes()

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.tmap", tmp_path / "b.tmap"
        grids = {"x": np.arange(12.0).reshape(3, 4)}
        write_map(a, grids)
        write_map(b, grids)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.tmap"
        p.write_bytes(b"NOPE" + bytes(4))
        with pytest.raises(MapFileError, match="magic"):
            read_map(p)

    def test_unknown_version(self, tmp_path):
        p = tmp_path / "v.tmap"
        p.write_bytes(b"TMAP" + struct.pack("<HH", 9, 0))
        with pytest.raises(MapFileError, match="version"):
            read_map(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t.tmap"
        write_map(p, {"x": np.ones((2, 2))})
        data = p.read_bytes()
        p.write_bytes(data[:-5])
        with pytest.raises(MapFileError, match="truncated"):
            read_map(p)

    def test_declared_payload_checked_against_file_size(self, tmp_path):
        p = tmp_path / "t.tmap"
        body = struct.pack("<H", 1) + b"x" + struct.pack("<B", 2) + \
            struct.pack("<II", 4000, 4000) + bytes(16)
        p.write_bytes(b"TMAP" + struct.pack("<HH", 1, 1) + body)
        with pytest.raises(MapFileError, match=r"payload \(need 128000000 bytes at offset "
                                               r"20, have 16\)"):
            read_map(p)

    def test_trailing_bytes(self, tmp_path):
        p = tmp_path / "t.tmap"
        write_map(p, {"x": np.ones(3)})
        p.write_bytes(p.read_bytes() + b"zz")
        with pytest.raises(MapFileError, match="trailing"):
            read_map(p)

    def test_dim_overflow_guard(self, tmp_path):
        p = tmp_path / "o.tmap"
        body = struct.pack("<H", 1) + b"x" + struct.pack("<B", 2) + \
            struct.pack("<II", 0xFFFFFFF0, 0xFFFFFFF0)
        p.write_bytes(b"TMAP" + struct.pack("<HH", 1, 1) + body)
        with pytest.raises(MapFileError, match="overflow"):
            read_map(p)

    def test_non_finite_rejected_both_ways(self, tmp_path):
        p = tmp_path / "n.tmap"
        with pytest.raises(MapFileError, match="finite"):
            write_map(p, {"x": np.array([np.nan])})
        payload = struct.pack("<d", math.inf)
        body = struct.pack("<H", 1) + b"x" + struct.pack("<B", 1) + struct.pack("<I", 1) + payload
        p.write_bytes(b"TMAP" + struct.pack("<HH", 1, 1) + body)
        with pytest.raises(MapFileError, match="finite"):
            read_map(p)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                    min_size=1, max_size=20))
    def test_round_trip_arbitrary_finite_doubles(self, tmp_path_factory, values):
        p = tmp_path_factory.mktemp("maps") / "h.tmap"
        arr = np.array(values)
        write_map(p, {"v": arr})
        assert read_map(p)["v"].tobytes() == arr.tobytes()

    @pytest.mark.parametrize("seed", range(30))
    def test_truncation_fuzz_always_structured(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        p = tmp_path / "f.tmap"
        write_map(p, {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=5)})
        data = p.read_bytes()
        cut = int(rng.integers(0, len(data)))
        p.write_bytes(data[:cut])
        try:
            read_map(p)
        except MapFileError:
            pass

    def test_geometry_maps_round_trip(self, tmp_path):
        spec = SynthSpec(frame_h=32, frame_w=48,
                         bands=(SynthBand(y_center=16, height=8, x_start=4, x_end=44),))
        maps, _ = synth_maps(spec, seed=0)
        p = tmp_path / "m.tmap"
        write_geometry_maps(p, maps)
        out = read_geometry_maps(p)
        np.testing.assert_array_equal(out.stack(), maps.stack())

    def test_geometry_maps_missing_section(self, tmp_path):
        p = tmp_path / "m.tmap"
        write_map(p, {"text": np.zeros((2, 2))})
        with pytest.raises(MapFileError, match="missing"):
            read_geometry_maps(p)


class TestPortableImages:
    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(9, 13)).astype(np.uint8)
        p = tmp_path / "img.pgm"
        write_pgm(p, img)
        back = read_pgm(p)
        np.testing.assert_array_equal((back * 255).round().astype(np.uint8), img)

    def test_single_pixel(self, tmp_path):
        p = tmp_path / "one.pgm"
        write_pgm(p, np.array([[0.5]]))
        img = read_pgm(p)
        assert img.shape == (1, 1)
        assert img[0, 0] == pytest.approx(128 / 255)

    def test_header_comments(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# comment line\n3 2\n255\n" + bytes(6))
        assert read_pgm(p).shape == (2, 3)

    def test_gradient_matches_formula(self, tmp_path):
        h, w = 4, 8
        img = np.fromfunction(lambda i, j: (i * w + j) / (h * w - 1), (h, w))
        p = tmp_path / "g.pgm"
        write_pgm(p, img)
        back = read_pgm(p)
        for i in range(h):
            for j in range(w):
                assert back[i, j] == pytest.approx(
                    round(img[i, j] * 255) / 255, abs=1e-12)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(ImageFormatError, match="P5"):
            read_pgm(p)

    def test_truncated_pixels(self, tmp_path):
        p = tmp_path / "short.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(ImageFormatError, match="truncated"):
            read_pgm(p)

    @pytest.mark.parametrize("header", [b"P5\n\xb2 2\n255\n", b"P5\n2 2\xb9\n255\n",
                                        b"P5\n2 2\n\xb355\n"],
                             ids=["superscript-two", "after-token", "in-maxval"])
    def test_non_ascii_digit_in_header_rejected(self, tmp_path, header):
        # chr(0xb2) is '\u00b2', which str.isdigit accepts but int() does not.
        p = tmp_path / "sup.pgm"
        p.write_bytes(header + bytes(4))
        with pytest.raises(ImageFormatError, match=r"sup\.pgm: unexpected header byte"):
            read_pgm(p)

    def test_pixel_above_maxval_rejected(self, tmp_path):
        p = tmp_path / "over.pgm"
        p.write_bytes(b"P5\n3 2\n100\n" + bytes([0, 100, 7, 50, 200, 255]))
        with pytest.raises(ImageFormatError, match=r"pixel \(1, 1\) is 200, above maxval 100"):
            read_pgm(p)
        p.write_bytes(b"P5\n3 2\n100\n" + bytes([0, 100, 7, 50, 99, 1]))
        assert read_pgm(p).max() == 1.0

    def test_ppm_output_header(self, tmp_path):
        p = tmp_path / "o.ppm"
        write_ppm(p, np.zeros((2, 3, 3), dtype=np.uint8))
        data = p.read_bytes()
        assert data.startswith(b"P6\n3 2\n255\n")
        assert len(data) == len(b"P6\n3 2\n255\n") + 18

    def test_outline_drawing_exact_pixels(self):
        rgb = np.zeros((12, 12, 3), dtype=np.uint8)
        poly = np.array([[2, 2], [8, 2], [8, 7], [2, 7]], float)
        draw_polygon_outline(rgb, poly, color=(255, 0, 0))
        red = set(zip(*np.nonzero(rgb[:, :, 0] == 255)))
        expected = set()
        for x in range(2, 9):
            expected.add((2, x))
            expected.add((7, x))
        for y in range(2, 8):
            expected.add((y, 2))
            expected.add((y, 8))
        assert red == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_outline_matches_stepwise_walk(self, seed):
        # integer and half-integer vertices of edges inside the frame,
        # crossing it or missing it, in every direction
        rng = np.random.default_rng(seed)
        for i in range(300):
            h, w = (int(v) for v in rng.integers(1, 24, size=2))
            span = int(rng.choice([4, 30, 120]))
            verts = rng.integers(-span, span + 24, size=(int(rng.integers(2, 6)), 2)).astype(float)
            if i % 3 == 0:
                verts += rng.choice([-0.5, 0.5, 1.5], size=verts.shape)
            got = np.zeros((h, w, 3), dtype=np.uint8)
            want = got.copy()
            draw_polygon_outline(got, verts, color=(255, 0, 0))
            draw_outline_oracle(want, verts, (255, 0, 0))
            np.testing.assert_array_equal(got, want)

    def test_far_off_vertex_draws_only_the_frame(self):
        rgb = np.zeros((64, 64, 3), dtype=np.uint8)
        poly = parse_annotation_text("1,1,1000000000,1,1,5\n")[0][0]
        t0 = time.perf_counter()
        draw_polygon_outline(rgb, poly, color=(255, 0, 0))
        assert time.perf_counter() - t0 < 1.0
        expected = np.zeros((64, 64), dtype=bool)
        expected[[1, 5], 1:] = True
        expected[1:6, 1] = True
        np.testing.assert_array_equal(rgb[:, :, 0] == 255, expected)


class TestSynthMaps:
    def test_straight_band_zero_theta_on_centers(self):
        spec = SynthSpec(frame_h=40, frame_w=96,
                         bands=(SynthBand(y_center=20, height=10, x_start=8, x_end=88),))
        maps, _ = synth_maps(spec, seed=0)
        centers = maps.center >= 0.5
        assert centers.any()
        assert np.all(maps.theta[centers] == 0.0)

    def test_zero_amplitude_equals_straight(self):
        a = SynthSpec(frame_h=40, frame_w=96,
                      bands=(SynthBand(y_center=20, height=10, x_start=8, x_end=88),))
        b = SynthSpec(frame_h=40, frame_w=96,
                      bands=(SynthBand(y_center=20, height=10, x_start=8, x_end=88,
                                       amplitude=0.0, period=50.0, phase=1.0),))
        ma, _ = synth_maps(a, seed=3)
        mb, _ = synth_maps(b, seed=3)
        np.testing.assert_array_equal(ma.stack(), mb.stack())

    @pytest.mark.parametrize("amplitude,period", [(0.0, 64.0), (6.0, 80.0), (11.0, 70.0)])
    def test_ground_truth_consistent_with_text_map(self, amplitude, period):
        spec = SynthSpec(frame_h=64, frame_w=160,
                         bands=(SynthBand(y_center=32, height=13, x_start=10, x_end=150,
                                          amplitude=amplitude, period=period),))
        maps, gt = synth_maps(spec, seed=1)
        gt_mask = rasterize(gt[0], 64, 160)
        text = maps.text >= 0.5
        iou = np.count_nonzero(gt_mask & text) / np.count_nonzero(gt_mask | text)
        assert iou >= 0.99

    def test_deterministic_per_seed(self):
        spec = SynthSpec(frame_h=32, frame_w=64,
                         bands=(SynthBand(y_center=16, height=8, x_start=6, x_end=58),),
                         noise_sigma=0.05, gamma=0.4)
        m1, _ = synth_maps(spec, seed=9)
        m2, _ = synth_maps(spec, seed=9)
        np.testing.assert_array_equal(m1.stack(), m2.stack())
        m3, _ = synth_maps(spec, seed=10)
        assert not np.array_equal(m1.stack(), m3.stack())

    def test_gamma_compresses_toward_half(self):
        spec = SynthSpec(frame_h=32, frame_w=64,
                         bands=(SynthBand(y_center=16, height=8, x_start=6, x_end=58),),
                         gamma=0.3)
        maps, _ = synth_maps(spec, seed=0)
        vals = np.unique(np.round(maps.text, 6))
        assert set(vals) == {0.35, 0.65}

    def test_out_of_frame_band_rejected(self):
        with pytest.raises(ValueError, match="outside frame"):
            SynthSpec(frame_h=30, frame_w=64,
                      bands=(SynthBand(y_center=28, height=10, x_start=6, x_end=58),))

    @pytest.mark.parametrize("field", ["y_center", "height", "x_start", "x_end", "amplitude",
                                       "period", "phase"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_band_field_rejected(self, field, value):
        kw = dict(y_center=20, height=10, x_start=8, x_end=88, amplitude=4.0, period=50.0)
        kw[field] = value
        with pytest.raises(ValueError, match=f"band {field} must be finite"):
            SynthBand(**kw)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -0.1])
    def test_bad_noise_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="noise_sigma"):
            SynthSpec(frame_h=40, frame_w=96, noise_sigma=sigma,
                      bands=(SynthBand(y_center=20, height=10, x_start=8, x_end=88),))

    def test_lowlight_suite_frozen(self):
        # the low-light criteria and scripts/lowlight_robustness.py must
        # keep seeing these 50 instances; the digest is of their bands
        specs = lowlight_suite(50, noise_sigma=0.1, gamma=0.15)
        digest = hashlib.sha256(repr([s.bands for s in specs]).encode()).hexdigest()
        assert digest == "1b1035c16e0b2e454d37c324aba9e31c7fd01836a272eee517bfe029dd55cae4"
        assert specs[0].bands == (SynthBand(y_center=64.47286498801027,
                                            height=16.752318481629676, x_start=14.0,
                                            x_end=210.0),)
        assert {(s.frame_h, s.frame_w, s.noise_sigma, s.gamma) for s in specs} == {
            (128, 224, 0.1, 0.15)}
        assert [len(s.bands) for s in specs[:6]] == [1, 1, 2, 1, 1, 2]
        # a shorter suite is a prefix of a longer one
        assert lowlight_suite(6, noise_sigma=0.1, gamma=0.15) == specs[:6]

    def test_band_polygon_width_matches_height(self):
        band = SynthBand(y_center=20, height=12, x_start=5, x_end=60)
        poly = band_polygon(band)
        ys = poly.vertices[:, 1]
        assert ys.min() == pytest.approx(14.0)
        assert ys.max() == pytest.approx(26.0)


def band_samples(spec):
    """(xs, ys, thetas, hs) of every centreline sample of a spec, in
    synth_maps' order."""
    return [np.concatenate(c) for c in zip(*(dataio._band_samples(b) for b in spec.bands))]


def assert_maps_match_oracle(spec, seed, monkeypatch):
    """synth_maps equals the brute-force nearest-sample search: the x, y, h
    and theta channels of the noise-free spec are the oracle's nearest
    samples, and all seven channels of the spec itself equal those built
    around the oracle's index, noise included."""
    xs, ys, thetas, hs = band_samples(spec)
    nearest = nearest_sample_oracle(xs, ys, spec.frame_h, spec.frame_w)
    clean, _ = synth_maps(dataclasses.replace(spec, noise_sigma=0.0), seed)
    for got, values in ((clean.x, xs), (clean.y, ys), (clean.h, hs), (clean.theta, thetas)):
        assert np.array_equal(got, values[nearest])
    maps, _ = synth_maps(spec, seed)
    with monkeypatch.context() as m:
        m.setattr(dataio, "_nearest_sample", lambda *_: nearest)
        want, _ = synth_maps(spec, seed)
    assert np.array_equal(maps.stack(), want.stack())
    return nearest


class TestNearestSample:
    """synth_maps' tiled search against nearest_sample_oracle."""

    # C05's 50 frames (their noise-free x, y, h and theta are C04's) and C13's 6
    @pytest.mark.parametrize("n,noise_sigma,gamma", [(50, 0.05, 0.3), (6, 0.1, 0.15)])
    def test_lowlight_suite(self, n, noise_sigma, gamma, monkeypatch):
        for i, spec in enumerate(lowlight_suite(n, noise_sigma=noise_sigma, gamma=gamma)):
            assert_maps_match_oracle(spec, 100 + i, monkeypatch)

    @pytest.mark.parametrize("h,w", [(256, 448), (640, 640)])
    def test_c11_specs(self, h, w, monkeypatch):
        assert_maps_match_oracle(c11_spec(h, w), 3, monkeypatch)

    def test_blocks_of_tile_rows(self, monkeypatch):
        # 64 KiB is less than one row of 14 tiles' bounds against C11's
        # 1668 samples at 256x448, so each of the 8 tile rows is its own
        # block
        monkeypatch.setattr(grids, "CHUNK_BYTES", 64 << 10)
        assert_maps_match_oracle(c11_spec(256, 448), 3, monkeypatch)

    @pytest.mark.parametrize("gap", [4, 5])
    def test_c12_specs(self, gap, monkeypatch):
        assert_maps_match_oracle(c12_spec(gap), 0, monkeypatch)

    def test_c14_spec(self, monkeypatch):
        assert_maps_match_oracle(dark_spec(640, 5, 0.15), 100, monkeypatch)

    def test_one_band_strip(self, monkeypatch):
        # one band per 128-row strip of a 640 px frame, as the curved-640
        # benchmark workload builds its frames
        band = SynthBand(y_center=64.0, height=21.0, x_start=47.0, x_end=598.0, amplitude=17.0,
                         period=143.0, phase=2.1)
        assert_maps_match_oracle(SynthSpec(128, 640, (band,), noise_sigma=0.05), 0, monkeypatch)

    @pytest.mark.parametrize("h,w", [(31, 47), (37, 75), (70, 129), (107, 640)])
    def test_sides_not_a_multiple_of_the_tile(self, h, w, monkeypatch):
        assert h % dataio._TILE or w % dataio._TILE
        bands = (SynthBand(y_center=h / 2, height=h / 3, x_start=2.0, x_end=w - 3.0,
                           amplitude=h / 10, period=w / 2.3, phase=0.4),
                 SynthBand(y_center=h / 3, height=4.0, x_start=w / 3, x_end=w / 2))
        assert_maps_match_oracle(SynthSpec(h, w, bands, noise_sigma=0.1, gamma=0.5), 7,
                                 monkeypatch)

    def test_bands_touching_the_frame_edges(self, monkeypatch):
        bands = (SynthBand(y_center=5.0, height=10.0, x_start=0.0, x_end=96.0),
                 SynthBand(y_center=60.0, height=8.0, x_start=0.0, x_end=40.0, amplitude=3.0,
                           period=30.0),
                 SynthBand(y_center=91.0, height=10.0, x_start=50.0, x_end=96.0))
        assert_maps_match_oracle(SynthSpec(96, 96, bands, noise_sigma=0.05), 1, monkeypatch)

    @pytest.mark.parametrize("order", [1, -1])
    def test_ties_go_to_the_lower_index(self, order, monkeypatch):
        # two straight bands mirrored about pixel-centre row 32, the first
        # row of the second tile row: each pixel there is as far from a
        # sample of either band, and the band listed first must win
        bands = tuple(SynthBand(y_center=32.5 + side * 8.0, height=8.0, x_start=4.0,
                                x_end=92.0) for side in (-order, order))
        spec = SynthSpec(64, 96, bands)
        xs, ys, _, _ = band_samples(spec)
        first = xs.size // 2
        assert np.array_equal(xs[:first], xs[first:])
        assert np.array_equal(32.5 - ys[:first], ys[first:] - 32.5)
        nearest = assert_maps_match_oracle(spec, 0, monkeypatch)
        assert np.all(nearest[32] < first)
        maps, _ = synth_maps(spec, 0)
        assert np.all(maps.y[32] == 32.5 - order * 8.0)

    def test_working_set_bounded_by_chunk_bytes(self, monkeypatch):
        # a 1280x1280 frame with 9 bands has 1600 tiles and 11 241 samples:
        # its bound matrices would take 144 MB each at once; in blocks the
        # search peaks at one block plus its (h, w) result and the four
        # (tiles along an axis, samples) distance arrays
        spec = dark_spec(1280, 9, 0.15)
        xs, ys, _, _ = band_samples(spec)
        monkeypatch.setattr(grids, "CHUNK_BYTES", 8 << 20)
        tracemalloc.start()
        try:
            dataio._nearest_sample(xs, ys, 1280, 1280)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        fixed = 1280 * 1280 * 8 + 4 * 40 * xs.size * 8
        assert peak < grids.CHUNK_BYTES + fixed + (4 << 20)
