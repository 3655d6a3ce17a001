import argparse

import numpy as np
import pytest

from helpers import write_pgm
from textshaper.cli import build_parser, main
from textshaper.dataio import (parse_annotations, read_geometry_maps, read_pgm,
                               write_annotations, write_geometry_maps, write_map)
from textshaper.geometry import TextPolygon, polygon_iou
from textshaper.maps import GeometryMaps
from textshaper.shaping import FPS_CAP, ShapingConfig, farthest_point_sample_indices


def run(args):
    return main([str(a) for a in args])


def synth_dir(tmp_path, name="fix", **kw):
    out = tmp_path / name
    args = ["synth", "--out", out, "--kind", kw.pop("kind", "sinusoid"),
            "--seed", kw.pop("seed", 0)]
    for flag, value in kw.items():
        args += [f"--{flag}", value]
    assert run(args) == 0
    return out


class TestSynth:
    def test_fixture_files_written(self, tmp_path):
        out = synth_dir(tmp_path)
        assert (out / "maps.tmap").exists()
        assert (out / "gt.txt").exists()
        maps = read_geometry_maps(out / "maps.tmap")
        assert maps.shape == (128, 224)

    def test_same_seed_bit_identical(self, tmp_path):
        a = synth_dir(tmp_path, "a", noise=0.05, gamma=0.5, seed=3)
        b = synth_dir(tmp_path, "b", noise=0.05, gamma=0.5, seed=3)
        assert (a / "maps.tmap").read_bytes() == (b / "maps.tmap").read_bytes()
        assert (a / "gt.txt").read_bytes() == (b / "gt.txt").read_bytes()

    def test_amplitude_zero_equals_straight(self, tmp_path):
        a = synth_dir(tmp_path, "a", kind="sinusoid", amplitude=0.0)
        b = synth_dir(tmp_path, "b", kind="straight")
        assert (a / "maps.tmap").read_bytes() == (b / "maps.tmap").read_bytes()

    def test_out_of_frame_is_usage_error(self, tmp_path, capsys):
        code = run(["synth", "--out", tmp_path / "x", "--kind", "straight",
                    "--frame", 24, 64, "--height", 40])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--noise", "nan"), ("--noise", "inf"),
                                             ("--height", "nan"), ("--amplitude", "nan"),
                                             ("--phase", "inf"), ("--period", "inf")])
    def test_non_finite_setting_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x"
        assert run(["synth", "--out", out, flag, value]) == 2
        assert flag[2:] in capsys.readouterr().err
        assert not out.exists()


class TestShape:
    def test_shape_recovers_fixture(self, tmp_path):
        out = synth_dir(tmp_path)
        pred = tmp_path / "pred.txt"
        assert run(["shape", "--maps", out / "maps.tmap", "--out", pred]) == 0
        polys, _ = parse_annotations(pred)
        gts, _ = parse_annotations(out / "gt.txt")
        assert len(polys) == 1
        assert polygon_iou(polys[0], gts[0]) >= 0.90

    def test_zero_maps_empty_output(self, tmp_path):
        z = np.zeros((32, 32))
        maps = GeometryMaps(text=z, center=z, x=z, y=z, h=z, w=z, theta=z)
        path = tmp_path / "zero.tmap"
        write_geometry_maps(path, maps)
        pred = tmp_path / "pred.txt"
        assert run(["shape", "--maps", path, "--out", pred]) == 0
        assert pred.read_text() == ""

    def test_missing_maps_file_exits_2_with_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.tmap"
        code = run(["shape", "--maps", missing, "--out", tmp_path / "o.txt"])
        assert code == 2
        assert "nope.tmap" in capsys.readouterr().err

    def test_missing_section_exits_2(self, tmp_path, capsys):
        path = tmp_path / "partial.tmap"
        write_map(path, {"text": np.zeros((4, 4))})
        code = run(["shape", "--maps", path, "--out", tmp_path / "o.txt"])
        assert code == 2
        assert "missing" in capsys.readouterr().err

    def test_scale_multiplies_coordinates(self, tmp_path):
        out = synth_dir(tmp_path)
        p1, p2 = tmp_path / "p1.txt", tmp_path / "p2.txt"
        assert run(["shape", "--maps", out / "maps.tmap", "--out", p1]) == 0
        assert run(["shape", "--maps", out / "maps.tmap", "--out", p2, "--scale", 2.0]) == 0
        a, _ = parse_annotations(p1)
        b, _ = parse_annotations(p2)
        np.testing.assert_allclose(b[0].vertices, 2.0 * a[0].vertices, atol=1.0)

    def test_image_stub_path_runs(self, tmp_path):
        rng = np.random.default_rng(0)
        img = tmp_path / "img.pgm"
        write_pgm(img, rng.uniform(size=(48, 48)))
        pred = tmp_path / "pred.txt"
        assert run(["shape", "--image", img, "--resize", 64, "--out", pred,
                    "--seed", 1]) == 0
        assert pred.exists()

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_image_polygons_are_in_the_input_frame(self, tmp_path, monkeypatch, scale):
        # A 48x64 image at --resize 32 gives 8x8 head maps at stride 4: a map
        # unit is 64 / 8 = 8 px across and 48 / 8 = 6 px down the input.
        square = np.array([[1, 1], [5, 1], [5, 3], [1, 3]], float)
        monkeypatch.setattr("textshaper.cli.shape_text",
                            lambda maps: [TextPolygon(square.copy())])
        img, pred = tmp_path / "img.pgm", tmp_path / "pred.txt"
        write_pgm(img, np.full((48, 64), 0.5))
        assert run(["shape", "--image", img, "--resize", 32, "--out", pred,
                    "--scale", scale]) == 0
        (poly,), _ = parse_annotations(pred)
        np.testing.assert_array_equal(poly.vertices, square * (8 * scale, 6 * scale))

    @pytest.mark.parametrize("value", [0, -1, "nan", "inf"])
    def test_bad_scale_is_usage_error(self, tmp_path, capsys, value):
        pred = tmp_path / "pred.txt"
        # The maps file does not exist: the flag must be rejected before it is read.
        assert run(["shape", "--maps", tmp_path / "missing.tmap", "--out", pred,
                    "--scale", value]) == 2
        assert "--scale" in capsys.readouterr().err
        assert not pred.exists()

    @pytest.mark.parametrize("size", [0, -32, 48])
    def test_bad_resize_is_usage_error(self, tmp_path, capsys, size):
        img = tmp_path / "img.pgm"
        write_pgm(img, np.full((8, 8), 0.5))
        pred = tmp_path / "pred.txt"
        assert run(["shape", "--image", img, "--resize", size, "--out", pred]) == 2
        assert "--resize" in capsys.readouterr().err
        assert not pred.exists()


class TestEval:
    def make_dirs(self, tmp_path, perfect=True):
        gt_dir = tmp_path / "gt"
        pred_dir = tmp_path / "pred"
        gt_dir.mkdir(parents=True)
        pred_dir.mkdir(parents=True)
        poly = TextPolygon(np.array([[2, 2], [30, 2], [30, 12], [2, 12]], float))
        for i in range(3):
            write_annotations(gt_dir / f"img{i}.txt", [poly])
            if perfect:
                write_annotations(pred_dir / f"img{i}.txt", [poly])
        return pred_dir, gt_dir

    def test_perfect_predictions(self, tmp_path, capsys):
        pred_dir, gt_dir = self.make_dirs(tmp_path)
        assert run(["eval", "--pred", pred_dir, "--gt", gt_dir]) == 0
        out = capsys.readouterr().out
        assert "precision=1.000000" in out
        assert "recall=1.000000" in out
        assert "f1=1.000000" in out

    def test_empty_pred_dir_zero_recall(self, tmp_path, capsys):
        pred_dir, gt_dir = self.make_dirs(tmp_path, perfect=False)
        assert run(["eval", "--pred", pred_dir, "--gt", gt_dir]) == 0
        out = capsys.readouterr().out
        assert "recall=0.000000" in out
        assert "fn=3" in out

    def test_assert_f1_gate(self, tmp_path):
        pred_dir, gt_dir = self.make_dirs(tmp_path, perfect=False)
        assert run(["eval", "--pred", pred_dir, "--gt", gt_dir, "--assert-f1", 50.0]) == 1
        assert run(["eval", "--pred", pred_dir, "--gt", gt_dir, "--assert-f1", 100.0]) == 1
        assert run(["eval", "--pred", pred_dir, "--gt", gt_dir, "--assert-f1", 0.0]) == 0
        pred_dir, gt_dir = self.make_dirs(tmp_path / "p", perfect=True)
        assert run(["eval", "--pred", pred_dir, "--gt", gt_dir, "--assert-f1", 99.0]) == 0

    @pytest.mark.parametrize("value", ["nan", "inf", -5, -0.01, 100.01, 150])
    def test_assert_f1_out_of_range_is_usage_error(self, tmp_path, capsys, value):
        # F1 is 0 here, so a gate that skipped the range check would exit 0 or 1.
        pred_dir, gt_dir = self.make_dirs(tmp_path, perfect=False)
        assert run(["eval", "--pred", pred_dir, "--gt", gt_dir, "--assert-f1", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--assert-f1" in captured.err

    @pytest.mark.parametrize("pred_line, counts", [
        ("2,2,30,2,30,12,2,12", ("tp=1", "fp=0", "fn=0")),
        ("40,20,70,20,70,30,40,30", ("tp=0", "fp=0", "fn=1")),
    ])
    def test_ignore_flags_are_honoured(self, tmp_path, capsys, pred_line, counts):
        pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        (gt_dir / "img0.txt").write_text(
            "2,2,30,2,30,12,2,12\n40,20,70,20,70,30,40,30,#ignore\n")
        (pred_dir / "img0.txt").write_text(pred_line + "\n")
        assert run(["eval", "--pred", pred_dir, "--gt", gt_dir]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(c in lines for c in counts)

    def test_missing_gt_dir_exits_2(self, tmp_path, capsys):
        code = run(["eval", "--pred", tmp_path, "--gt", tmp_path / "missing"])
        assert code == 2
        assert "missing" in capsys.readouterr().err

    def test_coordinate_too_large_for_a_float_exits_2(self, tmp_path, capsys):
        pred_dir, gt_dir = self.make_dirs(tmp_path)
        (gt_dir / "img1.txt").write_text("1,1," + "9" * 400 + ",1,1,5\n")
        assert run(["eval", "--pred", pred_dir, "--gt", gt_dir]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "img1.txt:1: token 3 (400 digits) is too large" in captured.err

    def test_non_ascii_coordinate_exits_2(self, tmp_path, capsys):
        pred_dir, gt_dir = self.make_dirs(tmp_path)
        (gt_dir / "img1.txt").write_text("1,1,\uff15,1,1,5\n", encoding="utf-8")
        assert run(["eval", "--pred", pred_dir, "--gt", gt_dir]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "img1.txt:1: token 3 ('\uff15') is not an integer" in captured.err

    def test_pair_over_iou_budget_exits_2(self, tmp_path, capsys):
        from test_geometry import jittered_star

        pred_dir, gt_dir = self.make_dirs(tmp_path)
        spiky = [TextPolygon(np.round(100 * jittered_star(2000, seed, center=c) + 20000))
                 for seed, c in ((0, (0.0, 0.0)), (1, (7.0, -4.0)))]
        write_annotations(pred_dir / "img1.txt", spiky[:1])
        write_annotations(gt_dir / "img1.txt", spiky[1:])
        assert run(["eval", "--pred", pred_dir, "--gt", gt_dir]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: img1.txt: polygon pair needs 8418459 candidate edge pairs, over " \
               "polygon_iou's budget of" in captured.err

    @pytest.mark.parametrize("flag, value", [("--iou", 0), ("--iou", 1.5), ("--iou", -0.2)])
    def test_bad_threshold_or_jobs_is_usage_error(self, tmp_path, capsys, flag, value):
        pred_dir, gt_dir = self.make_dirs(tmp_path)
        assert run(["eval", "--pred", pred_dir, "--gt", gt_dir, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err


class TestBench:
    def parse_kv(self, out):
        return dict(line.split("=", 1) for line in out.strip().splitlines())

    def test_single_candidate(self, capsys):
        assert run(["bench", "--n-candidates", 1, "--trials", 2]) == 0
        kv = self.parse_kv(capsys.readouterr().out)
        assert kv["fps_overlap_ops"] == "0"
        assert kv["nms_overlap_ops"] == "0"

    def test_counter_contrast(self, capsys):
        assert run(["bench", "--n-candidates", 60, "--trials", 2]) == 0
        kv = self.parse_kv(capsys.readouterr().out)
        assert kv["fps_overlap_ops"] == "0"
        assert int(kv["nms_overlap_ops"]) > 0

    def test_overlap_count_grows_with_k(self, capsys):
        ops = []
        for k in (40, 160):
            assert run(["bench", "--n-candidates", k, "--trials", 1]) == 0
            ops.append(int(self.parse_kv(capsys.readouterr().out)["nms_overlap_ops"]))
        assert ops[1] > ops[0]

    def test_overlap_count_matches_brute_force_oracle(self, capsys):
        from helpers import normalize_angle_scalar_oracle
        from test_shaping import rect_iou_oracle
        from textshaper.cli import _bench_candidates

        k = 50
        assert run(["bench", "--n-candidates", k, "--trials", 1, "--seed", 5]) == 0
        reported = int(self.parse_kv(capsys.readouterr().out)["nms_overlap_ops"])

        pts, thetas, heights, scores = _bench_candidates(k, seed=5)
        rects = [(x, y, h, 4.0, normalize_angle_scalar_oracle(t)) for (x, y), t, h in zip(
            pts.tolist(), thetas.tolist(), heights.tolist())]
        order = sorted(range(k), key=lambda i: (-scores[i], i))
        kept, expected_ops = [], 0
        for i in order:
            hit = False
            for j in kept:
                expected_ops += 1
                if rect_iou_oracle(rects[i], rects[j]) > 0.5:
                    hit = True
                    break
            if not hit:
                kept.append(i)
        assert reported == expected_ops

    @pytest.mark.parametrize("k, nms_ops, fps_kept, nms_kept", [(50, 1136, 39, 47),
                                                                (300, 28206, 109, 206)])
    def test_counts_pinned(self, capsys, k, nms_ops, fps_kept, nms_kept):
        assert run(["bench", "--n-candidates", k, "--trials", 2, "--seed", 0]) == 0
        kv = self.parse_kv(capsys.readouterr().out)
        assert (kv["fps_overlap_ops"], kv["nms_overlap_ops"], kv["fps_kept"], kv["nms_kept"]) == (
            "0", str(nms_ops), str(fps_kept), str(nms_kept))

    def test_fps_kept_follows_shaping_rule(self, capsys):
        from textshaper.cli import _bench_candidates

        assert run(["bench", "--n-candidates", 50, "--trials", 1, "--seed", 5]) == 0
        kept = int(self.parse_kv(capsys.readouterr().out)["fps_kept"])
        pts = _bench_candidates(50, seed=5)[0]
        assert kept == len(farthest_point_sample_indices(pts, FPS_CAP,
                                                         ShapingConfig().coverage_radius))

    @pytest.mark.parametrize("trials", [0, -1])
    def test_nonpositive_trials_is_usage_error(self, capsys, trials):
        assert run(["bench", "--n-candidates", 5, "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--trials" in captured.err


class TestRender:
    def test_empty_polygons_copies_image(self, tmp_path):
        rng = np.random.default_rng(1)
        gray = rng.uniform(size=(10, 14))
        img = tmp_path / "in.pgm"
        write_pgm(img, gray)
        polys = tmp_path / "p.txt"
        polys.write_text("")
        out = tmp_path / "out.ppm"
        assert run(["render", "--image", img, "--polys", polys, "--out", out]) == 0
        data = out.read_bytes()
        expected = (read_pgm(img) * 255).round().astype(np.uint8)
        pixels = np.frombuffer(data.split(b"255\n", 1)[1], dtype=np.uint8).reshape(10, 14, 3)
        for c in range(3):
            np.testing.assert_array_equal(pixels[:, :, c], expected)

    def test_rectangle_outline_recolored(self, tmp_path):
        img = tmp_path / "in.pgm"
        write_pgm(img, np.zeros((16, 16)))
        polys = tmp_path / "p.txt"
        polys.write_text("2,2,9,2,9,8,2,8\n")
        out = tmp_path / "out.ppm"
        assert run(["render", "--image", img, "--polys", polys, "--out", out]) == 0
        data = out.read_bytes().split(b"255\n", 1)[1]
        pixels = np.frombuffer(data, dtype=np.uint8).reshape(16, 16, 3)
        red = set(zip(*np.nonzero(pixels[:, :, 0] == 255)))
        expected = set()
        for x in range(2, 10):
            expected.add((2, x))
            expected.add((8, x))
        for y in range(2, 9):
            expected.add((y, 2))
            expected.add((y, 9))
        assert red == expected

    def test_bad_pgm_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"JUNKJUNK")
        polys = tmp_path / "p.txt"
        polys.write_text("")
        assert run(["render", "--image", bad, "--polys", polys,
                    "--out", tmp_path / "o.ppm"]) == 2
        assert "error:" in capsys.readouterr().err


class TestParser:
    def test_help_exits_zero_and_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["shape", "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())  # help wraps at the terminal width
        assert "default: 640" in out
        assert "EXPERIMENTAL" in out

    def test_option_surface_is_pinned(self):
        # Every flag is a promise to callers: adding or dropping one must edit this test.
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        surface = {name: {s for a in p._actions if a.dest != "help" for s in a.option_strings}
                   for name, p in sub.choices.items()}
        assert surface == {
            "shape": {"--maps", "--image", "--resize", "--out", "--scale", "--seed"},
            "eval": {"--pred", "--gt", "--iou", "--assert-f1"},
            "bench": {"--n-candidates", "--trials", "--seed"},
            "synth": {"--out", "--kind", "--frame", "--height", "--amplitude", "--period",
                      "--phase", "--noise", "--gamma", "--seed"},
            "render": {"--image", "--polys", "--out"},
        }

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("inputs", [["--maps", "m.tmap", "--image", "i.pgm"], []],
                             ids=["both", "neither"])
    def test_shape_takes_exactly_one_input(self, tmp_path, capsys, inputs):
        with pytest.raises(SystemExit) as exc:
            main(["shape", *inputs, "--out", str(tmp_path / "pred.txt")])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert not (tmp_path / "pred.txt").exists()
