"""Command-line surface: shape maps into polygons, evaluate predictions,
benchmark sampling against NMS, generate synthetic fixtures, render overlays.

Exit codes: 0 success, 1 evaluation below the --assert-f1 bar, 2 usage or
I/O error. Structured metric output goes to stdout as key=value lines; logs
and errors go to stderr.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from .dataio import (SynthBand, SynthSpec, draw_polygon_outline, parse_annotations,
                     read_geometry_maps, read_pgm, synth_maps, write_annotations,
                     write_geometry_maps, write_ppm)
from .evaluation import ImageCounts, aggregate, format_report, match_image, report_lines
from .geometry import TextPolygon, normalize_angle
from .grids import resize_bilinear
from .pyramid import (PyramidSpec, backbone_stub, dsf_forward, geometry_maps_from_head,
                      init_dsf_params, init_stub_params)
from .shaping import (FPS_CAP, OVERLAP_COUNTER, ShapingConfig, farthest_point_sample_indices,
                      nms_baseline, shape_text)

# Every library error type subclasses ValueError.
_CLI_ERRORS = (ValueError, OSError)


def cmd_shape(args) -> int:
    if not 0.0 < args.scale < math.inf:
        raise ValueError(f"--scale must be positive and finite, got {args.scale}")
    scale = np.full(2, args.scale)
    if args.image is not None:
        size = args.resize
        if size < 32 or size % 32:
            raise ValueError(f"--resize must be a positive multiple of 32, got {size}")
        gray = read_pgm(args.image)
        image = resize_bilinear(gray, size, size)
        spec = PyramidSpec()
        feats = backbone_stub(image, init_stub_params(args.seed, channels=spec.channels))
        out = dsf_forward(feats, init_dsf_params(spec, args.seed), spec)
        maps = geometry_maps_from_head(out.head)
        h, w = gray.shape
        scale *= (w / maps.shape[1], h / maps.shape[0])
    else:
        maps = read_geometry_maps(args.maps)
    polys = shape_text(maps)
    scaled = [TextPolygon(p.vertices * scale) for p in polys]
    write_annotations(args.out, scaled)
    print(f"polygons={len(scaled)}", file=sys.stderr)
    return 0


def _eval_one(name: str, pred_dir: Path, gt_dir: Path, iou_thresh: float) -> ImageCounts:
    pred, gt = pred_dir / name, gt_dir / name
    preds = parse_annotations(pred)[0] if pred.exists() else []
    gts, flags = parse_annotations(gt) if gt.exists() else ([], [])
    try:
        tp, fp, fn = match_image(preds, gts, iou_thresh, ignore=flags)
    except ValueError as e:
        raise ValueError(f"{name}: {e}") from None
    return ImageCounts(name=name, tp=tp, fp=fp, fn=fn)


def cmd_eval(args) -> int:
    if not 0.0 < args.iou <= 1.0:
        raise ValueError(f"--iou must lie in (0, 1], got {args.iou}")
    if args.assert_f1 is not None and not 0.0 <= args.assert_f1 <= 100.0:
        raise ValueError(f"--assert-f1 must lie in [0, 100], got {args.assert_f1}")
    pred_dir, gt_dir = Path(args.pred), Path(args.gt)
    if not gt_dir.is_dir():
        raise OSError(f"ground-truth directory not found: {gt_dir}")
    if not pred_dir.is_dir():
        raise OSError(f"prediction directory not found: {pred_dir}")
    names = sorted({p.name for p in gt_dir.glob("*.txt")} | {p.name for p in pred_dir.glob("*.txt")})
    report = aggregate(_eval_one(name, pred_dir, gt_dir, args.iou) for name in names)
    print(format_report(report))
    for line in report_lines(report):
        print(line)
    if args.assert_f1 is not None and report.f1 * 100.0 < args.assert_f1:
        print(f"f1 {100 * report.f1:.2f} below required {args.assert_f1:.2f}", file=sys.stderr)
        return 1
    return 0


def _bench_candidates(k: int, seed: int):
    """Candidate component centers jittered around a sinusoidal centerline."""
    rng = np.random.default_rng(seed)
    frame_w, y0, amp, period = 512.0, 128.0, 18.0, 160.0
    xs = rng.uniform(24.0, frame_w - 24.0, k)
    arg = 2.0 * math.pi * xs / period
    ys = y0 + amp * np.sin(arg) + rng.normal(0.0, 2.0, k)
    thetas = np.arctan(amp * 2.0 * math.pi / period * np.cos(arg))
    heights = np.full(k, 12.0)
    scores = rng.uniform(0.5, 1.0, k)
    return np.column_stack([xs, ys]), thetas, heights, scores


def cmd_bench(args) -> int:
    k = args.n_candidates
    if k < 1:
        raise ValueError(f"--n-candidates must be >= 1, got {k}")
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    cfg = ShapingConfig()
    fps_times, nms_times = [], []
    fps_ops = nms_ops = 0
    fps_kept = nms_kept = 0
    for trial in range(args.trials):
        pts, thetas, heights, scores = _bench_candidates(k, args.seed + trial)
        rows = np.column_stack([pts, heights, np.full(k, cfg.rect_width),
                                normalize_angle(thetas)])

        OVERLAP_COUNTER.reset()
        t0 = time.perf_counter()
        idx = farthest_point_sample_indices(pts, FPS_CAP, cfg.coverage_radius)
        fps_rows = rows[idx]
        fps_times.append(time.perf_counter() - t0)
        fps_ops = OVERLAP_COUNTER.count
        fps_kept = len(fps_rows)

        OVERLAP_COUNTER.reset()
        t0 = time.perf_counter()
        kept = nms_baseline(rows, scores)
        nms_times.append(time.perf_counter() - t0)
        nms_ops = OVERLAP_COUNTER.count
        nms_kept = len(kept)
    print(f"k={k}")
    print(f"trials={args.trials}")
    print(f"fps_median_ms={1000 * statistics.median(fps_times):.3f}")
    print(f"nms_median_ms={1000 * statistics.median(nms_times):.3f}")
    print(f"fps_overlap_ops={fps_ops}")
    print(f"nms_overlap_ops={nms_ops}")
    print(f"fps_kept={fps_kept}")
    print(f"nms_kept={nms_kept}")
    return 0


def _build_spec(args) -> SynthSpec:
    h, w = args.frame
    margin = 12.0
    x0, x1 = margin, w - margin
    if args.kind == "straight":
        bands = (SynthBand(y_center=h / 2.0, height=args.height, x_start=x0, x_end=x1),)
    elif args.kind == "sinusoid":
        bands = (SynthBand(y_center=h / 2.0, height=args.height, x_start=x0, x_end=x1,
                           amplitude=args.amplitude, period=args.period, phase=args.phase),)
    else:  # two-band
        bands = (
            SynthBand(y_center=h / 3.0, height=args.height, x_start=x0, x_end=x1,
                      amplitude=args.amplitude, period=args.period, phase=args.phase),
            SynthBand(y_center=2.0 * h / 3.0, height=args.height, x_start=x0, x_end=x1),
        )
    return SynthSpec(frame_h=h, frame_w=w, bands=bands,
                     noise_sigma=args.noise, gamma=args.gamma)


def cmd_synth(args) -> int:
    spec = _build_spec(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    maps, gt = synth_maps(spec, args.seed)
    write_geometry_maps(out_dir / "maps.tmap", maps)
    write_annotations(out_dir / "gt.txt", gt)
    print(f"wrote {out_dir / 'maps.tmap'} and {out_dir / 'gt.txt'}", file=sys.stderr)
    return 0


def cmd_render(args) -> int:
    gray = read_pgm(args.image)
    polys, _ = parse_annotations(args.polys)
    rgb = np.repeat((gray * 255.0).round().astype(np.uint8)[:, :, None], 3, axis=2)
    for poly in polys:
        draw_polygon_outline(rgb, poly, color=(255, 0, 0))
    write_ppm(args.out, rgb)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="textshaper",
        description="Bottom-up text shaping, evaluation, and benchmarking tools.")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("shape", formatter_class=fmt,
                       help="shape head maps into text polygons")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--maps", help="input .tmap file with the seven head map sections")
    source.add_argument("--image", help="EXPERIMENTAL: grayscale PGM run through the untrained "
                                        "backbone stub and pyramid (slow at the default size)")
    p.add_argument("--resize", type=int, default=640,
                   help="square frame for --image (divisible by 32)")
    p.add_argument("--out", required=True, help="output polygon annotation file")
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply output coordinates by this factor")
    p.add_argument("--seed", type=int, default=0, help="parameter seed for --image")
    p.set_defaults(func=cmd_shape)

    p = sub.add_parser("eval", formatter_class=fmt,
                       help="match prediction polygons against ground truth")
    p.add_argument("--pred", required=True, help="directory of predicted .txt files")
    p.add_argument("--gt", required=True, help="directory of ground-truth .txt files")
    p.add_argument("--iou", type=float, default=0.5, help="match IoU threshold")
    p.add_argument("--assert-f1", type=float, default=None,
                   help="exit 1 when F1 (percent, 0-100) falls below this value")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", formatter_class=fmt,
                       help="time farthest-point sampling against greedy NMS")
    p.add_argument("--n-candidates", type=int, default=2000, help="candidate count K")
    p.add_argument("--trials", type=int, default=20, help="timed trials")
    p.add_argument("--seed", type=int, default=0, help="candidate generator seed")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("synth", formatter_class=fmt,
                       help="generate synthetic head maps plus ground truth")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--kind", choices=("straight", "sinusoid", "two-band"), default="sinusoid")
    p.add_argument("--frame", type=int, nargs=2, default=(128, 224), metavar=("H", "W"))
    p.add_argument("--height", type=float, default=14.0, help="band height (px)")
    p.add_argument("--amplitude", type=float, default=8.0, help="sinusoid amplitude (px)")
    p.add_argument("--period", type=float, default=96.0, help="sinusoid period (px)")
    p.add_argument("--phase", type=float, default=0.0, help="sinusoid phase (rad)")
    p.add_argument("--noise", type=float, default=0.0, help="Gaussian map noise sigma")
    p.add_argument("--gamma", type=float, default=1.0,
                   help="score contrast gain in (0, 1]; lower is murkier")
    p.add_argument("--seed", type=int, default=0, help="noise seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("render", formatter_class=fmt,
                       help="draw polygon outlines over a PGM image as PPM")
    p.add_argument("--image", required=True, help="input grayscale PGM (P5)")
    p.add_argument("--polys", required=True, help="polygon annotation file")
    p.add_argument("--out", required=True, help="output PPM (P6)")
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CLI_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
