#!/usr/bin/env python3
"""Stress the shaping pipeline against contrast dimming and map noise.

Generates a fixed suite of synthetic band instances, degrades the score
maps over a (gamma, sigma) grid, and reports detection P/R/F1 at IoU 0.5
for each setting with default shaping thresholds, and the median time of
one `shape_text` call per frame. Dark settings break each centre line into
hundreds of components, so that column shows their cost per frame:

    PYTHONPATH=src python scripts/lowlight_robustness.py --gammas 0.3 0.15 --sigmas 0.1
"""

import argparse
import math
import statistics
import time

from textshaper.dataio import lowlight_suite, synth_maps
from textshaper.evaluation import ImageCounts, aggregate, match_image
from textshaper.shaping import shape_text


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    ap.add_argument("--instances", type=int, default=30)
    ap.add_argument("--gammas", type=float, nargs="+", default=[1.0, 0.6, 0.3, 0.15])
    ap.add_argument("--sigmas", type=float, nargs="+", default=[0.0, 0.05, 0.1])
    ap.add_argument("--iou", type=float, default=0.5)
    args = ap.parse_args()
    if args.instances < 1:
        ap.error(f"--instances must be >= 1, got {args.instances}")
    if not 0.0 < args.iou <= 1.0:
        ap.error(f"--iou must lie in (0, 1], got {args.iou}")
    for gamma in args.gammas:
        if not 0.0 < gamma <= 1.0:
            ap.error(f"--gammas must lie in (0, 1], got {gamma}")
    for sigma in args.sigmas:
        if not 0.0 <= sigma < math.inf:
            ap.error(f"--sigmas must be >= 0 and finite, got {sigma}")

    print(f"{'gamma':>6} {'sigma':>6} {'P(%)':>7} {'R(%)':>7} {'F1(%)':>7} {'shape(ms)':>9}")
    for gamma in args.gammas:
        for sigma in args.sigmas:
            counts, times = [], []
            for i, spec in enumerate(lowlight_suite(args.instances, sigma, gamma)):
                maps, gt = synth_maps(spec, seed=100 + i)
                t0 = time.perf_counter()
                polys = shape_text(maps)
                times.append(time.perf_counter() - t0)
                counts.append(ImageCounts(f"img{i}", *match_image(polys, gt, args.iou)))
            rep = aggregate(counts)
            print(f"{gamma:>6.2f} {sigma:>6.2f} {100 * rep.precision:>7.1f} "
                  f"{100 * rep.recall:>7.1f} {100 * rep.f1:>7.1f} "
                  f"{1e3 * statistics.median(times):>9.1f}")


if __name__ == "__main__":
    main()
