#!/usr/bin/env python3
"""Stress the shaping pipeline against contrast dimming and map noise.

Generates a fixed suite of synthetic band instances, degrades the score
maps over a (gamma, sigma) grid, and reports detection P/R/F1 at IoU 0.5
for each setting with default shaping thresholds.
"""

import argparse

from textshaper.dataio import lowlight_suite, synth_maps
from textshaper.evaluation import aggregate, match_image
from textshaper.shaping import shape_text


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    ap.add_argument("--instances", type=int, default=30)
    ap.add_argument("--gammas", type=float, nargs="+", default=[1.0, 0.6, 0.3, 0.15])
    ap.add_argument("--sigmas", type=float, nargs="+", default=[0.0, 0.05, 0.1])
    ap.add_argument("--iou", type=float, default=0.5)
    args = ap.parse_args()

    print(f"{'gamma':>6} {'sigma':>6} {'P(%)':>7} {'R(%)':>7} {'F1(%)':>7}")
    for gamma in args.gammas:
        for sigma in args.sigmas:
            counts = []
            for i, spec in enumerate(lowlight_suite(args.instances, sigma, gamma)):
                maps, gt = synth_maps(spec, seed=100 + i)
                counts.append((f"img{i}", *match_image(shape_text(maps), gt, args.iou)))
            rep = aggregate(counts)
            print(f"{gamma:>6.2f} {sigma:>6.2f} {100 * rep.precision:>7.1f} "
                  f"{100 * rep.recall:>7.1f} {100 * rep.f1:>7.1f}")


if __name__ == "__main__":
    main()
