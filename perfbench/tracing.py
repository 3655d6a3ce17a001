"""In-memory span tracer that wraps textshaper functions at their module
attributes.

Every binding of a wrapped function inside the ``textshaper`` package is
replaced while the tracer is installed, so calls the package makes to
itself (``shape_text`` -> ``rasterize``, ``dsf_forward`` ->
``modulation_block``) are caught as well as the benchmark's own calls.
A span is ``(name, start, end, parent, frame)``; a layer's self time is its
duration minus the durations of its direct children. Counters are summed
at the same boundaries. Nothing is written until the run ends.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

from textshaper import evaluation, geometry, grids, pyramid, shaping, snakeconv
from workloads import IOU_THRESH

# Spans whose time is reported by name; the pyramid level spans get their
# level index spliced in ("pyramid.L2.snake").
LEVELS = 4
TIME_METRICS = (
    ["dataio.read_geometry_maps", "dataio.parse_annotations",
     "shaping.shape_text", "shaping.extract_centers", "shaping.farthest_point_sample",
     "shaping.build_components", "shaping.accumulate_and_close", "geometry.rasterize",
     "shaping.close_binary", "shaping.trace_contours", "shaping.trace_boundary",
     "shaping.douglas_peucker", "evaluation.match_image", "geometry.polygon_iou",
     "pyramid.backbone_stub", "pyramid.dsf_forward", "pyramid.head", "grids.upsample2x"]
    + [f"pyramid.L{i}.{part}" for i in range(LEVELS)
       for part in ("block", "conv3x3", "snake", "attention", "proj1x1")])
COUNT_METRICS = (
    "dataio.read_geometry_maps.bytes", "shaping.components", "shaping.centers_sampled",
    "shaping.fps_budget_hits", "shaping.rects", "shaping.polygons", "shaping.overlap_ops",
    "geometry.polygon_iou.calls", "geometry.iou.bbox_reject", "geometry.iou.convex_clip",
    "geometry.iou.raster_fallback", "snakeconv.gathered_values", "grids.conv2d.macs")


class Tracer:
    """Spans and counters of one traced phase. Not thread-safe: the
    benchmark drives one frame at a time from one thread."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.stack: list[int] = []
        self.frame = -1
        self.level = -1
        self.overlap0 = 0
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans and counters -------------------------------------------------

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.frame))
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        name, start, _, parent, frame = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, frame)
        self.stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] += n

    # -- installation -------------------------------------------------------

    def _wrap(self, fn, namer, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            name = namer(args, kwargs) if callable(namer) else namer
            if name is None:
                result = fn(*args, **kwargs)
            else:
                idx = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def _patch(self, module, attr, namer, after=None, everywhere=True):
        """Replace module.attr, and every other package binding of the same
        function object, by a tracing wrapper."""
        fn = getattr(module, attr)
        wrapper = self._wrap(fn, namer, after)
        targets = [module]
        if everywhere:
            targets = [m for n, m in sys.modules.items()
                       if m is not None and (n == "textshaper" or n.startswith("textshaper."))]
        for mod in targets:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, name, fn))
                    setattr(mod, name, wrapper)

    def install(self) -> None:
        from textshaper import dataio

        self._patch(dataio, "read_geometry_maps", "dataio.read_geometry_maps",
                    lambda r, a, k: self.count("dataio.read_geometry_maps.bytes",
                                               os.path.getsize(a[0])))
        self._patch(dataio, "parse_annotations", "dataio.parse_annotations")

        self._patch(shaping, "shape_text", self._name_shape, self._after_shape)
        self._patch(shaping, "extract_centers", "shaping.extract_centers",
                    lambda r, a, k: self.count("shaping.components", len(r)))
        self._patch(shaping, "farthest_point_sample", "shaping.farthest_point_sample",
                    self._after_fps)
        self._patch(shaping, "build_components", "shaping.build_components",
                    lambda r, a, k: self.count("shaping.rects", len(r)))
        self._patch(shaping, "accumulate_and_close", "shaping.accumulate_and_close")
        self._patch(shaping, "close_binary", "shaping.close_binary")
        self._patch(shaping, "trace_contours", "shaping.trace_contours")
        self._patch(shaping, "trace_boundary", "shaping.trace_boundary")
        self._patch(shaping, "douglas_peucker", "shaping.douglas_peucker")
        # Only the shaping use of rasterize is a span of its own; inside
        # polygon_iou's raster fallback it stays part of the IoU time.
        self._patch(geometry, "rasterize", self._name_rasterize, self._after_rasterize)

        self._patch(evaluation, "match_image", "evaluation.match_image")
        self._patch(geometry, "polygon_iou", self._name_iou, self._after_iou)

        self._patch(pyramid, "backbone_stub", "pyramid.backbone_stub")
        self._patch(pyramid, "dsf_forward", self._name_dsf)
        self._patch(pyramid, "modulation_block", self._name_block)
        self._patch(pyramid, "gated_attention", self._level_name("attention"))
        self._patch(snakeconv, "dsc_forward", self._level_name("snake"))
        self._patch(grids, "conv2d", self._name_conv, self._after_conv)
        self._patch(grids, "upsample2x", "grids.upsample2x")
        self._patch(snakeconv, "bilinear_sample", None, self._after_gather, everywhere=False)

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._patches):
            setattr(mod, name, fn)
        self._patches.clear()

    # -- namers and counters for individual functions -----------------------

    def _name_shape(self, args, kwargs):
        self.overlap0 = shaping.OVERLAP_COUNTER.count
        return "shaping.shape_text"

    def _after_shape(self, polys, args, kwargs):
        self.count("shaping.polygons", len(polys))
        self.count("shaping.overlap_ops", shaping.OVERLAP_COUNTER.count - self.overlap0)

    def _after_fps(self, result, args, kwargs):
        budget = kwargs["budget"] if "budget" in kwargs else args[1]
        n = len(result)
        self.count("shaping.centers_sampled", n)
        self.count("shaping.fps_budget_hits", int(n == budget))

    def _name_rasterize(self, args, kwargs):
        return "geometry.rasterize" if self.parent_name() == "shaping.accumulate_and_close" else None

    def _after_rasterize(self, mask, args, kwargs):
        if self.parent_name() == "shaping.accumulate_and_close":
            self.count("raster.set", int(np.count_nonzero(mask)))
            self.count("raster.cells", mask.size)

    def _name_iou(self, args, kwargs):
        a, b = (np.asarray(getattr(p, "vertices", p), dtype=np.float64) for p in args[:2])
        if geometry.polygon_area(a) > 0 and geometry.polygon_area(b) > 0:
            if (a[:, 0].max() <= b[:, 0].min() or b[:, 0].max() <= a[:, 0].min()
                    or a[:, 1].max() <= b[:, 1].min() or b[:, 1].max() <= a[:, 1].min()):
                self.count("geometry.iou.bbox_reject")
            elif geometry.is_convex(a) or geometry.is_convex(b):
                self.count("geometry.iou.convex_clip")
            else:
                self.count("geometry.iou.raster_fallback")
        return "geometry.polygon_iou"

    def _after_iou(self, iou, args, kwargs):
        self.count("geometry.polygon_iou.calls")
        self.count("iou.hits", int(iou >= IOU_THRESH))

    def _name_dsf(self, args, kwargs):
        self.level = -1
        return "pyramid.dsf_forward"

    def _name_block(self, args, kwargs):
        self.level += 1
        return f"pyramid.L{self.level}.block"

    def _level_name(self, part):
        def namer(args, kwargs):
            return f"pyramid.L{self.level}.{part}"
        return namer

    def _name_conv(self, args, kwargs):
        parent = self.parent_name()
        if parent == "pyramid.dsf_forward":
            return "pyramid.head"
        if parent is not None and parent.endswith(".block"):
            kh = np.shape(args[1])[2]
            return f"pyramid.L{self.level}.{'conv3x3' if kh == 3 else 'proj1x1'}"
        return None

    def _after_conv(self, out, args, kwargs):
        cout, cin, kh, kw = np.shape(args[1])
        b, _, ho, wo = out.shape
        self.count("grids.conv2d.macs", b * cout * ho * wo * cin * kh * kw)

    def _after_gather(self, out, args, kwargs):
        self.count("snakeconv.gathered_values", out.size)

    # -- reporting ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name over all frames."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def write(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "fields": ["name", "start", "end", "parent", "frame"],
                       "spans": self.spans}, fh)
