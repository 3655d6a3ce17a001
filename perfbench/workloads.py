"""Seeded inputs and the per-frame work of the three benchmark workloads.

Each workload prepares a fixed set of distinct frames at set-up, then the
closed loop runs them in a repeating order of slots, one frame at a time.
Only public functions of ``textshaper`` are called, always through their
module attribute, so a tracer that patches those attributes sees the calls.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from textshaper import dataio, evaluation, pyramid, shaping
from textshaper.geometry import TextPolygon
from textshaper.maps import GeometryMaps

CFG = shaping.ShapingConfig()
IOU_THRESH = 0.5
MODEL_SEED = 0
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference_heads.npz"
# A reordered GEMM moves the head by ~1e-14 relative; a wrong kernel by far more.
HEAD_RTOL = 1e-9


@dataclass
class FrameResult:
    ok: bool
    ms: float
    tp: int = 0
    fp: int = 0
    fn: int = 0


@dataclass(frozen=True)
class MapFrame:
    maps_path: Path
    gt_path: Path
    poison_x: np.ndarray | None = None


class Workload:
    """Common bookkeeping: slots, set-up timing and output-check errors."""

    slot_kinds: tuple = ()
    # Lowest F1 over a phase that still counts as correct output.
    min_f1 = 0.0

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.rng = np.random.default_rng(seed)
        self.slots: list = []
        self.setup_s: list[float] = []
        self.synth_s: list[float] = []
        self.errors: list[str] = []

    @property
    def cycle(self) -> int:
        """Frames per slot cycle; a phase always ends on a cycle boundary."""
        return len(self.slot_kinds)

    def check(self, cond: bool, msg: str) -> None:
        if not cond and len(self.errors) < 20:
            self.errors.append(msg)

    def check_polygons(self, polys, where: str) -> None:
        for p in polys:
            v = p.vertices
            self.check(v.ndim == 2 and v.shape[0] >= 3 and v.shape[1] == 2,
                       f"{where}: polygon with shape {v.shape}")
            self.check(bool(np.all(np.isfinite(v))), f"{where}: non-finite polygon vertex")

    def synth(self, spec, seed):
        t0 = time.perf_counter()
        out = dataio.synth_maps(spec, seed)
        self.synth_s[-1] += time.perf_counter() - t0
        return out


class MapsWorkload(Workload):
    """Head maps read from .tmap files, shaped, and matched against their GT.

    A slot kind is the band count of a clean frame, or "poison": the frame of
    the previous slot with an ``inf`` strip in its x channel. TMAP files
    reject non-finite values, so the strip is applied after reading.
    """

    distinct_cycles = 1

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        for c in range(self.distinct_cycles):
            for s, kind in enumerate(self.slot_kinds):
                if kind == "poison":
                    self.slots.append(self.poisoned(self.slots[-1]))
                    continue
                t0 = time.perf_counter()
                self.synth_s.append(0.0)
                maps, gts = self.make_frame(kind)
                path = self.work / f"frame{c}_{s}"
                dataio.write_geometry_maps(path.with_suffix(".tmap"), maps)
                dataio.write_annotations(path.with_suffix(".txt"), gts)
                self.slots.append(MapFrame(path.with_suffix(".tmap"), path.with_suffix(".txt")))
                self.setup_s.append(time.perf_counter() - t0)

    def poisoned(self, frame: MapFrame) -> MapFrame:
        """Copy of a frame whose first centre component carries an inf strip
        through the pixel farthest point sampling starts from, so the strip is
        sampled whenever that component is."""
        t0 = time.perf_counter()
        maps = dataio.read_geometry_maps(frame.maps_path)
        comps = shaping.extract_centers(maps.center, CFG.center_thresh)
        cands = comps[0].candidates
        seed_x = shaping.farthest_point_sample(cands, 1)[0][0]
        strip = cands[np.abs(cands[:, 0] - seed_x) <= 1]
        x = maps.x.copy()
        x[strip[:, 1], strip[:, 0]] = np.inf
        self.setup_s[-1] += time.perf_counter() - t0
        return dataclasses.replace(frame, poison_x=x)

    def frame(self, i: int) -> FrameResult:
        f: MapFrame = self.slots[i % len(self.slots)]
        where = f"frame {i} ({f.maps_path.name}{', poisoned' if f.poison_x is not None else ''})"
        t0 = time.perf_counter()
        maps = dataio.read_geometry_maps(f.maps_path)
        if f.poison_x is not None:
            maps = dataclasses.replace(maps, x=f.poison_x)
        gts, _ = dataio.parse_annotations(f.gt_path)
        overlap0 = shaping.OVERLAP_COUNTER.count
        try:
            polys = shaping.shape_text(maps, CFG)
        except ValueError as e:
            ms = 1e3 * (time.perf_counter() - t0)
            self.check(f.poison_x is not None, f"{where}: clean frame raised {e!r}")
            return FrameResult(ok=False, ms=ms, fn=len(gts))
        overlap = shaping.OVERLAP_COUNTER.count - overlap0
        tp, fp, fn = evaluation.match_image(polys, gts, IOU_THRESH)
        ms = 1e3 * (time.perf_counter() - t0)
        self.check(overlap == 0, f"{where}: {overlap} overlap operations while shaping")
        self.check(tp + fp == len(polys) and tp + fn == len(gts),
                   f"{where}: counts {tp}/{fp}/{fn} for {len(polys)} predictions, {len(gts)} GT")
        self.check_polygons(polys, where)
        return FrameResult(ok=True, ms=ms, tp=tp, fp=fp, fn=fn)


class Curved640(MapsWorkload):
    """640x640 maps with 4-6 sinusoid bands; every fifth frame is poisoned.

    No F1 floor: the default fps_budget leaves gaps that fragment long
    bands at this size, so F1 is about 0 until that defect is fixed.
    """

    name = "curved-640"
    frame_hw = (640, 640)
    slot_kinds = (4, 5, 6, 5, "poison")
    distinct_cycles = 3

    def make_frame(self, n_bands: int):
        """One band per horizontal strip of the frame, each strip made by
        ``synth_maps`` and stacked. Inside a band's text and centre regions
        the maps equal those of one whole-frame call, because the nearest
        centreline sample there belongs to that band; the strips cost
        1/n_bands of the whole-frame generator's time."""
        h, w = self.frame_hw
        rng = self.rng
        edges = np.linspace(0, h, n_bands + 1).round().astype(int)
        parts, gts = [], []
        for y0, y1 in zip(edges[:-1], edges[1:]):
            sh = int(y1 - y0)
            height = rng.uniform(14.0, 24.0)
            band = dataio.SynthBand(
                y_center=sh / 2, height=height,
                x_start=rng.uniform(16.0, 80.0), x_end=rng.uniform(560.0, 624.0),
                amplitude=rng.uniform(4.0, min(20.0, sh / 2 - height / 2 - 6.0)),
                period=rng.uniform(90.0, 220.0), phase=rng.uniform(0.0, 2 * math.pi))
            maps, polys = self.synth(dataio.SynthSpec(sh, w, (band,)), 0)
            stack = maps.stack()
            stack[3] += y0
            parts.append(stack)
            gts += [TextPolygon(p.vertices + (0.0, y0)) for p in polys]
        return GeometryMaps.from_stack(np.concatenate(parts, axis=1)), gts


class Straight224(MapsWorkload):
    """The 128x224 fixture size with 1-2 straight bands per frame."""

    name = "straight-224"
    frame_hw = (128, 224)
    slot_kinds = (1, 2, 2)
    distinct_cycles = 8
    min_f1 = 0.95

    def make_frame(self, n_bands: int):
        h, w = self.frame_hw
        rng = self.rng
        centres = [rng.uniform(44.0, 84.0)] if n_bands == 1 else [
            40.0 + rng.uniform(-4.0, 4.0), 92.0 + rng.uniform(-4.0, 4.0)]
        bands = tuple(dataio.SynthBand(y_center=y, height=rng.uniform(12.0, 17.0),
                                       x_start=rng.uniform(8.0, 24.0),
                                       x_end=rng.uniform(196.0, 216.0))
                      for y in centres)
        return self.synth(dataio.SynthSpec(h, w, bands), 0)


def render_image(rng, size: int, synth) -> np.ndarray:
    """Grayscale image of one straight and one sinusoid band, low contrast
    and noisy, as the text map of a synthetic spec."""
    height = rng.uniform(0.08, 0.12) * size
    amp = rng.uniform(0.02, 0.05) * size
    bands = (
        dataio.SynthBand(y_center=rng.uniform(0.25, 0.35) * size, height=height,
                         x_start=rng.uniform(0.05, 0.15) * size,
                         x_end=rng.uniform(0.85, 0.95) * size),
        dataio.SynthBand(y_center=rng.uniform(0.65, 0.75) * size, height=height,
                         x_start=rng.uniform(0.05, 0.15) * size,
                         x_end=rng.uniform(0.85, 0.95) * size,
                         amplitude=amp, period=rng.uniform(0.4, 0.8) * size,
                         phase=rng.uniform(0.0, 2 * math.pi)))
    spec = dataio.SynthSpec(size, size, bands, noise_sigma=0.05, gamma=0.8)
    maps, _ = synth(spec, int(rng.integers(1 << 31)))
    return maps.text


@dataclass(frozen=True)
class ImageFrame:
    image: np.ndarray
    reference: np.ndarray | None = None


class ForwardImg(Workload):
    """Images through backbone_stub -> dsf_forward -> head maps -> shape_text.

    The first cycle holds fixed canary images whose heads are compared with
    the reference stored next to this file; the second cycle is seeded.
    """

    name = "forward-img"
    slot_kinds = (128, 192)
    CANARY_SEED = 20240413

    def setup(self) -> None:
        reference = np.load(REFERENCE)
        self.spec = pyramid.PyramidSpec()
        canary = np.random.default_rng(self.CANARY_SEED)
        for rng, is_canary in ((canary, True), (self.rng, False)):
            for size in self.slot_kinds:
                t0 = time.perf_counter()
                self.synth_s.append(0.0)
                image = render_image(rng, size, self.synth)
                # `shape --image` builds the seeded model on every call.
                self.stub = pyramid.init_stub_params(MODEL_SEED, channels=self.spec.channels)
                self.params = pyramid.init_dsf_params(self.spec, MODEL_SEED)
                self.slots.append(ImageFrame(
                    image, reference[f"head{size}"] if is_canary else None))
                self.setup_s.append(time.perf_counter() - t0)

    def frame(self, i: int) -> FrameResult:
        f: ImageFrame = self.slots[i % len(self.slots)]
        size = f.image.shape[0]
        where = f"frame {i} ({size} px{', canary' if f.reference is not None else ''})"
        t0 = time.perf_counter()
        feats = pyramid.backbone_stub(f.image, self.stub)
        head = pyramid.dsf_forward(feats, self.params, self.spec).head
        maps = pyramid.geometry_maps_from_head(head)
        overlap0 = shaping.OVERLAP_COUNTER.count
        polys = shaping.shape_text(maps, CFG)
        ms = 1e3 * (time.perf_counter() - t0)
        self.check(head.shape == (1, 7, size // 4, size // 4), f"{where}: head shape {head.shape}")
        self.check(bool(np.all(np.isfinite(head))), f"{where}: non-finite head")
        self.check(bool(np.all((head[:, :2] >= 0) & (head[:, :2] <= 1))),
                   f"{where}: score channels outside [0, 1]")
        if f.reference is not None:
            self.check(head_matches(head, f.reference), f"{where}: head differs from reference")
        self.check(shaping.OVERLAP_COUNTER.count == overlap0, f"{where}: overlap operations")
        self.check_polygons(polys, where)
        return FrameResult(ok=True, ms=ms)


def head_matches(head: np.ndarray, reference: np.ndarray) -> bool:
    """Per-channel agreement within HEAD_RTOL of the channel's largest value."""
    if head.shape != reference.shape:
        return False
    scale = np.abs(reference).max(axis=(0, 2, 3), keepdims=True)
    return bool(np.all(np.abs(head - reference) <= HEAD_RTOL * scale))


WORKLOADS = {w.name: w for w in (Curved640, Straight224, ForwardImg)}
