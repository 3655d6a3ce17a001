"""Closed-loop benchmark of textshaper's three inference paths.

    python3 perfbench/run.py --workload curved-640 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Set-up generates the workload's inputs from
the seed; the loop then runs one frame at a time, in one process, for at
least --seconds, ending on a whole slot cycle. --trace 0 prints the
end-to-end metrics; --trace 1 runs half the time untraced and half traced
over the same frames and prints the per-layer metrics, the traced and
untraced frame times, and writes the spans to .perfbench/. The last line of
standard output is the JSON result. See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS threads before numpy is imported, to at most the cores available.
_CORES = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(_CORES)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_package():
    """Import textshaper from this checkout's src/, and from nowhere else."""
    if not (SRC / "textshaper" / "__init__.py").is_file():
        sys.exit(f"run.py: no textshaper sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import textshaper

    if Path(textshaper.__file__).resolve().parent != SRC / "textshaper":
        sys.exit(f"run.py: imported textshaper from {textshaper.__file__}, not {SRC}")


class Phase:
    """Frames of one closed-loop phase."""

    def __init__(self, results, wall: float):
        self.results = results
        self.wall = wall
        self.ms = sorted(r.ms for r in results if r.ok)
        self.attempted = len(results)
        self.failed = sum(not r.ok for r in results)

    @property
    def p50(self) -> float:
        if not self.ms:
            sys.exit("run.py: no frame completed")
        return statistics.median(self.ms)

    def tail(self) -> tuple[float, float]:
        """(value, percentile) of the highest nearest-rank percentile with at
        least ten samples beyond it; the median when there are too few."""
        n = len(self.ms)
        rank = n - 10
        if 2 * rank <= n:
            return self.p50, 50.0
        return self.ms[rank - 1], 100.0 * rank / n

    @property
    def frames_per_s(self) -> float:
        return len(self.ms) / self.wall

    def f1(self) -> tuple[float, int, int, int]:
        from textshaper.evaluation import prf

        tp = sum(r.tp for r in self.results)
        fp = sum(r.fp for r in self.results)
        fn = sum(r.fn for r in self.results)
        return prf(tp, fp, fn)[2], tp, fp, fn


def run_phase(wl, seconds: float, tracer=None) -> Phase:
    results = []
    t0 = time.perf_counter()
    i = 0
    while i % wl.cycle or time.perf_counter() - t0 < seconds:
        if tracer is not None:
            tracer.frame = i
        results.append(wl.frame(i))
        i += 1
    phase = Phase(results, time.perf_counter() - t0)
    f1 = phase.f1()[0]
    wl.check(f1 >= wl.min_f1, f"F1 {f1:.4f} below {wl.min_f1}")
    return phase


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cores_available": _CORES,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "numpy": np.__version__, "python": platform.python_version(),
            "machine": platform.machine(), "seed": seed}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(wl, phase: Phase) -> dict:
    tail, _ = phase.tail()
    return {
        "setup_s": metric(statistics.median(wl.setup_s), "s"),
        "frames_per_s": metric(phase.frames_per_s, "1/s"),
        "frame_ms_p50": metric(phase.p50, "ms"),
        "frame_ms_tail": metric(tail, "ms"),
        "completed_share": metric(1.0 - phase.failed / phase.attempted, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(wl, base: Phase, traced: Phase, tracer) -> dict:
    from tracing import COUNT_METRICS, TIME_METRICS

    frames = traced.attempted
    self_s = tracer.self_times()
    totals = tracer.counts
    out = {f"{name}.s": metric(self_s.get(name, 0.0) / frames, "s") for name in TIME_METRICS}
    out.update({name: metric(totals.get(name, 0) / frames, "count") for name in COUNT_METRICS})
    cells = totals.get("raster.cells", 0)
    calls = totals.get("geometry.polygon_iou.calls", 0)
    out["shaping.raster_fill_ratio"] = metric(
        totals.get("raster.set", 0) / cells if cells else 0.0, "ratio")
    out["evaluation.iou_hit_ratio"] = metric(
        totals.get("iou.hits", 0) / calls if calls else 0.0, "ratio")
    out["evaluation.f1"] = metric(traced.f1()[0], "ratio")
    out["dataio.synth_maps.s"] = metric(statistics.median(wl.synth_s), "s")
    out["trace.frame_ms_p50"] = metric(traced.p50, "ms")
    out["trace.untraced_frame_ms_p50"] = metric(base.p50, "ms")
    out["trace.frames_per_s"] = metric(traced.frames_per_s, "1/s")
    out["trace.untraced_frames_per_s"] = metric(base.frames_per_s, "1/s")
    return out


def describe(label: str, phase: Phase) -> None:
    tail, pct = phase.tail()
    f1, tp, fp, fn = phase.f1()
    print(f"{label}: attempted={phase.attempted} failed={phase.failed} "
          f"completed={len(phase.ms)} wall_s={phase.wall:.3f} "
          f"frame_ms_p50={phase.p50:.3f} frame_ms_tail=p{pct:.1f}:{tail:.3f} "
          f"(n={len(phase.ms)}) f1={f1:.4f} tp={tp} fp={fp} fn={fn}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    wl = WORKLOADS[args.workload](work, args.seed)
    try:
        wl.setup()
        if args.trace == 0:
            phase = run_phase(wl, args.seconds)
            describe("untraced", phase)
            metrics = end_to_end(wl, phase)
            attempted, failed = phase.attempted, phase.failed
            frames = {"untraced": phase.attempted}
        else:
            from tracing import Tracer

            base = run_phase(wl, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_phase(wl, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            describe("untraced", base)
            describe("traced", traced)
            metrics = per_layer(wl, base, traced, tracer)
            attempted = base.attempted + traced.attempted
            failed = base.failed + traced.failed
            frames = {"untraced": base.attempted, "traced": traced.attempted}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.seed)
    env.update(workload=args.workload, seconds=args.seconds, frames=frames,
               distinct_frames=len(wl.setup_s))
    print("env: " + json.dumps(env))
    if args.trace:
        tracer.write(out_dir / f"spans-{args.workload}.json", env)
    for err in wl.errors:
        print(f"check failed: {err}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name}={m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not wl.errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
