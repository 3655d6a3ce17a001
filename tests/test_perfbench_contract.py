"""The benchmark in perfbench/ wraps package functions by name; a traced
cycle here fails when a name it patches or a call it makes goes away."""

import sys
from pathlib import Path

import numpy as np
import pytest

from textshaper.evaluation import prf

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


@pytest.fixture
def perfbench_on_path():
    sys.path.insert(0, PERFBENCH)
    yield
    sys.path.remove(PERFBENCH)


def traced_cycle(name, work, distinct_cycles=None):
    """Set up a workload and run its first slot cycle under the tracer.
    `distinct_cycles`, when given, limits the set-up to that many cycles of
    frames; the first cycle's frames do not depend on it."""
    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name](work, seed=1)
    if distinct_cycles is not None:
        wl.distinct_cycles = distinct_cycles
    wl.setup()
    tracer = Tracer()
    tracer.install()
    try:
        results = []
        for i in range(wl.cycle):
            tracer.frame = i
            results.append(wl.frame(i))
    finally:
        tracer.uninstall()
    return wl, tracer, results


def test_traced_straight_224_cycle_passes_checks(tmp_path, perfbench_on_path):
    wl, tracer, results = traced_cycle("straight-224", tmp_path / "work")
    assert wl.errors == []
    assert all(r.ok for r in results)
    f1 = prf(sum(r.tp for r in results), sum(r.fp for r in results),
             sum(r.fn for r in results))[2]
    assert f1 >= wl.min_f1
    assert tracer.self_times()["shaping.shape_text"] > 0
    assert tracer.counts["shaping.rects"] > 0
    assert tracer.counts["shaping.centers_sampled"] > 0
    assert tracer.counts["shaping.fps_budget_hits"] == 0


def test_traced_curved_640_cycle_with_poisoned_slot_passes_checks(tmp_path, perfbench_on_path):
    # The last slot of the cycle is the poisoned copy of the frame before
    # it, made at set-up by MapsWorkload.poisoned.
    wl, tracer, results = traced_cycle("curved-640", tmp_path / "work", distinct_cycles=1)
    assert wl.errors == []
    assert wl.slot_kinds[-1] == "poison" and wl.slots[-1].poison_x is not None
    assert not np.isfinite(wl.slots[-1].poison_x).all()
    assert all(r.ok for r in results)
    f1 = prf(sum(r.tp for r in results), sum(r.fp for r in results),
             sum(r.fn for r in results))[2]
    assert f1 == 1.0
    assert tracer.counts["shaping.overlap_ops"] == 0


def test_traced_forward_img_canary_cycle_passes_checks(tmp_path, perfbench_on_path):
    # The first cycle is the two canary images (128 and 192 px), whose heads
    # must match the stored reference heads.
    wl, tracer, results = traced_cycle("forward-img", tmp_path / "work")
    assert wl.errors == []
    assert all(r.ok for r in results)
    assert tracer.self_times()["pyramid.dsf_forward"] > 0
    assert tracer.counts["snakeconv.gathered_values"] == 0


def test_canary_heads_match_reference_to_1e12(perfbench_on_path):
    # The 128 and 192 px canary heads, made as perfbench/make_reference.py
    # makes them, within 1e-12 of each channel's largest reference value:
    # a reordered GEMM moves them by about 1e-14, and the benchmark's own
    # gate (workloads.HEAD_RTOL) is the looser 1e-9.
    from textshaper import dataio, pyramid
    from workloads import MODEL_SEED, REFERENCE, ForwardImg, render_image

    reference = np.load(REFERENCE)
    spec = pyramid.PyramidSpec()
    stub = pyramid.init_stub_params(MODEL_SEED, channels=spec.channels)
    params = pyramid.init_dsf_params(spec, MODEL_SEED)
    rng = np.random.default_rng(ForwardImg.CANARY_SEED)
    assert ForwardImg.slot_kinds == (128, 192)
    for size in ForwardImg.slot_kinds:
        image = render_image(rng, size, dataio.synth_maps)
        head = pyramid.dsf_forward(pyramid.backbone_stub(image, stub), params, spec).head
        want = reference[f"head{size}"]
        scale = np.abs(want).max(axis=(0, 2, 3), keepdims=True)
        assert head.shape == want.shape
        assert np.all(np.abs(head - want) <= 1e-12 * scale), size
