"""The benchmark in perfbench/ wraps package functions by name; a traced
cycle here fails when a name it patches or a call it makes goes away."""

import sys
from pathlib import Path

import pytest

from textshaper.evaluation import prf

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


@pytest.fixture
def perfbench_on_path():
    sys.path.insert(0, PERFBENCH)
    yield
    sys.path.remove(PERFBENCH)


def test_traced_straight_224_cycle_passes_checks(tmp_path, perfbench_on_path):
    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS["straight-224"](tmp_path / "work", seed=1)
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
    assert wl.errors == []
    assert all(r.ok for r in results)
    f1 = prf(sum(r.tp for r in results), sum(r.fp for r in results),
             sum(r.fn for r in results))[2]
    assert f1 >= wl.min_f1
    assert tracer.self_times()["shaping.shape_text"] > 0
    assert tracer.counts["shaping.rects"] > 0
    assert tracer.counts["shaping.centers_sampled"] > 0
    assert tracer.counts["shaping.fps_budget_hits"] == 0
