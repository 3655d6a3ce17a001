import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_lowlight(*flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "lowlight_robustness.py"), *flags],
        capture_output=True, text=True, env=env, timeout=300)


def test_lowlight_robustness_runs():
    proc = run_lowlight("--instances", "2", "--gammas", "1.0", "--sigmas", "0.0")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.strip().splitlines()
    assert header.split() == ["gamma", "sigma", "P(%)", "R(%)", "F1(%)", "shape(ms)"]
    assert len(rows) == 1
    values = [float(v) for v in rows[0].split()]
    assert values[:2] == [1.0, 0.0]
    assert len(values) == 6 and values[5] > 0.0


@pytest.mark.parametrize("flag,value", [
    ("--instances", "0"), ("--iou", "0"), ("--iou", "1.5"), ("--gammas", "0"),
    ("--gammas", "nan"), ("--sigmas", "-0.1"),
])
def test_lowlight_robustness_bad_flag_exits_2_naming_it(flag, value):
    # Rejected before the header, with argparse's usage error and no traceback.
    proc = run_lowlight("--instances", "1", "--gammas", "1.0", "--sigmas", "0.0", flag, value)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"error: {flag} must" in proc.stderr and "Traceback" not in proc.stderr
