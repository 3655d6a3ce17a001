import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_lowlight_robustness_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "lowlight_robustness.py"),
         "--instances", "2", "--gammas", "1.0", "--sigmas", "0.0"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.strip().splitlines()
    assert header.split() == ["gamma", "sigma", "P(%)", "R(%)", "F1(%)", "shape(ms)"]
    assert len(rows) == 1
    values = [float(v) for v in rows[0].split()]
    assert values[:2] == [1.0, 0.0]
    assert len(values) == 6 and values[5] > 0.0
