"""Each narrative demo runs to completion against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(demo)], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    proc = run_demo(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_time_taylor_demo_agrees_with_rk4(tmp_path):
    # the series' scaled defect: at radius/8 only round-off is left, at
    # radius/4 the 16-term series' truncation shows
    proc = run_demo(ROOT / "demos" / "04_time_taylor_series.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    found = re.findall(r"\(= radius/(\d+)\): scaled L2 defect (\S+)$", proc.stdout, re.M)
    defects = {int(fraction): float(value) for fraction, value in found}
    assert sorted(defects) == [4, 8], proc.stdout
    assert defects[8] <= 1e-14
    assert defects[4] <= 1e-9
