"""Smoke test of the benchmark: its own self-tests must pass against this
checkout.  Asserts no timings."""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(not (ROOT / "perfbench").is_dir(), reason="no perfbench/ in this checkout")
def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                          timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout[-4000:]
