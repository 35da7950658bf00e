"""The benchmark's seeded trajectories, pinned: perfbench/digests.py must print
the same digest for every workload at seed 0 (about 25 s)."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PINNED = {
    "ga-breeding": "5d17a98454a3ae06",
    "people-polish": "f1bbb295299cb0f7",
    "verify-families": "62db65da99cd6f64",
}


@pytest.mark.slow
def test_benchmark_digests_pinned():
    got = subprocess.run([sys.executable, str(ROOT / "perfbench" / "digests.py"), "--seed", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert got.returncode == 0, got.stdout + got.stderr
    digests = dict(re.findall(r"^digest (\S+) seed 0 (\S+)$", got.stdout, re.MULTILINE))
    assert digests == PINNED, got.stdout
