"""The kernel harness under `benches/` (outside `testpaths`) run untimed: an
API change that breaks one of its rows fails here, not at the next timing
run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_kernel_harness_runs():
    run = subprocess.run([sys.executable, "-m", "pytest", "benches", "-q", "--benchmark-disable",
                          "-p", "no:cacheprovider"], cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
