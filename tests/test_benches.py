"""The scripts under `benches/` (outside `testpaths`) run untimed: an API
change that breaks the kernel harness or the same-outputs check fails here,
not at the next timing or comparison run."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_kernel_harness_runs():
    run = subprocess.run([sys.executable, "-m", "pytest", "benches", "-q", "--benchmark-disable",
                          "-p", "no:cacheprovider"], cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]


def test_artefact_check_hashes_every_artefact():
    """Two runs of the check print the same digests: every artefact, from
    the corpus to `convert`, `cqt` and `evaluate` outputs, is a pure
    function of the run's seed."""
    runs = [subprocess.run([sys.executable, "benches/artefacts.py"], cwd=ROOT,
                           capture_output=True, text=True, timeout=600) for _ in range(2)]
    for run in runs:
        assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
    digests, again = (json.loads(run.stdout) for run in runs)
    assert again == digests
    assert sorted(digests) == sorted([
        "data/clips", "data/manifest.jsonl", "data/resolved_config.json", "ckpt/pitch.pvck",
        "ckpt/pitch_train.csv", "ckpt/svc.pvck", "ckpt/converter_train.csv",
        "ckpt/resolved_config.json", "out/convert.wav", "out/convert.mel", "out/cqt.cqt",
        "out/cqt.csv", "reports/report.json", "reports/report.csv"])
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in digests.values()), digests
