"""The scripts under `benches/` (outside `testpaths`) and each `polybench`
workload run once here: an API change that breaks the kernel harness, the
same-outputs check, a workload or the tracer fails here, not at the next
timing or comparison run."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_kernel_harness_runs():
    run = subprocess.run([sys.executable, "-m", "pytest", "benches", "-q", "--benchmark-disable",
                          "-p", "no:cacheprovider"], cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]


def test_artefact_check_hashes_every_artefact():
    """The check run `--against` its own checkout runs twice and finds the
    same digests: every artefact, from the corpus to `convert`, `cqt` and
    `evaluate` outputs, is a pure function of the run's seed."""
    run = subprocess.run([sys.executable, "benches/artefacts.py", "--against", str(ROOT)],
                         cwd=ROOT, capture_output=True, text=True, timeout=1200)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
    digests = json.loads(run.stdout)
    assert sorted(digests) == sorted([
        "data/clips", "data/manifest.jsonl", "data/resolved_config.json", "ckpt/pitch.pvck",
        "ckpt/pitch_train.csv", "ckpt/pitch_config.json", "ckpt/svc.pvck",
        "ckpt/converter_train.csv", "ckpt/svc_config.json", "out/convert.wav",
        "out/convert.mel", "out/cqt.cqt", "out/cqt.csv", "reports/report.json",
        "reports/report.csv"])
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in digests.values()), digests


@pytest.mark.parametrize("workload", ["train", "convert-long", "evaluate-short"])
def test_benchmark_workload_runs_traced(workload):
    """One traced sample of each workload runs, checks correct and fails no
    operation; the trainers' per-step spans are reached."""
    run = subprocess.run([sys.executable, "polybench/run.py", "--workload", workload,
                          "--seed", "3", "--seconds", "1", "--trace", "1"], cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, run.stdout[-4000:]
    if workload == "train":
        for metric in ("converter.train.compute_s_per_step", "pitch.train.compute_s_per_step"):
            assert result["metrics"][metric]["value"] > 0, metric
