#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs one workload once per seed, each in a fresh process, and prints for
every end-to-end metric the median and the quartile spread (Q3 - Q1) / median
over the runs, next to the metric's bound from BENCHMARK.json. A benchmark is
steady when every spread but that of `setup_s` stays below a third of its
bound.

    python3 polybench/spread.py --workload train --seeds 1 2 3 4 5
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        wall = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        summary = json.loads(lines[-2])["summary"]
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "wall": wall, "summary": summary, "result": result})
        print(f"seed {seed}: wall {wall:.1f} s  correct={result['correct']}  "
              f"failed={result['failed']}/{result['attempted']}  digest={summary['digest']}",
              flush=True)

    worst = 0.0
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        if name != "setup_s":
            worst = max(worst, spread / metric["bound"])
        print(f"  {name:26s} median {med:12.6g}  spread {spread:7.4f}  "
              f"bound {metric['bound']:.3f}  {'ok' if spread < metric['bound'] / 3 else 'WIDE'}")
    print(f"  worst spread / bound (setup_s excluded): {worst:.3f}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}.json").write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
