#!/usr/bin/env python3
"""polyvox benchmark runner.

One workload (from the repository root):

    python3 polybench/run.py --workload convert-long --seed 3 --seconds 20 --trace 0

`--trace 0` times the workload with nothing wrapped and prints every
end-to-end metric of BENCHMARK.json. `--trace 1` runs one sample's
operations traced and then untraced, and prints every per-layer metric,
`tracing_overhead` included. The last stdout line is the result object; the
line before it is a JSON summary with sample counts, stage metrics, the
error rate, the output digest and any failed check.

Every workload, each in a fresh process, as a table:

    python3 polybench/run.py [--seed N] [--trace 0|1]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BLAS_THREADS = min(2, os.cpu_count() or 1)
# pinned before numpy is imported; recorded in every summary
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def host_probe() -> float:
    """Median wall of a fixed numpy loop (matmul, exp, FFT): host speed now."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.random((740, 128)), rng.random((128, 512))
    s, x = rng.random((4, 400, 400)), rng.random((200, 2048))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(4):
            a @ b
            np.exp(s)
            np.fft.rfft(x, axis=1)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _attempt(workload, i: int) -> dict:
    try:
        return workload.op(i)
    except Exception as exc:  # an operation that raises is counted, not fatal
        return {"error": f"{type(exc).__name__}: {exc}"}


def check_all(workload, records: list[dict], problems: list[str]) -> tuple[int, list[str | None]]:
    """Check every operation; returns the failed count and per-op digests."""
    failed = 0
    digests: list[str | None] = []
    for i, rec in enumerate(records):
        try:
            if "error" in rec:
                raise RuntimeError(rec["error"])
            digests.append(workload.check(rec))
        except Exception as exc:
            failed += 1
            digests.append(None)
            problems.append(f"op {i}: {type(exc).__name__}: {exc}")
    # operations with the same inputs must give the same outputs
    k = workload.ops_per_sample
    for i in range(k, len(digests)):
        if digests[i] is not None and digests[i % k] is not None and digests[i] != digests[i % k]:
            problems.append(f"op {i}: output digest differs from op {i % k}")
    return failed, digests


def timed_run(wl, spec: dict, seconds: float, setup_s: float, summary: dict) -> list[dict]:
    """Closed loop until `seconds` have passed, ending on a whole sample;
    returns the operation records and fills the end-to-end metrics."""
    probe = [host_probe()]
    records = []
    t0 = time.perf_counter()
    while True:
        records.append(_attempt(wl, len(records)))
        if len(records) % wl.ops_per_sample == 0 and time.perf_counter() - t0 >= seconds:
            break
    summary["measured_s"] = time.perf_counter() - t0
    summary["host_probe_s"] = probe + [host_probe()]
    summary["op_wall_s"] = [r["wall"] for r in records if "wall" in r]

    samples = wl.samples([r for r in records if "error" not in r], setup_s)
    samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    gated = [m["name"] for m in spec["end_to_end"]]
    summary["metrics"] = {m["name"]: {"value": _median(samples[m["name"]]), "unit": m["unit"]}
                          for m in spec["end_to_end"]}
    summary["samples"] = {m: len(samples[m]) for m in gated}
    summary["stage_metrics"] = {m: {"value": _median(v), "n": len(v)}
                                for m, v in samples.items() if m not in gated}
    return records


def traced_run(wl, spec: dict, summary: dict) -> list[dict]:
    """One sample's operations traced, then the same ones untraced; returns
    the records and fills the per-layer metrics. Traced first, so that the
    traced operations see the state a timed run's first ones see."""
    import polyvox
    from tracing import Tracer

    n = wl.ops_per_sample
    tracer = Tracer()
    tracer.install(polyvox)
    try:
        t0 = time.perf_counter()
        records = []
        for i in range(n):
            tracer.op = i
            records.append(_attempt(wl, i))
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    t0 = time.perf_counter()
    records += [_attempt(wl, i) for i in range(n, 2 * n)]
    plain_s = time.perf_counter() - t0

    layer = tracer.layer_metrics()
    layer["tracing_overhead"] = traced_s / plain_s
    summary["layer"] = layer
    summary["metrics"] = {m["name"]: {"value": float(layer[m["name"]]), "unit": m["unit"]}
                          for m in spec["per_layer"]}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{wl.name}-s{wl.seed}.json"
    aggregate = tracer.aggregate()
    trace_file.write_text(json.dumps({"aggregate": aggregate, "spans": tracer.dump()}))
    summary["trace_file"] = str(trace_file.relative_to(ROOT))
    top = sorted(aggregate.items(), key=lambda kv: -kv[1]["self_s"])[:12]
    summary["top_self_s"] = {k: round(v["self_s"], 4) for k, v in top}
    return records


def trace_assertions(name: str, layer: dict, problems: list[str]) -> None:
    """Counts the workload design predicts exactly."""
    conversions = layer["converter.convert.calls"]
    if layer["converter.nfe"] != 32 * conversions:
        problems.append(f"converter.nfe {layer['converter.nfe']} != 32 x {conversions} conversions")
    if name in ("train", "evaluate-short") and layer["audio.resample.calls"] != 0:
        problems.append(f"audio.resample ran {layer['audio.resample.calls']} times on {name}")
    if name in ("convert-long", "evaluate-short") and layer["tensor.backward.calls"] != 0:
        problems.append(f"tensor.backward ran {layer['tensor.backward.calls']} times on {name}")
    if name != "train" and conversions == 0:
        problems.append("no conversion was traced")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (ROOT / "src" / "polyvox").is_dir():
        print(f"polybench: no polyvox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    spec = load_spec()
    work = ROOT / ".bench_work" / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    summary: dict = {"workload": name, "seed": seed, "trace": int(trace),
                     "blas_threads": BLAS_THREADS}
    problems: list[str] = []
    try:
        wl = WORKLOADS[name](seed, work)
        t0 = time.perf_counter()
        wl.setup()
        setup_s = time.perf_counter() - t0
        summary["warmup_call_s"] = wl.warmup_s
        if trace:
            records = traced_run(wl, spec, summary)
            trace_assertions(name, summary.pop("layer"), problems)
        else:
            records = timed_run(wl, spec, seconds, setup_s, summary)
        failed, digests = check_all(wl, records, problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first = digests[:wl.ops_per_sample]
    summary["digest"] = None if None in first else "-".join(first)
    summary["error_rate"] = failed / len(records)
    summary["problems"] = problems
    metrics = summary.pop("metrics")
    print(json.dumps({"summary": summary}))
    print(json.dumps({"correct": not problems, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process (so peak RSS is its own), then a table."""
    status = 0
    for w in load_spec()["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{w['name']}: exit {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        summary = json.loads(lines[-2])["summary"]
        result = json.loads(lines[-1])
        counts = summary.get("samples", {})
        print(f"== {w['name']}  seed {seed}  correct={result['correct']}  "
              f"attempted={result['attempted']} failed={result['failed']}  "
              f"error_rate={summary['error_rate']:.3f}  digest={summary['digest']}")
        for metric, v in result["metrics"].items():
            n = f"n={counts[metric]}" if metric in counts else ""
            print(f"  {metric:40s} {v['value']:14.6g} {v['unit']:8s} {n}")
        for metric, v in summary.get("stage_metrics", {}).items():
            print(f"  {metric:40s} {v['value']:14.6g} {'(stage)':8s} n={v['n']}")
        for problem in summary["problems"]:
            print(f"  FAILED CHECK: {problem}")
        status |= 0 if result["correct"] and not result["failed"] else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "BENCHMARK.json").is_file():
        print("polybench: BENCHMARK.json not found at the repository root", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload is None:
        return run_all(args.seed, seconds, bool(args.trace))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
