"""The three benchmark workloads: seeded inputs, closed-loop operations and
output checks.

Every workload runs in one process with one caller: each operation waits for
the previous one. Inputs come from the workload seed only; the program sees
nothing but the generated files. Shapes follow the smoke configuration of the
test suite (`SMOKE_CONFIG` in tests/conftest.py).

- train: synthesise the smoke corpus, then train the pitch extractor and the
  converter for a fixed number of steps.
- convert-long: `polyvox convert` through `cli.main`, one call per source;
  sources are long clips rewritten at 48 kHz, calls alternate transpose 0 / +2.
- evaluate-short: `polyvox evaluate` through `cli.main` over short clips.

A `Workload` has a `setup()` (timed as set-up), an `op()` (one closed-loop
operation, returning its timing record) and a `check()` of each record. The
digest of the first operation's outputs identifies a run's results.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
import wave
from pathlib import Path

import numpy as np

# functions are called through their modules, so that a traced run sees them
from polyvox import audio, cli, converter, cqt, pitch, synthgen
from polyvox.converter import ConverterConfig, ConverterModel
from polyvox.pitch import PitchEncoderConfig, PitchExtractor, PitchTrainConfig
from polyvox.synthgen import SynthConfig

HOP = 441  # mel hop at 44.1 kHz: 100 frames per second
PIPELINE_RATE = 44100
SOURCE_RATE = 48000
TRANSPOSE = 2

# smoke-scale shapes
PITCH_ENCODER = PitchEncoderConfig(model_dim=64, n_layers=2, n_heads=4, window_frames=160)
PITCH_BATCH = 3
CONVERTER = dict(width=128, n_layers=4, n_heads=4, window_frames=200, batch=2, peak_lr=1e-3,
                 sway_s=-1.0, nfe=32, prompt_frames=150, gl_iters=48)

# train workload: steps per trainer call in each round
TRAIN_PITCH_STEPS = 60
TRAIN_SVC_STEPS = 32
# convert-long / evaluate-short: the checkpoint they use is trained in set-up;
# inference cost does not depend on how far it was trained
FIXTURE_PITCH_STEPS = 4
FIXTURE_SVC_STEPS = 2
FIXTURE_TRAIN_SEED = 0

# Clip lengths are fixed (the seed picks notes, presets and splits), so that
# every seed asks for the same amount of work. The train corpus uses the mean
# of the smoke corpus's 3-8 s range; synthesis overshoots a target by up to
# one note (0.2-0.6 s).
TRAIN_CLIP_S = 5.5
FIXTURE_CLIP_S = 3.5
LONG_SOURCE_S = 5.5
SHORT_CLIP_S = 2.0
WARMUP_CLIP_S = 1.2


class CheckFailed(Exception):
    """An output of the program did not pass a benchmark check."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()[:16]


def run_cli(argv: list[str]) -> tuple[int, dict, float]:
    """Call `cli.main` in process; returns exit code, parsed summary, wall."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    wall = time.perf_counter() - t0
    lines = [line for line in out.getvalue().splitlines() if line.strip()]
    try:
        summary = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        summary = {"unparsed": lines[-1]}
    if code != 0:
        summary.setdefault("stderr_tail", err.getvalue()[-400:])
    return code, summary, wall


def require_ok(code: int, summary: dict, what: str) -> None:
    require(code == 0 and summary.get("status") == "ok",
            f"{what}: exit {code}, summary {summary}")


# ---------------------------------------------------------------------------
# Training, timed from outside through the progress callback
# ---------------------------------------------------------------------------


def train_models(manifest: Path, out: Path, pitch_steps: int, svc_steps: int, seed: int) -> dict:
    """Train the pitch extractor, then the converter on `manifest`.

    The progress callback fires after step 0, every 100 steps and after the
    last step; the steady step time is taken between the first and the last
    callback, so corpus preparation, timbre fitting and checkpoint writes
    stay out of it and land in `setup_s` instead."""
    out.mkdir(parents=True, exist_ok=True)
    rec = {"pitch_ckpt": out / "pitch.pvck", "svc_ckpt": out / "svc.pvck",
           "pitch_log": out / "pitch_train.csv", "svc_log": out / "svc_train.csv"}
    pitch_cfg = PitchTrainConfig(encoder=PITCH_ENCODER, steps=pitch_steps, batch=PITCH_BATCH,
                                 peak_lr=1e-3)
    svc_cfg = ConverterConfig(steps=svc_steps, **CONVERTER)
    stages = {
        "pitch": lambda progress: pitch.train_pitch_extractor(
            manifest, pitch_cfg, None, rec["pitch_ckpt"], log_path=rec["pitch_log"],
            seed=seed, progress=progress),
        "svc": lambda progress: converter.train_converter(
            manifest, svc_cfg, None, rec["pitch_ckpt"], rec["svc_ckpt"],
            log_path=rec["svc_log"], seed=seed, progress=progress),
    }
    steps = {"pitch": pitch_steps, "svc": svc_steps}
    for stage, train in stages.items():
        marks = []
        t0 = time.perf_counter()
        train(lambda step, loss: marks.append((time.perf_counter(), step, loss)))
        wall = time.perf_counter() - t0
        (t_a, s_a, _), (t_b, s_b, _) = marks[0], marks[-1]
        step_s = (t_b - t_a) / (s_b - s_a)
        rec[f"{stage}_step_s"] = step_s
        rec[f"{stage}_setup_s"] = wall - steps[stage] * step_s
        rec[f"{stage}_progress_losses"] = [loss for _t, _s, loss in marks]
    return rec


def check_training(rec: dict) -> None:
    for stage in ("pitch", "svc"):
        with open(rec[f"{stage}_log"], newline="") as fh:
            losses = [float(row["loss"]) for row in csv.DictReader(fh)]
        require(losses and all(math.isfinite(v) for v in losses),
                f"{stage} training produced a non-finite loss")
        require(all(math.isfinite(v) for v in rec[f"{stage}_progress_losses"]),
                f"{stage} progress reported a non-finite loss")
    PitchExtractor.load(rec["pitch_ckpt"])
    ConverterModel.load(rec["svc_ckpt"])


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    ops_per_sample = 1  # operations that make up one sample of `rtf`

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.warmup_s: float | None = None

    def setup(self) -> None:
        pass

    def op(self, i: int) -> dict:
        raise NotImplementedError

    def check(self, rec: dict) -> str:
        """Validate one operation's outputs; returns their digest."""
        raise NotImplementedError

    def samples(self, records: list[dict], setup_s: float) -> dict[str, list[float]]:
        """Samples of `setup_s` and `rtf`, plus stage metrics of this workload."""
        raise NotImplementedError

    def _fixture(self) -> dict:
        """Corpus plus a briefly trained checkpoint at smoke shapes. The
        trainer seed is fixed; the corpus follows the workload seed."""
        manifest = synthgen.gen_dataset(
            SynthConfig(n_single=2, n_harmony=2, dur_range=(FIXTURE_CLIP_S, FIXTURE_CLIP_S)),
            self.seed, self.work / "fixture")
        rec = train_models(manifest, self.work / "fixture_ckpt", FIXTURE_PITCH_STEPS,
                           FIXTURE_SVC_STEPS, FIXTURE_TRAIN_SEED)
        check_training(rec)
        return {"manifest": manifest, **rec}

    def _warm_up(self, ckpt: Path, ref: Path, rate: int, transpose: int) -> None:
        """Convert one short clip before the loop, so that lazy set-up (kernel
        banks, filterbanks, position tables, allocator growth) is paid in
        set-up and not by the first measured call."""
        manifest = synthgen.gen_dataset(
            SynthConfig(n_single=0, n_harmony=1, dur_range=(WARMUP_CLIP_S, WARMUP_CLIP_S)),
            self.seed, self.work / "warmup")
        row = synthgen.load_manifest(manifest)[0]
        src = manifest.parent / row["path"]
        if rate != PIPELINE_RATE:
            audio.save_wav(audio.resample(audio.load_wav(src), rate), src)
        code, summary, wall = run_cli(["convert", "--src", str(src), "--ref", str(ref),
                                       "--ckpt", str(ckpt), "--out", str(self.work / "warmup.wav"),
                                       "--transpose", str(transpose), "--seed", str(self.seed)])
        require_ok(code, summary, "warm-up convert")
        self.warmup_s = wall


class Train(Workload):
    name = "train"

    def setup(self) -> None:
        # the first CQT in a process builds the kernel bank (about 1.3 s
        # against about 0.1 s for a later call); pay it here, not in round 0
        cqt.compute_cqt(audio.Waveform(np.zeros(PIPELINE_RATE), PIPELINE_RATE))

    def op(self, i: int) -> dict:
        rnd = self.work / f"round{i}"
        cfg = SynthConfig(n_single=10, n_harmony=10, dur_range=(TRAIN_CLIP_S, TRAIN_CLIP_S))
        t0 = time.perf_counter()
        manifest = synthgen.gen_dataset(cfg, self.seed, rnd / "data")
        synth_s = time.perf_counter() - t0
        rec = train_models(manifest, rnd / "ckpt", TRAIN_PITCH_STEPS, TRAIN_SVC_STEPS, self.seed)
        rec.update(synth_s=synth_s, synth_clips=cfg.n_single + cfg.n_harmony)
        return rec

    def check(self, rec: dict) -> str:
        check_training(rec)
        return _digest(*(Path(rec[k]).read_bytes()
                         for k in ("pitch_ckpt", "svc_ckpt", "pitch_log", "svc_log")))

    def samples(self, records, setup_s):
        # audio per training step: batch x window frames at 100 frames per second
        pitch_audio = PITCH_BATCH * PITCH_ENCODER.window_frames / 100.0
        svc_audio = CONVERTER["batch"] * CONVERTER["window_frames"] / 100.0
        return {
            "setup_s": [setup_s + r["synth_s"] + r["pitch_setup_s"] + r["svc_setup_s"]
                        for r in records],
            "rtf": [(TRAIN_PITCH_STEPS * r["pitch_step_s"] + TRAIN_SVC_STEPS * r["svc_step_s"])
                    / (TRAIN_PITCH_STEPS * pitch_audio + TRAIN_SVC_STEPS * svc_audio)
                    for r in records],
            "synth_clips_per_s": [r["synth_clips"] / r["synth_s"] for r in records],
            "pitch_train_steps_per_s": [1.0 / r["pitch_step_s"] for r in records],
            "svc_train_steps_per_s": [1.0 / r["svc_step_s"] for r in records],
        }


class ConvertLong(Workload):
    name = "convert-long"
    ops_per_sample = 2  # a plain call, then a transposed one

    def setup(self) -> None:
        fix = self._fixture()
        rows = synthgen.load_manifest(fix["manifest"])
        self.ckpt = fix["svc_ckpt"]
        self.refs = [fix["manifest"].parent / r["path"] for r in rows if r["split"] == "train"]
        manifest = synthgen.gen_dataset(
            SynthConfig(n_single=1, n_harmony=1, dur_range=(LONG_SOURCE_S, LONG_SOURCE_S)),
            self.seed, self.work / "sources")
        self.sources = []
        for row in synthgen.load_manifest(manifest):
            w48 = audio.resample(audio.load_wav(manifest.parent / row["path"]), SOURCE_RATE)
            path = self.work / "sources" / f"{row['id']}_48k.wav"
            audio.save_wav(w48, path)
            self.sources.append({"path": path, "samples": w48.samples.size,
                                 "duration": w48.duration})
        self._warm_up(self.ckpt, self.refs[0], SOURCE_RATE, TRANSPOSE)

    def op(self, i: int) -> dict:
        src = self.sources[i % 2]
        transpose = TRANSPOSE if i % 2 else 0
        out = self.work / f"convert{i}.wav"
        mel = self.work / f"convert{i}.mel"
        code, summary, wall = run_cli(
            ["convert", "--src", str(src["path"]), "--ref", str(self.refs[i % 2]),
             "--ckpt", str(self.ckpt), "--out", str(out), "--mel-out", str(mel),
             "--transpose", str(transpose), "--seed", str(self.seed)])
        return {"code": code, "summary": summary, "wall": wall, "out": out, "mel": mel,
                "src": src}

    def check(self, rec: dict) -> str:
        require_ok(rec["code"], rec["summary"], "convert")
        n44 = int(round(rec["src"]["samples"] * PIPELINE_RATE / SOURCE_RATE))
        frames = n44 // HOP + 1
        require(rec["summary"].get("frames") == frames,
                f"convert reported {rec['summary'].get('frames')} frames, source has {frames}")
        with wave.open(str(rec["out"]), "rb") as fh:
            n_out = fh.getnframes()
            require(fh.getframerate() == PIPELINE_RATE, "converted WAV is not at 44.1 kHz")
        require(n_out == frames * HOP, f"converted WAV has {n_out} samples, expected {frames * HOP}")
        raw = rec["mel"].read_bytes()
        mel = np.frombuffer(raw[32:], dtype="<f4")  # 32-byte container header
        require(mel.size == frames * 80 and bool(np.all(np.isfinite(mel))),
                "generated mel is non-finite or mis-sized")
        return _digest(rec["out"].read_bytes(), raw)

    def samples(self, records, setup_s):
        # one sample per (plain, transposed) pair, so every sample covers both paths
        rtf = [(a["wall"] + b["wall"]) / (a["src"]["duration"] + b["src"]["duration"])
               for a, b in zip(records[0::2], records[1::2])]
        return {"setup_s": [setup_s], "rtf": rtf, "convert_rtf": rtf}


class EvaluateShort(Workload):
    name = "evaluate-short"

    def setup(self) -> None:
        self.ckpt = self._fixture()["svc_ckpt"]
        cfg = SynthConfig(n_single=4, n_harmony=4, dur_range=(SHORT_CLIP_S, SHORT_CLIP_S),
                          eval_fraction=0.5)
        self.manifest = synthgen.gen_dataset(cfg, self.seed, self.work / "short")
        rows = synthgen.load_manifest(self.manifest)
        evals = [r for r in rows if r["split"] == "eval"]
        self.n_eval = len(evals)
        self.eval_audio = sum(r["duration_s"] for r in evals)
        self.config = self.work / "evaluate.json"
        self.config.write_text(json.dumps({
            "seed": self.seed,
            "paths": {"report_dir": "reports"},
            "eval": {"threshold_db": -20.0},
        }))
        ref = next(self.manifest.parent / r["path"] for r in rows if r["split"] == "train")
        self._warm_up(self.ckpt, ref, PIPELINE_RATE, 0)

    def op(self, i: int) -> dict:
        code, summary, wall = run_cli(["evaluate", "--config", str(self.config),
                                       "--manifest", str(self.manifest), "--ckpt", str(self.ckpt)])
        report = self.work / "reports" / "report.json"
        rows = json.loads(report.read_text())["rows"] if code == 0 else []
        return {"code": code, "summary": summary, "wall": wall, "rows": rows}

    def check(self, rec: dict) -> str:
        require_ok(rec["code"], rec["summary"], "evaluate")
        require(rec["summary"].get("clips") == self.n_eval and len(rec["rows"]) == self.n_eval,
                f"report has {len(rec['rows'])} rows for {self.n_eval} eval clips")
        return _digest(json.dumps(rec["rows"], sort_keys=True).encode())

    def samples(self, records, setup_s):
        rtf = [r["wall"] / self.eval_audio for r in records]
        return {"setup_s": [setup_s], "rtf": rtf, "evaluate_rtf": rtf}


WORKLOADS = {w.name: w for w in (Train, ConvertLong, EvaluateShort)}
