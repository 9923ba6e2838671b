import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from polyvox.audio import Waveform
from polyvox.synthgen import DEFAULT_PRESETS, SynthConfig, gen_dataset, load_clips, load_manifest

SR = 44100
WAVE_PCM, WAVE_FLOAT = 1, 3


def write_wav(path, frames: np.ndarray, tag: int, rate: int) -> None:
    """A WAV file of `frames`, (samples,) mono or (samples, 2) stereo, in
    their own little-endian codes: int16 with `tag` 1, float32 with 3, and
    any header `rate`."""
    channels = 1 if frames.ndim == 1 else frames.shape[1]
    payload = frames.tobytes()
    block = channels * frames.itemsize
    path.write_bytes(struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE",
                                 b"fmt ", 16, tag, channels, rate, rate * block, block,
                                 8 * frames.itemsize, b"data", len(payload)) + payload)


def make_sine(freq: float, dur: float = 1.0, amp: float = 1.0, sr: int = SR) -> Waveform:
    t = np.arange(int(round(dur * sr))) / sr
    return Waveform(amp * np.sin(2.0 * np.pi * freq * t), sr)


@pytest.fixture(scope="session")
def sine_440():
    return make_sine(440.0)


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """Small mixed corpus for unit tests: 4 single + 4 harmony clips."""
    root = tmp_path_factory.mktemp("tiny_corpus")
    manifest = gen_dataset(
        SynthConfig(n_single=4, n_harmony=4, dur_range=(3.0, 4.0)), seed=11, out_dir=root)
    return manifest


@pytest.fixture(scope="session")
def tiny_rows(tiny_corpus):
    return load_manifest(tiny_corpus)


# ---------------------------------------------------------------------------
# Expensive session fixtures backing the acceptance suite. They are built
# lazily, so `pytest -k "not acceptance"` stays fast.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def pitch_run(tmp_path_factory):
    """Criterion-scale pitch training: 50 train clips, 2000 steps, plus a
    20-clip held-out retrieval probe set."""
    from polyvox.cqt import compute_cqt
    from polyvox.midi import to_piano_roll
    from polyvox.pitch import (PitchEncoderConfig, PitchExtractor, PitchTrainConfig,
                               cqt_input, retrieval_probe, train_pitch_extractor)

    root = tmp_path_factory.mktemp("pitch_run")
    manifest = gen_dataset(SynthConfig(n_single=28, n_harmony=28), seed=101,
                           out_dir=root / "data")
    probe_manifest = gen_dataset(SynthConfig(n_single=10, n_harmony=10), seed=202,
                                 out_dir=root / "probe")
    encoder = PitchEncoderConfig(model_dim=64, n_layers=2, n_heads=4, window_frames=160)
    cfg = PitchTrainConfig(encoder=encoder, steps=2000, batch=3, peak_lr=1e-3)
    log_path = root / "pitch_train.csv"
    ckpt = train_pitch_extractor(manifest, cfg, None, root / "pitch.pvck",
                                 log_path=log_path, seed=7,
                                 progress=lambda s, l: print(f"[pitch_run] {s} {l:.4f}",
                                                             file=sys.stderr))
    probe_clips = []
    for clip in load_clips(probe_manifest, "train") + load_clips(probe_manifest, "eval"):
        values = cqt_input(compute_cqt(clip.wave))
        probe_clips.append((values, to_piano_roll(clip.notes, n_frames=values.shape[0]).activity))
    model = PitchExtractor.load(ckpt)
    untrained = PitchExtractor(encoder, seed=99)
    return {
        "manifest": manifest,
        "ckpt": ckpt,
        "log": log_path,
        "model": model,
        "untrained": untrained,
        "probe_clips": probe_clips,
        "trained_accuracy": retrieval_probe(model, probe_clips),
        "untrained_accuracy": retrieval_probe(untrained, probe_clips),
    }


SMOKE_CONFIG = {
    "seed": 7,
    "synth": {"n_single": 10, "n_harmony": 10},
    "pitch": {
        "model_dim": 64, "n_layers": 2, "n_heads": 4, "window_frames": 160,
        "steps": 500, "batch": 3, "peak_lr": 1e-3,
    },
    "converter": {
        "width": 128, "n_layers": 4, "n_heads": 4, "window_frames": 200,
        "steps": 2000, "batch": 2, "peak_lr": 1e-3,
        "sway_s": -1.0, "nfe": 32, "prompt_frames": 150, "gl_iters": 48,
    },
    "eval": {"threshold_db": -20.0},
}


@pytest.fixture(scope="session")
def smoke_run(tmp_path_factory):
    """Full tiny pipeline through the CLI: synth-data, train-pitch,
    train-svc, then conversion probes on fresh held-out clips."""
    from polyvox.cli import main as cli_main

    root = tmp_path_factory.mktemp("smoke_run")
    config = dict(SMOKE_CONFIG)
    config["paths"] = {
        "data_dir": str(root / "data"),
        "checkpoint_dir": str(root / "ckpt"),
        "report_dir": str(root / "reports"),
    }
    config_path = root / "smoke.json"
    config_path.write_text(json.dumps(config, indent=2))

    def run(argv):
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(argv)
        lines = [l for l in buf.getvalue().splitlines() if l.strip()]
        summary = json.loads(lines[-1]) if lines else {}
        assert code == 0, f"{argv} failed ({code}): {summary}"
        return summary

    summaries = {}
    summaries["synth"] = run(["synth-data", "--config", str(config_path)])
    pitch_bytes_before = None
    summaries["pitch"] = run(["train-pitch", "--config", str(config_path)])
    pitch_ckpt = root / "ckpt" / "pitch.pvck"
    pitch_bytes_before = pitch_ckpt.read_bytes()
    summaries["svc"] = run(["train-svc", "--config", str(config_path)])
    pitch_bytes_after = pitch_ckpt.read_bytes()

    probes = gen_dataset(SynthConfig(n_single=2, n_harmony=2, dur_range=(3.0, 5.0)),
                         seed=404, out_dir=root / "probes")
    return {
        "root": root,
        "config_path": config_path,
        "config": config,
        "manifest": root / "data" / "manifest.jsonl",
        "pitch_ckpt": pitch_ckpt,
        "svc_ckpt": root / "ckpt" / "svc.pvck",
        "probe_manifest": probes,
        "summaries": summaries,
        "pitch_bytes_before": pitch_bytes_before,
        "pitch_bytes_after": pitch_bytes_after,
        "run_cli": run,
    }
