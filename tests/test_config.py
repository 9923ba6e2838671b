import contextlib
import io
import json

import pytest

from polyvox import cli
from polyvox.config import load_config
from polyvox.pitch import PitchEncoderConfig, PitchExtractor

ENCODER = {"model_dim": 16, "n_layers": 1, "n_heads": 4, "window_frames": 40}
PITCH = {**ENCODER, "steps": 1, "batch": 2}
CONVERTER = {"width": 32, "n_layers": 1, "n_heads": 4, "window_frames": 60, "batch": 2,
             "steps": 1, "prompt_frames": 50, "nfe": 2, "sway_s": -1.0, "gl_iters": 2}
CHECKPOINT = {"pitch": "pitch.pvck", "converter": "svc.pvck"}


def _write_config(tmp_path, corpus, **sections):
    """A run config over the corpus, with checkpoints under tmp_path."""
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "seed": 0,
        "paths": {"data_dir": str(corpus.parent), "checkpoint_dir": str(ckpt)},
        "pitch": {**PITCH, **sections.get("pitch", {})},
        "converter": {**CONVERTER, **sections.get("converter", {})},
    }))
    return path, ckpt


@pytest.mark.parametrize("section, bad", [
    ("pitch", {"steps": 0}),
    ("pitch", {"batch": 0}),
    ("converter", {"steps": 0}),
    ("converter", {"batch": 0}),
    ("converter", {"gl_iters": 0}),
    ("converter", {"nfe": 0}),
    ("converter", {"sway_s": 3}),
], ids=lambda v: v if isinstance(v, str) else ",".join(f"{k}={x}" for k, x in v.items()))
def test_bad_value_exits_1_before_training(tiny_corpus, tmp_path, section, bad):
    path, ckpt = _write_config(tmp_path, tiny_corpus, **{section: bad})
    if section == "converter":  # so that only the config stands between train-svc and training
        PitchExtractor(PitchEncoderConfig(**ENCODER)).save(ckpt / "pitch.pvck")
    command = "train-pitch" if section == "pitch" else "train-svc"
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, "--config", str(path)])
    summary = json.loads(out.getvalue().splitlines()[-1])
    assert (code, summary["status"]) == (1, "config-error"), summary
    assert f"'{section}'" in summary["error"]
    assert not (ckpt / CHECKPOINT[section]).exists()


def test_valid_config_loads(tiny_corpus, tmp_path):
    path, ckpt = _write_config(tmp_path, tiny_corpus)
    cfg = load_config(path)
    assert (cfg.pitch.steps, cfg.pitch.batch, cfg.pitch.encoder.model_dim) == (1, 2, 16)
    assert (cfg.converter.steps, cfg.converter.gl_iters, cfg.converter.nfe) == (1, 2, 2)
    assert cfg.manifest_path == tiny_corpus and cfg.pitch_ckpt == ckpt / "pitch.pvck"
