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
# the command each section's bad value is given to: the one that would use it
COMMAND = {"pitch": "train-pitch", "converter": "train-svc", "paths": "train-pitch",
           "synth": "synth-data", "eval": "evaluate"}


def _write_config(tmp_path, corpus, **sections):
    """A run config over the corpus, with checkpoints under tmp_path. A
    section given as a dict is merged into the valid one; anything else
    replaces the section."""
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    path = tmp_path / "run.json"
    config = {
        "seed": 0,
        "paths": {"data_dir": str(corpus.parent), "checkpoint_dir": str(ckpt)},
        "pitch": PITCH,
        "converter": CONVERTER,
    }
    for section, value in sections.items():
        merge = isinstance(value, dict) and isinstance(config.get(section), dict)
        config[section] = {**config[section], **value} if merge else value
    path.write_text(json.dumps(config))
    return path, ckpt


def _files(root):
    return sorted(p for p in root.rglob("*") if p.is_file())


@pytest.mark.parametrize("section, bad", [
    ("pitch", {"steps": 0}),
    ("pitch", {"batch": 0}),
    ("pitch", {"model_dim": 15, "n_heads": 5}),  # odd: no position table
    ("converter", {"steps": 0}),
    ("converter", {"batch": 0}),
    ("converter", {"gl_iters": 0}),
    ("converter", {"nfe": 0}),
    ("converter", {"sway_s": 3}),
    ("converter", {"width": 30}),  # not divisible by 4 heads
    ("converter", {"width": 15, "n_heads": 5}),  # odd: no position table
    ("converter", {"window_frames": 0}),
    ("converter", {"prompt_frames": -5}),
    ("pitch", {"encoder": {"model_dim": 8}}),  # encoder fields sit flat in "pitch"
    ("pitch", 5),
    ("paths", []),
    ("converter", []),
    ("synth", "x"),
    ("synth", {"presets": [1, 2, 3, 4]}),  # presets are code, not file format
    ("synth", {"lead_range": [70, 55]}),
    ("synth", {"lead_range": [80, 83]}),  # no room for a harmony a major third or more above
    ("synth", {"note_dur_range": [0.5, 0.1]}),
    ("synth", {"note_dur_range": [0.001, 0.1]}),  # shorter than a note's attack and release
    ("eval", {"bootstrap_resamples": 0}),
    ("eval", {"bootstrap_resamples": -1}),
    ("eval", {"tolerance_bins": -1}),  # would match no bin, scoring every clip 0
], ids=lambda v: v if isinstance(v, str) else (",".join(f"{k}={x}" for k, x in v.items())
                                              if isinstance(v, dict) else repr(v)))
def test_bad_value_exits_1_before_training(tiny_corpus, tmp_path, section, bad):
    path, ckpt = _write_config(tmp_path, tiny_corpus, **{section: bad})
    if section == "converter":  # so that only the config stands between train-svc and training
        PitchExtractor(PitchEncoderConfig(**ENCODER)).save(ckpt / "pitch.pvck")
    argv = [COMMAND[section], "--config", str(path)]
    if section == "synth":
        argv += ["--out", str(tmp_path / "synth")]
    before = _files(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    summary = json.loads(out.getvalue().splitlines()[-1])
    assert (code, summary["status"]) == (1, "config-error"), summary
    assert f"'{section}'" in summary["error"]
    assert _files(tmp_path) == before


def test_unknown_pitch_key_lists_encoder_keys(tiny_corpus, tmp_path):
    """The flat encoder keys are valid in "pitch", so the unknown-key
    message lists them beside the trainer's."""
    path, _ckpt = _write_config(tmp_path, tiny_corpus, pitch={"foo": 1})
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["train-pitch", "--config", str(path)])
    summary = json.loads(out.getvalue().splitlines()[-1])
    assert (code, summary["status"]) == (1, "config-error"), summary
    assert "'foo'" in summary["error"]
    for key in ("model_dim", "n_layers", "n_heads", "window_frames", "steps"):
        assert f"'{key}'" in summary["error"]


@pytest.mark.parametrize("section, key, value", [
    pytest.param("converter", "mel_bands", 40, id="mel_bands-40"),
    pytest.param("converter", "ff_mult", 2, id="ff_mult-2"),
    pytest.param("pitch", "input_bins", 60, id="input_bins-60"),
])
def test_fixed_converter_shape_is_an_unknown_key(tiny_corpus, tmp_path, section, key, value):
    """The mel band count, the feed-forward width and the pitch encoder's
    input width (`midi.ROLL_PITCHES` CQT bins) are constants of the
    converter and its pitch encoder, not options: a config that sets one
    exits 1 naming it."""
    path, _ckpt = _write_config(tmp_path, tiny_corpus, **{section: {key: value}})
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([COMMAND[section], "--config", str(path)])
    summary = json.loads(out.getvalue().splitlines()[-1])
    assert (code, summary["status"]) == (1, "config-error"), summary
    assert f"unknown key '{key}'" in summary["error"]


def test_zero_threads_is_a_usage_error(tiny_corpus, tmp_path):
    """Corpus rendering always runs on a pool of `--threads` workers, so 0
    workers is refused before the config is read."""
    path, _ckpt = _write_config(tmp_path, tiny_corpus)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["--threads", "0", "synth-data", "--config", str(path),
                         "--out", str(tmp_path / "synth")])
    assert code == 1
    assert not (tmp_path / "synth").exists()


def test_valid_config_loads(tiny_corpus, tmp_path):
    path, ckpt = _write_config(tmp_path, tiny_corpus)
    cfg = load_config(path)
    assert (cfg.pitch.steps, cfg.pitch.batch, cfg.pitch.encoder.model_dim) == (1, 2, 16)
    assert (cfg.converter.steps, cfg.converter.gl_iters, cfg.converter.nfe) == (1, 2, 2)
    assert cfg.manifest_path == tiny_corpus and cfg.pitch_ckpt == ckpt / "pitch.pvck"


# one well-formed manifest row with each field in turn taken out, or the split changed
_ROW = {"id": "x", "condition": "single", "preset": "alto_warm", "path": "clips/x.wav",
        "split": "train"}
HOSTILE_LINES = {
    "invalid-json": '{"id": "x",',
    "not-an-object": "[1, 2]",
    "unknown-split": json.dumps({**_ROW, "split": "test"}),
    "null-preset": json.dumps({**_ROW, "preset": None}),
    **{f"no-{key}": json.dumps({k: v for k, v in _ROW.items() if k != key}) for key in _ROW},
}


def _run_on_manifest(tmp_path, corpus, rows, command, insert=None):
    """Run `command` on a manifest of `rows` (paths into `corpus`) with the
    line `insert` as line 3. The checkpoints the command requires exist;
    evaluate's is a placeholder, because it reads the manifest first."""
    data = tmp_path / "data"
    data.mkdir()
    lines = [json.dumps(dict(row, path=str(corpus.parent / row["path"]))) for row in rows]
    if insert is not None:
        lines.insert(2, insert)
    manifest = data / "manifest.jsonl"
    manifest.write_text("\n".join(lines) + "\n")
    path, ckpt = _write_config(tmp_path, manifest)
    PitchExtractor(PitchEncoderConfig(**ENCODER)).save(ckpt / "pitch.pvck")
    (ckpt / "svc.pvck").write_bytes(b"")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, "--config", str(path)])
    return code, json.loads(out.getvalue().splitlines()[-1]), manifest


@pytest.mark.parametrize("kind", sorted(HOSTILE_LINES))
@pytest.mark.parametrize("command", ["train-pitch", "train-svc", "evaluate"])
def test_hostile_manifest_line_exits_2_naming_it(tiny_corpus, tiny_rows, tmp_path, command,
                                                 kind):
    code, summary, manifest = _run_on_manifest(tmp_path, tiny_corpus, tiny_rows, command,
                                               insert=HOSTILE_LINES[kind])
    assert (code, summary["status"]) == (2, "error"), summary
    assert f"manifest {manifest} line 3:" in summary["error"]


@pytest.mark.parametrize("command, split", [("train-pitch", "train"), ("train-svc", "train"),
                                            ("evaluate", "train"), ("evaluate", "eval")])
def test_empty_split_exits_2(tiny_corpus, tiny_rows, tmp_path, command, split):
    """Every command that needs a split fails the same way without it."""
    other = "eval" if split == "train" else "train"
    rows = [dict(row, split=other) for row in tiny_rows]
    code, summary, manifest = _run_on_manifest(tmp_path, tiny_corpus, rows, command)
    assert (code, summary["status"]) == (2, "error"), summary
    assert f"ContractError: no {split} clips in manifest {manifest}" == summary["error"]
