import contextlib
import dataclasses
import io
import json
import math
import shutil

import pytest

from polyvox import cli
from polyvox.config import load_config, persist_config, resolve_echo
from polyvox.converter import ConverterConfig
from polyvox.cqt import CqtConfig
from polyvox.errors import ContractError
from polyvox.evaluate import EvalConfig
from polyvox.pitch import PitchEncoderConfig, PitchExtractor, PitchTrainConfig
from polyvox.synthgen import SynthConfig, load_manifest

ENCODER = {"model_dim": 16, "n_layers": 1, "n_heads": 4, "window_frames": 40}
PITCH = {**ENCODER, "steps": 1, "batch": 2}
CONVERTER = {"width": 32, "n_layers": 1, "n_heads": 4, "window_frames": 60, "batch": 2,
             "steps": 1, "prompt_frames": 50, "nfe": 2, "sway_s": -1.0, "gl_iters": 2}
# the command each section's bad value is given to: the one that would use it
COMMAND = {"pitch": "train-pitch", "converter": "train-svc", "paths": "train-pitch",
           "synth": "synth-data", "eval": "evaluate", "seed": "train-pitch"}


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


def _synth_paths(tmp_path, section) -> dict:
    """For a `synth-data` case, the corpus directory: a fresh one under
    tmp_path, so that a check of what the command wrote covers it."""
    return {"paths": {"data_dir": str(tmp_path / "synth")}} if section == "synth" else {}


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
    # keys that are constants now: a bad value is an unknown key, as a good one is
    ("synth", {"lead_range": [70, 55]}),
    ("synth", {"lead_range": [80, 83]}),
    ("synth", {"note_dur_range": [0.5, 0.1]}),
    ("synth", {"note_dur_range": [0.001, 0.1]}),
    ("eval", {"bootstrap_resamples": 0}),
    ("eval", {"bootstrap_resamples": -1}),
    ("eval", {"tolerance_bins": -1}),
    # a negative or non-finite learning rate trains, climbing the loss
    ("pitch", {"peak_lr": -1}),
    ("pitch", {"peak_lr": 0}),
    ("pitch", {"peak_lr": "abc"}),
    ("pitch", {"peak_lr": float("nan")}),
    ("pitch", {"steps": 1.5}),  # would fail with a TypeError at the first step
    ("pitch", {"batch": True}),
    ("converter", {"peak_lr": -1}),
    ("converter", {"peak_lr": "abc"}),
    ("converter", {"peak_lr": float("inf")}),
    ("converter", {"steps": 1.5}),
    ("converter", {"batch": 2.0}),
    # a corpus the split cannot divide, or no corpus at all
    ("synth", {"eval_fraction": 2.0}),
    ("synth", {"eval_fraction": -1}),
    ("synth", {"eval_fraction": 0}),
    ("synth", {"n_single": -3}),
    ("synth", {"n_single": 0, "n_harmony": 0}),
    # an integer key given a float or a boolean, a float key given NaN, a
    # pair that is not two finite numbers, a boolean seed
    ("converter", {"nfe": 2.5}),  # would integrate past t = 1
    ("converter", {"width": 32.0}),
    ("converter", {"gl_iters": 1.5}),
    ("converter", {"window_frames": True}),
    ("converter", {"prompt_frames": 1.5}),
    ("converter", {"n_layers": -1}),
    ("converter", {"width": 0}),
    ("pitch", {"n_layers": -1}),
    ("pitch", {"model_dim": 0}),
    ("pitch", {"model_dim": 16.0}),
    ("pitch", {"window_frames": 8.5}),
    ("eval", {"threshold_db": float("nan")}),  # would score every clip f1 0
    ("synth", {"dur_range": [3.0]}),
    ("synth", {"dur_range": [3.0, 4.0, 5.0]}),
    ("synth", {"dur_range": [3.0, float("inf")]}),
    ("seed", True),
    ("seed", -1),  # numpy's SeedSequence would reject it after the output directory exists
], ids=lambda v: v if isinstance(v, str) else (",".join(f"{k}={x}" for k, x in v.items())
                                              if isinstance(v, dict) else repr(v)))
def test_bad_value_exits_1_before_training(tiny_corpus, tmp_path, section, bad):
    path, ckpt = _write_config(tmp_path, tiny_corpus, **{section: bad},
                               **_synth_paths(tmp_path, section))
    if section == "converter":  # so that only the config stands between train-svc and training
        PitchExtractor(PitchEncoderConfig(**ENCODER)).save(ckpt / "pitch.pvck")
    argv = [COMMAND[section], "--config", str(path)]
    before = _files(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    summary = json.loads(out.getvalue().splitlines()[-1])
    assert (code, summary["status"]) == (1, "config-error"), summary
    assert f"'{section}'" in summary["error"]
    if isinstance(bad, dict):
        assert all(key in summary["error"] for key in bad), summary["error"]
    assert _files(tmp_path) == before


CONFIG_CLASSES = (SynthConfig, CqtConfig, PitchEncoderConfig, PitchTrainConfig, ConverterConfig,
                  EvalConfig)
# values the value rule rejects, by field annotation
REJECTED = {"int": [1.5, True], "float": [math.nan, math.inf, True],
            "tuple[float, float]": [(3.0,), (3.0, 4.0, 5.0), (3.0, math.inf), (True, 4.0), 3.0]}


def test_value_rule_covers_every_config_field():
    """Every field of the config dataclasses has an annotation the rule
    checks, save the encoder config the pitch trainer holds."""
    unchecked = [(cls.__name__, f.name) for cls in CONFIG_CLASSES
                 for f in dataclasses.fields(cls) if f.type not in REJECTED]
    assert unchecked == [("PitchTrainConfig", "encoder")]


@pytest.mark.parametrize("cls, name, bad", [
    (cls, f.name, bad) for cls in CONFIG_CLASSES for f in dataclasses.fields(cls)
    for bad in REJECTED.get(f.type, [])
], ids=lambda v: getattr(v, "__name__", v if isinstance(v, str) else repr(v)))
def test_value_rule_rejects_naming_the_field(cls, name, bad):
    with pytest.raises(ContractError, match=f"^{name} must be"):
        cls(**{name: bad})


def test_value_rule_keeps_valid_values():
    """An int is a valid float, and a JSON list a valid pair, as before."""
    cfg = SynthConfig(dur_range=[1, 2], eval_fraction=0.5)
    assert cfg.dur_range == (1, 2) and isinstance(cfg.dur_range, tuple)
    assert ConverterConfig(peak_lr=1, sway_s=0).peak_lr == 1


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
    *(pytest.param(section, key, value, id=f"{section}.{key}") for section, key, value in [
        ("converter", "mask_span", [0.3, 0.7]),
        ("converter", "min_lr_ratio", 0.1),
        ("converter", "weight_decay", 0.01),
        ("pitch", "min_lr_ratio", 0.1),
        ("pitch", "weight_decay", 0.01),
        ("synth", "lead_range", [55, 70]),
        ("synth", "note_dur_range", [0.2, 0.6]),
        ("synth", "rest_prob", 0.2),
        ("eval", "tolerance_bins", 1),
        ("eval", "bootstrap_resamples", 1000),
    ]),
])
def test_fixed_converter_shape_is_an_unknown_key(tiny_corpus, tmp_path, section, key, value):
    """The mel band count, the feed-forward width and the pitch encoder's
    input width (`midi.ROLL_PITCHES` CQT bins) are constants of the
    converter and its pitch encoder, not options, as are the prompt's mask
    span, the schedule's floor and weight decay, the corpus's melody
    statistics and the evaluator's tolerance and bootstrap size: a config
    that sets one, even to the constant's value, exits 1 naming it."""
    path, _ckpt = _write_config(tmp_path, tiny_corpus, **{section: {key: value}},
                                **_synth_paths(tmp_path, section))
    argv = [COMMAND[section], "--config", str(path)]
    before = _files(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    summary = json.loads(out.getvalue().splitlines()[-1])
    assert (code, summary["status"]) == (1, "config-error"), summary
    assert f"unknown key '{key}'" in summary["error"]
    assert _files(tmp_path) == before


def test_threads_is_an_unknown_option(tiny_corpus, tmp_path):
    """Corpus rendering runs on the calling thread and no stage reads a
    worker count, so `--threads` is an unknown option: a usage error that
    exits 1 before the config is read."""
    path, _ckpt = _write_config(tmp_path, tiny_corpus, **_synth_paths(tmp_path, "synth"))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["--threads=2", "synth-data", "--config", str(path)])
    assert code == 1
    assert "unrecognized arguments: --threads=2" in err.getvalue()
    assert not (tmp_path / "synth").exists()


@pytest.mark.parametrize("argv, error", [
    (["convert", "--src", "x"], "the following arguments are required: --ref, --ckpt, --out"),
    (["convert", "--src", "x", "--ref", "y", "--ckpt", "z", "--out", "o", "--seed", "two"],
     "argument --seed: invalid int value: 'two'"),
], ids=["missing-flag", "non-integer-seed"])
def test_usage_error_prints_one_json_line(argv, error):
    """A usage error exits 1 with exactly one JSON summary line on stdout,
    as every other outcome does, and the usage text on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == 1
    assert [json.loads(line) for line in out.getvalue().splitlines()] == [
        {"status": "usage-error", "error": error}]
    assert err.getvalue().startswith("usage: polyvox convert")


@pytest.mark.parametrize("argv, usage", [
    (["--help"], "usage: polyvox [-h]"), (["convert", "--help"], "usage: polyvox convert"),
], ids=["top-level", "convert"])
def test_help_prints_one_json_line(argv, usage):
    """`--help` exits 0 with exactly one JSON summary line on stdout, and
    the help text on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == 0
    assert [json.loads(line) for line in out.getvalue().splitlines()] == [
        {"status": "ok", "command": "help"}]
    assert err.getvalue().startswith(usage) and "--help" in err.getvalue()


@pytest.mark.parametrize("command, split", [("train-pitch", "train"), ("evaluate", "eval")])
def test_corrupt_smf_exits_2_naming_the_file(tiny_corpus, tmp_path, command, split):
    """A truncated `.mid` sidecar in the corpus is a runtime failure whose
    message names that file, as a bad WAV's does."""
    corpus = tmp_path / "corpus"
    shutil.copytree(tiny_corpus.parent, corpus)
    manifest = corpus / tiny_corpus.name
    row = next(r for r in load_manifest(manifest) if r["split"] == split)
    mid = (corpus / row["path"]).with_suffix(".mid")
    mid.write_bytes(mid.read_bytes()[:30])
    path, ckpt = _write_config(tmp_path, manifest)
    argv = [command, "--config", str(path)]
    if command == "evaluate":  # the clips are read before the checkpoint is opened
        (ckpt / "unread.pvck").write_bytes(b"")
        argv += ["--ckpt", str(ckpt / "unread.pvck")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    summary = json.loads(out.getvalue().splitlines()[-1])
    assert (code, summary["status"]) == (2, "error"), summary
    assert f"MidiParseError: {mid}: truncated MTrk chunk" in err.getvalue()
    assert str(mid) in summary["error"]


def _leaves(tree: dict, prefix: str = "") -> set[str]:
    """The dotted paths of the non-object values of a JSON object."""
    keys = set()
    for key, value in tree.items():
        path = f"{prefix}{key}"
        keys |= _leaves(value, path + ".") if isinstance(value, dict) else {path}
    return keys


def test_settable_values_are_pinned(tmp_path):
    """The 27 values a run config can set. A new option fails this test
    until it is added here on purpose."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 0}))
    assert _leaves(resolve_echo(load_config(path))) == {
        "seed", "paths.data_dir", "paths.checkpoint_dir", "paths.report_dir",
        "synth.n_single", "synth.n_harmony", "synth.dur_range", "synth.eval_fraction",
        "pitch.model_dim", "pitch.n_layers", "pitch.n_heads", "pitch.window_frames",
        "pitch.steps", "pitch.batch", "pitch.peak_lr",
        "converter.width", "converter.n_layers", "converter.n_heads", "converter.window_frames",
        "converter.steps", "converter.batch", "converter.peak_lr", "converter.sway_s",
        "converter.nfe", "converter.prompt_frames", "converter.gl_iters",
        "eval.threshold_db",
    }


def test_persisted_config_loads_back_to_the_same_run(tiny_corpus, tmp_path):
    """`resolved_config.json` is in the file format: loading it gives the
    config it was written from, whose echo is the file's content."""
    path, _ckpt = _write_config(tmp_path, tiny_corpus, synth={"n_single": 3})
    cfg = load_config(path)
    target = persist_config(cfg, tmp_path / "out" / "resolved_config.json")
    back = load_config(target)
    assert back == cfg
    assert json.loads(target.read_text()) == json.loads(json.dumps(resolve_echo(back)))


def test_each_trainer_keeps_its_own_config_record(tiny_corpus, tmp_path):
    """`train-pitch` and `train-svc` persist their configs beside their own
    checkpoints, so training the converter leaves the pitch record alone."""
    path, ckpt = _write_config(tmp_path, tiny_corpus)
    for command, seed in (("train-pitch", 1), ("train-svc", 2)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(path), "--seed", str(seed)])
        assert code == 0, out.getvalue() + err.getvalue()
    assert json.loads((ckpt / "pitch_config.json").read_text())["seed"] == 1
    assert json.loads((ckpt / "svc_config.json").read_text())["seed"] == 2
    assert not (ckpt / "resolved_config.json").exists()


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
