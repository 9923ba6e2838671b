"""Run configuration: one JSON file drives every pipeline stage.

Paths are resolved relative to the config file location; the fully resolved
config is persisted next to each stage's outputs and echoed into reports.
A command's `--seed` overrides the file's seed.

Each section builds its dataclass, whose `__post_init__` applies the value
rule of `errors.check_fields` (an `int` key holds an integer and not a
boolean, a `float` key a finite number, a pair exactly two) before its own
cross-key checks; any failure is a ConfigError naming the section and key.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .converter import ConverterConfig
from .errors import is_int
from .evaluate import EvalConfig
from .pitch import PitchEncoderConfig, PitchTrainConfig
from .synthgen import SynthConfig


class ConfigError(ValueError):
    """Configuration problem with a field (or line) diagnostic."""


@dataclass
class RunConfig:
    seed: int
    data_dir: Path
    checkpoint_dir: Path
    report_dir: Path
    synth: SynthConfig
    pitch: PitchTrainConfig
    converter: ConverterConfig
    eval: EvalConfig
    resolved: dict = field(default_factory=dict, repr=False)

    @property
    def manifest_path(self) -> Path:
        return self.data_dir / "manifest.jsonl"

    @property
    def pitch_ckpt(self) -> Path:
        return self.checkpoint_dir / "pitch.pvck"

    @property
    def svc_ckpt(self) -> Path:
        return self.checkpoint_dir / "svc.pvck"


def _section(data: dict, section: str) -> dict:
    """The JSON object under `section` of the config file ({} if absent)."""
    value = data.get(section, {})
    if not isinstance(value, dict):
        raise ConfigError(f"field '{section}': must be an object, got {type(value).__name__}")
    return value


def _build_section(cls, data: dict, section: str, siblings=frozenset(), **extra):
    """`cls` from the file's `section` plus `extra`, fields the loader fills.
    `siblings` are the section's keys that another dataclass takes; the
    loader has split them off, and an unknown key's message names them too."""
    known = {f.name for f in dataclasses.fields(cls)} - extra.keys()
    for key in data:
        if key not in known:
            raise ConfigError(f"field '{section}': unknown key '{key}' "
                              f"(known: {sorted(known | siblings)})")
    try:
        return cls(**data, **extra)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field '{section}': {exc}") from exc


def check_seed(seed, name: str) -> None:
    """The seed rule: an integer >= 0, as numpy's SeedSequence takes no
    negative seed. A bad seed raises ConfigError naming `name`."""
    if not is_int(seed) or seed < 0:
        raise ConfigError(f"{name}: must be an integer >= 0, got {seed!r}")


def load_config(path, seed_override: int | None = None) -> RunConfig:
    """Parse and validate a run config; raises ConfigError with a line or
    field diagnostic on any problem."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} not found")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")

    seed = data.get("seed") if seed_override is None else seed_override
    if seed is None:
        raise ConfigError("field 'seed': required (or pass --seed)")
    check_seed(seed, "field 'seed'")

    paths = _section(data, "paths")
    base = path.parent

    def respath(key, default):
        value = paths.get(key, default)
        if not isinstance(value, str):
            raise ConfigError(f"field 'paths.{key}': must be a string")
        return (base / value).resolve()

    pitch_raw = dict(_section(data, "pitch"))
    encoder_keys = {f.name for f in dataclasses.fields(PitchEncoderConfig)}
    encoder_raw = {k: pitch_raw.pop(k) for k in list(pitch_raw) if k in encoder_keys}
    encoder = _build_section(PitchEncoderConfig, encoder_raw, "pitch")
    pitch = _build_section(PitchTrainConfig, pitch_raw, "pitch", encoder_keys, encoder=encoder)

    cfg = RunConfig(
        seed=seed,
        data_dir=respath("data_dir", "data"),
        checkpoint_dir=respath("checkpoint_dir", "checkpoints"),
        report_dir=respath("report_dir", "reports"),
        synth=_build_section(SynthConfig, _section(data, "synth"), "synth"),
        pitch=pitch,
        converter=_build_section(ConverterConfig, _section(data, "converter"), "converter"),
        eval=_build_section(EvalConfig, _section(data, "eval"), "eval"),
    )
    cfg.resolved = resolve_echo(cfg)
    return cfg


def resolve_echo(cfg: RunConfig) -> dict:
    """JSON-serializable dump of the exact configuration in effect."""
    return {
        "seed": cfg.seed,
        "paths": {
            "data_dir": str(cfg.data_dir),
            "checkpoint_dir": str(cfg.checkpoint_dir),
            "report_dir": str(cfg.report_dir),
        },
        "synth": dataclasses.asdict(cfg.synth),
        "pitch": dataclasses.asdict(cfg.pitch),
        "converter": dataclasses.asdict(cfg.converter),
        "eval": dataclasses.asdict(cfg.eval),
    }


def persist_config(cfg: RunConfig, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    target = out / "resolved_config.json"
    target.write_text(json.dumps(cfg.resolved, indent=2, sort_keys=True))
    return target
