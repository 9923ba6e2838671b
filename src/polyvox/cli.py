"""Command-line entry point wiring the pipeline stages together.

Every command, every usage error and `--help` print exactly one JSON summary
line to stdout (progress and help text go to stderr) and exit 0 on success,
1 on usage or configuration errors, and 2 on runtime failures. The `convert`
and `evaluate` summaries carry the command's wall time `wall_s` and its
real-time factor `rtf`, wall time over the seconds of source audio converted.

`synth-data` writes the corpus to the config's `paths.data_dir`, where the
trainers and `evaluate` read it. `synth-data` persists its resolved config
as `resolved_config.json` in the data directory, and `train-pitch` and
`train-svc` theirs as `pitch_config.json` and `svc_config.json` next to
their checkpoints. Corpora are read with `synthgen.load_clips`: a malformed
manifest line and a split with no clips are runtime failures, so every
command exits 2 on them. `evaluate` also exits 2, before its first
conversion, on a source or reference clip shorter than `convert` takes. Its
`--manifest` and `--ckpt` override the config's paths, and `report.json`
names the manifest and checkpoint it scored, with the checkpoint's
`config_hash`, beside the config echo.

`convert` runs the checkpoint's `nfe`, `sway_s` and `gl_iters`; no flag sets
them. `convert` and `evaluate` read the source CQT and mel and the reference's
timbre vector from the `converter.Conversion` that `convert()` returns.
Griffin-Lim's output is not bounded, so `convert` divides a waveform whose
peak exceeds 1 by that peak before writing it as PCM16, and reports the peak
before scaling as `peak`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .audio import HOP, MEL_FMIN, PIPELINE_SAMPLE_RATE, load_wav, save_wav
from .config import ConfigError, check_seed, load_config, persist_config, resolve_echo
from .converter import ConverterModel, check_clip_length, convert, train_converter
from .cqt import (CqtMatrix, bin_shift, compute_cqt, crop_to_vocal_range, interior_frames,
                  save_cqt, save_cqt_csv, save_matrix_container, transpose_pitch)
from .errors import ContractError
from .evaluate import emit_report, evaluate_conversion
from .optim import config_hash
from .pitch import train_pitch_extractor
from .synthgen import gen_dataset, load_clips


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1, with a
    `{"status": "usage-error"}` summary line on stdout, the usage on stderr.
    `--help` text goes to stderr too."""

    def print_help(self, file=None):
        super().print_help(file or sys.stderr)

    def error(self, message):
        print(json.dumps({"status": "usage-error", "error": message}))
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _require(path: Path, what: str) -> Path:
    if not Path(path).exists():
        raise ConfigError(f"{what} not found at {path}")
    return Path(path)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synth_data(args) -> dict:
    cfg = load_config(args.config, args.seed)
    manifest = gen_dataset(cfg.synth, cfg.seed, cfg.data_dir)
    persist_config(cfg, cfg.data_dir / "resolved_config.json")
    return {
        "status": "ok",
        "command": "synth-data",
        "clips": cfg.synth.n_single + cfg.synth.n_harmony,
        "manifest": str(manifest),
        "seed": cfg.seed,
    }


def _train(cfg, command: str, steps: int, log_name: str, train) -> dict:
    """Run `train(log_path, progress)` with its progress on stderr and the
    CSV under the checkpoint directory, persist the config next to the
    checkpoint it returned (`pitch.pvck` gets `pitch_config.json`, `svc.pvck`
    `svc_config.json`) and summarise the run. `final_loss` is the loss of
    the last step, which the training loop always reports."""
    cfg.checkpoint_dir.mkdir(parents=True, exist_ok=True)
    losses = []

    def progress(step, loss):
        losses.append(loss)
        print(f"[{command}] step {step} loss {loss:.4f}", file=sys.stderr)

    ckpt = train(cfg.checkpoint_dir / log_name, progress)
    persist_config(cfg, ckpt.with_name(f"{ckpt.stem}_config.json"))
    return {
        "status": "ok",
        "command": command,
        "steps": steps,
        "final_loss": losses[-1],
        "checkpoint": str(ckpt),
        "seed": cfg.seed,
    }


def cmd_train_pitch(args) -> dict:
    cfg = load_config(args.config, args.seed)
    manifest = _require(cfg.manifest_path, "data manifest")
    return _train(cfg, "train-pitch", cfg.pitch.steps, "pitch_train.csv",
                  lambda log_path, progress: train_pitch_extractor(
                      manifest, cfg.pitch, None, cfg.pitch_ckpt, log_path=log_path,
                      seed=cfg.seed, progress=progress))


def cmd_train_svc(args) -> dict:
    cfg = load_config(args.config, args.seed)
    manifest = _require(cfg.manifest_path, "data manifest")
    _require(cfg.pitch_ckpt, "pitch checkpoint")
    return _train(cfg, "train-svc", cfg.converter.steps, "converter_train.csv",
                  lambda log_path, progress: train_converter(
                      manifest, cfg.converter, None, cfg.pitch_ckpt, cfg.svc_ckpt,
                      log_path=log_path, seed=cfg.seed, progress=progress))


def _mean_profile_argmax(m: CqtMatrix) -> int | None:
    """The vocal-range bin where the mean magnitude over the interior frames
    peaks; None for a profile with no energy, which has no peak."""
    cropped = crop_to_vocal_range(m)
    rows = list(interior_frames(cropped.frames)) or list(range(cropped.frames))
    profile = cropped.magnitudes[rows].mean(axis=0)
    return int(profile.argmax()) if profile.any() else None


def _check_transpose(semitones: int) -> None:
    """`--transpose` by `transpose_pitch`'s rule on the uncropped CQT that
    `convert` and `cqt` shift, before any I/O."""
    try:
        bin_shift(semitones)
    except ContractError as exc:
        raise ConfigError(f"--transpose: {exc}") from None


def _timings(start: float, source_s: float) -> dict:
    wall = time.perf_counter() - start
    return {"wall_s": wall, "rtf": wall / source_s}


def cmd_convert(args) -> dict:
    start = time.perf_counter()
    # --seed checked by the run seed's rule, --transpose by the CQT shift rule, before any I/O
    seed = 0 if args.seed is None else args.seed
    check_seed(seed, "--seed")
    _check_transpose(args.transpose)
    model = ConverterModel.load(_require(args.ckpt, "checkpoint"))
    src = load_wav(_require(args.src, "source audio"))
    ref = load_wav(_require(args.ref, "reference audio"))
    conversion = convert(src, ref, model, transpose=args.transpose, seed=seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    peak = float(np.abs(conversion.wave.samples).max())
    if peak > 1.0:  # scaled, not clipped by save_wav
        conversion.wave.samples /= peak
    save_wav(conversion.wave, out)
    summary = {
        "status": "ok",
        "command": "convert",
        "out": str(out),
        "frames": conversion.mel.frames,
        "peak": peak,
        "nfe": model.cfg.nfe,
        "sway": model.cfg.sway_s,
        "transpose": args.transpose,
    }
    if args.mel_out:
        Path(args.mel_out).parent.mkdir(parents=True, exist_ok=True)
        save_matrix_container(conversion.mel.values, args.mel_out, b"MEL1", f_min=MEL_FMIN,
                              hop=HOP, sample_rate=PIPELINE_SAMPLE_RATE, bins_per_octave=0)
        summary["mel_out"] = str(args.mel_out)
    if args.transpose:
        written = compute_cqt(load_wav(out))  # the shift of the file as written
        peaks = _mean_profile_argmax(written), _mean_profile_argmax(conversion.source_cqt)
        summary["measured_shift_bins"] = None if None in peaks else peaks[0] - peaks[1]
    summary.update(_timings(start, src.duration))
    return summary


def cmd_evaluate(args) -> dict:
    start = time.perf_counter()
    cfg = load_config(args.config, args.seed)
    manifest = _require(Path(args.manifest) if args.manifest else cfg.manifest_path,
                        "data manifest")
    ckpt = _require(Path(args.ckpt) if args.ckpt else cfg.svc_ckpt, "converter checkpoint")
    eval_clips = load_clips(manifest, "eval")
    train_clips = load_clips(manifest, "train")
    pairs = [(clip, next((c for c in train_clips if c.preset != clip.preset), train_clips[0]))
             for clip in eval_clips]
    for clip, ref in pairs:  # every pair, before the first conversion
        check_clip_length(f"eval clip {clip.id!r} (source)", clip.duration)
        check_clip_length(f"train clip {ref.id!r} (reference of {clip.id!r})", ref.duration)
    model = ConverterModel.load(ckpt)

    report_rows = []
    for clip, ref in pairs:
        conversion = convert(clip.wave, ref.wave, model, seed=cfg.seed)
        scored = evaluate_conversion(conversion, clip.notes, cfg.eval, model.timbre)
        scored.update(id=clip.id, condition=clip.condition, ref=ref.id)
        report_rows.append(scored)
        print(f"[evaluate] {clip.id}: f1={scored['f1']:.3f}", file=sys.stderr)

    report = emit_report(report_rows, cfg.report_dir, cfg.seed, config=resolve_echo(cfg),
                         manifest=str(manifest.resolve()), checkpoint=str(ckpt.resolve()),
                         config_hash=config_hash(model.config()))
    agg = json.loads(report.read_text())["aggregates"]
    return {
        "status": "ok",
        "command": "evaluate",
        "report": str(report),
        "clips": len(report_rows),
        "recall_mean": agg.get("recall", {}).get("mean"),
        "f1_mean": agg.get("f1", {}).get("mean"),
        "seed": cfg.seed,
        **_timings(start, sum(c.duration for c in eval_clips)),
    }


def cmd_cqt(args) -> dict:
    _check_transpose(args.transpose)
    mat = compute_cqt(load_wav(_require(args.infile, "input audio")))
    if args.transpose:
        mat = transpose_pitch(mat, args.transpose)
    if args.crop:
        mat = crop_to_vocal_range(mat)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if out.suffix == ".csv":
        save_cqt_csv(mat, out)
    else:
        save_cqt(mat, out)
    return {
        "status": "ok",
        "command": "cqt",
        "out": str(out),
        "frames": mat.frames,
        "bins": mat.bins,
    }


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="polyvox", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth-data", help="generate the synthetic corpus in paths.data_dir")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("train-pitch", help="train the pitch extractor")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train_pitch)

    p = sub.add_parser("train-svc", help="train the flow-matching converter")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train_svc)

    p = sub.add_parser("convert", help="convert a source clip to a reference timbre")
    p.add_argument("--src", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--transpose", type=int, default=0)
    p.add_argument("--seed", type=int)
    p.add_argument("--mel-out")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("evaluate", help="score eval-split conversions against ground truth")
    p.add_argument("--config", required=True)
    p.add_argument("--manifest")
    p.add_argument("--ckpt")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("cqt", help="compute a CQT container or CSV from audio")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--crop", action="store_true")
    p.add_argument("--transpose", type=int, default=0)
    p.set_defaults(func=cmd_cqt)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0, a usage error 1
        if not exc.code:
            print(json.dumps({"status": "ok", "command": "help"}))
        return int(exc.code or 0)
    try:
        summary = args.func(args)
    except ConfigError as exc:
        print(json.dumps({"status": "config-error", "error": str(exc)}))
        print(f"polyvox: config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure -> exit 2
        print(json.dumps({"status": "error", "error": f"{type(exc).__name__}: {exc}"}))
        print(f"polyvox: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
