"""Command-line entry point wiring the pipeline stages together.

Every command prints exactly one JSON summary line to stdout (progress goes
to stderr) and exits 0 on success, 1 on usage or configuration errors, and
2 on runtime failures. The `convert` and `evaluate` summaries carry the
command's wall time `wall_s` and its real-time factor `rtf`, wall time over
the seconds of source audio converted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .audio import Waveform, load_wav, mel_spectrogram, resample, save_wav, PIPELINE_SAMPLE_RATE
from .config import ConfigError, load_config, persist_config
from .converter import ConverterModel, SwaySchedule, convert, train_converter
from .cqt import compute_cqt, crop_to_vocal_range, interior_frames, save_cqt, save_cqt_csv, transpose_pitch
from .errors import ContractError
from .evaluate import emit_report, evaluate_conversion, write_pgm
from .midi import load_smf
from .pitch import train_pitch_extractor
from .synthgen import gen_dataset, load_manifest


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _progress(stage: str):
    def report(step, loss):
        print(f"[{stage}] step {step} loss {loss:.4f}", file=sys.stderr)

    return report


def _require(path: Path, what: str) -> Path:
    if not Path(path).exists():
        raise ConfigError(f"{what} not found at {path}")
    return Path(path)


def _load_pipeline_wav(path) -> Waveform:
    """Load a WAV at the pipeline rate, resampling it once if needed."""
    w = load_wav(path)
    return w if w.sample_rate == PIPELINE_SAMPLE_RATE else resample(w, PIPELINE_SAMPLE_RATE)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synth_data(args) -> dict:
    cfg = load_config(args.config, args.seed)
    out = Path(args.out)
    manifest = gen_dataset(cfg.synth, cfg.seed, out, workers=args.threads)
    persist_config(cfg, out)
    rows = load_manifest(manifest)
    return {
        "status": "ok",
        "command": "synth-data",
        "clips": len(rows),
        "manifest": str(manifest),
        "seed": cfg.seed,
    }


def cmd_train_pitch(args) -> dict:
    cfg = load_config(args.config, args.seed)
    manifest = _require(cfg.manifest_path, "data manifest")
    cfg.checkpoint_dir.mkdir(parents=True, exist_ok=True)
    log_path = cfg.checkpoint_dir / "pitch_train.csv"
    ckpt = train_pitch_extractor(manifest, cfg.pitch, None, cfg.pitch_ckpt,
                                 log_path=log_path, seed=cfg.seed,
                                 progress=_progress("train-pitch"))
    persist_config(cfg, cfg.checkpoint_dir)
    last = log_path.read_text().strip().splitlines()[-1].split(",")
    return {
        "status": "ok",
        "command": "train-pitch",
        "steps": cfg.pitch.steps,
        "final_loss": float(last[2]),
        "checkpoint": str(ckpt),
        "seed": cfg.seed,
    }


def cmd_train_svc(args) -> dict:
    cfg = load_config(args.config, args.seed)
    manifest = _require(cfg.manifest_path, "data manifest")
    _require(cfg.pitch_ckpt, "pitch checkpoint")
    cfg.checkpoint_dir.mkdir(parents=True, exist_ok=True)
    log_path = cfg.checkpoint_dir / "converter_train.csv"
    ckpt = train_converter(manifest, cfg.converter, None, cfg.pitch_ckpt, cfg.svc_ckpt,
                           log_path=log_path, seed=cfg.seed,
                           progress=_progress("train-svc"))
    persist_config(cfg, cfg.checkpoint_dir)
    last = log_path.read_text().strip().splitlines()[-1].split(",")
    return {
        "status": "ok",
        "command": "train-svc",
        "steps": cfg.converter.steps,
        "final_loss": float(last[2]),
        "checkpoint": str(ckpt),
        "seed": cfg.seed,
    }


def _mean_profile_argmax(w: Waveform) -> int:
    cropped = crop_to_vocal_range(compute_cqt(w))
    rows = list(interior_frames(cropped.frames)) or list(range(cropped.frames))
    return int(cropped.magnitudes[rows].mean(axis=0).argmax())


def _schedule_overrides(args) -> dict:
    """The `--sway`/`--nfe` values given, as `SwaySchedule` fields, checked
    by `SwaySchedule` itself before any checkpoint work starts."""
    given = {k: v for k, v in (("s", args.sway), ("nfe", args.nfe)) if v is not None}
    try:
        SwaySchedule(**given)
    except ContractError as exc:
        raise ConfigError(f"--sway/--nfe: {exc}") from None
    return given


def _timings(start: float, source_s: float) -> dict:
    wall = time.perf_counter() - start
    return {"wall_s": wall, "rtf": wall / source_s}


def cmd_convert(args) -> dict:
    start = time.perf_counter()
    overrides = _schedule_overrides(args)
    model = ConverterModel.load(_require(args.ckpt, "checkpoint"))
    src = _load_pipeline_wav(_require(args.src, "source audio"))
    ref = _load_pipeline_wav(_require(args.ref, "reference audio"))
    sched = SwaySchedule(**{"s": model.cfg.sway_s, "nfe": model.cfg.nfe, **overrides})
    wave, mel_out = convert(src, ref, model, sched, transpose=args.transpose,
                            seed=args.seed or 0)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_wav(wave, out)
    summary = {
        "status": "ok",
        "command": "convert",
        "out": str(out),
        "frames": mel_out.frames,
        "nfe": sched.nfe,
        "sway": sched.s,
        "transpose": args.transpose,
    }
    if args.mel_out:
        from .cqt import save_matrix_container

        save_matrix_container(mel_out.values, args.mel_out, b"MEL1", f_min=40.0,
                              hop=441, sample_rate=PIPELINE_SAMPLE_RATE, bins_per_octave=0)
        summary["mel_out"] = str(args.mel_out)
    if args.transpose:
        shift = _mean_profile_argmax(wave) - _mean_profile_argmax(src)
        summary["measured_shift_bins"] = shift
    summary.update(_timings(start, src.duration))
    return summary


def cmd_evaluate(args) -> dict:
    start = time.perf_counter()
    cfg = load_config(args.config, args.seed)
    manifest = _require(Path(args.manifest) if args.manifest else cfg.manifest_path,
                        "data manifest")
    model = ConverterModel.load(_require(Path(args.ckpt) if args.ckpt else cfg.svc_ckpt,
                                         "converter checkpoint"))
    root = manifest.parent
    rows_all = load_manifest(manifest)
    eval_rows = [r for r in rows_all if r["split"] == "eval"]
    train_rows = [r for r in rows_all if r["split"] == "train"]
    if not eval_rows or not train_rows:
        raise ConfigError(f"manifest {manifest} needs both train and eval splits")

    report_rows = []
    source_s = 0.0
    for row in eval_rows:
        src = _load_pipeline_wav(root / row["path"])
        source_s += src.duration
        ref_row = next((r for r in train_rows if r["preset"] != row["preset"]), train_rows[0])
        ref = _load_pipeline_wav(root / ref_row["path"])
        truth = load_smf((root / row["path"]).with_suffix(".mid"))
        wave, mel_out = convert(src, ref, model,
                                SwaySchedule(model.cfg.sway_s, model.cfg.nfe),
                                seed=cfg.seed)
        scored = evaluate_conversion(wave, truth, ref, cfg.eval, model.timbre,
                                     target_mel=mel_spectrogram(src), output_mel=mel_out)
        scored["id"] = row["id"]
        scored["condition"] = row["condition"]
        scored["ref"] = ref_row["id"]
        report_rows.append(scored)
        print(f"[evaluate] {row['id']}: f1={scored['f1']:.3f}", file=sys.stderr)
        if args.pgm:
            pgm_dir = cfg.report_dir / "pgm"
            pgm_dir.mkdir(parents=True, exist_ok=True)
            write_pgm(mel_out.values, pgm_dir / f"{row['id']}_mel.pgm")

    report = emit_report(report_rows, cfg.report_dir, config_echo=cfg.resolved,
                         seed=cfg.seed, cfg=cfg.eval)
    agg = json.loads(report.read_text())["aggregates"]
    return {
        "status": "ok",
        "command": "evaluate",
        "report": str(report),
        "clips": len(report_rows),
        "recall_mean": agg.get("recall", {}).get("mean"),
        "f1_mean": agg.get("f1", {}).get("mean"),
        "seed": cfg.seed,
        **_timings(start, source_s),
    }


def cmd_cqt(args) -> dict:
    mat = compute_cqt(_load_pipeline_wav(_require(args.infile, "input audio")))
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
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="worker cap for parallel stages")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth-data", help="generate the synthetic corpus")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
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
    p.add_argument("--nfe", type=int)
    p.add_argument("--sway", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--mel-out")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("evaluate", help="score eval-split conversions against ground truth")
    p.add_argument("--config", required=True)
    p.add_argument("--manifest")
    p.add_argument("--ckpt")
    p.add_argument("--seed", type=int)
    p.add_argument("--pgm", action="store_true", help="dump mel images for inspection")
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
    except SystemExit as exc:
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
