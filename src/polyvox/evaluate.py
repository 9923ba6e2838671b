"""Quantitative evaluation: CQT multipitch detection with an octave-harmonic
guard, a YIN single-pitch baseline (the failure mode the pipeline is built
around), conversion metrics against ground-truth MIDI, and report emission
with bootstrap confidence intervals.

A detection is a boolean (frames x bins) mask, the shape of
`PianoRoll.activity`; the metrics match it to the roll within +/-tolerance
bins, `TOLERANCE_BINS` in a report. `evaluate_conversion` scores a
`converter.Conversion` record, and `emit_report`'s confidence intervals take
`BOOTSTRAP_RESAMPLES` resampled means. An `EvalConfig` sets only the peak
picker's threshold.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import FRAME_RATE, Waveform, mel_spectrogram
from .converter import Conversion
from .cqt import CqtMatrix, compute_cqt, crop_to_vocal_range, F_MIN_C1
from .errors import ContractError, check_fields
from .features import TimbreSpace
from .midi import MidiNote, PianoRoll, to_piano_roll


TOLERANCE_BINS = 1
BOOTSTRAP_RESAMPLES = 1000


@dataclass
class EvalConfig:
    threshold_db: float = -20.0

    def __post_init__(self):
        check_fields(self)
        if self.threshold_db >= 0:
            raise ContractError("threshold_db must be negative (relative to the frame maximum)")


def multipitch_from_cqt(m: CqtMatrix, threshold_db: float = -20.0) -> np.ndarray:
    """Boolean (frames x bins) mask of the strict interior local maxima
    within threshold_db of their frame's maximum, with no octave guard
    (`guard_octaves` applies it)."""
    if not threshold_db < 0:  # NaN included: it would find no peak
        raise ContractError(f"threshold_db must be negative, got {threshold_db!r}")
    mags, rel = m.magnitudes, 10.0 ** (threshold_db / 20.0)
    inner = mags[:, 1:-1]
    peaks = np.zeros(mags.shape, dtype=bool)
    peaks[:, 1:-1] = ((inner > mags.max(axis=1, keepdims=True) * rel)
                      & (inner > mags[:, :-2]) & (inner > mags[:, 2:]))
    return peaks


def guard_octaves(peaks: np.ndarray, m: CqtMatrix) -> np.ndarray:
    """The octave guard, applied to a `multipitch_from_cqt` mask: a peak at k
    is dropped when a peak also sits at k-12 with at least half its magnitude
    (the second harmonic of a strong fundamental lands exactly one octave up)."""
    echo = np.zeros_like(peaks)
    echo[:, 12:] = peaks[:, :-12] & (m.magnitudes[:, :-12] >= 0.5 * m.magnitudes[:, 12:])
    return peaks & ~echo


# ---------------------------------------------------------------------------
# YIN baseline
# ---------------------------------------------------------------------------


def f0_yin(w: Waveform) -> np.ndarray:
    """Single-pitch YIN track on the pipeline's frame clock, f0 in 60..1000
    Hz: cumulative-mean-normalized difference with an absolute threshold of
    0.15 and parabolic interpolation. NaN marks unvoiced frames. One value
    per frame -- by construction it cannot report two simultaneous pitches.

    Frames are framed as `stft` and `compute_cqt` frame them: len // hop + 1
    frames at hop sr / `FRAME_RATE`, the 25 ms window of frame f centred on
    sample f * hop, edges read against zero padding. So frame f lines up
    with frame f of the mel, the CQT and the piano roll."""
    sr = w.sample_rate
    win = int(round(0.025 * sr))
    hop = int(round(sr / FRAME_RATE))
    tau_min = max(2, int(sr / 1000.0))
    tau_max = min(win, int(np.ceil(sr / 60.0)))
    n_frames = w.samples.size // hop + 1
    x = np.concatenate([np.zeros(win // 2), w.samples, np.zeros(2 * win)])
    out = np.full(n_frames, np.nan)
    fft_n = 1 << int(np.ceil(np.log2(2 * win + 1)))

    for f in range(n_frames):
        buf = x[f * hop : f * hop + 2 * win]  # a window centred on sample f*hop, then win lags
        head = buf[:win]
        spec_all = np.fft.rfft(buf, fft_n)
        spec_head = np.fft.rfft(head, fft_n)
        corr = np.fft.irfft(spec_all * np.conj(spec_head), fft_n)[: win + 1]
        sq = np.concatenate([[0.0], np.cumsum(buf * buf)])
        energy = sq[win : 2 * win + 1] - sq[: win + 1]  # energy of buf[tau : tau+win]
        diff = energy[0] + energy - 2.0 * corr
        diff = np.maximum(diff, 0.0)

        cum = np.cumsum(diff[1:])
        cmndf = np.ones(win + 1)
        nz = cum > 0
        cmndf[1:][nz] = diff[1:][nz] * np.arange(1, win + 1)[nz] / cum[nz]

        tau = None
        for cand in range(tau_min, tau_max):
            if cmndf[cand] < 0.15:
                while cand + 1 < tau_max and cmndf[cand + 1] < cmndf[cand]:
                    cand += 1
                tau = cand
                break
        if tau is None:
            continue
        # tau_min <= tau < tau_max <= win, so both neighbours exist
        a, b, c = cmndf[tau - 1], cmndf[tau], cmndf[tau + 1]
        denom = a - 2 * b + c
        shift = 0.5 * (a - c) / denom if abs(denom) > 1e-12 else 0.0
        out[f] = sr / (tau + np.clip(shift, -1.0, 1.0))
    return out


# ---------------------------------------------------------------------------
# Metrics against ground truth
# ---------------------------------------------------------------------------


def _aligned(detected: np.ndarray, roll: PianoRoll) -> tuple[np.ndarray, np.ndarray]:
    """A per-frame detection and the roll's activity mask over their common frames."""
    n = min(len(detected), roll.frames)
    return detected[:n], roll.activity[:n] != 0


def _dilate(mask: np.ndarray, tolerance: int) -> np.ndarray:
    """`mask` with every set bin spread to the bins within +/-tolerance."""
    padded = np.pad(mask, ((0, 0), (tolerance, tolerance)))
    return sliding_window_view(padded, 2 * tolerance + 1, axis=1).any(axis=-1)


def _share(mask: np.ndarray, hits: np.ndarray) -> float:
    """Fraction of the set cells of `mask` that are set in `hits`; 0 if none is set."""
    total = int(mask.sum())
    return int((mask & hits).sum()) / total if total else 0.0


def multipitch_scores(detected: np.ndarray, roll: PianoRoll,
                      tolerance: int = TOLERANCE_BINS) -> dict[str, float]:
    """Frame-level precision/recall/F1 of a detection mask with
    +/-tolerance bin matching."""
    detected, truth = _aligned(detected, roll)
    precision = _share(detected, _dilate(truth, tolerance))
    recall = _share(truth, _dilate(detected, tolerance))
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


def yin_recall(w: Waveform, roll: PianoRoll, tolerance: int = TOLERANCE_BINS) -> float:
    """Recall of the single-pitch baseline against the polyphonic roll: a
    truth bin is hit when YIN's pitch lies within tolerance + 0.5 bins of it."""
    f0, truth = _aligned(f0_yin(w), roll)  # equal frames for a roll of the clip's length
    f0_bins = 12.0 * np.log2(f0[:, None] / F_MIN_C1)  # NaN (unvoiced) is near no bin
    return _share(truth, np.abs(f0_bins - np.arange(truth.shape[1])) <= tolerance + 0.5)


def harmony_retention(detected: np.ndarray, roll: PianoRoll,
                      tolerance: int = TOLERANCE_BINS) -> float:
    """Fraction of polyphonic frames in which at least two ground-truth
    pitches survive in a detection mask; NaN without polyphonic frames. Pass
    the unguarded mask: genuine octave harmonies must count."""
    detected, truth = _aligned(detected, roll)
    poly = truth.sum(axis=1) >= 2
    kept = (truth & _dilate(detected, tolerance)).sum(axis=1) >= 2
    return _share(poly, kept) if poly.any() else float("nan")


def evaluate_conversion(conversion: Conversion, source_truth: list[MidiNote], cfg: EvalConfig,
                        timbre_space: TimbreSpace) -> dict:
    """One report row for a `convert` result: multipitch precision/recall/F1
    (octave-guarded) and harmony retention (unguarded) of one peak mask of
    the output CQT against the ground-truth roll, the timbre cosine of the
    output to the reference's `z_t` in `timbre_space` (the space `convert`
    used), and the mel L1 between the source and generated mels (one frame
    each per source frame)."""
    cropped = crop_to_vocal_range(compute_cqt(conversion.wave))
    roll = to_piano_roll(source_truth, n_frames=cropped.frames)
    found = multipitch_from_cqt(cropped, cfg.threshold_db)
    row = multipitch_scores(guard_octaves(found, cropped), roll)
    row["harmony_retention"] = harmony_retention(found, roll)
    row["timbre_cos"] = float(np.dot(timbre_space.embed(mel_spectrogram(conversion.wave)),
                                     conversion.z_t))
    row["mel_l1"] = float(np.abs(conversion.source_mel.values - conversion.mel.values).mean())
    return row


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def _aggregate(values: np.ndarray, resamples: int, rng: np.random.Generator) -> dict:
    boot = values[rng.integers(0, values.size, size=(resamples, values.size))].mean(axis=1)
    return {
        "mean": float(values.mean()),
        "median": float(np.median(values)),
        "ci95": [float(np.percentile(boot, 2.5)), float(np.percentile(boot, 97.5))],
    }


def emit_report(rows: list[dict], out_dir, seed: int, **echo) -> Path:
    """Write report.json (seed, rows, aggregates, and each `echo` keyword as
    a top-level entry saying what was scored) and a flat report.csv;
    bootstrap CIs are seeded so reruns agree exactly. The JSON is strict: a
    non-finite row value is null, and aggregates skip it."""
    if not rows:
        raise ContractError("cannot emit a report without rows")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    json_rows = [{k: None if isinstance(v, float) and not math.isfinite(v) else v
                  for k, v in row.items()} for row in rows]
    metrics = sorted({k for row in rows for k, v in row.items()
                      if isinstance(v, (int, float)) and not isinstance(v, bool)})
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xC1))))
    aggregates = {}
    for key in metrics:
        values = np.array([row[key] for row in json_rows if row.get(key) is not None])
        if values.size:
            aggregates[key] = _aggregate(values, BOOTSTRAP_RESAMPLES, rng)

    report = {"seed": seed, **echo, "rows": json_rows, "aggregates": aggregates}
    report_path = out / "report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True, allow_nan=False))

    columns = sorted({k for row in rows for k in row})
    with open(out / "report.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    return report_path
