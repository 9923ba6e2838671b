"""Quantitative evaluation: CQT multipitch detection with an octave-harmonic
guard, a YIN single-pitch baseline (the failure mode the pipeline is built
around), conversion metrics against ground-truth MIDI, and report emission
with bootstrap confidence intervals.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import FRAME_RATE, MelSpectrogram, Waveform, mel_spectrogram
from .cqt import CqtMatrix, compute_cqt, crop_to_vocal_range, F_MIN_C1
from .errors import ContractError
from .features import TimbreSpace
from .midi import MidiNote, PianoRoll, to_piano_roll


@dataclass
class EvalConfig:
    threshold_db: float = -20.0
    tolerance_bins: int = 1
    bootstrap_resamples: int = 1000

    def __post_init__(self):
        if self.threshold_db >= 0:
            raise ContractError("threshold_db must be negative (relative to the frame maximum)")


def _frame_peaks(row: np.ndarray, floor: float) -> list[int]:
    """Strict interior local maxima above the threshold floor."""
    return [k for k in range(1, row.size - 1)
            if row[k] > floor and row[k] > row[k - 1] and row[k] > row[k + 1]]


def multipitch_from_cqt(m: CqtMatrix, threshold_db: float = -20.0,
                        octave_guard: bool = True) -> list[set[int]]:
    """Per-frame sets of sounding bins: local maxima within threshold_db of
    the frame maximum. With the guard, a peak at k is dropped when a peak
    also sits at k-12 with at least half its magnitude (the second harmonic
    of a strong fundamental lands exactly one octave up)."""
    if threshold_db >= 0:
        raise ContractError("threshold_db must be negative")
    rel = 10.0 ** (threshold_db / 20.0)
    frames = []
    for f in range(m.frames):
        row = m.magnitudes[f]
        top = row.max()
        if top <= 0:
            frames.append(set())
            continue
        peaks = _frame_peaks(row, top * rel)
        if octave_guard:
            peak_set = set(peaks)
            peaks = [k for k in peaks
                     if not (k - 12 in peak_set and row[k - 12] >= 0.5 * row[k])]
        frames.append(set(peaks))
    return frames


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
        if tau is None or tau <= 0:
            continue
        if 1 <= tau < win:
            a, b, c = cmndf[tau - 1], cmndf[tau], cmndf[tau + 1]
            denom = a - 2 * b + c
            shift = 0.5 * (a - c) / denom if abs(denom) > 1e-12 else 0.0
            tau_star = tau + np.clip(shift, -1.0, 1.0)
        else:
            tau_star = float(tau)
        out[f] = sr / tau_star
    return out


def hz_to_cropped_bin(f0: float) -> float:
    return 12.0 * np.log2(f0 / F_MIN_C1)


# ---------------------------------------------------------------------------
# Metrics against ground truth
# ---------------------------------------------------------------------------


def _truth_bins(roll: PianoRoll) -> list[set[int]]:
    return [set(np.flatnonzero(roll.activity[f]).tolist()) for f in range(roll.frames)]


def multipitch_scores(detected: list[set[int]], roll: PianoRoll,
                      tolerance: int = 1) -> dict[str, float]:
    """Frame-level precision/recall/F1 with +/-tolerance bin matching."""
    truth = _truth_bins(roll)
    n = min(len(detected), len(truth))
    tp_r = total_t = tp_p = total_d = 0
    for f in range(n):
        t_bins, d_bins = truth[f], detected[f]
        total_t += len(t_bins)
        total_d += len(d_bins)
        tp_r += sum(1 for t in t_bins if any(abs(d - t) <= tolerance for d in d_bins))
        tp_p += sum(1 for d in d_bins if any(abs(d - t) <= tolerance for t in t_bins))
    precision = tp_p / total_d if total_d else 0.0
    recall = tp_r / total_t if total_t else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


def yin_recall(w: Waveform, roll: PianoRoll, tolerance: int = 1) -> float:
    """Recall of the single-pitch baseline against the polyphonic roll."""
    f0 = f0_yin(w)
    truth = _truth_bins(roll)
    n = min(f0.size, len(truth))  # equal for a roll of the clip's frame count
    hit = total = 0
    for f in range(n):
        total += len(truth[f])
        if np.isnan(f0[f]) or not truth[f]:
            continue
        b = hz_to_cropped_bin(f0[f])
        hit += sum(1 for t in truth[f] if abs(b - t) <= tolerance + 0.5)
    return hit / total if total else 0.0


def harmony_retention(m: CqtMatrix, roll: PianoRoll, threshold_db: float = -20.0,
                      tolerance: int = 1) -> float:
    """Fraction of polyphonic frames in which at least two ground-truth
    pitches survive as CQT local maxima (no octave guard: genuine octave
    harmonies must count)."""
    detected = multipitch_from_cqt(m, threshold_db, octave_guard=False)
    truth = _truth_bins(roll)
    n = min(len(detected), len(truth))
    poly = kept = 0
    for f in range(n):
        if len(truth[f]) < 2:
            continue
        poly += 1
        hits = sum(1 for t in truth[f] if any(abs(d - t) <= tolerance for d in detected[f]))
        kept += int(hits >= 2)
    return kept / poly if poly else float("nan")


def evaluate_conversion(output: Waveform, source_truth: list[MidiNote], ref: Waveform,
                        cfg: EvalConfig, timbre_space: TimbreSpace,
                        target_mel: MelSpectrogram, output_mel: MelSpectrogram) -> dict:
    """One report row: multipitch precision/recall/F1 and harmony retention
    of the output CQT against the ground-truth roll, the timbre cosine of
    the output to the reference in `timbre_space`, and the mel L1 between
    `target_mel` and `output_mel` over their common frames."""
    cropped = crop_to_vocal_range(compute_cqt(output))
    roll = to_piano_roll(source_truth, n_frames=cropped.frames)
    row = dict(multipitch_scores(
        multipitch_from_cqt(cropped, cfg.threshold_db), roll, cfg.tolerance_bins))
    row["harmony_retention"] = harmony_retention(cropped, roll, cfg.threshold_db,
                                                 cfg.tolerance_bins)
    row["timbre_cos"] = float(np.dot(timbre_space.embed(mel_spectrogram(output)),
                                     timbre_space.embed(mel_spectrogram(ref))))
    n = min(target_mel.frames, output_mel.frames)
    row["mel_l1"] = float(np.abs(target_mel.values[:n] - output_mel.values[:n]).mean())
    return row


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def _aggregate(values: np.ndarray, resamples: int, rng: np.random.Generator) -> dict:
    boot = np.empty(resamples)
    for i in range(resamples):
        boot[i] = rng.choice(values, size=values.size, replace=True).mean()
    return {
        "mean": float(values.mean()),
        "median": float(np.median(values)),
        "ci95": [float(np.percentile(boot, 2.5)), float(np.percentile(boot, 97.5))],
    }


def emit_report(rows: list[dict], out_dir, config_echo: dict, seed: int,
                cfg: EvalConfig) -> Path:
    """Write report.json (rows + aggregates + config echo) and a flat
    report.csv; bootstrap CIs are seeded so reruns agree exactly."""
    if not rows:
        raise ContractError("cannot emit a report without rows")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    metrics = sorted({k for row in rows for k, v in row.items()
                      if isinstance(v, (int, float)) and not isinstance(v, bool)})
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xC1))))
    aggregates = {}
    for key in metrics:
        values = np.array([row[key] for row in rows
                           if key in row and np.isfinite(row[key])])
        if values.size:
            aggregates[key] = _aggregate(values, cfg.bootstrap_resamples, rng)

    report = {"seed": seed, "config": config_echo, "rows": rows, "aggregates": aggregates}
    report_path = out / "report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True))

    columns = sorted({k for row in rows for k in row})
    with open(out / "report.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    return report_path


def write_pgm(matrix: np.ndarray, path) -> None:
    """Min-max scaled grayscale dump of a matrix as binary PGM (P5)."""
    m = np.asarray(matrix, dtype=np.float64)
    lo, hi = m.min(), m.max()
    scaled = np.zeros_like(m) if hi <= lo else (m - lo) / (hi - lo)
    gray = np.round(scaled * 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode())
        fh.write(gray.tobytes())
