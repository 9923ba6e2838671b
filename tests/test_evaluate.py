import json
import math

import numpy as np
import pytest

from polyvox import evaluate
from polyvox.cqt import F_MIN_C1, CqtConfig, CqtMatrix
from polyvox.audio import HOP, Waveform
from polyvox.errors import ContractError
from polyvox.evaluate import (emit_report, f0_yin, guard_octaves, harmony_retention,
                              multipitch_from_cqt, multipitch_scores, yin_recall)
from polyvox.midi import ROLL_PITCHES, MidiNote, PianoRoll, to_piano_roll

from .conftest import make_sine

FRAMES = 5


def _cqt(peaks: dict[int, float]) -> CqtMatrix:
    """A cropped-CQT stand-in: every frame holds the same isolated peaks."""
    mags = np.zeros((FRAMES, ROLL_PITCHES))
    for k, mag in peaks.items():
        mags[:, k] = mag
    return CqtMatrix(mags, CqtConfig())


def _roll(*pitch_bins: int) -> PianoRoll:
    activity = np.zeros((FRAMES, ROLL_PITCHES))
    activity[:, list(pitch_bins)] = 1.0
    return PianoRoll(activity)


class TestMultipitch:
    def test_octave_guard_drops_the_second_harmonic(self):
        # a strong fundamental at bin 20 and its weaker octave at bin 32
        cqt, truth = _cqt({20: 1.0, 32: 0.6}), _roll(20)
        guarded = multipitch_scores(guard_octaves(multipitch_from_cqt(cqt), cqt), truth, 0)
        assert guarded == {"precision": 1.0, "recall": 1.0, "f1": 1.0}
        unguarded = multipitch_scores(multipitch_from_cqt(cqt), truth, 0)
        assert unguarded["precision"] == 0.5 and unguarded["recall"] == 1.0
        assert math.isclose(unguarded["f1"], 2.0 / 3.0)

    def test_tolerance_zero_and_one(self):
        detected = multipitch_from_cqt(_cqt({21: 1.0}))
        truth = _roll(20)
        assert multipitch_scores(detected, truth, 0) == {"precision": 0.0, "recall": 0.0,
                                                         "f1": 0.0}
        assert multipitch_scores(detected, truth, 1) == {"precision": 1.0, "recall": 1.0,
                                                         "f1": 1.0}

    def test_harmony_retention_is_nan_without_polyphonic_frames(self):
        detected = multipitch_from_cqt(_cqt({20: 1.0}))
        assert math.isnan(harmony_retention(detected, _roll(20)))

    def test_harmony_retention_counts_an_octave_harmony(self):
        detected = multipitch_from_cqt(_cqt({20: 1.0, 32: 0.6}))
        assert harmony_retention(detected, _roll(20, 32)) == 1.0

    @pytest.mark.parametrize("threshold_db", [0.0, 3.0, math.nan])
    def test_threshold_not_below_zero_rejected(self, threshold_db):
        """A NaN threshold would compare false everywhere and find no peak."""
        with pytest.raises(ContractError, match="threshold_db"):
            multipitch_from_cqt(_cqt({20: 1.0, 32: 0.6}), threshold_db)


# ---------------------------------------------------------------------------
# Per-frame set reference: the implementation the mask metrics replaced, kept
# as the definition they must match exactly.
# ---------------------------------------------------------------------------


def _set_peaks(m: CqtMatrix, threshold_db: float, octave_guard: bool) -> list[set[int]]:
    rel = 10.0 ** (threshold_db / 20.0)
    frames = []
    for row in m.magnitudes:
        top = row.max()
        if top <= 0:
            frames.append(set())
            continue
        peaks = [k for k in range(1, row.size - 1)
                 if row[k] > top * rel and row[k] > row[k - 1] and row[k] > row[k + 1]]
        if octave_guard:
            peak_set = set(peaks)
            peaks = [k for k in peaks
                     if not (k - 12 in peak_set and row[k - 12] >= 0.5 * row[k])]
        frames.append(set(peaks))
    return frames


def _set_truth(roll: PianoRoll) -> list[set[int]]:
    return [set(np.flatnonzero(roll.activity[f]).tolist()) for f in range(roll.frames)]


def _set_scores(detected: list[set[int]], roll: PianoRoll, tolerance: int) -> dict:
    truth = _set_truth(roll)
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


def _set_harmony(detected: list[set[int]], roll: PianoRoll, tolerance: int) -> float:
    truth = _set_truth(roll)
    poly = kept = 0
    for f in range(min(len(detected), len(truth))):
        if len(truth[f]) < 2:
            continue
        poly += 1
        hits = sum(1 for t in truth[f] if any(abs(d - t) <= tolerance for d in detected[f]))
        kept += int(hits >= 2)
    return kept / poly if poly else float("nan")


def _set_yin(f0: np.ndarray, roll: PianoRoll, tolerance: int) -> float:
    truth = _set_truth(roll)
    hit = total = 0
    for f in range(min(f0.size, len(truth))):
        total += len(truth[f])
        if np.isnan(f0[f]) or not truth[f]:
            continue
        b = 12.0 * np.log2(f0[f] / F_MIN_C1)
        hit += sum(1 for t in truth[f] if abs(b - t) <= tolerance + 0.5)
    return hit / total if total else 0.0


def _random_case(rng: np.random.Generator) -> tuple[CqtMatrix, PianoRoll]:
    """A cropped CQT and a roll whose frame counts may differ. Small integer
    magnitudes give ties between neighbours and exact half-magnitude
    octaves; some frames are all zero; octave echoes are planted."""
    frames = int(rng.integers(1, 10))
    if rng.random() < 0.5:
        mags = rng.integers(0, 4, size=(frames, ROLL_PITCHES)).astype(np.float64)
    else:
        mags = rng.exponential(size=(frames, ROLL_PITCHES)) * (rng.random((frames, 1)) < 0.8)
    low = rng.integers(0, ROLL_PITCHES - 12, size=4)
    mags[:, low + 12] = mags[:, low] * rng.choice([0.5, 1.0, 2.0, 3.0])
    roll_frames = max(1, frames + int(rng.integers(-3, 4)))
    activity = rng.random((roll_frames, ROLL_PITCHES)) < rng.choice([0.02, 0.08, 0.2])
    return CqtMatrix(mags, CqtConfig()), PianoRoll(activity.astype(np.float64))


class TestMaskMetricsMatchTheSetReference:
    @pytest.mark.parametrize("seed", range(100))
    def test_peaks_scores_and_harmony(self, seed):
        cqt, roll = _random_case(np.random.default_rng(seed))
        for threshold_db in (-20.0, -6.0):
            found = multipitch_from_cqt(cqt, threshold_db)
            guarded = guard_octaves(found, cqt)
            assert found.shape == guarded.shape == cqt.magnitudes.shape
            pairs = [(found, _set_peaks(cqt, threshold_db, False)),
                     (guarded, _set_peaks(cqt, threshold_db, True))]
            for mask, reference in pairs:
                assert [set(np.flatnonzero(row).tolist()) for row in mask] == reference
            for tolerance in (0, 1, 2):
                for mask, reference in pairs:
                    assert (multipitch_scores(mask, roll, tolerance)
                            == _set_scores(reference, roll, tolerance))
                kept = harmony_retention(found, roll, tolerance)
                expected = _set_harmony(pairs[0][1], roll, tolerance)
                assert kept == expected or (math.isnan(kept) and math.isnan(expected))

    @pytest.mark.parametrize("seed", range(30))
    def test_yin_recall(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        _cqt_unused, roll = _random_case(rng)
        n_f0 = max(1, roll.frames + int(rng.integers(-3, 4)))
        f0 = 50.0 * 2.0 ** rng.uniform(0.0, 5.0, size=n_f0)
        f0[rng.random(f0.size) < 0.3] = np.nan
        monkeypatch.setattr(evaluate, "f0_yin", lambda _w: f0)
        for tolerance in (0, 1, 2):
            assert yin_recall(None, roll, tolerance) == _set_yin(f0, roll, tolerance)


class TestYin:
    def test_pure_tone_recalls_its_one_note_roll(self):
        # 220 Hz is MIDI 57, roll column 33
        roll = to_piano_roll([MidiNote(57, 0.0, 1.0)], 100)
        assert yin_recall(make_sine(220.0, dur=1.0), roll) > 0.9

    def test_frames_run_on_the_roll_clock(self):
        """A 220 Hz tone from 1.0 s to 2.0 s in a 3 s clip: one YIN value per
        roll frame, and the voiced span centred where the note's frames are."""
        tone = make_sine(220.0, dur=3.0)
        t = np.arange(tone.samples.size) / tone.sample_rate
        clip = Waveform(np.where((t >= 1.0) & (t < 2.0), 0.5 * tone.samples, 0.0),
                        tone.sample_rate)
        roll = to_piano_roll([MidiNote(57, 1.0, 2.0)], clip.samples.size // HOP + 1)
        f0 = f0_yin(clip)
        assert f0.size == roll.frames
        voiced = np.flatnonzero(~np.isnan(f0))
        active = np.flatnonzero(roll.activity.any(axis=1))
        midpoint = (voiced[0] + voiced[-1]) / 2
        assert abs(midpoint - (active[0] + active[-1]) / 2) <= 0.5


class TestReport:
    def test_same_seed_writes_the_same_bytes(self, tmp_path):
        rows = [{"id": "a", "f1": 0.5, "recall": 0.25},
                {"id": "b", "f1": 0.75, "recall": 0.5},
                {"id": "c", "f1": 0.125, "recall": float("nan")}]
        paths = [emit_report(rows, tmp_path / name, config_echo={"k": 1}, seed=9)
                 for name in ("first", "second")]
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert ((tmp_path / "first" / "report.csv").read_bytes()
                == (tmp_path / "second" / "report.csv").read_bytes())

    @pytest.mark.parametrize("n", [1, 2, 7, 33, 200])
    def test_bootstrap_draws_as_the_per_resample_loop(self, n):
        """One (resamples, n) index draw gives the loop's resampled means
        bit for bit and leaves the generator where the loop leaves it."""
        values = np.random.default_rng(n).normal(size=n)
        loop_rng, rng = np.random.default_rng(3), np.random.default_rng(3)
        boot = np.array([loop_rng.choice(values, size=n, replace=True).mean()
                         for _ in range(100)])
        expected = {"mean": float(values.mean()), "median": float(np.median(values)),
                    "ci95": [float(np.percentile(boot, 2.5)), float(np.percentile(boot, 97.5))]}
        assert evaluate._aggregate(values, 100, rng) == expected
        assert rng.bit_generator.state == loop_rng.bit_generator.state

    def test_report_json_is_strict_json(self, tmp_path):
        """A single-voice clip has no harmony retention: its row holds null,
        not the NaN token strict parsers reject, and the aggregate skips it."""
        rows = [{"id": "a", "harmony_retention": float("nan"), "f1": 0.5},
                {"id": "b", "harmony_retention": 0.25, "f1": 0.75}]
        path = emit_report(rows, tmp_path, config_echo={}, seed=1)

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        report = json.loads(path.read_text(), parse_constant=reject)
        assert [row["harmony_retention"] for row in report["rows"]] == [None, 0.25]
        assert report["aggregates"]["harmony_retention"]["mean"] == 0.25
        assert report["aggregates"]["f1"]["mean"] == 0.625
