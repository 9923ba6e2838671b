import math

import numpy as np

from polyvox.cqt import CqtConfig, CqtMatrix
from polyvox.audio import HOP, Waveform
from polyvox.evaluate import (EvalConfig, emit_report, f0_yin, harmony_retention,
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
        guarded = multipitch_scores(multipitch_from_cqt(cqt, octave_guard=True), truth, 0)
        assert guarded == {"precision": 1.0, "recall": 1.0, "f1": 1.0}
        unguarded = multipitch_scores(multipitch_from_cqt(cqt, octave_guard=False), truth, 0)
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
        assert math.isnan(harmony_retention(_cqt({20: 1.0}), _roll(20)))

    def test_harmony_retention_counts_an_octave_harmony(self):
        assert harmony_retention(_cqt({20: 1.0, 32: 0.6}), _roll(20, 32)) == 1.0


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
        cfg = EvalConfig(bootstrap_resamples=50)
        paths = [emit_report(rows, tmp_path / name, config_echo={"k": 1}, seed=9, cfg=cfg)
                 for name in ("first", "second")]
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert ((tmp_path / "first" / "report.csv").read_bytes()
                == (tmp_path / "second" / "report.csv").read_bytes())
