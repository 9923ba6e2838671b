import re
import threading

import numpy as np
import pytest

from polyvox import synthgen
from polyvox.audio import FRAME_RATE, PIPELINE_SAMPLE_RATE, Waveform, load_wav, resample, save_wav
from polyvox.cqt import compute_cqt, crop_to_vocal_range, interior_frames
from polyvox.errors import ContractError
from polyvox.midi import ROLL_LOW, ROLL_TOP, TICKS_PER_SECOND, MidiNote, load_smf, to_piano_roll
from polyvox.pitch import cqt_input
from polyvox.synthgen import (DEFAULT_PRESETS, Score, SingerPreset, SynthConfig,
                              gen_dataset, load_clips, load_manifest, render_note, render_score)

from .conftest import WAVE_FLOAT, WAVE_PCM, write_wav

FLAT = SingerPreset("flat", tuple([1.0] + [0.0] * 15), ((400.0, 200.0),),
                    vibrato_rate=5.0, vibrato_depth=0.0, jitter=0.0)


def dft_peak_hz(w):
    spec = np.abs(np.fft.rfft(w.samples))
    return np.fft.rfftfreq(w.samples.size, 1.0 / w.sample_rate)[spec.argmax()]


class TestRenderNote:
    def test_a4_peak(self):
        w = render_note(69, 1.0, FLAT, seed=1)
        assert abs(dft_peak_hz(w) - 440.0) <= w.sample_rate / w.samples.size

    def test_too_short(self):
        with pytest.raises(ContractError):
            render_note(69, 0.02, FLAT, seed=1)

    def test_pitch_range(self):
        with pytest.raises(ContractError):
            render_note(20, 1.0, FLAT, seed=1)

    def test_deterministic(self):
        a = render_note(60, 0.5, DEFAULT_PRESETS[0], seed=42)
        b = render_note(60, 0.5, DEFAULT_PRESETS[0], seed=42)
        assert np.array_equal(a.samples, b.samples)

    def test_peak_is_half(self):
        w = render_note(60, 0.5, DEFAULT_PRESETS[1], seed=0)
        assert np.abs(w.samples).max() == pytest.approx(0.5)


class TestRenderScore:
    def test_empty_score(self):
        wave, notes = render_score(Score([]), DEFAULT_PRESETS[0], seed=0)
        assert notes == [] and not wave.samples.any()

    def test_union_ground_truth(self):
        score = Score([MidiNote(60, 0.0, 1.0)], [(7, -6.0, [MidiNote(60, 0.0, 1.0)])])
        _wave, truth = render_score(score, DEFAULT_PRESETS[0], seed=0)
        assert sorted(n.pitch for n in truth) == [60, 67]

    def test_harmony_bins_are_local_maxima(self):
        score = Score([MidiNote(60, 0.0, 2.0)], [(7, -6.0, [MidiNote(60, 0.0, 2.0)])])
        wave, _ = render_score(score, DEFAULT_PRESETS[2], seed=3)
        m = crop_to_vocal_range(compute_cqt(wave))
        rows = list(interior_frames(m.frames))
        assert rows, "2 s clip must have interior frames"
        profile = m.magnitudes[rows].mean(axis=0)
        peaks = {k for k in range(1, 59)
                 if profile[k] > profile[k - 1] and profile[k] > profile[k + 1]}
        assert {36, 43} <= peaks

    def test_mixture_peak(self):
        score = Score([MidiNote(64, 0.0, 0.5)])
        wave, _ = render_score(score, DEFAULT_PRESETS[0], seed=0)
        assert np.abs(wave.samples).max() == pytest.approx(0.9)

    def test_out_of_range_after_interval(self):
        score = Score([MidiNote(80, 0.0, 0.5)], [(7, -6.0, [MidiNote(80, 0.0, 0.5)])])
        with pytest.raises(ContractError):
            render_score(score, DEFAULT_PRESETS[0], seed=0)

    def test_harmony_gain_contract(self):
        with pytest.raises(ContractError):
            Score([MidiNote(60, 0.0, 0.5)], [(7, +3.0, [MidiNote(60, 0.0, 0.5)])])


class TestPresets:
    def test_profile_shape(self):
        with pytest.raises(ContractError):
            SingerPreset("bad", (1.0, 0.5), ((400.0, 100.0),))

    def test_first_amplitude_one(self):
        with pytest.raises(ContractError):
            SingerPreset("bad", tuple([0.5] * 16), ((400.0, 100.0),))

    def test_formant_below_nyquist(self):
        with pytest.raises(ContractError):
            SingerPreset("bad", tuple([1.0] + [0.0] * 15), ((30000.0, 100.0),))


class TestGenDataset(object):
    def test_counts_and_layout(self, tiny_corpus, tiny_rows):
        assert len(tiny_rows) == 8
        root = tiny_corpus.parent
        for row in tiny_rows:
            wav = root / row["path"]
            assert wav.exists()
            assert wav.with_suffix(".mid").exists()
        # each clip is its WAV and its MIDI file; the manifest holds the rest
        assert not list((root / "clips").glob("*.json"))
        assert len(list((root / "clips").iterdir())) == 2 * len(tiny_rows)

    def test_split_fractions(self, tiny_rows):
        n_eval = sum(r["split"] == "eval" for r in tiny_rows)
        assert n_eval == 1  # round(8 * 0.1) clamped to >= 1

    def test_deterministic_manifest(self, tmp_path):
        cfg = SynthConfig(n_single=2, n_harmony=1, dur_range=(3.0, 3.5))
        m1 = gen_dataset(cfg, seed=5, out_dir=tmp_path / "a")
        m2 = gen_dataset(cfg, seed=5, out_dir=tmp_path / "b")
        assert m1.read_bytes() == m2.read_bytes()
        wavs1 = sorted((tmp_path / "a" / "clips").glob("*.wav"))
        wavs2 = sorted((tmp_path / "b" / "clips").glob("*.wav"))
        assert all(a.read_bytes() == b.read_bytes() for a, b in zip(wavs1, wavs2))

    def test_harmony_clips_are_polyphonic(self, tiny_corpus, tiny_rows):
        root = tiny_corpus.parent
        for row in tiny_rows:
            if row["condition"] != "harmony":
                continue
            notes = load_smf(root / row["path"].replace(".wav", ".mid"))
            roll = to_piano_roll(notes, int(row["duration_s"] * 100))
            active = roll.activity.sum(axis=1)
            voiced = active > 0
            assert (active[voiced] >= 2).mean() >= 0.5

    def test_ground_truth_consistency(self, tmp_path):
        # the SMF sidecar reproduces the internal schedule exactly
        from polyvox.synthgen import make_clip_score

        rng = np.random.Generator(np.random.PCG64(123))
        cfg = SynthConfig()
        score = make_clip_score(cfg, "harmony", rng)
        wave, truth = render_score(score, DEFAULT_PRESETS[0], seed=9)
        path = tmp_path / "t.mid"
        from polyvox.midi import write_smf

        write_smf(truth, path)
        back = load_smf(path)
        assert [(n.pitch, n.onset, n.offset) for n in back] == \
               [(n.pitch, n.onset, n.offset) for n in truth]

    def test_melody_constants_leave_every_clip_writable(self):
        """Lead pitches lie in the roll with room for every harmony interval,
        the shortest note outlasts its attack and release on the tick grid,
        and the preset pool holds at least 4 voices."""
        assert len(DEFAULT_PRESETS) >= 4
        lo, hi = synthgen.LEAD_RANGE
        assert ROLL_LOW <= lo <= hi <= ROLL_TOP
        for interval in synthgen.HARMONY_INTERVALS:
            h_lo, h_hi = synthgen._harmony_lead_range(synthgen.LEAD_RANGE, interval)
            assert h_lo <= h_hi, interval
        shortest, longest = synthgen.NOTE_DUR_RANGE
        assert synthgen._MIN_NOTE_S + 1.0 / TICKS_PER_SECOND <= shortest <= longest

    def test_one_clip_is_a_corpus(self, tmp_path):
        manifest = gen_dataset(SynthConfig(n_single=0, n_harmony=1, dur_range=(1.0, 1.0)),
                               seed=3, out_dir=tmp_path)
        assert [row["split"] for row in load_manifest(manifest)] == ["eval"]


def _render_note_with_sines(pitch: int, dur: float, preset: SingerPreset, seed: int):
    """`render_note` with one float64 `np.sin(h * phase)` per harmonic, as
    it was written before the phasor: the reference the corpus must match."""
    sr = PIPELINE_SAMPLE_RATE
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    n = int(round(dur * sr))
    t = np.arange(n) / sr
    f0 = 440.0 * 2.0 ** ((pitch - 69) / 12.0)
    cents = preset.vibrato_depth * np.sin(2.0 * np.pi * preset.vibrato_rate * t)
    knots = rng.normal(0.0, preset.jitter, max(int(np.ceil(dur * 100.0)) + 2, 2))
    jitter = np.interp(t * 100.0, np.arange(knots.size), knots)
    f_inst = f0 * 2.0 ** (cents / 1200.0) * (1.0 + jitter)
    phase = 2.0 * np.pi * np.cumsum(f_inst) / sr
    out = np.zeros(n)
    for h, amp in enumerate(preset.harmonic_profile, start=1):
        fh = h * f0
        if fh >= 0.45 * sr or amp == 0.0:
            continue
        out += amp * synthgen._formant_gain(fh, preset) * np.sin(h * phase)
    ramp = int(0.010 * sr)
    env = np.ones(n)
    fade = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
    env[:ramp] = fade
    env[-ramp:] *= fade[::-1]
    out *= env
    out *= 0.5 / np.abs(out).max()
    return Waveform(out, sr)


class TestSerialRendering:
    @pytest.mark.parametrize("seed", [3, 59])
    def test_no_thread_and_the_bytes_of_the_sine_renderer(self, tmp_path, monkeypatch, seed):
        """`gen_dataset` renders on the calling thread, and its phasor
        harmonics write the same WAV, MID and JSON bytes as 16 sines do."""
        cfg = SynthConfig(n_single=2, n_harmony=3, dur_range=(1.5, 2.5))
        with monkeypatch.context() as patch:
            patch.setattr(synthgen, "render_note", _render_note_with_sines)
            gen_dataset(cfg, seed, tmp_path / "sines")

        def refuse(thread):
            raise AssertionError(f"gen_dataset started thread {thread.name}")

        with monkeypatch.context() as patch:
            patch.setattr(threading.Thread, "start", refuse)
            manifest = gen_dataset(cfg, seed, tmp_path / "phasor")
        assert sum(r["condition"] == "harmony" for r in load_manifest(manifest)) == 3
        files = sorted(p.relative_to(tmp_path / "sines")
                       for p in (tmp_path / "sines").rglob("*") if p.is_file())
        assert len(files) == 1 + 2 * 5
        assert files == sorted(p.relative_to(tmp_path / "phasor")
                               for p in (tmp_path / "phasor").rglob("*") if p.is_file())
        for rel in files:
            assert (tmp_path / "phasor" / rel).read_bytes() == \
                (tmp_path / "sines" / rel).read_bytes(), rel


class TestLoadClips:
    def test_manifest_order_and_split(self, tiny_corpus, tiny_rows):
        for split in ("train", "eval"):
            rows = [r for r in tiny_rows if r["split"] == split]
            assert [(c.id, c.condition, c.preset) for c in load_clips(tiny_corpus, split)] == \
                   [(r["id"], r["condition"], r["preset"]) for r in rows]

    def test_wave_and_notes_are_the_files(self, tiny_corpus):
        for clip in load_clips(tiny_corpus, "train"):
            wav = tiny_corpus.parent / "clips" / f"{clip.id}.wav"
            assert clip.wave.sample_rate == PIPELINE_SAMPLE_RATE
            assert np.array_equal(clip.wave.samples, load_wav(wav).samples)
            assert clip.notes == load_smf(wav.with_suffix(".mid"))

    @pytest.mark.parametrize("kind", ["pcm16-mono", "pcm16-stereo", "float32-mono", "pcm16-48k"])
    def test_wave_decodes_as_load_wav(self, tmp_path, kind):
        """`Clip.wave` is the float64 waveform `load_wav` reads from
        the clip's file, bit for bit, whatever the file's codec, channel
        count and rate."""
        manifest = gen_dataset(SynthConfig(n_single=1, n_harmony=1, dur_range=(1.0, 1.0),
                                           eval_fraction=0.5), seed=8, out_dir=tmp_path)
        downmixed = {}
        for row in load_manifest(manifest):
            path = tmp_path / row["path"]
            samples = load_wav(path).samples
            if kind == "pcm16-stereo":
                codes = np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2")
                other = np.round(0.5 * np.sin(np.arange(codes.size)) * 32767.0).astype("<i2")
                frames = np.stack([codes, other], axis=1)
                write_wav(path, frames, WAVE_PCM, PIPELINE_SAMPLE_RATE)
                downmixed[row["id"]] = (frames.astype(np.float64) / 32767.0).mean(axis=1)
            elif kind == "float32-mono":
                write_wav(path, (0.8 * samples).astype("<f4"), WAVE_FLOAT, PIPELINE_SAMPLE_RATE)
            elif kind == "pcm16-48k":
                save_wav(resample(Waveform(samples, PIPELINE_SAMPLE_RATE), 48000), path)
        for split in ("train", "eval"):
            for clip in load_clips(manifest, split):
                wave = clip.wave
                expected = load_wav(tmp_path / "clips" / f"{clip.id}.wav")
                assert wave.samples.dtype == np.float64
                assert wave.sample_rate == expected.sample_rate == PIPELINE_SAMPLE_RATE
                assert np.array_equal(wave.samples, expected.samples), (kind, clip.id)
                if clip.id in downmixed:
                    assert np.array_equal(wave.samples, downmixed[clip.id])
                assert wave.samples is not clip.wave.samples  # decoded anew, not cached

    def test_pcm16_clip_holds_int16_codes(self, tiny_corpus):
        for clip in load_clips(tiny_corpus, "train"):
            assert clip.codes.dtype == np.int16
            assert clip.codes.nbytes == 2 * clip.wave.samples.size
            assert clip.duration == clip.wave.duration

    def test_non_finite_float_wav_raises_when_the_clips_are_loaded(self, tmp_path):
        manifest = gen_dataset(SynthConfig(n_single=2, n_harmony=0, dur_range=(1.0, 1.0)),
                               seed=2, out_dir=tmp_path)
        row = next(r for r in load_manifest(manifest) if r["split"] == "train")
        path = tmp_path / row["path"]
        samples = load_wav(path).samples.astype("<f4")
        samples[100] = np.nan
        write_wav(path, samples, WAVE_FLOAT, PIPELINE_SAMPLE_RATE)
        with pytest.raises(ContractError, match=re.escape(path.name) + ".*non-finite"):
            load_clips(manifest, "train")

    def test_48k_corpus_is_read_at_44k(self, tmp_path):
        manifest = gen_dataset(SynthConfig(n_single=1, n_harmony=1, dur_range=(1.5, 1.5),
                                           eval_fraction=0.5), seed=6, out_dir=tmp_path)
        sizes = {}
        for row in load_manifest(manifest):
            w = load_wav(tmp_path / row["path"])
            sizes[row["id"]] = w.samples.size
            save_wav(resample(w, 48000), tmp_path / row["path"])
        for split in ("train", "eval"):
            for clip in load_clips(manifest, split):
                assert clip.wave.sample_rate == PIPELINE_SAMPLE_RATE
                assert abs(clip.wave.samples.size - sizes[clip.id]) <= 1

    def test_cqt_input_and_roll_share_frames(self, tiny_corpus):
        """The pitch trainer's pair: the CQT has one frame per hop plus the
        frame at the last sample, so it ends with the notes or one frame
        after them, and the roll at the CQT's frame count holds every note."""
        for split in ("train", "eval"):
            for clip in load_clips(tiny_corpus, split):
                values = cqt_input(compute_cqt(clip.wave))
                notes_end = int(np.ceil(max(n.offset for n in clip.notes) * FRAME_RATE - 1e-9))
                assert notes_end <= values.shape[0] <= notes_end + 1
                roll = to_piano_roll(clip.notes, n_frames=values.shape[0]).activity
                assert roll.shape == values.shape
                longer = to_piano_roll(clip.notes, n_frames=notes_end + 10).activity
                assert roll.sum() == longer.sum()

    def test_missing_sidecar_names_the_file(self, tmp_path):
        manifest = gen_dataset(SynthConfig(n_single=2, n_harmony=0, dur_range=(1.0, 1.0)),
                               seed=2, out_dir=tmp_path)
        row = next(r for r in load_manifest(manifest) if r["split"] == "train")
        mid = (tmp_path / row["path"]).with_suffix(".mid")
        mid.unlink()
        with pytest.raises(FileNotFoundError, match=re.escape(mid.name)):
            load_clips(manifest, "train")


class TestTimbreSeparability:
    def test_presets_differ_more_than_jitter(self):
        from itertools import combinations

        from polyvox.audio import mel_spectrogram

        lead = [MidiNote(62, 0.0, 0.8), MidiNote(65, 0.8, 1.6), MidiNote(60, 1.6, 2.4)]
        score = Score(lead)
        mels = {p.id: mel_spectrogram(render_score(score, p, seed=1)[0]).values
                for p in DEFAULT_PRESETS}
        within = {p.id: np.abs(mels[p.id]
                               - mel_spectrogram(render_score(score, p, seed=2)[0]).values).mean()
                  for p in DEFAULT_PRESETS}
        for a, b in combinations(DEFAULT_PRESETS, 2):
            cross = np.abs(mels[a.id] - mels[b.id]).mean()
            assert cross >= 5.0 * max(within[a.id], within[b.id]), (a.id, b.id)
