from itertools import combinations

import numpy as np
import pytest

from polyvox import features
from polyvox.audio import FFT_SIZE, HOP, MelSpectrogram, Waveform, mel_spectrogram
from polyvox.cqt import compute_cqt, crop_to_vocal_range, interior_frames
from polyvox.errors import ContractError
from polyvox.features import (TIMBRE_DIM, WARP_CONTEXT, WARP_LIMIT, TimbreSpace,
                              extract_content, timbre_shift_augment, timbre_stats,
                              train_timbre_space, warp_spectral_envelope, window_content)
from polyvox.midi import MidiNote
from polyvox.synthgen import DEFAULT_PRESETS, Score, render_score


@pytest.fixture(scope="module")
def sung_clip():
    lead = [MidiNote(62, 0.0, 1.0), MidiNote(65, 1.0, 2.0), MidiNote(60, 2.0, 3.0)]
    wave, _ = render_score(Score(lead), DEFAULT_PRESETS[0], seed=4)
    return wave


@pytest.fixture(scope="module")
def timbre_space():
    lead = [MidiNote(60, 0.0, 0.8), MidiNote(64, 0.8, 1.6), MidiNote(62, 1.6, 2.4)]
    alt = [MidiNote(65, 0.0, 1.2), MidiNote(62, 1.2, 2.4)]
    stats, labels = [], []
    for label, preset in enumerate(DEFAULT_PRESETS[:4]):
        for seed, score in ((1, Score(lead)), (2, Score(alt)), (3, Score(lead))):
            wave, _ = render_score(score, preset, seed=seed)
            stats.append(timbre_stats(mel_spectrogram(wave)))
            labels.append(label)
    space = train_timbre_space(np.stack(stats), np.array(labels), n_classes=4)
    return space


class TestContent:
    def test_shape(self, sung_clip):
        content = extract_content(mel_spectrogram(sung_clip))
        assert content.shape == (mel_spectrogram(sung_clip).frames, 20)

    def test_wrong_band_count(self):
        with pytest.raises(ContractError):
            extract_content(MelSpectrogram(np.zeros((10, 40))))

    def test_gain_invariance(self, sung_clip):
        half = Waveform(sung_clip.samples * 0.5, sung_clip.sample_rate)
        a = extract_content(mel_spectrogram(sung_clip))
        b = extract_content(mel_spectrogram(half))
        assert np.abs(a - b).mean() < 0.02

    def test_more_timbre_invariant_than_mel(self):
        # Content (z-scores) and mel (nats) have different units, so each
        # feature's L1 under a timbre change (same melody, other preset) is
        # divided by its own L1 under a melody change (same preset, other
        # melody). Content must be the more timbre-invariant of the two.
        melodies = ([62, 66, 64, 67, 65, 62], [57, 59, 62, 60, 64, 59],
                    [69, 67, 64, 65, 62, 66])
        presets = DEFAULT_PRESETS[:4]
        mels = {}
        for a, pitches in enumerate(melodies):
            score = Score([MidiNote(p, 0.5 * i, 0.5 * (i + 1)) for i, p in enumerate(pitches)])
            for i, preset in enumerate(presets):
                mels[i, a] = mel_spectrogram(render_score(score, preset, seed=1)[0])

        def timbre_to_melody_ratio(feature):
            f = {key: feature(m) for key, m in mels.items()}
            timbre = np.mean([np.abs(f[i, a] - f[j, a]).mean()
                              for i, j in combinations(range(len(presets)), 2)
                              for a in range(len(melodies))])
            melody = np.mean([np.abs(f[i, a] - f[i, b]).mean()
                              for a, b in combinations(range(len(melodies)), 2)
                              for i in range(len(presets))])
            return timbre / melody

        assert timbre_to_melody_ratio(extract_content) < timbre_to_melody_ratio(lambda m: m.values)


class TestTimbre:
    def test_unit_norm(self, timbre_space, sung_clip):
        emb = timbre_space.embed(mel_spectrogram(sung_clip))
        assert emb.shape == (TIMBRE_DIM,)
        assert np.linalg.norm(emb) == pytest.approx(1.0, abs=1e-6)

    def test_single_singer_maps_to_zero(self, sung_clip):
        """One clip twice, and two distinct clips of one singer: their
        residuals mirror each other, so the within-singer covariance is
        rank 1 and cannot be factorised."""
        m = mel_spectrogram(sung_clip)
        other, _ = render_score(Score([MidiNote(65, 0.0, 1.2), MidiNote(62, 1.2, 2.4)]),
                                DEFAULT_PRESETS[0], seed=5)
        for pair in ((m, m), (m, mel_spectrogram(other))):
            space = train_timbre_space(np.stack([timbre_stats(x) for x in pair]),
                                       np.zeros(2, dtype=int), n_classes=2)
            assert not space.weight.any()
            assert not space.embed(m).any()

    def test_space_of_other_statistics_rejected(self):
        with pytest.raises(ContractError):
            TimbreSpace(np.zeros((164, TIMBRE_DIM)), np.zeros(164), np.ones(164))

    def test_short_clip_rejected(self, timbre_space):
        with pytest.raises(ContractError):
            timbre_space.embed(MelSpectrogram(np.zeros((50, 80))))

    def test_same_preset_high_cosine(self, timbre_space):
        s1 = [MidiNote(61, 0.0, 1.1), MidiNote(63, 1.1, 2.2)]
        s2 = [MidiNote(67, 0.0, 0.9), MidiNote(64, 0.9, 1.8), MidiNote(66, 1.8, 2.7)]
        sims, cross = [], []
        for preset in DEFAULT_PRESETS[:4]:
            w1, _ = render_score(Score(s1), preset, seed=8)
            w2, _ = render_score(Score(s2), preset, seed=9)
            e1 = timbre_space.embed(mel_spectrogram(w1))
            e2 = timbre_space.embed(mel_spectrogram(w2))
            sims.append(float(e1 @ e2))
        for other in DEFAULT_PRESETS[1:4]:
            w1, _ = render_score(Score(s1), DEFAULT_PRESETS[0], seed=8)
            w2, _ = render_score(Score(s1), other, seed=8)
            cross.append(float(timbre_space.embed(mel_spectrogram(w1))
                               @ timbre_space.embed(mel_spectrogram(w2))))
        assert min(sims) >= 0.8
        assert np.mean(sims) - np.mean(cross) >= 0.2


class TestWarp:
    def test_identity_preserves_mel(self, sung_clip):
        out = warp_spectral_envelope(sung_clip, np.zeros(3))
        a = mel_spectrogram(sung_clip).values
        b = mel_spectrogram(out).values
        assert np.abs(a - b).mean() < 1e-6

    def test_pitch_preserved(self, sung_clip):
        rng = np.random.default_rng(5)
        warped = timbre_shift_augment(sung_clip, rng)
        before = crop_to_vocal_range(compute_cqt(sung_clip))
        after = crop_to_vocal_range(compute_cqt(warped))
        rows = list(interior_frames(before.frames))
        assert rows, "3 s clip must have interior frames"
        a = before.magnitudes[rows].argmax(axis=1)
        b = after.magnitudes[rows].argmax(axis=1)
        voiced = before.magnitudes[rows].max(axis=1) > 0.01
        assert np.mean(a[voiced] == b[voiced]) >= 0.95

    def test_warp_moves_timbre_embedding(self, timbre_space, sung_clip):
        lead = [MidiNote(62, 0.0, 1.0), MidiNote(65, 1.0, 2.0), MidiNote(60, 2.0, 3.0)]
        duplicate, _ = render_score(Score(lead), DEFAULT_PRESETS[0], seed=77)
        warped = warp_spectral_envelope(sung_clip, np.array([0.12, -0.12, 0.12]))
        base = timbre_space.embed(mel_spectrogram(sung_clip))
        cos_dup = float(base @ timbre_space.embed(mel_spectrogram(duplicate)))
        cos_warp = float(base @ timbre_space.embed(mel_spectrogram(warped)))
        assert cos_warp < cos_dup

    def test_offsets_validated(self, sung_clip):
        with pytest.raises(ContractError):
            warp_spectral_envelope(sung_clip, np.array([0.3, 0.0, 0.0]))
        with pytest.raises(ContractError):
            warp_spectral_envelope(sung_clip, np.zeros(2))

    def test_augment_deterministic_given_rng(self, sung_clip):
        a = timbre_shift_augment(sung_clip, np.random.default_rng(11))
        b = timbre_shift_augment(sung_clip, np.random.default_rng(11))
        assert np.array_equal(a.samples, b.samples)


class TestWindowContent:
    """Training warps one window and its context, not the whole clip."""

    FRAMES = 120

    def test_context_is_whole_hops_past_the_edge_frames_reach(self):
        assert WARP_CONTEXT % HOP == 0
        assert WARP_CONTEXT >= 3 * FFT_SIZE // 2

    @pytest.mark.parametrize("where", ["start", "interior", "end", "one window"])
    def test_window_mel_equals_whole_clip_warp(self, sung_clip, where, monkeypatch):
        """The mel frames `window_content` normalises are the whole warped
        clip's, bit for bit, wherever the window sits."""
        wave = sung_clip
        if where == "one window":
            wave = Waveform(sung_clip.samples[: (self.FRAMES - 1) * HOP], sung_clip.sample_rate)
        n_frames = wave.samples.size // HOP + 1
        start = {"start": 0, "interior": 90, "end": n_frames - self.FRAMES,
                 "one window": 0}[where]
        offsets = np.random.default_rng(12).uniform(-WARP_LIMIT, WARP_LIMIT, 3)
        whole = mel_spectrogram(warp_spectral_envelope(wave, offsets)).values
        seen = []
        monkeypatch.setattr(features, "extract_content",
                            lambda m: seen.append(m.values) or extract_content(m))
        content = window_content(wave, start, self.FRAMES, np.random.default_rng(12))
        assert np.array_equal(seen[0], whole[start : start + self.FRAMES])
        assert np.array_equal(content, extract_content(MelSpectrogram(seen[0])))

    def test_window_outside_clip_rejected(self, sung_clip):
        n_frames = sung_clip.samples.size // HOP + 1
        for start in (-1, n_frames - self.FRAMES + 1):
            with pytest.raises(ContractError):
                window_content(sung_clip, start, self.FRAMES, np.random.default_rng(0))
