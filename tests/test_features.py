import dataclasses
from itertools import combinations

import numpy as np
import pytest

from polyvox.audio import MelSpectrogram, Waveform, mel_spectrogram
from polyvox.errors import ContractError
from polyvox.features import (N_CONTENT, TIMBRE_DIM, TimbreSpace, extract_content, timbre_stats,
                              train_timbre_space)
from polyvox.midi import MidiNote
from polyvox.synthgen import DEFAULT_PRESETS, Score, SynthConfig, make_clip_score, render_score


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
    space = train_timbre_space(np.stack(stats), np.array(labels))
    return space


class TestContent:
    def test_shape(self, sung_clip):
        content = extract_content(mel_spectrogram(sung_clip))
        assert content.shape == (mel_spectrogram(sung_clip).frames, N_CONTENT)

    def test_wrong_band_count(self):
        with pytest.raises(ContractError):
            extract_content(MelSpectrogram(np.zeros((10, 40))))

    def test_gain_invariance(self, sung_clip):
        half = Waveform(sung_clip.samples * 0.5, sung_clip.sample_rate)
        a = extract_content(mel_spectrogram(sung_clip))
        b = extract_content(mel_spectrogram(half))
        assert np.abs(a - b).mean() < 0.02

    @staticmethod
    def _l1(a: np.ndarray, b: np.ndarray) -> float:
        """Mean absolute difference over the frames two clips share."""
        n = min(len(a), len(b))
        return float(np.abs(a[:n] - b[:n]).mean())

    def test_more_timbre_invariant_than_mel(self):
        # Content and mel have different units, so each feature's L1 under a
        # timbre change (the same legato melody, another preset) is divided
        # by its own L1 under a change of score, rhythm included (another
        # corpus score, the same preset). Content must be the more
        # timbre-invariant of the two. Content that carries no pitch is as
        # far apart across these legato melodies as across presets, so the
        # melodies do not enter the denominator.
        melodies = ([62, 66, 64, 67, 65, 62], [57, 59, 62, 60, 64, 59],
                    [69, 67, 64, 65, 62, 66])
        presets = DEFAULT_PRESETS[:4]
        cfg = SynthConfig(dur_range=(4.0, 4.0))
        scores = [make_clip_score(cfg, "single", np.random.default_rng(seed))
                  for seed in (1, 2, 3)]
        legato, other = {}, {}
        for i, preset in enumerate(presets):
            for a, pitches in enumerate(melodies):
                score = Score([MidiNote(p, 0.5 * k, 0.5 * (k + 1)) for k, p in enumerate(pitches)])
                legato[i, a] = mel_spectrogram(render_score(score, preset, seed=1)[0])
            for a, score in enumerate(scores):
                other[i, a] = mel_spectrogram(render_score(score, preset, seed=1)[0])

        def timbre_to_score_ratio(feature):
            f = {key: feature(m) for key, m in legato.items()}
            g = {key: feature(m) for key, m in other.items()}
            timbre = np.mean([self._l1(f[i, a], f[j, a])
                              for i, j in combinations(range(len(presets)), 2)
                              for a in range(len(melodies))])
            score = np.mean([self._l1(g[i, a], g[i, b])
                             for a, b in combinations(range(len(scores)), 2)
                             for i in range(len(presets))])
            return timbre / score

        assert timbre_to_score_ratio(extract_content) < timbre_to_score_ratio(lambda m: m.values)

    def test_transposition_moves_content_little(self):
        """Content carries no pitch: 3 semitones up moves it by less than
        0.4 of the distance between different scores."""
        cfg = SynthConfig(dur_range=(4.0, 4.0))
        scores = [make_clip_score(cfg, "single", np.random.default_rng(seed)) for seed in range(6)]
        up = [Score([dataclasses.replace(n, pitch=n.pitch + 3) for n in s.lead]) for s in scores]

        def content(score):
            return extract_content(mel_spectrogram(render_score(score, DEFAULT_PRESETS[0], 1)[0]))

        base = [content(s) for s in scores]
        transposed = np.mean([self._l1(c, content(s)) for c, s in zip(base, up)])
        between = np.mean([self._l1(base[i], base[j]) for i, j in combinations(range(6), 2)])
        assert transposed / between < 0.4


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
                                       np.zeros(2, dtype=int))
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
