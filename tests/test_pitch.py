import numpy as np
import pytest

from polyvox.cqt import compute_cqt, crop_to_vocal_range
from polyvox.errors import ContractError
from polyvox.pitch import (PitchEncoderConfig, PitchExtractor, log_compress,
                           sample_training_window)

from .conftest import make_sine

SMALL = PitchEncoderConfig(model_dim=32, n_layers=2, n_heads=2, window_frames=64)


@pytest.fixture(scope="module")
def model():
    return PitchExtractor(SMALL, seed=3)


class TestEncoders:
    def test_cqt_shape_contract(self, model):
        out = model.encode_cqt(np.zeros((200, 60)))
        assert out.shape == (200, 32)

    def test_wrong_bin_count(self, model):
        with pytest.raises(ContractError):
            model.encode_cqt(np.zeros((10, 59)))
        with pytest.raises(ContractError):
            model.encode_midi(np.zeros((10, 61)))

    def test_zero_input_is_position_dependent_only(self, model):
        a = model.encode_cqt(np.zeros((50, 60))).data
        b = model.encode_cqt(np.zeros((50, 60))).data
        assert np.array_equal(a, b)
        # frames differ across positions, yet every run is identical
        assert not np.allclose(a[0], a[1])

    def test_midi_determinism(self, model):
        roll = (np.random.default_rng(0).random((80, 60)) > 0.9).astype(float)
        assert np.array_equal(model.encode_midi(roll).data, model.encode_midi(roll).data)

    def test_transposed_input_changes_embedding(self, model):
        tone = crop_to_vocal_range(compute_cqt(make_sine(220.0, dur=0.8)))
        base = log_compress(tone.magnitudes)
        shifted = np.roll(base, 2, axis=1)
        a = model.encode_cqt(base).data
        b = model.encode_cqt(shifted).data
        assert np.abs(a - b).mean() > 1e-3

    def test_config_invariants(self):
        with pytest.raises(ContractError):
            PitchEncoderConfig(model_dim=30, n_heads=4)
        with pytest.raises(ContractError):
            PitchEncoderConfig(window_frames=4)


class TestWindowSampling:
    def test_long_clip_alignment(self):
        values = np.arange(1000)[:, None] * np.ones((1, 60))
        roll = values.copy()
        rng = np.random.default_rng(0)
        starts = set()
        for _ in range(50):
            v, r, mask = sample_training_window((values, roll), rng, 200)
            assert v.shape == (200, 60) and np.array_equal(v, r)
            assert mask.all()
            start = int(v[0, 0])
            assert 0 <= start <= 800
            starts.add(start)
        assert len(starts) > 5

    def test_short_clip_padded_with_mask(self):
        values = np.ones((150, 60))
        roll = np.ones((150, 60))
        v, r, mask = sample_training_window((values, roll), np.random.default_rng(0), 200)
        assert v.shape == (200, 60)
        assert mask[:150].all() and not mask[150:].any()
        assert not v[150:].any()

    def test_reproducible_starts(self):
        values = np.arange(600)[:, None] * np.ones((1, 60))
        seq1 = [int(sample_training_window((values, values),
                                           np.random.default_rng(9), 100)[0][0, 0])
                for _ in range(1)]
        seq2 = [int(sample_training_window((values, values),
                                           np.random.default_rng(9), 100)[0][0, 0])
                for _ in range(1)]
        assert seq1 == seq2

    def test_mismatched_frames_rejected(self):
        with pytest.raises(ContractError):
            sample_training_window((np.ones((10, 60)), np.ones((11, 60))),
                                   np.random.default_rng(0), 8)


class TestLogCompress:
    def test_silence_maps_to_zero(self):
        assert not log_compress(np.zeros((5, 60))).any()

    def test_compresses_range(self):
        mags = np.zeros((4, 60))
        mags[0, 0] = 100.0
        mags[1, 1] = 1.0
        out = log_compress(mags)
        assert out.max() < np.log1p(100.0 / 1.0)
        assert out.min() == 0.0

    def test_trailing_silence_leaves_scale_unchanged(self):
        tone = crop_to_vocal_range(compute_cqt(make_sine(220.0, dur=1.0))).magnitudes
        base = log_compress(tone)
        for pad in (1, 3, 10):
            padded = np.concatenate([tone, np.zeros((pad * tone.shape[0], tone.shape[1]))])
            assert np.array_equal(log_compress(padded)[: tone.shape[0]], base)


class TestCheckpoint:
    def test_save_load_reproduces_embeddings(self, tmp_path, model):
        path = tmp_path / "p.pvck"
        model.save(path, step=5)
        back = PitchExtractor.load(path)
        x = np.random.default_rng(4).normal(size=(30, 60))
        a = model.encode_cqt(x).data
        b = back.encode_cqt(x).data
        assert np.allclose(a, b, atol=1e-4)  # float32 container quantization
        again = PitchExtractor.load(path)
        assert np.array_equal(b, again.encode_cqt(x).data)
        assert not any(p.requires_grad for p in back.store.params.values())
