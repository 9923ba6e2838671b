import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyvox import cqt
from polyvox.audio import HOP, Waveform
from polyvox.cqt import (CqtConfig, CqtMatrix, _kernel_bank, bin_center_frequency, compute_cqt,
                         crop_to_vocal_range, interior_frames, kernel_length,
                         load_cqt, save_cqt, save_cqt_csv, save_matrix_container,
                         transpose_pitch)
from polyvox.errors import ContractError
from polyvox.midi import ROLL_LOW, ROLL_PITCHES

from .conftest import make_sine

CFG = CqtConfig()


def tone_cqt(k: int, dur: float = 1.0):
    return compute_cqt(make_sine(bin_center_frequency(k), dur=dur))


class TestBinFrequencies:
    def test_bin_zero_is_c1(self):
        assert bin_center_frequency(0) == pytest.approx(32.7032, abs=1e-9)

    def test_one_octave_doubles(self):
        assert bin_center_frequency(12) == pytest.approx(65.4064, abs=1e-9)

    def test_a4(self):
        assert abs(bin_center_frequency(45) - 440.0) < 0.01

    @given(st.integers(min_value=0, max_value=71))
    @settings(max_examples=72, deadline=None)
    def test_geometric_spacing(self, k):
        assert bin_center_frequency(k + 12) == pytest.approx(
            2.0 * bin_center_frequency(k), rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            bin_center_frequency(84)
        with pytest.raises(IndexError):
            bin_center_frequency(-1)

    def test_config_invariants(self):
        # top bin centre 3951 Hz, its band edge 4067 Hz: past the 4000 Hz Nyquist
        with pytest.raises(ContractError):
            CqtConfig(sample_rate=8000)
        # Nyquist 4100 Hz clears the band edge
        assert CqtConfig(sample_rate=8200).sample_rate == 8200
        with pytest.raises(ContractError):
            CqtConfig(hop=0)
        with pytest.raises(ContractError, match="f_min"):
            CqtConfig(f_min=0.0)

    @pytest.mark.parametrize("field", ["bins_per_octave", "n_bins"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_empty_axis_rejected(self, field, value):
        with pytest.raises(ContractError, match=field):
            CqtConfig(**{field: value})


class TestComputeCqt:
    def test_tone_argmax_all_interior(self, sine_440):
        m = compute_cqt(sine_440)
        rows = list(interior_frames(m.frames))
        assert rows, "1 s clip must have interior frames"
        assert np.all(m.magnitudes[rows].argmax(axis=1) == 45)

    def test_unit_tone_peak_magnitude(self, sine_440):
        m = compute_cqt(sine_440)
        rows = list(interior_frames(m.frames))
        assert rows, "1 s clip must have interior frames"
        peak = m.magnitudes[rows, 45]
        assert np.all((peak >= 0.4) & (peak <= 0.6))

    def test_silence_is_zero(self):
        from polyvox.audio import Waveform

        m = compute_cqt(Waveform(np.zeros(44100), 44100))
        assert np.allclose(m.magnitudes, 0.0, atol=1e-12)

    def test_major_third_two_peaks(self):
        w = make_sine(440.0)
        mix = make_sine(554.37)
        from polyvox.audio import Waveform

        m = compute_cqt(Waveform(w.samples + mix.samples, 44100))
        rows = list(interior_frames(m.frames))
        assert rows, "1 s clip must have interior frames"
        profile = m.magnitudes[rows].mean(axis=0)
        local_max = [k for k in range(1, 83)
                     if profile[k] > profile[k - 1] and profile[k] > profile[k + 1]]
        assert 45 in local_max and 49 in local_max

    def test_sample_rate_contract(self):
        with pytest.raises(ContractError):
            compute_cqt(make_sine(440.0, sr=22050))

    @given(st.integers(min_value=441, max_value=60000))
    @settings(max_examples=20, deadline=None)
    def test_frame_count_law(self, n):
        from polyvox.audio import Waveform

        m = compute_cqt(Waveform(np.zeros(n), 44100))
        assert m.frames == n // CFG.hop + 1

    @given(st.integers(min_value=12, max_value=57))
    @settings(max_examples=8, deadline=None)
    def test_tone_locality(self, k):
        # >= 50% of each interior frame's magnitude within +/-2 bins
        m = tone_cqt(k, dur=0.7)
        sel = list(interior_frames(m.frames))
        assert sel, "0.7 s tone must have interior frames"
        rows = m.magnitudes[sel]
        lo, hi = max(k - 2, 0), min(k + 3, 84)
        ratio = rows[:, lo:hi].sum(axis=1) / rows.sum(axis=1)
        assert np.all(ratio >= 0.5)


def dense_cqt(x: np.ndarray, cfg: CqtConfig) -> np.ndarray:
    """Reference CQT: every frame's explicit dot product with each bin's full
    kernel, on the centre-padded signal."""
    n_max = kernel_length(0, cfg)
    xp = np.concatenate([np.zeros(n_max // 2), x, np.zeros(n_max)])
    frames = x.size // cfg.hop + 1
    out = np.empty((frames, cfg.n_bins))
    for k in range(cfg.n_bins):
        n = kernel_length(k, cfg)
        window = np.hanning(n)
        window /= window.sum()
        kernel = window * np.exp(-2j * np.pi * bin_center_frequency(k, cfg)
                                 * np.arange(n) / cfg.sample_rate)
        start = n_max // 2 - n // 2
        rows = np.lib.stride_tricks.sliding_window_view(xp[start:], n)[::cfg.hop][:frames]
        out[:, k] = np.abs(rows @ kernel)
    return out


class TestBlockSparse:
    """`compute_cqt` multiplies only the taps each kernel has; it must give
    the dense transform up to summation order."""

    @pytest.mark.parametrize("n", [1, HOP - 1, int(0.3 * 44100), 2 * 44100,
                                   int(5.5 * 44100) + 7],
                             ids=["1", "hop-1", "0.3s", "2s", "5.5s+7"])
    def test_matches_dense_reference(self, n):
        x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        got = compute_cqt(Waveform(x, 44100)).magnitudes
        want = dense_cqt(x, CFG)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 255, 5000, 22050])
    def test_matches_dense_reference_other_config(self, n):
        cfg = CqtConfig(sample_rate=22050, hop=256, n_bins=60)
        x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        got = compute_cqt(Waveform(x, 22050), cfg).magnitudes
        want = dense_cqt(x, cfg)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    @pytest.mark.parametrize("n", [2 * 44100, int(5.5 * 44100) + 7], ids=["2s", "5.5s+7"])
    def test_chunk_seams_match_dense_reference(self, monkeypatch, chunk, n):
        """Chunks of a few frames, so the product crosses many seams."""
        monkeypatch.setattr(cqt, "CHUNK_FRAMES", chunk)
        x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        got = compute_cqt(Waveform(x, 44100)).magnitudes
        want = dense_cqt(x, CFG)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_blocks_hold_a_quarter_of_the_dense_bank(self):
        n_max = kernel_length(0, CFG)
        bank, widths = _kernel_bank(CFG)
        assert not bank.flags.writeable
        assert bank.shape == (CFG.hop, sum(widths))
        assert len(widths) == -(-n_max // CFG.hop)
        assert bank.size <= 0.25 * n_max * 2 * CFG.n_bins

    def test_memory_bounded_in_clip_length(self):
        """Beyond the padded signal, the projection and the magnitudes, a
        call allocates one chunk's product, whatever the clip length."""
        compute_cqt(Waveform(np.zeros(HOP), 44100))  # the cached bank, built untraced
        blocks = -(-kernel_length(0, CFG) // CFG.hop)
        extra = []
        tracemalloc.start()
        try:
            for seconds in (30, 120):
                w = Waveform(np.random.default_rng(seconds).uniform(-1.0, 1.0, seconds * 44100),
                             44100)
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                m = compute_cqt(w)
                peak = tracemalloc.get_traced_memory()[1] - base
                frames = m.frames
                # the padded signal, the projection and the magnitudes
                kept = 8 * ((frames + blocks) * CFG.hop + frames * 2 * CFG.n_bins
                            + frames * CFG.n_bins)
                extra.append(peak - kept)
                del w, m
        finally:
            tracemalloc.stop()
        assert max(extra) < 20 * 2**20, extra
        assert abs(extra[0] - extra[1]) < 2**20, extra


class TestCrop:
    def test_default_crop_is_60_bins(self, sine_440):
        m = compute_cqt(sine_440)
        c = crop_to_vocal_range(m)
        assert c.bins == ROLL_PITCHES == 60
        assert np.array_equal(c.magnitudes, m.magnitudes[:, :60])
        # enumeration oracle: the roll's bins are the 32-1000 Hz vocal range
        freqs = [bin_center_frequency(k) for k in range(84)]
        expected = [k for k, f in enumerate(freqs) if 32.0 <= f <= 1000.0]
        assert expected == list(range(60))

    def test_bins_are_roll_pitches(self, sine_440):
        """Cropped bin k sits at MIDI pitch ROLL_LOW + k (F_MIN_C1 is C1
        rounded to 1.3e-7 relative)."""
        c = crop_to_vocal_range(compute_cqt(sine_440))
        midi_hz = 440.0 * 2.0 ** ((ROLL_LOW + np.arange(ROLL_PITCHES) - 69) / 12)
        freqs = np.array([c.bin_frequency(k) for k in range(c.bins)])
        np.testing.assert_allclose(freqs, midi_hz, rtol=1e-6)

    def test_idempotent(self, sine_440):
        m = compute_cqt(sine_440)
        once = crop_to_vocal_range(m)
        twice = crop_to_vocal_range(once)
        assert np.array_equal(once.magnitudes, twice.magnitudes)

    @pytest.mark.parametrize("cfg", [CqtConfig(f_min=55.0), CqtConfig(bins_per_octave=24)],
                             ids=["f_min_55", "24_per_octave"])
    def test_rejects_bins_that_are_not_roll_pitches(self, sine_440, cfg):
        """Off a semitone grid from C1, bin k is not roll pitch k."""
        with pytest.raises(ContractError, match="semitone CQT anchored at C1"):
            crop_to_vocal_range(compute_cqt(sine_440, cfg))


class TestTranspose:
    def test_zero_is_identity(self, sine_440):
        m = compute_cqt(sine_440)
        assert np.array_equal(transpose_pitch(m, 0).magnitudes, m.magnitudes)

    def test_up_octave_moves_argmax(self, sine_440):
        m = compute_cqt(sine_440)
        shifted = transpose_pitch(m, 12)
        rows = list(interior_frames(m.frames))
        assert rows, "1 s clip must have interior frames"
        assert np.all(shifted.magnitudes[rows].argmax(axis=1) == 57)

    def test_shift_algebra(self, sine_440):
        m = compute_cqt(sine_440)
        back = transpose_pitch(transpose_pitch(m, 5), -5)
        assert np.array_equal(back.magnitudes[:, :-5], m.magnitudes[:, :-5])
        assert np.all(back.magnitudes[:, -5:] == 0.0)

    def test_too_large_shift(self, sine_440):
        m = crop_to_vocal_range(compute_cqt(sine_440))
        with pytest.raises(ContractError):
            transpose_pitch(m, 60)

    @pytest.mark.parametrize("k,s", [(40, 5), (45, -12), (30, 12)])
    def test_shift_equivariance(self, k, s):
        base = tone_cqt(k, dur=0.5)
        repitched = tone_cqt(k + s, dur=0.5)
        shifted = transpose_pitch(base, s)
        # only bins from the lower tone up are compared, so frames need only
        # be clear of the edges for those bins' kernels
        lo = min(k, k + s)
        rows = list(interior_frames(base.frames, lowest_bin=lo))
        assert rows, "0.5 s tone must have interior frames for the bins compared"
        a = shifted.magnitudes[rows, lo:].argmax(axis=1)
        b = repitched.magnitudes[rows, lo:].argmax(axis=1)
        assert np.all(a == b)


class TestSerialization:
    def test_container_roundtrip(self, tmp_path, sine_440):
        m = crop_to_vocal_range(compute_cqt(sine_440))
        path = tmp_path / "m.cqt"
        save_cqt(m, path)
        back = load_cqt(path)
        assert back.frames == m.frames and back.bins == 60
        assert np.allclose(back.magnitudes, m.magnitudes, atol=1e-4)
        # the header carries the config's f_min, so the loaded matrix is
        # still the roll's bins and crops to itself
        assert back.config.f_min == m.config.f_min
        assert crop_to_vocal_range(back).bins == 60

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cqt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ContractError):
            load_cqt(path)

    @pytest.mark.parametrize("bins, bins_per_octave", [(80, 0), (0, 12)])
    def test_hostile_container(self, tmp_path, bins, bins_per_octave):
        """A `CQT1` header with bins_per_octave 0, as the `MEL1` mel container
        writes, or with zero bins is not a CQT: loading it raises
        ContractError, not ZeroDivisionError."""
        path = tmp_path / "m.cqt"
        save_matrix_container(np.zeros((3, bins)), path, b"CQT1", f_min=40.0, hop=441,
                              sample_rate=44100, bins_per_octave=bins_per_octave)
        with pytest.raises(ContractError):
            load_cqt(path)

    @pytest.mark.parametrize("frames, bins", [(0xFFFFFFFF, 0xFFFFFFFF), (2**31, 1), (1, 2**31)])
    def test_oversized_header(self, tmp_path, frames, bins):
        """A header declaring more cells than the file holds raises
        ContractError before anything that size is read or allocated."""
        path = tmp_path / "big.cqt"
        head = struct.pack("<4sIIdIII", b"CQT1", frames, bins, 32.7032, 441, 44100, 12)
        path.write_bytes(head + b"\x00" * 64)
        with pytest.raises(ContractError, match="truncated payload"):
            load_cqt(path)

    def test_csv_export(self, tmp_path, sine_440):
        m = crop_to_vocal_range(compute_cqt(sine_440))
        path = tmp_path / "m.csv"
        save_cqt_csv(m, path)
        lines = path.read_text().splitlines()
        assert len(lines) == m.frames + 1
        assert lines[0].startswith("frame,")

    def test_kernel_length_formula(self):
        q = CFG.q_factor
        for k in (0, 45, 83):
            assert kernel_length(k, CFG) == int(np.ceil(q * 44100 / bin_center_frequency(k)))
