import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyvox.audio import (FFT_SIZE, FRAME_RATE, HOP, LOG_FLOOR, N_MELS, MelSpectrogram,
                           Waveform, _griffin_lim, _overlap_add, griffin_lim, istft, load_wav,
                           mel_filterbank, mel_spectrogram, mel_to_linear, resample, save_wav,
                           stft)
from polyvox.errors import ContractError, UnsupportedWavError, WavFormatError
from polyvox.synthgen import load_clips

from .conftest import SR, make_sine


def resample_per_sample(w: Waveform, target_rate: int) -> np.ndarray:
    """Reference resampler: the 64-tap Hann-sinc kernel evaluated afresh for
    every output sample at the float position m * source / target."""
    ratio = target_rate / w.sample_rate
    n_out = int(round(w.samples.size * ratio))
    cutoff = min(1.0, ratio)
    half = 32
    x = np.concatenate([np.zeros(half), w.samples, np.zeros(half + 1)])
    t = np.arange(n_out) / ratio
    base = np.floor(t).astype(np.int64)
    offsets = np.arange(-half + 1, half + 1)
    u = offsets[None, :] - (t - base)[:, None]
    taps = cutoff * np.sinc(cutoff * u) * (0.5 + 0.5 * np.cos(np.pi * u / half))
    return np.einsum("ij,ij->i", x[base[:, None] + offsets[None, :] + half], taps)


def griffin_lim_by_angle(m: MelSpectrogram, iters: int) -> np.ndarray:
    """Reference Griffin-Lim: the phase through `np.angle` and a complex `exp`."""
    target = mel_to_linear(m)
    n_samples = m.frames * HOP
    x = istft(target.astype(np.complex128), n_samples)
    for _ in range(iters - 1):
        phase = np.angle(stft(x)[: m.frames])
        x = istft(target * np.exp(1j * phase), n_samples)
    return x


def stft_by_numpy(x: np.ndarray) -> np.ndarray:
    """Reference STFT: float64 frames sliced one by one, `np.hanning`, `np.fft.rfft`."""
    pad = FFT_SIZE // 2
    xp = np.pad(np.asarray(x, dtype=np.float64), pad)
    frames = np.stack([xp[f * HOP : f * HOP + FFT_SIZE] for f in range(x.size // HOP + 1)])
    return np.fft.rfft(frames * np.hanning(FFT_SIZE), axis=1)


def istft_by_numpy(spec: np.ndarray, n_samples: int) -> np.ndarray:
    """Reference inverse: `np.fft.irfft`, then the windowed frames and the
    squared window overlap-added frame by frame."""
    window = np.hanning(FFT_SIZE)
    segs = np.fft.irfft(spec, n=FFT_SIZE, axis=1) * window
    acc, wsq = np.zeros(FFT_SIZE + n_samples), np.zeros(FFT_SIZE + n_samples)
    for f in range(spec.shape[0]):
        acc[f * HOP : f * HOP + FFT_SIZE] += segs[f]
        wsq[f * HOP : f * HOP + FFT_SIZE] += window * window
    pad = FFT_SIZE // 2
    return acc[pad : pad + n_samples] / np.maximum(wsq[pad : pad + n_samples], 1e-12)


def two_tone_mel() -> MelSpectrogram:
    w = make_sine(330.0, dur=0.5)
    return mel_spectrogram(Waveform(w.samples + 0.3 * make_sine(523.25, dur=0.5).samples, SR))


def spectral_convergence(x: np.ndarray, target_mag: np.ndarray) -> float:
    """||  |STFT(x)| - target ||_F, the Griffin-Lim convergence measure."""
    mag = np.abs(stft(x))[: target_mag.shape[0]]
    return float(np.linalg.norm(mag - target_mag))


def relative_convergence(x: np.ndarray, target: np.ndarray) -> float:
    return spectral_convergence(x, target) / float(np.linalg.norm(target))


def dft_peak_hz(w: Waveform) -> float:
    spectrum = np.abs(np.fft.rfft(w.samples))
    return np.fft.rfftfreq(w.samples.size, 1.0 / w.sample_rate)[spectrum.argmax()]


class TestWavIO:
    def test_pcm16_one_second(self, tmp_path, sine_440):
        path = tmp_path / "a.wav"
        save_wav(sine_440, path)
        back = load_wav(path)
        assert back.samples.size == 44100
        assert back.sample_rate == 44100

    def test_all_zero_payload(self, tmp_path):
        path = tmp_path / "z.wav"
        save_wav(Waveform(np.zeros(1000), SR), path)
        assert not load_wav(path).samples.any()

    def test_stereo_averages_to_zero(self, tmp_path):
        # channels carry +0.5 / -0.5 everywhere
        frames = 500
        inter = np.empty(2 * frames, dtype="<i2")
        inter[0::2] = int(0.5 * 32767)
        inter[1::2] = -int(0.5 * 32767)
        payload = inter.tobytes()
        header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE",
                             b"fmt ", 16, 1, 2, SR, SR * 4, 4, 16, b"data", len(payload))
        path = tmp_path / "st.wav"
        path.write_bytes(header + payload)
        assert np.all(load_wav(path).samples == 0.0)

    def test_full_scale_maps_to_32767(self, tmp_path):
        path = tmp_path / "f.wav"
        save_wav(Waveform(np.array([1.0, -1.0, 0.0]), SR), path)
        raw = np.frombuffer(path.read_bytes()[-6:], dtype="<i2")
        assert raw[0] == 32767

    def test_pcm16_roundtrip_error_bound(self, tmp_path):
        rng = np.random.default_rng(0)
        w = Waveform(rng.uniform(-1, 1, 4096), SR)
        path = tmp_path / "r.wav"
        save_wav(w, path)
        err = np.abs(load_wav(path).samples - w.samples).max()
        assert err <= 2.0**-15

    def test_float32_roundtrip_bit_exact(self, tmp_path, sine_440):
        w = Waveform(sine_440.samples.astype(np.float32).astype(np.float64), SR)
        path = tmp_path / "f32.wav"
        save_wav(w, path, fmt="float32")
        assert np.array_equal(load_wav(path).samples, w.samples)

    def test_save_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            save_wav(Waveform(np.zeros(10), SR), tmp_path)  # a directory

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"JUNKJUNKJUNKJUNK")
        with pytest.raises(WavFormatError):
            load_wav(path)

    def test_unsupported_codec(self, tmp_path):
        payload = b"\x00" * 8
        header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE",
                             b"fmt ", 16, 7, 1, SR, SR, 1, 8, b"data", len(payload))
        path = tmp_path / "ulaw.wav"
        path.write_bytes(header + payload)
        with pytest.raises(UnsupportedWavError):
            load_wav(path)

    def test_waveform_invariants(self):
        with pytest.raises(ContractError):
            Waveform(np.array([np.nan]), SR)
        with pytest.raises(ContractError):
            Waveform(np.zeros(4), 0)
        with pytest.raises(ContractError):
            Waveform(np.zeros(0), SR)


class TestResample:
    def test_doubles_length(self):
        w = make_sine(440.0, dur=1.0, sr=22050)
        out = resample(w, 44100)
        assert out.samples.size == 44100
        assert out.sample_rate == 44100

    def test_identity_at_equal_rate(self, sine_440):
        out = resample(sine_440, 44100)
        assert np.array_equal(out.samples, sine_440.samples)

    def test_sine_peak_preserved(self):
        w = make_sine(440.0, dur=1.0, sr=22050)
        out = resample(w, 44100)
        bin_hz = out.sample_rate / out.samples.size
        assert abs(dft_peak_hz(out) - 440.0) <= bin_hz

    def test_downsample_band_limits(self):
        # content above the target Nyquist must be attenuated, not aliased
        w = make_sine(15000.0, dur=0.5, sr=44100)
        out = resample(w, 22050)
        assert np.abs(out.samples[100:-100]).max() < 0.05

    def test_bad_rate(self, sine_440):
        with pytest.raises(ContractError):
            resample(sine_440, 0)

    @pytest.mark.parametrize("source, target", [(48000, 44100), (16000, 44100), (44100, 16000),
                                                (44101, 44100), (8000, 44100)])
    def test_matches_per_sample_formula(self, source, target):
        rng = np.random.default_rng(source + target)
        w = Waveform(rng.uniform(-1.0, 1.0, int(0.3 * source)), source)
        out = resample(w, target)
        ref = resample_per_sample(w, target)
        assert out.sample_rate == target and out.samples.size == ref.size
        assert np.max(np.abs(out.samples - ref)) <= 1e-9


class TestMel:
    def test_silence_hits_log_floor(self):
        m = mel_spectrogram(Waveform(np.zeros(SR), SR))
        assert np.allclose(m.values, np.log(LOG_FLOOR))

    def test_frame_rate_100(self, sine_440):
        m = mel_spectrogram(sine_440)
        assert FRAME_RATE == SR / HOP == 100.0
        assert m.bands == N_MELS == 80

    def test_tone_band_matches_filterbank_center(self, sine_440):
        m = mel_spectrogram(sine_440)
        fb = mel_filterbank()
        freqs = np.fft.rfftfreq(FFT_SIZE, 1.0 / SR)
        centers = np.array([freqs[fb[b].argmax()] for b in range(80)])
        expected = int(np.abs(centers - 440.0).argmin())
        assert m.values.sum(axis=0).argmax() == expected

    def test_tone_energy_concentration(self, sine_440):
        m = mel_spectrogram(sine_440)
        linear = np.exp(m.values[5:-5])
        band = linear.sum(axis=0).argmax()
        lo, hi = max(band - 2, 0), min(band + 3, 80)
        assert linear[:, lo:hi].sum() >= 0.6 * linear.sum()

    @given(st.integers(min_value=1, max_value=40000))
    @settings(max_examples=30, deadline=None)
    def test_frame_count_law(self, n):
        w = Waveform(np.zeros(max(n, 1)), SR)
        m = mel_spectrogram(w)
        assert m.frames == n // HOP + 1

    def test_short_waveform_single_frame(self):
        m = mel_spectrogram(Waveform(np.zeros(100), SR))
        assert m.frames == 1

    def test_wrong_rate_rejected(self):
        with pytest.raises(ContractError):
            mel_spectrogram(Waveform(np.zeros(1000), 22050))


class TestStft:
    def test_istft_inverts_stft(self):
        x = np.random.default_rng(3).normal(0, 0.2, 22050)
        rec = istft(stft(x), x.size)
        assert np.abs(rec - x).max() < 1e-10

    def test_float32_stays_float32(self):
        x = np.random.default_rng(3).normal(0, 0.2, 22050).astype(np.float32)
        spec = stft(x)
        assert spec.dtype == np.complex64
        rec = istft(spec, x.size)
        assert rec.dtype == np.float32
        assert np.abs(rec - x).max() <= 1e-5

    @pytest.mark.parametrize("dtype", [np.float64, np.float16, np.int16])
    def test_other_input_is_float64_bit_for_bit(self, dtype):
        """Anything but float32 is computed in float64, with the bits of a
        plain `np.fft` reference."""
        x = (np.random.default_rng(4).normal(0, 0.2, 9000) * 1000).astype(dtype)
        spec = stft(x)
        assert spec.dtype == np.complex128
        assert np.array_equal(spec, stft_by_numpy(x))
        rec = istft(spec, x.size)
        assert rec.dtype == np.float64
        assert np.array_equal(rec, istft_by_numpy(spec, x.size))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_frames", [1, 2, 601])
    def test_overlap_add_sums_as_a_per_frame_loop(self, dtype, n_frames):
        """The block-wise overlap-add gives the bits of adding the frames one
        by one, in the frames' dtype."""
        segs = np.random.default_rng(n_frames).normal(size=(n_frames, FFT_SIZE)).astype(dtype)
        total = FFT_SIZE + n_frames * HOP
        expected = np.zeros(total, dtype)
        for f in range(n_frames):
            expected[f * HOP : f * HOP + FFT_SIZE] += segs[f]
        out = _overlap_add(segs, HOP, total)
        assert out.dtype == dtype
        assert np.array_equal(out, expected)


class TestGriffinLim:
    def test_tone_peak_recovered(self, sine_440):
        m = mel_spectrogram(sine_440)
        out = griffin_lim(m, iters=32)
        bin_hz = out.sample_rate / out.samples.size
        assert abs(dft_peak_hz(out) - 440.0) <= bin_hz

    def test_output_length(self, sine_440):
        m = mel_spectrogram(sine_440)
        out = griffin_lim(m, iters=2)
        assert out.samples.size == m.frames * HOP

    def test_silence_rms(self):
        m = mel_spectrogram(Waveform(np.zeros(SR), SR))
        out = griffin_lim(m, iters=4)
        assert np.sqrt(np.mean(out.samples**2)) < 1e-3

    def test_convergence_non_increasing(self):
        m = two_tone_mel()
        target = mel_to_linear(m)
        errors = [spectral_convergence(griffin_lim(m, iters=k).samples, target)
                  for k in (1, 2, 4, 8, 16)]
        assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))

    def test_matches_angle_reference(self):
        """The loop given a float64 target runs in float64, as the reference does."""
        m = two_tone_mel()
        out = _griffin_lim(mel_to_linear(m), 8)
        assert out.dtype == np.float64
        assert np.max(np.abs(out - griffin_lim_by_angle(m, 8))) <= 1e-9

    @pytest.fixture(scope="class")
    def harmony_mel(self, tiny_corpus):
        clip = next(c for c in load_clips(tiny_corpus, "train") if c.condition == "harmony")
        return mel_spectrogram(clip.wave)

    @pytest.mark.parametrize("iters", [8, 48])
    @pytest.mark.parametrize("clip", ["two_tone", "harmony"])
    def test_float32_loop_converges_as_the_float64_loop(self, clip, iters, request):
        m = two_tone_mel() if clip == "two_tone" else request.getfixturevalue("harmony_mel")
        target = mel_to_linear(m)
        assert _griffin_lim(target.astype(np.float32), 2).dtype == np.float32
        fast = relative_convergence(griffin_lim(m, iters=iters).samples, target)
        wide = relative_convergence(_griffin_lim(target, iters), target)
        assert abs(fast - wide) <= 1e-3

    def test_mel_of_other_band_count_rejected(self):
        with pytest.raises(ContractError):
            mel_to_linear(MelSpectrogram(np.zeros((10, N_MELS // 2))))

    @pytest.mark.parametrize("level", [np.log(LOG_FLOOR), -1000.0])
    def test_floor_mel_gives_finite_waveform(self, level):
        """At -1000 the target magnitude is exactly 0, so |STFT| is 0
        everywhere and the phase comes from the |S| = 0 branch."""
        m = MelSpectrogram(np.full((40, 80), level))
        out = griffin_lim(m, iters=4)
        assert np.all(np.isfinite(out.samples))
        assert np.sqrt(np.mean(out.samples**2)) < 1e-3

    def test_iters_contract(self, sine_440):
        with pytest.raises(ContractError):
            griffin_lim(mel_spectrogram(sine_440), iters=0)
