"""Audio I/O and spectral analysis: WAV read/write, sinc resampling, STFT/mel,
and Griffin-Lim phase reconstruction.

Everything here is a pure function of its inputs; the mel configuration used
by the rest of the pipeline is `MEL_CONFIG` / `N_MELS` (44.1 kHz, hop 441, so
all frame sequences run at 100 Hz).
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError, UnsupportedWavError, WavFormatError

PIPELINE_SAMPLE_RATE = 44100


@dataclass
class Waveform:
    """Mono audio buffer, samples nominally in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size < 1:
            raise ContractError("waveform must be a non-empty 1-D array")
        if self.sample_rate <= 0:
            raise ContractError(f"sample_rate must be positive, got {self.sample_rate}")
        if not np.all(np.isfinite(self.samples)):
            raise ContractError("waveform contains non-finite samples")

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass(frozen=True)
class StftConfig:
    fft_size: int = 2048
    hop: int = 441

    def __post_init__(self):
        if not (0 < self.hop <= self.fft_size):
            raise ContractError(f"need 0 < hop <= fft_size, got hop={self.hop} fft={self.fft_size}")
        if self.fft_size & (self.fft_size - 1):
            raise ContractError(f"fft_size must be a power of two, got {self.fft_size}")


@dataclass
class MelSpectrogram:
    """Log-amplitude mel spectrogram, frames x bands."""

    values: np.ndarray
    frame_rate: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ContractError("mel values must be 2-D (frames x bands)")
        if not np.all(np.isfinite(self.values)):
            raise ContractError("mel values contain non-finite entries")

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def bands(self) -> int:
        return self.values.shape[1]


MEL_CONFIG = StftConfig(fft_size=2048, hop=441)
N_MELS = 80
MEL_FMIN = 40.0
MEL_FMAX = 16000.0
LOG_FLOOR = 1e-5


# ---------------------------------------------------------------------------
# WAV I/O (RIFF/WAVE, PCM16 and IEEE float32)
# ---------------------------------------------------------------------------

_WAVE_PCM = 1
_WAVE_FLOAT = 3


def load_wav(path) -> Waveform:
    """Read a RIFF/WAVE file (PCM16 or float32, mono or stereo).

    Stereo is downmixed by averaging the channels. PCM16 samples are scaled
    by 1/32767 so full-scale positive code maps to exactly 1.0.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise WavFormatError(f"{path}: truncated {cid!r} chunk")
        if cid == b"fmt ":
            if size < 16:
                raise WavFormatError(f"{path}: fmt chunk too short ({size} bytes)")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data":
            payload = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None or payload is None:
        raise WavFormatError(f"{path}: missing fmt or data chunk")
    tag, channels, rate, _byte_rate, _block_align, bits = fmt
    if channels not in (1, 2):
        raise UnsupportedWavError(f"{path}: {channels} channels unsupported (mono/stereo only)")
    if tag == _WAVE_PCM and bits == 16:
        raw = np.frombuffer(payload[: len(payload) // 2 * 2], dtype="<i2")
        samples = raw.astype(np.float64) / 32767.0
    elif tag == _WAVE_FLOAT and bits == 32:
        raw = np.frombuffer(payload[: len(payload) // 4 * 4], dtype="<f4")
        samples = raw.astype(np.float64)
    else:
        raise UnsupportedWavError(f"{path}: format tag {tag} / {bits}-bit unsupported")

    if channels == 2:
        samples = samples[: samples.size // 2 * 2].reshape(-1, 2).mean(axis=1)
    if samples.size == 0:
        raise WavFormatError(f"{path}: empty data chunk")
    return Waveform(samples, int(rate))


def load_pipeline_wav(path) -> Waveform:
    """`load_wav`, then one resampling to `PIPELINE_SAMPLE_RATE` when the
    file is at another rate: how every pipeline stage reads a clip."""
    w = load_wav(path)
    return w if w.sample_rate == PIPELINE_SAMPLE_RATE else resample(w, PIPELINE_SAMPLE_RATE)


def save_wav(w: Waveform, path, fmt: str = "pcm16") -> None:
    """Write a mono WAV file; `fmt` is "pcm16" or "float32"."""
    if fmt == "pcm16":
        clipped = np.clip(w.samples, -1.0, 1.0)
        payload = np.round(clipped * 32767.0).astype("<i2").tobytes()
        tag, bits = _WAVE_PCM, 16
    elif fmt == "float32":
        payload = w.samples.astype("<f4").tobytes()
        tag, bits = _WAVE_FLOAT, 32
    else:
        raise ContractError(f"unknown wav format {fmt!r}")
    block = bits // 8
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        tag,
        1,
        w.sample_rate,
        w.sample_rate * block,
        block,
        bits,
        b"data",
        len(payload),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------

_SINC_HALF_TAPS = 32  # 64-tap windowed-sinc kernel
_RESAMPLE_CHUNK = 16384  # outputs per gather, so the (chunk x 64) copies stay small


def resample(w: Waveform, target_rate: int) -> Waveform:
    """Band-limited resampling with a 64-tap Hann-windowed sinc kernel.

    The rate ratio is reduced to up/down, so output m lies exactly at input
    position m*down/up and its taps depend only on m % up: one tap row per
    output phase serves every output. Output length is round(len *
    target/source); equal rates return a copy.
    """
    if target_rate <= 0:
        raise ContractError(f"target_rate must be positive, got {target_rate}")
    if target_rate == w.sample_rate:
        return Waveform(w.samples.copy(), w.sample_rate)

    ratio = target_rate / w.sample_rate
    n_in = w.samples.size
    n_out = int(round(n_in * ratio))
    if n_out < 1:
        raise ContractError("resample target would be empty")
    cutoff = min(1.0, ratio)
    g = math.gcd(int(target_rate), int(w.sample_rate))
    up, down = int(target_rate) // g, int(w.sample_rate) // g

    half = _SINC_HALF_TAPS
    # row p: taps of the outputs m with m % up == p, which sit a fraction
    # (p*down % up)/up past input sample floor(m*down/up)
    frac = (np.arange(min(up, n_out)) * down % up) / up
    u = np.arange(-half + 1, half + 1)[None, :] - frac[:, None]  # signed distance to each tap
    taps = cutoff * np.sinc(cutoff * u) * (0.5 + 0.5 * np.cos(np.pi * u / half))

    x = np.concatenate([np.zeros(half), w.samples, np.zeros(half + 1)])
    # window k spans padded samples k .. k+63; output m's taps start one
    # sample after floor(m*down/up), which sits at padded index floor + half
    windows = sliding_window_view(x, 2 * half)
    out = np.empty(n_out)
    for start in range(0, n_out, _RESAMPLE_CHUNK):
        stop = min(start + _RESAMPLE_CHUNK, n_out)
        m = np.arange(start, stop)
        out[start:stop] = np.einsum("ij,ij->i", windows[m * down // up + 1], taps[m % up])
    return Waveform(out, int(target_rate))


# ---------------------------------------------------------------------------
# STFT / mel
# ---------------------------------------------------------------------------


def frame_count(n_samples: int, hop: int) -> int:
    return n_samples // hop + 1


def stft(x: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """Center-padded STFT with a Hann window; returns (frames, fft//2+1) complex.
    The frames' FFTs run on every core through `scipy.fft`, which gives the
    same bits as `numpy.fft` on the pipeline's 2048-point frames."""
    fft, hop = cfg.fft_size, cfg.hop
    pad = fft // 2
    xp = np.concatenate([np.zeros(pad), np.asarray(x, dtype=np.float64), np.zeros(pad)])
    n_frames = frame_count(len(x), hop)
    window = np.hanning(fft)
    frames = np.empty((n_frames, fft))
    for f in range(n_frames):
        frames[f] = xp[f * hop : f * hop + fft]
    frames *= window
    return scipy.fft.rfft(frames, axis=1, workers=-1)


def _overlap_add(segs: np.ndarray, hop: int, total: int) -> np.ndarray:
    """Sum of the rows of `segs` placed `hop` samples apart in `total` samples."""
    acc = np.zeros(total)
    for f in range(segs.shape[0]):
        acc[f * hop : f * hop + segs.shape[1]] += segs[f]
    return acc


def _istft_norm(cfg: StftConfig, n_frames: int, n_samples: int) -> np.ndarray:
    """The overlap-added squared window over the output samples, floored
    at 1e-12: what `istft` divides by."""
    window = np.hanning(cfg.fft_size)
    wsq = window * window
    total = cfg.fft_size + n_samples
    norm = _overlap_add(np.broadcast_to(wsq, (n_frames, wsq.size)), cfg.hop, total)
    pad = cfg.fft_size // 2
    return np.maximum(norm[pad : pad + n_samples], 1e-12)


def istft(spec: np.ndarray, cfg: StftConfig, n_samples: int,
          norm: np.ndarray | None = None) -> np.ndarray:
    """Weighted overlap-add inverse of `stft`; exact for unmodified spectra.
    A caller that inverts many spectra of one shape passes their common
    `norm`, `_istft_norm(cfg, frames, n_samples)`, once computed."""
    fft = cfg.fft_size
    if norm is None:
        norm = _istft_norm(cfg, spec.shape[0], n_samples)
    segs = scipy.fft.irfft(spec, n=fft, axis=1, workers=-1)
    segs *= np.hanning(fft)
    pad = fft // 2
    return _overlap_add(segs, cfg.hop, fft + n_samples)[pad : pad + n_samples] / norm


def mel_filterbank(sample_rate: int, fft_size: int, n_mels: int) -> np.ndarray:
    """Triangular HTK-mel filterbank from `MEL_FMIN` to `MEL_FMAX`,
    (n_mels, fft//2+1), peak weight 1."""

    def hz_to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)

    def mel_to_hz(m):
        return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)

    edges = mel_to_hz(np.linspace(hz_to_mel(MEL_FMIN), hz_to_mel(MEL_FMAX), n_mels + 2))
    freqs = np.fft.rfftfreq(fft_size, d=1.0 / sample_rate)
    fb = np.zeros((n_mels, freqs.size))
    for b in range(n_mels):
        lo, center, hi = edges[b], edges[b + 1], edges[b + 2]
        rising = (freqs - lo) / max(center - lo, 1e-9)
        falling = (hi - freqs) / max(hi - center, 1e-9)
        fb[b] = np.clip(np.minimum(rising, falling), 0.0, None)
    return fb


@functools.lru_cache(maxsize=8)
def _mel_basis(sample_rate: int, fft_size: int, n_mels: int) -> np.ndarray:
    fb = mel_filterbank(sample_rate, fft_size, n_mels)
    fb.setflags(write=False)
    return fb


@functools.lru_cache(maxsize=8)
def _mel_basis_pinv(sample_rate: int, fft_size: int, n_mels: int) -> np.ndarray:
    pinv = np.linalg.pinv(_mel_basis(sample_rate, fft_size, n_mels))
    pinv.setflags(write=False)
    return pinv


def mel_spectrogram(w: Waveform) -> MelSpectrogram:
    """Magnitude STFT (`MEL_CONFIG`) -> `N_MELS`-band mel filterbank ->
    natural log with floor `LOG_FLOOR`."""
    if w.sample_rate != PIPELINE_SAMPLE_RATE:
        raise ContractError(f"mel pipeline expects {PIPELINE_SAMPLE_RATE} Hz, got {w.sample_rate}")
    mag = np.abs(stft(w.samples, MEL_CONFIG))
    mel = mag @ _mel_basis(w.sample_rate, MEL_CONFIG.fft_size, N_MELS).T
    values = np.log(np.maximum(mel, LOG_FLOOR))
    return MelSpectrogram(values, frame_rate=w.sample_rate / MEL_CONFIG.hop)


# ---------------------------------------------------------------------------
# Griffin-Lim
# ---------------------------------------------------------------------------


def mel_to_linear(m: MelSpectrogram) -> np.ndarray:
    """Pseudo-inverse of the mel filterbank, clipped to non-negative magnitudes."""
    linear = np.exp(m.values) @ _mel_basis_pinv(PIPELINE_SAMPLE_RATE, MEL_CONFIG.fft_size,
                                                m.bands).T
    return np.clip(linear, 0.0, None)


def griffin_lim(m: MelSpectrogram, iters: int = 32) -> Waveform:
    """Iterative phase reconstruction from a log-mel spectrogram at the
    pipeline rate and `MEL_CONFIG`.

    Deterministic (zero-phase init). Output length is frames * hop; the
    distance between |STFT(x_i)| and the target magnitude is non-increasing
    in the iteration count.
    """
    if iters < 1:
        raise ContractError("iters must be >= 1")
    cfg = MEL_CONFIG
    target = mel_to_linear(m)
    n_samples = m.frames * cfg.hop
    norm = _istft_norm(cfg, m.frames, n_samples)  # the same for every iteration
    x = istft(target.astype(np.complex128), cfg, n_samples, norm)
    for _ in range(iters - 1):
        spec = stft(x, cfg)[: m.frames]
        mag = np.abs(spec)
        # S * target/|S| keeps the phase of S at the target magnitude; where
        # |S| = 0 the phase is taken as 0, whatever the sign of the zero
        silent = mag == 0
        spec *= np.divide(target, mag, out=np.zeros_like(mag), where=~silent)
        np.copyto(spec, target, where=silent)
        x = istft(spec, cfg, n_samples, norm)
    return Waveform(x, PIPELINE_SAMPLE_RATE)


def spectral_convergence(x: np.ndarray, target_mag: np.ndarray) -> float:
    """||  |STFT(x)| - target ||_F, the Griffin-Lim convergence measure."""
    mag = np.abs(stft(x, MEL_CONFIG))[: target_mag.shape[0]]
    return float(np.linalg.norm(mag - target_mag))
