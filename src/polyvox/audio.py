"""Audio I/O and spectral analysis: WAV read/write, sinc resampling, STFT/mel,
and Griffin-Lim phase reconstruction.

Everything here is a pure function of its inputs. The constants below are
the pipeline's one frame geometry, read from here by every other module:
44.1 kHz audio, a 2048-point Hann STFT every 441 samples (100 frames/s for
mel, CQT, piano roll and YIN alike) and 80 mel bands from 40 Hz to 16 kHz.

A WAV file at 8-192 kHz (`WAV_RATE_RANGE`) is read by one reader, always at
44.1 kHz, with one decode rule. `read_wav` checks the file and returns its
code array: the samples as stored (int16 or float32), (n,) for mono and
(n, 2) for stereo, so the channel count is the array's shape; or, for a file
at another rate, one resampling into float64 mono. `decode_wav` turns a code
array into a float64 `Waveform`, and `load_wav` is the two in a row. Every
file written here is mono PCM16 (`save_wav`); float32 files are read, not
written.

`stft`, `istft` and their overlap-add follow the one dtype rule of
`tensor.as_data`: float32 input stays float32 (complex64 spectra), anything
else is computed in float64. The mel and the CQT pass float64; Griffin-Lim
rounds its target to float32 and iterates in float32.
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
from .tensor import as_data

PIPELINE_SAMPLE_RATE = 44100
FFT_SIZE = 2048
HOP = 441
FRAME_RATE = PIPELINE_SAMPLE_RATE / HOP  # 100.0
N_MELS = 80
MEL_FMIN = 40.0
MEL_FMAX = 16000.0
LOG_FLOOR = 1e-5
WAV_RATE_RANGE = (8000, 192000)


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


@dataclass
class MelSpectrogram:
    """Log-amplitude mel spectrogram, frames x `N_MELS` bands, at `FRAME_RATE`;
    building one checks that shape and that every value is finite."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] != N_MELS:
            raise ContractError(f"mel values must be frames x {N_MELS}, got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ContractError("mel values contain non-finite entries")

    @property
    def frames(self) -> int:
        return self.values.shape[0]


# ---------------------------------------------------------------------------
# WAV I/O (RIFF/WAVE: PCM16 and IEEE float32 read, PCM16 written)
# ---------------------------------------------------------------------------

_WAVE_PCM = 1
_WAVE_FLOAT = 3


def read_wav(path) -> np.ndarray:
    """Read a RIFF/WAVE file (PCM16 or float32, mono or stereo) into its
    code array at `PIPELINE_SAMPLE_RATE`: a read-only view of the file's
    int16 or float32 samples, (n,) for mono and (n, 2) for stereo, or, for a
    file at another rate, the (n,) float64 samples of one resampling of the
    decoded file. Every check of the file happens first: a malformed
    container, an empty data chunk or a rate of 0 raises `WavFormatError`,
    another codec, channel count or a rate outside `WAV_RATE_RANGE`
    `UnsupportedWavError`, and a non-finite float sample `ContractError`. A
    trailing partial frame is dropped."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None  # (offset, size) of the data chunk's body
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        if pos + 8 + size > len(data):
            raise WavFormatError(f"{path}: truncated {cid!r} chunk")
        if cid == b"fmt ":
            if size < 16:
                raise WavFormatError(f"{path}: fmt chunk too short ({size} bytes)")
            fmt = struct.unpack_from("<HHIIHH", data, pos + 8)
        elif cid == b"data":
            payload = (pos + 8, size)
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None or payload is None:
        raise WavFormatError(f"{path}: missing fmt or data chunk")
    tag, channels, rate, _byte_rate, _block_align, bits = fmt
    if channels not in (1, 2):
        raise UnsupportedWavError(f"{path}: {channels} channels unsupported (mono/stereo only)")
    if tag == _WAVE_PCM and bits == 16:
        dtype = np.dtype("<i2")
    elif tag == _WAVE_FLOAT and bits == 32:
        dtype = np.dtype("<f4")
    else:
        raise UnsupportedWavError(f"{path}: format tag {tag} / {bits}-bit unsupported")
    if rate == 0:
        raise WavFormatError(f"{path}: sample rate 0 Hz")
    if not WAV_RATE_RANGE[0] <= rate <= WAV_RATE_RANGE[1]:
        raise UnsupportedWavError(f"{path}: sample rate {rate} Hz outside "
                                  f"{WAV_RATE_RANGE[0]}-{WAV_RATE_RANGE[1]} Hz")

    offset, size = payload
    frames = size // dtype.itemsize // channels
    if frames == 0:
        raise WavFormatError(f"{path}: empty data chunk")
    # a read-only view of the file's bytes: the codes are not copied
    codes = np.frombuffer(data, dtype, count=frames * channels, offset=offset)
    if dtype.kind == "f" and not np.all(np.isfinite(codes)):
        raise ContractError(f"{path}: waveform contains non-finite samples")
    codes = codes.reshape(frames, channels) if channels == 2 else codes
    if rate == PIPELINE_SAMPLE_RATE:
        return codes
    # decoded by the one rule, at the file's own rate
    return resample(Waveform(decode_wav(codes).samples, rate), PIPELINE_SAMPLE_RATE).samples


def decode_wav(codes: np.ndarray) -> Waveform:
    """The one decode rule, for a code array of `read_wav`: PCM16 codes are
    scaled by 1/32767, so the full-scale positive code maps to exactly 1.0,
    any other codes are taken as float64, and the two columns of stereo
    codes are averaged. The `Waveform` is at `PIPELINE_SAMPLE_RATE`, the
    rate of every array `read_wav` returns."""
    samples = codes.astype(np.float64)
    if codes.dtype.kind == "i":
        samples /= 32767.0
    if codes.ndim == 2:
        samples = samples.mean(axis=1)
    return Waveform(samples, PIPELINE_SAMPLE_RATE)


def load_wav(path) -> Waveform:
    """`decode_wav(read_wav(path))`: a WAV file as the pipeline reads it, a
    float64 mono `Waveform` at `PIPELINE_SAMPLE_RATE`."""
    return decode_wav(read_wav(path))


def save_wav(w: Waveform, path) -> None:
    """Write a mono PCM16 WAV file, clipping the samples to [-1, 1]."""
    scaled = np.clip(w.samples, -1.0, 1.0)
    scaled *= 32767.0  # in place: np.clip already made the one copy this needs
    payload = np.round(scaled, out=scaled).astype("<i2").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        _WAVE_PCM,
        1,
        w.sample_rate,
        w.sample_rate * 2,
        2,
        16,
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


@functools.cache
def _window(dtype) -> np.ndarray:
    """The Hann analysis/synthesis window in `dtype`, read-only."""
    window = np.hanning(FFT_SIZE).astype(dtype)
    window.setflags(write=False)
    return window


def stft(x: np.ndarray) -> np.ndarray:
    """Center-padded Hann STFT, frame f centred on sample f * HOP: returns
    (len(x) // HOP + 1, FFT_SIZE//2+1) complex. The frames' FFTs run on the
    calling thread through `scipy.fft`, which gives the same bits as
    `numpy.fft` here.

    The dtype follows `tensor.as_data`'s rule: float32 samples give float32
    frames and window and a complex64 spectrum; any other input is computed
    in float64 and gives complex128."""
    x = as_data(x)
    pad = FFT_SIZE // 2
    xp = np.concatenate([np.zeros(pad, x.dtype), x, np.zeros(pad, x.dtype)])
    # len(x) + 1 windows start in xp, and every HOP-th is one of the
    # len(x) // HOP + 1 frames
    frames = sliding_window_view(xp, FFT_SIZE)[::HOP] * _window(x.dtype)
    return scipy.fft.rfft(frames, axis=1)


def _overlap_add(segs: np.ndarray, hop: int, total: int) -> np.ndarray:
    """Sum of the rows of `segs` placed `hop` samples apart in `total`
    samples, accumulated in the rows' dtype (float32 or float64).

    The output is viewed as hop-sample rows, so block j (samples j*hop on)
    of every segment lands on output row f + j at once. The blocks are
    added from the last to the first: each sample then sums its segments
    in ascending order, as a per-segment loop would, to the same bits."""
    n_segs, width = segs.shape
    acc = np.zeros((-(-total // hop), hop), segs.dtype)
    for j in reversed(range(-(-width // hop))):
        block = segs[:, j * hop : (j + 1) * hop]
        acc[j : j + n_segs, : block.shape[1]] += block
    return acc.reshape(-1)[:total]


def _istft_norm(n_frames: int, n_samples: int) -> np.ndarray:
    """The overlap-added squared window over the output samples, floored
    at 1e-12: what `istft` divides by. Always float64."""
    window = _window(np.float64)
    wsq = window * window
    norm = _overlap_add(np.broadcast_to(wsq, (n_frames, wsq.size)), HOP, FFT_SIZE + n_samples)
    pad = FFT_SIZE // 2
    return np.maximum(norm[pad : pad + n_samples], 1e-12)


def istft(spec: np.ndarray, n_samples: int, norm: np.ndarray | None = None) -> np.ndarray:
    """Weighted overlap-add inverse of `stft`; exact for unmodified spectra.
    A caller that inverts many spectra of one shape passes their common
    `norm`, `_istft_norm(frames, n_samples)`, once computed.

    The dtype rule is `stft`'s: a complex64 (or float32) spectrum is
    inverted, windowed, overlap-added and normalised in float32, with
    `norm` rounded to float32; any other spectrum is computed in float64."""
    spec = np.asarray(spec)
    dtype = np.float32 if spec.dtype in (np.complex64, np.float32) else np.float64
    if norm is None:
        norm = _istft_norm(spec.shape[0], n_samples)
    segs = scipy.fft.irfft(spec.astype(np.result_type(dtype, np.complex64), copy=False),
                           n=FFT_SIZE, axis=1)
    segs *= _window(dtype)
    pad = FFT_SIZE // 2
    ola = _overlap_add(segs, HOP, FFT_SIZE + n_samples)[pad : pad + n_samples]
    return ola / norm.astype(dtype, copy=False)


@functools.cache
def mel_filterbank() -> np.ndarray:
    """Triangular HTK-mel filterbank from `MEL_FMIN` to `MEL_FMAX`,
    (N_MELS, FFT_SIZE//2+1), peak weight 1; built once, cached and
    read-only."""

    def hz_to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)

    def mel_to_hz(m):
        return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)

    edges = mel_to_hz(np.linspace(hz_to_mel(MEL_FMIN), hz_to_mel(MEL_FMAX), N_MELS + 2))
    freqs = np.fft.rfftfreq(FFT_SIZE, d=1.0 / PIPELINE_SAMPLE_RATE)
    fb = np.zeros((N_MELS, freqs.size))
    for b in range(N_MELS):
        lo, center, hi = edges[b], edges[b + 1], edges[b + 2]
        rising = (freqs - lo) / max(center - lo, 1e-9)
        falling = (hi - freqs) / max(hi - center, 1e-9)
        fb[b] = np.clip(np.minimum(rising, falling), 0.0, None)
    fb.setflags(write=False)
    return fb


@functools.cache
def _mel_basis_pinv() -> np.ndarray:
    pinv = np.linalg.pinv(mel_filterbank())
    pinv.setflags(write=False)
    return pinv


def mel_spectrogram(w: Waveform) -> MelSpectrogram:
    """Magnitude `stft` -> `N_MELS`-band mel filterbank -> natural log with
    floor `LOG_FLOOR`."""
    if w.sample_rate != PIPELINE_SAMPLE_RATE:
        raise ContractError(f"mel pipeline expects {PIPELINE_SAMPLE_RATE} Hz, got {w.sample_rate}")
    mel = np.abs(stft(w.samples)) @ mel_filterbank().T
    return MelSpectrogram(np.log(np.maximum(mel, LOG_FLOOR)))


# ---------------------------------------------------------------------------
# Griffin-Lim
# ---------------------------------------------------------------------------


def mel_to_linear(m: MelSpectrogram) -> np.ndarray:
    """Pseudo-inverse of the mel filterbank, clipped to non-negative magnitudes."""
    return np.clip(np.exp(m.values) @ _mel_basis_pinv().T, 0.0, None)


def griffin_lim(m: MelSpectrogram, iters: int = 32) -> Waveform:
    """Iterative phase reconstruction of a `PIPELINE_SAMPLE_RATE` waveform
    from a log-mel spectrogram (Griffin & Lim, IEEE TASSP 1984).

    Deterministic (zero-phase init). Output length is frames * `HOP`. The
    target magnitude `mel_to_linear(m)` is rounded to float32 once and every
    iteration runs in float32 (`_griffin_lim`). In exact arithmetic the
    distance between |STFT(x_i)| and the target is non-increasing in the
    iteration count; the float32 loop keeps that promise up to its rounding.
    Its relative spectral convergence, that distance over |target|, came
    within 4.6e-5 of the float64 loop's at 8 and 48 iterations on a
    two-tone clip and on 8 synthetic corpus clips.
    """
    if iters < 1:
        raise ContractError("iters must be >= 1")
    target = mel_to_linear(m).astype(np.float32)
    return Waveform(_griffin_lim(target, iters), PIPELINE_SAMPLE_RATE)


def _griffin_lim(target: np.ndarray, iters: int) -> np.ndarray:
    """`iters` Griffin-Lim iterations towards the (frames, bins) magnitude
    `target`, in `target`'s dtype by `stft`/`istft`'s rule: float32 for a
    float32 target, float64 for a float64 one. Returns frames * `HOP`
    samples in that dtype."""
    frames = target.shape[0]
    n_samples = frames * HOP
    norm = _istft_norm(frames, n_samples).astype(target.dtype)  # the same for every iteration
    x = istft(target.astype(np.result_type(target.dtype, np.complex64)), n_samples, norm)
    for _ in range(iters - 1):
        spec = stft(x)[:frames]
        mag = np.abs(spec)
        # S * target/|S| keeps the phase of S at the target magnitude; where
        # |S| = 0 the ratio is inf or nan, and the phase is taken as 0,
        # whatever the sign of the zero, by writing the target there after
        silent = np.flatnonzero(mag == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(target, mag, out=mag)
            spec *= mag
        spec.flat[silent] = target.flat[silent]
        x = istft(spec, n_samples, norm)
    return x
