"""Constant-Q transform with semitone-spaced bins, vocal-range cropping, and
pitch transposition by shifting the frequency axis.

Bins are anchored at C1 (32.7032 Hz) so bin k is MIDI pitch `midi.ROLL_LOW`+k,
which makes piano-roll and CQT indices interchangeable after the vocal-range
crop; the default config frames on `audio`'s clock (`HOP`). Kernels are
Hann-windowed complex sinusoids of length ceil(Q*sr/f_k) with
Q = 1/(2^(1/bpo)-1), L1-normalized so a unit-amplitude tone at a bin center
reads close to 0.5 at that bin.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .audio import HOP, PIPELINE_SAMPLE_RATE, Waveform
from .errors import ContractError

F_MIN_C1 = 32.7032


@dataclass(frozen=True)
class CqtConfig:
    sample_rate: int = PIPELINE_SAMPLE_RATE
    hop: int = HOP
    bins_per_octave: int = 12
    n_bins: int = 84
    f_min: float = F_MIN_C1

    def __post_init__(self):
        """Every bin's band must lie below Nyquist: the top bin's upper band
        edge, half a bin above its centre (f_top * 2^(1/(2*bins_per_octave))),
        is checked, not only the centre."""
        if self.hop <= 0:
            raise ContractError("hop must be positive")
        if self.bins_per_octave < 1 or self.n_bins < 1:
            raise ContractError(f"need bins_per_octave >= 1 and n_bins >= 1, got "
                                f"{self.bins_per_octave} and {self.n_bins}")
        f_top = self.f_min * 2.0 ** ((self.n_bins - 1) / self.bins_per_octave)
        edge = f_top * 2.0 ** (1.0 / (2 * self.bins_per_octave))
        if edge >= self.sample_rate / 2:
            raise ContractError(
                f"highest bin's band edge {edge:.1f} Hz exceeds Nyquist "
                f"{self.sample_rate / 2:.1f} Hz"
            )

    @property
    def q_factor(self) -> float:
        return 1.0 / (2.0 ** (1.0 / self.bins_per_octave) - 1.0)


@dataclass
class CqtMatrix:
    """Frames x bins magnitude matrix. `bin_offset` is the absolute index of
    column 0 in the config's bin numbering (nonzero after cropping)."""

    magnitudes: np.ndarray
    config: CqtConfig
    bin_offset: int = 0

    def __post_init__(self):
        self.magnitudes = np.asarray(self.magnitudes, dtype=np.float64)
        if self.magnitudes.ndim != 2:
            raise ContractError("magnitudes must be 2-D (frames x bins)")
        if self.bin_offset + self.bins > self.config.n_bins:
            raise ContractError("bins exceed config.n_bins")

    @property
    def frames(self) -> int:
        return self.magnitudes.shape[0]

    @property
    def bins(self) -> int:
        return self.magnitudes.shape[1]

    def bin_frequency(self, k: int) -> float:
        return bin_center_frequency(self.bin_offset + k, self.config)


def bin_center_frequency(k: int, cfg: CqtConfig = CqtConfig()) -> float:
    """Center frequency f_min * 2^(k / bins_per_octave) of bin k."""
    if not 0 <= k < cfg.n_bins:
        raise IndexError(f"bin {k} out of range [0, {cfg.n_bins})")
    return cfg.f_min * 2.0 ** (k / cfg.bins_per_octave)


def kernel_length(k: int, cfg: CqtConfig) -> int:
    return math.ceil(cfg.q_factor * cfg.sample_rate / bin_center_frequency(k, cfg))


@functools.lru_cache(maxsize=4)
def _kernel_bank(cfg: CqtConfig):
    """Stacked zero-padded kernels: (max_len, 2*n_bins) with interleaved
    real/imag columns, each kernel centered in the max-length window."""
    n_max = kernel_length(0, cfg)
    bank = np.zeros((n_max, 2 * cfg.n_bins))
    for k in range(cfg.n_bins):
        f = bin_center_frequency(k, cfg)
        n = kernel_length(k, cfg)
        window = np.hanning(n)
        window /= window.sum()
        t = np.arange(n)
        phase = -2.0 * np.pi * f * t / cfg.sample_rate
        off = n_max // 2 - n // 2
        bank[off : off + n, 2 * k] = window * np.cos(phase)
        bank[off : off + n, 2 * k + 1] = window * np.sin(phase)
    return n_max, bank


def compute_cqt(w: Waveform, cfg: CqtConfig = CqtConfig()) -> CqtMatrix:
    """Magnitude CQT with center-padded framing: frames = len // hop + 1,
    frame f centered at sample f*hop, edges evaluated against zero padding."""
    if w.sample_rate != cfg.sample_rate:
        raise ContractError(f"waveform at {w.sample_rate} Hz, config wants {cfg.sample_rate} Hz")
    n_max, bank = _kernel_bank(cfg)
    n = w.samples.size
    n_frames = n // cfg.hop + 1
    xp = np.concatenate([np.zeros(n_max // 2), w.samples, np.zeros(n_max)])

    mags = np.empty((n_frames, cfg.n_bins))
    stride = xp.strides[0]
    chunk = 128
    for lo in range(0, n_frames, chunk):
        hi = min(lo + chunk, n_frames)
        rows = np.lib.stride_tricks.as_strided(
            xp[lo * cfg.hop :],
            shape=(hi - lo, n_max),
            strides=(cfg.hop * stride, stride),
        )
        proj = rows @ bank
        mags[lo:hi] = np.hypot(proj[:, 0::2], proj[:, 1::2])
    return CqtMatrix(mags, cfg)


def interior_frames(n_frames: int, cfg: CqtConfig = CqtConfig(), lowest_bin: int = 0) -> range:
    """Frames where the kernel of every bin from `lowest_bin` up lies fully
    inside the signal. Kernels shorten as bins rise, so the margin is set by
    the lowest bin compared (default bin 0, the longest kernel: frames clear
    of edge effects in every bin). A caller that reads only bins >= k passes
    `lowest_bin=k` and keeps more frames of a short clip."""
    margin = math.ceil((kernel_length(lowest_bin, cfg) / 2) / cfg.hop)
    return range(margin, max(n_frames - margin, margin))


def crop_to_vocal_range(m: CqtMatrix, lo: float = 32.0, hi: float = 1000.0) -> CqtMatrix:
    """Keep exactly the bins whose center frequency lies in [lo, hi]."""
    if lo >= hi:
        raise ContractError(f"need lo < hi, got [{lo}, {hi}]")
    freqs = np.array([m.bin_frequency(k) for k in range(m.bins)])
    keep = np.flatnonzero((freqs >= lo) & (freqs <= hi))
    if keep.size == 0:
        raise ContractError(f"no bins in [{lo}, {hi}] Hz")
    first, last = int(keep[0]), int(keep[-1])
    return CqtMatrix(
        m.magnitudes[:, first : last + 1].copy(),
        m.config,
        bin_offset=m.bin_offset + first,
    )


def transpose_pitch(m: CqtMatrix, semitones: int) -> CqtMatrix:
    """Shift every frame's bin vector by `semitones` bins (one bin per
    semitone at 12 bins/octave); vacated bins are zeroed, shape preserved."""
    if m.config.bins_per_octave % 12:
        raise ContractError("semitone shifts need bins_per_octave divisible by 12")
    shift = semitones * (m.config.bins_per_octave // 12)
    if abs(shift) >= m.bins:
        raise ContractError(f"shift {shift} exceeds bin count {m.bins}")
    out = np.zeros_like(m.magnitudes)
    if shift > 0:
        out[:, shift:] = m.magnitudes[:, :-shift]
    elif shift < 0:
        out[:, :shift] = m.magnitudes[:, -shift:]
    else:
        out[:] = m.magnitudes
    return CqtMatrix(out, m.config, bin_offset=m.bin_offset)


# ---------------------------------------------------------------------------
# Serialization: binary container and CSV export
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sIIdIII")


def save_matrix_container(values: np.ndarray, path, magic: bytes, f_min: float,
                          hop: int, sample_rate: int, bins_per_octave: int) -> None:
    """Shared binary layout: magic, u32 frames, u32 bins, f64 f_min, u32 hop,
    u32 sample_rate, u32 bins_per_octave, then row-major float32 cells.
    `bins_per_octave` 0 marks a matrix whose columns are not a CQT axis (the
    `MEL1` mel container); `load_cqt` rejects it with `ContractError`."""
    values = np.asarray(values)
    header = _HEADER.pack(magic, values.shape[0], values.shape[1], f_min, hop,
                          sample_rate, bins_per_octave)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(values.astype("<f4").tobytes())


def save_cqt(m: CqtMatrix, path, magic: bytes = b"CQT1") -> None:
    eff_fmin = m.config.f_min * 2.0 ** (m.bin_offset / m.config.bins_per_octave)
    save_matrix_container(m.magnitudes, path, magic, eff_fmin, m.config.hop,
                          m.config.sample_rate, m.config.bins_per_octave)


def load_cqt(path, magic: bytes = b"CQT1") -> CqtMatrix:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ContractError(f"{path}: truncated container header")
        tag, frames, bins, f_min, hop, sr, bpo = _HEADER.unpack(head)
        if tag != magic:
            raise ContractError(f"{path}: bad magic {tag!r}, expected {magic!r}")
        payload = fh.read(frames * bins * 4)
    if len(payload) < frames * bins * 4:
        raise ContractError(f"{path}: truncated payload")
    mags = np.frombuffer(payload, dtype="<f4").reshape(frames, bins).astype(np.float64)
    cfg = CqtConfig(sample_rate=sr, hop=hop, bins_per_octave=bpo, n_bins=bins, f_min=f_min)
    return CqtMatrix(mags, cfg)


def save_cqt_csv(m: CqtMatrix, path) -> None:
    freqs = [m.bin_frequency(k) for k in range(m.bins)]
    with open(path, "w") as fh:
        fh.write("frame," + ",".join(f"{f:.4f}Hz" for f in freqs) + "\n")
        for i, row in enumerate(m.magnitudes):
            fh.write(f"{i}," + ",".join(f"{v:.8g}" for v in row) + "\n")
