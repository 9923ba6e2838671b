"""Constant-Q transform with semitone-spaced bins, vocal-range cropping, and
pitch transposition by shifting the frequency axis.

Bins are anchored at C1 (32.7032 Hz) a semitone apart, so bin k is MIDI
pitch `midi.ROLL_LOW`+k; the vocal-range crop keeps the roll's
`midi.ROLL_PITCHES` bins, after which piano-roll and CQT indices are
interchangeable. The default config frames on `audio`'s clock (`HOP`).
Kernels are Hann-windowed complex sinusoids of length ceil(Q*sr/f_k) with
Q = 1/(2^(1/bpo)-1), L1-normalized so a unit-amplitude tone at a bin center
reads close to 0.5 at that bin.

Only the taps each kernel has are multiplied. The centred kernel window is
cut into hop-row blocks, each keeping only the bins whose kernel reaches it,
and the blocks sit side by side in one (hop, columns) bank, 23 % of the dense
window's cells at the default config. The padded signal, viewed as hop-sample
rows, meets the bank in one product per chunk of `CHUNK_FRAMES` frames; each
block's columns of that product, shifted down by the block's index, add into
the projection. The result is the dense time-domain projection, exact up to
the order of summation.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .audio import HOP, PIPELINE_SAMPLE_RATE, Waveform
from .errors import ContractError, check_fields
from .midi import ROLL_PITCHES

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
        check_fields(self, hop=1, bins_per_octave=1, n_bins=1)
        if self.f_min <= 0:
            raise ContractError(f"f_min must be > 0, got {self.f_min!r}")
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
    """Frames x bins magnitude matrix; column k is the config's bin k."""

    magnitudes: np.ndarray
    config: CqtConfig

    def __post_init__(self):
        self.magnitudes = np.asarray(self.magnitudes, dtype=np.float64)
        if self.magnitudes.ndim != 2:
            raise ContractError("magnitudes must be 2-D (frames x bins)")
        if self.bins > self.config.n_bins:
            raise ContractError("bins exceed config.n_bins")

    @property
    def frames(self) -> int:
        return self.magnitudes.shape[0]

    @property
    def bins(self) -> int:
        return self.magnitudes.shape[1]

    def bin_frequency(self, k: int) -> float:
        return bin_center_frequency(k, self.config)


def bin_center_frequency(k: int, cfg: CqtConfig = CqtConfig()) -> float:
    """Center frequency f_min * 2^(k / bins_per_octave) of bin k."""
    if not 0 <= k < cfg.n_bins:
        raise IndexError(f"bin {k} out of range [0, {cfg.n_bins})")
    return cfg.f_min * 2.0 ** (k / cfg.bins_per_octave)


def kernel_length(k: int, cfg: CqtConfig) -> int:
    return math.ceil(cfg.q_factor * cfg.sample_rate / bin_center_frequency(k, cfg))


# frames per bank product: the product holds CHUNK_FRAMES + (blocks - 1) rows
# whatever the clip length, about 17 MB at the default config
CHUNK_FRAMES = 1024


@functools.lru_cache(maxsize=4)
def _kernel_bank(cfg: CqtConfig) -> tuple[np.ndarray, tuple[int, ...]]:
    """The kernels cut into hop-row blocks of the centred max-length window,
    side by side in one read-only (hop, columns) bank, and each block's
    column count.

    Kernel k is `kernel_length(k)` taps centred at n_max//2 - n//2, so the
    spans are nested and shrink as k rises: the bins whose kernel reaches
    block j are a prefix 0..c_j-1, and block j is 2*c_j columns of
    interleaved real/imag taps (zero past n_max), after the columns of
    blocks 0..j-1. The bank is filled straight from the per-bin kernels; no
    dense (n_max, 2*n_bins) bank is built."""
    hop, n_max = cfg.hop, kernel_length(0, cfg)
    lengths = [kernel_length(k, cfg) for k in range(cfg.n_bins)]
    offsets = [n_max // 2 - n // 2 for n in lengths]
    widths = tuple(
        2 * sum(off < lo + hop and off + n > lo for off, n in zip(offsets, lengths))
        for lo in range(0, n_max, hop))
    starts = np.cumsum((0,) + widths)
    bank = np.zeros((hop, starts[-1]))
    for k, (off, n) in enumerate(zip(offsets, lengths)):
        window = np.hanning(n)
        window /= window.sum()
        phase = -2.0 * np.pi * bin_center_frequency(k, cfg) * np.arange(n) / cfg.sample_rate
        taps = np.stack([window * np.cos(phase), window * np.sin(phase)], axis=1)
        for j in range(off // hop, -(-(off + n) // hop)):
            a, b = max(off, j * hop), min(off + n, (j + 1) * hop)
            col = starts[j] + 2 * k
            bank[a - j * hop : b - j * hop, col : col + 2] = taps[a - off : b - off]
    bank.flags.writeable = False  # cached and shared by every caller
    return bank, widths


def compute_cqt(w: Waveform, cfg: CqtConfig = CqtConfig()) -> CqtMatrix:
    """Magnitude CQT with center-padded framing: frames = len // hop + 1,
    frame f centered at sample f*hop, edges evaluated against zero padding.

    Frame f's window starts at padded sample f*hop, so with the padded signal
    viewed as hop-sample rows x, block j of the kernels meets row f + j: the
    projection is the sum over blocks of x[j : j + frames] @ block_j. Per
    chunk of frames f0..f1, y = x[f0 : f1 + blocks - 1] @ bank holds every
    block's product at once, and block j's columns add in from row j of y."""
    if w.sample_rate != cfg.sample_rate:
        raise ContractError(f"waveform at {w.sample_rate} Hz, config wants {cfg.sample_rate} Hz")
    bank, widths = _kernel_bank(cfg)
    overlap = len(widths) - 1
    n_max = kernel_length(0, cfg)
    n = w.samples.size
    n_frames = n // cfg.hop + 1
    # n_max // 2 zeros before the signal and zeros after it to the last row
    # any block meets, as the dense framing padded
    xp = np.zeros((n_frames + len(widths)) * cfg.hop)
    xp[n_max // 2 : n_max // 2 + n] = w.samples
    x = xp.reshape(-1, cfg.hop)

    proj = np.zeros((n_frames, 2 * cfg.n_bins))
    y = np.empty((min(n_frames, CHUNK_FRAMES) + overlap, bank.shape[1]))
    for f0 in range(0, n_frames, CHUNK_FRAMES):
        f1 = min(f0 + CHUNK_FRAMES, n_frames)
        chunk = np.matmul(x[f0 : f1 + overlap], bank, out=y[: f1 - f0 + overlap])
        col = 0
        for j, width in enumerate(widths):
            proj[f0:f1, :width] += chunk[j : j + f1 - f0, col : col + width]
            col += width
    return CqtMatrix(np.hypot(proj[:, 0::2], proj[:, 1::2]), cfg)


def interior_frames(n_frames: int, cfg: CqtConfig = CqtConfig(), lowest_bin: int = 0) -> range:
    """Frames where the kernel of every bin from `lowest_bin` up lies fully
    inside the signal. Kernels shorten as bins rise, so the margin is set by
    the lowest bin compared (default bin 0, the longest kernel: frames clear
    of edge effects in every bin). A caller that reads only bins >= k passes
    `lowest_bin=k` and keeps more frames of a short clip."""
    margin = math.ceil((kernel_length(lowest_bin, cfg) / 2) / cfg.hop)
    return range(margin, max(n_frames - margin, margin))


def crop_to_vocal_range(m: CqtMatrix) -> CqtMatrix:
    """Keep the first `ROLL_PITCHES` bins, MIDI `ROLL_LOW`..`ROLL_TOP`. Bin k
    is roll pitch k only on a semitone CQT anchored at C1, so any other config
    raises `ContractError`."""
    if m.config.bins_per_octave != 12 or m.config.f_min != F_MIN_C1:
        raise ContractError("the vocal crop needs a semitone CQT anchored at C1, got "
                            f"{m.config.bins_per_octave} bins/octave from {m.config.f_min} Hz")
    return CqtMatrix(m.magnitudes[:, :ROLL_PITCHES].copy(), m.config)


def bin_shift(semitones: int, cfg: CqtConfig = CqtConfig(), bins: int | None = None) -> int:
    """The bins a `semitones` transposition moves, checked against the rule
    |shift| < `bins` (default `cfg.n_bins`, the uncropped CQT's width)."""
    if cfg.bins_per_octave % 12:
        raise ContractError("semitone shifts need bins_per_octave divisible by 12")
    shift = semitones * (cfg.bins_per_octave // 12)
    bins = cfg.n_bins if bins is None else bins
    if abs(shift) >= bins:
        raise ContractError(f"shift {shift} exceeds bin count {bins}")
    return shift


def transpose_pitch(m: CqtMatrix, semitones: int) -> CqtMatrix:
    """Shift every frame's bin vector by `semitones` bins (one bin per
    semitone at 12 bins/octave); vacated bins are zeroed, shape preserved."""
    shift = bin_shift(semitones, m.config, m.bins)
    out = np.zeros_like(m.magnitudes)
    if shift > 0:
        out[:, shift:] = m.magnitudes[:, :-shift]
    elif shift < 0:
        out[:, :shift] = m.magnitudes[:, -shift:]
    else:
        out[:] = m.magnitudes
    return CqtMatrix(out, m.config)


# ---------------------------------------------------------------------------
# Serialization: binary container and CSV export
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sIIdIII")
_CQT_MAGIC = b"CQT1"


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


def save_cqt(m: CqtMatrix, path) -> None:
    """The `CQT1` container of `m`, its header carrying the config's f_min."""
    save_matrix_container(m.magnitudes, path, _CQT_MAGIC, m.config.f_min, m.config.hop,
                          m.config.sample_rate, m.config.bins_per_octave)


def load_cqt(path) -> CqtMatrix:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ContractError(f"{path}: truncated container header")
        tag, frames, bins, f_min, hop, sr, bpo = _HEADER.unpack(head)
        if tag != _CQT_MAGIC:
            raise ContractError(f"{path}: bad magic {tag!r}, expected {_CQT_MAGIC!r}")
        size = frames * bins * 4
        # checked before reading, so a hostile header allocates nothing
        if size > os.fstat(fh.fileno()).st_size - fh.tell():
            raise ContractError(f"{path}: truncated payload")
        payload = fh.read(size)
    mags = np.frombuffer(payload, dtype="<f4").reshape(frames, bins).astype(np.float64)
    cfg = CqtConfig(sample_rate=sr, hop=hop, bins_per_octave=bpo, n_bins=bins, f_min=f_min)
    return CqtMatrix(mags, cfg)


def save_cqt_csv(m: CqtMatrix, path) -> None:
    freqs = [m.bin_frequency(k) for k in range(m.bins)]
    with open(path, "w") as fh:
        fh.write("frame," + ",".join(f"{f:.4f}Hz" for f in freqs) + "\n")
        for i, row in enumerate(m.magnitudes):
            fh.write(f"{i}," + ",".join(f"{v:.8g}" for v in row) + "\n")
