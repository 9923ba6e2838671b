"""Constant-Q transform with semitone-spaced bins, vocal-range cropping, and
pitch transposition by shifting the frequency axis.

Bins are anchored at C1 (32.7032 Hz) so bin k is MIDI pitch `midi.ROLL_LOW`+k,
which makes piano-roll and CQT indices interchangeable after the vocal-range
crop; the default config frames on `audio`'s clock (`HOP`). Kernels are
Hann-windowed complex sinusoids of length ceil(Q*sr/f_k) with
Q = 1/(2^(1/bpo)-1), L1-normalized so a unit-amplitude tone at a bin center
reads close to 0.5 at that bin.

The kernels are applied block-sparse: the centred kernel window is cut into
hop-row blocks, and each block multiplies only the bins whose kernel reaches
it (52 blocks holding 23 % of the dense window's cells at the default
config). The result is the dense time-domain projection, exact up to the
order of summation.
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
def _kernel_blocks(cfg: CqtConfig) -> tuple[np.ndarray, ...]:
    """The kernels cut into hop-row blocks of the centred max-length window.

    Kernel k is `kernel_length(k)` taps centred at n_max//2 - n//2, so the
    spans are nested and shrink as k rises: the bins whose kernel reaches
    block j are a prefix 0..c_j-1, and block j is (hop, 2*c_j) with
    interleaved real/imag columns (zero past n_max). Each block is filled
    straight from the per-bin kernels; no dense (n_max, 2*n_bins) bank is
    built."""
    hop, n_max = cfg.hop, kernel_length(0, cfg)
    lengths = [kernel_length(k, cfg) for k in range(cfg.n_bins)]
    offsets = [n_max // 2 - n // 2 for n in lengths]
    blocks = []
    for j in range(-(-n_max // hop)):
        lo = j * hop
        reach = sum(off < lo + hop and off + n > lo for off, n in zip(offsets, lengths))
        blocks.append(np.zeros((hop, 2 * reach)))
    for k, (off, n) in enumerate(zip(offsets, lengths)):
        window = np.hanning(n)
        window /= window.sum()
        phase = -2.0 * np.pi * bin_center_frequency(k, cfg) * np.arange(n) / cfg.sample_rate
        taps = np.stack([window * np.cos(phase), window * np.sin(phase)], axis=1)
        for j in range(off // hop, -(-(off + n) // hop)):
            a, b = max(off, j * hop), min(off + n, (j + 1) * hop)
            blocks[j][a - j * hop : b - j * hop, 2 * k : 2 * k + 2] = taps[a - off : b - off]
    for block in blocks:  # cached and shared by every caller
        block.flags.writeable = False
    return tuple(blocks)


def compute_cqt(w: Waveform, cfg: CqtConfig = CqtConfig()) -> CqtMatrix:
    """Magnitude CQT with center-padded framing: frames = len // hop + 1,
    frame f centered at sample f*hop, edges evaluated against zero padding.

    Frame f's window starts at padded sample f*hop, so with the padded signal
    viewed as hop-sample rows x, block j of the kernels meets row f + j:
    the projection is the sum over blocks of x[j : j + frames] @ block_j."""
    if w.sample_rate != cfg.sample_rate:
        raise ContractError(f"waveform at {w.sample_rate} Hz, config wants {cfg.sample_rate} Hz")
    blocks = _kernel_blocks(cfg)
    n_max = kernel_length(0, cfg)
    n = w.samples.size
    n_frames = n // cfg.hop + 1
    # n_max // 2 zeros before the signal and zeros after it to the last row
    # any block meets, as the dense framing padded
    xp = np.zeros((n_frames + len(blocks)) * cfg.hop)
    xp[n_max // 2 : n_max // 2 + n] = w.samples
    x = xp.reshape(-1, cfg.hop)

    proj = np.zeros((n_frames, 2 * cfg.n_bins))
    for j, block in enumerate(blocks):
        proj[:, : block.shape[1]] += x[j : j + n_frames] @ block
    return CqtMatrix(np.hypot(proj[:, 0::2], proj[:, 1::2]), cfg)


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
