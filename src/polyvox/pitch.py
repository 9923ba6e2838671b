"""Polyphonic pitch extractor trained by aligning CQT embeddings to MIDI
embeddings under a mean-L1 loss (`tensor.l1_loss`, masked to the valid
frames) on randomly sampled time windows.

Two independent transformer encoders map the cropped (60-bin) CQT and the
piano roll into a shared embedding space. After training, the CQT encoder is
frozen and feeds the converter; the MIDI encoder exists only to supervise it.
`cqt_input` is the one definition of what the CQT encoder reads of a clip's
CQT, for training, the converter's corpus and conversion alike. Training
reads the train split through `synthgen.load_clips` and pairs each clip's
`cqt_input` with the piano roll of its notes at the same frame count.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .cqt import CqtMatrix, compute_cqt, crop_to_vocal_range, transpose_pitch
from .errors import ContractError, check_fields
from .midi import ROLL_PITCHES, to_piano_roll
from .nn import ParamStore, SequenceEncoder
from .optim import _fit, header_config, load_checkpoint, save_checkpoint
from .synthgen import load_clips
from .tensor import Tensor


@dataclass(frozen=True)
class PitchEncoderConfig:
    model_dim: int = 128
    n_layers: int = 4
    n_heads: int = 4
    window_frames: int = 200  # 2 s at the 100 Hz frame rate

    def __post_init__(self):
        check_fields(self, model_dim=1, n_layers=0, n_heads=1, window_frames=8)
        if self.model_dim % 2 or self.model_dim % self.n_heads:
            raise ContractError(f"model_dim {self.model_dim} must be even (the position table) "
                                f"and divisible by n_heads {self.n_heads}")


def log_compress(mags: np.ndarray) -> np.ndarray:
    """Per-clip magnitude normalization x -> log(1 + x/ref) with ref at the
    99th percentile of the nonzero cells; compresses the ~60 dB range before
    the L1 geometry.

    Exact zeros (digital silence, padding) are left out of the percentile,
    so the input scale does not depend on how much of the clip is silent:
    appending silent frames leaves the output for the other frames unchanged.
    An all-zero input maps to all zeros."""
    mags = np.asarray(mags, dtype=np.float64)
    sounding = mags[mags != 0.0]
    ref = max(float(np.percentile(sounding, 99.0)), 1e-8) if sounding.size else 1e-8
    return np.log1p(mags / ref)


def cqt_input(mat: CqtMatrix, transpose: int = 0) -> np.ndarray:
    """What the CQT encoder reads from a clip's full `compute_cqt`: the
    matrix shifted by `transpose` semitones, then cropped to the vocal range
    and log-compressed; (frames, 60). The shift comes first, so bins that a
    negative shift brings down from above the vocal range keep their energy."""
    return log_compress(crop_to_vocal_range(transpose_pitch(mat, transpose)).magnitudes)


class PitchExtractor:
    def __init__(self, cfg: PitchEncoderConfig, seed: int = 0,
                 arrays: dict[str, np.ndarray] | None = None):
        """New trainable parameters drawn from `seed`, or, given a
        checkpoint's `arrays`, those as constants (`nn.ParamStore`)."""
        self.cfg = cfg
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xA11))))
        self.store = ParamStore(rng, arrays=arrays)
        self.cqt_encoder = SequenceEncoder(
            self.store, "cqt_encoder", ROLL_PITCHES, cfg.model_dim, cfg.n_layers, cfg.n_heads)
        self.midi_encoder = SequenceEncoder(
            self.store, "midi_encoder", ROLL_PITCHES, cfg.model_dim, cfg.n_layers, cfg.n_heads)

    def encode_cqt(self, values: np.ndarray) -> Tensor:
        """Frame-wise pitch embedding of a log-compressed, cropped CQT."""
        return self.cqt_encoder(Tensor(values))

    def encode_midi(self, activity: np.ndarray) -> Tensor:
        return self.midi_encoder(Tensor(activity))

    def save(self, path, step: int = 0) -> None:
        save_checkpoint(path, self.store.arrays(), step, {"pitch_encoder": asdict(self.cfg)})

    @classmethod
    def load(cls, path) -> "PitchExtractor":
        """The frozen extractor of a checkpoint: its parameters are constants."""
        arrays, header = load_checkpoint(path)
        cfg = header_config(path, header, "pitch_encoder", PitchEncoderConfig)
        return cls(cfg, arrays=arrays)


def sample_training_window(clip: tuple[np.ndarray, ...], rng: np.random.Generator,
                           window_frames: int) -> tuple[np.ndarray, ...]:
    """The one training-window rule, of the pitch trainer and the converter:
    a uniformly random crop of `window_frames` frames, aligned across the
    clip's frame-aligned (frames, dim) arrays, returned in their order and
    followed by the (window_frames, 1) validity mask. A clip shorter than
    the window draws no start: its arrays come back zero-padded at the end,
    where the mask is 0."""
    n = clip[0].shape[0]
    if any(a.shape[0] != n for a in clip):
        raise ContractError(f"frame counts differ: {[a.shape[0] for a in clip]}")
    if n >= window_frames:
        start = int(rng.integers(0, n - window_frames + 1))
        return (*(a[start : start + window_frames] for a in clip), np.ones((window_frames, 1)))
    pad = window_frames - n
    mask = np.concatenate([np.ones((n, 1)), np.zeros((pad, 1))])
    return (*(np.pad(a, ((0, pad), (0, 0))) for a in clip), mask)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class PitchTrainConfig:
    encoder: PitchEncoderConfig = PitchEncoderConfig()
    steps: int = 2000
    batch: int = 4
    peak_lr: float = 1e-3  # desk-scale default; the published schedule is 1e-4 -> 1e-5

    def __post_init__(self):
        check_fields(self, steps=1, batch=1)
        if self.peak_lr <= 0:
            raise ContractError(f"peak_lr must be > 0, got {self.peak_lr!r}")


def train_pitch_extractor(manifest_path, cfg: PitchTrainConfig, steps: int | None,
                          ckpt_path, log_path=None, seed: int = 0,
                          progress=None) -> Path:
    """Minimize the alignment loss over random windows of the train split;
    writes a (step, lr, loss) CSV and the checkpoint. Returns the checkpoint
    path. The CQT encoder inside the checkpoint is what downstream loads."""
    steps = cfg.steps if steps is None else steps
    clips = []
    for c in load_clips(manifest_path, "train"):
        values = cqt_input(compute_cqt(c.wave))
        clips.append((values, to_piano_roll(c.notes, n_frames=values.shape[0]).activity))

    model = PitchExtractor(cfg.encoder, seed=seed)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xB0B))))

    def batch_loss() -> Tensor:
        values, rolls, masks = [], [], []
        for _ in range(cfg.batch):
            idx = int(rng.integers(len(clips)))
            v, r, m = sample_training_window(clips[idx], rng, cfg.encoder.window_frames)
            values.append(v)
            rolls.append(r)
            masks.append(m)
        z_cqt = model.encode_cqt(np.stack(values))
        z_midi = model.encode_midi(np.stack(rolls))
        return T.l1_loss(z_cqt, z_midi, mask=np.stack(masks))

    return _fit(model.store.params, batch_loss, steps, cfg.peak_lr, model.save, ckpt_path,
                log_path, progress)
