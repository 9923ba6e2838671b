"""Flow-matching mel converter: feature fusion, linear-path velocity
training, and sway-scheduled Euler ODE inference. The velocity net, its
training path state and its ODE state all compute in the net's parameter
dtype, float32 for new and loaded models (`nn`'s one precision rule).

Training follows the in-context prompt recipe: a random contiguous span of
the target mel is hidden from the conditioning channel and becomes the
prediction region; at inference the reference clip's mel is prepended as a
visible prompt and stripped from the output. The pitch path runs through the
frozen CQT encoder and is never updated here.

Every stream is computed once per clip, in training as at inference, by one
function, `clip_inputs`: the mel, the content (`features.extract_content`,
loudness and onset) and the CQT embedding z_p. Every clip, train, source or
reference, passes one length rule, `check_clip_length`. With statistics of
the training corpus that the checkpoint stores, the mel is standardised per
band and z_p is whitened, and a training step only cuts windows out of the
per-clip arrays, by the pitch trainer's one window rule,
`pitch.sample_training_window`: a clip shorter than the window is padded and
its padding masked, and the hidden span lies on its real frames.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .audio import (N_MELS, PIPELINE_SAMPLE_RATE, MelSpectrogram, WavCodes, Waveform,
                    griffin_lim, mel_spectrogram)
from .cqt import CqtMatrix, compute_cqt
from .errors import ContractError, check_fields
from .features import (N_CONTENT, TIMBRE_BANDS, TIMBRE_DIM, TimbreSpace, extract_content,
                       timbre_stats, train_timbre_space)
from .nn import (FF_MULT, LayerNorm, Linear, MultiHeadAttention, FeedForward, ParamStore,
                 _checkpoint_array, sinusoidal_positions, timestep_embedding)
from .optim import _fit, header_config, load_checkpoint, save_checkpoint
from .pitch import PitchEncoderConfig, PitchExtractor, cqt_input, sample_training_window
from .synthgen import load_clips
from .tensor import Tensor


# ---------------------------------------------------------------------------
# Velocity network (DiT-style)
# ---------------------------------------------------------------------------


class _DiTBlock:
    """Pre-norm block with adaptive layer-norm modulation from the time
    embedding; modulation projections are zero-initialized so the block
    starts as identity plus nothing."""

    def __init__(self, store: ParamStore, name: str, width: int, n_heads: int):
        self.ln1 = LayerNorm(store, f"{name}.ln1", width, affine=False)
        self.attn = MultiHeadAttention(store, f"{name}.attn", width, n_heads)
        self.ln2 = LayerNorm(store, f"{name}.ln2", width, affine=False)
        self.ff = FeedForward(store, f"{name}.ff", width, FF_MULT * width)
        self.mod = Linear(store, f"{name}.mod", width, 6 * width, zero_init=True)

    def __call__(self, x: Tensor, tvec: Tensor) -> Tensor:
        width = x.shape[-1]
        mods = self.mod(tvec)
        pieces = [T.slice_(mods, (Ellipsis, slice(i * width, (i + 1) * width)))
                  for i in range(6)]
        shift1, scale1, gate1, shift2, scale2, gate2 = pieces
        h = self.ln1(x) * (scale1 + 1.0) + shift1
        x = x + gate1 * self.attn(h)
        h = self.ln2(x) * (scale2 + 1.0) + shift2
        return x + gate2 * self.ff(h)


# the prefix of the velocity net's parameter names in a checkpoint
_NET = "velocity"


class VelocityNet:
    """Predicts the transport velocity for a noisy (frames, `N_MELS`) mel
    given `cond_dim` channels of fused conditioning and the scalar flow
    time."""

    def __init__(self, store: ParamStore, cond_dim: int, width: int, n_layers: int,
                 n_heads: int):
        self.width = width
        self.input = Linear(store, f"{_NET}.input", N_MELS + cond_dim, width)
        self.time1 = Linear(store, f"{_NET}.time1", width, width)
        self.time2 = Linear(store, f"{_NET}.time2", width, width)
        self.blocks = [_DiTBlock(store, f"{_NET}.block{i}", width, n_heads)
                       for i in range(n_layers)]
        self.final_ln = LayerNorm(store, f"{_NET}.final_ln", width, affine=False)
        self.final_mod = Linear(store, f"{_NET}.final_mod", width, 2 * width, zero_init=True)
        self.head = Linear(store, f"{_NET}.head", width, N_MELS, zero_init=True)

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the parameters, which the net computes in."""
        return self.input.w.data.dtype

    def __call__(self, psi, t, cond) -> Tensor:
        """psi: (..., frames, bands); t: flow time, a scalar or one per
        leading item of psi; cond: fused conditioning, frame-aligned.
        Computes and returns `dtype`, as every `nn` layer does."""
        psi_t = psi if isinstance(psi, Tensor) else Tensor(psi)
        cond_t = cond if isinstance(cond, Tensor) else Tensor(cond)
        if psi_t.shape[:-1] != cond_t.shape[:-1]:
            raise ContractError(
                f"state and condition frames differ: {psi_t.shape} vs {cond_t.shape}")
        w = self.width
        x = self.input(T.concat([psi_t, cond_t], axis=-1))
        x = x + Tensor(sinusoidal_positions(x.shape[-2], w, x.data.dtype))
        temb = np.stack([timestep_embedding(float(ti), w) for ti in np.atleast_1d(t)])
        temb = temb.reshape(np.shape(t) + (1, w))  # (..., 1, width), broadcast over frames
        tvec = self.time2(T.gelu(self.time1(Tensor(temb))))
        for block in self.blocks:
            x = block(x, tvec)
        mods = self.final_mod(tvec)
        shift = T.slice_(mods, (Ellipsis, slice(0, w)))
        scale = T.slice_(mods, (Ellipsis, slice(w, 2 * w)))
        return self.head(self.final_ln(x) * (scale + 1.0) + shift)


def cfm_loss(net, x1: np.ndarray, cond, rng: np.random.Generator,
             loss_mask: np.ndarray | None = None) -> Tensor:
    """Draw x0 ~ N(0, 1) and t ~ U(0, 1) (one per (frames, bands) item of
    x1), form the linear path (1 - t) * x0 + t * x1, and return the squared
    error between the predicted velocity and the path velocity x1 - x0
    (t-independent). `loss_mask` rows weighted 1 contribute; the hidden
    prompt span is the usual choice. The draws are float64; the path state
    and the target are built in the net's dtype."""
    dtype = net.dtype
    x1 = np.asarray(x1, dtype=dtype)
    x0 = rng.standard_normal(x1.shape).astype(dtype, copy=False)
    t = rng.uniform(size=x1.shape[:-2])
    tb = t[..., None, None].astype(dtype, copy=False)
    psi = (1.0 - tb) * x0 + tb * x1
    pred = net(psi, t, cond)
    return T.mse_loss(pred, Tensor(x1 - x0), mask=loss_mask)


def ode_sample(net: VelocityNet, cond, nfe: int, sway: float,
               rng: np.random.Generator) -> np.ndarray:
    """Transport Gaussian noise to a mel, one frame per row of `cond` and
    `N_MELS` bands, by `nfe` Euler steps: exactly `nfe` network calls. The
    steps run between the sway-warped knots t_i = u + s * (cos(pi*u/2) - 1
    + u), u = i / nfe, s = `sway` in [-1, 1], which fix t_0 = 0 and t_nfe = 1
    (sway sampling, F5-TTS). The noise is drawn in float64; the state is
    held in the net's dtype, as `cfm_loss` holds its path state."""
    cond_t = cond if isinstance(cond, Tensor) else Tensor(cond)
    u = np.arange(nfe + 1) / nfe
    # Python floats, so that a step times a float32 state stays float32
    knots = (u + sway * (np.cos(np.pi * u / 2.0) - 1.0 + u)).tolist()
    x = rng.standard_normal((cond_t.shape[0], N_MELS)).astype(net.dtype, copy=False)
    for t, t_next in zip(knots, knots[1:]):
        x = x + (t_next - t) * net(x, t, cond_t).data
    return x


# ---------------------------------------------------------------------------
# Converter bundle
# ---------------------------------------------------------------------------


@dataclass
class ConverterConfig:
    width: int = 256
    n_layers: int = 6
    n_heads: int = 4
    window_frames: int = 200
    steps: int = 20000
    batch: int = 2
    peak_lr: float = 1e-3  # desk-scale default; the published schedule is 1e-4 -> 1e-5
    sway_s: float = -1.0
    nfe: int = 32
    prompt_frames: int = 200
    gl_iters: int = 32

    def __post_init__(self):
        check_fields(self, width=1, n_layers=0, n_heads=1, window_frames=1, steps=1, batch=1,
                     nfe=1, prompt_frames=0, gl_iters=1)
        if self.width % 2 or self.width % self.n_heads:
            raise ContractError(f"width {self.width} must be even (the position table) and "
                                f"divisible by n_heads {self.n_heads}")
        if self.peak_lr <= 0:
            raise ContractError(f"peak_lr must be > 0, got {self.peak_lr!r}")
        if not -1.0 <= self.sway_s <= 1.0:
            raise ContractError(f"sway_s {self.sway_s} outside [-1, 1]")


class ConverterModel:
    """Trained converter state: velocity net, timbre space, corpus mel
    statistics and z_p whitening, and the frozen pitch encoder. With `trainable=False` the
    parameters are constants and inference records no autograd tape.

    Parameters are float32, new or loaded (`load` passes a checkpoint's
    float32 `arrays`, which the store takes with no random draw), and every
    network runs in them (`nn`), as does the ODE state of `ode_sample`. The
    statistics and the timbre space are numpy: float64 when trained, float32
    when loaded."""

    def __init__(self, cfg: ConverterConfig, pitch: PitchExtractor, timbre: TimbreSpace,
                 mel_mean: np.ndarray, mel_std: np.ndarray, z_p_mean: np.ndarray,
                 z_p_whiten: np.ndarray, seed: int = 0, trainable: bool = True,
                 arrays: dict[str, np.ndarray] | None = None):
        self.cfg = cfg
        self.pitch = pitch
        self.timbre = timbre
        self.mel_mean = mel_mean
        self.mel_std = mel_std
        self.z_p_mean = z_p_mean
        self.z_p_whiten = z_p_whiten
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xD17))))
        self.store = ParamStore(rng, trainable=trainable, arrays=arrays)
        cond_dim = N_CONTENT + pitch.cfg.model_dim + TIMBRE_DIM + N_MELS + 1
        self.net = VelocityNet(self.store, cond_dim, cfg.width, cfg.n_layers, cfg.n_heads)

    def standardize(self, mel_values: np.ndarray) -> np.ndarray:
        return (mel_values - self.mel_mean) / self.mel_std

    def destandardize(self, values: np.ndarray) -> np.ndarray:
        return values * self.mel_std + self.mel_mean

    def fuse(self, content: np.ndarray, z_pitch: np.ndarray, z_timbre: np.ndarray,
             x_ref: np.ndarray, visible: np.ndarray) -> np.ndarray:
        """Whiten the pitch stream with the corpus z_p statistics and
        concatenate it after the content, then the timbre vector broadcast
        over frames, the (partially hidden) reference mel channel, and its
        visibility indicator, in the net's dtype. Streams are (..., frames,
        dim) with one timbre vector per leading item. Mel and CQT share the
        pipeline's hop, `audio.HOP`, so content and pitch must arrive with
        equal frame counts."""
        if np.shape(content)[:-1] != np.shape(z_pitch)[:-1]:
            raise ContractError(f"content and pitch frames differ: {np.shape(content)} vs "
                                f"{np.shape(z_pitch)}")
        z_p = (z_pitch - self.z_p_mean) @ self.z_p_whiten
        # unit-norm timbre vectors have ~1/sqrt(dim) elements; rescale so all
        # conditioning channels enter the input projection at similar variance
        zt = np.asarray(z_timbre) * math.sqrt(TIMBRE_DIM)
        zt_full = np.broadcast_to(zt[..., None, :], z_p.shape[:-1] + zt.shape[-1:])
        return np.concatenate([content, z_p, zt_full, x_ref, visible], axis=-1,
                              dtype=self.net.dtype)

    def save(self, path, step: int) -> None:
        arrays = dict(self.store.arrays())
        for name, value in self.pitch.store.arrays().items():
            arrays[f"pitch.{name}"] = value
        arrays["timbre.weight"] = self.timbre.weight
        arrays["timbre.mean"] = self.timbre.mean
        arrays["timbre.scale"] = self.timbre.scale
        arrays["mel.mean"] = self.mel_mean
        arrays["mel.std"] = self.mel_std
        arrays["z_p.mean"] = self.z_p_mean
        arrays["z_p.whiten"] = self.z_p_whiten
        config = {
            "converter": asdict(self.cfg),
            "pitch_encoder": asdict(self.pitch.cfg),
        }
        save_checkpoint(path, arrays, step, config)

    @classmethod
    def load(cls, path) -> "ConverterModel":
        arrays, _step, header = load_checkpoint(path)
        cfg = header_config(path, header, "converter", ConverterConfig)
        pitch_arrays = {k.removeprefix("pitch."): v for k, v in arrays.items()
                        if k.startswith("pitch.")}
        pitch = PitchExtractor(header_config(path, header, "pitch_encoder", PitchEncoderConfig),
                               trainable=False, arrays=pitch_arrays)
        dim = pitch.cfg.model_dim
        shapes = {"timbre.weight": (TIMBRE_BANDS, TIMBRE_DIM), "timbre.mean": (TIMBRE_BANDS,),
                  "timbre.scale": (TIMBRE_BANDS,), "mel.mean": (N_MELS,), "mel.std": (N_MELS,),
                  "z_p.mean": (dim,), "z_p.whiten": (dim, dim)}
        a = {key: _checkpoint_array(arrays, key, shape) for key, shape in shapes.items()}
        timbre = TimbreSpace(a["timbre.weight"], a["timbre.mean"], a["timbre.scale"])
        return cls(cfg, pitch, timbre, a["mel.mean"], a["mel.std"], a["z_p.mean"],
                   a["z_p.whiten"], trainable=False, arrays=arrays)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

# The share of a training window hidden from the conditioning and predicted,
# drawn uniformly per batch item (F5-TTS's infilling recipe). It goes with
# the reference prompt.
_MASK_SPAN = (0.3, 0.7)

# Whitening raises every eigendirection of the z_p covariance weaker than
# this fraction of the strongest to it, so that none gains more than
# 1000 ** 0.5, about 32, times the strongest one's gain.
_WHITEN_FLOOR = 1e-3


def _whitening(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mean of the rows of `z` and the symmetric (ZCA) whitening matrix
    W of their covariance: (z - mean) @ W has identity covariance, except
    along eigendirections weaker than `_WHITEN_FLOOR` times the strongest,
    which are scaled as if they had that variance."""
    mean = z.mean(axis=0)
    centred = z - mean
    lam, vec = np.linalg.eigh(centred.T @ centred / len(centred))
    lam = np.maximum(lam, _WHITEN_FLOOR * lam.max())
    return mean, (vec / np.sqrt(lam)) @ vec.T


def train_converter(manifest_path, cfg: ConverterConfig, steps: int | None,
                    pitch_ckpt, ckpt_path, log_path=None, seed: int = 0,
                    progress=None) -> Path:
    """Flow-matching training over masked windows of the train split, read
    with `synthgen.load_clips`.

    Every clip is held to `check_clip_length` before the first CQT. Then
    each clip's mel, content and z_p are computed once, by `clip_inputs` as
    `convert` computes them, and the corpus mel statistics and z_p
    whitening are taken from them. Per step and batch item: cut a window of
    `window_frames` frames out of those arrays by the pitch trainer's one
    window rule, `pitch.sample_training_window`, which pads a clip shorter
    than the window and masks the padding; hide a random span of the target
    mel, a `_MASK_SPAN` share (30-70 %) of the window's real frames, from
    the conditioning; embed timbre from a 1.2 s window of the clip's mel and
    fuse the item's condition; then regress the path velocity on the hidden
    spans. A step does no signal processing. Writes a (step, lr, loss) CSV
    next to the checkpoint.
    """
    steps = cfg.steps if steps is None else steps
    pitch_ckpt = Path(pitch_ckpt)
    if not pitch_ckpt.exists():
        raise ContractError(f"pitch checkpoint {pitch_ckpt} not found")
    train = load_clips(manifest_path, "train")
    for c in train:  # each step embeds timbre from up to 1.2 s of a clip
        check_clip_length(f"train clip {c.id!r}", c.codes)
    pitch = PitchExtractor.load(pitch_ckpt)
    # each clip as the frame-aligned arrays its windows are cut from: mel
    # values, content and z_p; its CQT is dropped as soon as z_p is taken
    clips = [(mel.values, content, z_p)
             for mel, content, z_p, _ in (clip_inputs(pitch, c.wave) for c in train)]
    presets, labels = np.unique([c.preset for c in train], return_inverse=True)
    del train  # a step reads only the per-clip arrays

    all_mels = np.concatenate([mel for mel, _, _ in clips], axis=0)
    mel_mean = all_mels.mean(axis=0)
    mel_std = np.maximum(all_mels.std(axis=0), 1e-3)
    del all_mels  # a second copy of every mel, dead from here on
    z_p_mean, z_p_whiten = _whitening(
        np.concatenate([z_p for _, _, z_p in clips], axis=0, dtype=np.float64))

    stats = np.stack([timbre_stats(MelSpectrogram(mel)) for mel, _, _ in clips])
    timbre = train_timbre_space(stats, labels, n_classes=len(presets))

    model = ConverterModel(cfg, pitch, timbre, mel_mean, mel_std, z_p_mean, z_p_whiten,
                           seed=seed)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xCF4))))
    win = cfg.window_frames

    def batch_loss() -> Tensor:
        x1s, conds, hiddens = [], [], []
        for _ in range(cfg.batch):
            clip = clips[int(rng.integers(len(clips)))]
            mel, content, z_p, mask = sample_training_window(clip, rng, win)
            x1 = model.standardize(mel)

            n_f = len(clip[0])
            t_win = min(120, n_f)
            t_start = int(rng.integers(0, n_f - t_win + 1))
            z_t = model.timbre.embed(MelSpectrogram(clip[0][t_start : t_start + t_win]))

            real = min(n_f, win)  # the span lies on the window's real frames
            frac = float(rng.uniform(*_MASK_SPAN))
            span = max(1, int(round(frac * real)))
            span_start = int(rng.integers(0, real - span + 1))
            hidden = np.zeros((win, 1))
            hidden[span_start : span_start + span] = 1.0
            visible = mask - hidden

            x1s.append(x1)
            conds.append(model.fuse(content, z_p, z_t, x1 * visible, visible))
            hiddens.append(hidden)
        return cfm_loss(model.net, np.stack(x1s), np.stack(conds), rng,
                        loss_mask=np.stack(hiddens))

    return _fit(model.store.params, batch_loss, steps, cfg.peak_lr, model.save, ckpt_path,
                log_path, progress)


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Conversion:
    """The output waveform and generated mel, with the source's mel and full
    untransposed CQT and the reference's timbre vector that `convert` took."""

    wave: Waveform
    mel: MelSpectrogram
    source_mel: MelSpectrogram
    source_cqt: CqtMatrix
    z_t: np.ndarray


def check_clip_length(what: str, wave: Waveform | WavCodes) -> None:
    """The one length rule for a converter clip, source, reference or train
    clip: it must last at least 1 s, as the timbre embedding needs. A
    shorter one raises ContractError naming `what` and its duration, rounded
    down so that it never reads "1.00 s"."""
    if wave.duration < 1.0:
        shown = math.floor(wave.duration * 100) / 100
        raise ContractError(f"{what} is {shown:.2f} s; the converter needs at least 1 s")


def clip_inputs(pitch: PitchExtractor, wave: Waveform, transpose: int = 0
                ) -> tuple[MelSpectrogram, np.ndarray, np.ndarray, CqtMatrix]:
    """The streams of one clip that the converter fuses, computed one way
    for training and inference: the mel, the content
    (`features.extract_content`) and z_p, the frozen encoder's embedding of
    the CQT shifted by `transpose` semitones; then the full untransposed
    CQT."""
    mel = mel_spectrogram(wave)
    cqt = compute_cqt(wave)
    z_p = pitch.encode_cqt(cqt_input(cqt, transpose)).data
    return mel, extract_content(mel), z_p, cqt


def convert(src: Waveform, ref: Waveform, model: ConverterModel, transpose: int = 0,
            seed: int = 0) -> Conversion:
    """Convert `src` to the timbre of `ref`: content and (optionally
    transposed) pitch come from the source, timbre and the mel prompt from
    the reference. Both clips must be at 44.1 kHz (`audio.load_pipeline_wav`
    reads a file at that rate). The ODE runs `model.cfg`'s `nfe` and
    `sway_s`, and Griffin-Lim its `gl_iters` iterations. Returns the
    `Conversion`, so callers need not recompute its features."""
    cfg = model.cfg
    if src.sample_rate != PIPELINE_SAMPLE_RATE or ref.sample_rate != PIPELINE_SAMPLE_RATE:
        raise ContractError(f"convert needs 44.1 kHz clips, got source {src.sample_rate} Hz "
                            f"and reference {ref.sample_rate} Hz")
    check_clip_length("source", src)
    check_clip_length("reference", ref)

    mel_src, content_src, z_p_src, cqt_src = clip_inputs(model.pitch, src, transpose)
    mel_ref, content_ref, z_p_ref = clip_inputs(model.pitch, ref)[:3]
    z_t = model.timbre.embed(mel_ref)

    prompt = min(cfg.prompt_frames, mel_ref.frames)
    n_src = mel_src.frames
    content = np.concatenate([content_ref[:prompt], content_src], axis=0)
    z_p = np.concatenate([z_p_ref[:prompt], z_p_src], axis=0)
    x_ref = np.concatenate(
        [model.standardize(mel_ref.values[:prompt]), np.zeros((n_src, N_MELS))], axis=0)
    visible = np.concatenate([np.ones((prompt, 1)), np.zeros((n_src, 1))], axis=0)

    cond = model.fuse(content, z_p, z_t, x_ref, visible)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0x0DE))))
    sampled = ode_sample(model.net, cond, cfg.nfe, cfg.sway_s, rng)
    mel_out = MelSpectrogram(model.destandardize(sampled[prompt:]))
    wave = griffin_lim(mel_out, iters=cfg.gl_iters)
    return Conversion(wave, mel_out, mel_src, cqt_src, z_t)
