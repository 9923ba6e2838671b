"""Kernel timings for `polyvox convert` and for one train step of each
trainer.

Inference shapes are those of the `convert-long` benchmark workload:
attention over about 740 frames (150 prompt + 590 source) at width 128 x 4
layers, a GELU over the (740, 512) feed-forward hidden layer, 48
Griffin-Lim iterations over 600 frames (`test_griffin_lim` times the
public `griffin_lim`, whose loop runs in float32), a 5.5 s source resampled
from 48 to 44.1 kHz, and the STFT, inverse STFT (each in float32, as
Griffin-Lim runs them, and in float64, as the mel and the training
features do), mel spectrogram, CQT and whole-clip timbre warp of that 5.5 s
source at 44.1 kHz. The converter's training data
is timed as it is prepared: the content of one 200-frame window of the
source, with only the window and its context warped. The train steps are the
smoke recipe's, with forward and backward timed apart: the converter's
(`cfm_loss`, batch 2 x 200 frames, w128 x 4) in float32 and in float64, and
the pitch extractor's (two d64 x 2 encoders and the masked L1 loss, batch
3 x 160 frames) as `train_pitch_extractor` runs it, in the dtype of new
parameters. `test_pitch_encode` times a loaded d64 x 2 CQT encoder on the
(740, 60) `cqt_input` of a 740-frame clip, as `convert` embeds pitch. Run
from the repository root with the installed pytest-benchmark plugin (this
directory is outside tier-1's `testpaths`); every row runs one untimed
warm-up round before its timed rounds:

    python -m pytest benches -q --benchmark-json=<file>
"""

import numpy as np
import pytest

from polyvox import tensor as T
from polyvox.audio import (FFT_SIZE, HOP, MelSpectrogram, Waveform, griffin_lim, istft,
                           mel_spectrogram, resample, stft)
from polyvox.converter import VelocityNet, cfm_loss
from polyvox.cqt import compute_cqt
from polyvox.features import N_CONTENT, timbre_shift_augment, window_content
from polyvox.midi import ROLL_PITCHES
from polyvox.nn import MultiHeadAttention, ParamStore
from polyvox.pitch import PitchEncoderConfig, PitchExtractor, cqt_input

FRAMES = 740
WIDTH, LAYERS, HEADS = 128, 4, 4
COND_DIM = 377  # N_CONTENT + pitch model_dim 64 + TIMBRE_DIM + 80 mel bands + 1
SOURCE = Waveform(np.random.default_rng(4).uniform(-0.5, 0.5, int(5.5 * 44100)), 44100)
TRAIN_BATCH, TRAIN_FRAMES = 2, 200
PITCH_ENCODER = PitchEncoderConfig(model_dim=64, n_layers=2, n_heads=4, window_frames=160)
PITCH_BATCH = 3
DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])

# one untimed warm-up round before the timed ones in every `benchmark(...)` row;
# the `benchmark.pedantic` rows pass `warmup_rounds=1` themselves
pytestmark = pytest.mark.benchmark(warmup=True, warmup_iterations=1)


def _randomize(store: ParamStore, rng: np.random.Generator, dtype) -> None:
    """Small random values in place of the initial ones, whose zero
    projections would hide the work, held in `dtype` as `Tensor` holds it."""
    for p in store.params.values():
        p.data = T.Tensor(rng.normal(scale=0.05, size=p.data.shape).astype(dtype)).data


def _velocity_net(rng: np.random.Generator, dtype, trainable: bool = False):
    store = ParamStore(rng, trainable=trainable)
    net = VelocityNet(store, COND_DIM, WIDTH, LAYERS, HEADS)
    _randomize(store, rng, dtype)
    return net, store


def test_softmax(benchmark):
    """Attention weights from raw (HEADS, T, T) scores, scaled as
    `MultiHeadAttention` scales them."""
    scores = T.Tensor(np.random.default_rng(0).normal(size=(HEADS, FRAMES, FRAMES)))
    y = benchmark(T.softmax, scores, axis=-1, scale=1.0 / np.sqrt(WIDTH // HEADS))
    assert y.shape == scores.shape


@DTYPES
def test_multi_head_attention(benchmark, dtype):
    """One attention layer of the velocity net, with constant parameters."""
    rng = np.random.default_rng(5)
    store = ParamStore(rng, trainable=False)
    attn = MultiHeadAttention(store, "attn", WIDTH, HEADS)
    _randomize(store, rng, dtype)
    x = T.Tensor(rng.standard_normal((FRAMES, WIDTH)).astype(dtype))
    y = benchmark(lambda: attn(x).data)
    assert y.shape == (FRAMES, WIDTH) and y.dtype == dtype


@DTYPES
def test_gelu(benchmark, dtype):
    """The feed-forward activation at its convert-long shape."""
    x = T.Tensor(np.random.default_rng(6).normal(size=(FRAMES, 4 * WIDTH)).astype(dtype))
    y = benchmark(T.gelu, x)
    assert y.data.dtype == dtype


@DTYPES
def test_velocity_net_forward(benchmark, dtype):
    """One network evaluation (one NFE) with constant parameters. The
    converter runs it in float32, the dtype of its parameters."""
    rng = np.random.default_rng(1)
    net, _store = _velocity_net(rng, dtype)
    psi = rng.standard_normal((FRAMES, 80))
    cond = T.Tensor(rng.standard_normal((FRAMES, COND_DIM)))
    v = benchmark(lambda: net(psi, 0.5, cond).data)
    assert v.shape == (FRAMES, 80) and np.all(np.isfinite(v))


def test_pitch_encode(benchmark, tmp_path):
    """The frozen CQT encoder of a loaded checkpoint over a convert-long
    length of frames."""
    PitchExtractor(PITCH_ENCODER).save(tmp_path / "pitch.pvck")
    model = PitchExtractor.load(tmp_path / "pitch.pvck")
    clip = Waveform(np.random.default_rng(11).uniform(-0.5, 0.5, (FRAMES - 1) * HOP), 44100)
    values = cqt_input(compute_cqt(clip))
    z = benchmark(lambda: model.encode_cqt(values).data)
    assert z.shape == (FRAMES, PITCH_ENCODER.model_dim) and np.all(np.isfinite(z))


def test_griffin_lim(benchmark):
    rng = np.random.default_rng(2)
    mel = MelSpectrogram(rng.uniform(-6.0, 0.0, size=(600, 80)))
    wave = benchmark.pedantic(griffin_lim, args=(mel,), kwargs={"iters": 48},
                              rounds=5, warmup_rounds=1)
    assert wave.samples.size == 600 * HOP


def test_resample(benchmark):
    w = Waveform(np.random.default_rng(3).uniform(-1.0, 1.0, int(5.5 * 48000)), 48000)
    out = benchmark(resample, w, 44100)
    assert out.samples.size == int(5.5 * 44100)


@DTYPES
def test_stft(benchmark, dtype):
    spec = benchmark(stft, SOURCE.samples.astype(dtype))
    assert spec.shape == (SOURCE.samples.size // HOP + 1, FFT_SIZE // 2 + 1)


@DTYPES
def test_istft(benchmark, dtype):
    x = SOURCE.samples.astype(dtype)
    rec = benchmark(istft, stft(x), x.size)
    assert np.max(np.abs(rec - x)) < (1e-5 if dtype == np.float32 else 1e-9)


def test_mel_spectrogram(benchmark):
    mel = benchmark(mel_spectrogram, SOURCE)
    assert mel.frames == SOURCE.samples.size // HOP + 1


def test_compute_cqt(benchmark):
    mat = benchmark.pedantic(compute_cqt, args=(SOURCE,), rounds=5, warmup_rounds=1)
    assert np.all(np.isfinite(mat.magnitudes))


def test_timbre_shift_augment(benchmark):
    out = benchmark(lambda: timbre_shift_augment(SOURCE, np.random.default_rng(7)))
    assert out.samples.size == SOURCE.samples.size


def test_window_content(benchmark):
    """One batch item's content stream in a converter train step, for a
    window inside the clip."""
    content = benchmark(lambda: window_content(SOURCE, 173, TRAIN_FRAMES,
                                               np.random.default_rng(7)))
    assert content.shape == (TRAIN_FRAMES, N_CONTENT)


def _train_step_inputs(dtype):
    """A trainable velocity net in `dtype`, its parameters and one
    smoke-shaped batch."""
    rng = np.random.default_rng(8)
    net, store = _velocity_net(rng, dtype, trainable=True)
    x1 = rng.standard_normal((TRAIN_BATCH, TRAIN_FRAMES, 80))
    cond = T.Tensor(rng.standard_normal((TRAIN_BATCH, TRAIN_FRAMES, COND_DIM)).astype(dtype))
    hidden = np.zeros((TRAIN_BATCH, TRAIN_FRAMES, 1))
    hidden[:, TRAIN_FRAMES // 2:] = 1.0

    def loss():
        return cfm_loss(net, x1, cond, np.random.default_rng(9), loss_mask=hidden)

    return loss, list(store.params.values())


def _pitch_step_inputs():
    """A new pitch extractor, its parameters and one smoke-shaped batch of
    CQT and roll windows in float32, the dtype of those parameters."""
    model = PitchExtractor(PITCH_ENCODER)
    params = list(model.store.params.values())
    rng = np.random.default_rng(10)
    shape = (PITCH_BATCH, PITCH_ENCODER.window_frames, ROLL_PITCHES)
    values = rng.uniform(0.0, 1.0, shape).astype(params[0].data.dtype)
    rolls = (rng.uniform(size=shape) < 0.05).astype(params[0].data.dtype)
    mask = np.ones((*shape[:2], 1))

    def loss():
        return T.l1_loss(model.encode_cqt(values), model.encode_midi(rolls), mask=mask)

    return loss, params


def _time_backward(benchmark, loss, params) -> None:
    """Time `T.backward` on a fresh tape each round."""
    def fresh_tape():
        T.zero_grads(params)
        return (loss(),), {}

    grads = benchmark.pedantic(T.backward, setup=fresh_tape, rounds=10, warmup_rounds=1)
    assert len(grads) == len(params)


@DTYPES
def test_cfm_loss_forward(benchmark, dtype):
    """The forward half of a converter train step, which builds the tape."""
    loss, _params = _train_step_inputs(dtype)
    assert np.isfinite(benchmark(loss).data)


@DTYPES
def test_backward(benchmark, dtype):
    """The backward half of a converter train step."""
    _time_backward(benchmark, *_train_step_inputs(dtype))


def test_pitch_step_forward(benchmark):
    """The forward half of a pitch train step: both encoders and the loss."""
    loss, _params = _pitch_step_inputs()
    assert np.isfinite(benchmark(loss).data)


def test_pitch_step_backward(benchmark):
    """The backward half of a pitch train step."""
    _time_backward(benchmark, *_pitch_step_inputs())
