"""Kernel timings for `polyvox convert` and for one train step of each
trainer.

Inference shapes are those of the `convert-long` benchmark workload:
attention over about 740 frames (150 prompt + 590 source) at width 128 x 4
layers, a GELU over the (740, 512) feed-forward hidden layer, 48
Griffin-Lim iterations over 600 frames (`test_griffin_lim` times the
public `griffin_lim`, whose loop runs in float32), a 5.5 s source resampled
from 48 to 44.1 kHz, and the STFT, inverse STFT (each in float32, as
Griffin-Lim runs them, and in float64, as the mel and the training
features do), mel spectrogram and CQT of that 5.5 s source at 44.1 kHz,
and the CQT of a 60 s clip, which spans several of its chunks.
The train steps are the smoke recipe's, with forward and backward timed
apart: the converter's
(`cfm_loss`, batch 2 x 200 frames, w128 x 4) in float32 and in float64, and
the pitch extractor's (two d64 x 2 encoders and the masked L1 loss, batch
3 x 160 frames) as `train_pitch_extractor` runs it, in the dtype of new
parameters. `test_pitch_encode` times a loaded d64 x 2 CQT encoder on the
(740, 60) `cqt_input` of a 740-frame clip, as `convert` embeds pitch.
`test_render_score` renders one 5.5 s harmony clip of the corpus.
`test_converter_fit` times 4 converter `_fit` steps at the train-step shapes
and records their `tracemalloc` peak, the most Python-allocated memory
(numpy buffers included) alive at once, in `extra_info`. `test_load_clips`
reads both splits of a 20-clip corpus of 5.5 s PCM16 files, the `train`
workload's, and records in `extra_info` the bytes the loaded clips keep
alive, as `tracemalloc` counts them, beside the bytes of the WAV files. Run
from the repository root with the installed pytest-benchmark plugin (this
directory is outside tier-1's `testpaths`); every row runs one untimed
warm-up round before its timed rounds:

    python -m pytest benches -q --benchmark-json=<file>
"""

import tracemalloc

import numpy as np
import pytest

from polyvox import tensor as T
from polyvox.audio import (FFT_SIZE, HOP, N_MELS, MelSpectrogram, Waveform, griffin_lim, istft,
                           mel_spectrogram, resample, stft)
from polyvox.converter import ConverterConfig, VelocityNet, cfm_loss
from polyvox.cqt import compute_cqt
from polyvox.features import N_CONTENT, TIMBRE_DIM
from polyvox.midi import ROLL_PITCHES
from polyvox.nn import MultiHeadAttention, ParamStore
from polyvox.optim import _fit
from polyvox.pitch import PitchEncoderConfig, PitchExtractor, cqt_input
from polyvox.synthgen import (DEFAULT_PRESETS, SynthConfig, gen_dataset, load_clips,
                              make_clip_score, render_score)

FRAMES = 740
WIDTH, LAYERS, HEADS = 128, 4, 4
SOURCE = Waveform(np.random.default_rng(4).uniform(-0.5, 0.5, int(5.5 * 44100)), 44100)
TRAIN_BATCH, TRAIN_FRAMES = 2, 200
PITCH_ENCODER = PitchEncoderConfig(model_dim=64, n_layers=2, n_heads=4, window_frames=160)
# the fused condition: content, z_p, timbre, the reference mel and its visibility
COND_DIM = N_CONTENT + PITCH_ENCODER.model_dim + TIMBRE_DIM + N_MELS + 1
PITCH_BATCH = 3
DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])

# one untimed warm-up round before the timed ones in every `benchmark(...)` row;
# the `benchmark.pedantic` rows pass `warmup_rounds=1` themselves
pytestmark = pytest.mark.benchmark(warmup=True, warmup_iterations=1)


def _randomize(store: ParamStore, rng: np.random.Generator, dtype,
               requires_grad: bool = False) -> None:
    """Small random values in place of the initial ones, whose zero
    projections would hide the work, held in `dtype` as `Tensor` holds it.
    The parameters are constants, as a loaded model's are, unless
    `requires_grad`."""
    for p in store.params.values():
        p.data = T.Tensor(rng.normal(scale=0.05, size=p.data.shape).astype(dtype)).data
        p.requires_grad = requires_grad


def _velocity_net(rng: np.random.Generator, dtype, requires_grad: bool = False):
    store = ParamStore(rng)
    net = VelocityNet(store, COND_DIM, WIDTH, LAYERS, HEADS)
    _randomize(store, rng, dtype, requires_grad)
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
    store = ParamStore(rng)
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
    cond = rng.standard_normal((FRAMES, COND_DIM))
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


def test_compute_cqt_60s(benchmark):
    clip = Waveform(np.random.default_rng(13).uniform(-0.5, 0.5, 60 * 44100), 44100)
    mat = benchmark.pedantic(compute_cqt, args=(clip,), rounds=5, warmup_rounds=1)
    assert mat.frames == 60 * 44100 // HOP + 1


def _train_step_inputs(dtype):
    """A trainable velocity net in `dtype`, its parameters and one
    smoke-shaped batch."""
    rng = np.random.default_rng(8)
    net, store = _velocity_net(rng, dtype, requires_grad=True)
    x1 = rng.standard_normal((TRAIN_BATCH, TRAIN_FRAMES, 80))
    cond = rng.standard_normal((TRAIN_BATCH, TRAIN_FRAMES, COND_DIM)).astype(dtype)
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


def test_render_score(benchmark):
    """One 5.5 s harmony clip of the corpus: lead and harmony voice."""
    score = make_clip_score(SynthConfig(dur_range=(5.5, 5.5)), "harmony",
                            np.random.default_rng(12))
    wave, truth = benchmark(render_score, score, DEFAULT_PRESETS[1], 12)
    assert wave.duration >= 5.5 and len(truth) == 2 * len(score.lead)


def test_converter_fit(benchmark, tmp_path):
    """4 converter train steps through `_fit` (forward, backward, AdamW) in
    float32; `extra_info` holds the traced peak of one untimed run."""
    loss, params = _train_step_inputs(np.float32)
    named = {str(i): p for i, p in enumerate(params)}

    def fit():
        return _fit(named, loss, 4, ConverterConfig().peak_lr, lambda path, step: None,
                    tmp_path / "unused", None, None)

    benchmark.pedantic(fit, rounds=3, warmup_rounds=1)
    tracemalloc.start()
    try:
        fit()
        benchmark.extra_info["tracemalloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_load_clips(benchmark, tmp_path):
    """Both splits of a 20 x 5.5 s PCM16 corpus, as the trainers and
    `evaluate` read them."""
    manifest = gen_dataset(SynthConfig(n_single=10, n_harmony=10, dur_range=(5.5, 5.5)), 12,
                           tmp_path)

    def load():
        return load_clips(manifest, "train") + load_clips(manifest, "eval")

    assert len(benchmark(load)) == 20
    tracemalloc.start()
    try:
        clips = load()
        benchmark.extra_info["resident_mb"] = tracemalloc.get_traced_memory()[0] / 2**20
    finally:
        tracemalloc.stop()
    assert len(clips) == 20
    benchmark.extra_info["wav_files_mb"] = sum(
        p.stat().st_size for p in tmp_path.rglob("*.wav")) / 2**20
