"""Kernel timings for the inference path of `polyvox convert`.

Shapes are those of the `convert-long` benchmark workload: attention over
about 740 frames (150 prompt + 590 source) at width 128 x 4 layers, 48
Griffin-Lim iterations over 600 frames, a 5.5 s source resampled from 48 to
44.1 kHz, and the STFT, inverse STFT, mel spectrogram and CQT of that 5.5 s
source at 44.1 kHz. Run from the repository root with the installed
pytest-benchmark plugin (this directory is outside tier-1's `testpaths`):

    python -m pytest benches -q --benchmark-json=<file>
"""

import numpy as np
import pytest

from polyvox import tensor as T
from polyvox.audio import (MEL_CONFIG, MelSpectrogram, Waveform, griffin_lim, istft,
                           mel_spectrogram, resample, stft)
from polyvox.converter import VelocityNet, VelocityNetConfig
from polyvox.cqt import compute_cqt
from polyvox.nn import ParamStore

FRAMES = 740
WIDTH, LAYERS, HEADS = 128, 4, 4
COND_DIM = 377  # N_CONTENT + pitch model_dim 64 + TIMBRE_DIM + 80 mel bands + 1
SOURCE = Waveform(np.random.default_rng(4).uniform(-0.5, 0.5, int(5.5 * 44100)), 44100)


def test_softmax(benchmark):
    """Attention weights from raw (HEADS, T, T) scores, scaled as
    `MultiHeadAttention` scales them."""
    scores = T.Tensor(np.random.default_rng(0).normal(size=(HEADS, FRAMES, FRAMES)))
    y = benchmark(T.softmax, scores, axis=-1, scale=1.0 / np.sqrt(WIDTH // HEADS))
    assert y.shape == scores.shape


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_velocity_net_forward(benchmark, dtype):
    """One network evaluation (one NFE) with constant parameters. A loaded
    converter runs it in float32, the dtype its checkpoint stores; float64
    is what fresh parameters compute in."""
    rng = np.random.default_rng(1)
    store = ParamStore(rng, trainable=False)
    net = VelocityNet(store, VelocityNetConfig(cond_dim=COND_DIM, width=WIDTH,
                                               n_layers=LAYERS, n_heads=HEADS))
    for p in store.params.values():  # zero-initialised projections would hide the work
        # through `Tensor`, which decides what dtype the data is held in
        p.data = T.Tensor(rng.normal(scale=0.05, size=p.data.shape).astype(dtype)).data
    psi = rng.standard_normal((FRAMES, 80))
    cond = T.Tensor(rng.standard_normal((FRAMES, COND_DIM)))
    v = benchmark(lambda: net(psi, 0.5, cond).data)
    assert v.shape == (FRAMES, 80) and np.all(np.isfinite(v))


def test_griffin_lim(benchmark):
    rng = np.random.default_rng(2)
    mel = MelSpectrogram(rng.uniform(-6.0, 0.0, size=(600, 80)), 100.0)
    wave = benchmark.pedantic(griffin_lim, args=(mel,), kwargs={"iters": 48},
                              rounds=5, warmup_rounds=1)
    assert wave.samples.size == 600 * MEL_CONFIG.hop


def test_resample(benchmark):
    w = Waveform(np.random.default_rng(3).uniform(-1.0, 1.0, int(5.5 * 48000)), 48000)
    out = benchmark(resample, w, 44100)
    assert out.samples.size == int(5.5 * 44100)


def test_stft(benchmark):
    spec = benchmark(stft, SOURCE.samples, MEL_CONFIG)
    assert spec.shape == (SOURCE.samples.size // MEL_CONFIG.hop + 1, MEL_CONFIG.fft_size // 2 + 1)


def test_istft(benchmark):
    spec = stft(SOURCE.samples, MEL_CONFIG)
    x = benchmark(istft, spec, MEL_CONFIG, SOURCE.samples.size)
    assert np.max(np.abs(x - SOURCE.samples)) < 1e-9


def test_mel_spectrogram(benchmark):
    mel = benchmark(mel_spectrogram, SOURCE)
    assert mel.frames == SOURCE.samples.size // MEL_CONFIG.hop + 1


def test_compute_cqt(benchmark):
    mat = benchmark.pedantic(compute_cqt, args=(SOURCE,), rounds=5, warmup_rounds=1)
    assert np.all(np.isfinite(mat.magnitudes))
