"""Kernel timings for the inference path of `polyvox convert`.

Shapes are those of the `convert-long` benchmark workload: attention over
about 740 frames (150 prompt + 590 source) at width 128 x 4 layers, 48
Griffin-Lim iterations over 600 frames, and a 5.5 s source resampled from
48 to 44.1 kHz. Run from the repository root with the installed
pytest-benchmark plugin (this directory is outside tier-1's `testpaths`):

    python -m pytest benches -q --benchmark-json=<file>
"""

import numpy as np
import pytest

from polyvox import tensor as T
from polyvox.audio import MEL_CONFIG, MelSpectrogram, Waveform, griffin_lim, resample
from polyvox.converter import VelocityNet, VelocityNetConfig
from polyvox.nn import ParamStore

FRAMES = 740
WIDTH, LAYERS, HEADS = 128, 4, 4
COND_DIM = 377  # N_CONTENT + pitch model_dim 64 + TIMBRE_DIM + 80 mel bands + 1


def test_softmax(benchmark):
    """Attention weights from raw (HEADS, T, T) scores, scaled as
    `MultiHeadAttention` scales them."""
    scores = T.Tensor(np.random.default_rng(0).normal(size=(HEADS, FRAMES, FRAMES)))
    y = benchmark(T.softmax, scores, axis=-1, scale=1.0 / np.sqrt(WIDTH // HEADS))
    assert y.shape == scores.shape


def test_velocity_net_forward(benchmark):
    """One network evaluation (one NFE) with constant parameters, as a
    loaded converter runs it."""
    rng = np.random.default_rng(1)
    store = ParamStore(rng, trainable=False)
    net = VelocityNet(store, VelocityNetConfig(cond_dim=COND_DIM, width=WIDTH,
                                               n_layers=LAYERS, n_heads=HEADS))
    for p in store.params.values():  # zero-initialised projections would hide the work
        p.data = rng.normal(scale=0.05, size=p.data.shape)
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
