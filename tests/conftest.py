import struct

import numpy as np
import pytest

from polyvox.audio import Waveform
from polyvox.synthgen import SynthConfig, gen_dataset, load_manifest

SR = 44100
WAVE_PCM, WAVE_FLOAT = 1, 3


def write_wav(path, frames: np.ndarray, tag: int, rate: int) -> None:
    """A WAV file of `frames`, (samples,) mono or (samples, 2) stereo, in
    their own little-endian codes: int16 with `tag` 1, float32 with 3, and
    any header `rate`."""
    channels = 1 if frames.ndim == 1 else frames.shape[1]
    payload = frames.tobytes()
    block = channels * frames.itemsize
    path.write_bytes(struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE",
                                 b"fmt ", 16, tag, channels, rate, rate * block, block,
                                 8 * frames.itemsize, b"data", len(payload)) + payload)


def make_sine(freq: float, dur: float = 1.0, amp: float = 1.0, sr: int = SR) -> Waveform:
    t = np.arange(int(round(dur * sr))) / sr
    return Waveform(amp * np.sin(2.0 * np.pi * freq * t), sr)


@pytest.fixture(scope="session")
def sine_440():
    return make_sine(440.0)


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """Small mixed corpus for unit tests: 4 single + 4 harmony clips."""
    root = tmp_path_factory.mktemp("tiny_corpus")
    manifest = gen_dataset(
        SynthConfig(n_single=4, n_harmony=4, dur_range=(3.0, 4.0)), seed=11, out_dir=root)
    return manifest


@pytest.fixture(scope="session")
def tiny_rows(tiny_corpus):
    return load_manifest(tiny_corpus)
