import contextlib
import csv
import dataclasses
import importlib
import io
import json
import pkgutil
import re
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

import polyvox
from polyvox import audio as audio_module
from polyvox import cli
from polyvox import converter as converter_module
from polyvox import optim as optim_module
from polyvox import evaluate as evaluate_module
from polyvox import pitch as pitch_module
from polyvox import tensor as T
from polyvox.audio import (HOP, N_MELS, Waveform, load_pipeline_wav, load_wav, mel_spectrogram,
                           resample, save_wav)
from polyvox.converter import (ConverterConfig, ConverterModel, VelocityNet, convert, ode_sample,
                               train_converter)
from polyvox.cqt import compute_cqt, crop_to_vocal_range, load_cqt, transpose_pitch
from polyvox.errors import ContractError
from polyvox.features import N_CONTENT, TIMBRE_BANDS, TIMBRE_DIM, TimbreSpace
from polyvox.midi import ROLL_PITCHES
from polyvox.nn import ParamStore, xavier_uniform
from polyvox.optim import config_hash, load_checkpoint, save_checkpoint
from polyvox.pitch import (PitchEncoderConfig, PitchExtractor, PitchTrainConfig,
                           train_pitch_extractor)
from polyvox.synthgen import SynthConfig, gen_dataset, load_clips, load_manifest

TINY_ENCODER = PitchEncoderConfig(model_dim=16, n_layers=1, n_heads=4, window_frames=40)
TINY_CONVERTER = dict(width=32, n_layers=1, n_heads=4, window_frames=60, batch=2,
                      prompt_frames=50, nfe=2, gl_iters=2)
STEPS = 3


def _tiny_model() -> ConverterModel:
    rng = np.random.default_rng(0)
    timbre = TimbreSpace(rng.normal(size=(TIMBRE_BANDS, TIMBRE_DIM)), np.zeros(TIMBRE_BANDS),
                         np.ones(TIMBRE_BANDS))
    dim = TINY_ENCODER.model_dim
    return ConverterModel(ConverterConfig(**TINY_CONVERTER), PitchExtractor(TINY_ENCODER),
                          timbre, np.zeros(80), np.ones(80), rng.normal(size=dim),
                          rng.normal(size=(dim, dim)))


def _widened(store: ParamStore) -> dict[str, np.ndarray]:
    """A store's parameters as float64 arrays, to build a float64 copy of a model."""
    return {name: data.astype(np.float64) for name, data in store.arrays().items()}


def _float64_copy(model: ConverterModel) -> ConverterModel:
    """A constant copy of `model` whose converter parameters are float64."""
    return ConverterModel(model.cfg, model.pitch, model.timbre, model.mel_mean, model.mel_std,
                          model.z_p_mean, model.z_p_whiten, trainable=False,
                          arrays=_widened(model.store))


def _random_cond(model: ConverterModel, frames: int, seed: int) -> np.ndarray:
    """Random fused conditioning of `frames` rows for `model`'s velocity net."""
    cond_dim = model.net.input.w.shape[0] - N_MELS
    return np.random.default_rng(seed).normal(size=(frames, cond_dim))


def _edit_header(src, dst, section: str, edit) -> None:
    """Copy checkpoint `src` to `dst` with `edit` applied to the `section`
    object of its header's config and the config hash recomputed, as an
    older writer would have written it."""
    raw = src.read_bytes()
    (size,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8 : 8 + size])
    edit(header["config"][section])
    header["config_hash"] = config_hash(header["config"])
    blob = json.dumps(header, sort_keys=True).encode()
    dst.write_bytes(raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + size :])


def _train(manifest, out, seed=0):
    """Pitch then converter training at tiny shapes; returns the written
    files and the steps at which each trainer reported progress."""
    out.mkdir()
    files = {k: out / k for k in ("pitch.pvck", "pitch.csv", "svc.pvck", "svc.csv")}
    marks = {"pitch": [], "svc": []}
    train_pitch_extractor(manifest, PitchTrainConfig(encoder=TINY_ENCODER, batch=2), STEPS,
                          files["pitch.pvck"], log_path=files["pitch.csv"], seed=seed,
                          progress=lambda step, loss: marks["pitch"].append(step))
    train_converter(manifest, ConverterConfig(**TINY_CONVERTER), STEPS, files["pitch.pvck"],
                    files["svc.pvck"], log_path=files["svc.csv"], seed=seed,
                    progress=lambda step, loss: marks["svc"].append(step))
    return files, marks


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny_converter")
    manifest = gen_dataset(SynthConfig(n_single=2, n_harmony=2, dur_range=(2.0, 2.0),
                                       eval_fraction=0.25), seed=5, out_dir=root / "data")
    return manifest, _train(manifest, root / "a"), _train(manifest, root / "b")


class TestFuse:
    def test_mismatched_frames_rejected(self):
        model = _tiny_model()
        z_t = np.ones(TIMBRE_DIM) / np.sqrt(TIMBRE_DIM)
        with pytest.raises(ContractError, match="frames differ"):
            model.fuse(np.zeros((10, N_CONTENT)), np.zeros((11, TINY_ENCODER.model_dim)), z_t,
                       np.zeros((10, 80)), np.zeros((10, 1)))

    def test_batch_broadcasts_one_timbre_vector_per_item(self):
        model = _tiny_model()
        rng = np.random.default_rng(1)
        z_t = rng.normal(size=(2, TIMBRE_DIM))
        cond = model.fuse(rng.normal(size=(2, 7, N_CONTENT)),
                          rng.normal(size=(2, 7, TINY_ENCODER.model_dim)), z_t,
                          np.zeros((2, 7, 80)), np.ones((2, 7, 1)))
        lo = N_CONTENT + TINY_ENCODER.model_dim
        for i in range(2):
            columns = (z_t[i] * np.sqrt(TIMBRE_DIM)).astype(np.float32)
            assert np.array_equal(cond[i, :, lo : lo + TIMBRE_DIM], np.tile(columns, (7, 1)))

    def test_pitch_is_whitened_with_the_corpus_statistics(self):
        """Content passes as given and z_p is centred and whitened, both
        rounded to the net's dtype; nothing is learned on the way."""
        model = _tiny_model()
        rng = np.random.default_rng(2)
        content = rng.normal(size=(7, N_CONTENT))
        z_p = rng.normal(size=(7, TINY_ENCODER.model_dim))
        cond = model.fuse(content, z_p, np.ones(TIMBRE_DIM), np.zeros((7, 80)), np.ones((7, 1)))
        assert cond.dtype == model.net.dtype == np.float32
        assert np.array_equal(cond[:, :N_CONTENT], content.astype(np.float32))
        white = (z_p - model.z_p_mean) @ model.z_p_whiten
        assert np.array_equal(cond[:, N_CONTENT : N_CONTENT + TINY_ENCODER.model_dim],
                              white.astype(np.float32))


class TestWhitening:
    def test_whitened_rows_have_identity_covariance(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(4000, 6)) @ rng.normal(size=(6, 6)) + rng.normal(size=6)
        mean, whiten = converter_module._whitening(z)
        white = (z - mean) @ whiten
        assert np.allclose(white.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(white.T @ white / len(white), np.eye(6), atol=1e-9)
        assert np.allclose(whiten, whiten.T)

    def test_weak_directions_gain_no_more_than_the_floor_allows(self):
        """A direction with no variance, as a final layer norm leaves, is
        scaled as if its variance were the floor, not divided by zero."""
        rng = np.random.default_rng(4)
        z = rng.normal(size=(2000, 5)) * [3.0, 2.0, 1.0, 0.5, 0.0]
        _mean, whiten = converter_module._whitening(z)
        gains = np.linalg.eigvalsh(whiten)
        assert np.all(np.isfinite(gains))
        strongest = np.linalg.eigvalsh(np.cov(z, rowvar=False, bias=True)).max()
        assert gains.max() == pytest.approx((converter_module._WHITEN_FLOOR * strongest) ** -0.5)


class TestVelocityNet:
    def test_batch_of_one_equals_unbatched_call(self):
        net = VelocityNet(ParamStore(np.random.default_rng(2)), cond_dim=5, width=16,
                          n_layers=2, n_heads=4)
        rng = np.random.default_rng(3)
        psi, cond = rng.normal(size=(12, N_MELS)), rng.normal(size=(12, 5))
        single = net(psi, 0.37, cond).data
        batched = net(psi[None], np.array([0.37]), cond[None]).data
        assert batched.shape == (1, 12, N_MELS)
        assert np.array_equal(batched[0], single)


class _ConstantVelocity:
    """A stand-in velocity net that records the flow time of each call and
    returns the same velocity everywhere."""

    dtype = np.dtype(np.float32)

    def __init__(self, value: float):
        self.value = value
        self.times = []

    def __call__(self, psi, t, cond):
        self.times.append(t)
        return T.Tensor(np.full(psi.shape, self.value, dtype=self.dtype))


class TestOdeSample:
    @pytest.mark.parametrize("nfe, sway", [(1, -1.0), (4, -1.0), (5, 0.0), (3, 0.6)])
    def test_one_net_call_per_step_at_the_sway_knots_from_zero(self, nfe, sway):
        """`nfe` calls, the i-th at t = u + s * (cos(pi*u/2) - 1 + u) for
        u = i / nfe; the Euler steps span [0, 1], so a constant velocity v
        moves the noise by exactly v, in the net's dtype."""
        net = _ConstantVelocity(0.25)
        out = ode_sample(net, np.zeros((7, 5)), nfe, sway, np.random.default_rng(0))
        u = np.arange(nfe) / nfe
        assert len(net.times) == nfe and net.times[0] == 0.0
        assert np.allclose(net.times, u + sway * (np.cos(np.pi * u / 2.0) - 1.0 + u),
                           rtol=0.0, atol=1e-12)
        noise = np.random.default_rng(0).standard_normal((7, N_MELS)).astype(np.float32)
        assert out.dtype == np.float32
        assert np.max(np.abs(out - (noise + 0.25))) <= 1e-6


class TestTraining:
    def test_sub_second_train_clip_rejected_before_the_first_step(self, tiny_runs, tmp_path):
        """Each step embeds timbre from up to 1.2 s of a random train clip,
        and the embedding needs 1 s: a shorter clip is named up front, not
        when a step first draws it."""
        _manifest, (files, _), _ = tiny_runs
        manifest = gen_dataset(SynthConfig(n_single=8, n_harmony=0, dur_range=(0.3, 3.0),
                                           eval_fraction=0.1), seed=5, out_dir=tmp_path / "data")
        short = [r for r in load_manifest(manifest) if r["split"] == "train"
                 and r["duration_s"] < 1.0]
        assert short
        ckpt = tmp_path / "svc.pvck"
        with pytest.raises(ContractError, match=rf"train clip '{short[0]['id']}' is 0\.\d\d s;"):
            train_converter(manifest, ConverterConfig(**TINY_CONVERTER), 1, files["pitch.pvck"],
                            ckpt, log_path=tmp_path / "svc.csv")
        assert not ckpt.exists() and not (tmp_path / "svc.csv").exists()

    def test_same_seed_gives_identical_bytes(self, tiny_runs):
        _manifest, (a, _), (b, _) = tiny_runs
        for name in a:
            assert a[name].read_bytes() == b[name].read_bytes(), name

    def test_progress_cadence_and_csv_header(self, tiny_runs):
        _manifest, (files, marks), _ = tiny_runs
        assert marks == {"pitch": [0, STEPS - 1], "svc": [0, STEPS - 1]}
        for name in ("pitch.csv", "svc.csv"):
            with open(files[name], newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["step", "lr", "loss"]
            assert [int(r[0]) for r in rows[1:]] == list(range(STEPS))


def _one_train_step(monkeypatch, module, train) -> dict:
    """Run `train()` with `module._fit` replaced by one `batch_loss` and
    `backward`; returns the loss dtype and each parameter's gradient dtype."""
    seen = {}

    def one_step(params, batch_loss, steps, cfg, save, ckpt_path, log_path, progress):
        loss = batch_loss()
        T.backward(loss)
        seen["loss"] = loss.data.dtype
        seen["grads"] = {name: getattr(p.grad, "dtype", None) for name, p in params.items()}
        return ckpt_path

    monkeypatch.setattr(module, "_fit", one_step)
    train()
    return seen


class TestFloat32Training:
    """New parameters are float32, so both trainers compute in float32."""

    def test_new_parameters_are_float32(self):
        for store in (PitchExtractor(TINY_ENCODER).store, _tiny_model().store):
            assert {p.data.dtype for p in store.params.values()} == {np.dtype(np.float32)}

    def test_one_step_of_each_trainer_is_float32(self, tiny_runs, tmp_path, monkeypatch):
        manifest, (files, _), _ = tiny_runs
        pitch_step = _one_train_step(monkeypatch, pitch_module, lambda: train_pitch_extractor(
            manifest, PitchTrainConfig(encoder=TINY_ENCODER, batch=2), 1, tmp_path / "p"))
        svc_step = _one_train_step(monkeypatch, converter_module, lambda: train_converter(
            manifest, ConverterConfig(**TINY_CONVERTER), 1, files["pitch.pvck"], tmp_path / "s"))
        assert "velocity.input.w" in svc_step["grads"]
        for step in (pitch_step, svc_step):
            assert step["loss"] == np.float32
            assert step["grads"] == {name: np.float32 for name in step["grads"]}

    def test_new_store_round_trips_through_a_checkpoint(self, tmp_path):
        model = PitchExtractor(TINY_ENCODER)
        model.save(tmp_path / "p.pvck")
        back, _step, _header = load_checkpoint(tmp_path / "p.pvck")
        arrays = model.store.arrays()
        assert back.keys() == arrays.keys()
        for name, data in arrays.items():
            assert back[name].dtype == data.dtype == np.float32
            assert back[name].tobytes() == data.tobytes(), name

    def test_z_p_whitening_round_trips_through_a_checkpoint(self, tmp_path):
        model = _tiny_model()
        model.save(tmp_path / "s.pvck", step=0)
        loaded = ConverterModel.load(tmp_path / "s.pvck")
        for key in ("z_p_mean", "z_p_whiten"):
            value = getattr(model, key)
            assert np.array_equal(getattr(loaded, key), value.astype(np.float32)), key


def _topo(loss) -> list:
    """The nodes reachable from `loss`, parents before children, in the
    order `T.backward` visits them."""
    topo, visited, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents if id(p) not in visited)
    return topo


def _sweep_keeping_every_grad(loss) -> list:
    """Reference reverse sweep that leaves every node's gradient in place."""
    topo = _topo(loss)
    loss.grad = np.asarray(1.0)
    loss._grad_owned = True
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    return topo


def _trainers(tiny_runs, tmp_path):
    """(module, train) for each trainer at tiny shapes; `train(steps)` runs it."""
    manifest, (files, _), _ = tiny_runs
    return [
        (pitch_module, lambda steps: train_pitch_extractor(
            manifest, PitchTrainConfig(encoder=TINY_ENCODER, batch=2), steps, tmp_path / "p")),
        (converter_module, lambda steps: train_converter(
            manifest, ConverterConfig(**TINY_CONVERTER), steps, files["pitch.pvck"],
            tmp_path / "s")),
    ]


class TestTrainingMemory:
    """A train step holds one step's graph, and of its gradients only the
    parameters' outlive the backward sweep."""

    def test_backward_frees_interior_gradients(self, tiny_runs, tmp_path, monkeypatch):
        for module, train in _trainers(tiny_runs, tmp_path):
            graphs = []

            def build_only(params, batch_loss, steps, cfg, save, ckpt_path, log_path, progress):
                graphs.append(batch_loss())
                return ckpt_path

            monkeypatch.setattr(module, "_fit", build_only)
            train(1)
            loss = graphs.pop()
            topo = _sweep_keeping_every_grad(loss)
            interior = [n for n in topo if n._parents]
            leaves = [n for n in topo if n.requires_grad and not n._parents]
            assert leaves and all(n.grad is not None for n in interior)
            reference = {id(n): n.grad.copy() for n in leaves}
            T.zero_grads(topo)

            grads = T.backward(loss)
            assert [n for n in interior if n.grad is not None] == [], module.__name__
            assert {id(n) for n in grads} == reference.keys()
            for node in leaves:
                assert grads[node] is node.grad
                assert np.array_equal(node.grad, reference[id(node)])
            assert all(n._backward is not None for n in interior)  # the graph itself is kept

    def test_fit_drops_each_steps_graph(self, tiny_runs, tmp_path, monkeypatch):
        """Step k's loss, and the tape under it, are dead when step k + 1's
        `batch_loss()` starts. A tensor keeps its data alive, so a dead
        weak reference to the data means a dead tensor."""
        for module, train in _trainers(tiny_runs, tmp_path):
            refs, alive_at_start = [], []

            def tracking_fit(params, batch_loss, *args):
                def tracked():
                    alive_at_start.append(sum(ref() is not None for ref in refs))
                    loss = batch_loss()
                    refs.append(weakref.ref(loss.data))
                    refs.extend(weakref.ref(p.data) for p in loss._parents)
                    return loss

                return optim_module._fit(params, tracked, *args)

            monkeypatch.setattr(module, "_fit", tracking_fit)
            train(STEPS)
            assert alive_at_start == [0] * STEPS, module.__name__

    def test_fit_holds_no_whole_clip_beside_the_window(self, tiny_runs, tmp_path, monkeypatch):
        """While `_fit` builds a step, no float64 array the size of a whole
        train clip that `audio` allocated is alive: each clip is decoded
        once, to take its features before the first step, and no decode
        outlives that."""
        manifest, (files, _), _ = tiny_runs
        clip_bytes = 8 * min(c.wave.samples.size for c in load_clips(manifest, "train"))
        only_audio = [tracemalloc.Filter(True, audio_module.__file__)]
        whole_clips = []

        def counting_fit(params, batch_loss, *args):
            def counted():
                traces = tracemalloc.take_snapshot().filter_traces(only_audio).traces
                whole_clips.append(sum(t.size >= clip_bytes for t in traces))
                return batch_loss()

            return optim_module._fit(params, counted, *args)

        monkeypatch.setattr(converter_module, "_fit", counting_fit)
        tracemalloc.start()
        try:
            train_converter(manifest, ConverterConfig(**TINY_CONVERTER), STEPS,
                            files["pitch.pvck"], tmp_path / "s")
        finally:
            tracemalloc.stop()
        assert whole_clips == [0] * STEPS


class TestConvert:
    def test_loaded_model_gives_one_frame_per_hop(self, tiny_runs):
        manifest, (files, _), _ = tiny_runs
        rows = load_manifest(manifest)
        src, ref = (load_wav(manifest.parent / r["path"]) for r in rows[:2])
        model = ConverterModel.load(files["svc.pvck"])
        conversion = convert(src, ref, model)
        mel = conversion.mel
        assert mel.frames == src.samples.size // 441 + 1
        assert np.all(np.isfinite(mel.values))
        assert conversion.wave.samples.size == mel.frames * 441

    def test_clips_off_the_pipeline_rate_rejected(self):
        """Resampling is the loader's job (`load_pipeline_wav`), not convert's."""
        clip = Waveform(np.zeros(44100), 44100)
        for pair in ((resample(clip, 48000), clip), (clip, resample(clip, 22050))):
            with pytest.raises(ContractError, match="44.1 kHz"):
                convert(*pair, _tiny_model())

    def test_loaded_model_is_constant_and_samples_like_a_trainable_copy(self, tiny_runs):
        _manifest, (files, _), _ = tiny_runs
        loaded = ConverterModel.load(files["svc.pvck"])
        trainable = ConverterModel(loaded.cfg, loaded.pitch, loaded.timbre, loaded.mel_mean,
                                   loaded.mel_std, loaded.z_p_mean, loaded.z_p_whiten,
                                   arrays=loaded.store.arrays())
        assert not any(p.requires_grad for p in loaded.store.params.values())
        assert all(p.requires_grad for p in trainable.store.params.values())

        cond = _random_cond(loaded, 30, 4)
        samples = []
        for model in (loaded, trainable):
            rng = np.random.default_rng(8)
            samples.append(ode_sample(model.net, cond, 3, -1.0, rng))
        assert np.array_equal(samples[0], samples[1])
        assert loaded.net(samples[0], 0.5, cond)._parents == ()

    def test_loading_draws_no_weights(self, tiny_runs, monkeypatch):
        """A loaded model takes every parameter from its checkpoint; only a
        new model draws Xavier weights."""
        _manifest, (files, _), _ = tiny_runs
        draws = _count_calls(monkeypatch, xavier_uniform)
        loaded = ConverterModel.load(files["svc.pvck"])
        PitchExtractor.load(files["pitch.pvck"])
        assert draws == []
        arrays, _step, _header = load_checkpoint(files["svc.pvck"])
        for name, p in loaded.pitch.store.params.items():
            assert p.data.tobytes() == arrays[f"pitch.{name}"].tobytes(), name
        _tiny_model()
        assert draws

    def test_loaded_net_runs_in_float32_and_the_ode_state_in_the_nets_dtype(self, tiny_runs):
        _manifest, (files, _), _ = tiny_runs
        loaded = ConverterModel.load(files["svc.pvck"])
        cond = _random_cond(loaded, 30, 5)
        assert loaded.net(np.zeros((30, N_MELS)), 0.5, cond).data.dtype == np.float32
        for model, dtype in ((loaded, np.float32), (_float64_copy(loaded), np.float64)):
            sampled = ode_sample(model.net, cond, 3, -1.0, np.random.default_rng(8))
            assert sampled.dtype == dtype

    def test_loaded_model_samples_like_a_float64_copy(self, tiny_runs):
        _manifest, (files, _), _ = tiny_runs
        loaded = ConverterModel.load(files["svc.pvck"])
        wide = _float64_copy(loaded)
        assert all(p.data.dtype == np.float64 for p in wide.store.params.values())

        cond = _random_cond(loaded, 40, 6)
        samples = [ode_sample(model.net, cond, 8, -1.0, np.random.default_rng(9))
                   for model in (loaded, wide)]
        assert np.max(np.abs(samples[0] - samples[1])) <= 1e-4

    def test_float32_pitch_encoder_gives_the_float64_embedding(self, tiny_runs):
        """The loaded encoder computes float64 input in its float32 weights,
        within float32 rounding of a float64 copy of them."""
        _manifest, (files, _), _ = tiny_runs
        loaded = PitchExtractor.load(files["pitch.pvck"])
        wide = PitchExtractor(loaded.cfg, trainable=False, arrays=_widened(loaded.store))
        x = np.random.default_rng(7).uniform(size=(50, ROLL_PITCHES))
        z, z_wide = loaded.encode_cqt(x).data, wide.encode_cqt(x).data
        assert (z.dtype, z_wide.dtype) == (np.float32, np.float64)
        assert np.max(np.abs(z - z_wide)) <= 1e-5

    def test_every_network_op_of_a_conversion_is_float32(self, tiny_runs, monkeypatch):
        """The pitch encoder, `fuse`'s projections and the velocity net all
        compute in the loaded checkpoint's float32, whatever the dtype of
        the features they are given, and so do the concatenations that build
        the condition and the net's input from the ODE state."""
        manifest, (files, _), _ = tiny_runs
        src, ref = (load_wav(manifest.parent / r["path"]) for r in load_manifest(manifest)[:2])
        model = ConverterModel.load(files["svc.pvck"])
        seen = {}
        for name in ("matmul", "attention", "gelu", "layer_norm", "concat"):
            def recorded(*args, _op=getattr(T, name), _name=name, **kwargs):
                out = _op(*args, **kwargs)
                seen.setdefault(_name, []).append(out.data.dtype)
                return out
            monkeypatch.setattr(T, name, recorded)
        convert(src, ref, model)
        assert seen.keys() == {"matmul", "attention", "gelu", "layer_norm", "concat"}
        assert {dtype for dtypes in seen.values() for dtype in dtypes} == {np.dtype(np.float32)}

    def test_zero_griffin_lim_iterations_rejected(self):
        """A converter config cannot hold a Griffin-Lim count `convert`
        would fail on after sampling."""
        with pytest.raises(ContractError, match="gl_iters"):
            ConverterConfig(gl_iters=0)


class TestCheckpointConfig:
    """A checkpoint header must carry exactly its config's fields: a stale
    or missing key fails naming it and the known keys."""

    @pytest.mark.parametrize("section, edit, named, known", [
        ("converter", lambda c: c.update(ff_mult=4), "unknown keys ['ff_mult']", "'gl_iters'"),
        ("pitch_encoder", lambda c: c.update(input_bins=60), "unknown keys ['input_bins']",
         "'model_dim'"),
        ("converter", lambda c: c.pop("nfe"), "missing keys ['nfe']", "'gl_iters'"),
        ("converter", lambda c: c.update(nfe=2.5), "'converter': nfe must be an integer",
         "got 2.5"),
    ], ids=["converter-extra", "pitch_encoder-extra", "converter-missing", "converter-float"])
    def test_converter_checkpoint_convert_exits_2_naming_the_key(self, tiny_runs, tmp_path,
                                                                  section, edit, named, known):
        manifest, (files, _), _ = tiny_runs
        src, ref = (manifest.parent / r["path"] for r in load_manifest(manifest)[:2])
        ckpt = tmp_path / "stale.pvck"
        _edit_header(files["svc.pvck"], ckpt, section, edit)
        code, summary = TestCli._run(["convert", "--src", str(src), "--ref", str(ref),
                                      "--ckpt", str(ckpt), "--out", str(tmp_path / "out.wav")])
        assert (code, summary["status"]) == (2, "error"), summary
        assert summary["error"].startswith("ContractError")
        assert named in summary["error"] and known in summary["error"]
        assert not (tmp_path / "out.wav").exists()

    def test_converter_checkpoint_missing_an_array_convert_exits_2_naming_it(self, tiny_runs,
                                                                             tmp_path):
        manifest, (files, _), _ = tiny_runs
        src, ref = (manifest.parent / r["path"] for r in load_manifest(manifest)[:2])
        arrays, step, header = load_checkpoint(files["svc.pvck"])
        del arrays["mel.std"]
        ckpt = tmp_path / "cut.pvck"
        save_checkpoint(ckpt, arrays, step, header["config"])
        code, summary = TestCli._run(["convert", "--src", str(src), "--ref", str(ref),
                                      "--ckpt", str(ckpt), "--out", str(tmp_path / "out.wav")])
        assert (code, summary["status"]) == (2, "error"), summary
        assert summary["error"].startswith("ContractError")
        assert "'mel.std'" in summary["error"] and "(80,)" in summary["error"]
        assert not (tmp_path / "out.wav").exists()

    def test_pitch_checkpoint_with_a_stale_key_names_it(self, tiny_runs, tmp_path):
        _manifest, (files, _), _ = tiny_runs
        ckpt = tmp_path / "stale.pvck"
        _edit_header(files["pitch.pvck"], ckpt, "pitch_encoder", lambda c: c.update(input_bins=60))
        with pytest.raises(ContractError, match=r"unknown keys \['input_bins'\].*'model_dim'"):
            PitchExtractor.load(ckpt)


class TestCli:
    def test_evaluate_scores_a_48k_corpus(self, tiny_runs, tmp_path):
        """Sources and references at another rate are brought to 44.1 kHz
        once, before conversion and scoring."""
        _manifest, (files, _), _ = tiny_runs
        manifest = gen_dataset(SynthConfig(n_single=1, n_harmony=1, dur_range=(1.5, 1.5),
                                           eval_fraction=0.5), seed=6, out_dir=tmp_path / "data")
        for row in load_manifest(manifest):
            wav = manifest.parent / row["path"]
            save_wav(resample(load_wav(wav), 48000), wav)
        config = tmp_path / "evaluate.json"
        config.write_text(json.dumps({"seed": 0, "paths": {"report_dir": str(tmp_path / "r")}}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["evaluate", "--config", str(config), "--manifest", str(manifest),
                             "--ckpt", str(files["svc.pvck"])])
        summary = json.loads(out.getvalue().splitlines()[-1])
        assert code == 0, summary
        assert summary["clips"] == 1

    @staticmethod
    def _run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, json.loads(out.getvalue().splitlines()[-1])

    def test_train_commands_report_the_last_logged_loss(self, tiny_runs, tmp_path):
        """`final_loss` of each train command is the loss of its CSV's last row."""
        manifest, _, _ = tiny_runs
        ckpt = tmp_path / "ckpt"
        config = tmp_path / "train.json"
        config.write_text(json.dumps({
            "seed": 0,
            "paths": {"data_dir": str(manifest.parent), "checkpoint_dir": str(ckpt)},
            "pitch": {**dataclasses.asdict(TINY_ENCODER), "steps": STEPS, "batch": 2},
            "converter": {**TINY_CONVERTER, "steps": STEPS},
        }))
        for command, log in (("train-pitch", "pitch_train.csv"),
                             ("train-svc", "converter_train.csv")):
            code, summary = self._run([command, "--config", str(config)])
            assert code == 0, summary
            with open(ckpt / log, newline="") as fh:
                last = list(csv.reader(fh))[-1]
            assert int(last[0]) == STEPS - 1
            assert summary["final_loss"] == float(last[2])

    @pytest.mark.parametrize("command,flag", [
        ("convert", ["--nfe", "0"]), ("convert", ["--sway", "3"]), ("convert", ["--sway", "nan"]),
        ("convert", ["--seed", "-1"]), ("convert", ["--transpose", "84"]),
        ("convert", ["--transpose", "-84"]), ("cqt", ["--transpose", "90"])],
        ids=[f"flag{i}" for i in range(7)])
    def test_invalid_schedule_is_a_usage_error(self, tiny_runs, tmp_path, command, flag):
        """A bad --nfe or --sway, a --seed that breaks the run seed's rule,
        or a --transpose that shifts past the CQT's bins, exits 1, as a
        configuration error, before any input is read."""
        manifest, (files, _), _ = tiny_runs
        src, ref = (manifest.parent / r["path"] for r in load_manifest(manifest)[:2])
        inputs = {"convert": ["--src", str(src), "--ref", str(ref),
                              "--ckpt", str(files["svc.pvck"])],
                  "cqt": ["--in", str(src)]}[command]
        code, summary = self._run([command, *inputs, "--out", str(tmp_path / "out.wav"), *flag])
        assert (code, summary["status"]) == (1, "config-error"), summary
        assert flag[0] in summary["error"]
        assert not (tmp_path / "out.wav").exists()

    def test_evaluate_names_a_sub_second_clip_before_converting(self, tiny_runs, tmp_path,
                                                                monkeypatch):
        """Every eval clip and its reference are checked against `convert`'s
        1 s rule before the first conversion; the error names the clip, its
        role and its duration."""
        _manifest, (files, _), _ = tiny_runs
        manifest = gen_dataset(SynthConfig(n_single=8, n_harmony=0, dur_range=(0.3, 3.0),
                                           eval_fraction=0.25), seed=5, out_dir=tmp_path / "data")
        converted = []
        monkeypatch.setattr(cli, "convert", lambda *args, **kwargs: converted.append(args))
        config = tmp_path / "evaluate.json"
        config.write_text(json.dumps({"seed": 0, "paths": {"report_dir": str(tmp_path / "r")}}))
        code, summary = self._run(["evaluate", "--config", str(config), "--manifest",
                                   str(manifest), "--ckpt", str(files["svc.pvck"])])
        assert (code, summary["status"]) == (2, "error"), summary
        assert "eval clip 'single_0004' (source) is 0.42 s" in summary["error"]  # 0.427 s
        assert converted == []
        assert not (tmp_path / "r").exists()

    def test_convert_and_evaluate_report_wall_time_and_rtf(self, tiny_runs, tmp_path):
        manifest, (files, _), _ = tiny_runs
        src, ref = (manifest.parent / r["path"] for r in load_manifest(manifest)[:2])
        code, summary = self._run(["convert", "--src", str(src), "--ref", str(ref),
                                   "--ckpt", str(files["svc.pvck"]),
                                   "--out", str(tmp_path / "out.wav")])
        assert code == 0, summary
        assert np.isclose(summary["rtf"], summary["wall_s"] / load_wav(src).duration)

        eval_manifest = gen_dataset(SynthConfig(n_single=1, n_harmony=1, dur_range=(1.5, 1.5),
                                                eval_fraction=0.5), seed=6,
                                    out_dir=tmp_path / "data")
        config = tmp_path / "evaluate.json"
        config.write_text(json.dumps({"seed": 0, "paths": {"report_dir": str(tmp_path / "r")}}))
        code, evaluated = self._run(["evaluate", "--config", str(config), "--manifest",
                                     str(eval_manifest), "--ckpt", str(files["svc.pvck"])])
        assert code == 0, evaluated
        for s in (summary, evaluated):
            assert all(np.isfinite(s[k]) and s[k] > 0 for k in ("wall_s", "rtf")), s

    @pytest.mark.parametrize("silent", ["source", "reference", "both"])
    def test_silent_input_converts_to_a_finite_wav(self, tiny_runs, tmp_path, silent):
        """Silent audio as the source, the reference or both converts to a
        finite WAV of frames * HOP samples."""
        manifest, (files, _), _ = tiny_runs
        src, ref = (manifest.parent / r["path"] for r in load_manifest(manifest)[:2])
        quiet = tmp_path / "silence.wav"
        save_wav(Waveform(np.zeros(int(1.5 * 44100)), 44100), quiet)
        if silent in ("source", "both"):
            src = quiet
        if silent in ("reference", "both"):
            ref = quiet
        out = tmp_path / "out.wav"
        code, summary = self._run(["convert", "--src", str(src), "--ref", str(ref),
                                   "--ckpt", str(files["svc.pvck"]), "--out", str(out)])
        assert code == 0, summary
        samples = load_wav(out).samples
        assert samples.size == summary["frames"] * HOP
        assert np.all(np.isfinite(samples))

    def test_loud_conversion_is_scaled_not_clipped(self, tiny_runs, tmp_path):
        """A conversion whose peak exceeds 1 is divided by that peak before
        it is written, and the summary reports the peak: the file holds the
        waveform over its peak to a PCM16 step, and only the peak sample
        reaches full scale."""
        manifest, (files, _), _ = tiny_runs
        src, ref = (manifest.parent / r["path"] for r in load_manifest(manifest)[:2])
        out = tmp_path / "out.wav"
        code, summary = self._run(["convert", "--src", str(src), "--ref", str(ref),
                                   "--ckpt", str(files["svc.pvck"]), "--out", str(out)])
        assert code == 0, summary
        wave = convert(load_pipeline_wav(src), load_pipeline_wav(ref),
                       ConverterModel.load(files["svc.pvck"])).wave.samples
        peak = summary["peak"]
        assert peak == np.abs(wave).max() > 1.0
        written = load_wav(out).samples
        assert np.max(np.abs(written * peak - wave)) <= 0.5 * peak / 32767 * (1 + 1e-9)
        assert np.count_nonzero(np.abs(written) == 1.0) == np.count_nonzero(np.abs(wave) == peak)

    @staticmethod
    def _eval_manifest(tiny_runs, tmp_path, n_eval=2):
        """The tiny corpus with its first `n_eval` clips moved to the eval
        split, and a config that writes reports under tmp_path."""
        manifest, (files, _), _ = tiny_runs
        rows = [dict(row, path=str(manifest.parent / row["path"]),
                     split="eval" if i < n_eval else "train")
                for i, row in enumerate(load_manifest(manifest))]
        eval_manifest = tmp_path / "manifest.jsonl"
        eval_manifest.write_text("".join(json.dumps(row) + "\n" for row in rows))
        config = tmp_path / "evaluate.json"
        config.write_text(json.dumps({"seed": 0, "paths": {"report_dir": str(tmp_path / "r")}}))
        argv = ["evaluate", "--config", str(config), "--manifest", str(eval_manifest),
                "--ckpt", str(files["svc.pvck"])]
        return rows[:n_eval], argv

    def test_transposed_convert_reports_its_shift_and_writes_its_mel(self, tiny_runs, tmp_path):
        """`--mel-out` into a directory that does not exist yet creates it,
        as `--out` does."""
        manifest, (files, _), _ = tiny_runs
        src, ref = (manifest.parent / r["path"] for r in load_manifest(manifest)[:2])
        out, mel_path = tmp_path / "out.wav", tmp_path / "c" / "d" / "out.mel"
        code, summary = self._run(["convert", "--src", str(src), "--ref", str(ref),
                                   "--ckpt", str(files["svc.pvck"]), "--out", str(out),
                                   "--transpose", "2", "--mel-out", str(mel_path)])
        assert code == 0, summary
        shift = summary["measured_shift_bins"]
        assert type(shift) is int
        assert shift == (cli._mean_profile_argmax(compute_cqt(load_pipeline_wav(out)))
                         - cli._mean_profile_argmax(compute_cqt(load_pipeline_wav(src))))

        model = ConverterModel.load(files["svc.pvck"])
        conversion = convert(load_pipeline_wav(src), load_pipeline_wav(ref), model, transpose=2)
        raw = mel_path.read_bytes()
        header = struct.Struct("<4sIIdIII")
        magic, frames, bands = header.unpack(raw[: header.size])[:3]
        assert (magic, frames, bands) == (b"MEL1", summary["frames"], 80)
        assert raw[header.size :] == conversion.mel.values.astype("<f4").tobytes()

    def test_transposed_silent_source_reports_no_shift(self, tiny_runs, tmp_path):
        """A silent source's CQT profile has no energy, so no peak to shift
        from: the summary reports `measured_shift_bins` null, not a bin."""
        manifest, (files, _), _ = tiny_runs
        ref = manifest.parent / load_manifest(manifest)[0]["path"]
        quiet = tmp_path / "silence.wav"
        save_wav(Waveform(np.zeros(int(1.5 * 44100)), 44100), quiet)
        code, summary = self._run(["convert", "--src", str(quiet), "--ref", str(ref),
                                   "--ckpt", str(files["svc.pvck"]),
                                   "--out", str(tmp_path / "out.wav"), "--transpose", "2"])
        assert code == 0, summary
        assert summary["measured_shift_bins"] is None

    def test_evaluate_dumps_one_mel_image_per_eval_clip(self, tiny_runs, tmp_path):
        eval_rows, argv = self._eval_manifest(tiny_runs, tmp_path)
        code, summary = self._run(argv + ["--pgm"])
        assert code == 0, summary
        pgm_dir = tmp_path / "r" / "pgm"
        assert sorted(p.name for p in pgm_dir.iterdir()) == sorted(
            f"{row['id']}_mel.pgm" for row in eval_rows)
        for row in eval_rows:
            frames = load_pipeline_wav(row["path"]).samples.size // 441 + 1
            data = (pgm_dir / f"{row['id']}_mel.pgm").read_bytes()
            head = f"P5\n80 {frames}\n255\n".encode()
            assert data.startswith(head)
            assert len(data) == len(head) + 80 * frames

    def test_cqt_command_writes_csv_and_a_container_that_loads(self, tiny_runs, tmp_path):
        manifest, _, _ = tiny_runs
        src = manifest.parent / load_manifest(manifest)[0]["path"]
        expected = crop_to_vocal_range(transpose_pitch(compute_cqt(load_pipeline_wav(src)), 2))
        for name in ("c.csv", "c.cqt"):
            code, summary = self._run(["cqt", "--in", str(src), "--out", str(tmp_path / name),
                                       "--crop", "--transpose", "2"])
            assert code == 0, summary
            assert (summary["frames"], summary["bins"]) == (expected.frames, 60)
        with open(tmp_path / "c.csv", newline="") as fh:
            table = list(csv.reader(fh))
        assert len(table) == expected.frames + 1 and len(table[0]) == 61
        values = np.array([[float(v) for v in line[1:]] for line in table[1:]])
        assert np.allclose(values, expected.magnitudes, rtol=1e-7, atol=0)
        loaded = load_cqt(tmp_path / "c.cqt")
        assert loaded.bins == 60
        assert np.array_equal(loaded.magnitudes,
                              expected.magnitudes.astype(np.float32).astype(np.float64))
        assert np.isclose(loaded.bin_frequency(0), expected.bin_frequency(0), rtol=1e-12)


def _count_calls(monkeypatch, fn) -> list:
    """Rebind `fn` under every polyvox module name that refers to it, to a
    wrapper that records the positional arguments of each call; returns the
    record."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for info in pkgutil.iter_modules(polyvox.__path__):
        module = importlib.import_module(f"polyvox.{info.name}")
        if getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


class TestEachFeatureOnce:
    """`convert` returns what it computed, so no command takes a mel, CQT,
    timbre embedding or peak mask of the same clip twice."""

    def test_transposed_convert_takes_three_cqts(self, tiny_runs, tmp_path, monkeypatch):
        manifest, (files, _), _ = tiny_runs
        src, ref = (manifest.parent / r["path"] for r in load_manifest(manifest)[:2])
        cqts = _count_calls(monkeypatch, compute_cqt)
        code, summary = TestCli._run(["convert", "--src", str(src), "--ref", str(ref),
                                      "--ckpt", str(files["svc.pvck"]),
                                      "--out", str(tmp_path / "out.wav"), "--transpose", "2"])
        assert code == 0, summary
        assert len(cqts) == 3  # source, reference, output

    def test_evaluate_takes_three_mels_and_one_peak_mask_per_clip(self, tiny_runs, tmp_path,
                                                                   monkeypatch):
        eval_rows, argv = TestCli._eval_manifest(tiny_runs, tmp_path)
        mels = _count_calls(monkeypatch, mel_spectrogram)
        masks = _count_calls(monkeypatch, evaluate_module.multipitch_from_cqt)
        embeds = []
        embed = TimbreSpace.embed
        monkeypatch.setattr(TimbreSpace, "embed",
                            lambda self, mel: embeds.append(None) or embed(self, mel))
        code, summary = TestCli._run(argv)
        assert code == 0, summary
        n = len(eval_rows)
        assert (len(mels), len(masks), len(embeds)) == (3 * n, n, 2 * n)


def _cut_corpus(manifest, data, ids, samples: int):
    """A copy of the corpus of `manifest` under `data` whose clips named in
    `ids` are cut to their first `samples` samples; returns its manifest."""
    for row in load_manifest(manifest):
        wave = load_wav(manifest.parent / row["path"])
        if row["id"] in ids:
            wave = Waveform(wave.samples[:samples], wave.sample_rate)
        (data / row["path"]).parent.mkdir(parents=True, exist_ok=True)
        save_wav(wave, data / row["path"])
        (data / row["path"]).with_suffix(".mid").write_bytes(
            (manifest.parent / row["path"]).with_suffix(".mid").read_bytes())
    cut = data / manifest.name
    cut.write_text(manifest.read_text())
    return cut


class TestClipInputs:
    """`clip_inputs` is the one recipe for a clip's mel, content and z_p, and
    `check_clip_length` the one length rule, in training as at inference."""

    def test_one_call_per_train_clip_and_two_per_conversion(self, tiny_runs, tmp_path,
                                                             monkeypatch):
        manifest, (files, _), _ = tiny_runs
        calls = _count_calls(monkeypatch, converter_module.clip_inputs)
        train_converter(manifest, ConverterConfig(**TINY_CONVERTER), 1, files["pitch.pvck"],
                        tmp_path / "s")
        assert len(calls) == len(load_clips(manifest, "train"))
        calls.clear()
        src, ref = (load_wav(manifest.parent / r["path"]) for r in load_manifest(manifest)[:2])
        convert(src, ref, ConverterModel.load(files["svc.pvck"]), transpose=2)
        assert len(calls) == 2

    def test_a_train_clip_holds_what_convert_computes_for_it_as_source(self, tiny_runs,
                                                                       tmp_path, monkeypatch):
        """Each train clip's stored mel, content and z_p are, byte for byte,
        the source streams `convert` fuses for the same wave."""
        manifest, (files, _), _ = tiny_runs
        stored = {}

        def keep_arrays(params, batch_loss, steps, peak_lr, save, ckpt_path, *rest):
            cells = dict(zip(batch_loss.__code__.co_freevars, batch_loss.__closure__))
            stored["clips"] = cells["clips"].cell_contents
            return ckpt_path

        monkeypatch.setattr(converter_module, "_fit", keep_arrays)
        train_converter(manifest, ConverterConfig(**TINY_CONVERTER), 1, files["pitch.pvck"],
                        tmp_path / "s")
        fused = []
        fuse = ConverterModel.fuse
        monkeypatch.setattr(ConverterModel, "fuse",
                            lambda model, *inputs: fused.append(inputs) or fuse(model, *inputs))
        model = ConverterModel.load(files["svc.pvck"])
        clips = load_clips(manifest, "train")
        for i, clip in enumerate(clips):
            conversion = convert(clip.wave, clips[i - 1].wave, model)
            content, z_p = fused.pop()[:2]
            n = conversion.source_mel.frames  # the source's rows follow the prompt
            mel, stored_content, stored_z_p = stored["clips"][i]
            assert conversion.source_mel.values.tobytes() == mel.tobytes()
            assert content[-n:].tobytes() == stored_content.tobytes()
            assert z_p[-n:].tobytes() == stored_z_p.tobytes()

    def test_a_clip_just_short_of_1_s_is_rejected_everywhere(self, tiny_runs, tmp_path,
                                                            monkeypatch):
        """43,900 samples make 100 mel frames, enough for the timbre
        embedding, but last 0.995 s: training, `convert` and `evaluate` all
        reject such a clip before any CQT, naming it as 0.99 s."""
        manifest, (files, _), _ = tiny_runs
        data = tmp_path / "data"
        rows = load_manifest(manifest)
        train = [r for r in rows if r["split"] == "train"]
        short_manifest = _cut_corpus(manifest, data, {r["id"] for r in train}, 43900)
        short = load_wav(data / train[0]["path"])
        assert mel_spectrogram(short).frames == 100
        cqts = _count_calls(monkeypatch, compute_cqt)
        messages = []
        with pytest.raises(ContractError, match=rf"train clip '{train[0]['id']}' is 0\.99 s") as e:
            train_converter(short_manifest, ConverterConfig(**TINY_CONVERTER), 1,
                            files["pitch.pvck"], tmp_path / "s")
        messages.append(str(e.value))
        model = ConverterModel.load(files["svc.pvck"])
        other = load_wav(manifest.parent / rows[0]["path"])
        for role, pair in (("source", (short, other)), ("reference", (other, short))):
            with pytest.raises(ContractError, match=rf"^{role} is 0\.99 s") as e:
                convert(*pair, model)
            messages.append(str(e.value))
        config = tmp_path / "evaluate.json"
        config.write_text(json.dumps({"seed": 0, "paths": {"report_dir": str(tmp_path / "r")}}))
        code, summary = TestCli._run(["evaluate", "--config", str(config), "--manifest",
                                      str(short_manifest), "--ckpt", str(files["svc.pvck"])])
        assert (code, summary["status"]) == (2, "error"), summary
        assert re.search(r"train clip '\w+' \(reference of '\w+'\) is 0\.99 s",
                         summary["error"]), summary
        messages.append(summary["error"])
        assert cqts == []
        assert not any("1.00 s" in message for message in messages)


class TestConverterBatch:
    """A converter train step fuses each batch item's condition as it draws
    the item, from the window it cut out of that clip's arrays, never the
    clip."""

    def test_each_item_fuses_window_sized_inputs(self, tiny_runs, tmp_path, monkeypatch):
        manifest, (files, _), _ = tiny_runs
        win = TINY_CONVERTER["window_frames"]
        fused = []
        fuse = ConverterModel.fuse

        def recording(model, *inputs):
            fused.append(tuple(x.shape for x in inputs))
            return fuse(model, *inputs)

        monkeypatch.setattr(ConverterModel, "fuse", recording)
        _one_train_step(monkeypatch, converter_module, lambda: train_converter(
            manifest, ConverterConfig(**TINY_CONVERTER), 1, files["pitch.pvck"], tmp_path / "s"))
        item = ((win, N_CONTENT), (win, TINY_ENCODER.model_dim), (TIMBRE_DIM,), (win, N_MELS),
                (win, 1))
        assert fused == [item] * TINY_CONVERTER["batch"]

    def test_a_short_train_clip_is_padded_and_masked_as_the_pitch_trainer_does(
            self, tiny_runs, tmp_path, monkeypatch):
        """A 1.5 s train clip, 151 frames, passes the length rule but is
        shorter than a 200-frame window. Every item still fuses 200 frames:
        that clip's items are zero-padded with the padding masked from the
        condition, their hidden span, the loss mask, lies on its real frames,
        and the other clips train on full windows."""
        manifest, (files, _), _ = tiny_runs
        short_id = next(r["id"] for r in load_manifest(manifest) if r["split"] == "train")
        cut = _cut_corpus(manifest, tmp_path / "data", {short_id}, 66150)
        frames = {c.id: mel_spectrogram(c.wave).frames for c in load_clips(cut, "train")}
        assert frames.pop(short_id) == 151 and min(frames.values()) >= 200
        shapes, items = [], []
        fuse, loss = ConverterModel.fuse, converter_module.cfm_loss

        def recording_fuse(model, *inputs):
            shapes.append(tuple(x.shape for x in inputs))
            return fuse(model, *inputs)

        def recording_loss(net, x1, cond, rng, loss_mask):
            items.extend(zip(cond, loss_mask))
            return loss(net, x1, cond, rng, loss_mask=loss_mask)

        monkeypatch.setattr(ConverterModel, "fuse", recording_fuse)
        monkeypatch.setattr(converter_module, "cfm_loss", recording_loss)
        train_converter(cut, ConverterConfig(**dict(TINY_CONVERTER, window_frames=200)), STEPS,
                        files["pitch.pvck"], tmp_path / "s")
        item = ((200, N_CONTENT), (200, TINY_ENCODER.model_dim), (TIMBRE_DIM,), (200, N_MELS),
                (200, 1))
        assert shapes == [item] * TINY_CONVERTER["batch"] * STEPS
        real_frames = []
        for cond, hidden in items:
            visible = cond[:, -1:]
            n = int((visible + hidden).sum())
            assert np.array_equal(visible + hidden, np.arange(200)[:, None] < n)
            assert hidden.any() and not hidden[n:].any()
            if n < 200:  # the padding carries no content and no reference mel
                assert not cond[n:, :N_CONTENT].any() and not cond[n:, -1 - N_MELS :].any()
            real_frames.append(n)
        assert 151 in real_frames and set(real_frames) <= {151, 200}


class TestTrainStep:
    def test_a_converter_step_does_no_signal_processing(self, tiny_runs, tmp_path,
                                                        monkeypatch):
        """Mels, content and z_p are computed once per clip before the first
        step; a step only cuts windows out of them, and decodes no clip."""
        manifest, (files, _), _ = tiny_runs
        calls = {}

        def counting_fit(*args):
            for fn in (audio_module.stft, mel_spectrogram, audio_module.decode_wav):
                calls[fn.__name__] = _count_calls(monkeypatch, fn)
            return optim_module._fit(*args)

        monkeypatch.setattr(converter_module, "_fit", counting_fit)
        train_converter(manifest, ConverterConfig(**TINY_CONVERTER), STEPS,
                        files["pitch.pvck"], tmp_path / "s")
        assert calls == {"stft": [], "mel_spectrogram": [], "decode_wav": []}
