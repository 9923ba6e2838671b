import contextlib
import csv
import io
import json

import numpy as np
import pytest

from polyvox import cli
from polyvox import converter as converter_module
from polyvox import pitch as pitch_module
from polyvox import tensor as T
from polyvox.audio import Waveform, load_wav, resample, save_wav
from polyvox.converter import (ConverterConfig, ConverterModel, SwaySchedule, VelocityNet,
                               VelocityNetConfig, convert, ode_sample, train_converter)
from polyvox.errors import ContractError
from polyvox.features import N_CONTENT, TIMBRE_BANDS, TIMBRE_DIM, TimbreSpace
from polyvox.nn import ParamStore
from polyvox.optim import load_checkpoint
from polyvox.pitch import (PitchEncoderConfig, PitchExtractor, PitchTrainConfig,
                           train_pitch_extractor)
from polyvox.synthgen import SynthConfig, gen_dataset, load_manifest

TINY_ENCODER = PitchEncoderConfig(model_dim=16, n_layers=1, n_heads=4, window_frames=40)
TINY_CONVERTER = dict(width=32, n_layers=1, n_heads=4, window_frames=60, batch=2,
                      prompt_frames=50, nfe=2, gl_iters=2)
STEPS = 3


def _tiny_model() -> ConverterModel:
    rng = np.random.default_rng(0)
    timbre = TimbreSpace(rng.normal(size=(TIMBRE_BANDS, TIMBRE_DIM)), np.zeros(TIMBRE_BANDS),
                         np.ones(TIMBRE_BANDS))
    return ConverterModel(ConverterConfig(**TINY_CONVERTER), PitchExtractor(TINY_ENCODER),
                          timbre, np.zeros(80), np.ones(80))


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
                                       eval_fraction=0.0), seed=5, out_dir=root / "data")
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
                          np.zeros((2, 7, 80)), np.ones((2, 7, 1))).data
        lo = N_CONTENT + TINY_ENCODER.model_dim
        for i in range(2):
            assert np.array_equal(cond[i, :, lo : lo + TIMBRE_DIM],
                                  np.tile(z_t[i] * np.sqrt(TIMBRE_DIM), (7, 1)))


class TestVelocityNet:
    def test_batch_of_one_equals_unbatched_call(self):
        cfg = VelocityNetConfig(mel_bands=8, cond_dim=5, width=16, n_layers=2, n_heads=4)
        net = VelocityNet(ParamStore(np.random.default_rng(2)), cfg)
        rng = np.random.default_rng(3)
        psi, cond = rng.normal(size=(12, 8)), rng.normal(size=(12, 5))
        single = net(psi, 0.37, cond).data
        batched = net(psi[None], np.array([0.37]), cond[None]).data
        assert batched.shape == (1, 12, 8)
        assert np.array_equal(batched[0], single)


class TestTraining:
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
        assert {"reg_content.w", "reg_pitch.w"} <= svc_step["grads"].keys()
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


class TestConvert:
    def test_loaded_model_gives_one_frame_per_hop(self, tiny_runs):
        manifest, (files, _), _ = tiny_runs
        rows = load_manifest(manifest)
        src, ref = (load_wav(manifest.parent / r["path"]) for r in rows[:2])
        model = ConverterModel.load(files["svc.pvck"])
        assert model.cfg.mask_span == ConverterConfig().mask_span
        wave, mel = convert(src, ref, model, SwaySchedule(nfe=2))
        assert mel.frames == src.samples.size // 441 + 1
        assert np.all(np.isfinite(mel.values))
        assert wave.samples.size == mel.frames * 441

    def test_clips_off_the_pipeline_rate_rejected(self):
        """Resampling is the loader's job (`load_pipeline_wav`), not convert's."""
        clip = Waveform(np.zeros(44100), 44100)
        for pair in ((resample(clip, 48000), clip), (clip, resample(clip, 22050))):
            with pytest.raises(ContractError, match="44.1 kHz"):
                convert(*pair, _tiny_model(), SwaySchedule(nfe=2))

    def test_loaded_model_is_constant_and_samples_like_a_trainable_copy(self, tiny_runs):
        _manifest, (files, _), _ = tiny_runs
        loaded = ConverterModel.load(files["svc.pvck"])
        trainable = ConverterModel(loaded.cfg, loaded.pitch, loaded.timbre, loaded.mel_mean,
                                   loaded.mel_std)
        trainable.store.load(loaded.store.arrays())
        assert not any(p.requires_grad for p in loaded.store.params.values())
        assert all(p.requires_grad for p in trainable.store.params.values())

        cond = np.random.default_rng(4).normal(size=(30, loaded.net.cfg.cond_dim))
        samples = []
        for model in (loaded, trainable):
            rng = np.random.default_rng(8)
            samples.append(ode_sample(model.net, cond, SwaySchedule(nfe=3), rng))
        assert np.array_equal(samples[0], samples[1])
        assert loaded.net(samples[0], 0.5, cond)._parents == ()

    def test_loaded_net_runs_in_float32_and_the_ode_state_in_float64(self, tiny_runs):
        _manifest, (files, _), _ = tiny_runs
        loaded = ConverterModel.load(files["svc.pvck"])
        cond = np.random.default_rng(5).normal(size=(30, loaded.net.cfg.cond_dim))
        assert loaded.net(np.zeros((30, 80)), 0.5, cond).data.dtype == np.float32
        sampled = ode_sample(loaded.net, cond, SwaySchedule(nfe=3), np.random.default_rng(8))
        assert sampled.dtype == np.float64

    def test_loaded_model_samples_like_a_float64_copy(self, tiny_runs):
        _manifest, (files, _), _ = tiny_runs
        loaded = ConverterModel.load(files["svc.pvck"])
        wide = ConverterModel(loaded.cfg, loaded.pitch, loaded.timbre, loaded.mel_mean,
                              loaded.mel_std, trainable=False)
        wide.store.load({k: v.astype(np.float64) for k, v in loaded.store.arrays().items()})
        assert all(p.data.dtype == np.float64 for p in wide.store.params.values())

        cond = np.random.default_rng(6).normal(size=(40, loaded.net.cfg.cond_dim))
        samples = [ode_sample(model.net, cond, SwaySchedule(nfe=8), np.random.default_rng(9))
                   for model in (loaded, wide)]
        assert np.max(np.abs(samples[0] - samples[1])) <= 1e-4

    def test_float32_pitch_encoder_gives_the_float64_embedding(self, tiny_runs):
        """float64 input promotes the stored float32 weights exactly."""
        _manifest, (files, _), _ = tiny_runs
        loaded = PitchExtractor.load(files["pitch.pvck"])
        wide = PitchExtractor(loaded.cfg, trainable=False)
        wide.store.load({k: v.astype(np.float64) for k, v in loaded.store.arrays().items()})
        x = np.random.default_rng(7).uniform(size=(50, loaded.cfg.input_bins))
        z = loaded.encode_cqt(x).data
        assert z.dtype == np.float64
        assert np.array_equal(z, wide.encode_cqt(x).data)

    def test_zero_griffin_lim_iterations_rejected(self):
        """A converter config cannot hold a Griffin-Lim count `convert`
        would fail on after sampling."""
        with pytest.raises(ContractError, match="gl_iters"):
            ConverterConfig(gl_iters=0)


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

    @pytest.mark.parametrize("flag", [["--nfe", "0"], ["--sway", "3"], ["--sway", "nan"]])
    def test_invalid_schedule_is_a_usage_error(self, tiny_runs, tmp_path, flag):
        """A bad --nfe or --sway exits 1, as a configuration error, before
        the checkpoint is read."""
        manifest, (files, _), _ = tiny_runs
        src, ref = (manifest.parent / r["path"] for r in load_manifest(manifest)[:2])
        code, summary = self._run(["convert", "--src", str(src), "--ref", str(ref),
                                   "--ckpt", str(files["svc.pvck"]),
                                   "--out", str(tmp_path / "out.wav"), *flag])
        assert (code, summary["status"]) == (1, "config-error"), summary
        assert flag[0] in summary["error"]
        assert not (tmp_path / "out.wav").exists()

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
