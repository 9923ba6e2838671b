"""Deterministic synthetic singing generator with exact MIDI ground truth.

Clips are additive-synthesis "voices": a lead melody plus optional quieter
harmony voices at musically plausible intervals. Note times live on the SMF
tick grid (1/960 s) so the WAV / MIDI sidecars round-trip exactly. Clips are at
`audio.PIPELINE_SAMPLE_RATE` and pitches lie in `midi.ROLL_LOW`..`ROLL_TOP`,
so lead pitches map to CQT bins by construction (bin = MIDI - `ROLL_LOW`).
The melody statistics (`LEAD_RANGE`, `NOTE_DUR_RANGE`, `REST_PROB`) and the
singer presets (`DEFAULT_PRESETS`) are constants; a `SynthConfig` sets the
clip counts, the clip durations and the eval share.

`gen_dataset` writes the corpus and its `manifest.jsonl`, rendering the clips
one after another on the calling thread; each note's harmonics come from
powers of one complex phasor, so a note costs one cos and one sin of its
phase. `load_clips` is the one reader of the corpus, for both trainers and
for evaluation. It holds each clip in its file's precision, int16 codes for
the PCM16 files written here, and `Clip.wave` decodes them to float64 on
each access by `audio`'s one decode rule. A malformed manifest line or a
split with no clips raises `ContractError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .audio import (PIPELINE_SAMPLE_RATE, WavCodes, Waveform, decode_wav, read_pipeline_wav,
                    save_wav)
from .errors import ContractError, check_fields
from .midi import ROLL_LOW, ROLL_TOP, MidiNote, load_smf, write_smf

_TICKS_PER_SECOND = 960.0  # 480 ticks/beat at 120 BPM
_RAMP_S = 0.010
_MIN_NOTE_S = 0.025
_JITTER_KNOTS_PER_S = 100.0

# intervals follow common backing-vocal arrangements; wider intervals are
# favored so harmony fundamentals stay resolvable after mel-domain synthesis
HARMONY_INTERVALS = (3, 4, 7, -5, 12)
HARMONY_WEIGHTS = (0.10, 0.15, 0.30, 0.20, 0.25)
HARMONY_GAIN_DB = (-12.0, -3.0)

# melody statistics: lead pitches (MIDI), note lengths (s) and the chance of
# a rest after a note. Every lead pitch leaves room for each harmony interval
# inside the roll, and the shortest note outlasts its attack and release on
# the tick grid.
LEAD_RANGE = (55, 70)
NOTE_DUR_RANGE = (0.20, 0.60)
REST_PROB = 0.2


@dataclass(frozen=True)
class SingerPreset:
    """Additive-synthesis voice: relative harmonic amplitudes shaped by three
    resonances, with vibrato and slow relative-frequency jitter."""

    id: str
    harmonic_profile: tuple[float, ...]
    formants: tuple[tuple[float, float], ...]  # (center Hz, bandwidth Hz)
    vibrato_rate: float = 5.0
    vibrato_depth: float = 20.0  # cents
    jitter: float = 0.002

    def __post_init__(self):
        if len(self.harmonic_profile) != 16:
            raise ContractError("harmonic_profile must have 16 entries")
        if self.harmonic_profile[0] != 1.0 or min(self.harmonic_profile) < 0:
            raise ContractError("harmonic amplitudes must be >= 0 with amplitude[0] = 1")
        for center, _bw in self.formants:
            if center >= PIPELINE_SAMPLE_RATE / 2:
                raise ContractError(f"formant center {center} Hz above Nyquist")


@dataclass
class Score:
    lead: list[MidiNote]
    harmony_voices: list[tuple[int, float, list[MidiNote]]] = field(default_factory=list)

    def __post_init__(self):
        for _interval, gain_db, _notes in self.harmony_voices:
            if gain_db > 0:
                raise ContractError(f"harmony gain must be <= 0 dB, got {gain_db}")


def _rolloff_profile(alpha: float, tweaks: dict[int, float] | None = None) -> tuple[float, ...]:
    amps = [(h + 1) ** -alpha for h in range(16)]
    for h, v in (tweaks or {}).items():
        amps[h] *= v
    return tuple(a / amps[0] for a in amps)


DEFAULT_PRESETS = (
    SingerPreset("alto_warm", _rolloff_profile(1.45),
                 ((280.0, 160.0), (1250.0, 240.0), (2800.0, 360.0)), 5.0, 20.0, 0.0004),
    SingerPreset("soprano_bright", _rolloff_profile(1.1, {3: 1.5, 4: 1.35}),
                 ((305.0, 195.0), (2000.0, 360.0), (3700.0, 440.0)), 5.5, 24.0, 0.0005),
    SingerPreset("tenor_dark", _rolloff_profile(1.7),
                 ((242.0, 126.0), (1280.0, 240.0), (2350.0, 310.0)), 4.6, 17.0, 0.0004),
    SingerPreset("bass_round", _rolloff_profile(2.1),
                 ((230.0, 115.0), (950.0, 200.0), (2000.0, 280.0)), 4.2, 14.0, 0.0003),
    SingerPreset("mezzo_edge", _rolloff_profile(1.05, {2: 1.5, 5: 1.8}),
                 ((295.0, 175.0), (1700.0, 280.0), (3150.0, 400.0)), 5.2, 22.0, 0.0004),
    SingerPreset("folk_light", _rolloff_profile(1.6, {1: 0.7, 6: 1.5}),
                 ((258.0, 145.0), (1430.0, 255.0), (3900.0, 470.0)), 6.0, 24.0, 0.0005),
)


def _formant_gain(freq: np.ndarray | float, preset: SingerPreset) -> np.ndarray | float:
    gain = 0.05
    for center, bw in preset.formants:
        half = max(bw / 2.0, 1.0)
        gain = gain + 1.0 / (1.0 + ((np.asarray(freq) - center) / half) ** 2)
    return gain


def render_note(pitch: int, dur: float, preset: SingerPreset, seed: int) -> Waveform:
    """Synthesize one note: 16 formant-shaped harmonics over a vibrato- and
    jitter-modulated fundamental, 10 ms raised-cosine ramps, peak 0.5.
    Harmonic h is the imaginary part of the h-th power of the fundamental's
    phasor: within 2e-15 of the exact sin(h * phase), where float64
    `np.sin(h * phase)` rounds h * phase first and is off by up to 4e-12."""
    if not ROLL_LOW <= pitch <= ROLL_TOP:
        raise ContractError(f"pitch {pitch} outside singable range {ROLL_LOW}..{ROLL_TOP}")
    if dur < _MIN_NOTE_S:
        raise ContractError(f"duration {dur * 1e3:.1f} ms shorter than attack+release")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    n = int(round(dur * PIPELINE_SAMPLE_RATE))
    t = np.arange(n) / PIPELINE_SAMPLE_RATE
    f0 = 440.0 * 2.0 ** ((pitch - 69) / 12.0)

    cents = preset.vibrato_depth * np.sin(2.0 * np.pi * preset.vibrato_rate * t)
    knots = rng.normal(0.0, preset.jitter, max(int(np.ceil(dur * _JITTER_KNOTS_PER_S)) + 2, 2))
    jitter = np.interp(t * _JITTER_KNOTS_PER_S, np.arange(knots.size), knots)
    f_inst = f0 * 2.0 ** (cents / 1200.0) * (1.0 + jitter)
    phase = 2.0 * np.pi * np.cumsum(f_inst) / PIPELINE_SAMPLE_RATE

    # harmonic h is Im(z^h) for the unit phasor z = e^{i phase}: one cos and
    # one sin, then one complex product per harmonic
    step = np.empty(n, dtype=np.complex128)
    step.real = np.cos(phase)
    step.imag = np.sin(phase)
    z = step.copy()
    out = np.zeros(n)
    for h, amp in enumerate(preset.harmonic_profile, start=1):
        if h > 1:
            z *= step
        fh = h * f0
        if fh >= 0.45 * PIPELINE_SAMPLE_RATE or amp == 0.0:
            continue
        out += amp * _formant_gain(fh, preset) * z.imag

    ramp = int(_RAMP_S * PIPELINE_SAMPLE_RATE)
    env = np.ones(n)
    fade = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
    env[:ramp] = fade
    env[-ramp:] *= fade[::-1]
    out *= env
    peak = np.abs(out).max()
    if peak > 0:
        out *= 0.5 / peak
    return Waveform(out, PIPELINE_SAMPLE_RATE)


def render_score(score: Score, preset: SingerPreset, seed: int) -> tuple[Waveform, list[MidiNote]]:
    """Mix lead and interval-shifted harmony voices; returns the mixture
    (peak 0.9) and the full polyphonic ground-truth note list."""
    voices: list[tuple[float, list[MidiNote]]] = [(1.0, list(score.lead))]
    for interval, gain_db, notes in score.harmony_voices:
        shifted = [MidiNote(n.pitch + interval, n.onset, n.offset, n.velocity) for n in notes]
        for n in shifted:
            if not ROLL_LOW <= n.pitch <= ROLL_TOP:
                raise ContractError(f"harmony pitch {n.pitch} outside range after interval {interval}")
        voices.append((10.0 ** (gain_db / 20.0), shifted))

    truth = sorted((n for _gain, notes in voices for n in notes), key=lambda n: (n.onset, n.pitch))
    if not truth:
        return Waveform(np.zeros(PIPELINE_SAMPLE_RATE // 10), PIPELINE_SAMPLE_RATE), []

    total = int(round(max(n.offset for n in truth) * PIPELINE_SAMPLE_RATE))
    mix = np.zeros(total)
    note_idx = 0
    for gain, notes in voices:
        for note in notes:
            rendered = render_note(note.pitch, note.offset - note.onset, preset,
                                   seed * 65537 + note_idx)
            start = int(round(note.onset * PIPELINE_SAMPLE_RATE))
            seg = rendered.samples[: total - start]
            mix[start : start + seg.size] += gain * (note.velocity / 96.0) * seg
            note_idx += 1
    peak = np.abs(mix).max()
    if peak > 0:
        mix *= 0.9 / peak
    return Waveform(mix, PIPELINE_SAMPLE_RATE), truth


# ---------------------------------------------------------------------------
# Dataset generation
# ---------------------------------------------------------------------------


@dataclass
class SynthConfig:
    n_single: int = 10
    n_harmony: int = 10
    dur_range: tuple[float, float] = (3.0, 8.0)
    eval_fraction: float = 0.10

    def __post_init__(self):
        """Clip counts are >= 0 and sum to at least one, and the eval share
        lies strictly between 0 and 1. `gen_dataset` puts at least one clip
        in the eval split, so a one-clip corpus, or one whose eval share
        rounds to every clip, has an empty train split, which the trainers
        and `evaluate` reject. A config file's JSON list becomes a tuple."""
        check_fields(self, n_single=0, n_harmony=0)
        self.dur_range = tuple(self.dur_range)
        if not 0 < self.dur_range[0] <= self.dur_range[1]:
            raise ContractError(f"dur_range {self.dur_range} must satisfy 0 < low <= high")
        if self.n_single + self.n_harmony < 1:
            raise ContractError("need at least one clip (n_single + n_harmony >= 1)")
        if not 0.0 < self.eval_fraction < 1.0:
            raise ContractError(f"eval_fraction {self.eval_fraction!r} must lie in (0, 1)")


def _harmony_lead_range(lead_range: tuple[int, int], interval: int) -> tuple[int, int]:
    """The lead pitches whose harmony `interval` semitones away stays in the roll."""
    return (max(lead_range[0], ROLL_LOW - min(interval, 0)),
            min(lead_range[1], ROLL_TOP - max(interval, 0)))


def _ticks(seconds: float) -> float:
    return round(seconds * _TICKS_PER_SECOND) / _TICKS_PER_SECOND


def _random_melody(rng: np.random.Generator, cfg: SynthConfig,
                   lo: int, hi: int) -> list[MidiNote]:
    target = rng.uniform(*cfg.dur_range)
    pitch = int(rng.integers(lo, hi + 1))
    now = 0.0
    notes = []
    while now < target:
        dur = _ticks(rng.uniform(*NOTE_DUR_RANGE))
        notes.append(MidiNote(pitch, _ticks(now), _ticks(now) + dur))
        now = _ticks(now) + dur
        if rng.random() < REST_PROB:
            now += _ticks(rng.uniform(0.05, 0.15))
        step = int(rng.integers(-4, 5))
        pitch = int(np.clip(pitch + step, lo, hi))
    return notes


def make_clip_score(cfg: SynthConfig, condition: str, rng: np.random.Generator) -> Score:
    if condition == "harmony":
        interval = int(rng.choice(HARMONY_INTERVALS, p=HARMONY_WEIGHTS))
        gain_db = float(rng.uniform(*HARMONY_GAIN_DB))
        lead = _random_melody(rng, cfg, *_harmony_lead_range(LEAD_RANGE, interval))
        return Score(lead, [(interval, gain_db, list(lead))])
    lead = _random_melody(rng, cfg, *LEAD_RANGE)
    return Score(lead)


def gen_dataset(cfg: SynthConfig, seed: int, out_dir) -> Path:
    """Write WAV + SMF + JSON sidecars plus manifest.jsonl; returns the
    manifest path. Each clip renders as it is planned, one after another on
    the calling thread; the eval split is then drawn over the clip ids.
    Pure function of (cfg, seed): reruns are byte-identical."""
    out = Path(out_dir)
    clips_dir = out / "clips"
    clips_dir.mkdir(parents=True, exist_ok=True)

    sidecars = []
    conditions = ["single"] * cfg.n_single + ["harmony"] * cfg.n_harmony
    for idx, condition in enumerate(conditions):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, idx))))
        preset = DEFAULT_PRESETS[int(rng.integers(len(DEFAULT_PRESETS)))]
        score = make_clip_score(cfg, condition, rng)
        clip_id, clip_seed = f"{condition}_{idx:04d}", seed * 1009 + idx
        wav, truth = render_score(score, preset, clip_seed)
        save_wav(wav, clips_dir / f"{clip_id}.wav")
        write_smf(truth, clips_dir / f"{clip_id}.mid")
        sidecar = {
            "id": clip_id,
            "condition": condition,
            "preset": preset.id,
            "seed": clip_seed,
            "duration_s": wav.duration,
        }
        (clips_dir / f"{clip_id}.json").write_text(json.dumps(sidecar, sort_keys=True))
        sidecars.append(sidecar)

    split_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0x5B117))))
    order = split_rng.permutation(len(sidecars))
    n_eval = max(1, int(round(len(sidecars) * cfg.eval_fraction)))
    eval_ids = {sidecars[i]["id"] for i in order[:n_eval]}

    manifest_path = out / "manifest.jsonl"
    with open(manifest_path, "w") as fh:
        for side in sidecars:
            row = dict(side)
            row["path"] = f"clips/{side['id']}.wav"
            row["split"] = "eval" if side["id"] in eval_ids else "train"
            del row["seed"]
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return manifest_path


_ROW_FIELDS = ("id", "condition", "preset", "path", "split")
_SPLITS = ("train", "eval")


def load_manifest(manifest_path) -> list[dict]:
    """The manifest's rows, in file order. Each line must be a JSON object
    whose id, condition, preset, path and split are strings, the split
    "train" or "eval"; any other line raises `ContractError` naming the file
    and the line."""
    rows = []
    with open(manifest_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"manifest {manifest_path} line {lineno}"
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ContractError(f"{where}: {exc.msg}") from None
            if not isinstance(row, dict):
                raise ContractError(f"{where}: expected an object, got {type(row).__name__}")
            bad = [key for key in _ROW_FIELDS if not isinstance(row.get(key), str)]
            if bad:
                raise ContractError(f"{where}: {', '.join(bad)} missing or not a string")
            if row["split"] not in _SPLITS:
                raise ContractError(f"{where}: split {row['split']!r} is not one of {_SPLITS}")
            rows.append(row)
    return rows


@dataclass(frozen=True)
class Clip:
    """One manifest row, read: its WAV file's sample codes and its `.mid`
    sidecar's notes. The codes stay in the file's precision, int16 for a
    PCM16 file, so a corpus held in memory takes the size of its files;
    a file at another rate is resampled once, when it is read, and kept as
    float64."""

    id: str
    condition: str
    preset: str
    codes: WavCodes
    notes: list[MidiNote]

    @property
    def wave(self) -> Waveform:
        """The 44.1 kHz float64 waveform, decoded by `audio.decode_wav` on
        every access and not cached: a caller that holds it holds the one
        float64 copy."""
        return decode_wav(self.codes)


def load_clips(manifest_path, split: str) -> list[Clip]:
    """The clips of one split, in manifest order, with paths relative to the
    manifest: each WAV read by `audio.read_pipeline_wav` (every check of the
    file fires here, not at first access), its notes by `load_smf`. `Clip.wave`
    gives the samples `load_pipeline_wav` gives, bit for bit. A split with
    no clips raises `ContractError`."""
    root = Path(manifest_path).parent
    rows = [row for row in load_manifest(manifest_path) if row["split"] == split]
    if not rows:
        raise ContractError(f"no {split} clips in manifest {manifest_path}")
    return [Clip(row["id"], row["condition"], row["preset"], read_pipeline_wav(root / row["path"]),
                 load_smf((root / row["path"]).with_suffix(".mid"))) for row in rows]
