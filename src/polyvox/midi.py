"""Standard MIDI File parsing, a minimal writer for the test corpus, and
conversion of note lists to frame-aligned piano rolls.

The roll covers `ROLL_LOW`..`ROLL_TOP` (MIDI 24..83, C1..B5), the pipeline's
one pitch range, so that pitch index p lines up with cropped-CQT bin p. Frames
run at `audio.FRAME_RATE` and sample note activity at the interval start,
matching the CQT convention of frame f centered at t = f * hop / sr.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass

import numpy as np

from .audio import FRAME_RATE
from .errors import ContractError, MidiParseError

logger = logging.getLogger(__name__)

ROLL_LOW = 24
ROLL_PITCHES = 60
ROLL_TOP = ROLL_LOW + ROLL_PITCHES - 1  # 83
DEFAULT_TEMPO_US = 500000  # 120 BPM
TICKS_PER_BEAT = 480
TICKS_PER_SECOND = TICKS_PER_BEAT * 1e6 / DEFAULT_TEMPO_US  # the writer's grid, 960


@dataclass(frozen=True)
class MidiNote:
    pitch: int
    onset: float
    offset: float
    velocity: int = 96

    def __post_init__(self):
        if not 0 <= self.pitch <= 127:
            raise ContractError(f"pitch {self.pitch} outside 0..127")
        if not self.onset < self.offset:
            raise ContractError(f"need onset < offset, got [{self.onset}, {self.offset}]")
        if not 1 <= self.velocity <= 127:
            raise ContractError(f"velocity {self.velocity} outside 1..127")


@dataclass
class PianoRoll:
    """Frames x 60 activity matrix at `FRAME_RATE`; index p is MIDI pitch 24+p."""

    activity: np.ndarray

    def __post_init__(self):
        self.activity = np.asarray(self.activity, dtype=np.float64)
        if self.activity.ndim != 2 or self.activity.shape[1] != ROLL_PITCHES:
            raise ContractError(f"activity must be frames x {ROLL_PITCHES}")
        if self.activity.min() < 0 or self.activity.max() > 1:
            raise ContractError("activity values must lie in [0, 1]")

    @property
    def frames(self) -> int:
        return self.activity.shape[0]


# ---------------------------------------------------------------------------
# SMF parsing
# ---------------------------------------------------------------------------


class _Reader:
    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def u8(self) -> int:
        if self.pos >= len(self.data):
            raise MidiParseError("unexpected end of track data")
        b = self.data[self.pos]
        self.pos += 1
        return b

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise MidiParseError("unexpected end of track data")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def vlq(self) -> int:
        value = 0
        for _ in range(4):
            b = self.u8()
            value = (value << 7) | (b & 0x7F)
            if not b & 0x80:
                return value
        raise MidiParseError("variable-length quantity longer than 4 bytes")


def _track_events(chunk: bytes, track_idx: int):
    """Yield (abs_tick, kind, data) with kind in {'on','off','tempo'}."""
    r = _Reader(chunk)
    tick = 0
    status = None
    while r.pos < len(chunk):
        tick += r.vlq()
        b = r.u8()
        if b == 0xFF:
            meta = r.u8()
            body = r.take(r.vlq())
            if meta == 0x51:
                if len(body) != 3:
                    raise MidiParseError("tempo meta event must carry 3 bytes")
                yield tick, "tempo", int.from_bytes(body, "big")
            elif meta == 0x2F:
                return
            continue
        if b in (0xF0, 0xF7):  # sysex
            r.take(r.vlq())
            status = None
            continue
        if b & 0x80:
            status = b
            first = r.u8()
        else:  # running status
            if status is None:
                raise MidiParseError(f"data byte 0x{b:02x} with no running status")
            first = b
        kind = status & 0xF0
        channel = status & 0x0F
        if kind in (0x80, 0x90, 0xA0, 0xB0, 0xE0):
            second = r.u8()
            if kind == 0x90:
                yield tick, "on" if second > 0 else "off", (channel, first, second)
            elif kind == 0x80:
                yield tick, "off", (channel, first, second)
        elif kind in (0xC0, 0xD0):
            pass  # single data byte, already consumed
        else:
            raise MidiParseError(f"unexpected status byte 0x{status:02x} (track {track_idx})")


def parse_smf(data: bytes) -> list[MidiNote]:
    """Parse an SMF (format 0 or 1) into absolute-time notes.

    Note-on/note-off pairs are matched FIFO per (channel, pitch); a note-on
    with velocity 0 counts as note-off. A note nested inside another of the
    same pitch (later onset, earlier offset) therefore reads back as two
    overlapping notes. Tempo meta events from all tracks drive the
    tick-to-second conversion (default 120 BPM), each re-anchoring the clock
    at its tick. Notes still open at end of file are closed at the final
    event time with a logged warning.

    Notes are returned sorted by (onset, pitch, offset), so notes sharing an
    onset and a pitch come out in a defined order.
    """
    if len(data) < 14 or data[:4] != b"MThd":
        raise MidiParseError("missing MThd header")
    (hlen,) = struct.unpack_from(">I", data, 4)
    if hlen < 6 or len(data) < 8 + hlen:
        raise MidiParseError("truncated MThd chunk")
    fmt, n_tracks, division = struct.unpack_from(">HHH", data, 8)
    if fmt not in (0, 1):
        raise MidiParseError(f"SMF format {fmt} unsupported (need 0 or 1)")
    if division & 0x8000:
        raise MidiParseError("SMPTE time division unsupported")
    if division == 0:
        raise MidiParseError("zero ticks per beat")

    events = []
    pos = 8 + hlen
    for track_idx in range(n_tracks):
        if pos + 8 > len(data):
            raise MidiParseError(f"missing MTrk chunk {track_idx}")
        if data[pos : pos + 4] != b"MTrk":
            raise MidiParseError(f"expected MTrk chunk at byte {pos}")
        (length,) = struct.unpack_from(">I", data, pos + 4)
        chunk = data[pos + 8 : pos + 8 + length]
        if len(chunk) < length:
            raise MidiParseError(f"truncated MTrk chunk {track_idx}")
        events.extend(_track_events(chunk, track_idx))
        pos += 8 + length

    # stable order: tick, then tempo changes ahead of notes at the same tick
    events.sort(key=lambda e: (e[0], 0 if e[1] == "tempo" else 1))

    # piecewise-linear tick -> seconds map, anchored at the last tempo change
    sec_at, tick_at, tempo = 0.0, 0, DEFAULT_TEMPO_US
    open_notes: dict[tuple[int, int], list[tuple[float, int]]] = {}
    notes: list[MidiNote] = []
    last_time = 0.0
    for tick, kind, payload in events:
        when = sec_at + (tick - tick_at) * tempo / (1e6 * division)
        if kind == "tempo":
            sec_at, tick_at, tempo = when, tick, payload
            continue
        last_time = max(last_time, when)
        channel, pitch, velocity = payload
        key = (channel, pitch)
        if kind == "on":
            open_notes.setdefault(key, []).append((when, velocity))
        else:
            pending = open_notes.get(key)
            if pending:
                onset, vel = pending.pop(0)
                if when > onset:
                    notes.append(MidiNote(pitch, onset, when, max(vel, 1)))

    dangling = sum(len(v) for v in open_notes.values())
    if dangling:
        logger.warning("closing %d unterminated note(s) at final event time %.3fs", dangling, last_time)
        for (channel, pitch), pending in open_notes.items():
            for onset, vel in pending:
                if last_time > onset:
                    notes.append(MidiNote(pitch, onset, last_time, max(vel, 1)))

    notes.sort(key=lambda n: (n.onset, n.pitch, n.offset))
    return notes


def load_smf(path) -> list[MidiNote]:
    """`parse_smf` of a file's bytes; a parse error names the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse_smf(data)
    except MidiParseError as exc:
        raise MidiParseError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# SMF writing (test corpus only: format 0, fixed tempo)
# ---------------------------------------------------------------------------


def _vlq(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def write_smf(notes: list[MidiNote], path) -> None:
    """Serialize notes as a single-track format-0 file at 120 BPM and
    `TICKS_PER_BEAT` ticks per beat.

    Times are quantized to the `TICKS_PER_SECOND` grid (1/960 s); the
    synthetic generator emits times on that grid so the round trip through
    `parse_smf` is exact.
    """
    edges = []
    for note in notes:
        on = int(round(note.onset * TICKS_PER_SECOND))
        off = int(round(note.offset * TICKS_PER_SECOND))
        edges.append((on, 1, note.pitch, note.velocity))
        edges.append((off, 0, note.pitch, 0))
    # offs before ons at the same tick so back-to-back notes re-trigger
    edges.sort(key=lambda e: (e[0], e[1]))

    body = bytearray()
    body += _vlq(0) + bytes([0xFF, 0x51, 0x03]) + DEFAULT_TEMPO_US.to_bytes(3, "big")
    prev = 0
    for tick, is_on, pitch, velocity in edges:
        body += _vlq(tick - prev)
        body += bytes([0x90 if is_on else 0x80, pitch, velocity if is_on else 64])
        prev = tick
    body += _vlq(0) + bytes([0xFF, 0x2F, 0x00])

    with open(path, "wb") as fh:
        fh.write(b"MThd" + struct.pack(">IHHH", 6, 0, 1, TICKS_PER_BEAT))
        fh.write(b"MTrk" + struct.pack(">I", len(body)) + bytes(body))


# ---------------------------------------------------------------------------
# Piano roll
# ---------------------------------------------------------------------------


def to_piano_roll(notes: list[MidiNote], n_frames: int) -> PianoRoll:
    """Binary roll at `FRAME_RATE`: frame f is active for pitch p iff some
    note with that pitch satisfies onset <= f/rate < offset. Pitches outside
    `ROLL_LOW`..`ROLL_TOP` drop."""
    if n_frames < 1:
        raise ContractError("n_frames must be >= 1")
    activity = np.zeros((n_frames, ROLL_PITCHES))
    for note in notes:
        idx = note.pitch - ROLL_LOW
        if not 0 <= idx < ROLL_PITCHES:
            continue
        first = int(np.ceil(note.onset * FRAME_RATE - 1e-9))
        last = int(np.ceil(note.offset * FRAME_RATE - 1e-9))  # exclusive
        first = max(first, 0)
        last = min(last, n_frames)
        if last > first:
            activity[first:last, idx] = 1.0
    return PianoRoll(activity)
