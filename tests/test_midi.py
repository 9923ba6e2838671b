import logging
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyvox.errors import ContractError, MidiParseError
from polyvox.midi import (MidiNote, PianoRoll, parse_smf, to_piano_roll, write_smf)


def smf_bytes(track: bytes, division: int = 480, fmt: int = 0, n_tracks: int = 1) -> bytes:
    return (b"MThd" + struct.pack(">IHHH", 6, fmt, n_tracks, division)
            + b"MTrk" + struct.pack(">I", len(track)) + track)


END = bytes([0x00, 0xFF, 0x2F, 0x00])


class TestParse:
    def test_single_note_default_tempo(self):
        track = bytes([0x00, 0x90, 69, 96, 0x83, 0x60, 0x80, 69, 64]) + END
        notes = parse_smf(smf_bytes(track))
        assert notes == [MidiNote(69, 0.0, 0.5, 96)]

    def test_empty_track(self):
        assert parse_smf(smf_bytes(END)) == []

    def test_tempo_change_to_60bpm(self):
        track = (bytes([0x00, 0xFF, 0x51, 0x03]) + (1000000).to_bytes(3, "big")
                 + bytes([0x00, 0x90, 69, 96, 0x83, 0x60, 0x80, 69, 64]) + END)
        notes = parse_smf(smf_bytes(track))
        assert notes[0].offset == pytest.approx(1.0)

    def test_running_status(self):
        # second note-on omits the status byte
        track = bytes([
            0x00, 0x90, 60, 80,
            0x00, 64, 80,          # running status: note-on 64
            0x60, 0x80, 60, 0,
            0x00, 64, 0,           # running status: note-off via 0x80
        ]) + END
        notes = parse_smf(smf_bytes(track))
        assert {n.pitch for n in notes} == {60, 64}

    def test_velocity_zero_is_off(self):
        track = bytes([0x00, 0x90, 70, 90, 0x40, 0x90, 70, 0]) + END
        notes = parse_smf(smf_bytes(track))
        assert len(notes) == 1 and notes[0].pitch == 70

    def test_unmatched_note_on_closed_with_warning(self, caplog):
        track = bytes([0x00, 0x90, 60, 90, 0x60, 0x90, 62, 90, 0x60, 0x80, 62, 64]) + END
        with caplog.at_level(logging.WARNING, logger="polyvox.midi"):
            notes = parse_smf(smf_bytes(track))
        assert any("unterminated" in r.message for r in caplog.records)
        sixty = next(n for n in notes if n.pitch == 60)
        assert sixty.offset == pytest.approx(0.2)  # 0xC0 ticks = 192/960 s... final event time

    def test_missing_header(self):
        with pytest.raises(MidiParseError):
            parse_smf(b"nope")

    def test_truncated_track(self):
        data = smf_bytes(END)
        with pytest.raises(MidiParseError):
            parse_smf(data[:-2])

    def test_format_2_rejected(self):
        with pytest.raises(MidiParseError):
            parse_smf(smf_bytes(END, fmt=2))

    def test_smpte_division_rejected(self):
        with pytest.raises(MidiParseError):
            parse_smf(smf_bytes(END, division=0x8000 | (25 << 8)))

    def test_format1_merges_tempo_across_tracks(self):
        tempo_track = bytes([0x00, 0xFF, 0x51, 0x03]) + (1000000).to_bytes(3, "big") + END
        note_track = bytes([0x00, 0x90, 69, 96, 0x83, 0x60, 0x80, 69, 64]) + END
        data = (b"MThd" + struct.pack(">IHHH", 6, 1, 2, 480)
                + b"MTrk" + struct.pack(">I", len(tempo_track)) + tempo_track
                + b"MTrk" + struct.pack(">I", len(note_track)) + note_track)
        notes = parse_smf(data)
        assert notes[0].offset == pytest.approx(1.0)

    def test_tempo_change_after_tick_0_re_anchors_the_clock(self):
        """Ticks before a tempo change keep the old tempo's seconds; ticks
        after it count from the change's time at the new tempo."""
        track = bytes([
            0x00, 0x90, 60, 96,
            0x81, 0x70, 0x90, 64, 96,                          # tick 240
            0x81, 0x70, 0xFF, 0x51, 0x03, 0x0F, 0x42, 0x40,    # tick 480: 60 BPM
            0x00, 0x80, 60, 64,
            0x00, 0x90, 67, 96,
            0x81, 0x70, 0x80, 64, 64,                          # tick 720
            0x81, 0x70, 0x80, 67, 64,                          # tick 960
        ]) + END
        assert parse_smf(smf_bytes(track)) == [
            MidiNote(60, 0.0, 0.5), MidiNote(64, 0.25, 1.0), MidiNote(67, 0.5, 1.5)]


def _drop_nested(spec):
    """Drop each note that lies strictly inside an earlier-kept note of the
    same pitch (later onset, earlier offset): FIFO note-off matching, as
    `parse_smf` documents, reads such a pair back as two overlapping notes."""
    kept = []
    for p, on, dur in spec:
        off = on + dur
        if not any(q == p and ((o < on and off < e) or (on < o and e < off))
                   for q, o, e in kept):
            kept.append((p, on, off))
    return [(p, on, off - on) for p, on, off in kept]


class TestRoundTrip:
    @given(st.lists(
        st.tuples(st.integers(24, 83), st.integers(0, 2000), st.integers(1, 1000)),
        min_size=1, max_size=12).map(_drop_nested))
    @settings(max_examples=30, deadline=None)
    def test_write_parse_recovers_notes(self, tmp_path_factory, spec):
        notes = sorted(
            (MidiNote(p, on / 960.0, (on + dur) / 960.0) for p, on, dur in spec),
            key=lambda n: (n.onset, n.pitch, n.offset))
        path = tmp_path_factory.mktemp("rt") / "x.mid"
        write_smf(notes, path)
        with open(path, "rb") as fh:
            back = parse_smf(fh.read())
        assert [(n.pitch, n.onset, n.offset) for n in back] == \
               [(n.pitch, n.onset, n.offset) for n in notes]


class TestPianoRoll:
    def test_single_note_rows(self):
        roll = to_piano_roll([MidiNote(69, 0.0, 0.5)], 100)
        assert roll.activity[:50, 45].all()
        assert not roll.activity[50:].any()
        assert not roll.activity[:, :45].any()

    def test_empty(self):
        assert not to_piano_roll([], 10).activity.any()

    def test_overlap_union(self):
        roll = to_piano_roll([MidiNote(69, 0.0, 1.0), MidiNote(76, 0.2, 0.8)], 100)
        assert roll.activity[30, 45] == 1.0 and roll.activity[30, 52] == 1.0

    def test_out_of_range_pitches_dropped(self):
        roll = to_piano_roll([MidiNote(10, 0.0, 0.5), MidiNote(100, 0.0, 0.5)], 50)
        assert not roll.activity.any()

    def test_unison_merge(self):
        roll = to_piano_roll([MidiNote(60, 0.0, 0.6), MidiNote(60, 0.3, 1.0)], 100)
        assert roll.activity[:, 36].max() == 1.0

    def test_activity_counts_match_sounding_pitches(self):
        notes = [MidiNote(60, 0.0, 1.0), MidiNote(67, 0.25, 0.75), MidiNote(72, 0.5, 1.0)]
        roll = to_piano_roll(notes, 100)
        for f in range(100):
            t = f / 100.0
            expected = len({n.pitch for n in notes if n.onset <= t < n.offset})
            assert roll.activity[f].sum() == expected

    def test_n_frames_contract(self):
        with pytest.raises(ContractError):
            to_piano_roll([], 0)

    def test_roll_invariants(self):
        with pytest.raises(ContractError):
            PianoRoll(np.zeros((5, 10)))
        with pytest.raises(ContractError):
            PianoRoll(np.full((5, 60), 2.0))


class TestNoteInvariants:
    def test_bad_notes(self):
        with pytest.raises(ContractError):
            MidiNote(200, 0.0, 1.0)
        with pytest.raises(ContractError):
            MidiNote(60, 1.0, 1.0)
        with pytest.raises(ContractError):
            MidiNote(60, 0.0, 1.0, velocity=0)
