"""Shared exception types, and the one value rule of the config dataclasses.

`SynthConfig`, `CqtConfig`, `PitchEncoderConfig`, `PitchTrainConfig`,
`ConverterConfig` and `EvalConfig` each call `check_fields` first in their
`__post_init__`: a field annotated `int` holds an int and not a bool, one
annotated `float` a finite int or float and not a bool, and a
`tuple[float, float]` exactly two such numbers; a field may also have a least
value. The rule reads the fields from `dataclasses.fields`, so a field added
later is covered, and each class checks only what spans fields or an open
interval."""

import dataclasses
import math


class ContractError(ValueError):
    """An operation was called outside its documented contract."""


class WavFormatError(ValueError):
    """Malformed RIFF/WAVE structure."""


class UnsupportedWavError(ValueError):
    """Structurally valid WAV that uses a codec we do not read."""


class MidiParseError(ValueError):
    """Malformed or truncated Standard MIDI File."""


def is_int(value) -> bool:
    """An int and not a bool (JSON `true` loads as one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) < math.inf)


# what a field of each annotation holds; the config modules postpone their
# annotations (`from __future__ import annotations`), so the keys are strings
_KINDS = {
    "int": ("an integer", is_int),
    "float": ("a finite number", _is_finite),
    "tuple[float, float]": ("two finite numbers", lambda v: isinstance(v, (tuple, list))
                            and len(v) == 2 and all(map(_is_finite, v))),
}


def check_fields(obj, **least) -> None:
    """The value rule over the fields of dataclass instance `obj`; `least`
    maps a number field to its least value (`steps=1`). A field of another
    annotation is skipped. Raises ContractError naming the field."""
    for f in dataclasses.fields(obj):
        if f.type not in _KINDS:
            continue
        what, holds = _KINDS[f.type]
        value, low = getattr(obj, f.name), least.get(f.name)
        if not holds(value) or (low is not None and value < low):
            raise ContractError(f"{f.name} must be {what}{'' if low is None else f' >= {low}'}, "
                                f"got {value!r}")
