"""AdamW with decoupled weight decay, exponential learning-rate decay to a
floor, the training loop and the binary checkpoint container shared by all
trained modules.

Both trainers run one schedule, whose constants `AdamW` reads itself: the
learning rate decays exponentially from a run's `peak_lr` to `MIN_LR_RATIO`
times it over the run's steps, with decoupled weight decay `WEIGHT_DECAY`."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ContractError, is_int
from .tensor import Tensor, backward, zero_grads


_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8

MIN_LR_RATIO = 0.1  # the schedule's floor, as a fraction of its peak
WEIGHT_DECAY = 0.01


class AdamW:
    """Adam moments (beta1 0.9, beta2 0.999, eps 1e-8) with bias
    correction; weight decay `WEIGHT_DECAY` applied directly to parameters
    rather than through the gradients. The learning rate decays exponentially
    from `peak_lr` to its floor `peak_lr * MIN_LR_RATIO` at `total_steps`."""

    def __init__(self, params: dict[str, Tensor], peak_lr: float, total_steps: int):
        self.params = params
        self.peak_lr = peak_lr
        self.min_lr = peak_lr * MIN_LR_RATIO
        self.step_count = 0
        self._m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self._gamma = (self.min_lr / peak_lr) ** (1.0 / total_steps)

    def lr_at(self, step: int) -> float:
        return max(self.min_lr, self.peak_lr * self._gamma**step)

    def step(self) -> float:
        """Apply one update from the parameters' `.grad` fields (a missing
        gradient counts as zero); returns the learning rate used. A
        non-finite gradient rejects the step as a whole: it raises before
        any parameter, moment or the step count changes. The update is the
        formula, computed in the parameter's dtype:

            m += (1 - beta1) (g - m);  v += (1 - beta2) (g² - v)
            p -= lr (m / bc1) / (sqrt(v / bc2) + eps), then p -= lr wd p"""
        grads = {}
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise ContractError(f"non-finite gradient for parameter {name!r}; step rejected")
            grads[name] = g
        lr = self.lr_at(self.step_count)
        self.step_count += 1
        bc1 = 1.0 - _BETA1**self.step_count
        bc2 = 1.0 - _BETA2**self.step_count
        for name, p in self.params.items():
            g, m, v = grads[name], self._m[name], self._v[name]
            m += (g - m) * (1.0 - _BETA1)
            v += (g * g - v) * (1.0 - _BETA2)
            p.data -= m / bc1 / (np.sqrt(v / bc2) + _EPS) * lr
            p.data -= p.data * (lr * WEIGHT_DECAY)
        return lr


def _fit(params: dict[str, Tensor], batch_loss, steps: int, peak_lr: float, save, ckpt_path,
         log_path, progress) -> Path:
    """Run `steps` AdamW updates of `params` on the scalar `batch_loss()`.

    The `AdamW` schedule runs from `peak_lr` over the run's steps.
    `progress(step, loss)` fires at step 0, every 100 steps and the last
    step. Afterwards `save(ckpt_path, step=steps)` writes the checkpoint
    and, when `log_path` is given, a (step, lr, loss) CSV goes there.
    Returns the checkpoint path.

    One step's graph is alive at a time: the loss is read and dropped
    before the update, so the tape of step k is freed before `batch_loss()`
    builds step k + 1's."""
    opt = AdamW(params, peak_lr, max(steps, 1))
    rows = []
    for step in range(steps):
        zero_grads(params.values())
        loss = batch_loss()
        backward(loss)
        value = float(loss.data)
        del loss
        lr = opt.step()
        rows.append((step, lr, value))
        if progress and (step % 100 == 0 or step == steps - 1):
            progress(step, value)

    save(ckpt_path, step=steps)
    if log_path is not None:
        with open(log_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "lr", "loss"])
            writer.writerows(rows)
    return Path(ckpt_path)


# ---------------------------------------------------------------------------
# Checkpoint container
# ---------------------------------------------------------------------------

_MAGIC = b"PVCK"


def config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def save_checkpoint(path, params: dict[str, np.ndarray], step: int, config: dict) -> None:
    """Container: magic "PVCK", u32 header length, JSON header (names,
    shapes, step, config + hash), then float32 little-endian payloads in
    header order."""
    names = sorted(params)
    header = {
        "params": [{"name": n, "shape": list(np.asarray(params[n]).shape)} for n in names],
        "step": int(step),
        "config": config,
        "config_hash": config_hash(config),
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for n in names:
            fh.write(np.ascontiguousarray(params[n], dtype="<f4").tobytes())


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a container written by `save_checkpoint`: its arrays and its
    header, whose "step" holds the training step. The arrays come back as
    stored, float32, so a `ParamStore` loaded from them computes in
    float32 (numpy promotes them exactly where they meet float64 data). A
    truncated or corrupt header, a header whose config does not hash to its
    stored `config_hash`, one without a `params` list of named, well-shaped
    entries or an integer `step`, and a payload shorter than an entry's
    shape needs all raise ContractError naming the path. Each length is
    checked against the file's size before it is read, so a hostile one
    allocates nothing."""
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        if fh.read(4) != _MAGIC:
            raise ContractError(f"{path}: not a checkpoint container")
        size = fh.read(4)
        if len(size) < 4:
            raise ContractError(f"{path}: truncated header length")
        (hlen,) = struct.unpack("<I", size)
        if hlen > file_size - fh.tell():
            raise ContractError(f"{path}: corrupt checkpoint header (length {hlen} > file)")
        try:
            header = json.loads(fh.read(hlen).decode())
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ContractError(f"{path}: corrupt checkpoint header ({exc})") from None
        if not isinstance(header, dict):
            raise ContractError(f"{path}: checkpoint header is not an object")
        stored, actual = header.get("config_hash"), config_hash(header.get("config"))
        if stored != actual:
            raise ContractError(f"{path}: stored config_hash {stored} does not match "
                                f"{actual}, the hash of the config it carries")
        entries, step = header.get("params"), header.get("step")
        if not isinstance(entries, list) or not is_int(step):
            raise ContractError(f"{path}: checkpoint header needs a 'params' list and an "
                                f"integer 'step'")
        params = {}
        for entry in entries:
            named = isinstance(entry, dict) and isinstance(entry.get("name"), str)
            shape = entry.get("shape") if named else None
            if not (isinstance(shape, list) and all(is_int(n) and n >= 0 for n in shape)):
                raise ContractError(f"{path}: checkpoint entry {entry!r} needs a string "
                                    f"'name' and a 'shape' of sizes >= 0")
            name, nbytes = entry["name"], math.prod(shape) * 4
            left = file_size - fh.tell()
            if nbytes > left:
                raise ContractError(f"{path}: truncated payload for {name!r}: shape {shape} "
                                    f"needs {nbytes} bytes, {left} are left")
            flat = np.frombuffer(fh.read(nbytes), dtype="<f4")
            try:
                params[name] = flat.reshape(shape).copy()
            except ValueError as exc:  # an empty shape past numpy's size limits
                raise ContractError(f"{path}: checkpoint entry {name!r}: {exc}") from None
    return params, header


def header_config(path, header: dict, section: str, cls):
    """`cls` built from the `section` object of a checkpoint header's
    config, which must carry exactly the dataclass's fields. A checkpoint
    written before a field was added or removed raises ContractError naming
    the unknown and missing keys and the known ones, and one with a value
    the dataclass rejects raises its ContractError prefixed with the path."""
    config = header.get("config")
    entry = config.get(section) if isinstance(config, dict) else None
    if not isinstance(entry, dict):
        raise ContractError(f"{path}: checkpoint config has no '{section}' object")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown, missing = sorted(entry.keys() - known), sorted(known - entry.keys())
    if unknown or missing:
        raise ContractError(f"{path}: checkpoint config '{section}' has unknown keys {unknown} "
                            f"and missing keys {missing} (known: {sorted(known)})")
    try:
        return cls(**entry)
    except ContractError as exc:
        raise ContractError(f"{path}: checkpoint config '{section}': {exc}") from None
