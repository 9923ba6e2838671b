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
import struct
from pathlib import Path

import numpy as np

from .errors import ContractError
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
        any parameter, moment or the step count changes. Each update runs
        in one scratch buffer per parameter, in the parameter's dtype."""
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
            num, den = np.empty((2, *p.data.shape), dtype=p.data.dtype)
            # m += (1 - beta1) (g - m);  v += (1 - beta2) (g² - v)
            np.subtract(g, m, out=num)
            num *= 1.0 - _BETA1
            m += num
            np.multiply(g, g, out=num)
            num -= v
            num *= 1.0 - _BETA2
            v += num
            # p -= lr (m / bc1) / (sqrt(v / bc2) + eps), then p -= lr wd p
            np.divide(m, bc1, out=num)
            np.divide(v, bc2, out=den)
            np.sqrt(den, out=den)
            den += _EPS
            num /= den
            num *= lr
            p.data -= num
            np.multiply(p.data, lr * WEIGHT_DECAY, out=num)
            p.data -= num
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


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], int, dict]:
    """Read a container written by `save_checkpoint`. The arrays come back
    as stored, float32, so a `ParamStore` loaded from them computes in
    float32 (numpy promotes them exactly where they meet float64 data). A
    truncated or corrupt header, a header whose config does not hash to its
    stored `config_hash`, and a truncated payload all raise ContractError."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ContractError(f"{path}: not a checkpoint container")
        size = fh.read(4)
        if len(size) < 4:
            raise ContractError(f"{path}: truncated header length")
        (hlen,) = struct.unpack("<I", size)
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
        params = {}
        for entry in header["params"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(count * 4)
            if len(raw) < count * 4:
                raise ContractError(f"{path}: truncated payload for {entry['name']!r}")
            params[entry["name"]] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
    return params, int(header["step"]), header


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
