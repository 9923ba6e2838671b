"""Outside-in tracing of the polyvox package.

`Tracer.install()` wraps every public function and every public method (plus
`__call__`) of every public class in each `polyvox` module, and rebinds each
wrapped function under **every** module name that refers to it, so that
`features.stft` and `converter.resample` (imported with `from .audio import
...`) are traced as well as `audio.stft`. The program itself is not changed;
`uninstall()` restores every original binding.

Each call records a span: name, parent span, start, end and the operation it
belongs to. Spans stay in memory; `layer_metrics()` derives self time (span
duration minus the duration of its direct child spans), call counts and the
shape-derived `_computed` quantities.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import pkgutil
import time
from collections import defaultdict


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1  # identifier of the operation the next spans belong to
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        names, parents, ops, starts, ends = self.names, self.parents, self.ops, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def install(self, package) -> None:
        """Wrap the public callables of every module of `package`."""
        modules = [importlib.import_module(f"{package.__name__}.{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)]
        replacement: dict[int, object] = {}
        for module in modules:
            short = _short(module.__name__)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    self._originals[name] = obj
                    replacement[id(obj)] = self._wrap(name, obj, self._after(name, obj))
                elif inspect.isclass(obj):
                    self._wrap_class(short, obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapped = replacement.get(id(obj))
                if wrapped is not None and wrapped.__wrapped__ is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapped)

    def _wrap_class(self, short: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{short}.{cls.__name__}" + ("" if attr == "__call__" else f".{attr}")
            if inspect.isfunction(member):
                wrapped = self._wrap(name, member, self._after(name, member))
            elif isinstance(member, classmethod):
                wrapped = classmethod(self._wrap(name, member.__func__))
            else:
                continue
            self._patches.append((cls, attr, member))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Counts taken from arguments and results
    # ------------------------------------------------------------------

    def _after(self, name: str, fn):
        counters = self.counters
        if name == "audio.resample":
            def after(args, kwargs, out):
                counters["audio.resample.out_samples"] += out.samples.size
        elif name == "audio.griffin_lim":
            sig = inspect.signature(fn)

            def after(args, kwargs, out):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counters["audio.griffin_lim.iters"] += bound.arguments["iters"]
        elif name == "features.timbre_shift_augment":
            def after(args, kwargs, out):
                counters["features.timbre_shift_augment.samples"] += args[0].samples.size
        elif name == "cqt.compute_cqt":
            sig = inspect.signature(fn)

            def after(args, kwargs, out):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                cfg = bound.arguments["cfg"]
                kernel = self._originals["cqt.kernel_length"](0, cfg)
                # one (frames x kernel) @ (kernel x 2*bins) product, 2 flops per MAC
                counters["cqt.compute_cqt.flops_computed"] += (
                    2.0 * out.magnitudes.shape[0] * kernel * 2 * cfg.n_bins)
        elif name == "nn.MultiHeadAttention":
            def after(args, kwargs, out):
                attn, x = args[0], args[1]
                *batch, frames, _dim = x.shape
                counters["nn.attention.score_bytes_computed"] += (
                    math.prod(batch) * attn.n_heads * frames * frames * x.data.itemsize)
        elif name == "cli.main":
            def after(args, kwargs, out):
                counters["cli.main.failed"] += int(out != 0)
        else:
            after = None
        return after

    # ------------------------------------------------------------------
    # Derived per-layer metrics
    # ------------------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds and inclusive seconds."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0,
                                                                   "total_s": 0.0})
        for i in range(n):
            row = table[self.names[i]]
            dur = self.ends[i] - self.starts[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return dict(table)

    def _has_ancestor(self, sid: int, name: str) -> bool:
        p = self.parents[sid]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False

    def _step_split(self, trainer: str, save: str, compute: set[str]) -> tuple[float, float]:
        """Mean data and compute seconds per training step. Steps start at
        each `tensor.zero_grads` directly under `trainer`; the last step ends
        where the checkpoint save starts. Compute is the inclusive time of the
        direct children named in `compute`; data is the rest of the step."""
        kids = defaultdict(list)
        for i, p in enumerate(self.parents):
            if p >= 0 and self.names[p] == trainer:
                kids[p].append(i)
        data_total = compute_total = 0.0
        steps = 0
        for children in kids.values():
            marks = [self.starts[i] for i in children if self.names[i] == "tensor.zero_grads"]
            ends = [self.starts[i] for i in children if self.names[i] == save]
            if not marks or not ends:
                continue
            bounds = marks + [ends[0]]
            for lo, hi in zip(bounds, bounds[1:]):
                busy = sum(self.ends[i] - self.starts[i] for i in children
                           if self.names[i] in compute and lo <= self.starts[i] < hi)
                compute_total += busy
                data_total += (hi - lo) - busy
                steps += 1
        if not steps:
            return 0.0, 0.0
        return data_total / steps, compute_total / steps

    def layer_metrics(self) -> dict[str, float]:
        table = self.aggregate()
        out: dict[str, float] = defaultdict(float)
        for name, row in table.items():
            out[f"{name}.calls"] = row["calls"]
            out[f"{name}.s"] = row["self_s"]
            out[f"{name}.total_s"] = row["total_s"]
        out.update(self.counters)
        nfe = sum(1 for i, name in enumerate(self.names)
                  if name == "converter.VelocityNet" and self._has_ancestor(i, "converter.ode_sample"))
        out["converter.nfe"] = nfe
        out["converter.s_per_nfe"] = out["converter.ode_sample.total_s"] / nfe if nfe else 0.0
        data, compute = self._step_split(
            "converter.train_converter", "converter.ConverterModel.save",
            {"converter.cfm_loss", "tensor.backward", "optim.AdamW.step"})
        out["converter.train.data_s_per_step"] = data
        out["converter.train.compute_s_per_step"] = compute
        data, compute = self._step_split(
            "pitch.train_pitch_extractor", "pitch.PitchExtractor.save",
            {"pitch.PitchExtractor.encode_cqt", "pitch.PitchExtractor.encode_midi",
             "tensor.l1_loss", "tensor.backward", "optim.AdamW.step"})
        out["pitch.train.data_s_per_step"] = data
        out["pitch.train.compute_s_per_step"] = compute
        return out

    def dump(self) -> dict:
        """Spans in a compact column layout, for writing out after the run."""
        index = {name: i for i, name in enumerate(dict.fromkeys(self.names))}
        return {
            "names": list(index),
            "name": [index[n] for n in self.names],
            "parent": self.parents,
            "op": self.ops,
            "start": self.starts,
            "end": self.ends,
        }
