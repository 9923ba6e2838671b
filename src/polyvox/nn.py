"""Transformer building blocks on top of the autodiff tensors.

Modules register their parameters in a shared ParamStore under dotted names
so checkpoints and the optimizer see one flat dictionary. All sequence
inputs are (frames, dim); attention batches heads through the 3-D matmul.
"""

from __future__ import annotations

import functools

import numpy as np

from . import tensor as T
from .errors import ContractError
from .tensor import Tensor


class ParamStore:
    def __init__(self, rng: np.random.Generator, trainable: bool = True):
        self.rng = rng
        self.trainable = trainable
        self.params: dict[str, Tensor] = {}

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self.params:
            raise ContractError(f"duplicate parameter name {name!r}")
        t = Tensor(data, requires_grad=self.trainable)
        self.params[name] = t
        return t

    def xavier(self, name: str, fan_in: int, fan_out: int) -> Tensor:
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return self.add(name, self.rng.uniform(-bound, bound, (fan_in, fan_out)))

    def zeros(self, name: str, shape) -> Tensor:
        return self.add(name, np.zeros(shape))

    def ones(self, name: str, shape) -> Tensor:
        return self.add(name, np.ones(shape))

    def arrays(self) -> dict[str, np.ndarray]:
        return {k: v.data for k, v in self.params.items()}

    def load(self, arrays: dict[str, np.ndarray], prefix: str = "") -> None:
        """Copy `arrays[prefix + name]` into each parameter. A float32 array
        stays float32, as `Tensor` keeps it, so a store loaded from a
        checkpoint computes in float32; any other array becomes float64."""
        for name, p in self.params.items():
            key = prefix + name
            if key not in arrays:
                raise ContractError(f"checkpoint missing parameter {key!r}")
            if arrays[key].shape != p.data.shape:
                raise ContractError(
                    f"shape mismatch for {key!r}: {arrays[key].shape} vs {p.data.shape}")
            p.data = np.array(T.as_data(arrays[key]))


class Linear:
    def __init__(self, store: ParamStore, name: str, d_in: int, d_out: int,
                 zero_init: bool = False, identity_init: bool = False):
        if identity_init:
            if d_in != d_out:
                raise ContractError("identity init needs square weight")
            self.w = store.add(f"{name}.w", np.eye(d_in))
        elif zero_init:
            self.w = store.zeros(f"{name}.w", (d_in, d_out))
        else:
            self.w = store.xavier(f"{name}.w", d_in, d_out)
        self.b = store.zeros(f"{name}.b", (d_out,))

    def __call__(self, x: Tensor) -> Tensor:
        return T.matmul(x, self.w) + self.b


class LayerNorm:
    def __init__(self, store: ParamStore, name: str, dim: int, affine: bool = True):
        # without affine parameters the gain and bias are exact float32 ones
        # and zeros: they keep a float32 input float32 and a float64 one float64
        self.gain = (store.ones(f"{name}.g", (dim,)) if affine
                     else Tensor(np.ones(dim, dtype=np.float32)))
        self.bias = (store.zeros(f"{name}.b", (dim,)) if affine
                     else Tensor(np.zeros(dim, dtype=np.float32)))

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias)


class MultiHeadAttention:
    def __init__(self, store: ParamStore, name: str, dim: int, n_heads: int):
        if dim % n_heads:
            raise ContractError(f"dim {dim} not divisible by {n_heads} heads")
        self.n_heads = n_heads
        self.head_dim = dim // n_heads
        self.q = Linear(store, f"{name}.q", dim, dim)
        self.k = Linear(store, f"{name}.k", dim, dim)
        self.v = Linear(store, f"{name}.v", dim, dim)
        self.out = Linear(store, f"{name}.out", dim, dim)

    def __call__(self, x: Tensor) -> Tensor:
        *batch, frames, dim = x.shape
        h, hd = self.n_heads, self.head_dim
        nb = len(batch)
        split = (*range(nb), nb + 1, nb, nb + 2)  # (..., T, h, hd) -> (..., h, T, hd)
        swap = (*range(nb + 1), nb + 2, nb + 1)

        def heads(piece):
            return T.transpose(T.reshape(piece, (*batch, frames, h, hd)), split)

        q = heads(self.q(x))
        k = heads(self.k(x))
        v = heads(self.v(x))
        scores = T.matmul(q, T.transpose(k, swap))
        mixed = T.matmul(T.softmax(scores, axis=-1, scale=1.0 / np.sqrt(hd)), v)
        merged = T.reshape(T.transpose(mixed, split), (*batch, frames, dim))
        return self.out(merged)


class FeedForward:
    def __init__(self, store: ParamStore, name: str, dim: int, hidden: int):
        self.up = Linear(store, f"{name}.up", dim, hidden)
        self.down = Linear(store, f"{name}.down", hidden, dim)

    def __call__(self, x: Tensor) -> Tensor:
        return self.down(T.gelu(self.up(x)))


class TransformerBlock:
    """Pre-norm block: x + attn(ln(x)), then x + ff(ln(x))."""

    def __init__(self, store: ParamStore, name: str, dim: int, n_heads: int, ff_mult: int = 4):
        self.ln1 = LayerNorm(store, f"{name}.ln1", dim)
        self.attn = MultiHeadAttention(store, f"{name}.attn", dim, n_heads)
        self.ln2 = LayerNorm(store, f"{name}.ln2", dim)
        self.ff = FeedForward(store, f"{name}.ff", dim, ff_mult * dim)

    def __call__(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.ln1(x))
        return x + self.ff(self.ln2(x))


@functools.lru_cache(maxsize=16)
def _position_table(frames: int, dim: int) -> np.ndarray:
    pos = np.arange(frames)[:, None]
    idx = np.arange(dim // 2)[None, :]
    angles = pos / (10000.0 ** (2.0 * idx / dim))
    table = np.zeros((frames, dim))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    table.setflags(write=False)
    return table


def sinusoidal_positions(frames: int, dim: int) -> np.ndarray:
    """Fixed sin/cos position table, (frames, dim); dim must be even."""
    if dim % 2:
        raise ContractError(f"position table needs an even dim, got {dim}")
    return _position_table(frames, dim)


def timestep_embedding(t: float, dim: int) -> np.ndarray:
    """Sinusoidal embedding of a scalar time in [0, 1], shape (dim,)."""
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    angles = 1000.0 * t * freqs
    emb = np.concatenate([np.sin(angles), np.cos(angles)])
    if emb.size < dim:
        emb = np.concatenate([emb, np.zeros(dim - emb.size)])
    return emb


class SequenceEncoder:
    """Linear input projection, sinusoidal positions, pre-norm transformer
    stack, final layer norm: (frames, d_in) -> (frames, dim)."""

    def __init__(self, store: ParamStore, name: str, d_in: int, dim: int,
                 n_layers: int, n_heads: int):
        self.proj = Linear(store, f"{name}.proj", d_in, dim)
        self.blocks = [
            TransformerBlock(store, f"{name}.block{i}", dim, n_heads) for i in range(n_layers)
        ]
        self.final = LayerNorm(store, f"{name}.final", dim)
        self.dim = dim

    def __call__(self, x: Tensor) -> Tensor:
        h = self.proj(x) + Tensor(sinusoidal_positions(x.shape[-2], self.dim))
        for block in self.blocks:
            h = block(h)
        return self.final(h)
