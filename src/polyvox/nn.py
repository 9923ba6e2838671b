"""Transformer building blocks on top of the autodiff tensors.

Modules register their parameters in a shared ParamStore under dotted names
so checkpoints and the optimizer see one flat dictionary. All sequence
inputs are (..., frames, dim); attention splits the heads onto a leading
axis and runs them all through one `tensor.attention` call.

One precision rule: a layer computes in its parameters' dtype. Every new
parameter is float32 (`PARAM_DTYPE`), the dtype a checkpoint stores, and
`Linear` casts its input to its weight's dtype, so a network's first
projection decides the dtype of everything after it. New and loaded models
compute in float32 whatever dtype their callers' data has; float64 compute
happens only where a store is built on float64 `arrays`, as the tests'
finite-difference and reference copies are. State carried from one network
call to the next follows the same rule: `converter.cfm_loss` builds its path
state and `converter.ode_sample` its ODE state in the net's dtype.
"""

from __future__ import annotations

import functools

import numpy as np

from . import tensor as T
from .errors import ContractError
from .tensor import Tensor

PARAM_DTYPE = np.float32
FF_MULT = 4  # feed-forward hidden width over model width


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Glorot-uniform initial value of a (fan_in, fan_out) weight."""
    bound = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-bound, bound, shape)


class ParamStore:
    """One model's parameters under dotted names.

    A new store makes each parameter from its initializer as it is
    registered, so its Xavier weights are drawn from `rng` in registration
    order. A store built on a checkpoint's `arrays` takes every parameter
    from them instead, checked against its shape and kept in its dtype
    (float32 stays float32, anything else becomes float64), and makes none:
    a loaded model draws no weights only to overwrite them."""

    def __init__(self, rng: np.random.Generator, trainable: bool = True,
                 arrays: dict[str, np.ndarray] | None = None):
        self.rng = rng
        self.trainable = trainable
        self.params: dict[str, Tensor] = {}
        self._source = arrays

    def param(self, name: str, shape: tuple, init) -> Tensor:
        """Register parameter `name` of `shape`. In a new store its value
        is `init`, an array or scalar broadcast to `shape` or a function
        `(rng, shape)` such as `xavier_uniform`, rounded to `PARAM_DTYPE`.
        A store built on arrays takes `arrays[name]` and ignores `init`."""
        if name in self.params:
            raise ContractError(f"duplicate parameter name {name!r}")
        if self._source is not None:
            data = _checkpoint_array(self._source, name, shape)
        else:
            value = init(self.rng, shape) if callable(init) else np.broadcast_to(init, shape)
            data = np.array(value, dtype=PARAM_DTYPE)
        t = Tensor(data, requires_grad=self.trainable)
        self.params[name] = t
        return t

    def arrays(self) -> dict[str, np.ndarray]:
        return {k: v.data for k, v in self.params.items()}


def _checkpoint_array(arrays: dict[str, np.ndarray], key: str, shape: tuple) -> np.ndarray:
    """A copy of `arrays[key]` as tensor data, checked to have `shape`."""
    if key not in arrays:
        raise ContractError(f"checkpoint missing parameter {key!r}")
    if arrays[key].shape != tuple(shape):
        raise ContractError(f"shape mismatch for {key!r}: {arrays[key].shape} vs {tuple(shape)}")
    return np.array(T.as_data(arrays[key]))


class Linear:
    def __init__(self, store: ParamStore, name: str, d_in: int, d_out: int,
                 zero_init: bool = False, identity_init: bool = False):
        if identity_init:
            if d_in != d_out:
                raise ContractError("identity init needs square weight")
            init = np.eye(d_in)
        else:
            init = 0.0 if zero_init else xavier_uniform
        self.w = store.param(f"{name}.w", (d_in, d_out), init)
        self.b = store.param(f"{name}.b", (d_out,), 0.0)

    def __call__(self, x: Tensor) -> Tensor:
        return T.matmul(T.cast(x, self.w.data.dtype), self.w) + self.b


class LayerNorm:
    def __init__(self, store: ParamStore, name: str, dim: int, affine: bool = True):
        # without affine parameters the gain and bias are exact float32 ones
        # and zeros: they keep a float32 input float32 and a float64 one float64
        self.gain = (store.param(f"{name}.g", (dim,), 1.0) if affine
                     else Tensor(np.ones(dim, dtype=np.float32)))
        self.bias = (store.param(f"{name}.b", (dim,), 0.0) if affine
                     else Tensor(np.zeros(dim, dtype=np.float32)))

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias)


class MultiHeadAttention:
    """Scaled dot-product self-attention over `n_heads` heads of
    dim // n_heads; training and inference share the one fused
    `tensor.attention` primitive."""

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

        def heads(piece):
            return T.transpose(T.reshape(piece, (*batch, frames, h, hd)), split)

        q = heads(self.q(x))
        k = heads(self.k(x))
        v = heads(self.v(x))
        mixed = T.attention(q, k, v, scale=1.0 / np.sqrt(hd))
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

    def __init__(self, store: ParamStore, name: str, dim: int, n_heads: int):
        self.ln1 = LayerNorm(store, f"{name}.ln1", dim)
        self.attn = MultiHeadAttention(store, f"{name}.attn", dim, n_heads)
        self.ln2 = LayerNorm(store, f"{name}.ln2", dim)
        self.ff = FeedForward(store, f"{name}.ff", dim, FF_MULT * dim)

    def __call__(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.ln1(x))
        return x + self.ff(self.ln2(x))


@functools.lru_cache(maxsize=16)
def _position_table(frames: int, dim: int, dtype: np.dtype) -> np.ndarray:
    pos = np.arange(frames)[:, None]
    idx = np.arange(dim // 2)[None, :]
    angles = pos / (10000.0 ** (2.0 * idx / dim))
    table = np.zeros((frames, dim))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    table = table.astype(dtype, copy=False)
    table.setflags(write=False)
    return table


def sinusoidal_positions(frames: int, dim: int, dtype) -> np.ndarray:
    """Fixed sin/cos position table, (frames, dim), computed in float64 and
    rounded to `dtype`; dim must be even. The table is cached read-only."""
    if dim % 2:
        raise ContractError(f"position table needs an even dim, got {dim}")
    return _position_table(frames, dim, np.dtype(dtype))


def timestep_embedding(t: float, dim: int) -> np.ndarray:
    """Sinusoidal embedding of a scalar time in [0, 1], shape (dim,); dim is
    even, as `sinusoidal_positions` requires of the same width."""
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    angles = 1000.0 * t * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)])


class SequenceEncoder:
    """Linear input projection, sinusoidal positions, pre-norm transformer
    stack, final layer norm: (frames, d_in) -> (frames, dim). The position
    table takes the projection's dtype, the parameters' dtype."""

    def __init__(self, store: ParamStore, name: str, d_in: int, dim: int,
                 n_layers: int, n_heads: int):
        self.proj = Linear(store, f"{name}.proj", d_in, dim)
        self.blocks = [
            TransformerBlock(store, f"{name}.block{i}", dim, n_heads) for i in range(n_layers)
        ]
        self.final = LayerNorm(store, f"{name}.final", dim)
        self.dim = dim

    def __call__(self, x: Tensor) -> Tensor:
        h = self.proj(x)
        h = h + Tensor(sinusoidal_positions(h.shape[-2], self.dim, h.data.dtype))
        for block in self.blocks:
            h = block(h)
        return self.final(h)
