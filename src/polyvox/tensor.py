"""Dense float64 tensors with reverse-mode automatic differentiation.

Each primitive records its inputs and a backward closure on the produced
tensor when one of the inputs needs a gradient, and nothing otherwise, so
a network whose parameters are constants runs without a tape.
`backward(loss)` topologically sorts the implicit tape and replays it in
reverse, accumulating gradients exactly once per node. The primitive
set is only what transformer-style networks need.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from .errors import ContractError

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_grad_owned")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward
        self._grad_owned = False

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"

    # operator sugar; non-tensors are lifted to constants
    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, _lift(-1.0))


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _needs_grad(t: Tensor) -> bool:
    return t.requires_grad or bool(t._parents)


def _accumulate(t: Tensor, g: np.ndarray):
    # copy-on-write: the first contribution is borrowed (it is never
    # mutated upstream once this node's backward has run); a second
    # contribution allocates a fresh owned array
    if not _needs_grad(t):
        return
    if t.grad is None:
        t.grad = g
        t._grad_owned = False
    elif t._grad_owned:
        t.grad += g
    else:
        t.grad = t.grad + g
        t._grad_owned = True


def _owned_grad(t: Tensor) -> np.ndarray:
    """Gradient buffer of t that is safe to mutate in place."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    elif not t._grad_owned:
        t.grad = t.grad.copy()
    t._grad_owned = True
    return t.grad


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _node(data, parents, backward) -> Tensor:
    # the tape is kept only where a gradient can flow: a result computed
    # from constants alone is itself a constant, with no parents to hold
    if any(_needs_grad(p) for p in parents):
        return Tensor(data, _parents=tuple(parents), _backward=backward)
    return Tensor(data)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _node(out_data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(-g, b.shape))

    return _node(out_data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _node(out_data, (a, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ContractError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    try:
        out_data = a.data @ b.data
    except ValueError as exc:
        raise ContractError(f"matmul shape mismatch: {a.shape} @ {b.shape}") from exc

    def bwd(g):
        _accumulate(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        _accumulate(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _node(out_data, (a, b), bwd)


def transpose(a: Tensor, axes: tuple) -> Tensor:
    inverse = tuple(np.argsort(axes))

    def bwd(g):
        _accumulate(a, g.transpose(inverse))

    return _node(a.data.transpose(axes), (a,), bwd)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    def bwd(g):
        _accumulate(a, g.reshape(a.shape))

    return _node(a.data.reshape(shape), (a,), bwd)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accumulate(t, piece)

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bwd)


def slice_(a: Tensor, key) -> Tensor:
    def bwd(g):
        if _needs_grad(a):
            _owned_grad(a)[key] += g

    return _node(a.data[key], (a,), bwd)


def softmax(a: Tensor, axis: int = -1, scale: float = 1.0) -> Tensor:
    """softmax(scale * a) along `axis`, built in one scratch array: the
    shift, `exp` and normalisation run in place on it."""
    y = a.data * scale
    y -= y.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        d = y * (g - dot)
        d *= scale
        _accumulate(a, d)

    return _node(y, (a,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalization over the last axis with learnable gain and bias."""
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out_data = xhat * gain.data + bias.data

    def bwd(g):
        gg = g * gain.data
        m1 = gg.mean(axis=-1, keepdims=True)
        m2 = (gg * xhat).mean(axis=-1, keepdims=True)
        _accumulate(x, (gg - m1 - xhat * m2) * inv)
        axes = tuple(range(g.ndim - 1))
        _accumulate(gain, (g * xhat).sum(axis=axes))
        _accumulate(bias, g.sum(axis=axes))

    return _node(out_data, (x, gain, bias), bwd)


def gelu(x: Tensor) -> Tensor:
    cdf = 0.5 * (1.0 + erf(x.data / _SQRT2))
    out_data = x.data * cdf

    def bwd(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x.data * x.data)
        _accumulate(x, g * (cdf + x.data * pdf))

    return _node(out_data, (x,), bwd)


def mean(a: Tensor) -> Tensor:
    def bwd(g):
        _accumulate(a, np.full(a.shape, float(g) / a.data.size))

    return _node(a.data.mean(), (a,), bwd)


def sum_(a: Tensor) -> Tensor:
    def bwd(g):
        _accumulate(a, np.full(a.shape, float(g)))

    return _node(a.data.sum(), (a,), bwd)


def _masked_loss(a: Tensor, b: Tensor, mask, point, point_grad) -> Tensor:
    if a.shape != b.shape:
        raise ContractError(f"loss operands differ in shape: {a.shape} vs {b.shape}")
    diff = a.data - b.data
    if mask is None:
        weight = None
        denom = diff.size
    else:
        weight = np.broadcast_to(np.asarray(mask, dtype=np.float64), diff.shape)
        denom = weight.sum()
        if denom <= 0:
            raise ContractError("loss mask selects no elements")
    unit = point(diff) if weight is None else point(diff) * weight
    out_data = unit.sum() / denom

    def bwd(g):
        d = point_grad(diff) * (float(g) / denom)
        if weight is not None:
            d = d * weight
        _accumulate(a, d)
        _accumulate(b, -d)

    return _node(out_data, (a, b), bwd)


def l1_loss(a: Tensor, b: Tensor, mask=None) -> Tensor:
    """Mean absolute difference, optionally weighted by a constant mask."""
    return _masked_loss(a, b, mask, np.abs, np.sign)


def mse_loss(a: Tensor, b: Tensor, mask=None) -> Tensor:
    """Mean squared difference, optionally weighted by a constant mask."""
    return _masked_loss(a, b, mask, np.square, lambda d: 2.0 * d)


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse-mode sweep from a scalar loss.

    Returns a map from each requires_grad leaf to its gradient; every
    reachable tensor's `.grad` is populated as a side effect.
    """
    if loss.data.shape != ():
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")

    topo: list[Tensor] = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))

    loss.grad = np.asarray(1.0)
    loss._grad_owned = True
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)

    return {t: t.grad for t in topo if t.requires_grad and not t._parents and t.grad is not None}


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None
        t._grad_owned = False
