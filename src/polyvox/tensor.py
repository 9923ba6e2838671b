"""Dense float tensors with reverse-mode automatic differentiation.

A tensor holds float32 data as float32 and anything else as float64, and a
result takes numpy's promotion of its operands: float32 only when every
array operand is float32. A Python scalar or 0-d value lifted into an
operation takes the dtype of the tensor it meets, so `x + 1.0` leaves a
float32 `x` float32, and so do the scalar constants inside the primitives
(the softmax and attention `scale`, the GELU constants, the layer-norm
`_LN_EPS`). Parameters are float32, new ones (`nn.ParamStore`) and loaded
ones (`optim.load_checkpoint`) alike, and `nn.Linear` casts its input to
its weights' dtype, so training and inference both compute in float32;
float64 is kept where a caller builds float64 parameters itself, as the
finite-difference gradient tests do. Every primitive computes the same
formula in both dtypes except `gelu`: float64 takes erf from scipy, and
float32 from a rational minimax fit evaluated in float32, which stays
within 5e-7 of the exact erf and runs several times faster.

Each primitive records its inputs and a backward closure on the produced
tensor when one of the inputs needs a gradient, and nothing otherwise, so
a network whose parameters are constants runs without a tape.
`backward(loss)` topologically sorts the implicit tape and replays it in
reverse, running each node's closure exactly once; an interior node's
gradient is freed as soon as its closure has consumed it, so only the
leaves keep a `.grad` afterwards. Gradients follow one rule: a node's first
contribution is kept as it arrives and each later one is summed into a new
array, so no gradient array is ever written in place, and a closure may
pass on the array it was given. The primitive set is what the pipeline's
networks call, with `+` and `*` the only operators on a tensor, plus three
that only the tests call: `softmax`, the reference `attention` must match,
and the reductions `mean` and `sum_`, which turn a test's output into a
scalar to differentiate. A network input joined from several arrays is
joined with numpy before it is wrapped, so no primitive concatenates. Each
primitive keeps the tape small:
`attention` is softmax(scale·q kᵀ) v as one primitive, so that a call
holds one (…, T, T) array instead of the scores and the weights apart;
`matmul` adds a linear layer's bias in place, in its own node; and
`layer_norm` without a gain and bias records x̂ alone.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

from .errors import ContractError

# Python floats, so that they take the dtype of the array they meet
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LN_EPS = 1e-5  # the layer-norm variance floor

# erf(z) ~= z P(z^2) / Q(z^2) on z clamped to [-4, 4], highest power first:
# a float32 rational minimax fit (the one Eigen and XLA use)
_ERF_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
          -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
          -1.60960333262415e-02)
_ERF_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
          -7.37332916720468e-03, -1.42647390514189e-02)


def as_data(x) -> np.ndarray:
    """`x` as tensor data: float32 stays float32, anything else becomes
    float64 (without a copy when it already is)."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else np.asarray(x, dtype=np.float64)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = as_data(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    # operator sugar; non-tensors are lifted to constants
    def __add__(self, other):
        return add(self, _lift(other, self))

    def __mul__(self, other):
        return mul(self, _lift(other, self))


def _lift(x, like: Tensor) -> Tensor:
    """A constant operand for `like`; a scalar takes like's dtype, so that
    it does not widen a float32 tensor."""
    if isinstance(x, Tensor):
        return x
    if np.ndim(x) == 0:
        return Tensor(np.asarray(x, dtype=like.data.dtype))
    return Tensor(x)


def _needs_grad(t: Tensor) -> bool:
    return t.requires_grad or bool(t._parents)


def _accumulate(t: Tensor, g: np.ndarray):
    """Add the contribution `g` to t's gradient: the first is stored as it
    comes (it may be another node's array, so it is never written to), and
    each later one is summed into a new array."""
    if _needs_grad(t):
        t.grad = g if t.grad is None else t.grad + g


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


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _node(out_data, (a, b), bwd)


def _swap(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast. A
    `bias` is added to the product in place, inside this node, so a linear
    layer records one array on the tape rather than the product and its
    sum; it broadcasts against the product and may not widen its shape.
    The backward forms a product's gradient only for an operand that needs
    one: a constant input costs no g @ bᵀ."""
    try:
        if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
            raise ValueError("inner axes differ")
        out_data = a.data @ b.data  # raises on leading axes that do not broadcast
        parents = (a, b)
        if bias is not None:
            # in place, unless the bias widens the product's dtype (float64
            # onto float32); `out=` raises if it would widen the shape
            dtype = np.result_type(out_data, bias.data)
            out = out_data if dtype == out_data.dtype else np.empty(out_data.shape, dtype)
            out_data = np.add(out_data, bias.data, out=out)
            parents = (a, b, bias)
    except ValueError as exc:
        tail = "" if bias is None else f" + {bias.shape}"
        raise ContractError(f"matmul shape mismatch: {a.shape} @ {b.shape}{tail}") from exc

    def bwd(g):
        if _needs_grad(a):
            _accumulate(a, _unbroadcast(g @ _swap(b.data), a.shape))
        if _needs_grad(b):
            _accumulate(b, _unbroadcast(_swap(a.data) @ g, b.shape))
        if bias is not None:
            _accumulate(bias, _unbroadcast(g, bias.shape))

    return _node(out_data, parents, bwd)


def cast(a: Tensor, dtype) -> Tensor:
    """`a` with its data in `dtype` (itself when it already is); the
    gradient flows back in a's own dtype."""
    if a.data.dtype == dtype:
        return a

    def bwd(g):
        _accumulate(a, g.astype(a.data.dtype))

    return _node(a.data.astype(dtype), (a,), bwd)


def transpose(a: Tensor, axes: tuple) -> Tensor:
    inverse = tuple(np.argsort(axes))

    def bwd(g):
        _accumulate(a, g.transpose(inverse))

    return _node(a.data.transpose(axes), (a,), bwd)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    def bwd(g):
        _accumulate(a, g.reshape(a.shape))

    return _node(a.data.reshape(shape), (a,), bwd)


def slice_(a: Tensor, key) -> Tensor:
    def bwd(g):
        full = np.zeros_like(a.data)
        full[key] = g
        _accumulate(a, full)

    return _node(a.data[key], (a,), bwd)


def softmax(a: Tensor, axis: int = -1, scale: float = 1.0) -> Tensor:
    """softmax(scale * a) along `axis`, built in one scratch array: the
    shift, `exp` and normalisation run in place on it. `scale` is taken in
    a's dtype."""
    scale = a.data.dtype.type(scale)
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


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float) -> Tensor:
    """softmax(scale * q kᵀ) v over the last two axes, for q (…, T, d),
    k (…, S, d) and v (…, S, e); leading axes broadcast. `q` is scaled
    rather than the (…, T, S) scores, the shift and `exp` run in place on
    the scores, and the normalisation divides the (…, T, e) product, so a
    call allocates one T·S array. The backward rebuilds the weights from
    it and uses rowsum(dP ⊙ P) = rowsum(g ⊙ out) (FlashAttention, Dao et
    al., arXiv:2205.14135). `scale` is taken in q's dtype."""
    mismatch = f"attention shape mismatch: q {q.shape}, k {k.shape}, v {v.shape}"
    if (min(q.data.ndim, k.data.ndim, v.data.ndim) < 2 or q.shape[-1] != k.shape[-1]
            or k.shape[-2] != v.shape[-2]):
        raise ContractError(mismatch)
    scale = q.data.dtype.type(scale)
    qs = q.data * scale
    try:
        e = qs @ _swap(k.data)
    except ValueError as exc:  # leading axes that do not broadcast
        raise ContractError(mismatch) from exc
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    den = e.sum(axis=-1, keepdims=True)
    out_data = e @ v.data
    out_data /= den

    def bwd(g):
        p = e / den
        _accumulate(v, _unbroadcast(_swap(p) @ g, v.shape))
        ds = g @ _swap(v.data)
        ds -= (g * out_data).sum(axis=-1, keepdims=True)
        ds *= p
        # dS = scale * ds: dk = dSᵀ q = dsᵀ (scale q), dq = dS k = scale (ds k)
        _accumulate(k, _unbroadcast(_swap(ds) @ qs, k.shape))
        dq = ds @ k.data
        dq *= scale
        _accumulate(q, _unbroadcast(dq, q.shape))

    return _node(out_data, (q, k, v), bwd)


def layer_norm(x: Tensor, gain: Tensor | None = None, bias: Tensor | None = None) -> Tensor:
    """Normalization over the last axis, x̂ = (x - mean) / sqrt(var +
    `_LN_EPS`), then x̂ · gain + bias when the learnable pair is given.
    Without them the result is x̂ itself, and the backward forms no gain or
    bias sums: an affine-free norm records one array on the tape. Pass both
    or neither."""
    if (gain is None) != (bias is None):
        raise ContractError("layer_norm takes a gain and a bias together, or neither")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = centered * inv
    if gain is None:
        out_data, parents = xhat, (x,)
    else:
        out_data, parents = xhat * gain.data + bias.data, (x, gain, bias)

    def bwd(g):
        gg = g if gain is None else g * gain.data
        m1 = gg.mean(axis=-1, keepdims=True)
        m2 = (gg * xhat).mean(axis=-1, keepdims=True)
        _accumulate(x, (gg - m1 - xhat * m2) * inv)
        if gain is not None:
            axes = tuple(range(g.ndim - 1))
            _accumulate(gain, (g * xhat).sum(axis=axes))
            _accumulate(bias, g.sum(axis=axes))

    return _node(out_data, parents, bwd)


def _horner(t: np.ndarray, coeffs: tuple) -> np.ndarray:
    acc = t * coeffs[0]
    acc += coeffs[1]
    for c in coeffs[2:]:
        acc *= t
        acc += c
    return acc


def _erf_float32(z: np.ndarray) -> np.ndarray:
    """erf of float32 data in float32, within 5e-7 of the exact value
    (scipy's erf is several times slower on float32 input)."""
    z = np.clip(z, -4.0, 4.0)
    t = z * z
    num = _horner(t, _ERF_P)
    num *= z
    num /= _horner(t, _ERF_Q)
    return num


def gelu(x: Tensor) -> Tensor:
    """x · Φ(x) with the exact (erf) normal CDF; see the module docstring
    for the float32 erf."""
    if x.data.dtype == np.float32:
        cdf = _erf_float32(x.data / _SQRT2)
        cdf += 1.0
        cdf *= 0.5
    else:
        cdf = 0.5 * (1.0 + erf(x.data / _SQRT2))
    out_data = x.data * cdf

    def bwd(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x.data * x.data)
        _accumulate(x, g * (cdf + x.data * pdf))

    return _node(out_data, (x,), bwd)


def mean(a: Tensor) -> Tensor:
    def bwd(g):
        _accumulate(a, np.full(a.shape, float(g) / a.data.size, dtype=a.data.dtype))

    return _node(a.data.mean(), (a,), bwd)


def sum_(a: Tensor) -> Tensor:
    def bwd(g):
        _accumulate(a, np.full(a.shape, float(g), dtype=a.data.dtype))

    return _node(a.data.sum(), (a,), bwd)


def _masked_loss(a: Tensor, b: Tensor, mask, point, point_grad) -> Tensor:
    if a.shape != b.shape:
        raise ContractError(f"loss operands differ in shape: {a.shape} vs {b.shape}")
    diff = a.data - b.data
    if mask is None:
        weight = None
        denom = diff.size
    else:
        weight = np.broadcast_to(np.asarray(mask, dtype=diff.dtype), diff.shape)
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

    Returns a map from each requires_grad leaf to its gradient, which is
    also left on the leaf's `.grad`. Contributions to a node are summed into
    new arrays (`_accumulate`) and no gradient is written in place, so a
    leaf's `.grad` may be an array another node also received. An interior
    node's `.grad` is dropped once its backward closure has run, so the
    sweep holds only the gradients still owed to nodes below it; its
    closure and parents stay until the caller drops the graph.
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
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        if node._parents:
            node.grad = None

    return {t: t.grad for t in topo if t.requires_grad and not t._parents and t.grad is not None}


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None
