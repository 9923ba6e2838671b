import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import erf

from polyvox import tensor as T
from polyvox.errors import ContractError
from polyvox.nn import LayerNorm, Linear, ParamStore, xavier_uniform
from polyvox.optim import (MIN_LR_RATIO, WEIGHT_DECAY, AdamW, config_hash, load_checkpoint,
                           save_checkpoint)
from polyvox.tensor import Tensor, backward


def finite_difference_check(make_loss, params, h=1e-5, tol=1e-4):
    """Central differences against reverse-mode gradients, elementwise."""
    loss = make_loss()
    grads = backward(loss)
    for p in params:
        g = grads.get(p)
        analytic = (g if g is not None else np.zeros_like(p.data)).reshape(-1)
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(make_loss().data)
            flat[i] = orig - h
            down = float(make_loss().data)
            flat[i] = orig
            fd = (up - down) / (2 * h)
            rel = abs(analytic[i] - fd) / max(abs(analytic[i]), abs(fd), 1e-6)
            assert rel < tol, f"param grad mismatch: {analytic[i]} vs {fd}"


def widen_to_float64(store: ParamStore) -> None:
    """Make a store's float32 parameters float64, in place: central
    differences at h = 1e-5 resolve gradients only in float64."""
    for p in store.params.values():
        p.data = p.data.astype(np.float64)


class TestPrimitives:
    def test_matmul_shape(self):
        out = T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))))
        assert out.shape == (2, 4)

    def test_matmul_mismatch_mentions_shapes(self):
        with pytest.raises(ContractError, match=r"\(2, 3\).*\(4, 2\)"):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_softmax_rows_sum_to_one(self):
        y = T.softmax(Tensor(np.random.default_rng(0).normal(size=(5, 9))))
        assert np.allclose(y.data.sum(axis=1), 1.0, atol=1e-12)

    def test_scaled_softmax_equals_softmax_of_scaled_input(self):
        a = np.random.default_rng(2).normal(size=(4, 7, 7))
        s = 1.0 / np.sqrt(8)
        assert np.array_equal(T.softmax(Tensor(a), scale=s).data,
                              T.softmax(Tensor(a * s)).data)

    def test_constants_record_no_tape(self):
        rng = np.random.default_rng(3)
        a, b = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 4)))
        gain, bias = Tensor(np.ones(4)), Tensor(np.zeros(4))
        outs = [a + b, a * b, T.matmul(a, T.transpose(b, (1, 0))),
                T.softmax(a, scale=0.5), T.layer_norm(a, gain, bias), T.gelu(a),
                T.slice_(a, (slice(1, 2),)), T.reshape(a, (4, 3)),
                T.mean(a), T.mse_loss(a, b)]
        assert all(out._parents == () and out._backward is None for out in outs)
        w = Tensor(np.ones(4), requires_grad=True)
        assert (a * w)._parents == (a, w)

    def test_mse_self_gradient_zero(self):
        x = Tensor(np.random.default_rng(1).normal(size=(3, 4)), requires_grad=True)
        loss = T.mse_loss(x, x)
        grads = backward(loss)
        assert not np.any(grads.get(x, np.zeros(1)))

    def test_linear_loss_gradient(self):
        w = np.array([2.0, -3.0, 0.5])
        x = Tensor(np.array([1.0, 1.0, 1.0]), requires_grad=True)
        loss = T.sum_(Tensor(w) * x)
        grads = backward(loss)
        assert np.allclose(grads[x], w)

    def test_unused_parameter_gradient_is_zero(self):
        used = Tensor(np.ones(3), requires_grad=True)
        unused = Tensor(np.ones(3), requires_grad=True)
        grads = backward(T.sum_(used * 2.0))
        assert unused not in grads and unused.grad is None

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            backward(Tensor(np.ones(3), requires_grad=True) * 2.0)

    def test_gelu_values(self):
        y = T.gelu(Tensor(np.array([0.0, 100.0, -100.0])))
        assert np.allclose(y.data, [0.0, 100.0, 0.0], atol=1e-6)

    def test_slice_grad_fills_only_the_sliced_columns(self):
        a = Tensor(np.ones((2, 5)), requires_grad=True)
        w = np.arange(1.0, 7.0).reshape(2, 3)
        piece = T.slice_(a, (slice(None), slice(1, 4)))
        grads = backward(T.sum_(piece * Tensor(w)))
        expected = np.zeros((2, 5))
        expected[:, 1:4] = w
        assert np.array_equal(grads[a], expected)

    def test_loss_shape_mismatch(self):
        with pytest.raises(ContractError):
            T.l1_loss(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3))))


class TestL1Loss:
    """The pitch extractor's alignment loss."""

    def test_identical_is_zero(self):
        z = Tensor(np.random.default_rng(1).normal(size=(20, 8)))
        assert float(T.l1_loss(z, z).data) == 0.0

    def test_constant_offset(self):
        z = np.random.default_rng(2).normal(size=(20, 8))
        assert float(T.l1_loss(Tensor(z + 1.0), Tensor(z)).data) == pytest.approx(1.0)

    def test_hand_arithmetic(self):
        loss = T.l1_loss(Tensor(np.array([[1.0, -1.0]])), Tensor(np.array([[0.0, 1.0]])))
        assert float(loss.data) == pytest.approx(1.5)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_symmetric_and_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(6, 4)))
        b = Tensor(rng.normal(size=(6, 4)))
        ab = float(T.l1_loss(a, b).data)
        assert ab >= 0.0
        assert ab == pytest.approx(float(T.l1_loss(b, a).data))

    def test_shape_mismatch(self):
        """Equal sizes in other shapes are a mismatch too."""
        with pytest.raises(ContractError):
            T.l1_loss(Tensor(np.zeros((3, 4))), Tensor(np.zeros((4, 3))))


class TestDtypePolicy:
    """float32 data stays float32, scalars take the dtype of the tensor they
    meet, and float64 computes what it computed before the policy."""

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(11)
        a = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        b = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        gain, bias = Tensor(np.ones(4, np.float32)), Tensor(np.zeros(4, np.float32))
        plain = LayerNorm(ParamStore(rng), "ln", 4, affine=False)
        outs = {
            "add": a + b, "mul": a * b, "scalar add": a + 1.0, "scalar mul": a * 2.0,
            "numpy scalar mul": a * np.float64(0.5),
            "matmul": T.matmul(a, T.transpose(b, (1, 0))),
            "softmax": T.softmax(a, scale=1.0 / np.sqrt(8.0)),
            "layer_norm": T.layer_norm(a, gain, bias), "plain LayerNorm": plain(a),
            "gelu": T.gelu(a),
        }
        assert {k: v.data.dtype for k, v in outs.items()} == {k: np.float32 for k in outs}

    def test_other_data_becomes_float64(self):
        for data in (1.0, 3, np.arange(4), np.ones(2, np.float16), [0.5, 1.5]):
            assert Tensor(data).data.dtype == np.float64

    def test_float64_matches_the_float64_formulas_bit_for_bit(self):
        """The float64 formulas as written before the policy, with their
        numpy float64 constants."""
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 6, 6))
        s = 1.0 / np.sqrt(8.0)
        y = x * s
        y -= y.max(axis=-1, keepdims=True)
        np.exp(y, out=y)
        y /= y.sum(axis=-1, keepdims=True)
        assert np.array_equal(T.softmax(Tensor(x), scale=s).data, y)
        assert np.array_equal(T.gelu(Tensor(x)).data,
                              x * (0.5 * (1.0 + erf(x / np.sqrt(2.0)))))
        centered = x - x.mean(axis=-1, keepdims=True)
        xhat = centered * (1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True)
                                         + 1e-5))
        gain, bias = rng.normal(size=6), rng.normal(size=6)
        assert np.array_equal(T.layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data,
                              xhat * gain + bias)
        plain = LayerNorm(ParamStore(rng), "ln", 6, affine=False)(Tensor(x)).data
        assert plain.dtype == np.float64
        assert np.array_equal(plain, xhat * np.ones(6) + np.zeros(6))
        t = Tensor(x)
        assert np.array_equal((t + 1.0).data, x + 1.0)
        assert np.array_equal((t * 0.3).data, x * 0.3)

    def test_float32_losses_give_float32_gradients(self):
        """`sum_`, `mean` and a masked loss seed their backward in the
        operand's dtype, so the backward matmul stays float32."""
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        target = Tensor(np.zeros((3, 2), np.float32))
        mask = np.array([[1.0], [0.0], [1.0]])
        losses = {
            "sum_": lambda y: T.sum_(y), "mean": lambda y: T.mean(y),
            "masked mse_loss": lambda y: T.mse_loss(y, target, mask=mask),
            "masked l1_loss": lambda y: T.l1_loss(y, target, mask=mask),
            "mse_loss": lambda y: T.mse_loss(y, target),
        }
        dtypes = {}
        for name, loss in losses.items():
            w = Tensor(rng.normal(size=(4, 2)).astype(np.float32), requires_grad=True)
            dtypes[name] = backward(loss(T.matmul(x, w)))[w].dtype
        assert dtypes == {name: np.float32 for name in losses}

    def test_cast_passes_the_gradient_back_in_the_source_dtype(self):
        w = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        assert T.cast(w, np.float64) is w
        narrow = T.cast(w, np.float32)
        assert narrow.data.dtype == np.float32
        grads = backward(T.sum_(narrow * 2.0))
        assert grads[w].dtype == np.float64
        assert np.array_equal(grads[w], [2.0, 2.0, 2.0])


class TestGradientCorrectness:
    def test_three_layer_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        store = ParamStore(rng)
        w1 = store.param("w1", (4, 8), xavier_uniform)
        b1 = store.param("b1", (8,), 0.0)
        w2 = store.param("w2", (8, 8), xavier_uniform)
        b2 = store.param("b2", (8,), 0.0)
        w3 = store.param("w3", (8, 2), xavier_uniform)
        widen_to_float64(store)
        x = Tensor(rng.normal(size=(5, 4)))
        y = Tensor(rng.normal(size=(5, 2)))

        def loss():
            T.zero_grads(store.params.values())
            h1 = T.gelu(T.matmul(x, w1) + b1)
            h2 = T.gelu(T.matmul(h1, w2) + b2)
            return T.mse_loss(T.matmul(h2, w3), y)

        finite_difference_check(loss, list(store.params.values()))

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_random_composed_networks(self, seed):
        """3-5 layers drawn from the primitive set, FD-checked end to end."""
        rng = np.random.default_rng(seed)
        store = ParamStore(rng)
        dims = [6] + [int(rng.integers(4, 9)) for _ in range(int(rng.integers(3, 6)))]
        x = Tensor(rng.normal(size=(4, dims[0])))
        target = Tensor(rng.normal(size=(4, dims[-1])))
        gains = [store.param(f"g{i}", (d,), 1.0) for i, d in enumerate(dims[1:])]
        biases = [store.param(f"bn{i}", (d,), 0.0) for i, d in enumerate(dims[1:])]
        weights = [store.param(f"w{i}", (a, b), xavier_uniform)
                   for i, (a, b) in enumerate(zip(dims, dims[1:]))]
        widen_to_float64(store)

        def loss():
            T.zero_grads(store.params.values())
            h = x
            for i, w in enumerate(weights):
                h = T.matmul(h, w)
                kind = (seed + i) % 3
                if kind == 0:
                    h = T.gelu(h)
                elif kind == 1:
                    h = T.layer_norm(h, gains[i], biases[i])
                else:
                    h = T.softmax(h) + h
            return T.l1_loss(h, target)

        finite_difference_check(loss, list(store.params.values()))

    def test_scaled_softmax_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        a = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3, 5)))

        def loss():
            T.zero_grads([a])
            return T.sum_(T.softmax(a, scale=0.37) * w)

        finite_difference_check(loss, [a])

    def test_broadcast_add_mul_grads(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.normal(size=(3, 1, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(5, 4)), requires_grad=True)

        def loss():
            T.zero_grads([a, b])
            return T.mean((a + b) * b)

        finite_difference_check(loss, [a, b])


class _ProductSpy(np.ndarray):
    """An array that logs every matrix product it takes part in."""

    log: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _ProductSpy.log.append(ufunc)
        plain = [x.view(np.ndarray) if isinstance(x, _ProductSpy) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


class TestFusedBiasAndPlainNorm:
    """`matmul` takes a linear layer's bias into its own node, and a norm
    without gain and bias returns x̂ itself."""

    def test_matmul_bias_broadcast_over_a_batch_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        bias = Tensor(rng.normal(size=(5,)), requires_grad=True)
        r = Tensor(rng.normal(size=(2, 3, 5)))

        def loss():
            T.zero_grads([a, w, bias])
            return T.sum_(T.gelu(T.matmul(a, w, bias)) * r)

        finite_difference_check(loss, [a, w, bias])

    def test_plain_layer_norm_matches_finite_differences(self):
        rng = np.random.default_rng(32)
        x = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
        r = Tensor(rng.normal(size=(2, 3, 6)))

        def loss():
            T.zero_grads([x])
            return T.sum_(T.layer_norm(x) * r)

        finite_difference_check(loss, [x])

    def test_matmul_bias_is_the_sum_in_one_node(self):
        rng = np.random.default_rng(33)
        for dtype in (np.float32, np.float64):
            a = Tensor(rng.normal(size=(3, 4)).astype(dtype))
            w = Tensor(rng.normal(size=(4, 5)).astype(dtype), requires_grad=True)
            bias = Tensor(rng.normal(size=(5,)).astype(dtype), requires_grad=True)
            out = T.matmul(a, w, bias)
            assert out.data.dtype == dtype
            assert out._parents == (a, w, bias)
            assert np.array_equal(out.data, a.data @ w.data + bias.data)
            grads = backward(T.sum_(out * 2.0))
            assert np.array_equal(grads[bias], np.full(5, 6.0, dtype))
        widening = T.matmul(Tensor(np.ones((2, 3), np.float32)), Tensor(np.ones((3, 2), np.float32)),
                            Tensor(np.full(2, 0.1)))
        assert widening.data.dtype == np.float64 and np.all(widening.data == 3.1)
        with pytest.raises(ContractError, match=r"\(2, 3\) @ \(3, 2\) \+ \(4, 2, 2\)"):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))), Tensor(np.ones((4, 2, 2))))

    @pytest.mark.parametrize("a_needs_grad", [False, True])
    def test_constant_input_gets_no_gradient_product(self, a_needs_grad):
        """In the backward w's data takes part in one product, a's gradient
        g @ wᵀ (w's own is aᵀ @ g), which runs only when `a` needs it."""
        rng = np.random.default_rng(34)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=a_needs_grad)
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        w.data = w.data.view(_ProductSpy)
        loss = T.sum_(T.matmul(a, w, Tensor(np.zeros(5))))
        _ProductSpy.log.clear()
        grads = backward(loss)
        assert len(_ProductSpy.log) == int(a_needs_grad)
        assert grads[w].shape == (4, 5) and (a in grads) == a_needs_grad

    def test_linear_records_one_node(self):
        rng = np.random.default_rng(35)
        store = ParamStore(rng)
        lin = Linear(store, "lin", 4, 3)
        x = Tensor(rng.normal(size=(5, 4)).astype(np.float32))
        out = lin(x)
        assert out._parents == (x, lin.w, lin.b)
        assert np.array_equal(out.data, x.data @ lin.w.data + lin.b.data)

    def test_plain_layer_norm_returns_xhat_with_no_parameters(self):
        rng = np.random.default_rng(36)
        store = ParamStore(rng)
        plain = LayerNorm(store, "ln", 6, affine=False)
        assert store.params == {}
        for dtype in (np.float32, np.float64):
            x = Tensor(rng.normal(size=(3, 6)).astype(dtype), requires_grad=True)
            out = plain(x)
            assert out.data.dtype == dtype and out._parents == (x,)
            affine = T.layer_norm(x, Tensor(np.ones(6, dtype)), Tensor(np.zeros(6, dtype)))
            assert np.array_equal(out.data, affine.data)
            r = rng.normal(size=(3, 6)).astype(dtype)
            g_plain = backward(T.sum_(out * Tensor(r)))[x].copy()
            T.zero_grads([x])
            assert np.array_equal(g_plain, backward(T.sum_(affine * Tensor(r)))[x])
        with pytest.raises(ContractError, match="together"):
            T.layer_norm(x, gain=Tensor(np.ones(6)))


class TestAttention:
    """`T.attention` is softmax(scale q kᵀ) v as one primitive."""

    SCALE = 0.37

    @staticmethod
    def _qkv(dtype=np.float64, requires_grad=False):
        rng = np.random.default_rng(21)
        return [Tensor(rng.normal(size=(2, 3, 5, 4)).astype(dtype), requires_grad=requires_grad)
                for _ in range(3)]

    def _composed(self, q, k, v):
        return T.matmul(T.softmax(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), scale=self.SCALE),
                        v)

    def test_matches_finite_differences(self):
        q, k, v = self._qkv(requires_grad=True)
        w = Tensor(np.random.default_rng(22).normal(size=(2, 3, 5, 4)))

        def loss():
            T.zero_grads([q, k, v])
            return T.sum_(T.attention(q, k, v, self.SCALE) * w)

        finite_difference_check(loss, [q, k, v])

    def test_equals_the_softmax_composition(self):
        for dtype, tol in ((np.float64, 1e-13), (np.float32, 1e-6)):
            q, k, v = self._qkv(dtype)
            fused = T.attention(q, k, v, self.SCALE).data
            assert fused.dtype == dtype
            assert np.max(np.abs(fused - self._composed(q, k, v).data)) <= tol

    def test_constants_record_no_tape(self):
        out = T.attention(*self._qkv(), self.SCALE)
        assert out._parents == () and out._backward is None

    def test_shape_mismatch_is_a_contract_error(self):
        q, k, _ = self._qkv()
        with pytest.raises(ContractError, match="attention"):
            T.attention(q, k, Tensor(np.ones((2, 3, 6, 4))), self.SCALE)


class TestFloat32Gelu:
    """float32 GELU takes erf from a float32 rational fit instead of scipy."""

    def test_close_to_the_float64_formula(self):
        x = np.linspace(-10.0, 10.0, 400_001).astype(np.float32)
        y = T.gelu(Tensor(x)).data
        assert y.dtype == np.float32
        wide = x.astype(np.float64)
        exact = wide * (0.5 * (1.0 + erf(wide / np.sqrt(2.0))))
        assert np.all(np.abs(y - exact) <= 5e-7 * np.maximum(1.0, np.abs(wide)))

    def test_saturates_far_out(self):
        y = T.gelu(Tensor(np.array([100.0, -100.0], np.float32))).data
        assert np.array_equal(y, [100.0, 0.0])

    def test_float32_gradient_is_cdf_plus_x_pdf(self):
        x64 = np.linspace(-6.0, 6.0, 241)
        x = Tensor(x64.astype(np.float32), requires_grad=True)
        grads = backward(T.sum_(T.gelu(x)))
        exact = 0.5 * (1.0 + erf(x64 / np.sqrt(2.0))) + x64 * np.exp(-0.5 * x64 ** 2) / np.sqrt(
            2.0 * np.pi)
        assert np.max(np.abs(grads[x] - exact)) <= 2e-6


def _adamw_reference_step(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
                          lr: float, step: int) -> None:
    """AdamW's update as sixteen in-place operations on one (2, *shape)
    scratch buffer per parameter, the form `AdamW.step` once had; kept to pin
    the bits of the formula it is now written as."""
    bc1, bc2 = 1.0 - 0.9**step, 1.0 - 0.999**step
    num, den = np.empty((2, *p.shape), dtype=p.dtype)
    np.subtract(g, m, out=num)
    num *= 1.0 - 0.9
    m += num
    np.multiply(g, g, out=num)
    num -= v
    num *= 1.0 - 0.999
    v += num
    np.divide(m, bc1, out=num)
    np.divide(v, bc2, out=den)
    np.sqrt(den, out=den)
    den += 1e-8
    num /= den
    num *= lr
    p -= num
    np.multiply(p, lr * WEIGHT_DECAY, out=num)
    p -= num


class TestOptimizer:
    @pytest.mark.parametrize("missing", [False, True], ids=["every-grad", "a-missing-grad"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_step_is_the_in_place_reference_bit_for_bit(self, dtype, missing):
        """50 steps of `AdamW.step` leave the parameters and both moments
        equal, bit for bit, to the in-place reference's; with `missing`, one
        parameter has no gradient on every third step."""
        rng = np.random.default_rng(12)
        shapes = {"w": (6, 5), "b": (5,), "g": (3, 2, 4)}
        params = {k: Tensor(rng.normal(size=s).astype(dtype), requires_grad=True)
                  for k, s in shapes.items()}
        ref = {k: [p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)]
               for k, p in params.items()}
        opt = AdamW(params, 3e-2, 50)
        for step in range(50):
            for k, p in params.items():
                p.grad = rng.normal(scale=10.0 ** rng.integers(-3, 2), size=p.shape).astype(dtype)
            if missing and step % 3 == 0:
                params["b"].grad = None
            grads = {k: p.grad if p.grad is not None else np.zeros_like(p.data)
                     for k, p in params.items()}
            lr = opt.step()
            for k, (p, m, v) in ref.items():
                _adamw_reference_step(p, grads[k], m, v, lr, step + 1)
        for k, (p, m, v) in ref.items():
            assert params[k].data.dtype == dtype
            assert np.array_equal(params[k].data, p), k
            assert np.array_equal(opt._m[k], m) and np.array_equal(opt._v[k], v), k

    def test_lr_hits_floor_at_horizon(self):
        opt = AdamW({}, 1e-4, 1234)
        assert opt.lr_at(0) == pytest.approx(1e-4)
        assert opt.lr_at(1234) == 1e-4 * MIN_LR_RATIO
        assert opt.lr_at(5000) == 1e-4 * MIN_LR_RATIO

    @given(st.integers(min_value=0, max_value=20000))
    @settings(max_examples=50, deadline=None)
    def test_lr_bounded_and_monotone(self, step):
        opt = AdamW({}, 1e-4, 10000)
        lr = opt.lr_at(step)
        assert 1e-4 * MIN_LR_RATIO <= lr <= 1e-4
        assert opt.lr_at(step + 1) <= lr

    def test_first_step_moves_by_lr(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = AdamW({"p": p}, 1e-4, 100)
        p.grad = np.array([1.0])
        opt.step()
        # bias-corrected Adam: first update is lr * g/(|g| + eps), then the
        # decoupled decay scales the moved parameter by 1 - lr * WEIGHT_DECAY
        expected = -1e-4 / (1.0 + 1e-8) * (1.0 - 1e-4 * WEIGHT_DECAY)
        assert p.data[0] == pytest.approx(expected, rel=1e-12, abs=0)

    def test_decoupled_weight_decay(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW({"p": p}, 1e-2, 10)
        p.grad = np.array([0.0])
        opt.step()
        # no gradient: only the decay term applies
        assert p.data[0] == pytest.approx(1.0 - 1e-2 * WEIGHT_DECAY * 1.0)

    def test_non_finite_gradient_rejected(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW({"p": p}, 1e-4, 10000)
        p.grad = np.array([np.nan])
        with pytest.raises(ContractError, match="p"):
            opt.step()

    def test_rejected_step_changes_nothing(self):
        """A NaN in the last parameter rejects the step before the first
        parameter, any moment or the step count moves."""
        params = {name: Tensor(np.ones(3, np.float32), requires_grad=True) for name in "ab"}
        opt = AdamW(params, 0.1, 10)
        for p in params.values():
            p.grad = np.full(3, 0.5, np.float32)
        opt.step()

        def state():
            return ([p.data.copy() for p in params.values()],
                    [m.copy() for m in opt._m.values()], [v.copy() for v in opt._v.values()],
                    opt.step_count)

        before = state()
        params["b"].grad = np.array([0.5, np.nan, 0.5], np.float32)
        with pytest.raises(ContractError, match="'b'"):
            opt.step()
        after = state()
        for got, want in zip(after[:3], before[:3]):
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert after[3] == before[3] == 1

    def test_deterministic_trajectory(self):
        def run():
            rng = np.random.default_rng(3)
            p = Tensor(np.ones(4), requires_grad=True)
            opt = AdamW({"p": p}, 1e-3, 50)
            data = rng.normal(size=(50, 4))
            for i in range(50):
                T.zero_grads([p])
                backward(T.mse_loss(p * Tensor(np.ones(4)), Tensor(data[i])))
                opt.step()
            return p.data.copy()

        assert np.array_equal(run(), run())


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        params = {
            "enc.w": np.random.default_rng(0).normal(size=(3, 4)).astype(np.float32),
            "enc.b": np.zeros(4, dtype=np.float32),
        }
        path = tmp_path / "c.pvck"
        save_checkpoint(path, params, step=17, config={"dim": 4})
        back, header = load_checkpoint(path)
        assert header["step"] == 17
        assert header["config"] == {"dim": 4}
        assert np.array_equal(back["enc.w"].astype(np.float32), params["enc.w"])
        assert path.read_bytes()[:4] == b"PVCK"

    def test_loads_float32_and_a_store_keeps_it(self, tmp_path):
        path = tmp_path / "c.pvck"
        save_checkpoint(path, {"w": np.full((2, 3), 0.1)}, 0, {})
        back, _header = load_checkpoint(path)
        assert back["w"].dtype == np.float32
        w = ParamStore(np.random.default_rng(0), arrays=back).param("w", (2, 3), 0.0)
        assert w.data.dtype == np.float32 and np.array_equal(w.data, back["w"])
        wide = ParamStore(np.random.default_rng(0),
                          arrays={"w": back["w"].astype(np.float64)}).param("w", (2, 3), 0.0)
        assert wide.data.dtype == np.float64

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "c.pvck"
        save_checkpoint(path, {"w": np.ones((4, 4))}, 0, {})
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ContractError):
            load_checkpoint(path)

    @staticmethod
    def _edit_header(raw: bytes, edit) -> bytes:
        """The container `raw` with `edit` applied to its JSON header and its
        stored config_hash kept."""
        (hlen,) = struct.unpack("<I", raw[4:8])
        header = json.loads(raw[8 : 8 + hlen])
        edit(header)
        blob = json.dumps(header, sort_keys=True).encode()
        return raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + hlen :]

    @pytest.mark.parametrize("damage, message", [
        (lambda raw: raw[:6], "truncated header length"),
        (lambda raw: raw[:20], "corrupt checkpoint header"),
        (lambda raw: raw[:8] + b"\xff" + raw[9:], "corrupt checkpoint header"),
        (lambda raw: raw[:8] + b"[1]" + b" " * (len(raw) - 11), "not an object"),
        (lambda raw: TestCheckpoint._edit_header(raw, lambda h: h["config"].update(dim=5)),
         f"config_hash {config_hash({'dim': 4})} does not match {config_hash({'dim': 5})}"),
        (lambda raw: TestCheckpoint._edit_header(
            raw, lambda h: h["params"][0].update(shape=[2**40, 2**40])),
         r"truncated payload for 'w': shape \[1099511627776, 1099511627776\] needs "
         r"4835703278458516698824704 bytes, 64 are left"),
        (lambda raw: TestCheckpoint._edit_header(
            raw, lambda h: h["params"][0].update(shape=[2**70, 0])),
         "checkpoint entry 'w': "),
    ], ids=["cut-length", "cut-header", "undecodable-header", "header-not-object",
            "config-hash-mismatch", "shape-past-the-file", "shape-past-numpy"])
    def test_hostile_container(self, tmp_path, damage, message):
        path = tmp_path / "c.pvck"
        save_checkpoint(path, {"w": np.ones((4, 4))}, 0, {"dim": 4})
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ContractError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("damage, message", [
        (lambda raw: raw[:4] + struct.pack("<I", 2**28) + raw[8:], "corrupt checkpoint header"),
        (lambda raw: TestCheckpoint._edit_header(
            raw, lambda h: h["params"][0].update(shape=[2**26])), "truncated payload for 'w'"),
    ], ids=["header-length", "entry-shape"])
    def test_a_hostile_length_allocates_nothing(self, tmp_path, damage, message):
        """A header length or an entry shape that claims 256 MiB of a small
        file is rejected before anything that long is read."""
        path = tmp_path / "c.pvck"
        save_checkpoint(path, {"w": np.ones((4, 4))}, 0, {"dim": 4})
        path.write_bytes(damage(path.read_bytes()))
        tracemalloc.start()
        try:
            with pytest.raises(ContractError, match=message):
                load_checkpoint(path)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("edit", [
        lambda h: h.pop("params"),
        lambda h: h.pop("step"),
        lambda h: h["params"][0].pop("shape"),
        lambda h: h["params"][0].update(shape=[-1]),
        lambda h: h["params"][0].update(shape="ab"),
        lambda h: h.update(params=5),
    ], ids=["no-params", "no-step", "no-shape", "negative-shape", "string-shape",
            "params-not-a-list"])
    def test_malformed_header_raises_a_contract_error_naming_the_path(self, tmp_path, edit):
        """A header that is valid JSON and carries its config's hash, but no
        `params` list of named, shaped entries or no integer `step`."""
        path = tmp_path / "c.pvck"
        save_checkpoint(path, {"w": np.ones((4, 4))}, 0, {"dim": 4})
        path.write_bytes(self._edit_header(path.read_bytes(), edit))
        with pytest.raises(ContractError, match=f"^{re.escape(str(path))}: checkpoint"):
            load_checkpoint(path)
