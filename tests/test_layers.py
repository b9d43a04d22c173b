"""Layer forward/backward oracles: nested-loop references and finite differences."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import gxnor.layers
from gxnor.layers import BatchNorm, Conv2d, Dense, Flatten, MaxPool2d, QuantAct, svm_hinge_loss
from gxnor.spaces import (
    DiscreteSpace,
    PulseShape,
    SurrogateSpec,
    quantize_activation,
    surrogate_activation,
)

TERNARY = DiscreteSpace(n=1, h=1.0)
RECT = SurrogateSpec(shape=PulseShape.RECTANGULAR, a=0.5, r=0.5)


def batch_last(x):
    """(b, c, h, w) -> the (c, h, w, b) layout of 4-D activations in a conv net."""
    return np.ascontiguousarray(x.transpose(1, 2, 3, 0))


def batch_first(x):
    """(c, h, w, b) -> (b, c, h, w), the layout the oracles use."""
    return x.transpose(3, 0, 1, 2)


def central_diff(f, x, step=1e-6):
    """Elementwise central finite difference of scalar f at array x."""
    out = np.zeros_like(x, dtype=float)
    flat = x.reshape(-1)
    dflat = out.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f()
        flat[i] = orig - step
        lo = f()
        flat[i] = orig
        dflat[i] = (hi - lo) / (2 * step)
    return out


def einsum_conv_forward(x, kernel):
    """Per-tap reference: one einsum per kernel tap, summed in scan order."""
    k = kernel.shape[2]
    b, _, h, w = x.shape
    oh, ow = h - k + 1, w - k + 1
    out = np.zeros((b, kernel.shape[0], oh, ow))
    for u in range(k):
        for v in range(k):
            out += np.einsum("bcij,oc->boij", x[:, :, u:u + oh, v:v + ow], kernel[:, :, u, v])
    return out


def einsum_conv_backward(x, kernel, grad):
    """Per-tap reference gradients (dkernel, dx) of :func:`einsum_conv_forward`."""
    k = kernel.shape[2]
    oh, ow = grad.shape[2:]
    dkernel = np.zeros_like(kernel)
    dx = np.zeros_like(x)
    for u in range(k):
        for v in range(k):
            dkernel[:, :, u, v] = np.einsum("boij,bcij->oc", grad, x[:, :, u:u + oh, v:v + ow])
            dx[:, :, u:u + oh, v:v + ow] += np.einsum("boij,oc->bcij", grad, kernel[:, :, u, v])
    return dkernel, dx


def tile_maxpool_reference(x, k, grad):
    """Pooling via a (..., k*k) tile copy and argmax: (out, routing mask, dx)."""
    b, c, h, w = x.shape
    oh, ow = h // k, w // k
    tiles = x.reshape(b, c, oh, k, ow, k).transpose(0, 1, 2, 4, 3, 5).reshape(
        b, c, oh, ow, k * k)
    argmax = np.argmax(tiles, axis=4)

    def untile(t):
        return t.reshape(b, c, oh, ow, k, k).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h, w)

    routed = np.zeros(tiles.shape, dtype=bool)
    np.put_along_axis(routed, argmax[..., None], True, axis=4)
    dtiles = np.zeros(tiles.shape)
    np.put_along_axis(dtiles, argmax[..., None], grad[..., None], axis=4)
    return np.max(tiles, axis=4), untile(routed), untile(dtiles)


@st.composite
def ternary_pool_inputs(draw):
    k = draw(st.sampled_from([2, 3]))
    b, c = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    oh, ow = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    x = draw(hnp.arrays(float, (b, c, oh * k, ow * k),
                        elements=st.sampled_from([-1.0, 0.0, 1.0])))
    return k, x


class TestDense:
    def make(self):
        return Dense(4, 3, TERNARY, seed=0, layer_index=0)

    def test_forward_oracle(self):
        layer = self.make()
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 4))
        out = layer.forward(x, training=False)
        expect = np.zeros((5, 3))
        for b in range(5):
            for o in range(3):
                for i in range(4):
                    expect[b, o] += x[b, i] * layer.weight.value[o, i]
        assert np.allclose(out, expect, atol=1e-12)

    def test_backward_gradients(self):
        layer = self.make()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 4))
        g = rng.normal(size=(5, 3))
        layer.forward(x, training=True)
        dx = layer.backward(g)

        def loss():
            return float(np.sum(g * (x @ layer.weight.value.T)))

        assert np.allclose(dx, central_diff(loss, x), atol=1e-6)
        assert np.allclose(layer.weight.grad, central_diff(loss, layer.weight.value),
                           atol=1e-6)

    def test_weights_start_on_grid(self):
        layer = self.make()
        assert np.isin(layer.weight.value, TERNARY.states()).all()

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            self.make().forward(np.zeros((2, 5)), training=False)


class TestConv2d:
    def make(self):
        return Conv2d(2, 3, kernel_size=2, space=TERNARY, seed=0, layer_index=0)

    def test_forward_oracle(self):
        layer = self.make()
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 2, 4, 5))
        out = batch_first(layer.forward(batch_last(x), training=False))
        k = layer.weight.value
        expect = np.zeros((2, 3, 3, 4))
        for b in range(2):
            for o in range(3):
                for i in range(3):
                    for j in range(4):
                        for c in range(2):
                            for u in range(2):
                                for v in range(2):
                                    expect[b, o, i, j] += (
                                        x[b, c, i + u, j + v] * k[o, c, u, v])
        assert np.allclose(out, expect, atol=1e-12)

    def test_backward_gradients(self):
        layer = self.make()
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 2, 4, 4))
        layer.forward(batch_last(x), training=True)
        g = rng.normal(size=(2, 3, 3, 3))
        dx = batch_first(layer.backward(batch_last(g)))

        def loss():
            return float(np.sum(g * batch_first(layer.forward(batch_last(x), training=False))))

        assert np.allclose(dx, central_diff(loss, x), atol=1e-6)
        assert np.allclose(layer.weight.grad, central_diff(loss, layer.weight.value),
                           atol=1e-6)

    def test_matches_per_tap_reference_exactly_at_conv2_shape(self):
        # The MNIST net's second conv: 32 -> 64 channels, 5x5 kernel, 12x12 input.
        layer = Conv2d(32, 64, kernel_size=5, space=TERNARY, seed=1, layer_index=1)
        rng = np.random.default_rng(12)
        x = rng.integers(-1, 2, size=(3, 32, 12, 12)).astype(float)
        g = rng.integers(-1, 2, size=(3, 64, 8, 8)).astype(float)
        out = batch_first(layer.forward(batch_last(x), training=True))
        dx = batch_first(layer.backward(batch_last(g)))
        dkernel, dx_ref = einsum_conv_backward(x, layer.weight.value, g)
        # Integer-valued sums are exact in any order, so equality is exact.
        assert np.array_equal(out, einsum_conv_forward(x, layer.weight.value))
        assert np.array_equal(layer.weight.grad, dkernel)
        assert np.array_equal(dx, dx_ref)

    def test_row_blocks_change_no_value(self, monkeypatch):
        layer = Conv2d(3, 4, kernel_size=3, space=TERNARY, seed=5, layer_index=0)
        # The same kernel on input from the grid of integers -2..2, which it
        # multiplies in float32.
        exact = Conv2d(3, 4, kernel_size=3, space=TERNARY, seed=5, layer_index=0,
                       input_space=DiscreteSpace(n=2, h=2.0))
        assert exact.gemm_dtype == np.float32
        rng = np.random.default_rng(16)
        x = batch_last(rng.normal(size=(5, 3, 9, 7)))
        ints = batch_last(rng.integers(-2, 3, size=(5, 3, 9, 7)).astype(float))
        g = batch_last(rng.integers(-2, 3, size=(5, 4, 7, 5)).astype(float))
        whole = layer.forward(x, training=False)
        whole_ints = exact.forward(ints, training=False)
        # Two output rows of float64 columns per block (3*3*3 values per
        # column, 5*5 columns per row): blocks of 2, 2, 2 and 1 rows; four
        # rows of float32 columns: blocks of 4 and 3 rows.
        monkeypatch.setattr(Conv2d, "BLOCK_BYTES", 8 * 3 * 3 * 3 * 5 * 5 * 2)
        assert layer._blocks(7, 5, 5, 8)[0] == [(0, 2), (2, 4), (4, 6), (6, 7)]
        assert exact._blocks(7, 5, 5, 4)[0] == [(0, 4), (4, 7)]
        # Every column is computed inside a whole BLAS panel, so even
        # real-valued outputs are equal bit for bit.
        assert np.array_equal(layer.forward(x, training=False), whole)
        blocked_ints = exact.forward(ints, training=False)
        assert np.array_equal(blocked_ints, whole_ints)
        assert np.array_equal(batch_first(blocked_ints),
                              einsum_conv_forward(batch_first(ints), layer.weight.value))
        layer.forward(ints, training=True)
        dx = batch_first(layer.backward(g))
        dkernel, dx_ref = einsum_conv_backward(batch_first(ints), layer.weight.value,
                                               batch_first(g))
        assert np.array_equal(layer.weight.grad, dkernel)
        assert np.array_equal(dx, dx_ref)

    @pytest.mark.parametrize("c, k", [(1, 5), (3, 3), (8, 5)])
    def test_batch_size_changes_no_real_value(self, c, k):
        # Each image's output is the same in any batch and at any place in
        # it: the products here are 35 to 455 columns wide.
        layer = Conv2d(c, 4, kernel_size=k, space=TERNARY, seed=7, layer_index=0)
        rng = np.random.default_rng(20)
        x = batch_last(rng.normal(size=(13, c, k + 6, k + 4)))
        alone = [layer.forward(x[..., i:i + 1], training=False) for i in range(13)]
        for sl in (slice(0, 13), slice(2, 9), slice(5, 7), slice(12, 13)):
            out = layer.forward(x[..., sl], training=False)
            for i, img in enumerate(range(13)[sl]):
                assert np.array_equal(out[..., i:i + 1], alone[img])

    def test_panel_matmul_pads_the_last_columns(self):
        rng = np.random.default_rng(21)
        a, b = rng.normal(size=(4, 25)), rng.normal(size=(25, 2 * gxnor.layers.PANEL + 3))
        whole = np.empty((4, b.shape[1]))
        gxnor.layers._panel_matmul(a, b, whole)
        assert np.allclose(whole, a @ b, rtol=1e-13, atol=1e-13)
        for start, stop in [(0, 1), (0, 3), (3, 11), (8, 19), (17, 19)]:
            part = np.empty((4, stop - start))
            gxnor.layers._panel_matmul(a, b[:, start:stop], part)
            assert np.array_equal(part, whole[:, start:stop])

    def test_float32_columns_give_the_float64_backward(self):
        # On ternary input the conv multiplies in float32; its output and
        # gradients are the float64 conv's, in float64.
        rng = np.random.default_rng(18)
        q = batch_last(rng.integers(-1, 2, size=(5, 3, 8, 7)).astype(float))
        g = batch_last(rng.normal(size=(5, 4, 6, 5)))
        runs = []
        for input_space in (None, TERNARY):
            layer = Conv2d(3, 4, kernel_size=3, space=TERNARY, seed=6, layer_index=1,
                           input_space=input_space)
            out = layer.forward(q, training=True)
            runs.append((out, layer.backward(g), layer.weight.grad))
        assert layer.gemm_dtype == np.float32
        for a, b in zip(*runs):
            assert b.dtype == np.float64
            assert np.array_equal(a, b)

    def test_finite_differences_three_channels_non_square(self):
        layer = Conv2d(3, 2, kernel_size=3, space=TERNARY, seed=4, layer_index=0)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 3, 5, 7))
        g = rng.normal(size=(2, 2, 3, 5))
        layer.forward(batch_last(x), training=True)
        dx = batch_first(layer.backward(batch_last(g)))

        def loss():
            return float(np.sum(g * batch_first(layer.forward(batch_last(x), training=False))))

        assert np.allclose(dx, central_diff(loss, x), atol=1e-6)
        assert np.allclose(layer.weight.grad, central_diff(loss, layer.weight.value),
                           atol=1e-6)

    def test_forward_is_c_contiguous(self):
        x = np.random.default_rng(14).normal(size=(3, 2, 5, 4))
        out = self.make().forward(batch_last(x), training=False)
        assert batch_first(out).shape == (3, 3, 4, 3)
        assert out.flags.c_contiguous

    def test_rejects_too_small_input(self):
        with pytest.raises(ValueError):
            self.make().forward(batch_last(np.zeros((1, 2, 1, 1))), training=False)

    def test_rejects_wrong_channels(self):
        with pytest.raises(ValueError):
            self.make().forward(batch_last(np.zeros((1, 3, 4, 4))), training=False)


def quant_conv(n1, n2, h, c, k, seed=0):
    """A QuantAct on grid n2 and the Conv2d (grid n1) that it feeds."""
    space = DiscreteSpace(n2, h)
    qa = QuantAct(space, SurrogateSpec(a=h / 4, r=h / 4))
    return qa, Conv2d(c, 2, kernel_size=k, space=DiscreteSpace(n1, h), seed=seed, layer_index=1,
                      input_space=space)


@settings(max_examples=60, deadline=None)
@given(n1=st.integers(0, 3), n2=st.integers(0, 3), h=st.sampled_from([0.5, 1.0, 2.0]),
       c=st.integers(1, 4), k=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_float32_grid_conv_equals_float64_reference(n1, n2, h, c, k, seed):
    qa, conv = quant_conv(n1, n2, h, c, k, seed)
    rng = np.random.default_rng(seed)
    assert conv.gemm_dtype == np.float32
    q = qa.forward(rng.normal(scale=1.5 * h, size=(c, k + 2, k + 1, 3)), training=False)
    out = conv.forward(q, training=False)
    assert out.dtype == np.float64
    ref = einsum_conv_forward(batch_first(q), conv.weight.value)
    assert np.array_equal(batch_first(out), ref)


@pytest.mark.parametrize("n, c, k", [(3, 1 << 16, 4), (11, 1, 4)], ids=["n3-K2^20", "n11-K16"])
def test_float32_grid_conv_is_exact_at_the_bound(n, c, k):
    # K * M_w * M_a == 2**24 with M = 2**(n-1).  Operands drawn from the top
    # states, so that the partial sums run up to the bound.
    M = 2 ** (n - 1)
    assert c * k * k * M * M == 1 << 24
    qa, conv = quant_conv(n, n, 1.0, c, k)
    assert conv.gemm_dtype == np.float32
    rng = np.random.default_rng(19)
    top = lambda size: (M - rng.integers(0, 2, size=size)) / M
    conv.weight.value = top(conv.weight.value.shape)
    x = top((c, k, k, 2))
    q = qa.forward(x, training=False)
    assert np.array_equal(q, x)  # grid states quantize to themselves
    out = conv.forward(q, training=False)
    ref = einsum_conv_forward(batch_first(q), conv.weight.value)
    assert np.array_equal(batch_first(out), ref)


class TestMaxPool2d:
    def test_forward_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 4, 6))
        out = batch_first(MaxPool2d(2).forward(batch_last(x), training=False))
        expect = np.zeros((2, 3, 2, 3))
        for b in range(2):
            for c in range(3):
                for i in range(2):
                    for j in range(3):
                        expect[b, c, i, j] = x[b, c, 2 * i:2 * i + 2,
                                               2 * j:2 * j + 2].max()
        assert np.array_equal(out, expect)

    def test_backward_routes_to_max(self):
        layer = MaxPool2d(2)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        layer.forward(batch_last(x), training=True)
        dx = batch_first(layer.backward(batch_last(np.array([[[[5.0]]]]))))
        assert np.array_equal(dx, [[[[0.0, 0.0], [0.0, 5.0]]]])

    def test_backward_tie_goes_to_first_in_scan_order(self):
        layer = MaxPool2d(2)
        x = np.full((1, 1, 2, 2), 7.0)
        layer.forward(batch_last(x), training=True)
        dx = batch_first(layer.backward(np.ones((1, 1, 1, 1))))
        assert dx[0, 0, 0, 0] == 1.0 and dx.sum() == 1.0

    def test_rejects_indivisible_input(self):
        with pytest.raises(ValueError):
            MaxPool2d(2).forward(batch_last(np.zeros((1, 1, 3, 4))), training=False)

    @settings(max_examples=60, deadline=None)
    @given(case=ternary_pool_inputs())
    def test_ternary_ties_match_tile_reference(self, case):
        k, x = case
        layer = MaxPool2d(k)
        out = batch_first(layer.forward(batch_last(x), training=True))
        grad = np.arange(1.0, out.size + 1).reshape(out.shape)
        ref_out, ref_routed, ref_dx = tile_maxpool_reference(x, k, grad)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(batch_first(layer.backward(np.ones(out.shape[::-1]))) != 0,
                              ref_routed)
        assert np.array_equal(batch_first(layer.backward(batch_last(grad))), ref_dx)


@st.composite
def signed_pool_inputs(draw):
    k = draw(st.sampled_from([2, 3]))
    b, c = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    oh, ow = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ties = st.sampled_from([-1.0, -0.0, 0.0, 0.5])
    x = draw(hnp.arrays(float, (b, c, oh * k, ow * k),
                        elements=st.one_of(ties, st.floats(-2.0, 2.0))))
    grad = draw(hnp.arrays(float, (b, c, oh, ow),
                           elements=st.one_of(ties, st.floats(-2.0, 2.0))))
    return k, x, grad


@settings(max_examples=100, deadline=None)
@given(case=signed_pool_inputs())
def test_maxpool_exact_with_signed_zeros_and_ties(case):
    k, x, grad = case
    layer = MaxPool2d(k)
    out = batch_first(layer.forward(batch_last(x), training=True))
    dx = batch_first(layer.backward(batch_last(grad)))
    ref_out, ref_routed, ref_dx = tile_maxpool_reference(x, k, grad)
    assert np.array_equal(out, ref_out)
    # A zero maximum takes its sign from a fold of np.maximum over the taps
    # in scan order; np.max's reduction order may differ.
    taps = [x[:, :, u::k, v::k] for u in range(k) for v in range(k)]
    assert np.array_equal(np.signbit(out), np.signbit(reduce(np.maximum, taps)))
    assert np.array_equal(dx, ref_dx)
    assert np.array_equal(np.signbit(dx), np.signbit(ref_dx))
    routed = batch_first(layer.backward(np.ones(grad.shape[::-1]))) != 0
    assert np.array_equal(routed, ref_routed)


@pytest.mark.parametrize("make,shape", [
    (lambda: Dense(4, 3, TERNARY, seed=0, layer_index=0), (5, 4)),
    (lambda: Conv2d(2, 3, kernel_size=2, space=TERNARY, seed=0, layer_index=0), (2, 2, 4, 4)),
    (lambda: MaxPool2d(2), (3, 4, 4, 2)),
    (lambda: QuantAct(TERNARY, RECT), (3, 6)),
], ids=["Dense", "Conv2d", "MaxPool2d", "QuantAct"])
def test_eval_forward_leaves_backward_cache_alone(make, shape):
    """An inference pass between forward and backward must not change the gradients."""
    rng = np.random.default_rng(15)
    x = rng.normal(size=shape)
    layer = make()
    out = layer.forward(x, training=True)
    g = rng.normal(size=out.shape)
    expect = layer.backward(g)
    layer.forward(rng.normal(size=shape), training=False)
    assert np.array_equal(layer.backward(g), expect)


class TestFlatten:
    def test_round_trip(self):
        layer = Flatten()
        x = np.arange(24.0).reshape(2, 3, 2, 2)
        out = layer.forward(x, training=True)
        assert out.shape == (2, 12)
        assert np.array_equal(layer.backward(out), x)


class TestBatchNorm:
    def test_standardizes_batch(self):
        rng = np.random.default_rng(5)
        x = rng.normal(3.0, 2.0, size=(200, 4))
        out = BatchNorm(4).forward(x, training=True)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.var(axis=0), 1.0, atol=1e-4)

    def test_scale_and_shift_applied(self):
        layer = BatchNorm(2)
        layer.gamma.value = np.array([2.0, 3.0])
        layer.beta.value = np.array([-1.0, 4.0])
        x = np.random.default_rng(6).normal(size=(50, 2))
        out = layer.forward(x, training=True)
        assert np.allclose(out.mean(axis=0), [-1.0, 4.0], atol=1e-12)

    def test_running_stats_feed_inference(self):
        layer = BatchNorm(1)  # MOMENTUM 0.1
        x = np.array([[2.0], [4.0]])  # mean 3, biased var 1
        layer.forward(x, training=True)
        assert np.allclose(layer.running_mean, [0.3])
        assert np.allclose(layer.running_var, [0.9 + 0.1 * 1.0])
        y = layer.forward(np.array([[0.3]]), training=False)
        assert np.allclose(y, [[0.0]])

    @pytest.mark.parametrize("shape", [(40, 3), (4, 3, 2, 5)])
    def test_eval_equals_textbook_expression(self, shape):
        # Same operations in the same order as (x - mean) / sqrt(var + eps) * g + b,
        # bit for bit, and the input array is left as it was.
        rng = np.random.default_rng(9)
        layer = BatchNorm(3)
        layer.gamma.value = np.array([1.7, -0.4, 0.0])
        layer.beta.value = np.array([0.3, -2.0, 0.5])
        layer.running_mean = rng.normal(size=3)
        layer.running_var = rng.uniform(0.1, 4.0, size=3)
        x = rng.normal(0, 3, size=shape)
        flat = x.reshape(-1)
        flat[:9] = [np.inf, -np.inf, np.nan, -0.0, 0.0,
                    0.5, np.nextafter(0.5, 1), -0.5, np.nextafter(-0.5, -1)]
        layer_in = x if x.ndim == 2 else batch_last(x)
        before = layer_in.copy()
        axis_shape = (1, -1) if x.ndim == 2 else (1, -1, 1, 1)
        mean, var = layer.running_mean.reshape(axis_shape), layer.running_var.reshape(axis_shape)
        g, b = layer.gamma.value.reshape(axis_shape), layer.beta.value.reshape(axis_shape)
        with np.errstate(invalid="ignore"):  # inf * 0 for the channel with g = 0
            expect = g * ((x - mean) / np.sqrt(var + BatchNorm.EPS)) + b
            out = layer.forward(layer_in, training=False)
        if x.ndim == 4:
            out = batch_first(out)
        assert np.array_equal(out, expect, equal_nan=True)
        assert np.array_equal(np.signbit(out), np.signbit(expect))
        assert np.array_equal(layer_in, before, equal_nan=True)

    @settings(max_examples=100, deadline=None)
    @given(x=hnp.arrays(float, st.sampled_from([(7, 3), (50, 2), (3, 2, 2, 4), (2, 3, 5, 6)]),
                        elements=st.floats(-1e3, 1e3)))
    def test_training_statistics_equal_numpy(self, x):
        axes = (0,) if x.ndim == 2 else (1, 2, 3)
        layer = BatchNorm(x.shape[1] if x.ndim == 2 else x.shape[0])
        # MOMENTUM 1 makes the running statistics this batch's own.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(BatchNorm, "MOMENTUM", 1.0)
            layer.forward(x, training=True)
        assert np.array_equal(layer.running_mean, x.mean(axis=axes))
        assert np.array_equal(layer.running_var, x.var(axis=axes))

    def test_backward_finite_difference_2d(self):
        layer = BatchNorm(3)
        layer.gamma.value = np.array([1.5, 0.7, -0.3])
        layer.beta.value = np.array([0.1, -0.2, 0.0])
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 3))
        g = rng.normal(size=(6, 3))
        layer.forward(x, training=True)
        dx = layer.backward(g)

        def loss():
            return float(np.sum(g * layer.forward(x, training=True)))

        assert np.allclose(dx, central_diff(loss, x), atol=1e-5)
        assert np.allclose(layer.gamma.grad, central_diff(loss, layer.gamma.value),
                           atol=1e-5)
        assert np.allclose(layer.beta.grad, central_diff(loss, layer.beta.value),
                           atol=1e-5)

    def test_backward_finite_difference_4d(self):
        layer = BatchNorm(2)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 2, 2, 2))
        g = rng.normal(size=(3, 2, 2, 2))
        layer.forward(batch_last(x), training=True)
        dx = batch_first(layer.backward(batch_last(g)))

        def loss():
            return float(np.sum(g * batch_first(layer.forward(batch_last(x), training=True))))

        assert np.allclose(dx, central_diff(loss, x), atol=1e-5)

    def test_rejects_tiny_batch_and_bad_rank(self):
        with pytest.raises(ValueError):
            BatchNorm(3).forward(np.zeros((1, 3)), training=True)
        with pytest.raises(ValueError):
            BatchNorm(3).forward(np.zeros((2, 3, 4)), training=True)


def relaxed_ramp(x, space, spec):
    """Odd piecewise-linear ramp whose exact derivative is the rect surrogate.

    Integrates each rect pulse (height dz/2a over [c-a, c+a] in |x|) from zero,
    so finite differences on this forward validate the layer's backward pass.
    """
    assert spec.shape is PulseShape.RECTANGULAR
    if space.n == 0:
        centers = np.array([0.0])
    else:
        half = 2 ** (space.n - 1)
        band = (space.h - spec.r) / half
        centers = spec.r + band * np.arange(half)
    height = space.dz / (2 * spec.a)
    ax = np.abs(x)[..., None]
    lo = np.maximum(centers - spec.a, 0.0)
    hi = centers + spec.a
    overlap = np.maximum(0.0, np.minimum(ax, hi) - lo)
    return np.sign(x) * overlap.sum(axis=-1) * height


def where_pulse_sum(x, space, spec):
    """The surrogate as a loop of masked ``np.where`` terms, one pulse at a
    time: the oracle for the pulse count times the pulse height."""
    if space.n == 0:
        centers = [0.0]
    else:
        half_levels = 2 ** (space.n - 1)
        band = (space.h - spec.r) / half_levels
        centers = spec.r + band * np.arange(half_levels)
    ax = np.abs(np.asarray(x, dtype=float))
    a, scale = spec.a, space.dz
    out = np.zeros_like(ax)
    for c in centers:
        if spec.shape is PulseShape.RECTANGULAR:
            inside = (ax >= c - a) & (ax <= c + a)
            out += np.where(inside, scale / (2.0 * a), 0.0)
        else:
            rising = (ax >= c - a) & (ax < c)
            falling = (ax >= c) & (ax <= c + a)
            out += np.where(rising, scale * (ax - (c - a)) / (a * a), 0.0)
            out += np.where(falling, -scale * (ax - (c + a)) / (a * a), 0.0)
    return out


@st.composite
def pulse_cases(draw):
    n = draw(st.sampled_from([0, 1, 2, 3]))
    h = draw(st.sampled_from([1.0, 2.0, 0.75]))
    if n >= 2:
        # QuantAct requires r + a <= h for multi-level grids.
        r = h * draw(st.floats(0.0, 0.9))
        a = (h - r) * draw(st.floats(0.05, 0.99))
        assume(r + a <= h)
    else:
        r, a = draw(st.floats(0.0, 2.0)), draw(st.floats(0.05, 1.5))
    space = DiscreteSpace(n=n, h=h)
    spec = SurrogateSpec(shape=draw(st.sampled_from(list(PulseShape))), a=a, r=r)
    centers = [0.0] if n == 0 else r + (h - r) / 2 ** (n - 1) * np.arange(2 ** (n - 1))
    edges = [float(e) for c in centers for e in (c - a, c, c + a)]
    ties = st.sampled_from(edges + [-e for e in edges] + [0.0, -0.0])
    x = draw(hnp.arrays(float, hnp.array_shapes(max_dims=3, max_side=6),
                        elements=st.one_of(ties, st.floats(-3.0, 3.0), st.just(np.nan))))
    grad = draw(hnp.arrays(float, x.shape, elements=st.one_of(
        st.sampled_from([0.0, -0.0, -1.5]), st.floats(-5.0, 5.0))))
    return space, spec, x, grad


@settings(max_examples=300, deadline=None)
@given(case=pulse_cases())
def test_quantact_backward_equals_masked_pulse_sum(case):
    space, spec, x, grad = case
    layer = QuantAct(space, spec)
    layer.forward(x, training=True)
    dx = layer.backward(grad)
    pulses = where_pulse_sum(x, space, spec)
    for got, expect in ((dx, pulses * grad), (surrogate_activation(x, space, spec), pulses)):
        assert np.array_equal(got, expect)
        assert np.array_equal(np.signbit(got), np.signbit(expect))


class RelaxedQuantAct(QuantAct):
    """Quantizer stand-in with a kink-free forward matched to the surrogate."""

    def _activation(self, x):
        return relaxed_ramp(x, self.space, self.spec)


class TestQuantAct:
    def test_forward_quantizes_to_grid(self):
        layer = QuantAct(TERNARY, RECT)
        x = np.array([[-2.0, -0.4, 0.0, 0.6, 3.0]])
        out = layer.forward(x, training=True)
        assert np.array_equal(out, [[-1.0, 0.0, 0.0, 1.0, 1.0]])

    def test_forward_matches_standalone_quantizer(self):
        space = DiscreteSpace(n=2, h=1.0)
        spec = SurrogateSpec(shape=PulseShape.RECTANGULAR, a=0.1, r=0.2)
        layer = QuantAct(space, spec)
        x = np.random.default_rng(9).normal(size=(4, 7))
        assert np.array_equal(layer.forward(x, training=False),
                              quantize_activation(x, space, spec.r))

    def test_multilevel_pulse_span_validated(self):
        with pytest.raises(ValueError):
            QuantAct(DiscreteSpace(n=2, h=1.0),
                     SurrogateSpec(shape=PulseShape.RECTANGULAR, a=0.6, r=0.5))
        # Ternary thresholds may exceed the grid bound (sparsity dial).
        QuantAct(TERNARY, SurrogateSpec(shape=PulseShape.RECTANGULAR, a=0.5, r=3.5))

    def test_multilevel_threshold_below_h_validated_at_build(self):
        # 0.5 + 2**-511 rounds to 0.5, so only r < h catches r = h.
        with pytest.raises(ValueError, match="threshold must satisfy 0 <= r < h"):
            QuantAct(DiscreteSpace(n=6, h=0.5),
                     SurrogateSpec(shape=PulseShape.TRIANGULAR, a=2.0**-511, r=0.5))

    @pytest.mark.parametrize("space,spec", [
        (DiscreteSpace(n=0, h=1.0), SurrogateSpec(shape=PulseShape.RECTANGULAR, a=0.5, r=0.0)),
        (TERNARY, RECT),
        (DiscreteSpace(n=2, h=1.0), SurrogateSpec(shape=PulseShape.RECTANGULAR, a=0.2, r=0.1)),
    ])
    def test_backward_is_derivative_of_relaxed_forward(self, space, spec):
        layer = RelaxedQuantAct(space, spec)
        rng = np.random.default_rng(10)
        x = rng.normal(0.0, 1.0, size=(3, 40))
        # Stay clear of the ramp kinks so central differences are exact.
        if space.n == 0:
            kinks = np.array([spec.a])
        else:
            half = 2 ** (space.n - 1)
            band = (space.h - spec.r) / half
            centers = spec.r + band * np.arange(half)
            kinks = np.concatenate([centers - spec.a, centers + spec.a])
        near = np.min(np.abs(np.abs(x)[..., None] - kinks), axis=-1) < 1e-3
        x[near] += 5e-3
        g = rng.normal(size=x.shape)
        layer.forward(x, training=True)
        dx = layer.backward(g)

        def loss():
            return float(np.sum(g * layer.forward(x, training=False)))

        assert np.allclose(dx, central_diff(loss, x, step=1e-5), atol=1e-7)

    def test_backward_zero_outside_pulses(self):
        layer = QuantAct(TERNARY, RECT)
        x = np.array([[5.0, -5.0, 0.2]])
        layer.forward(x, training=True)
        dx = layer.backward(np.ones_like(x))
        assert dx[0, 0] == 0.0 and dx[0, 1] == 0.0 and dx[0, 2] != 0.0


class TestSvmHingeLoss:
    def test_satisfied_margins_give_zero(self):
        scores = np.array([[2.0, -3.0], [-1.5, 4.0]])
        out = svm_hinge_loss(scores, np.array([0, 1]))
        assert out.loss == 0.0
        assert not out.dscores.any()

    def test_zero_scores_cost_one_per_class(self):
        out = svm_hinge_loss(np.zeros((3, 5)), np.array([0, 2, 4]))
        assert out.loss == pytest.approx(5.0)

    def test_hand_computed_example(self):
        out = svm_hinge_loss(np.array([[0.5, 0.2]]), np.array([0]))
        assert out.loss == pytest.approx(0.5**2 + 1.2**2)
        assert np.allclose(out.dscores, [[-1.0, 2.4]])

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(11)
        scores = rng.normal(size=(4, 6))
        labels = rng.integers(0, 6, 4)
        out = svm_hinge_loss(scores, labels)

        def loss():
            return svm_hinge_loss(scores, labels).loss

        assert np.allclose(out.dscores, central_diff(loss, scores, step=1e-6),
                           atol=1e-6)

    def test_batch_averaging(self):
        one = svm_hinge_loss(np.zeros((1, 3)), np.array([0])).loss
        many = svm_hinge_loss(np.zeros((10, 3)), np.zeros(10, dtype=int)).loss
        assert one == pytest.approx(many)

    def test_validation(self):
        with pytest.raises(ValueError):
            svm_hinge_loss(np.zeros(4), np.array([0]))
        with pytest.raises(ValueError):
            svm_hinge_loss(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(ValueError):
            svm_hinge_loss(np.zeros((2, 3)), np.array([0]))
