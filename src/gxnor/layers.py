"""Reverse-mode layers for grid-weight networks.

Fixed layer-sequential topology: each layer caches what its backward pass
needs during forward, and ``backward`` consumes gradients in reverse order.
Dense and convolution weights live on a discrete grid and are updated by
stochastic state transitions; batch-norm scale/shift are the only
full-precision learnables.  Quantized activations use their surrogate
derivative in backward.  No layer carries a bias term: batch-norm's shift
provides the affine offset, everything else stays on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dst import GridParam, RealParam, param_stream
from .spaces import DiscreteSpace, SurrogateSpec, quantize_activation, surrogate_activation

__all__ = [
    "LossGrad",
    "Dense",
    "Conv2d",
    "MaxPool2d",
    "Flatten",
    "BatchNorm",
    "QuantAct",
    "svm_hinge_loss",
]


@dataclass(frozen=True)
class LossGrad:
    loss: float
    dscores: np.ndarray


class Layer:
    """Base: forward caches, backward consumes; parameter lists default empty."""

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grid_params(self) -> list[GridParam]:
        return []

    def real_params(self) -> list[RealParam]:
        return []


def init_grid_weights(shape, space: DiscreteSpace, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the grid states; weights are grid members from step zero."""
    return space.states()[rng.integers(0, space.num_states, size=shape)]


class Dense(Layer):
    """Fully connected layer, no bias: out = x @ W.T with grid-valued W (out, in)."""

    def __init__(self, in_features: int, out_features: int, space: DiscreteSpace,
                 seed: int, layer_index: int):
        rng = param_stream(seed, layer_index)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = GridParam(
            value=init_grid_weights((out_features, in_features), space, rng),
            space=space, rng=rng,
        )
        self._x = None

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(f"expected (batch, {self.in_features}) input, got {x.shape}")
        if training:
            self._x = x
        return x @ self.weight.value.T

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self.weight.grad = grad.T @ self._x
        return grad @ self.weight.value

    def grid_params(self) -> list[GridParam]:
        return [self.weight]


class Conv2d(Layer):
    """Valid, stride-1 cross-correlation with grid-valued kernels (out_c, in_c, k, k).

    Runs as im2col on BLAS one kernel row at a time (Chellapilla, Puri & Simard
    2006): row ``u``'s columns are ``cols[(c, v), (b, i, j)] = x[b, c, i+u, j+v]``
    and its contribution to the output is one matmul with ``W[:, :, u, :]``.
    Only one row's columns exist at a time, so the column buffer is k times
    the input, not k^2 times.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 space: DiscreteSpace, seed: int, layer_index: int):
        if kernel_size < 1:
            raise ValueError("kernel size must be positive")
        rng = param_stream(seed, layer_index)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.weight = GridParam(
            value=init_grid_weights(
                (out_channels, in_channels, kernel_size, kernel_size), space, rng),
            space=space, rng=rng,
        )
        self._x = None

    def _out_hw(self, h: int, w: int) -> tuple[int, int]:
        k = self.kernel_size
        if h < k or w < k:
            raise ValueError(f"input {h}x{w} smaller than kernel {k}x{k}")
        return h - k + 1, w - k + 1

    def _columns(self, x: np.ndarray, u: int, oh: int) -> np.ndarray:
        """Kernel row u's im2col block (c*k, b*oh*ow): [(c, v), (b, i, j)] = x[b, c, i+u, j+v]."""
        c = x.shape[1]
        windows = sliding_window_view(x[:, :, u:u + oh], self.kernel_size, axis=3)
        return windows.transpose(1, 4, 0, 2, 3).reshape(c * self.kernel_size, -1)

    def _row_weights(self, u: int) -> np.ndarray:
        o, c, k, _ = self.weight.value.shape
        return self.weight.value[:, :, u, :].reshape(o, c * k)

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(f"expected (batch, {self.in_channels}, h, w) input, got {x.shape}")
        b, _, h, w = x.shape
        oh, ow = self._out_hw(h, w)
        acc = self._row_weights(0) @ self._columns(x, 0, oh)
        for u in range(1, self.kernel_size):
            acc += self._row_weights(u) @ self._columns(x, u, oh)
        if training:
            self._x = x
        # acc is (o, b*oh*ow); one transposing copy gives a C-contiguous NCHW result.
        return np.ascontiguousarray(
            acc.reshape(self.out_channels, b, oh, ow).transpose(1, 0, 2, 3))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x = self._x
        b, c, _, _ = x.shape
        _, o, oh, ow = grad.shape
        k = self.kernel_size
        g = grad.transpose(1, 0, 2, 3).reshape(o, b * oh * ow)  # column order (b, i, j)
        dkernel = np.empty_like(self.weight.value)
        dx = np.zeros_like(x)
        for u in range(k):
            dkernel[:, :, u, :] = (g @ self._columns(x, u, oh).T).reshape(o, c, k)
            dcols = (self._row_weights(u).T @ g).reshape(c, k, b, oh, ow)
            for v in range(k):
                dx[:, :, u:u + oh, v:v + ow] += dcols[:, v].transpose(1, 0, 2, 3)
        self.weight.grad = dkernel
        return dx

    def grid_params(self) -> list[GridParam]:
        return [self.weight]


class MaxPool2d(Layer):
    """Non-overlapping max pooling; gradient routes to the first max in scan order."""

    def __init__(self, window: int):
        if window < 1:
            raise ValueError("window must be positive")
        self.window = window
        self._argmax = None
        self._in_shape = None

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        k = self.window
        _, _, h, w = x.shape
        if h % k or w % k:
            raise ValueError(f"input {h}x{w} not divisible by window {k}")
        # One pass over the k^2 strided taps; tap t sits at offset divmod(t, k).
        out = x[:, :, ::k, ::k].copy()
        if training:
            argmax = np.zeros(out.shape, dtype=np.min_scalar_type(k * k - 1))
        for t in range(1, k * k):
            u, v = divmod(t, k)
            tap = x[:, :, u::k, v::k]
            if training:
                # Strict '>' keeps the first maximum in scan order on ties.
                np.copyto(argmax, t, where=tap > out)
            np.maximum(out, tap, out=out)
        if training:
            self._argmax = argmax
            self._in_shape = x.shape
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        k = self.window
        dx = np.zeros(self._in_shape)
        for t in range(k * k):
            u, v = divmod(t, k)
            np.copyto(dx[:, :, u::k, v::k], grad, where=self._argmax == t)
        return dx


class Flatten(Layer):
    def __init__(self):
        self._shape = None

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad.reshape(self._shape)


class BatchNorm(Layer):
    """Per-feature standardization with learned full-precision scale and shift.

    Works on (batch, features) or (batch, channels, h, w); statistics pool
    over everything but the feature/channel axis.  Running statistics feed
    inference mode.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.gamma = RealParam(value=np.ones(num_features))
        self.beta = RealParam(value=np.zeros(num_features))
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        self._cache = None

    def _axes_and_shape(self, x: np.ndarray):
        if x.ndim == 2:
            return (0,), (1, -1)
        if x.ndim == 4:
            return (0, 2, 3), (1, -1, 1, 1)
        raise ValueError(f"expected 2-D or 4-D input, got shape {x.shape}")

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        axes, shape = self._axes_and_shape(x)
        g = self.gamma.value.reshape(shape)
        b = self.beta.value.reshape(shape)
        if not training:
            # (x - mean) / sqrt(var + eps) * gamma + beta, in place on one new
            # array; x itself is never written.
            out = x - self.running_mean.reshape(shape)
            out /= np.sqrt(self.running_var.reshape(shape) + self.eps)
            out *= g
            out += b
            return out
        n = x.size // self.num_features
        if n < 2:
            raise ValueError("training-mode batch norm needs at least 2 values per feature")
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        inv_std = 1.0 / np.sqrt(var.reshape(shape) + self.eps)
        # In place, to spare full-size temporaries; the values are bit-identical.
        xhat = x - mean.reshape(shape)
        xhat *= inv_std
        self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
        self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        self._cache = (xhat, inv_std, axes, shape, n)
        out = g * xhat
        out += b
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        xhat, inv_std, axes, shape, n = self._cache
        scratch = grad * xhat
        self.gamma.grad = scratch.sum(axis=axes)
        self.beta.grad = grad.sum(axis=axes)
        dxhat = grad * self.gamma.value.reshape(shape)
        # Standard batch-norm gradient with mean/var dependence folded in:
        # inv_std / n * (n * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat)),
        # evaluated in place with the same operations in the same order.
        dxhat_sum = dxhat.sum(axis=axes).reshape(shape)
        np.multiply(dxhat, xhat, out=scratch)
        dxhat_xhat_sum = scratch.sum(axis=axes).reshape(shape)
        dx = dxhat
        dx *= n
        dx -= dxhat_sum
        dx -= np.multiply(xhat, dxhat_xhat_sum, out=scratch)
        dx *= inv_std / n
        return dx

    def real_params(self) -> list[RealParam]:
        return [self.gamma, self.beta]


class QuantAct(Layer):
    """Quantized activation: grid values forward, surrogate pulses backward."""

    def __init__(self, space: DiscreteSpace, spec: SurrogateSpec):
        # Multi-level bands only exist for r < h; binary/ternary thresholds may
        # exceed h (that is how high activation sparsity is dialed in).
        if space.n >= 2 and not spec.r + spec.a <= space.h:
            raise ValueError(
                f"multi-level surrogate pulses [r-a, r+a] must fit inside [-h, h]: "
                f"r={spec.r}, a={spec.a}, h={space.h}")
        self.space = space
        self.spec = spec
        self._x = None

    def _activation(self, x: np.ndarray) -> np.ndarray:
        return quantize_activation(x, self.space, self.spec.r)

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        out = self._activation(x)
        if training:
            self._x = x
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        slope = surrogate_activation(self._x, self.space, self.spec)
        slope *= grad
        return slope


def svm_hinge_loss(scores: np.ndarray, labels: np.ndarray) -> LossGrad:
    """One-vs-all squared hinge loss over a batch of class scores.

    Targets are +1 for the true class and -1 elsewhere; per sample the loss
    sums max(0, 1 - t*s)^2 over classes, then averages over the batch.
    """
    if scores.ndim != 2 or scores.shape[1] < 2:
        raise ValueError(f"expected (batch, classes>=2) scores, got {scores.shape}")
    batch, classes = scores.shape
    labels = np.asarray(labels)
    if labels.shape != (batch,) or labels.min() < 0 or labels.max() >= classes:
        raise ValueError("labels must be in-range integers, one per row")
    targets = np.full(scores.shape, -1.0)
    targets[np.arange(batch), labels] = 1.0
    margins = np.maximum(0.0, 1.0 - targets * scores)
    loss = float(np.mean(np.sum(margins**2, axis=1)))
    dscores = -2.0 * targets * margins / batch
    return LossGrad(loss=loss, dscores=dscores)
