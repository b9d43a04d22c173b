"""Reverse-mode layers for grid-weight networks.

Fixed layer-sequential topology: each layer caches what its backward pass
needs during forward, and ``backward`` consumes gradients in reverse order.
A network's first weighted layer has ``input_grad = False`` and returns no
input gradient, because nothing reads it.  Dense and convolution weights
live on a discrete grid and are updated by stochastic state transitions;
batch-norm scale/shift are the only full-precision learnables.  Quantized
activations use their surrogate derivative in backward.  No layer carries a
bias term: batch-norm's shift provides the affine offset, everything else
stays on the grid.

Inside a conv net every 4-D activation is channel-major and batch-last,
``(c, h, w, b)``: ``Conv2d``, ``MaxPool2d`` and ``BatchNorm`` take and give
that layout, and a batch-last ``Flatten`` turns it into ``(b, c*h*w)`` rows
in ``(c, h, w)`` feature order, so dense layers see ``(b, features)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dst import GridParam, RealParam, param_stream
from .spaces import (
    DiscreteSpace,
    PulseShape,
    SurrogateSpec,
    quantize_activation,
    rect_pulse_count,
    surrogate_activation,
)

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
    """Base: forward caches, backward consumes; parameter lists default empty.

    A weighted layer with ``input_grad`` False still sets its weight gradient
    in ``backward`` but returns None in place of the input gradient.
    """

    input_grad = True

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grid_params(self) -> list[GridParam]:
        return []

    def real_params(self) -> list[RealParam]:
        return []


# Elementwise work on a 4-D activation goes through in blocks of whole
# channels of about this many bytes, so that a block's arrays and
# temporaries stay in a 2 MB L2 cache.  One channel of the MNIST net's conv1
# stage is 460 kB; one per block there makes BatchNorm's training forward and
# backward and QuantAct's forward about twice as fast.
CHANNEL_BLOCK_BYTES = 1 << 19


def _channel_blocks(x: np.ndarray) -> list[slice]:
    """Slices of axis 0 of a 4-D (c, h, w, b) array, whole channels of about
    ``CHANNEL_BLOCK_BYTES`` each; any other array is one block."""
    if x.ndim != 4:
        return [slice(None)]
    per = max(1, CHANNEL_BLOCK_BYTES // max(1, x[0].nbytes))
    return [slice(c, c + per) for c in range(0, len(x), per)]


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

    def backward(self, grad: np.ndarray) -> np.ndarray | None:
        self.weight.grad = grad.T @ self._x
        return grad @ self.weight.value if self.input_grad else None

    def grid_params(self) -> list[GridParam]:
        return [self.weight]


class Conv2d(Layer):
    """Valid, stride-1 cross-correlation with grid-valued kernels (out_c, in_c, k, k).

    Input ``(c, h, w, b)``, output ``(o, oh, ow, b)``: channel-major and
    batch-last.  Runs as im2col on BLAS one kernel row at a time (Chellapilla,
    Puri & Simard 2006): row ``u``'s columns are
    ``cols[(c, v), (i, j, b)] = x[c, i+u, j+v, b]``, built by ``k`` slice
    copies of ``ow*b``-long runs into one buffer that every row reuses, and
    its contribution to the output is one matmul with ``W[:, :, u, :]`` whose
    ``(o, oh*ow*b)`` product is already in the output layout.  Output rows go
    through in blocks of about ``BLOCK_BYTES`` of output, so that a block's
    accumulator stays in cache; each output value is the same sum, in the
    same order, for any block size.  Backward scatter-adds the input gradient over
    the same runs, and skips it in a network's first weighted layer.
    """

    # About a 2 MB L2 cache's worth of accumulator, partial product and
    # columns.  The MNIST net's conv1 (5 values per column) runs about twice
    # as fast as with unblocked rows; conv2 (800) is bound by its GEMMs.
    BLOCK_BYTES = 3 << 19

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

    def _blocks(self, oh: int, ow: int, b: int) -> tuple[list[tuple[int, int]], int]:
        """Output row blocks [i0, i1) and the values in the largest column block."""
        rows = max(1, self.BLOCK_BYTES // (8 * self.out_channels * ow * b))
        blocks = [(i0, min(i0 + rows, oh)) for i0 in range(0, oh, rows)]
        return blocks, self.in_channels * self.kernel_size * min(rows, oh) * ow * b

    def _columns(self, x: np.ndarray, u: int, i0: int, i1: int, buf: np.ndarray) -> np.ndarray:
        """Kernel row u's im2col block for output rows [i0, i1), in the flat buffer buf:
        (c*k, (i1-i0)*ow*b) with [(c, v), (i, j, b)] = x[c, i0+i+u, j+v, b]."""
        c, _, w, b = x.shape
        k = self.kernel_size
        ow = w - k + 1
        cols = buf[:c * k * (i1 - i0) * ow * b].reshape(c, k, i1 - i0, ow, b)
        for v in range(k):
            cols[:, v] = x[:, i0 + u:i1 + u, v:v + ow]
        return cols.reshape(c * k, -1)

    def _row_weights(self, u: int) -> np.ndarray:
        o, c, k, _ = self.weight.value.shape
        return self.weight.value[:, :, u, :].reshape(o, c * k)

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        if x.ndim != 4 or x.shape[0] != self.in_channels:
            raise ValueError(f"expected ({self.in_channels}, h, w, batch) input, got {x.shape}")
        _, h, w, b = x.shape
        oh, ow = self._out_hw(h, w)
        o = self.out_channels
        out = np.empty((o, oh, ow, b))
        blocks, cols_size = self._blocks(oh, ow, b)
        cols_buf = np.empty(cols_size)
        part_buf = np.empty(o * (blocks[0][1] - blocks[0][0]) * ow * b)
        for i0, i1 in blocks:
            acc = out[:, i0:i1].reshape(o, -1)  # a view: rows i0..i1 of every channel
            np.matmul(self._row_weights(0), self._columns(x, 0, i0, i1, cols_buf), out=acc)
            part = part_buf[:acc.size].reshape(acc.shape)
            for u in range(1, self.kernel_size):
                acc += np.matmul(self._row_weights(u), self._columns(x, u, i0, i1, cols_buf),
                                 out=part)
        if training:
            self._x = x
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray | None:
        x = self._x
        c = self.in_channels
        o, oh, ow, b = grad.shape
        k = self.kernel_size
        blocks, cols_size = self._blocks(oh, ow, b)
        cols_buf = np.empty(cols_size)
        dkernel = np.zeros_like(self.weight.value)
        part = np.empty((o, c * k))
        dx = np.zeros_like(x) if self.input_grad else None
        dcols_buf = np.empty(cols_size) if self.input_grad else None
        for i0, i1 in blocks:
            g = grad[:, i0:i1].reshape(o, -1)  # column order (i, j, b)
            for u in range(k):
                cols = self._columns(x, u, i0, i1, cols_buf)
                dkernel[:, :, u, :] += np.matmul(g, cols.T, out=part).reshape(o, c, k)
                if dx is not None:
                    dcols = dcols_buf[:cols.size].reshape(cols.shape)
                    taps = np.matmul(self._row_weights(u).T, g, out=dcols).reshape(
                        c, k, i1 - i0, ow, b)
                    for v in range(k):
                        dx[:, i0 + u:i1 + u, v:v + ow] += taps[:, v]
        self.weight.grad = dkernel
        return dx

    def grid_params(self) -> list[GridParam]:
        return [self.weight]


class MaxPool2d(Layer):
    """Non-overlapping max pooling of (c, h, w, b) input.

    The gradient routes to the first max in scan order.
    """

    def __init__(self, window: int):
        if window < 1:
            raise ValueError("window must be positive")
        self.window = window
        self._argmax = None
        self._in_shape = None

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        k = self.window
        _, h, w, _ = x.shape
        if h % k or w % k:
            raise ValueError(f"input {h}x{w} not divisible by window {k}")
        # One pass over the k^2 strided taps; tap t sits at offset divmod(t, k).
        out = x[:, ::k, ::k].copy()
        if training:
            argmax = np.zeros(out.shape, dtype=np.min_scalar_type(k * k - 1))
        for t in range(1, k * k):
            u, v = divmod(t, k)
            tap = x[:, u::k, v::k]
            if training:
                # Strict '>' keeps the first maximum in scan order on ties;
                # argmax becomes t where the tap wins and stays put elsewhere.
                wins = tap > out
                argmax *= ~wins
                argmax += wins * argmax.dtype.type(t)
            np.maximum(out, tap, out=out)
        if training:
            self._argmax = argmax
            self._in_shape = x.shape
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        k = self.window
        c, h, w, b = self._in_shape
        oh, ow = h // k, w // k
        # Flat index into dx of each window's winning tap: the tap's offset
        # within its window plus the window's corner.
        t = np.arange(k * k)
        index = ((t // k) * (w * b) + (t % k) * b)[self._argmax]
        index += (np.arange(oh)[:, None, None] * (k * w * b)
                  + np.arange(ow)[:, None] * (k * b) + np.arange(b))
        index += np.arange(c)[:, None, None, None] * (h * w * b)
        dx = np.zeros(self._in_shape)
        dx.reshape(-1)[index.reshape(-1)] = grad.reshape(-1)
        return dx


class Flatten(Layer):
    """Rows of features: (b, ...) -> (b, features).

    With ``batch_last`` the input is (c, h, w, b), as inside a conv net, and
    the output is (b, c*h*w) in (c, h, w) feature order.
    """

    def __init__(self, batch_last: bool = False):
        self.batch_last = batch_last
        self._shape = None

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        self._shape = x.shape
        if self.batch_last:
            return np.ascontiguousarray(x.reshape(-1, x.shape[-1]).T)
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self.batch_last:
            return np.ascontiguousarray(grad.T).reshape(self._shape)
        return grad.reshape(self._shape)


class BatchNorm(Layer):
    """Per-feature standardization with learned full-precision scale and shift.

    Works on (batch, features) or (channels, h, w, batch); statistics pool
    over everything but the feature/channel axis.  Running statistics feed
    inference mode.  Training goes through :func:`_channel_blocks`; each
    channel's values are computed as without blocks.
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
            return (1, 2, 3), (-1, 1, 1, 1)
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
        mean, var = np.empty(self.num_features), np.empty(self.num_features)
        inv_std = np.empty(self.num_features).reshape(shape)
        xhat, out = np.empty_like(x), np.empty_like(x)
        for s in _channel_blocks(x):
            mean[s] = x[s].mean(axis=axes)
            # d = x - mean, then the mean of d * d: the operations x.var(axes)
            # performs, so var is bit-identical to it.  d becomes xhat in
            # place, and the d * d buffer becomes the output.
            d = np.subtract(x[s], mean[s].reshape(shape), out=xhat[s])
            var[s] = np.multiply(d, d, out=out[s]).sum(axis=axes) / n
            inv_std[s] = 1.0 / np.sqrt(var[s].reshape(shape) + self.eps)
            d *= inv_std[s]
            np.multiply(g[s], d, out=out[s])
            out[s] += b[s]
        self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
        self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        self._cache = (xhat, inv_std, axes, shape, n)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        xhat, inv_std, axes, shape, n = self._cache
        gamma = self.gamma.value.reshape(shape)
        self.gamma.grad = np.empty(self.num_features)
        self.beta.grad = np.empty(self.num_features)
        dx = np.empty_like(grad)
        for s in _channel_blocks(grad):
            scratch = grad[s] * xhat[s]
            self.gamma.grad[s] = scratch.sum(axis=axes)
            self.beta.grad[s] = grad[s].sum(axis=axes)
            dxhat = np.multiply(grad[s], gamma[s], out=dx[s])
            # Standard batch-norm gradient with mean/var dependence folded in:
            # inv_std / n * (n * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat)),
            # evaluated in place with the same operations in the same order.
            dxhat_sum = dxhat.sum(axis=axes).reshape(shape)
            np.multiply(dxhat, xhat[s], out=scratch)
            dxhat_xhat_sum = scratch.sum(axis=axes).reshape(shape)
            dxhat *= n
            dxhat -= dxhat_sum
            dxhat -= np.multiply(xhat[s], dxhat_xhat_sum, out=scratch)
            dxhat *= inv_std[s] / n
        return dx

    def real_params(self) -> list[RealParam]:
        return [self.gamma, self.beta]


class QuantAct(Layer):
    """Quantized activation: grid values forward, surrogate pulses backward.

    For rect pulses, training forward caches each element's pulse count
    (uint8 unless pulses overlap 256 deep) and backward multiplies it by the
    pulse height ``dz / (2a)``; tri pulses cache the input and rebuild the
    surrogate.  Forward goes through :func:`_channel_blocks`.
    """

    def __init__(self, space: DiscreteSpace, spec: SurrogateSpec):
        # Multi-level bands only exist for r < h; binary/ternary thresholds may
        # exceed h (that is how high activation sparsity is dialed in).
        if space.n >= 2 and not spec.r + spec.a <= space.h:
            raise ValueError(
                f"multi-level surrogate pulses [r-a, r+a] must fit inside [-h, h]: "
                f"r={spec.r}, a={spec.a}, h={space.h}")
        self.space = space
        self.spec = spec
        self._rect = spec.shape is PulseShape.RECTANGULAR
        self._cache = None

    def _activation(self, x: np.ndarray) -> np.ndarray:
        return quantize_activation(x, self.space, self.spec.r)

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        counting = training and self._rect
        blocks = _channel_blocks(x)
        if len(blocks) == 1:
            # The quantizer's own output: no second full-size array.
            out = self._activation(x)
            count = rect_pulse_count(x, self.space, self.spec) if counting else None
        else:
            out = np.empty(x.shape)
            count = None
            for s in blocks:
                out[s] = self._activation(x[s])
                if counting:
                    part = rect_pulse_count(x[s], self.space, self.spec)
                    if count is None:
                        count = np.empty(x.shape, part.dtype)
                    count[s] = part
        if training:
            self._cache = count if counting else x
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._rect:
            slope = self._cache * (self.space.dz / (2.0 * self.spec.a))
        else:
            slope = surrogate_activation(self._cache, self.space, self.spec)
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
