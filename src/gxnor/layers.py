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

Every layer computes in float64, with one exception: a ``Conv2d`` whose
forward product is exact in float32 (:func:`_exact_in_float32`) runs it in
float32.  Every layer returns float64, and every backward pass is float64.

A conv stage is a 4-D ``BatchNorm`` -> ``QuantAct`` pair and the
``MaxPool2d`` after it, if there is one.  ``Network`` runs each stage, in
training and in inference, one :func:`_channel_blocks` block at a time: it
sets each stage layer's ``channels`` to the block and calls its ``forward``
(and its training ``backward``) once per block, so every channel meets the
same operations in the same order as when each layer runs on the whole array.
A stage's arrays exist at full size only where the stage needs them whole:
the conv output that feeds it and the stage's output; in training also
``BatchNorm``'s ``xhat`` (one buffer, written over by every step), the
gradient that the stage returns and, with no pool, a ``QuantAct``'s cache
(pulse counts, or the input for tri pulses).  The batch-norm output, the
quantized output (or a compiled fold's, :mod:`gxnor.fold`), the slopes, the
pool's routed gradient and ``BatchNorm``'s backward scratch exist one block
at a time.  A pool needs the slopes only at its winning taps, one per window
(any other tap's gradient is +0.0), so there ``QuantAct`` caches its pulses
at those taps alone, next to the pool's choice of tap, one value per pool
output; its backward runs on the pooled gradient before the pool routes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import frexp, isfinite

import numpy as np

from .dst import GridParam, RealParam, param_stream
from .spaces import (
    DiscreteSpace,
    PulseShape,
    SurrogateSpec,
    check_band_threshold,
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

    ``channels`` is the part of a 4-D activation's channels that a
    ``forward`` or ``backward`` call is given: all of them, or one block of a
    conv stage (see the module docstring).  A stage's blocks come in channel
    order, forward and backward alike.
    """

    input_grad = True
    channels = slice(None)

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grid_params(self) -> list[GridParam]:
        return []

    def real_params(self) -> list[RealParam]:
        return []

    def _store(self, value) -> None:
        """Cache ``value`` for the backward call of the same ``channels``; a
        call on all channels or on a stage's first block starts afresh."""
        if not self.channels.start:
            self._per_block = {}
        self._per_block[self.channels.start] = value

    def _stored(self):
        return self._per_block[self.channels.start]


# Elementwise work on a 4-D activation goes through in blocks of whole
# channels of about this many bytes, so that a block's arrays and
# temporaries stay in a 2 MB L2 cache.  One channel of the MNIST net's conv1
# stage is 460 kB; one per block there makes BatchNorm's training forward and
# backward and QuantAct's forward about twice as fast.
CHANNEL_BLOCK_BYTES = 1 << 19


def _channel_blocks(x: np.ndarray) -> list[slice]:
    """Slices of whole channels of (c, h, w, b) ``x``, ``CHANNEL_BLOCK_BYTES`` or so each."""
    per = max(1, CHANNEL_BLOCK_BYTES // max(1, x[0].nbytes))
    return [slice(c, min(c + per, len(x))) for c in range(0, len(x), per)]


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


# OpenBLAS 0.3.31's dgemm computes a row-major product's columns in panels
# of 8.  Once the inner dimension reaches 16 it sums the last n % 8 columns of
# an n-column product (n % 8 in 1..4) in another order than the rest, so a
# column's value would depend on how wide the product is.
PANEL = 8


def _panel_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """``out[...] = a @ b``, with every column computed inside a whole panel.

    The first ``n - n % PANEL`` columns go straight into ``out``; the last
    ``n % PANEL`` go through a zero-padded ``PANEL``-column product.  Each
    column's value is then the same for any ``n``, which holds on this BLAS
    for inner dimensions up to about 300 (the MNIST net's first conv has 25).
    """
    n = b.shape[1]
    whole = n - n % PANEL
    if whole:
        np.matmul(a, b[:, :whole], out=out[:, :whole])
    if whole < n:
        pad = np.zeros((b.shape[0], PANEL), b.dtype)
        pad[:, :n - whole] = b[:, whole:]
        out[:, whole:] = (a @ pad)[:, :n - whole]


def _exact_in_float32(w_space: DiscreteSpace, a_space: DiscreteSpace, fan_in: int) -> bool:
    """Whether dot products of ``fan_in`` ``w_space`` values with ``a_space``
    values are exact in float32: when both grids have a power-of-two ``h``
    within ``2**±40`` and ``fan_in * M_w * M_a <= 2**24``, where ``M =
    2**(n-1)`` (1 for a binary grid).  Every partial sum is then an integer
    multiple of the product of the two grid units, at most ``2**24`` of them,
    inside float32's normal range, so float32 holds it in any order."""
    units = fan_in
    for space in (w_space, a_space):
        mantissa, exponent = frexp(space.h)
        if mantissa != 0.5 or abs(exponent) > 40:
            return False
        units *= 2 ** (space.n - 1) if space.n >= 1 else 1
    return units <= 1 << 24


class Conv2d(Layer):
    """Valid, stride-1 cross-correlation with grid-valued kernels (out_c, in_c, k, k).

    Input ``(c, h, w, b)``, output ``(o, oh, ow, b)``: channel-major and
    batch-last.  Runs as im2col on BLAS (Chellapilla, Puri & Simard 2006),
    one GEMM per block of output rows: a block's columns are
    ``cols[(c, u, v), (i, j, b)] = x[c, i+u, j+v, b]``, built by ``k*k``
    slice copies into one buffer that every block reuses, and the block's
    output is one matmul of the ``(o, c*k*k)`` kernel with them, whose
    product is already in the output layout.  A block holds about
    ``BLOCK_BYTES`` of columns, so they stay in cache.  Every output column
    is computed inside a whole BLAS panel (see :func:`_panel_matmul`), so
    neither the block size nor the batch size nor an image's place in the
    batch changes an output value: on real-valued input for ``c*k*k`` up to
    about 300 (conv1 of the MNIST net has 25), in an exact float32 product
    for any ``c*k*k``.  Backward adds ``g @ cols.T`` to the kernel gradient and
    scatter-adds ``W.T @ g`` over the same taps into the input gradient, and
    skips the latter in a network's first weighted layer.

    ``input_space`` is the grid that every input value lies on, or None for
    real input such as pixels.  Forward casts its input and kernel to
    ``gemm_dtype``, builds its columns in it, and returns float64.
    ``gemm_dtype`` is float32 where :func:`_exact_in_float32` holds for the
    weight grid, the input grid and ``c*k*k``, and float64 elsewhere.
    Backward runs in float64.
    """

    # About a 2 MB L2 cache's worth of columns and their product.
    BLOCK_BYTES = 3 << 19

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 space: DiscreteSpace, seed: int, layer_index: int,
                 input_space: DiscreteSpace | None = None):
        if kernel_size < 1:
            raise ValueError("kernel size must be positive")
        rng = param_stream(seed, layer_index)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        exact = input_space is not None and _exact_in_float32(
            space, input_space, in_channels * kernel_size ** 2)
        self.gemm_dtype = np.dtype(np.float32 if exact else np.float64)
        self.weight = GridParam(
            value=init_grid_weights(
                (out_channels, in_channels, kernel_size, kernel_size), space, rng),
            space=space, rng=rng,
        )
        self._x = None

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        k = self.kernel_size
        if h < k or w < k:
            raise ValueError(f"input {h}x{w} smaller than kernel {k}x{k}")
        return h - k + 1, w - k + 1

    def _blocks(self, oh: int, ow: int, b: int,
                itemsize: int) -> tuple[list[tuple[int, int]], int]:
        """Output row blocks [i0, i1) and the values in the largest column block."""
        per_row = self.in_channels * self.kernel_size ** 2 * ow * b
        rows = max(1, self.BLOCK_BYTES // (itemsize * per_row))
        blocks = [(i0, min(i0 + rows, oh)) for i0 in range(0, oh, rows)]
        return blocks, per_row * min(rows, oh)

    def _columns(self, x: np.ndarray, i0: int, i1: int, buf: np.ndarray) -> np.ndarray:
        """The im2col block of output rows [i0, i1), in the flat buffer buf:
        (c*k*k, (i1-i0)*ow*b) with [(c, u, v), (i, j, b)] = x[c, i0+i+u, j+v, b]."""
        c, _, w, b = x.shape
        k = self.kernel_size
        ow = w - k + 1
        cols = buf[:c * k * k * (i1 - i0) * ow * b].reshape(c, k, k, i1 - i0, ow, b)
        for u in range(k):
            for v in range(k):
                cols[:, u, v] = x[:, i0 + u:i1 + u, v:v + ow]
        return cols.reshape(c * k * k, -1)

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        if x.ndim != 4 or x.shape[0] != self.in_channels:
            raise ValueError(f"expected ({self.in_channels}, h, w, batch) input, got {x.shape}")
        _, h, w, b = x.shape
        oh, ow = self.out_hw(h, w)
        o = self.out_channels
        dtype = self.gemm_dtype
        # One cast up front: the k*k tap copies then read half the bytes.
        x = x.astype(dtype, copy=False)
        kernel = self.weight.value.reshape(o, -1).astype(dtype, copy=False)
        out = np.empty((o, oh, ow, b), dtype)
        blocks, cols_size = self._blocks(oh, ow, b, dtype.itemsize)
        cols_buf = np.empty(cols_size, dtype)
        for i0, i1 in blocks:
            # out[:, i0:i1] as a (o, rows*ow*b) view: rows i0..i1 of every channel.
            _panel_matmul(kernel, self._columns(x, i0, i1, cols_buf),
                          out[:, i0:i1].reshape(o, -1))
        if training:
            self._x = x
        return out.astype(np.float64, copy=False)

    def backward(self, grad: np.ndarray) -> np.ndarray | None:
        x = self._x
        o, oh, ow, b = grad.shape
        c, k = self.in_channels, self.kernel_size
        kernel = self.weight.value.reshape(o, -1)
        blocks, cols_size = self._blocks(oh, ow, b, grad.itemsize)
        cols_buf = np.empty(cols_size)
        dkernel = np.zeros(kernel.shape)
        dx = np.zeros(x.shape) if self.input_grad else None
        dcols_buf = np.empty(cols_size) if self.input_grad else None
        for i0, i1 in blocks:
            g = grad[:, i0:i1].reshape(o, -1)  # column order (i, j, b)
            dkernel += g @ self._columns(x, i0, i1, cols_buf).T
            if dx is not None:
                dcols = dcols_buf[:kernel.shape[1] * g.shape[1]].reshape(-1, g.shape[1])
                taps = np.matmul(kernel.T, g, out=dcols).reshape(c, k, k, i1 - i0, ow, b)
                for u in range(k):
                    for v in range(k):
                        dx[:, i0 + u:i1 + u, v:v + ow] += taps[:, u, v]
        self.weight.grad = dkernel.reshape(self.weight.value.shape)
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
        self._corners = None

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        k = self.window
        if h % k or w % k:
            raise ValueError(f"input {h}x{w} not divisible by window {k}")
        return h // k, w // k

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        k = self.window
        self.out_hw(*x.shape[1:3])
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
            self._store((argmax, x.shape))
        return out

    def _winners(self) -> tuple[np.ndarray, tuple]:
        """The shape of this block's training input, and the flat index into
        that input of each window's winning tap, in the output's shape."""
        argmax, shape = self._stored()
        k = self.window
        c, h, w, b = shape
        oh, ow = h // k, w // k
        # Each window's corner, kept for the largest block seen of this
        # shape: a stage's blocks differ only in their channel count.
        corners = self._corners
        if corners is None or len(corners) < c or corners.shape[1:] != (oh, ow, b):
            corners = (np.arange(c)[:, None, None] * (h * w * b)
                       + np.arange(oh)[:, None] * (k * w * b) + np.arange(ow) * (k * b))
            self._corners = corners = corners[..., None] + np.arange(b)
        # The tap's offset within its window plus the window's corner.
        t = np.arange(k * k)
        index = ((t // k) * (w * b) + (t % k) * b).take(argmax)
        index += corners[:c]
        return index, shape

    def winners(self, x: np.ndarray) -> np.ndarray:
        """The values of ``x``, shaped as this block's training input, at
        each window's winning tap: one per output element."""
        return x.reshape(-1)[self._winners()[0]]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        index, shape = self._winners()
        dx = np.zeros(shape)
        dx.reshape(-1)[index.reshape(-1)] = grad.reshape(-1)
        return dx


class Flatten(Layer):
    """Rows of features: (b, ...) -> (b, features).

    With ``batch_last`` (a conv net's ``Network`` sets it) the input is (c, h,
    w, b), and the output is (b, c*h*w) in (c, h, w) feature order.
    """

    batch_last = False

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
    inference mode.  A call on one block of a conv stage's channels, in
    either mode, computes each channel's values as a call on all of them
    does.  In training a stage's first block allocates the step's
    per-channel arrays and writes ``xhat`` over the last step's buffer; its
    last block updates the running statistics.
    """

    EPS, MOMENTUM = 1e-5, 0.1

    def __init__(self, num_features: int):
        self.num_features = num_features
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
        c = self.channels
        if not training:
            # (x - mean) / sqrt(var + eps) * gamma + beta, in place on one new
            # array; x itself is never written.
            out = x - self.running_mean.reshape(shape)[c]
            out /= np.sqrt(self.running_var.reshape(shape)[c] + self.EPS)
            out *= g[c]
            out += b[c]
            return out
        n = x.size // g[c].size
        if n < 2:
            raise ValueError("training-mode batch norm needs at least 2 values per feature")
        if not c.start:
            mean, var = np.empty(self.num_features), np.empty(self.num_features)
            inv_std = np.empty(self.num_features).reshape(shape)
            if c.start is None:
                xhat = np.empty_like(x)
            else:
                full = (self.num_features, *x.shape[1:])
                xhat = self._cache[0] if self._cache is not None else None
                if xhat is None or xhat.shape != full:
                    xhat = np.empty(full)
            self._cache = (xhat, mean, var, inv_std, n)
        xhat, mean, var, inv_std, _ = self._cache
        out = np.empty_like(x)
        # x.mean(axes), then x.var(axes) as the mean of d * d for d = x - mean,
        # by their own reductions without the wrappers, so bit-identical.
        # d becomes xhat in place, and the d * d buffer becomes the output.
        mean[c] = np.add.reduce(x, axis=axes) / n
        d = np.subtract(x, mean[c].reshape(shape), out=xhat[c])
        var[c] = np.add.reduce(np.multiply(d, d, out=out), axis=axes) / n
        inv_std[c] = 1.0 / np.sqrt(var[c].reshape(shape) + self.EPS)
        d *= inv_std[c]
        np.multiply(g[c], d, out=out)
        out += b[c]
        if c.stop is None or c.stop == self.num_features:
            self.running_mean = (1 - self.MOMENTUM) * self.running_mean + self.MOMENTUM * mean
            self.running_var = (1 - self.MOMENTUM) * self.running_var + self.MOMENTUM * var
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        c = self.channels
        xhat, _, _, inv_std, n = self._cache
        xhat, inv_std = xhat[c], inv_std[c]
        axes, shape = self._axes_and_shape(grad)
        gamma = self.gamma.value.reshape(shape)[c]
        if not c.start:
            self.gamma.grad = np.empty(self.num_features)
            self.beta.grad = np.empty(self.num_features)
        dx = np.empty_like(grad)
        scratch = grad * xhat
        self.gamma.grad[c] = np.add.reduce(scratch, axis=axes)
        self.beta.grad[c] = np.add.reduce(grad, axis=axes)
        dxhat = np.multiply(grad, gamma, out=dx)
        # Standard batch-norm gradient with mean/var dependence folded in:
        # inv_std / n * (n * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat)),
        # evaluated in place with the same operations in the same order.
        dxhat_sum = np.add.reduce(dxhat, axis=axes).reshape(shape)
        np.multiply(dxhat, xhat, out=scratch)
        dxhat_xhat_sum = np.add.reduce(scratch, axis=axes).reshape(shape)
        dxhat *= n
        dxhat -= dxhat_sum
        dxhat -= np.multiply(xhat, dxhat_xhat_sum, out=scratch)
        dxhat *= inv_std / n
        return dx

    def real_params(self) -> list[RealParam]:
        return [self.gamma, self.beta]


class QuantAct(Layer):
    """Quantized activation: grid values forward, surrogate pulses backward.

    For rect pulses, training forward caches each element's pulse count
    (uint8 unless pulses overlap 256 deep) and backward multiplies it by the
    pulse height ``dz / (2a)`` set in ``__init__``; tri pulses cache the input
    and rebuild the surrogate.  Forward quantizes what it is given in one
    call; a conv stage gives it one channel block at a time.  :meth:`keep`
    caches the pulses of some inputs alone: a pooled conv stage keeps those
    at the pool's winning taps, and then backward takes the pooled gradient.
    """

    def __init__(self, space: DiscreteSpace, spec: SurrogateSpec):
        if space.n > 15:
            raise ValueError(f"n2={space.n} exceeds 15: the activation surrogate makes one "
                             "pass over its input per pulse, and there are 2**(n2-1) pulses")
        # Multi-level bands only exist for r < h; binary/ternary thresholds may
        # exceed h (that is how high activation sparsity is dialed in).
        if space.n >= 2 and not spec.r + spec.a <= space.h:
            raise ValueError(
                f"multi-level activations (n2={space.n}) need r + a <= h for their "
                f"surrogate pulses, got r={spec.r!r}, a={spec.a!r}, h={space.h!r}")
        if space.n >= 2:
            check_band_threshold(space, spec.r)
        self.space, self.spec = space, spec
        # Backward multiplies rect pulse counts, mostly 0, by this height; an
        # infinite one would make 0 * inf = NaN slopes.  None for tri pulses.
        rect = spec.shape is PulseShape.RECTANGULAR
        self._height = space.dz / (2.0 * spec.a) if rect else None
        if rect and not isfinite(self._height):
            raise ValueError(f"a rect pulse's height dz / (2a) overflows at a={spec.a!r}, "
                             f"h={space.h!r}, n2={space.n}")

    def _activation(self, x: np.ndarray) -> np.ndarray:
        return quantize_activation(x, self.space, self.spec.r)

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        out = self._activation(x)
        if training:
            self.keep(x)
        return out

    def keep(self, x: np.ndarray) -> None:
        """Cache for backward what the slopes at the inputs ``x`` need."""
        rect = self._height is not None
        self._store(rect_pulse_count(x, self.space, self.spec) if rect else x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        pulses = self._stored()
        if self._height is not None:
            slope = pulses * self._height
        else:
            slope = surrogate_activation(pulses, self.space, self.spec)
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
    loss = float(np.add.reduce(np.add.reduce(np.square(margins), axis=1))) / batch
    dscores = -2.0 * targets * margins / batch
    return LossGrad(loss=loss, dscores=dscores)
