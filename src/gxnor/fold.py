"""Exact per-channel thresholds for an eval-mode ``BatchNorm`` -> ``QuantAct`` pair.

In inference mode a ``BatchNorm`` computes ``((x - mean) / sqrt(var + eps))
* gamma + beta`` per channel, and each IEEE operation, rounded to nearest,
is monotone in ``x``.  Where ``gamma`` is non-zero and ``sqrt(var + eps)``
finite, the pair's output is therefore a monotone step function of the
input, non-decreasing for ``gamma > 0`` and non-increasing for ``gamma <
0``: one compare per quantizer step gives it exactly.  ``compile_pair``
finds each threshold by bisection over the order-preserving int64 image of
float64 (``-0.0`` and ``+0.0`` share one key), evaluating the two layers'
own ``forward`` on the candidates, so the thresholds come from the very
expression that they replace.

* A channel with ``gamma < 0`` compares the negated input.
* A channel with ``gamma == 0`` or ``sqrt(var + eps) == inf`` is the constant
  ``Q(beta)`` on a band of keys around ``mean`` and ``Q(NaN)`` outside it:
  where ``(x - mean) / sqrt(var + eps)`` overflows (at ``+-inf`` always),
  the product or quotient is NaN.  The band is found by bisection too.
* NaN fails every compare and so lands on ``Q(NaN)``: 0 on grids with a dead
  zone, ``-h`` on the binary grid.

A pair whose state admits none of these forms (a non-finite mean, gamma or
beta, a NaN or zero ``sqrt(var + eps)``), whose grid values are not ``code *
step`` bit for bit, or whose grid has more than ``MAX_STEPS`` steps, is not
compiled and runs unfused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import PackedTernary, pack_bit_planes
from .layers import BatchNorm, QuantAct, _channel_blocks

__all__ = ["Fold", "compile_pair", "pair_state"]

KEY_INF = 0x7FF0000000000000  # the key of +inf; -inf's is -KEY_INF
# A grid with more steps than this (n >= 4) runs unfused: one compare per
# step would cost more passes than the pair itself makes.
MAX_STEPS = 8
_SIGN = np.int64(-(1 << 63))


def _keys_to_floats(keys: np.ndarray) -> np.ndarray:
    """The float64 of each key in [-KEY_INF, KEY_INF]; key 0 is +0.0."""
    return np.where(keys < 0, -keys | _SIGN, keys).view(np.float64)


def _float_key(x: np.ndarray) -> np.ndarray:
    """The key of each float: its order, with -0.0 and +0.0 both at 0."""
    bits = np.asarray(x, dtype=np.float64).view(np.int64)
    return np.where(bits < 0, -(bits & ~_SIGN), bits)


def _bisect(holds, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Elementwise, the least key in (lo, hi] where ``holds`` is true, for a
    predicate false up to some key and true from it on; ``holds`` is taken
    false at ``lo`` and true at ``hi`` without being evaluated there."""
    while (live := hi - 1 > lo).any():
        # floor((lo + hi) / 2) without overflow; elements already found are
        # evaluated at a valid key, and left as they are.
        mid = np.clip((lo >> 1) + (hi >> 1) + (lo & hi & 1), -KEY_INF, KEY_INF)
        hit = holds(mid)
        hi = np.where(live & hit, mid, hi)
        lo = np.where(live & ~hit, mid, lo)
    return hi


def pair_state(bn: BatchNorm, qa: QuantAct) -> tuple:
    """Everything a pair's thresholds depend on, compared by exact bytes."""
    return (bn.running_mean.tobytes(), bn.running_var.tobytes(), bn.gamma.value.tobytes(),
            bn.beta.value.tobytes(), qa.space, qa.spec, np.dtype(qa.dtype))


@dataclass(frozen=True)
class Fold:
    """A compiled pair: the grid level of each element from compares alone.

    With ``x'`` the input, negated on the channels where ``flip`` is -1, each
    element's code is ``sum(x' > t for t in upper) - sum(x' < t for t in
    lower)``, zeroed outside the closed ``band`` (where there is one).  The
    output is ``code * step`` on a grid with a dead zone and ``(2 * code -
    1) * step`` on the binary grid.  Every threshold array holds one value
    per channel, along the channel axis (last of a 2-D input, first of a 4-D
    one).
    """

    flip: np.ndarray | None
    upper: list[np.ndarray]
    lower: list[np.ndarray]
    band: tuple[np.ndarray, np.ndarray] | None
    binary: bool
    step: np.floating
    dtype: np.dtype

    def _compares(self, x: np.ndarray, s: slice = slice(None)):
        """Each step's compares on ``x``, which holds channels ``s``."""
        shape = (-1, 1, 1, 1) if x.ndim == 4 else (-1,)
        if self.flip is not None:
            x = x * self.flip[s].reshape(shape)
        up = [np.greater(x, t[s].reshape(shape)) for t in self.upper]
        down = [np.less(x, t[s].reshape(shape)) for t in self.lower]
        if self.band is not None:
            lo, hi = (b[s].reshape(shape) for b in self.band)
            inside = np.greater_equal(x, lo)
            inside &= np.less_equal(x, hi)
            for c in up + down:
                c &= inside
        return up, down

    def levels(self, x: np.ndarray) -> tuple[np.ndarray, int]:
        """The pair's output on ``x`` (real or integer) and its zero count,
        a block of whole channels at a time as in ``QuantAct.forward``."""
        out = np.empty(x.shape, self.dtype)
        zeros = 0
        for s in _channel_blocks(x):
            up, down = self._compares(x[s], s)
            code = sum(c.view(np.int8) for c in up) - sum(c.view(np.int8) for c in down)
            if self.binary:
                code = 2 * code - 1
            zeros += 0 if self.binary else code.size - np.count_nonzero(code)
            block = out[s]
            np.copyto(block, code, casting="unsafe")
            if self.step != 1:
                block *= self.step
        return out, zeros

    def planes(self, x: np.ndarray) -> tuple[PackedTernary, int]:
        """A unit ternary pair's output on (batch, features) ``x`` as bit
        planes, and its zero count."""
        (plus,), (minus,) = self._compares(x)
        mask = plus | minus
        return pack_bit_planes(mask, plus), mask.size - np.count_nonzero(mask)


def compile_pair(bn: BatchNorm, qa: QuantAct) -> Fold | None:
    """The pair's exact thresholds, or None if its state admits no fold."""
    mean, gamma = bn.running_mean, bn.gamma.value
    scale = np.sqrt(bn.running_var + bn.EPS)
    if not (np.isfinite(mean).all() and np.isfinite(gamma).all()
            and np.isfinite(bn.beta.value).all() and (scale > 0).all()):
        return None
    dtype = np.dtype(qa.dtype)
    space = qa.space
    if space.num_states - 1 > MAX_STEPS:
        return None
    grid = space.states().astype(dtype)
    binary = space.n == 0
    step = dtype.type(space.h if binary else space.dz)
    codes = np.array([-1, 1]) if binary else np.arange(len(grid)) - len(grid) // 2
    # The output arithmetic must give the grid bit for bit, with a zero
    # only at the dead zone's code, which the zero count relies on.
    values = codes.astype(dtype) * step
    if values.tobytes() != grid.tobytes() or np.count_nonzero(values) != len(codes) - (not binary):
        return None
    nan_level = 0 if binary else len(grid) // 2  # the level of Q(NaN)

    regular = (gamma != 0) & np.isfinite(scale)
    sign = np.where(regular & (gamma < 0), -1.0, 1.0)
    channels = len(gamma)

    def level(keys):
        """Grid level of the pair's output at x = sign * float(key), per row."""
        x = sign * _keys_to_floats(keys)
        # The candidates run to +-inf, where the layers overflow by design.
        with np.errstate(all="ignore"):
            out = qa.forward(bn.forward(x, training=False), training=False)
        return np.searchsorted(grid, out)

    # Row j: the least key whose level exceeds j.
    steps = len(grid) - 1
    above = np.arange(1, steps + 1)[:, None]
    first = _bisect(lambda k: level(k) >= above,
                    np.full((steps, channels), -KEY_INF - 1), np.full((steps, channels), KEY_INF + 1))
    # A regular channel is at the lowest level at -inf and the highest at
    # +inf, so every row's key is a finite float or +inf.
    if not ((first > -KEY_INF) & (first <= KEY_INF))[:, regular].all():
        return None
    upper = _keys_to_floats(first[nan_level:] - 1)   # x' > t: level above the row
    lower = _keys_to_floats(first[:nan_level])       # x' < t: level at most the row

    band = None
    if not regular.all():
        # Constant channels: the level at the mean on a band around it, the
        # level of Q(NaN) outside.  Their compares give the former on every
        # finite input, and the band's compares mask the rest.
        key_mean = _float_key(mean)
        at_mean = level(key_mean[None])[0]
        rows = np.arange(steps)[:, None]
        upper[:, ~regular] = np.where(rows[nan_level:] < at_mean, -np.inf, np.inf)[:, ~regular]
        lower[:, ~regular] = np.where(rows[:nan_level] >= at_mean, np.inf, -np.inf)[:, ~regular]
        banded = ~regular & (at_mean != nan_level)
        if banded.any():
            # Row 0: the first key at the mean's level; row 1: the first key
            # above the mean that is not.
            edges = _bisect(
                lambda k: (level(k) == at_mean) != np.array([[False], [True]]),
                np.stack([np.full(channels, -KEY_INF - 1), key_mean]),
                np.stack([key_mean, np.full(channels, KEY_INF + 1)]))
            band = (np.where(banded, _keys_to_floats(edges[0]), -np.inf),
                    np.where(banded, _keys_to_floats(edges[1] - 1), np.inf))
    flip = sign if (sign < 0).any() else None
    return Fold(flip, list(upper), list(lower), band, binary, step, dtype)
