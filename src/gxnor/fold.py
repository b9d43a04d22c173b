"""Exact per-channel thresholds for an eval-mode ``BatchNorm`` -> ``QuantAct`` pair.

In inference mode a ``BatchNorm`` computes ``((x - mean) / sqrt(var + eps))
* gamma + beta`` per channel, and each IEEE operation, rounded to nearest,
is monotone in ``x``.  ``compile_pair`` compiles monotone channels only:
mean and beta finite, ``gamma`` finite and non-zero, ``sqrt(var + eps)``
finite and non-zero.  There the pair's output is a monotone step function
of the input, non-decreasing for ``gamma > 0`` and non-increasing for
``gamma < 0``: one compare per quantizer step gives it exactly.  Each
threshold is found by bisection over the order-preserving int64 image of
float64 (``-0.0`` and ``+0.0`` share one key), evaluating the two layers'
own ``forward`` on the candidates, so the thresholds come from the very
expression that they replace.

* A channel with ``gamma < 0`` compares the negated input.
* NaN fails every compare and so lands on ``Q(NaN)``: 0 on grids with a dead
  zone, ``-h`` on the binary grid.

A pair with any other channel (``gamma`` of either sign of zero, infinite
variance, anything non-finite), whose grid values are not ``code * step``
bit for bit, or whose grid has more than ``MAX_STEPS`` steps, is not
compiled and runs unfused, which is exact by definition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import PackedTernary, pack_bit_planes
from .layers import BatchNorm, QuantAct

__all__ = ["Fold", "compile_pair", "pair_state"]

KEY_INF = 0x7FF0000000000000  # the key of +inf; -inf's is -KEY_INF
# A grid with more steps than this (n >= 4) runs unfused: one compare per
# step would cost more passes than the pair itself makes.
MAX_STEPS = 8
_SIGN = np.int64(-(1 << 63))


def _keys_to_floats(keys: np.ndarray) -> np.ndarray:
    """The float64 of each key in [-KEY_INF, KEY_INF]; key 0 is +0.0."""
    return np.where(keys < 0, -keys | _SIGN, keys).view(np.float64)


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
            bn.beta.value.tobytes(), qa.space, qa.spec)


@dataclass(frozen=True)
class Fold:
    """A compiled pair: the grid level of each element from compares alone.

    With ``x'`` the input, negated on the channels where ``flip`` is -1, each
    element's code is ``sum(x' > t for t in upper) - sum(x' < t for t in
    lower)``.  The output is ``code * step`` on a grid with a dead zone and
    ``(2 * code - 1) * step`` on the binary grid.  Every threshold array holds one value
    per channel, along the channel axis (last of a 2-D input, first of a 4-D
    one).
    """

    flip: np.ndarray | None
    upper: list[np.ndarray]
    lower: list[np.ndarray]
    binary: bool
    step: float

    def _compares(self, x: np.ndarray, s: slice = slice(None)):
        """Each step's compares on ``x``, which holds channels ``s``."""
        shape = (-1, 1, 1, 1) if x.ndim == 4 else (-1,)
        if self.flip is not None:
            x = x * self.flip[s].reshape(shape)
        up = [np.greater(x, t[s].reshape(shape)) for t in self.upper]
        down = [np.less(x, t[s].reshape(shape)) for t in self.lower]
        return up, down

    def levels(self, x: np.ndarray, s: slice = slice(None)) -> tuple[np.ndarray, int]:
        """The pair's output on ``x`` (real or integer), which holds channels
        ``s``, and its zero count."""
        out = np.empty(x.shape)
        up, down = self._compares(x, s)
        code = sum(c.view(np.int8) for c in up) - sum(c.view(np.int8) for c in down)
        if self.binary:
            code = 2 * code - 1
        np.copyto(out, code, casting="unsafe")
        if self.step != 1:
            out *= self.step
        return out, 0 if self.binary else code.size - np.count_nonzero(code)

    def planes(self, x: np.ndarray) -> tuple[PackedTernary, int]:
        """A unit ternary pair's output on (batch, features) ``x`` as bit
        planes, and its zero count."""
        (plus,), (minus,) = self._compares(x)
        mask = plus | minus
        return pack_bit_planes(mask, plus), mask.size - np.count_nonzero(mask)


def compile_pair(bn: BatchNorm, qa: QuantAct) -> Fold | None:
    """The pair's exact thresholds, or None if its state admits no fold."""
    gamma = bn.gamma.value
    scale = np.sqrt(bn.running_var + bn.EPS)
    if not (np.isfinite(bn.running_mean).all() and np.isfinite(bn.beta.value).all()
            and (np.isfinite(gamma) & (gamma != 0)).all()
            and (np.isfinite(scale) & (scale != 0)).all()):
        return None
    space = qa.space
    if space.num_states - 1 > MAX_STEPS:
        return None
    grid = space.states()
    binary = space.n == 0
    step = space.h if binary else space.dz
    codes = np.array([-1, 1]) if binary else np.arange(len(grid)) - len(grid) // 2
    # The output arithmetic must give the grid bit for bit, with a zero
    # only at the dead zone's code, which the zero count relies on.
    values = codes * step
    if values.tobytes() != grid.tobytes() or np.count_nonzero(values) != len(codes) - (not binary):
        return None
    nan_level = 0 if binary else len(grid) // 2  # the level of Q(NaN)

    sign = np.where(gamma < 0, -1.0, 1.0)
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
    # A monotone channel is at the lowest level at -inf and the highest at
    # +inf, so every row's key is a finite float or +inf.
    if not ((first > -KEY_INF) & (first <= KEY_INF)).all():
        return None
    upper = _keys_to_floats(first[nan_level:] - 1)   # x' > t: level above the row
    lower = _keys_to_floats(first[:nan_level])       # x' < t: level at most the row
    flip = sign if (sign < 0).any() else None
    return Fold(flip, list(upper), list(lower), binary, step)
