"""Discrete state grids, quantization functions, and their pulse surrogates.

A grid with state parameter ``n`` holds ``2**n + 1`` evenly spaced values on
``[-h, h]`` (two endpoint values for ``n = 0``).  Quantizers map reals onto the
grid; because the quantizers are step functions, backpropagation uses bounded
pulse surrogates in place of their impulse-train derivative.  Every function
here is pure and works elementwise on numpy arrays; a scalar input comes back
as a 0-d array.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "DiscreteSpace",
    "PulseShape",
    "SurrogateSpec",
    "make_space",
    "quantize_ternary",
    "quantize_binary",
    "quantize_multilevel",
    "check_band_threshold",
    "quantize_activation",
    "surrogate_rect",
    "surrogate_tri",
    "surrogate_activation",
    "pulse_centers",
    "rect_pulse_count",
]


class PulseShape(Enum):
    """Shape of the pulse standing in for a quantizer step derivative."""

    RECTANGULAR = "rect"
    TRIANGULAR = "tri"


@dataclass(frozen=True)
class DiscreteSpace:
    """The grid of ``2**n + 1`` states spaced ``dz`` apart on ``[-h, h]``.

    ``n = 0`` degenerates to the binary grid ``{-h, +h}`` with ``dz = 2h``.
    """

    n: int
    h: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 0 or int(self.n) != self.n:
            raise ValueError(f"state parameter must be a non-negative integer, got {self.n}")
        if not self.h > 0:
            raise ValueError(f"half-range must be positive, got {self.h}")
        if not sys.float_info.min <= self.dz < math.inf:
            raise ValueError(f"grid step dz={self.dz!r} (n={self.n}, h={self.h!r}) must be a "
                             "finite normal float, or grid states merge")

    @property
    def dz(self) -> float:
        # h * 2**(1 - n), exact; ldexp gives 0.0 where 2.0 ** (n - 1) would overflow.
        return 2.0 * self.h if self.n == 0 else math.ldexp(self.h, 1 - self.n)

    @property
    def num_states(self) -> int:
        return 2**self.n + 1 if self.n >= 1 else 2

    def states(self) -> np.ndarray:
        """All grid values, ascending.  Canonical float representation."""
        if self.n == 0:
            return np.array([-self.h, self.h])
        idx = np.arange(2**self.n + 1)
        return (idx / 2.0 ** (self.n - 1) - 1.0) * self.h

    def index_of(self, values) -> np.ndarray:
        """Nearest grid index of each value (exact for grid members)."""
        return np.rint((np.asarray(values, dtype=float) + self.h) / self.dz).astype(np.int64)


def make_space(n: int, h: float = 1.0) -> DiscreteSpace:
    """Build the grid with state parameter ``n`` scaled to ``[-h, h]``."""
    return DiscreteSpace(n=n, h=h)


@dataclass(frozen=True)
class SurrogateSpec:
    """Pulse family for a quantizer's approximate derivative.

    ``a`` is the pulse half-width, ``r`` the quantizer window threshold.
    """

    shape: PulseShape = PulseShape.RECTANGULAR
    a: float = 0.5
    r: float = 0.5

    def __post_init__(self) -> None:
        if not self.a > 0:
            raise ValueError(f"pulse half-width must be positive, got {self.a}")
        if self.r < 0:
            raise ValueError(f"window threshold must be non-negative, got {self.r}")
        if self.shape is PulseShape.TRIANGULAR and self.a * self.a < sys.float_info.min:
            raise ValueError(f"a tri pulse needs a >= 2**-511, got a={self.a!r}: its slope "
                             "divides by a*a, which underflows to zero below that")
        if self.shape is PulseShape.TRIANGULAR and self.a * self.a == math.inf:
            raise ValueError(f"a tri pulse needs a < 2**512, got a={self.a!r}: its slope "
                             "divides by a*a, which overflows to infinity from there on")


def quantize_ternary(x, r: float):
    """Three-way threshold: +1 above ``r``, -1 below ``-r``, 0 inside the band.

    The band is closed: ``|x| == r`` maps to 0, and so does NaN.  Zeros are
    +0.0.  ``r`` must be non-negative, so the two thresholds never overlap.
    """
    if not r >= 0:
        raise ValueError(f"window threshold must be non-negative, got {r}")
    x = np.asarray(x, dtype=float)
    # The difference of the two tests in int8: one byte per element until the
    # final cast, which makes the zeros +0.0.
    step = np.asarray(x > r).view(np.int8)
    step -= np.asarray(x < -r).view(np.int8)
    return step.astype(np.float64)


def quantize_binary(x, h: float = 1.0):
    """Two-state quantizer: ``+h`` for ``x >= 0``, ``-h`` otherwise (NaN too)."""
    return np.where(np.asarray(x, dtype=float) >= 0, h, -h)


def check_band_threshold(space: DiscreteSpace, r: float) -> None:
    """Reject a dead zone ``r`` that leaves the outer bands of ``[-h, h]`` no room."""
    if not 0 <= r < space.h:
        raise ValueError(f"threshold must satisfy 0 <= r < h, got r={r} h={space.h}")


def quantize_multilevel(x, space: DiscreteSpace, r: float):
    """Map reals onto the grid through a dead zone and uniform outer bands.

    ``|x| <= r`` maps to 0, as in :func:`quantize_ternary`.  Beyond the dead
    zone, ``(r, h]`` splits into ``2**(n-1)`` equal bands; band ``w`` maps to
    the grid value ``w * dz`` with the sign of ``x``.  Edges between bands
    belong to the higher band, and ``|x| > h`` saturates to the endpoint
    values.  NaN falls in the dead zone (+0.0).
    """
    if space.n < 1:
        raise ValueError("multilevel quantizer requires a grid with n >= 1")
    check_band_threshold(space, r)
    x = np.asarray(x, dtype=float)
    half_levels = 2 ** (space.n - 1)
    band = (space.h - r) / half_levels
    ax = np.abs(x)
    level = np.clip(np.floor((ax - r) / band) + 1, 1, half_levels)
    return np.where(ax > r, np.sign(x) * ((level / half_levels) * space.h), 0.0)


def quantize_activation(x, space: DiscreteSpace, r: float):
    """Grid quantizer used by activation layers; dispatches on the state count.

    Binary grids have no dead zone (``r`` is ignored).  Ternary grids use the
    three-way threshold quantizer, whose window may exceed ``h`` (that is how
    high activation sparsity is reached).  Wider grids use the banded
    multilevel quantizer, which requires ``r < h``.  NaN maps to +0.0 on
    every grid with a dead zone and to ``-h`` on the binary grid.
    """
    if space.n == 0:
        return quantize_binary(x, space.h)
    if space.n == 1:
        q = quantize_ternary(x, r)
        if space.h != 1.0:
            q *= space.h
        return q
    return quantize_multilevel(x, space, r)


def pulse_centers(space: DiscreteSpace, spec: SurrogateSpec) -> np.ndarray:
    """Centers in ``|x|`` of the activation surrogate's pulses, ascending.

    A binary grid has one step, at the sign flip, so its pulse is centered at
    0.  For ``n >= 1`` the centers are the step locations of
    :func:`quantize_multilevel` for the window ``spec.r``: the dead-zone edge
    and the inner edges of the outer bands.
    """
    if space.n == 0:
        return np.zeros(1)
    half_levels = 2 ** (space.n - 1)
    band = (space.h - spec.r) / half_levels
    return spec.r + band * np.arange(half_levels)


def rect_pulse_count(x, space: DiscreteSpace, spec: SurrogateSpec) -> np.ndarray:
    """How many rectangular pulses cover each ``|x|`` (closed intervals; NaN: 0).

    The dtype is the narrowest unsigned one that holds the pulse count.  The
    count times one pulse height ``dz / (2a)`` is the rect surrogate.
    """
    x = np.asarray(x, dtype=float)
    centers = pulse_centers(space, spec)
    count = np.zeros(x.shape, dtype=np.min_scalar_type(len(centers)))
    for c in centers:
        lo, hi = c - spec.a, c + spec.a
        # lo <= |x| <= hi as the union of [lo, hi] and [-hi, -lo], so that no
        # |x| temporary is built.
        inside = x >= lo
        inside &= x <= hi
        mirror = x <= -lo
        mirror &= x >= -hi
        inside |= mirror
        count += inside
    return count


def surrogate_activation(x, space: DiscreteSpace, spec: SurrogateSpec):
    """Surrogate derivative matching :func:`quantize_activation`.

    One pulse in ``|x|`` per quantizer step (see :func:`pulse_centers`),
    each integrating to the step height ``dz``.  A rect pulse is ``dz / (2a)``
    high, so where rect pulses overlap the value is the covering count times
    that height; tri pulses add up in center order, each ramp evaluated only
    where it is nonzero, so a narrow pulse on a wide grid cannot overflow
    far from its center.
    """
    if spec.shape is PulseShape.RECTANGULAR:
        return np.asarray(rect_pulse_count(x, space, spec) * (space.dz / (2.0 * spec.a)))
    ax = np.abs(np.asarray(x, dtype=float))
    a, scale = spec.a, space.dz
    out = np.zeros_like(ax)
    for c in pulse_centers(space, spec):
        rising = (ax >= c - a) & (ax < c)
        falling = (ax >= c) & (ax <= c + a)
        out[rising] += scale * (ax[rising] - (c - a)) / (a * a)
        out[falling] += -scale * (ax[falling] - (c + a)) / (a * a)
    return out


_UNIT_TERNARY = DiscreteSpace(n=1)


def surrogate_rect(x, spec: SurrogateSpec):
    """Rectangular pulse of height ``1/(2a)`` on ``r-a <= |x| <= r+a``."""
    if spec.shape is not PulseShape.RECTANGULAR:
        raise ValueError("spec must be rectangular")
    return surrogate_activation(x, _UNIT_TERNARY, spec)


def surrogate_tri(x, spec: SurrogateSpec):
    """Triangular pulse peaking at ``1/a`` for ``|x| = r``, feet at ``r -/+ a``."""
    if spec.shape is not PulseShape.TRIANGULAR:
        raise ValueError("spec must be triangular")
    return surrogate_activation(x, _UNIT_TERNARY, spec)
