"""Discrete state transition weight updates.

Weights live on a :class:`~gxnor.spaces.DiscreteSpace` grid for the whole of
training; there is no hidden full-precision copy.  Each update takes a real
increment (here produced by Adam), clamps it so the weight cannot leave the
grid range, splits it into whole grid steps plus a fractional remainder, and
resolves the remainder stochastically: with probability ``tanh(m |rem| / dz)``
the weight hops one extra step in the increment's direction.

Randomness comes from counter-based Philox streams so trajectories are
reproducible per seed regardless of update scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spaces import DiscreteSpace

__all__ = [
    "DstHyper",
    "boundary_restrict",
    "project_transition_array",
    "lr_schedule",
    "GridParam",
    "RealParam",
    "DstOptimizer",
    "AdamOptimizer",
    "param_stream",
]


@dataclass
class DstHyper:
    """The grid a projection lands on and its transition factor ``m``."""

    space: DiscreteSpace
    m: float = 3.0


def boundary_restrict(w, dw, space: DiscreteSpace):
    """Clamp an increment so ``w + dw`` stays inside ``[-h, h]``."""
    w = np.asarray(w, dtype=float)
    dw = np.asarray(dw, dtype=float)
    out = np.where(dw >= 0, np.minimum(space.h - w, dw), np.maximum(-space.h - w, dw))
    return out if out.ndim else float(out)


def project_transition_array(
    w: np.ndarray,
    dw: np.ndarray,
    hyper: DstHyper,
    rng: np.random.Generator,
):
    """Vectorized stochastic projection of increments onto the grid.

    The clamped increment ``v`` splits into whole grid steps and a remainder.
    Rounding is toward zero, so ``steps * dz + rem == v`` (to float tolerance)
    with ``|rem| < dz`` and ``rem`` carrying the sign of ``v`` (or zero).  The
    extra one-step hop in ``v``'s direction has probability
    ``tanh(m |rem| / dz)``.

    Returns ``(new_w, steps, rem, prob, moved_extra)``.  New weights are grid
    members by construction: the update is carried out in grid-index space and
    clipped to the valid index range (the clip only ever engages on
    float-rounding edge cases at the range boundary).
    """
    space = hyper.space
    dz = space.dz
    v = boundary_restrict(w, dw, space)
    rem = np.fmod(v, dz)
    steps = np.rint((v - rem) / dz).astype(np.int64)
    prob = np.tanh(hyper.m * np.abs(rem) / dz)
    moved = rng.random(np.shape(v)) < prob
    direction = np.where(v >= 0, 1, -1)
    idx = space.index_of(w) + steps + moved * direction
    new_w = space.states()[np.clip(idx, 0, space.num_states - 1)]
    return new_w, steps, rem, prob, moved


def lr_schedule(lr_start: float, lr_fin: float, epochs: int) -> float:
    """Per-epoch decay multiplier taking ``lr_start`` to ``lr_fin`` in ``epochs``."""
    if not (lr_start > 0 and lr_fin > 0):
        raise ValueError("learning rates must be positive")
    if epochs < 1:
        raise ValueError(f"epoch count must be positive, got {epochs}")
    return (lr_fin / lr_start) ** (1.0 / epochs)


def param_stream(seed: int, layer_index: int) -> np.random.Generator:
    """Counter-based Philox stream for one parameter tensor.

    Keyed by ``(seed, layer_index)`` so trajectories do not depend on how many
    other tensors exist or in what order they update.
    """
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(layer_index,))
    return np.random.Generator(np.random.Philox(seq))


@dataclass
class RealParam:
    """A full-precision parameter tensor (batch-norm scale/shift) with Adam accumulators."""

    value: np.ndarray
    grad: np.ndarray | None = None
    m1: np.ndarray = field(init=False)
    m2: np.ndarray = field(init=False)
    step: int = 0

    def __post_init__(self) -> None:
        self.m1 = np.zeros_like(self.value)
        self.m2 = np.zeros_like(self.value)


@dataclass(kw_only=True)
class GridParam(RealParam):
    """A grid-valued weight tensor plus its grid and its RNG stream."""

    space: DiscreteSpace
    rng: np.random.Generator


class AdamOptimizer:
    """Bias-corrected Adam; full-precision parameters add the increment as is."""

    def __init__(self, params: list[RealParam], lr: float = 0.01,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if not (0 < beta1 < 1 and 0 < beta2 < 1):
            raise ValueError("Adam decay rates must lie strictly inside (0, 1)")
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps

    def step(self) -> None:
        for p in self.params:
            p.step += 1
            p.m1 = self.beta1 * p.m1 + (1.0 - self.beta1) * p.grad
            p.m2 = self.beta2 * p.m2 + (1.0 - self.beta2) * np.square(p.grad)
            # The bias-corrected moments are temporaries of one expression, so
            # they are freed before the increment is applied.
            dw = -self.lr * (p.m1 / (1.0 - self.beta1**p.step)) / (
                np.sqrt(p.m2 / (1.0 - self.beta2**p.step)) + self.eps)
            self._apply(p, dw)

    def _apply(self, p: RealParam, dw: np.ndarray) -> None:
        p.value = p.value + dw


class DstOptimizer(AdamOptimizer):
    """Adam increments projected stochastically onto each tensor's grid."""

    def __init__(self, params: list[GridParam], m: float = 3.0, lr: float = 0.01,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if not m > 0:
            raise ValueError(f"transition factor must be positive, got {m}")
        super().__init__(params, lr, beta1, beta2, eps)
        self.m = m

    def _apply(self, p: GridParam, dw: np.ndarray) -> None:
        p.value, *_ = project_transition_array(p.value, dw, DstHyper(p.space, self.m), p.rng)
