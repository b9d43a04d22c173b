"""Discrete state transition weight updates.

Weights live on a :class:`~gxnor.spaces.DiscreteSpace` grid for the whole of
training; there is no hidden full-precision copy.  Each update takes a real
increment (here produced by Adam), clamps it so the weight cannot leave the
grid range, splits it into whole grid steps plus a fractional remainder, and
resolves the remainder stochastically: with probability ``tanh(m |rem| / dz)``
the weight hops one extra step in the increment's direction.

Only a small fraction of weights can move in a step, so the projection draws
one uniform ``u`` per weight but evaluates the law only where
``u < m |dw| / dz`` or ``|dw| >= dz``.  Elsewhere ``|dw| < dz`` leaves no whole
step, and ``tanh(x) <= x`` keeps the hop probability below ``u``, so those
weights stay put exactly as the full law would leave them (see
:func:`project_transition_array`).

An optimizer step is one flat pass: the gradients are gathered into one vector,
and the Adam moments live in one flat buffer each, of which every tensor's
``m1``/``m2`` is a view updated in place.  The optimizer owns that Adam state:
the moments start at zero, one step count ``t`` serves all its tensors, and the
Adam constants are fixed.  A :class:`DstOptimizer` serves the tensors of one
grid, so the projection is one pass over the flat vector too.  Each tensor
draws from its own counter-based Philox stream, so trajectories do not depend
on update scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spaces import DiscreteSpace

__all__ = [
    "DstHyper",
    "boundary_restrict",
    "transition_law",
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
    """Clamp an increment so ``w + dw`` stays inside ``[-h, h]``.

    Works elementwise on arrays; scalars come back as 0-d arrays.
    """
    w = np.asarray(w, dtype=float)
    dw = np.asarray(dw, dtype=float)
    return np.where(dw >= 0, np.minimum(space.h - w, dw), np.maximum(-space.h - w, dw))


def transition_law(w: np.ndarray, dw: np.ndarray, hyper: DstHyper):
    """Clamp, split and hop probability of increments ``dw`` at grid weights ``w``.

    The clamped increment ``v`` (see :func:`boundary_restrict`) splits into
    whole grid steps and a remainder.  Rounding is toward zero, so
    ``steps * dz + rem == v`` (to float tolerance) with ``|rem| < dz`` and
    ``rem`` carrying the sign of ``v`` (or zero).  The extra one-step hop in
    ``v``'s direction has probability ``prob = tanh(m |rem| / dz)``.

    Returns ``(v, steps, rem, prob)``.
    """
    dz = hyper.space.dz
    v = boundary_restrict(w, dw, hyper.space)
    rem = np.fmod(v, dz)
    steps = np.rint((v - rem) / dz).astype(np.int64)
    prob = np.tanh(hyper.m * np.abs(rem) / dz)
    return v, steps, rem, prob


def _candidates(dw: np.ndarray, u: np.ndarray, hyper: DstHyper) -> np.ndarray:
    """Flat indices of the weights that can move (see :func:`project_transition_array`)."""
    dz = hyper.space.dz
    y = np.abs(dw)
    cand = y >= dz
    y *= hyper.m
    y /= dz
    cand |= u < y
    return cand.ravel().nonzero()[0]


def _land(w: np.ndarray, dw: np.ndarray, u: np.ndarray, idx: np.ndarray, hyper: DstHyper):
    """New grid values and hops of the candidates ``idx`` of ``dw`` and ``u``, at weights ``w``."""
    space = hyper.space
    v, steps, _, prob = transition_law(w, dw.take(idx), hyper)
    hop = u.take(idx) < prob
    k = space.index_of(w) + steps + hop * np.where(v >= 0, 1, -1)
    return space.states()[np.minimum(np.maximum(k, 0), space.num_states - 1)], hop


def project_transition_array(
    w: np.ndarray,
    dw: np.ndarray,
    hyper: DstHyper,
    rng: np.random.Generator,
):
    """Stochastic projection of increments ``dw`` onto the grid from grid weights ``w``.

    Each weight takes its whole steps and then hops once more in ``v``'s
    direction when its uniform draw ``u`` falls below the
    :func:`transition_law` probability.  One ``u`` is drawn per weight, in
    C order, whether or not the weight can move, so the stream consumed per
    call depends only on the shape.

    Returns ``(new_w, moved)``: the new grid weights and where the extra hop
    happened.  New weights are grid members by construction: the update is
    carried out in grid-index space and clipped to the valid index range (the
    clip only ever engages on float-rounding edge cases at the range boundary).

    The law is evaluated only on the candidates ``(u < y) | (|dw| >= dz)``
    with ``y = fl(fl(m |dw|) / dz)``; every other weight keeps its value.
    This is exact.  Any other weight has ``|dw| < dz`` and ``u >= y``.  Its
    clamped ``|v| <= |dw| < dz``, so ``steps = 0`` and ``rem = v``.  Rounding
    is monotone, so ``fl(fl(m |rem|) / dz) <= y``, and ``fl(tanh(x)) <= x``
    for ``x >= 0`` gives ``prob <= y <= u``: no hop, and the weight's index
    stays where it was.  In the 784-200-200-10 MLP at lr = 0.01 on a ternary
    grid, under 1 % of weights are candidates.

    ``w`` and ``dw`` have the same shape and ``w`` holds grid values.  A NaN
    increment is never a candidate, so its weight stays put;
    :class:`DstOptimizer` rejects non-finite gradients and Adam moments before
    they get here.
    """
    w, dw = np.asarray(w, dtype=float), np.asarray(dw, dtype=float)
    new_w, moved = w.copy(), np.zeros(w.shape, dtype=bool)
    tensor = GridParam(new_w, space=hyper.space, rng=rng)
    moved.put(*_project([(tensor, 0, w.size)], dw.ravel(), hyper))
    return new_w, moved


def _project(spans, dw: np.ndarray, hyper: DstHyper):
    """Project flat increments in place: tensor ``p`` of span ``(p, lo, hi)``
    takes ``dw[lo:hi]`` and draws that slice of ``u`` from its own stream.
    Only candidates are read and written (full-size copies raise peak RSS).
    Returns the candidates' flat indices into ``dw`` and whether each hopped."""
    u = np.empty(dw.size)
    for p, lo, hi in spans:
        p.rng.random(out=u[lo:hi])
    idx = _candidates(dw, u, hyper)
    cuts = idx.searchsorted([lo for _, lo, _ in spans] + [dw.size])
    parts = [(p, idx[c:d] - lo) for (p, lo, _), c, d in zip(spans, cuts, cuts[1:])]
    new, hop = _land(np.concatenate([p.value.take(j) for p, j in parts]), dw, u, idx, hyper)
    for (p, j), c, d in zip(parts, cuts, cuts[1:]):
        p.value.put(j, new[c:d])
    return idx, hop


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
    """A full-precision tensor (batch-norm scale/shift); its optimizer makes its Adam moments."""

    value: np.ndarray
    grad: np.ndarray | None = None
    m1: np.ndarray | None = field(init=False, default=None)
    m2: np.ndarray | None = field(init=False, default=None)


@dataclass(kw_only=True)
class GridParam(RealParam):
    """A grid-valued weight tensor plus its grid and its RNG stream."""

    space: DiscreteSpace
    rng: np.random.Generator


class AdamOptimizer:
    """Bias-corrected Adam at its published constants (Kingma & Ba, 2015);
    full-precision parameters add the increment as is."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: list[RealParam], lr: float = 0.01):
        self.params = params
        self.lr = lr
        self.t = 0
        ends = np.cumsum([0] + [p.value.size for p in params]).tolist()
        self._spans = list(zip(params, ends, ends[1:]))
        # Zeroed pages are only touched by the first step.
        self._m1, self._m2 = np.zeros(ends[-1]), np.zeros(ends[-1])
        for p, lo, hi in self._spans:
            p.m1, p.m2 = (m[lo:hi].reshape(p.value.shape) for m in (self._m1, self._m2))

    def step(self) -> None:
        if not self.params:
            return
        self.t += 1
        grads = np.concatenate([p.grad for p in self.params], axis=None)
        self._apply(self._increment(grads))

    def _increment(self, g: np.ndarray) -> np.ndarray:
        """Update the moments in place and return the increment; the flat
        gradient ``g`` and one scratch array hold every temporary in turn."""
        dw = np.multiply(g, 1.0 - self.BETA1)
        self._m1 *= self.BETA1
        self._m1 += dw
        np.square(g, out=g)
        g *= 1.0 - self.BETA2
        self._m2 *= self.BETA2
        self._m2 += g
        np.divide(self._m1, 1.0 - self.BETA1**self.t, out=dw)
        dw *= -self.lr
        np.divide(self._m2, 1.0 - self.BETA2**self.t, out=g)
        np.sqrt(g, out=g)
        g += self.EPS
        dw /= g
        return dw

    def _apply(self, dw: np.ndarray) -> None:
        for p, lo, hi in self._spans:
            p.value = p.value + dw[lo:hi].reshape(p.value.shape)


class DstOptimizer(AdamOptimizer):
    """Adam increments projected stochastically onto the one grid its tensors share."""

    def __init__(self, params: list[GridParam], m: float = 3.0, lr: float = 0.01):
        if not m > 0:
            raise ValueError(f"transition factor must be positive, got {m}")
        grids = {p.space for p in params}
        if len(grids) > 1:
            raise ValueError(f"the tensors of one DST optimizer must share one grid, got {grids}")
        super().__init__(params, lr)
        self._hyper = DstHyper(grids.pop(), m) if grids else None

    def _apply(self, dw: np.ndarray) -> None:
        # A finite second moment implies a finite increment.  The converse
        # fails: a gradient of 1e160 squares to an infinite m2, and every later
        # increment of that weight is then 0, freezing it without a trace.
        if not np.isfinite(self._m2).all():
            i, p = next((i, p) for i, p in enumerate(self.params)
                        if not np.isfinite(p.m2).all())
            raise ValueError(
                f"non-finite DST increment for grid tensor {i} of shape {p.value.shape}"
                " (its gradient or Adam second moment is not finite)")
        _project(self._spans, dw, self._hyper)
