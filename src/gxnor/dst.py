"""Discrete state transition weight updates.

Weights live on a :class:`~gxnor.spaces.DiscreteSpace` grid for the whole of
training; there is no hidden full-precision copy.  Each update takes a real
increment (here produced by Adam), clamps it so the weight cannot leave the
grid range, splits it into whole grid steps plus a fractional remainder, and
resolves the remainder stochastically: with probability ``tanh(m |rem| / dz)``
the weight hops one extra step in the increment's direction.

Only a small fraction of weights can move in a step.  The projection draws
one uniform ``u`` per weight, in C order, for every weight, but computes the
increment and evaluates the law only on a superset of the weights that can
move, picked by one bound compare

    fl(fl(u * root) * scale) < mag

For an increment given outright, ``mag = |dw|`` and ``root = 1``.
:class:`DstOptimizer` reads the bound straight off its Adam moments,
``mag = |m1|`` and ``root = sqrt(m2)``, and finishes the increment only on
the weights it selects.  ``scale = c1 dz / (M s lr sqrt(c2))`` with
``M = max(m, 1)``, ``c1 = 1 - beta1**t``, ``c2 = 1 - beta2**t`` and the slack
``s = 1 + 2**-20`` (``lr = c1 = c2 = 1`` for an outright increment).  The
selection is exact: a weight moves only if ``|dw| >= dz`` or
``u < fl(fl(m |dw|) / dz)`` (see :func:`project_transition_array`), and
since ``|dw| <= lr |m1| sqrt(c2) / (c1 sqrt(m2))`` such a weight has
``u < M |dw| / dz <= mag / (root scale)`` up to rounding, which the slack
covers.  A weight with ``m1 = 0`` has an increment of +-0 and is never
selected.  :func:`_project` gives the proof, rounding and underflow
included.  Every operation is elementwise IEEE arithmetic, so an increment
computed on the superset has the same bits as on the full array, and the
superset's other weights stay put, exactly as the full law leaves them.

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

import math
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


# The bound's slack, and the limits that keep its proof inside the normal
# float range (see _project).
_SLACK = 1.0 + 2.0**-20
_RANGE = 2.0**960
_MAX_SCALE = 2.0**400


def _bound_scale(hyper: DstHyper, lr: float, correction: float) -> float:
    """The ``scale`` of :func:`_candidates` for increments bounded by
    ``|dw| <= lr mag / (correction root)``: ``dz correction / (M s lr)``,
    capped at ``2**400``.  Where ``(lr + 1) M / dz > 2**960`` it is 0.0, which
    selects every weight with ``mag != 0``.  Lowering ``scale`` only adds
    weights, so the cap and the 0.0 keep the selection a superset."""
    big_m = max(hyper.m, 1.0)
    if not big_m * (lr + 1.0) <= _RANGE * hyper.space.dz:
        return 0.0
    return min(hyper.space.dz * (correction / (big_m * _SLACK)) / lr, _MAX_SCALE)


def _candidates(u: np.ndarray, x: np.ndarray, scale: float, root=None) -> np.ndarray:
    """Flat indices where ``fl(fl(u root) scale) < mag`` with ``mag = |x|``, a
    superset of the weights that can move (see :func:`_project`); ``root``
    (1 when None) is overwritten."""
    # |x| and the compare take fresh arrays, not a caller's scratch: peak RSS
    # follows the heap layout that a step's full-size allocations leave, and
    # |m1| written into scratch left the MNIST MLP's heap 18 MB larger.
    mag = np.abs(x)
    if root is None:
        bound = np.multiply(u, scale)
    else:
        bound = root
        bound *= u
        bound *= scale
    hit = np.less(bound, mag)
    return hit.ravel().nonzero()[0]


def _land(w: np.ndarray, dw: np.ndarray, u: np.ndarray, hyper: DstHyper):
    """New grid values and hops of weights ``w`` under increments ``dw`` and draws ``u``."""
    space = hyper.space
    v, steps, _, prob = transition_law(w, dw, hyper)
    hop = u < prob
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

    A weight can move only if it is a candidate, ``|dw| >= dz`` or
    ``u < y`` with ``y = fl(fl(m |dw|) / dz)``; every other weight keeps its
    value.  Any other weight has ``|dw| < dz`` and ``u >= y``.  Its clamped
    ``|v| <= |dw| < dz``, so ``steps = 0`` and ``rem = v``.  Rounding is
    monotone, so ``fl(fl(m |rem|) / dz) <= y``, and ``fl(tanh(x)) <= x`` for
    ``x >= 0`` gives ``prob <= y <= u``: no hop, and the weight's index stays
    where it was.  So the law is evaluated only on a superset of the
    candidates (see :func:`_project`), which has ``mag = |dw|`` here.  In
    the 784-200-200-10 MLP at lr = 0.01 on a ternary grid, a step selects
    3 % of the weights at t = 1 and well under 1 % after the first few.

    ``w`` and ``dw`` have the same shape and ``w`` holds grid values.  A NaN
    increment is never selected, so its weight stays put;
    :class:`DstOptimizer` rejects non-finite gradients and Adam moments before
    they get here.
    """
    w, dw = np.asarray(w, dtype=float), np.asarray(dw, dtype=float)
    new_w, moved = w.copy(), np.zeros(w.shape, dtype=bool)
    tensor = GridParam(new_w, space=hyper.space, rng=rng)
    flat = dw.ravel()
    moved.put(*_project([(tensor, 0, w.size)], flat, None,
                        _bound_scale(hyper, 1.0, 1.0), flat.take, hyper))
    return new_w, moved


def _project(spans, x: np.ndarray, root, scale: float, increment, hyper: DstHyper):
    """Project flat increments in place: tensor ``p`` of span ``(p, lo, hi)``
    draws the slice ``u[lo:hi]`` from its own stream.  The weights that
    :func:`_candidates` selects from ``u``, ``mag = |x|``, ``scale`` and
    ``root`` take ``increment(idx)`` at their flat indices ``idx`` and land; no other
    weight is read or written (full-size copies raise peak RSS).  Returns
    ``idx`` and whether each weight hopped.

    The selection holds every candidate of :func:`project_transition_array`
    whenever ``|dw| <= lr mag / (correction root)`` in real arithmetic on the
    float inputs, where ``scale = _bound_scale(hyper, lr, correction)`` and
    the increment is either ``mag`` itself (``lr = correction = 1``, no
    ``root``) or Adam's ``fl(fl(fl(m1 / c1) * -lr) / d)`` with
    ``d = fl(fl(sqrt(fl(m2 / c2))) + eps)``, ``mag = |m1|``,
    ``root = fl(sqrt(m2))`` and ``correction = c1 / sqrt(c2)``.  Proof, for
    a weight not selected, so ``S = fl(fl(u root) scale) >= mag``; with
    ``e = 2**-53``, a rounding ``fl(x)`` lies within ``x (1 +- e)`` or, below
    ``2**-1022``, within ``2**-1075`` of ``x``:

    * ``mag = 0``: the increment is +-0, so ``|dw| < dz`` and ``y = 0 <= u``.
    * Otherwise ``S > 0``, so ``u > 0`` and ``root > 0``.  NumPy's uniform
      doubles are multiples of ``2**-53``, and a nonzero ``sqrt(m2)`` is at
      least ``2**-537``, so ``fl(u root)`` is normal and below ``2**512``.
      :func:`_bound_scale` rounds six times on normal operands while
      ``(lr + 1) M / dz <= 2**960``, so ``scale <= scale_r (1 + 7e)`` for the
      real ``scale_r``; the cap and the 0.0 only lower it.  Hence ``S`` is
      finite and ``mag <= u sqrt(m2) scale_r (1 + e)**10 + 2**-1075``.
    * Adam's ``d`` is at least ``eps`` and at least
      ``sqrt(m2 / c2) (1 - e)**2``, and its increment rounds four times:
      ``|dw| <= lr mag / (c1 d) (1 + e)**3 + 2**-1075 (lr + 2) (1 + e)**2 /
      eps``.  Taking the first ``d`` bound for the ``u`` term of ``mag`` and
      ``d >= eps`` with ``c1 >= 0.1`` for the rest gives
      ``|dw| <= u dz / (M s) (1 + e)**16 + 2**-1044 (lr + 1)``.  An
      outright increment gives the same.
    * ``y = fl(fl(m |dw|) / dz) <= m |dw| / dz (1 + e)**2 + 2**-1074 (1 + 1 /
      dz)``.  With ``m / M <= 1``, ``(1 + e)**18 / s <= 1 - 2**-21``,
      ``u >= 2**-53`` and ``(lr + 1) M / dz <= 2**960``:
      ``y <= u (1 - 2**-21) + 2**-82 < u``, and likewise
      ``|dw| / dz <= u (1 - 2**-21) / M + 2**-84 < 1``.

    So the weight is no candidate.  Beyond ``2**960`` the scale is 0 and only
    ``mag = 0`` is left out, which the first case covers.  The law never
    moves a NaN increment (Adam's ``inf / inf``), so the selection drops it.
    """
    u = np.empty(x.size)
    for p, lo, hi in spans:
        p.rng.random(out=u[lo:hi])
    idx = _candidates(u, x, scale, root)
    dw = increment(idx)
    if np.isnan(dw).any():
        # Adam's inf / inf: the law leaves a NaN increment's weight in place.
        keep = ~np.isnan(dw)
        idx, dw = idx[keep], dw[keep]
    cuts = idx.searchsorted([lo for _, lo, _ in spans] + [x.size])
    parts = [(p, idx[c:d] - lo) for (p, lo, _), c, d in zip(spans, cuts, cuts[1:])]
    new, hop = _land(np.concatenate([p.value.take(j) for p, j in parts]),
                     dw, u.take(idx), hyper)
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
        dw, g = self._moments()
        self._increment(self._m1, self._m2, dw, g)
        for p, lo, hi in self._spans:
            p.value = p.value + dw[lo:hi].reshape(p.value.shape)

    def _moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Count the step and update the moments in place from the gathered
        gradients; returns two flat scratch arrays for the caller to reuse."""
        self.t += 1
        g = np.concatenate([p.grad for p in self.params], axis=None)
        dw = np.multiply(g, 1.0 - self.BETA1)
        self._m1 *= self.BETA1
        self._m1 += dw
        np.square(g, out=g)
        g *= 1.0 - self.BETA2
        self._m2 *= self.BETA2
        self._m2 += g
        return dw, g

    def _increment(self, m1, m2, dw: np.ndarray, den: np.ndarray) -> np.ndarray:
        """Write the increment of moments ``m1`` and ``m2`` into ``dw``, with
        ``den`` as scratch; ``dw`` and ``den`` may be ``m1`` and ``m2``."""
        np.divide(m1, 1.0 - self.BETA1**self.t, out=dw)
        dw *= -self.lr
        np.divide(m2, 1.0 - self.BETA2**self.t, out=den)
        np.sqrt(den, out=den)
        den += self.EPS
        dw /= den
        return dw


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

    def step(self) -> None:
        if not self.params:
            return
        # Both scratch arrays live until the step ends, for the heap layout
        # that _candidates notes; g takes sqrt(m2).
        _, g = self._moments()
        # A gradient of 1e160 squares to an infinite m2, and every later
        # increment of that weight would be 0, freezing it without a trace.
        if not np.isfinite(self._m2).all():
            i, p = next((i, p) for i, p in enumerate(self.params)
                        if not np.isfinite(p.m2).all())
            raise ValueError(
                f"non-finite DST increment for grid tensor {i} of shape {p.value.shape}"
                " (its gradient or Adam second moment is not finite)")
        c1, c2 = 1.0 - self.BETA1**self.t, 1.0 - self.BETA2**self.t
        scale = _bound_scale(self._hyper, self.lr, c1 / math.sqrt(c2))

        def increment(idx):
            m1, m2 = self._m1.take(idx), self._m2.take(idx)
            return self._increment(m1, m2, m1, m2)

        _project(self._spans, self._m1, np.sqrt(self._m2, out=g), scale, increment,
                 self._hyper)
