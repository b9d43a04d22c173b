"""Stochastic grid transitions and their Adam front end."""

import math
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gxnor.dst
from gxnor.dst import (
    AdamOptimizer,
    DstHyper,
    DstOptimizer,
    GridParam,
    RealParam,
    boundary_restrict,
    lr_schedule,
    param_stream,
    project_transition_array,
    transition_law,
)
from gxnor.spaces import make_space

TERNARY = make_space(1, 1.0)
HYPER = DstHyper(space=TERNARY, m=3.0)


def project_one(w, dw, hyper=HYPER, rng=None):
    """One weight's law and projection: ``(new_w, steps, rem, prob, moved)`` as scalars."""
    rng = np.random.default_rng(0) if rng is None else rng
    w, dw = np.array([w], dtype=float), np.array([dw], dtype=float)
    _, steps, rem, prob = transition_law(w, dw, hyper)
    new_w, moved = project_transition_array(w, dw, hyper, rng)
    return float(new_w[0]), int(steps[0]), float(rem[0]), float(prob[0]), bool(moved[0])


def dense_projection(w, dw, hyper, rng):
    """Reference projection: the law evaluated on every weight, no candidate filter."""
    space = hyper.space
    dz = space.dz
    v = np.where(dw >= 0, np.minimum(space.h - w, dw), np.maximum(-space.h - w, dw))
    rem = np.fmod(v, dz)
    steps = np.rint((v - rem) / dz).astype(np.int64)
    prob = np.tanh(hyper.m * np.abs(rem) / dz)
    moved = rng.random(np.shape(v)) < prob
    idx = space.index_of(w) + steps + moved * np.where(v >= 0, 1, -1)
    return space.states()[np.clip(idx, 0, space.num_states - 1)], moved


def dense_dst_steps(values, grads, space, m, lr, seed, beta1=0.9, beta2=0.999, eps=1e-8,
                    project=dense_projection):
    """Reference DST training: Adam moments rebuilt each step and the full
    increment, then ``project`` (dense by default), one tensor at a time,
    every tensor on the grid ``space``.  Yields the values and moments after
    each step."""
    rngs = [param_stream(seed, i) for i in range(len(values))]
    values = [v.copy() for v in values]
    m1 = [np.zeros_like(v) for v in values]
    m2 = [np.zeros_like(v) for v in values]
    for step, step_grads in enumerate(grads, start=1):
        for i, g in enumerate(step_grads):
            m1[i] = beta1 * m1[i] + (1.0 - beta1) * g
            m2[i] = beta2 * m2[i] + (1.0 - beta2) * np.square(g)
            dw = -lr * (m1[i] / (1.0 - beta1**step)) / (
                np.sqrt(m2[i] / (1.0 - beta2**step)) + eps)
            values[i], _ = project(values[i], dw, DstHyper(space, m), rngs[i])
        yield values, m1, m2


def dense_dst_run(*args, **kwargs):
    """The values and moments after the last step of :func:`dense_dst_steps`."""
    *_, last = dense_dst_steps(*args, **kwargs)
    return last


def split(v, dz):
    """Steps and remainder of an increment ``v`` applied at ``w = 0``.

    The grid spans ``[-1024, 1024]`` so the boundary never clips ``|v| <= 1000``.
    """
    space = make_space(int(math.log2(1024.0 / dz)) + 1, 1024.0)
    assert space.dz == dz
    _, steps, rem, _, _ = project_one(0.0, v, DstHyper(space=space, m=3.0))
    return steps, rem


def adam_increments(grads, **kwargs):
    """Adam's real increment for each gradient in turn, on one scalar parameter.

    The value is reset to zero before each step, so it then reads the increment
    exactly.
    """
    p = RealParam(value=np.zeros(1))
    opt = AdamOptimizer([p], **kwargs)
    out = []
    for g in grads:
        p.value = np.zeros(1)
        p.grad = np.array([g])
        opt.step()
        out.append(float(p.value[0]))
    return out


class TestBoundaryRestrict:
    def test_clamps_positive_overshoot(self):
        assert boundary_restrict(1.0, 0.5, TERNARY) == 0.0

    def test_clamps_negative_overshoot(self):
        assert boundary_restrict(-1.0, -0.2, TERNARY) == 0.0

    def test_interior_untouched(self):
        assert boundary_restrict(0.0, 0.7, TERNARY) == 0.7

    @given(w=st.sampled_from([-1.0, 0.0, 1.0]),
           dw=st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_never_leaves_range(self, w, dw):
        v = boundary_restrict(w, dw, TERNARY)
        assert -1.0 <= w + v <= 1.0
        assert abs(v) <= abs(dw)


class TestDecompose:
    def test_basic(self):
        steps, rem = split(1.7, 1.0)
        assert steps == 1 and abs(rem - 0.7) < 1e-12

    def test_negative_keeps_sign(self):
        steps, rem = split(-1.3, 1.0)
        assert steps == -1 and abs(rem + 0.3) < 1e-12

    def test_non_unit_step(self):
        steps, rem = split(0.6, 0.5)
        assert steps == 1 and abs(rem - 0.1) < 1e-12

    @given(v=st.floats(min_value=-1000, max_value=1000, allow_nan=False),
           dz=st.sampled_from([2.0, 1.0, 0.5, 0.03125, 0.25]))
    def test_reconstruction_identity(self, v, dz):
        steps, rem = split(v, dz)
        assert abs(steps * dz + rem - v) < 1e-9
        assert abs(rem) < dz
        assert rem == 0 or math.copysign(1, rem) == math.copysign(1, v)

    def test_rejects_bad_spacing(self):
        # dz = h / 2**(n - 1), so a grid with a non-positive spacing cannot be built.
        for h in (0.0, -1.0):
            with pytest.raises(ValueError):
                make_space(1, h)


class TestTransitionProbability:
    def test_zero_remainder(self):
        assert project_one(0.0, 0.0)[3] == 0.0
        assert project_one(-1.0, 1.0)[3] == 0.0

    def test_saturating_value(self):
        # independently: tanh(3) = (e^6 - 1) / (e^6 + 1)
        want = (math.exp(6) - 1) / (math.exp(6) + 1)
        assert abs(project_one(0.0, 0.999999999)[3] - want) < 1e-8

    def test_even_in_remainder(self):
        assert project_one(0.0, -0.5)[3] == project_one(0.0, 0.5)[3]

    @given(rem=st.floats(min_value=-0.999, max_value=0.999))
    def test_range(self, rem):
        tau = project_one(0.0, rem)[3]
        assert 0.0 <= tau < 1.0


class TestProjectTransition:
    def test_boundary_is_absorbing(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            w, _, _, prob, moved = project_one(-1.0, -5.0, rng=rng)
            assert w == -1.0 and prob == 0.0 and not moved

    def test_zero_increment_is_fixpoint(self):
        rng = np.random.default_rng(1)
        for w0 in (-1.0, 0.0, 1.0):
            w, steps, rem, _, _ = project_one(w0, 0.0, rng=rng)
            assert w == w0 and steps == 0 and rem == 0.0

    def test_downhill_hop_frequency(self):
        # from 0 with dw = -0.4: lands on -1 with probability tanh(3 * 0.4)
        tau = math.tanh(1.2)
        trials = 10**5
        new_w, *_ = project_transition_array(
            np.zeros(trials), np.full(trials, -0.4), HYPER, np.random.default_rng(2))
        freq = float((new_w == -1.0).mean())
        assert abs(freq - tau) < 4 * math.sqrt(tau * (1 - tau) / trials)

    def test_whole_step_plus_remainder(self):
        # from -1 with dw = 1.5: one certain step, then +1 more w.p. tanh(1.5)
        tau = math.tanh(1.5)
        trials = 10**5
        w, dw = np.full(trials, -1.0), np.full(trials, 1.5)
        _, steps, _, prob = transition_law(w, dw, HYPER)
        new_w, _ = project_transition_array(w, dw, HYPER, np.random.default_rng(3))
        assert np.all(steps == 1)
        assert np.allclose(prob, tau)
        assert set(np.unique(new_w)) == {0.0, 1.0}
        freq = float((new_w == 1.0).mean())
        assert abs(freq - tau) < 4 * math.sqrt(tau * (1 - tau) / trials)

    def test_expected_move_matches_probability_weights(self):
        trials = 10**5
        w0, dw = 0.0, 0.6
        hyper = DstHyper(space=TERNARY, m=3.0)
        w, inc = np.full(trials, w0), np.full(trials, dw)
        _, steps, _, prob = transition_law(w, inc, hyper)
        new_w, _ = project_transition_array(w, inc, hyper, np.random.default_rng(4))
        tau = float(prob[0])
        expected = steps[0] * TERNARY.dz + tau * TERNARY.dz
        sem = TERNARY.dz * math.sqrt(tau * (1 - tau) / trials)
        assert abs(float((new_w - w0).mean()) - expected) < 4 * sem

    @pytest.mark.parametrize("n", [0, 1, 2, 4, 6])
    def test_grid_closure(self, n):
        space = make_space(n, 1.0)
        hyper = DstHyper(space=space, m=3.0)
        rng = np.random.default_rng(5)
        w = space.states()[rng.integers(0, space.num_states, 10**5)]
        dw = rng.normal(0, 1, 10**5) * rng.choice([1e-3, 1.0, 1e3], 10**5)
        new_w, *_ = project_transition_array(w, dw, hyper, rng)
        assert np.isin(new_w, space.states()).all()

    def test_scalar_event_fields(self):
        w, steps, rem, prob, moved = project_one(-1.0, 1.7, rng=np.random.default_rng(6))
        assert steps == 1
        assert abs(rem - 0.7) < 1e-12
        assert abs(prob - math.tanh(3.0 * rem)) < 1e-15
        assert w == (1.0 if moved else 0.0)

    def test_scalar_event_boundary_restriction(self):
        # From w=0 the increment 1.7 is capped at 1.0, leaving no remainder.
        w, steps, rem, prob, moved = project_one(0.0, 1.7, rng=np.random.default_rng(6))
        assert (steps, rem, prob, moved) == (1, 0.0, 0.0, False)
        assert w == 1.0

    def test_determinism_across_runs(self):
        a1, *_ = project_transition_array(
            np.zeros(1000), np.full(1000, 0.4), HYPER, param_stream(9, 0))
        a2, *_ = project_transition_array(
            np.zeros(1000), np.full(1000, 0.4), HYPER, param_stream(9, 0))
        assert np.array_equal(a1, a2)
        b, *_ = project_transition_array(
            np.zeros(1000), np.full(1000, 0.4), HYPER, param_stream(9, 1))
        assert not np.array_equal(a1, b)


@st.composite
def projection_cases(draw):
    """Grid weights (often at +-H) and increments from 1e-3 to 1e3 in size, with +-inf."""
    space = make_space(draw(st.sampled_from([0, 1, 2, 4, 6])),
                       draw(st.sampled_from([1.0, 0.7, 0.3])))
    m = draw(st.floats(min_value=0.1, max_value=10.0))
    size = draw(st.integers(min_value=0, max_value=64))
    top = space.num_states - 1
    index = st.one_of(st.sampled_from([0, top]), st.integers(min_value=0, max_value=top))
    magnitude = st.one_of(st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e),
                          st.sampled_from([0.0, math.inf]))
    signed = st.tuples(magnitude, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])
    w = space.states()[draw(st.lists(index, min_size=size, max_size=size))]
    dw = np.array(draw(st.lists(signed, min_size=size, max_size=size)), dtype=float)
    return DstHyper(space=space, m=m), w, dw, draw(st.integers(min_value=0, max_value=2**32 - 1))


class TestCandidateFilter:
    """The projection evaluates the law only where a weight can move; it must
    still equal the law evaluated everywhere, draw for draw."""

    @staticmethod
    def assert_same(got, want):
        (new_w, moved), (ref_w, ref_moved) = got, want
        assert np.array_equal(new_w, ref_w)
        assert np.array_equal(np.signbit(new_w), np.signbit(ref_w))
        assert np.array_equal(moved, ref_moved)

    @settings(deadline=None)
    @given(case=projection_cases())
    def test_matches_dense_projection(self, case):
        hyper, w, dw, seed = case
        self.assert_same(
            project_transition_array(w, dw, hyper, np.random.Generator(np.random.Philox(seed))),
            dense_projection(w, dw, hyper, np.random.Generator(np.random.Philox(seed))))

    @pytest.mark.parametrize("n", [0, 1, 2, 4, 6])
    def test_matches_dense_projection_on_many_weights(self, n):
        space = make_space(n, 0.7)
        g = np.random.default_rng(40 + n)
        w = space.states()[g.integers(0, space.num_states, (500, 400))]
        dw = g.choice([-1.0, 1.0], w.shape) * 10.0 ** g.uniform(-3, 3, w.shape)
        for m in (0.3, 3.0):
            hyper = DstHyper(space=space, m=m)
            self.assert_same(project_transition_array(w, dw, hyper, param_stream(8, n)),
                             dense_projection(w, dw, hyper, param_stream(8, n)))

    def test_tanh_never_exceeds_its_argument(self):
        # A weight with u >= fl(fl(m |dw|) / dz) is skipped because fl(tanh(y)) <= y.
        # If this platform's tanh broke that bound, skipped weights could have hopped.
        y = np.logspace(-300, 1, 300001)
        assert np.all(np.tanh(y) <= y)

    def test_nan_increment_leaves_weight_in_place(self):
        new_w, moved = project_transition_array(
            np.array([-1.0, 0.0, 1.0]), np.full(3, np.nan), HYPER, np.random.default_rng(0))
        assert np.array_equal(new_w, [-1.0, 0.0, 1.0]) and not moved.any()


class TestAdam:
    def test_zero_gradient(self):
        assert adam_increments([0.0]) == [0.0]

    def test_degenerate_is_sign_sgd(self, monkeypatch):
        monkeypatch.setattr(AdamOptimizer, "BETA1", 1e-12)
        monkeypatch.setattr(AdamOptimizer, "BETA2", 1e-12)
        for g in (0.3, -2.0, 11.0):
            (dw,) = adam_increments([g], lr=0.01)
            assert abs(dw + 0.01 * math.copysign(1, g)) < 1e-6

    def test_constant_gradient_approaches_lr(self):
        # hand-stepped oracle over 5 iterations
        lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
        g = 0.37
        got = adam_increments([g] * 5, lr=lr)
        m1 = m2 = 0.0
        for step, dw in enumerate(got, start=1):
            m1 = beta1 * m1 + (1 - beta1) * g
            m2 = beta2 * m2 + (1 - beta2) * g * g
            want = -lr * (m1 / (1 - beta1**step)) / (math.sqrt(m2 / (1 - beta2**step)) + eps)
            assert abs(dw - want) < 1e-15
        assert abs(got[-1] + lr) < 1e-3


class TestLrSchedule:
    def test_two_epochs(self):
        assert abs(lr_schedule(1e-2, 1e-4, 2) - 0.1) < 1e-15

    def test_constant(self):
        assert lr_schedule(0.05, 0.05, 17) == 1.0

    def test_reaches_target(self):
        alpha = lr_schedule(1e-3, 1e-5, 20)
        lr = 1e-3
        for _ in range(20):
            lr *= alpha
        assert abs(lr - 1e-5) / 1e-5 < 1e-9

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            lr_schedule(0.0, 1e-4, 5)
        with pytest.raises(ValueError):
            lr_schedule(1e-2, 1e-4, 0)


@settings(deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63),
       sizes=st.lists(st.integers(min_value=0, max_value=40).map(lambda k: 2 * k + 1),
                      min_size=1, max_size=6))
def test_draws_into_slices_of_one_array_equal_draws_per_tensor(seed, sizes):
    # DstOptimizer fills each tensor's slice of one flat draw array from the
    # tensor's own stream; odd lengths leave Philox mid-block between calls.
    ends = np.cumsum([0] + sizes)
    flat = np.empty(ends[-1])
    streams = [np.random.Generator(np.random.Philox(seed)) for _ in range(2)]
    for a, b in zip(ends, ends[1:]):
        streams[0].random(out=flat[a:b])
    per_tensor = [streams[1].random(n) for n in sizes]
    assert flat.tobytes() == np.concatenate(per_tensor).tobytes()


class TestOptimizers:
    def test_grid_optimizer_keeps_weights_on_grid(self):
        space = make_space(2, 1.0)
        rng = param_stream(3, 0)
        p = GridParam(value=space.states()[rng.integers(0, 5, (8, 8))], space=space, rng=rng)
        opt = DstOptimizer([p], lr=0.05)
        g_rng = np.random.default_rng(4)
        for _ in range(50):
            p.grad = g_rng.normal(0, 1, p.value.shape)
            opt.step()
            assert np.isin(p.value, space.states()).all()

    def test_adam_optimizer_moves_against_gradient(self):
        p = RealParam(value=np.zeros(4))
        opt = AdamOptimizer([p], lr=0.1)
        for _ in range(20):
            p.grad = np.array([1.0, -1.0, 2.0, -0.5])
            opt.step()
        assert np.all(p.value[[0, 2]] < 0) and np.all(p.value[[1, 3]] > 0)

    def test_grid_and_real_params_share_adam_moments(self):
        grid = GridParam(value=np.zeros(5), space=TERNARY, rng=param_stream(2, 0))
        real = RealParam(value=np.zeros(5))
        dst, adam = DstOptimizer([grid], lr=0.05), AdamOptimizer([real], lr=0.05)
        g = np.random.default_rng(7)
        for _ in range(10):
            grid.grad = real.grad = g.normal(0, 1, 5)
            dst.step()
            adam.step()
        assert dst.t == adam.t == 10
        assert np.array_equal(grid.m1, real.m1) and np.array_equal(grid.m2, real.m2)
        assert np.isin(grid.value, TERNARY.states()).all()

    def test_matches_dense_reference_over_30_steps(self):
        space = make_space(2, 0.7)
        g = np.random.default_rng(21)
        shapes = [(12, 9), (5, 12)]
        init = [space.states()[g.integers(0, space.num_states, s)] for s in shapes]
        grads = [[g.normal(0, 1, s) * 10.0 ** g.uniform(-3, 3, s) for s in shapes]
                 for _ in range(30)]
        params = [GridParam(value=v.copy(), space=space, rng=param_stream(5, i))
                  for i, v in enumerate(init)]
        opt = DstOptimizer(params, m=3.0, lr=0.05)
        for step_grads in grads:
            for p, grad in zip(params, step_grads):
                p.grad = grad
            opt.step()
        values, m1, m2 = dense_dst_run(init, grads, space, m=3.0, lr=0.05, seed=5)
        for p, v, a, b, v0 in zip(params, values, m1, m2, init):
            assert np.array_equal(p.value, v)
            assert np.array_equal(p.m1, a) and np.array_equal(p.m2, b)
            assert not np.array_equal(p.value, v0)

    def test_tensors_of_three_shapes_match_per_tensor_reference(self):
        # The flat buffers hold the tensors end to end in the given order.
        # Three all-zero steps leave no candidate anywhere.
        space = make_space(1, 1.0)
        shapes = [(7, 5), (40,), (3, 2, 4)]
        g = np.random.default_rng(22)
        init = [space.states()[g.integers(0, space.num_states, shape)] for shape in shapes]
        grads = [[np.zeros(shape) for shape in shapes] for _ in range(3)]
        grads += [[g.normal(0, 1, shape) * 10.0 ** g.uniform(-3, 3, shape) for shape in shapes]
                  for _ in range(27)]
        params = [GridParam(value=v.copy(), space=space, rng=param_stream(6, i))
                  for i, v in enumerate(init)]
        opt = DstOptimizer(params, m=2.0, lr=0.1)
        for step, step_grads in enumerate(grads):
            for p, grad in zip(params, step_grads):
                p.grad = grad
            opt.step()
            if step < 3:
                assert all(np.array_equal(p.value, v) for p, v in zip(params, init))
        values, m1, m2 = dense_dst_run(init, grads, space, m=2.0, lr=0.1, seed=6)
        for p, v, a, b, v0 in zip(params, values, m1, m2, init):
            assert np.array_equal(p.value, v)
            assert np.array_equal(p.m1, a) and np.array_equal(p.m2, b)
            assert not np.array_equal(p.value, v0)

    @pytest.mark.parametrize("grid", [True, False])
    def test_moments_are_updated_in_place(self, grid):
        def param(i, shape):
            if grid:
                return GridParam(value=np.zeros(shape), space=TERNARY, rng=param_stream(3, i))
            return RealParam(value=np.zeros(shape))
        params = [param(0, (4, 3)), param(1, (5,))]
        opt = (DstOptimizer if grid else AdamOptimizer)(params, lr=0.05)
        moments = [(p.m1, p.m2) for p in params]
        for _ in range(3):
            for p in params:
                p.grad = np.ones(p.value.shape)
            opt.step()
        for p, (m1, m2) in zip(params, moments):
            assert p.m1 is m1 and p.m2 is m2
            assert m1.shape == m2.shape == p.value.shape
            assert np.all(m1 > 0) and np.all(m2 > 0)

    def test_rebound_values_and_gradients_are_used(self):
        # Every step rebinds p.value to a fresh grid array and p.grad to a new
        # gradient; the step must read and write those arrays.
        space = make_space(2, 1.0)
        g = np.random.default_rng(23)
        rebound = GridParam(value=np.zeros((6, 6)), space=space, rng=param_stream(4, 0))
        in_place = GridParam(value=np.zeros((6, 6)), space=space, rng=param_stream(4, 0))
        opts = DstOptimizer([rebound], lr=0.3), DstOptimizer([in_place], lr=0.3)
        hops = 0
        for _ in range(10):
            start = space.states()[g.integers(0, space.num_states, (6, 6))]
            grad = g.normal(0, 1, (6, 6))
            rebound.value, rebound.grad = start.copy(), grad.copy()
            in_place.value[...], in_place.grad = start, grad
            fresh = rebound.value
            for opt in opts:
                opt.step()
            assert rebound.value is fresh
            assert np.array_equal(rebound.value, in_place.value)
            hops += int(np.count_nonzero(rebound.value != start))
        assert hops > 0

    def test_identical_seeds_identical_trajectories(self):
        def run():
            space = make_space(1, 1.0)
            rng = param_stream(11, 0)
            p = GridParam(value=space.states()[rng.integers(0, 3, (6, 6))],
                          space=space, rng=rng)
            opt = DstOptimizer([p], lr=0.1)
            g = np.random.default_rng(12)
            for _ in range(30):
                p.grad = g.normal(0, 1, (6, 6))
                opt.step()
            return p.value
        assert np.array_equal(run(), run())


class TestValidation:
    def test_dst_optimizer_rejects_bad_m(self):
        p = GridParam(value=np.zeros(3), space=TERNARY, rng=param_stream(1, 0))
        for m in (0.0, -1.0):
            with pytest.raises(ValueError):
                DstOptimizer([p], m=m)

    def test_non_finite_increment_names_the_tensor(self):
        params = [GridParam(value=np.zeros(3), space=TERNARY, rng=param_stream(1, i))
                  for i in range(2)]
        opt = DstOptimizer(params)
        for bad in (np.nan, np.inf, -np.inf):
            params[0].grad = np.ones(3)
            params[1].grad = np.array([0.5, bad, 0.5])
            with pytest.raises(ValueError, match="grid tensor 1 of shape"):
                opt.step()

    @pytest.mark.parametrize("bad", [1, 2])
    def test_non_finite_increment_names_a_later_tensor(self, bad):
        # The message names the tensor's index in the given list, whatever
        # the sizes of the tensors before it.
        params = [GridParam(value=np.zeros(k + 2), space=TERNARY, rng=param_stream(1, k))
                  for k in range(3)]
        opt = DstOptimizer(params)
        for p in params:
            p.grad = np.ones(p.value.shape)
        params[bad].grad[-1] = np.nan
        with pytest.raises(ValueError, match=f"grid tensor {bad} of shape \\({bad + 2},\\)"):
            opt.step()

    def test_tensors_on_two_grids_are_rejected(self):
        params = [GridParam(value=np.zeros(3), space=s, rng=param_stream(1, k))
                  for k, s in enumerate([TERNARY, make_space(2, 1.0)])]
        with pytest.raises(ValueError, match="share one grid"):
            DstOptimizer(params)

    def test_overflowing_gradient_is_rejected(self):
        # 1e160 squares to inf: the second moment overflows while the
        # increment is a finite 0, so the weight would freeze silently.
        params = [GridParam(value=np.zeros(3), space=TERNARY, rng=param_stream(1, i))
                  for i in range(2)]
        opt = DstOptimizer(params)
        params[0].grad = np.ones(3)
        params[1].grad = np.array([0.5, 1e160, 0.5])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="grid tensor 1 of shape"):
            opt.step()


class GivenDraws:
    """A stand-in stream whose draws are given, so a test can pick every ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, out):
        out[...] = self.u


def moving_weights(m1, m2, u, t, lr, hyper):
    """The weights that can move under the full Adam increment: ``|dw| >= dz``
    or ``u < fl(fl(m |dw|) / dz)``, every weight computed."""
    c1, c2 = 1.0 - AdamOptimizer.BETA1**t, 1.0 - AdamOptimizer.BETA2**t
    dw = -lr * (m1 / c1) / (np.sqrt(m2 / c2) + AdamOptimizer.EPS)
    y = np.abs(dw)
    return (y >= hyper.space.dz) | (u < y * hyper.m / hyper.space.dz)


def selections(step):
    """Run ``step()`` and return the flat indices that each ``_candidates`` call selected."""
    picked, select = [], gxnor.dst._candidates

    def spy(*args):
        picked.append(select(*args))
        return picked[-1]

    with mock.patch.object(gxnor.dst, "_candidates", spy):
        step()
    return picked


def unscaled_bound(t, lr, hyper):
    """``c1 dz / (max(m, 1) lr sqrt(c2))``, the real bound's factor with no
    slack, exact but for ``sqrt(c2)``."""
    c1, c2 = 1.0 - AdamOptimizer.BETA1**t, 1.0 - AdamOptimizer.BETA2**t
    return (Fraction(c1) * Fraction(hyper.space.dz)
            / (Fraction(max(hyper.m, 1.0)) * Fraction(lr) * Fraction(math.sqrt(c2))))


# The smallest and largest grid steps that a config admits (2**-1022 and
# 2**33), edge learning rates and moments, and ordinary ones.
EXTREME_GRIDS = [make_space(1, 2.0**-1022), make_space(0, 2.0**32)]
ORDINARY_GRIDS = [make_space(1, 1.0), make_space(2, 0.7), make_space(15, 1.0)]
EXTREME_LRS = [5e-324, 1e-300, 1e300, sys.float_info.max]
ORDINARY_LRS = [1e-4, 0.01, 0.5, 3.0]
EDGE_MOMENTS = [0.0, 5e-324, 1e-310, 2.0**-1022, 1e-300, 1e-16, 1e-8, 1e-3, 1.0, 1e100,
                1e300, sys.float_info.max]
# Multiples of a weight's distance to the candidate rule or to the bound.
NEAR = [0.5, 0.9, 1 - 2**-30, 1.0, 1 + 2**-30, 1.1, 1.25, 2.0, 4.0]
EDGE_DRAWS = [0, 1, 2**52, 15 * 2**49, 2**53 - 1]


@st.composite
def bound_cases(draw):
    """One DST step's grid, m, lr and t, and per weight a draw ``u`` (a
    multiple of 2**-53, as NumPy makes them), a second moment and a recipe
    for the first: an edge value, or a multiple of where the candidate rule
    or the bound changes its verdict."""
    space = draw(st.one_of(st.sampled_from(EXTREME_GRIDS), st.sampled_from(ORDINARY_GRIDS)))
    hyper = DstHyper(space, draw(st.sampled_from([0.5, 3.0])))
    lr = draw(st.one_of(st.sampled_from(EXTREME_LRS), st.sampled_from(ORDINARY_LRS)))
    t, n = draw(st.sampled_from([1, 2, 1000])), 16
    k = st.one_of(st.sampled_from(EDGE_DRAWS), st.integers(0, 2**53 - 1))
    u = np.array(draw(st.lists(k, min_size=n, max_size=n)), dtype=float) * 2.0**-53
    m2 = np.array(draw(st.lists(st.one_of(st.sampled_from(EDGE_MOMENTS),
                                          st.floats(0.0, 1e6)), min_size=n, max_size=n)))
    recipe = st.tuples(st.sampled_from(["edge", "rule", "bound"]),
                       st.sampled_from(EDGE_MOMENTS), st.sampled_from(NEAR), st.booleans())
    return hyper, lr, t, u, m2, draw(st.lists(recipe, min_size=n, max_size=n))


def first_moments(recipes, u, m2, t, lr, hyper):
    """Each weight's first moment after the step, by its recipe."""
    c1, c2 = 1.0 - AdamOptimizer.BETA1**t, 1.0 - AdamOptimizer.BETA2**t
    rule = Fraction(c1) * Fraction(hyper.space.dz) / (Fraction(max(hyper.m, 1.0)) * Fraction(lr))
    bound = unscaled_bound(t, lr, hyper)
    out = []
    for (kind, edge, near, negative), ui, m2i in zip(recipes, u, m2):
        if kind == "rule":
            den = Fraction(math.sqrt(m2i) / math.sqrt(c2)) + Fraction(AdamOptimizer.EPS)
            value = rule * Fraction(ui) * Fraction(near) * den
        elif kind == "bound":
            value = Fraction(ui) * Fraction(math.sqrt(m2i)) * bound * Fraction(near)
        else:
            value = Fraction(edge)
        # Below 1e300, so that m1 / beta1 is finite.
        value = float(min(value, Fraction(1e300)))
        out.append(-value if negative else value)
    return np.array(out)


@settings(max_examples=400, deadline=None)
@given(case=bound_cases())
# A weight whose increment is 1.1 steps, so it moves whatever its draw, and
# whose bound with m = 0.5 in place of max(m, 1) would leave it out.
@example(case=(DstHyper(make_space(1, 1.0), 0.5), 0.5, 1000, np.full(16, 0.95),
               np.full(16, 1e-3), [("rule", 0.0, 1.1, False)] * 16))
# Weights that the candidate rule just admits at t = 1, where the bound is
# 10 times looser than without the first moment's bias correction.
@example(case=(DstHyper(make_space(1, 1.0), 3.0), 0.01, 1, np.full(16, 0.5),
               np.full(16, 1e-3), [("rule", 0.0, 1.1, False)] * 16))
def test_bound_selects_every_weight_that_can_move(case):
    """One DstOptimizer step selects a superset of the weights that the full
    increment can move, never a weight whose m1 is 0, and, inside the bound's
    normal range, only weights within 2**-19 of its real value."""
    hyper, lr, t, u, m2_before, recipes = case
    n = u.size
    p = GridParam(value=hyper.space.states()[np.arange(n) % hyper.space.num_states],
                  space=hyper.space, rng=GivenDraws(u))
    opt = DstOptimizer([p], m=hyper.m, lr=lr)
    opt.t = t - 1
    # A zero gradient takes the moments to beta1 * m1 and beta2 * m2.
    m2 = m2_before * AdamOptimizer.BETA2
    p.m1[...] = first_moments(recipes, u, m2, t, lr, hyper) / AdamOptimizer.BETA1
    p.m2[...] = m2_before
    p.grad = np.zeros(n)
    # Edge moments overflow the increment, as they would in training.
    with np.errstate(over="ignore", invalid="ignore"):
        (idx,) = selections(opt.step)
        moving = moving_weights(p.m1, p.m2, u, t, lr, hyper)
    assert np.array_equal(p.m2, m2)
    selected = np.zeros(n, dtype=bool)
    selected[idx] = True
    assert not (moving & ~selected).any()
    assert not (selected & (p.m1 == 0)).any()
    big_m, dz = max(hyper.m, 1.0), hyper.space.dz
    c1, c2 = (Fraction(1.0 - b**t) for b in (AdamOptimizer.BETA1, AdamOptimizer.BETA2))
    bound2 = c1**2 * Fraction(dz)**2 / (Fraction(big_m)**2 * Fraction(lr)**2 * c2)
    if (lr + 1.0) * big_m <= 2.0**959 * dz and bound2 < 2**798:
        for i in idx:
            reach = abs(Fraction(p.m1[i])) * (1 + Fraction(1, 2**19)) + Fraction(1, 2**1074)
            assert Fraction(u[i])**2 * Fraction(p.m2[i]) * bound2 <= reach**2


@pytest.mark.parametrize("m", [0.5, 3.0])
def test_optimizer_matches_full_increment_projected_by_the_array_law(m):
    """Forty steps on three tensors: a third of the weights never get a
    gradient, a third get ones near Adam's eps, where the bound is loosest,
    and a third ordinary ones.  After every step the weights and moments must
    be those that the full Adam increment and project_transition_array give,
    no silent weight may be selected, and every selected weight must lie
    within the bound."""
    space, lr, seed = make_space(4, 0.7), 0.35, 13
    g = np.random.default_rng(31)
    shapes = [(20, 30), (50,), (4, 5, 6)]
    kinds = [g.integers(0, 3, shape) for shape in shapes]
    init = [space.states()[g.integers(0, space.num_states, shape)] for shape in shapes]
    scales = [np.choose(k, [0.0, 1e-8, 1.0]) for k in kinds]
    grads = [[s * g.normal(0, 1, s.shape) * 10.0 ** g.uniform(-1, 1, s.shape) for s in scales]
             for _ in range(40)]
    params = [GridParam(value=v.copy(), space=space, rng=param_stream(seed, i))
              for i, v in enumerate(init)]
    twins = [param_stream(seed, i) for i in range(len(params))]
    opt = DstOptimizer(params, m=m, lr=lr)
    silent = np.concatenate([(k == 0).ravel() for k in kinds])
    reference = dense_dst_steps(init, grads, space, m=m, lr=lr, seed=seed,
                                project=project_transition_array)
    for t, step_grads in enumerate(grads, start=1):
        for p, grad in zip(params, step_grads):
            p.grad = grad
        (idx,) = selections(opt.step)
        u = np.concatenate([r.random(p.value.size) for r, p in zip(twins, params)])
        m1, m2 = (np.concatenate([getattr(p, k).ravel() for p in params]) for k in ("m1", "m2"))
        assert not silent[idx].any()
        reach = u[idx] * np.sqrt(m2[idx]) * float(unscaled_bound(t, lr, opt._hyper))
        assert np.all(reach <= np.abs(m1[idx]) * (1 + 1e-6))
        values, ref_m1, ref_m2 = next(reference)
        for p, v, a, b in zip(params, values, ref_m1, ref_m2):
            assert np.array_equal(p.value, v)
            assert np.array_equal(p.m1, a) and np.array_equal(p.m2, b)
    assert sum(int(np.count_nonzero(p.value != v0)) for p, v0 in zip(params, init)) > 100
