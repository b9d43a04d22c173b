"""Stochastic grid transitions and their Adam front end."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
)
from gxnor.spaces import make_space

TERNARY = make_space(1, 1.0)
HYPER = DstHyper(space=TERNARY, m=3.0)


def project_one(w, dw, hyper=HYPER, rng=None):
    """One weight's projection: ``(new_w, steps, rem, prob, moved)`` as scalars."""
    rng = np.random.default_rng(0) if rng is None else rng
    new_w, steps, rem, prob, moved = project_transition_array(
        np.array([w], dtype=float), np.array([dw], dtype=float), hyper, rng)
    return float(new_w[0]), int(steps[0]), float(rem[0]), float(prob[0]), bool(moved[0])


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
        new_w, steps, rem, prob, moved = project_transition_array(
            np.full(trials, -1.0), np.full(trials, 1.5), HYPER, np.random.default_rng(3))
        assert np.all(steps == 1)
        assert np.allclose(prob, tau)
        assert set(np.unique(new_w)) == {0.0, 1.0}
        freq = float((new_w == 1.0).mean())
        assert abs(freq - tau) < 4 * math.sqrt(tau * (1 - tau) / trials)

    def test_expected_move_matches_probability_weights(self):
        trials = 10**5
        w0, dw = 0.0, 0.6
        hyper = DstHyper(space=TERNARY, m=3.0)
        new_w, steps, rem, prob, _ = project_transition_array(
            np.full(trials, w0), np.full(trials, dw), hyper, np.random.default_rng(4))
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


class TestAdam:
    def test_zero_gradient(self):
        assert adam_increments([0.0]) == [0.0]

    def test_degenerate_is_sign_sgd(self):
        for g in (0.3, -2.0, 11.0):
            (dw,) = adam_increments([g], lr=0.01, beta1=1e-12, beta2=1e-12)
            assert abs(dw + 0.01 * math.copysign(1, g)) < 1e-6

    def test_constant_gradient_approaches_lr(self):
        # hand-stepped oracle over 5 iterations
        lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
        g = 0.37
        got = adam_increments([g] * 5, lr=lr, beta1=beta1, beta2=beta2, eps=eps)
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
        assert grid.step == real.step == 10
        assert np.array_equal(grid.m1, real.m1) and np.array_equal(grid.m2, real.m2)
        assert np.isin(grid.value, TERNARY.states()).all()

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

    def test_optimizers_reject_bad_betas(self):
        for bad in (dict(beta1=1.0), dict(beta1=0.0), dict(beta2=1.0), dict(beta2=-0.5)):
            with pytest.raises(ValueError):
                AdamOptimizer([RealParam(value=np.zeros(3))], **bad)
            with pytest.raises(ValueError):
                DstOptimizer([], **bad)
