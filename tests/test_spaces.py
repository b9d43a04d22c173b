"""Quantizers and surrogate derivatives."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gxnor.spaces import (
    DiscreteSpace,
    PulseShape,
    SurrogateSpec,
    make_space,
    quantize_activation,
    quantize_binary,
    quantize_multilevel,
    quantize_ternary,
    surrogate_activation,
    surrogate_rect,
    surrogate_tri,
)

RECT = SurrogateSpec(shape=PulseShape.RECTANGULAR, a=0.5, r=0.5)
TRI = SurrogateSpec(shape=PulseShape.TRIANGULAR, a=0.5, r=0.5)

finite_x = st.floats(min_value=-50, max_value=50, allow_nan=False)
state_params = st.integers(min_value=0, max_value=6)


class TestDiscreteSpace:
    def test_ternary_unit(self):
        space = make_space(1, 1.0)
        assert space.states().tolist() == [-1.0, 0.0, 1.0]
        assert space.dz == 1.0
        assert space.num_states == 3

    def test_binary_doubles_the_step(self):
        space = make_space(0, 1.0)
        assert space.states().tolist() == [-1.0, 1.0]
        assert space.dz == 2.0

    def test_five_states(self):
        space = make_space(2, 1.0)
        assert space.states().tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert space.dz == 0.5

    @given(n=state_params, h=st.floats(min_value=0.25, max_value=8, allow_nan=False))
    def test_state_geometry(self, n, h):
        space = make_space(n, h)
        states = space.states()
        assert len(states) == (2 if n == 0 else 2**n + 1)
        assert states[0] == -h and states[-1] == h
        assert np.all(np.diff(states) > 0)
        np.testing.assert_allclose(np.diff(states), space.dz, rtol=1e-12)

    @given(n=state_params)
    def test_index_round_trip(self, n):
        space = make_space(n, 1.0)
        states = space.states()
        assert np.array_equal(space.states()[space.index_of(states)], states)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            make_space(-1, 1.0)
        with pytest.raises(ValueError):
            make_space(1, 0.0)

    @pytest.mark.parametrize("n,h", [
        (15, 1e-320), (2, 2.0**-1022), (0, 5e-324), (2000, 1.0), (0, 1.7e308)])
    def test_rejects_a_step_that_is_not_a_finite_normal_float(self, n, h):
        # A zero or subnormal dz merges grid states (n=15, h=1e-320 keeps
        # 4049 distinct values of 32769) and divides index_of by zero.
        with pytest.raises(ValueError, match=r"grid step dz=.* finite normal float"):
            make_space(n, h)

    def test_smallest_normal_step_is_a_grid(self):
        space = make_space(1, 2.0**-1022)
        assert space.dz == 2.0**-1022
        assert np.array_equal(space.index_of(space.states()), [0, 1, 2])


class TestTernaryQuantizer:
    def test_threshold_cases(self):
        assert quantize_ternary(0.7, 0.5) == 1.0
        assert quantize_ternary(0.0, 0.5) == 0.0
        assert quantize_ternary(-0.5, 0.5) == 0.0  # boundary belongs to the zero band
        assert quantize_ternary(-0.51, 0.5) == -1.0

    @given(x=finite_x, r=st.floats(min_value=1e-3, max_value=5))
    def test_odd_and_monotone_pointwise(self, x, r):
        assert quantize_ternary(-x, r) == -quantize_ternary(x, r)
        assert quantize_ternary(x, r) in (-1.0, 0.0, 1.0)

    def test_monotone(self):
        x = np.sort(np.random.default_rng(0).uniform(-3, 3, 10000))
        q = quantize_ternary(x, 0.5)
        assert np.all(np.diff(q) >= 0)

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 3.0])
    def test_equals_nested_where_value_for_value(self, r):
        # +0.0 (never -0.0) for every zero, 0 for NaN, the closed band at +-r.
        edges = [r, -r, np.nextafter(r, np.inf), np.nextafter(r, -np.inf),
                 np.nextafter(-r, np.inf), np.nextafter(-r, -np.inf)]
        special = [np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, 5e-324, -5e-324]
        x = np.concatenate([edges, special, np.random.default_rng(4).normal(0, 2, 10**4)])
        expect = np.where(x > r, 1.0, np.where(x < -r, -1.0, 0.0))
        q = quantize_ternary(x, r)
        assert q.dtype == np.float64
        assert np.array_equal(q, expect)
        assert np.array_equal(np.signbit(q), np.signbit(expect))

    @pytest.mark.parametrize("r", [-0.5, np.nan])
    def test_rejects_negative_or_nan_window(self, r):
        with pytest.raises(ValueError):
            quantize_ternary(0.0, r)


@pytest.mark.parametrize("fn", [
    lambda x: quantize_ternary(x, 0.5),
    lambda x: quantize_binary(x, 2.0),
    lambda x: quantize_multilevel(x, make_space(2, 1.0), 0.1),
    *[lambda x, n=n, h=h: quantize_activation(x, make_space(n, h), 0.5)
      for n in (0, 1, 2) for h in (1.0, 2.0)],
    lambda x: surrogate_rect(x, RECT),
    lambda x: surrogate_tri(x, TRI),
    lambda x: surrogate_activation(x, make_space(2, 1.0), RECT),
], ids=["ternary", "binary", "multilevel",
        *[f"activation-n{n}-h{h:g}" for n in (0, 1, 2) for h in (1.0, 2.0)],
        "rect", "tri", "surrogate-multilevel"])
@pytest.mark.parametrize("x", [0.7, -0.2, 0, np.float64(1.5)])
def test_scalar_input_gives_0d_array(fn, x):
    out = fn(x)
    assert type(out) is np.ndarray and out.shape == ()


class TestMultilevelQuantizer:
    def test_dead_zone(self):
        assert quantize_multilevel(0.05, make_space(2, 1.0), 0.1) == 0.0

    def test_ternary_case(self):
        assert quantize_multilevel(1.0, make_space(1, 1.0), 0.5) == 1.0

    def test_band_edge_goes_up(self):
        # |x| - r = 0.45 hits the shared edge of the two bands {0, 0.45, 0.9};
        # edges belong to the higher band, so the output is the top state.
        assert quantize_multilevel(0.55, make_space(2, 1.0), 0.1) == 1.0

    def test_saturation(self):
        space = make_space(2, 1.0)
        assert quantize_multilevel(7.3, space, 0.1) == 1.0
        assert quantize_multilevel(-7.3, space, 0.1) == -1.0

    @given(n=st.integers(min_value=1, max_value=6), x=finite_x,
           r=st.floats(min_value=0, max_value=0.9))
    def test_grid_membership_odd_symmetry(self, n, x, r):
        space = make_space(n, 1.0)
        q = quantize_multilevel(x, space, r)
        assert q in space.states()
        assert quantize_multilevel(-x, space, r) == -q

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_monotone(self, n):
        space = make_space(n, 1.0)
        x = np.sort(np.random.default_rng(1).uniform(-2, 2, 20000))
        q = quantize_multilevel(x, space, 0.3)
        assert np.all(np.diff(q) >= -0.0)

    def test_agrees_with_ternary(self):
        ties = [-0.5, 0.5, np.nextafter(0.5, 1.0), -np.nextafter(0.5, 1.0)]
        x = np.concatenate([np.random.default_rng(2).uniform(-3, 3, 10**6), ties])
        space = make_space(1, 1.0)
        assert np.array_equal(quantize_multilevel(x, space, 0.5),
                              quantize_ternary(x, 0.5))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_window_edge_is_dead_zone(self, n):
        # NaN falls in the dead zone too, as +0.0 and without a cast warning.
        r = 0.3
        q = quantize_multilevel(np.array([-r, r, np.nan]), make_space(n, 1.0), r)
        assert q.tolist() == [0.0, 0.0, 0.0]
        assert not np.signbit(q).any()

    def test_rejects_window_at_or_beyond_h(self):
        with pytest.raises(ValueError):
            quantize_multilevel(0.1, make_space(2, 1.0), 1.0)


class TestBinaryQuantizer:
    def test_sign_with_positive_zero(self):
        assert quantize_binary(0.0, 1.0) == 1.0
        assert quantize_binary(-1e-300, 1.0) == -1.0

    def test_activation_dispatch(self):
        space = make_space(0, 2.0)
        x = np.array([-0.3, 0.0, 0.4])
        assert quantize_activation(x, space, 0.5).tolist() == [-2.0, 2.0, 2.0]


class TestSurrogates:
    def test_rect_values(self):
        assert surrogate_rect(0.7, RECT) == 1.0
        assert surrogate_rect(1.2, RECT) == 0.0
        assert surrogate_rect(-0.3, RECT) == 1.0

    def test_tri_values(self):
        assert surrogate_tri(0.5, TRI) == 2.0
        assert surrogate_tri(0.0, TRI) == 0.0
        assert surrogate_tri(1.0, TRI) == 0.0

    def test_tri_ramps_keep_their_bits_on_ordinary_inputs(self):
        # Pulses at |x| = r = 0.3 and r + (h - r) / 2 = 0.65, each ramp
        # computed as scale * distance / (a * a) and added in center order.
        space, dz, a = make_space(2, 1.0), 0.5, 0.2
        spec = SurrogateSpec(shape=PulseShape.TRIANGULAR, a=a, r=0.3)
        x = np.array([0.0, 0.05, 0.1, 0.17, -0.25, 0.3, 0.41, -0.45, 0.5, 0.58, 0.65,
                      -0.7, 0.85, 0.9, 2.0, np.nan])
        expected = []
        for v in np.abs(x).tolist():
            total = 0.0
            for c in (0.3, 0.3 + (1.0 - 0.3) / 2):
                if c - a <= v < c:
                    total += dz * (v - (c - a)) / (a * a)
                elif c <= v <= c + a:
                    total += -dz * (v - (c + a)) / (a * a)
            expected.append(total)
        assert surrogate_activation(x, space, spec).tobytes() == np.array(expected).tobytes()

    def test_narrow_tri_pulse_on_a_wide_grid_raises_no_warning(self):
        # RuntimeWarnings are errors in this suite.  The ramps of a pulse
        # 2**-510 wide with a step of 2**31 overflow far from the pulse, so
        # each is evaluated only inside it.
        space = make_space(2, 2.0**32)
        spec = SurrogateSpec(shape=PulseShape.TRIANGULAR, a=2.0**-511, r=2.0**-511)
        x = np.array([0.0, 2.0**-512, -2.0**-512, 1.0, -3.0, 2.0**31, 2.0**32, 1e300, np.inf])
        out = surrogate_activation(x, space, spec)
        assert out[1] == out[2] == 2.0**541
        assert out[0] == 0.0 and not out[3:].any()

    def test_tri_pulse_width_whose_square_overflows_is_rejected(self):
        with pytest.raises(ValueError, match=r"tri pulse needs a < 2\*\*512"):
            SurrogateSpec(shape=PulseShape.TRIANGULAR, a=2.0**512)
        SurrogateSpec(shape=PulseShape.TRIANGULAR, a=np.nextafter(2.0**512, 0.0))
        SurrogateSpec(shape=PulseShape.RECTANGULAR, a=2.0**512)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            surrogate_rect(0.0, TRI)
        with pytest.raises(ValueError):
            surrogate_tri(0.0, RECT)

    @pytest.mark.parametrize("fn,spec", [(surrogate_rect, RECT), (surrogate_tri, TRI)])
    def test_unit_integral(self, fn, spec):
        x = np.arange(0.0, spec.r + spec.a + 1.0, 1e-4)
        assert abs(np.trapezoid(fn(x, spec), x) - 1.0) < 1e-3

    def test_rect_support_width_is_2a(self):
        for a in (0.5, 0.1, 1e-3):
            spec = SurrogateSpec(shape=PulseShape.RECTANGULAR, a=a, r=0.5)
            x = np.linspace(0, 2, 400001)
            support = x[surrogate_rect(x, spec) > 0]
            width = support[-1] - support[0]
            assert abs(width - 2 * a) <= 2 * (x[1] - x[0])

    def test_multilevel_reduces_to_ternary(self):
        # On the unit ternary grid the activation surrogate is one pulse at r:
        # 1/(2a) on [r-a, r+a], or the triangle rising to 1/a there.
        x = np.random.default_rng(3).uniform(-3, 3, 10**5)
        space = make_space(1, 1.0)
        r, a = RECT.r, RECT.a
        ax = np.abs(x)
        rect = np.where(np.abs(ax - r) <= a, 1 / (2 * a), 0.0)
        tri = np.maximum(0.0, (a - np.abs(ax - r)) / a**2)
        assert np.array_equal(surrogate_activation(x, space, RECT), rect)
        assert np.allclose(surrogate_activation(x, space, TRI), tri, rtol=0, atol=1e-12)
        assert np.array_equal(surrogate_rect(x, RECT), rect)
        assert np.allclose(surrogate_tri(x, TRI), tri, rtol=0, atol=1e-12)

    def test_multilevel_center_count(self):
        # N=2, H=1, r=0.1: the positive axis has two upward steps, so the
        # surrogate support has two pulse bumps there.
        space = make_space(2, 1.0)
        spec = SurrogateSpec(shape=PulseShape.RECTANGULAR, a=0.05, r=0.1)
        x = np.linspace(0, 1.2, 100001)
        inside = surrogate_activation(x, space, spec) > 0
        runs = int(np.count_nonzero(np.diff(inside.astype(int)) == 1) + inside[0])
        assert runs == 2

    def test_far_outside_support(self):
        space = make_space(2, 1.0)
        assert surrogate_activation(50.0, space, RECT) == 0.0

    @pytest.mark.parametrize("n", [0, 1, 2, 4, 6])
    @pytest.mark.parametrize("spec", [RECT, TRI])
    def test_total_mass_equals_half_range(self, n, spec):
        # The integral over [0, inf) of the activation surrogate equals h:
        # the quantizer rises from 0 to h across its positive steps.
        space = make_space(n, 1.0)
        x = np.arange(0.0, space.h + spec.r + spec.a + 0.5, 1e-4)
        mass = np.trapezoid(surrogate_activation(x, space, spec), x)
        assert abs(mass - space.h) < 5e-3

    @settings(max_examples=25)
    @given(x=finite_x, n=state_params)
    def test_surrogate_non_negative(self, x, n):
        space = make_space(n, 1.0)
        assert surrogate_activation(x, space, RECT) >= 0.0
        assert surrogate_activation(x, space, TRI) >= -1e-12
