"""The threshold fold against the unfused BatchNorm -> QuantAct pair, byte for byte."""

from math import frexp

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gxnor.fold import compile_pair
from gxnor.kernel import unpack_ternary
from gxnor.layers import BatchNorm, QuantAct
from gxnor.spaces import SurrogateSpec, make_space

SPECIAL = [np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324,
           1e308, -1e308, np.finfo(float).max, -np.finfo(float).max]


def unfused(bn, qa, x):
    # Extreme inputs overflow inside the layers; that is part of what is compared.
    with np.errstate(all="ignore"):
        return qa.forward(bn.forward(x, training=False), training=False)


def assert_same(out, zeros, ref):
    assert out.dtype == ref.dtype and out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()  # -0.0 for +0.0 would fail here
    assert zeros == np.count_nonzero(ref == 0)


def probe_inputs(fold, channels, rng):
    """Random rows, the special values, and every threshold (back in input
    coordinates) with its two neighbouring floats."""
    rows = [rng.normal(0.0, 4.0, (40, channels)), np.repeat(np.array(SPECIAL)[:, None], channels, 1)]
    flip = np.ones(channels) if fold.flip is None else fold.flip
    with np.errstate(over="ignore"):  # the neighbours of +-max are +-inf
        for t in (t * flip for t in fold.upper + fold.lower):
            rows += [t[None], np.nextafter(t, -np.inf)[None], np.nextafter(t, np.inf)[None]]
    return np.vstack(rows)


@st.composite
def pairs(draw):
    n = draw(st.sampled_from([0, 1, 2, 3]))
    h = draw(st.sampled_from([1.0, 0.5, 2.0, 0.3, 3.0]))
    if n == 1:
        r = h * draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0]))  # r >= h too
    elif n >= 2:
        r = h * draw(st.sampled_from([0.0, 0.25, 0.5]))
    else:
        r = 0.5
    qa = QuantAct(make_space(n, h), SurrogateSpec(a=(h - r) / 2 if n >= 2 else 0.5, r=r))
    # float32 output only where build_network gives it: on a power-of-two h.
    if frexp(h)[0] == 0.5 and draw(st.booleans()):
        qa.dtype = np.float32
    channels = draw(st.integers(1, 5))
    column = lambda elements: np.array(draw(st.lists(elements, min_size=channels,
                                                     max_size=channels)))
    bn = BatchNorm(channels)
    bn.gamma.value = column(st.one_of(st.sampled_from([1.0, -1.0, 1e300, -1e-300]),
                                      st.floats(-5, 5).filter(bool)))
    bn.beta.value = column(st.floats(-3, 3))
    bn.running_mean = column(st.one_of(st.floats(-10, 10), st.sampled_from([1e308, -1e308])))
    bn.running_var = column(st.floats(0, 100))
    # Half the pairs get a channel that is not monotone, which runs unfused.
    if draw(st.booleans()):
        field, value = draw(st.sampled_from([("gamma", 0.0), ("gamma", -0.0),
                                             ("running_var", np.inf)]))
        array = bn.gamma.value if field == "gamma" else bn.running_var
        array[draw(st.integers(0, channels - 1))] = value
    return bn, qa


@settings(max_examples=300, deadline=None)
@given(pair=pairs(), seed=st.integers(0, 2**32 - 1))
def test_fold_equals_unfused_pair(pair, seed):
    bn, qa = pair
    fold = compile_pair(bn, qa)
    if not ((bn.gamma.value != 0) & np.isfinite(bn.running_var)).all():
        assert fold is None
        return
    assert fold is not None
    x = probe_inputs(fold, bn.num_features, np.random.default_rng(seed))
    assert_same(*fold.levels(x), unfused(bn, qa, x))
    # The same channels as a conv net's (c, h, w, b) activation.
    x4 = np.ascontiguousarray(x.T).reshape(bn.num_features, 1, 1, -1)
    assert_same(*fold.levels(x4), unfused(bn, qa, x4))
    # Integer scores, as a packed dense layer gives them.
    xi = np.rint(np.clip(x[:40], -50, 50)).astype(np.int64)
    assert_same(*fold.levels(xi), unfused(bn, qa, xi))
    if qa.space.n == 1 and qa.space.h == 1.0:
        planes, zeros = fold.planes(x)
        ref = unfused(bn, qa, x)
        assert np.array_equal(unpack_ternary(planes), ref) and zeros == np.count_nonzero(ref == 0)


def test_channel_blocks_of_a_large_conv_activation():
    # Each channel here is larger than a channel block, so every block holds
    # one channel and takes its own slice of the thresholds.
    bn = BatchNorm(3)
    bn.gamma.value = np.array([1.5, -0.5, 0.75])
    bn.beta.value = np.array([0.1, -0.2, 0.7])
    bn.running_mean = np.array([0.3, -1.0, 2.0])
    bn.running_var = np.array([2.0, 0.5, 1.0])
    qa = QuantAct(make_space(1), SurrogateSpec(r=0.5))
    x = np.random.default_rng(5).normal(0.0, 2.0, (3, 1, 1, 70_000))
    assert_same(*compile_pair(bn, qa).levels(x), unfused(bn, qa, x))


@pytest.mark.parametrize("field, value", [
    ("running_mean", np.nan), ("running_mean", np.inf), ("gamma", np.nan),
    ("beta", -np.inf), ("running_var", np.nan), ("running_var", -1e-5),
    ("gamma", 0.0), ("gamma", -0.0), ("running_var", np.inf),
])
def test_state_without_an_exact_fold_compiles_to_none(field, value):
    bn = BatchNorm(2)
    array = bn.gamma.value if field == "gamma" else bn.beta.value if field == "beta" \
        else getattr(bn, field)
    array[1] = value
    assert compile_pair(bn, QuantAct(make_space(1), SurrogateSpec())) is None


def test_grid_wider_than_eight_steps_runs_unfused():
    qa = QuantAct(make_space(4), SurrogateSpec(a=0.25, r=0.5))
    assert compile_pair(BatchNorm(2), qa) is None
    assert compile_pair(BatchNorm(2), QuantAct(make_space(3), SurrogateSpec(a=0.25, r=0.5)))
