"""Network assembly, training dynamics, and packed-inference equivalence."""

import copy
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import gxnor.network
from gxnor.data import Dataset, synthetic_blobs
from gxnor.dst import AdamOptimizer, DstOptimizer
from gxnor.fold import compile_pair
from gxnor.kernel import pack_ternary_matrix
from gxnor.layers import (
    BatchNorm,
    Conv2d,
    Dense,
    Flatten,
    MaxPool2d,
    QuantAct,
    _channel_blocks,
    svm_hinge_loss,
)
from gxnor.network import (
    EVAL_BATCH,
    Network,
    build_network,
    check_packed_scores,
    evaluate,
    fit,
    packed_eligible,
    packed_evaluate,
    train_step,
)
from gxnor.spaces import PulseShape, SurrogateSpec, make_space, quantize_activation


def small_blobs(seed, n=300, classes=2, dim=2, separation=10.0):
    return synthetic_blobs(n=n, classes=classes, dim=dim, seed=seed,
                           separation=separation)


class TestBuildNetwork:
    def test_mlp_layer_sequence(self):
        net = build_network("mlp-784-200-200-10")
        kinds = [type(l) for l in net.layers]
        assert kinds == [Flatten,
                         Dense, BatchNorm, QuantAct,
                         Dense, BatchNorm, QuantAct,
                         Dense]
        dense = [l for l in net.layers if isinstance(l, Dense)]
        assert [(d.in_features, d.out_features) for d in dense] == [
            (784, 200), (200, 200), (200, 10)]
        assert net.classes == 10

    def test_single_layer_mlp(self):
        net = build_network("mlp-2-2", input_shape=(1, 1, 2))
        assert [type(l) for l in net.layers] == [Flatten, Dense]

    def test_conv_layer_sequence(self):
        net = build_network("conv-2c3-mp2-8fc", input_shape=(1, 10, 10), classes=3)
        kinds = [type(l) for l in net.layers]
        assert kinds == [Conv2d, BatchNorm, QuantAct,
                         MaxPool2d, Flatten,
                         Dense, BatchNorm, QuantAct,
                         Dense]
        fc = [l for l in net.layers if isinstance(l, Dense)]
        # 10x10 -> conv3 -> 8x8 -> pool2 -> 4x4 with 2 channels = 32 inputs.
        assert (fc[0].in_features, fc[0].out_features) == (32, 8)
        assert (fc[1].in_features, fc[1].out_features) == (8, 3)

    def test_float32_only_where_a_conv_is_exact_on_it(self):
        dtypes = lambda net: [l.gemm_dtype for l in net.layers if isinstance(l, Conv2d)]
        # conv1 sees pixels; conv2's K = 32*5*5 = 800 on ternary grids: far
        # inside 2**24.
        mnist = build_network("conv-32c5-mp2-64c5-mp2-512fc")
        assert dtypes(mnist) == [np.float64, np.float32]
        assert dtypes(build_network("conv-32c5-mp2-64c5-mp2-512fc", h=0.75)) == [np.float64] * 2
        assert dtypes(build_network("conv-32c5-mp2-64c5-mp2-512fc", h=0.5)) == dtypes(mnist)
        # n1 = n2 = 11: M_w * M_a = 2**20, so K = 16 is exactly at the bound.
        at_bound = dict(n1=11, n2=11, input_shape=(1, 6, 6), classes=3)
        assert dtypes(build_network("conv-1c1-1c4-4fc", **at_bound)) == [np.float64, np.float32]
        assert dtypes(build_network("conv-2c1-1c4-4fc", **at_bound)) == [np.float64] * 2
        assert dtypes(build_network("conv-1c1-1c4-4fc", **at_bound, h=3.0)) == [np.float64] * 2
        # Pooled pixels are still pixels.
        pooled = dict(at_bound, input_shape=(1, 12, 12))
        assert dtypes(build_network("conv-mp2-1c1-1c4-4fc", **pooled)) == [np.float64, np.float32]

    def test_forward_shape(self):
        net = build_network("mlp-6-5-3", input_shape=(1, 2, 3), classes=3)
        out = net.forward(np.zeros((7, 1, 2, 3)))
        assert out.shape == (7, 3)

    def test_rejects_input_mismatch(self):
        with pytest.raises(ValueError):
            build_network("mlp-10-4", input_shape=(1, 1, 2))

    def test_rejects_bad_ids(self):
        with pytest.raises(ValueError):
            build_network("mlp-5", input_shape=(1, 1, 5))
        with pytest.raises(ValueError):
            build_network("conv-2c3", input_shape=(1, 10, 10))
        with pytest.raises(ValueError):
            build_network("conv-2x3-8fc", input_shape=(1, 10, 10))
        with pytest.raises(ValueError):
            build_network("resnet-50")
        # On blobs-shaped images (tests/test_cli.py sends more bad ids through
        # `gxnor train`): an empty width, a zero window, a kernel larger than
        # its input after a pool, and conv or pool stages after an fc stage.
        for architecture in ["mlp-16--4", "conv-4c1-mp0-4fc", "conv-mp1-1c17-4fc",
                             "conv-4fc-4c1-4fc", "conv-4fc-mp1-4fc"]:
            with pytest.raises(ValueError):
                build_network(architecture, input_shape=(1, 1, 16), classes=4)

    # The CLI refuses each of these configs, so no caller may build its net:
    # an activation grid past 15, a tri a whose a*a underflows, a rect pulse
    # of infinite height, a weight grid step of 0.
    @pytest.mark.parametrize("overrides", [
        dict(n2=64), dict(surrogate="tri", a=1e-300), dict(surrogate="rect", a=1e-320),
        dict(n1=15, h=1e-320)])
    def test_rejects_grids_and_pulses_that_the_config_rejects(self, overrides):
        with pytest.raises(ValueError):
            build_network("mlp-16-32-4", input_shape=(1, 1, 16), classes=4, **overrides)

    def test_seed_controls_initial_weights(self):
        a = build_network("mlp-4-3-2", input_shape=(1, 1, 4), seed=1)
        b = build_network("mlp-4-3-2", input_shape=(1, 1, 4), seed=1)
        c = build_network("mlp-4-3-2", input_shape=(1, 1, 4), seed=2)
        for pa, pb in zip(a.grid_params(), b.grid_params()):
            assert np.array_equal(pa.value, pb.value)
        assert any(not np.array_equal(pa.value, pc.value)
                   for pa, pc in zip(a.grid_params(), c.grid_params()))

    def test_layers_draw_distinct_streams(self):
        net = build_network("mlp-8-8-8-8", input_shape=(1, 1, 8))
        dense = [l for l in net.layers if isinstance(l, Dense)]
        assert not np.array_equal(dense[0].weight.value, dense[1].weight.value)


class TestTraining:
    def test_separable_problem_reaches_full_accuracy(self):
        train = small_blobs(seed=21)
        test = small_blobs(seed=22, n=100)
        net = build_network("mlp-2-2", input_shape=(1, 1, 2), classes=2, seed=3)
        records = fit(net, train, test, epochs=50, batch_size=25,
                      lr_start=0.01, lr_fin=0.001, seed=3)
        assert max(r.test_accuracy for r in records) == 1.0

    def test_loss_decreases_for_most_seeds(self):
        train = synthetic_blobs(n=400, classes=4, dim=16, seed=31)
        wins = 0
        for seed in range(5):
            net = build_network("mlp-16-32-4", input_shape=(1, 1, 16), classes=4,
                                seed=seed)
            records = fit(net, train, train, epochs=5, batch_size=50,
                          lr_start=0.01, lr_fin=0.001, seed=seed)
            wins += records[-1].train_loss < records[0].train_loss
        assert wins >= 4

    def test_weights_stay_on_grid(self):
        train = small_blobs(seed=41)
        net = build_network("mlp-2-4-2", input_shape=(1, 1, 2), classes=2, seed=5)
        assert net.weights_on_grid()
        fit(net, train, train, epochs=3, batch_size=30, lr_start=0.01,
            lr_fin=0.001, seed=5)
        assert net.weights_on_grid()

    def test_wider_rest_band_never_lowers_sparsity(self):
        # The rest band [-r, r] maps pre-activations to zero, so training the
        # same problem with a wider band must not end up less sparse.
        train = synthetic_blobs(n=400, classes=4, dim=16, seed=71)
        sparsities = []
        for r in (0.2, 0.8, 3.5):
            net = build_network("mlp-16-32-4", input_shape=(1, 1, 16), classes=4,
                                seed=11, r=r)
            fit(net, train, train, epochs=3, batch_size=50, lr_start=0.01,
                lr_fin=0.001, seed=11)
            _, sparsity = evaluate(net, train)
            sparsities.append(sparsity)
        assert sparsities == sorted(sparsities)

    def test_fit_is_reproducible(self):
        train = small_blobs(seed=51)
        test = small_blobs(seed=52, n=80)

        def run():
            net = build_network("mlp-2-4-2", input_shape=(1, 1, 2), classes=2, seed=7)
            recs = fit(net, train, test, epochs=4, batch_size=30,
                       lr_start=0.01, lr_fin=0.001, seed=7)
            return recs, [p.value.copy() for p in net.grid_params()]

        recs_a, weights_a = run()
        recs_b, weights_b = run()
        for ra, rb in zip(recs_a, recs_b):
            assert (ra.train_loss, ra.test_accuracy, ra.sparsity) == (
                rb.train_loss, rb.test_accuracy, rb.sparsity)
        for wa, wb in zip(weights_a, weights_b):
            assert np.array_equal(wa, wb)

    def test_conv_training_is_byte_identical_across_runs(self):
        rng = np.random.default_rng(91)
        images = rng.uniform(-1.0, 1.0, size=(40, 1, 10, 10))
        labels = rng.integers(0, 3, size=40)

        def run():
            net = build_network("conv-2c3-mp2-8fc", input_shape=(1, 10, 10), classes=3,
                                seed=13)
            initial = net.layers[0].weight.value.copy()
            grid = DstOptimizer(net.grid_params())
            real = AdamOptimizer(net.real_params())
            losses = [train_step(net, images[lo:lo + 20], labels[lo:lo + 20], grid, real)
                      for lo in (0, 20, 0, 20)]
            return np.array(losses), net, initial

        losses_a, net_a, initial = run()
        losses_b, net_b, _ = run()
        assert np.isfinite(losses_a).all()
        assert losses_a.tobytes() == losses_b.tobytes()
        for pa, pb in zip(net_a.grid_params(), net_b.grid_params()):
            assert pa.value.tobytes() == pb.value.tobytes()
        assert net_a.weights_on_grid()
        # The kernels hopped, so the run really trained through Conv2d.
        assert not np.array_equal(net_a.layers[0].weight.value, initial)


def shifted_prototypes(n, seed, classes=10):
    """MNIST-shaped images of blocky class prototypes (a 7x7 grid of uniform
    cells, 4x4 pixels each), each rolled by up to 3 px along both axes, then
    0.8 * prototype + N(0, 0.3) noise, clipped to [-1, 1]."""
    prototypes = np.kron(np.random.default_rng(0).uniform(-1.0, 1.0, (classes, 7, 7)),
                         np.ones((1, 4, 4)))
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, n)
    shifts = rng.integers(-3, 4, size=(n, 2))
    images = np.stack([np.roll(prototypes[label], tuple(shift), axis=(0, 1))
                       for label, shift in zip(labels, shifts)])
    images = np.clip(0.8 * images + rng.normal(0.0, 0.3, images.shape), -1.0, 1.0)
    return Dataset(images=images[:, None], labels=labels, classes=classes)


def test_conv_net_learns_shifted_prototypes():
    """Offline learning gate for the conv path; the MNIST gate needs files
    that are not always there.

    Seeds 1-8 of this recipe end at 0.84-0.90 test accuracy; the floor is
    the lowest of them minus 0.04.  With Conv2d's weight gradient zeroed,
    seeds 1-3 end at 0.73, 0.76 and 0.81, so the seed run here, seed 1
    (0.87), is one whose conv layers must learn to pass.  Budget: 20 s
    (about 4.5 s on 2 vCPU).
    """
    train, test = shifted_prototypes(2000, seed=101), shifted_prototypes(500, seed=201)
    net = build_network("conv-8c5-mp2-16c5-mp2-64fc", seed=1)
    start = time.perf_counter()
    records = fit(net, train, test, epochs=4, batch_size=50, lr_start=0.01,
                  lr_fin=0.001, seed=1)
    elapsed = time.perf_counter() - start
    assert records[-1].test_accuracy >= 0.80
    assert elapsed < 20.0


def nchw_reference_scores(net, images):
    """Eval-mode class scores of a conv net by a plain NumPy walk that keeps
    every activation as (b, c, h, w) and flattens in (c, h, w) order."""
    x = images
    for layer in net.layers:
        if isinstance(layer, Conv2d):
            k, kernel = layer.kernel_size, layer.weight.value
            oh, ow = x.shape[2] - k + 1, x.shape[3] - k + 1
            out = np.zeros((len(x), kernel.shape[0], oh, ow))
            for u in range(k):
                for v in range(k):
                    out += np.einsum("bcij,oc->boij", x[:, :, u:u + oh, v:v + ow],
                                     kernel[:, :, u, v])
            x = out
        elif isinstance(layer, BatchNorm):
            shape = (1, -1, 1, 1) if x.ndim == 4 else (1, -1)
            mean = layer.running_mean.reshape(shape)
            var = layer.running_var.reshape(shape)
            g, b = layer.gamma.value.reshape(shape), layer.beta.value.reshape(shape)
            x = g * ((x - mean) / np.sqrt(var + layer.EPS)) + b
        elif isinstance(layer, QuantAct):
            x = quantize_activation(x, layer.space, layer.spec.r)
        elif isinstance(layer, MaxPool2d):
            k = layer.window
            b, c, h, w = x.shape
            x = x.reshape(b, c, h // k, k, w // k, k).max(axis=(3, 5))
        elif isinstance(layer, Flatten):
            x = x.reshape(len(x), -1)
        else:
            x = x @ layer.weight.value.T
    return x


def test_conv_scores_equal_nchw_reference_walk(monkeypatch):
    # Integer-valued images and ternary weights and activations make every
    # conv and dense sum exact in any order, so the scores must be equal.
    rng = np.random.default_rng(93)
    images = rng.integers(-1, 2, size=(90, 2, 10, 12)).astype(float)
    labels = rng.integers(0, 3, size=90)
    net = build_network("conv-3c3-mp2-4c2-6fc", input_shape=(2, 10, 12), classes=3, seed=17)
    grid, real = DstOptimizer(net.grid_params()), AdamOptimizer(net.real_params())
    for lo in (0, 30, 60):
        train_step(net, images[lo:lo + 30], labels[lo:lo + 30], grid, real)
    expect = nchw_reference_scores(net, images)
    assert np.array_equal(expect, np.rint(expect)) and expect.any()
    assert np.array_equal(net.forward(images), expect)
    monkeypatch.setattr(gxnor.network, "EVAL_BATCH", 40)
    accuracy, _ = evaluate(net, Dataset(images=images, labels=labels, classes=3))
    assert accuracy == np.mean(np.argmax(expect, axis=1) == labels)


@pytest.mark.parametrize("architecture, batch_last", [
    ("mlp-36-8-4", False),
    ("conv-2c3-mp2-4fc", True),
    ("conv-mp2-2c3-4fc", True),
    ("conv-4fc", False),
])
def test_layout_follows_the_first_layer(architecture, batch_last):
    # A net whose first layer is 4-D runs batch-last, Flatten included; the
    # scores do not depend on the layout.
    net = build_network(architecture, input_shape=(1, 6, 6), classes=4, seed=5)
    assert net.batch_last == batch_last
    assert [l.batch_last for l in net.layers if isinstance(l, Flatten)] == [batch_last]
    images = np.random.default_rng(6).integers(-1, 2, size=(9, 1, 6, 6)).astype(float)
    assert np.array_equal(net.forward(images), nchw_reference_scores(net, images))


@pytest.mark.parametrize("architecture", ["mlp-36-8-4", "conv-2c3-mp2-4fc"])
def test_backward_stops_at_the_first_weighted_layer(architecture, monkeypatch):
    net = build_network(architecture, input_shape=(1, 6, 6), classes=4, seed=3)
    weighted = [layer for layer in net.layers if layer.grid_params()]
    assert [layer.input_grad for layer in weighted] == [False] + [True] * (len(weighted) - 1)
    returned = {}
    for layer in net.layers:
        def record(grad, *block, layer=layer, backward=layer.backward):
            returned[id(layer)] = backward(grad, *block)
            return returned[id(layer)]
        monkeypatch.setattr(layer, "backward", record)
    rng = np.random.default_rng(5)
    images = rng.uniform(-1.0, 1.0, size=(8, 1, 6, 6))
    net.forward(images, training=True)
    net.backward(np.ones((8, 4)))
    first = net.layers.index(weighted[0])
    assert returned[id(weighted[0])] is None
    assert weighted[0].weight.grad.shape == weighted[0].weight.value.shape
    # No layer before the first weighted one runs backward.
    assert set(returned) == {id(layer) for layer in net.layers[first:]}


@pytest.mark.parametrize("architecture", ["mlp-36-8-4", "conv-2c3-mp2-4fc", "conv-mp2-2c3-4fc"])
def test_train_step_leaves_the_images_as_they_were(architecture):
    # Training normalizes each BatchNorm's input in place, and none of those
    # inputs is the caller's array.
    net = build_network(architecture, input_shape=(1, 6, 6), classes=4, seed=5)
    rng = np.random.default_rng(7)
    images = rng.uniform(-1.0, 1.0, size=(8, 1, 6, 6))
    before = images.copy()
    train_step(net, images, rng.integers(0, 4, size=8),
               DstOptimizer(net.grid_params()), AdamOptimizer(net.real_params()))
    assert images.tobytes() == before.tobytes()


@pytest.mark.parametrize("before", [[], [Flatten()]], ids=["first", "after-flatten"])
def test_a_batch_norm_must_follow_a_dense_or_a_conv(before):
    # Anything else could hand it an array that the caller still reads.
    space = make_space(1)
    layers = [*before, BatchNorm(4), QuantAct(space, SurrogateSpec()),
              Dense(4, 2, space, seed=0, layer_index=0)]
    with pytest.raises(ValueError, match="must directly follow a Dense or Conv2d"):
        Network(layers, classes=2, input_shape=(1, 2, 2))


def unfused_train_step(net, images, labels, grid_opt, real_opt):
    """``train_step`` with every layer run on its whole input, one after
    another: no conv stage runs block by block."""
    x = net.enter(images)
    for layer in net.layers:
        x = layer.forward(x, True)
    lg = svm_hinge_loss(x, labels)
    grad = lg.dscores
    for layer in reversed(net.layers[net._first_weighted:]):
        grad = layer.backward(grad)
    grid_opt.step()
    real_opt.step()
    return lg.loss


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


class TestConvStageBlocks:
    """A 4-D BatchNorm -> QuantAct stage and its pool, trained one channel
    block at a time, against the three layers run whole, one after another."""

    # (channels, channel-block size): one block, one channel per block, and
    # conv2's 64 channels in 6 blocks of 10 and a ragged block of 4.
    LAYOUTS = {"one": (3, None), "several": (3, 1), "ragged": (64, 10)}

    def stage_net(self, pulse, n2, channels, window):
        spec = SurrogateSpec(shape=PulseShape(pulse), a=0.25, r=0.25)
        layers = [Conv2d(1, channels, 1, make_space(1), seed=0, layer_index=0),
                  BatchNorm(channels), QuantAct(make_space(n2), spec)]
        if window:
            layers.append(MaxPool2d(window))
        return Network(layers, classes=2, input_shape=(1, 6, 6))

    @staticmethod
    def activation(rng, shape, palette):
        # Values from a small palette, so windows tie before and after the
        # quantizer; the first channel is constant, so its xhat is 0.
        y = rng.choice(np.array(palette), size=shape)
        noise = rng.random(shape) < 0.3
        y[noise] = rng.normal(size=np.count_nonzero(noise))
        y[0] = -0.0
        return y

    def use_layout(self, layout, shape, monkeypatch):
        """Set the channel block size of ``layout`` for (c, h, w, b) ``shape``."""
        channels, per = self.LAYOUTS[layout]
        if per is not None:
            monkeypatch.setattr(gxnor.layers, "CHANNEL_BLOCK_BYTES",
                                per * np.empty(shape[1:]).nbytes)
        blocks = _channel_blocks(np.empty(shape))
        expect = {"one": 1, "several": 3, "ragged": 7}[layout]
        assert len(blocks) == expect and blocks[-1].stop == channels

    @pytest.mark.parametrize("window", [None, 2, 3])
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    @pytest.mark.parametrize("n2", [0, 1, 2])
    @pytest.mark.parametrize("pulse", ["rect", "tri"])
    def test_blocked_stage_equals_its_layers_run_whole(self, pulse, n2, layout, window,
                                                       monkeypatch):
        channels, _ = self.LAYOUTS[layout]
        rng = np.random.default_rng([n2, channels, window or 1, len(pulse)])
        net = self.stage_net(pulse, n2, channels, window)
        bn = net.layers[1]
        bn.gamma.value = rng.choice([-1.5, -0.5, 0.5, 2.0], size=channels)
        bn.beta.value = rng.choice([-0.0, 0.0, 0.25, -0.75], size=channels)
        ref = copy.deepcopy(net)
        shape = (channels, 6, 6, 5)
        self.use_layout(layout, shape, monkeypatch)
        pooled = (channels, 6 // (window or 1), 6 // (window or 1), 5)
        for step in range(2):  # the second step starts from the state the first left
            y = self.activation(rng, shape, [-0.0, 0.0, 0.25, -0.25, 1.0, 3.0])
            g = rng.choice(np.array([-0.0, 0.0, 1.0, -2.5, 0.5]), size=pooled)
            out, zeros = net._stage_forward(1, y.copy(), True)
            assert zeros == 0
            dx = net._stage_backward(1, g)
            rbn, rqa, *rpool = ref.layers[1:]
            expect_out = rqa.forward(rbn.forward(y, True), True)
            routed = g
            if rpool:
                expect_out = rpool[0].forward(expect_out, True)
                routed = rpool[0].backward(g)
            expect_dx = rbn.backward(rqa.backward(routed))
            for a, b in [(out, expect_out), (dx, expect_dx),
                         (bn.gamma.grad, rbn.gamma.grad), (bn.beta.grad, rbn.beta.grad),
                         (bn.running_mean, rbn.running_mean),
                         (bn.running_var, rbn.running_var)]:
                assert_same_bits(a, b)

    def test_stage_backward_returns_the_array_forward_normalized(self, monkeypatch):
        """The input gradient is written, block by block, over the stage's
        input, and neither the net nor its layers hold it afterwards."""
        monkeypatch.setattr(gxnor.layers, "CHANNEL_BLOCK_BYTES", 1)  # one channel a block
        net = self.stage_net("rect", 1, 3, 2)
        rng = np.random.default_rng(37)
        y = rng.normal(size=(3, 6, 6, 5))
        net._stage_forward(1, y, True)
        dx = net._stage_backward(1, rng.normal(size=(3, 3, 3, 5)))
        assert dx is y
        held = weakref.ref(y)
        del y, dx
        assert held() is None

    def test_a_failed_stage_leaves_the_running_statistics_as_they_were(self):
        """A stage's BatchNorm that raises inside the block loop leaves the
        running statistics as they were."""
        net = build_network("conv-2c1-mp1-4fc", input_shape=(1, 1, 1), classes=2)
        norms = [l for l in net.layers if isinstance(l, BatchNorm)]
        before = [(l.running_mean.copy(), l.running_var.copy()) for l in norms]
        grid, real = DstOptimizer(net.grid_params()), AdamOptimizer(net.real_params())
        with pytest.raises(ValueError, match="needs at least 2 values per feature"):
            train_step(net, np.zeros((1, 1, 1, 1)), np.zeros(1, dtype=int), grid, real)
        for layer, (mean, var) in zip(norms, before):
            assert_same_bits(layer.running_mean, mean)
            assert_same_bits(layer.running_var, var)

    @pytest.mark.parametrize("window", [None, 2, 3])
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    @pytest.mark.parametrize("n2", [0, 1, 2])
    @pytest.mark.parametrize("folded", [False, True], ids=["first-sight", "fold"])
    def test_blocked_inference_stage_equals_its_layers_run_whole(self, folded, n2, layout,
                                                                 window, monkeypatch):
        """The stage as ``_walk`` runs it, unfused or as a compiled fold that
        takes each block's slice of the thresholds, against the unfused
        layers run whole: pooled output and zero count."""
        channels, _ = self.LAYOUTS[layout]
        rng = np.random.default_rng([n2, channels, window or 1, folded])
        net = self.stage_net("rect", n2, channels, window)
        bn, qa, *pool = net.layers[1:]
        bn.gamma.value = rng.choice([-1.5, -0.5, 0.5, 2.0], size=channels)
        bn.beta.value = rng.choice([-0.0, 0.0, 0.25, -0.75], size=channels)
        bn.running_mean = rng.choice([-0.25, 0.0, 0.5], size=channels)
        bn.running_var = rng.choice([0.25, 1.0, 4.0], size=channels)
        fold = compile_pair(bn, qa) if folded else None
        assert folded == (fold is not None)
        shape = (channels, 6, 6, 5)
        self.use_layout(layout, shape, monkeypatch)
        y = self.activation(rng, shape, [-0.0, 0.0, 0.25, -0.25, 1.0, 3.0,
                                         np.nan, np.inf, -np.inf])
        out, zeros = net._stage_forward(1, y, False, fold)
        q = qa.forward(bn.forward(y, False), False)
        assert_same_bits(out, pool[0].forward(q, False) if pool else q)
        assert zeros == np.count_nonzero(q == 0)

    @pytest.mark.parametrize("architecture, image_shape", [
        ("conv-mp2-2c3-4fc", (1, 6, 6)),       # opens with a pool
        ("conv-8c1-16fc", (1, 4, 4)),          # a 4-D stage with no pool
        ("conv-3c3-mp3-2c2-mp2-6fc", (2, 11, 11)),
    ])
    @pytest.mark.parametrize("pulse, n2", [("rect", 1), ("tri", 2)])
    def test_train_steps_equal_the_unfused_walk(self, architecture, image_shape, pulse, n2):
        rng = np.random.default_rng(31)
        images = rng.normal(size=(3, 16, *image_shape))
        labels = rng.integers(0, 4, size=(3, 16))
        runs = []
        for step in (train_step, unfused_train_step):
            net = build_network(architecture, input_shape=image_shape, classes=4, seed=7,
                                n2=n2, surrogate=pulse, r=0.25, a=0.25)
            grid, real = DstOptimizer(net.grid_params()), AdamOptimizer(net.real_params())
            losses = [step(net, x, t, grid, real) for x, t in zip(images, labels)]
            state = [np.asarray(losses)]
            for p in net.grid_params() + net.real_params():
                state += [p.value, p.m1, p.m2]
            state += [a for l in net.layers if isinstance(l, BatchNorm)
                      for a in (l.running_mean, l.running_var)]
            runs.append(state)
        for a, b in zip(*runs):
            assert_same_bits(a, b)

    # The bytes of conv1's float64 output in the net that traced_steps trains.
    CONV1 = 16 * 24 * 24 * 50 * 8

    @staticmethod
    def traced_steps() -> tuple[int, int, int]:
        """What ``conv-16c5-mp2-10fc`` and its optimizers hold once built,
        what they hold after a training step at batch 50, and the peak of a
        second step, as tracemalloc counts NumPy's buffers."""
        rng = np.random.default_rng(41)
        images = rng.uniform(0.0, 1.0, size=(50, 1, 28, 28))
        labels = rng.integers(0, 10, size=50)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            net = build_network("conv-16c5-mp2-10fc", seed=1)
            grid, real = DstOptimizer(net.grid_params()), AdamOptimizer(net.real_params())
            built, _ = tracemalloc.get_traced_memory()
            train_step(net, images, labels, grid, real)  # every cache exists
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            train_step(net, images, labels, grid, real)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        return built, held, peak

    def test_a_conv_step_peaks_under_two_conv1_activations_above_what_it_holds(self):
        """Above what a conv net holds between steps, a training step peaks
        at about 1.7 times conv1's output: that output, which becomes xhat in
        place, Conv2d's im2col columns and one block's scratch in forward;
        the same array, which becomes the stage's input gradient, and the
        columns in backward.  Run whole, the conv1 stage held 3: the conv
        output, a fresh xhat and the batch-norm output."""
        _, held, peak = self.traced_steps()
        assert peak - held < 2 * self.CONV1

    def test_between_steps_a_conv_net_holds_under_three_quarters_of_conv1(self):
        """Beyond what it held once built, a trained net keeps its layers'
        caches and the optimizers' moments, but no conv-size batch-norm
        state: xhat lives in the conv output and dies with the backward."""
        built, held, _ = self.traced_steps()
        assert held - built < 0.75 * self.CONV1

    def test_a_conv_step_peaks_under_two_and_a_half_conv1_above_the_built_net(self):
        """A second step peaks under 2.5 times conv1's output above what the
        net and its optimizers held once built: the between-step caches plus
        the step's own peak, with one full-size array per conv stage."""
        built, _, peak = self.traced_steps()
        assert peak - built < 2.5 * self.CONV1

    def test_a_conv_eval_peaks_under_one_and_a_half_conv1_activations_above_what_it_holds(self):
        """Above what it holds, one evaluate batch peaks at about 1.35 times
        conv1's output: that output, the pooled stage output and one block's
        scratch.  Run whole, the conv1 stage held 2: the conv output and
        the batch-norm, quantizer or fold output.  The first evaluate runs
        the pairs unfused, the second compiles their folds and the third
        reuses them."""
        rng = np.random.default_rng(43)
        data = Dataset(rng.uniform(0.0, 1.0, size=(100, 1, 28, 28)),
                       rng.integers(0, 10, size=100), 10)
        net = build_network("conv-32c5-mp2-10fc", seed=1)
        conv1 = 32 * 24 * 24 * 100 * 8
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            peaks = []
            for sight in range(3):
                held, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                evaluate(net, data)
                peaks.append(tracemalloc.get_traced_memory()[1] - held)
        finally:
            if started:
                tracemalloc.stop()
        assert net._fold_slot[1] is not None
        assert max(peaks) < 1.6 * conv1


class TestEvaluate:
    def trained_net(self):
        train = synthetic_blobs(n=500, classes=4, dim=16, seed=61)
        net = build_network("mlp-16-32-4", input_shape=(1, 1, 16), classes=4, seed=9)
        records = fit(net, train, train, epochs=3, batch_size=50, lr_start=0.01,
                      lr_fin=0.001, seed=9)
        return net, train, records

    def test_evaluate_is_pure_and_deterministic(self):
        net, data, _ = self.trained_net()
        before = [p.value.copy() for p in net.grid_params()]
        first = evaluate(net, data)
        second = evaluate(net, data)
        assert first == second
        for p, b in zip(net.grid_params(), before):
            assert np.array_equal(p.value, b)

    def test_batch_size_does_not_change_result(self, monkeypatch):
        net, data, _ = self.trained_net()
        monkeypatch.setattr(gxnor.network, "EVAL_BATCH", 7)
        small = evaluate(net, data)
        monkeypatch.setattr(gxnor.network, "EVAL_BATCH", 500)
        assert small == evaluate(net, data)

    def test_zero_fractions_per_layer(self):
        # fit's last evaluation ran on the final weights, so its per-layer
        # fractions describe the trained model.
        net, data, records = self.trained_net()
        fractions = records[-1].zero_fractions
        assert len(fractions) == len(net.quant_layers())
        assert all(0.0 <= f <= 1.0 for f in fractions)
        _, sparsity = evaluate(net, data)
        assert records[-1].sparsity == sparsity
        assert sparsity == pytest.approx(np.mean(fractions))


def zero_fraction_oracle(net, data, batch_size):
    """Per-quantized-layer zero fractions and their mean from a hand walk,
    each batch's fraction weighted by its size."""
    zero = np.zeros(len(net.quant_layers()))
    n = len(data)
    for lo in range(0, n, batch_size):
        hi = min(lo + batch_size, n)
        x, i = data.images[lo:hi], 0
        if net.batch_last:
            x = x.transpose(1, 2, 3, 0)
        for layer in net.layers:
            x = layer.forward(x, training=False)
            if isinstance(layer, QuantAct):
                zero[i] += np.mean(x == 0.0) * (hi - lo)
                i += 1
    return tuple(float(z / n) for z in zero), float(zero.mean() / n)


@pytest.mark.parametrize("architecture, image_shape", [
    ("mlp-36-8-8-4", (1, 1, 36)),
    ("conv-2c3-mp2-4fc", (1, 6, 6)),
])
def test_zero_fractions_equal_hand_walk(architecture, image_shape, monkeypatch):
    def shaped(n, seed):
        data = synthetic_blobs(n=n, classes=4, dim=36, seed=seed)
        return Dataset(images=data.images.reshape(n, *image_shape),
                       labels=data.labels, classes=4)
    # 1030 test images: fit's test pass ends on a short batch of 30.
    train, test = shaped(100, 91), shaped(EVAL_BATCH + 30, 92)
    net = build_network(architecture, input_shape=image_shape, classes=4, seed=13)
    records = fit(net, train, test, epochs=1, batch_size=50, lr_start=0.01,
                  lr_fin=0.001, seed=13)
    fractions, sparsity = zero_fraction_oracle(net, test, EVAL_BATCH)
    assert len(fractions) == 2 and all(0.0 < f < 1.0 for f in fractions)
    assert records[-1].zero_fractions == fractions
    assert records[-1].sparsity == sparsity
    assert evaluate(net, test)[1] == sparsity
    monkeypatch.setattr(gxnor.network, "EVAL_BATCH", 7)
    assert evaluate(net, test)[1] == zero_fraction_oracle(net, test, 7)[1]


class TestPackedInference:
    def trained_net(self):
        train = synthetic_blobs(n=600, classes=4, dim=16, seed=71)
        net = build_network("mlp-16-32-16-4", input_shape=(1, 1, 16), classes=4,
                            seed=11)
        fit(net, train, train, epochs=4, batch_size=50, lr_start=0.01,
            lr_fin=0.001, seed=11)
        return net, train

    def test_packed_matches_float_path_exactly(self):
        net, data = self.trained_net()
        float_acc, _ = evaluate(net, data)
        packed_acc, report = packed_evaluate(net, data)
        assert packed_acc == float_acc
        assert 0.0 <= report.resting_fraction <= 1.0
        assert report.xnor_ops > 0

    def test_score_check_reports_float_accuracy_and_packed_ops(self, monkeypatch):
        net, data = self.trained_net()
        monkeypatch.setattr(gxnor.network, "EVAL_BATCH", 70)
        accuracy, sparsity, report = check_packed_scores(net, data)
        assert (accuracy, sparsity) == evaluate(net, data)
        assert report == packed_evaluate(net, data)[1]

    def test_hidden_preactivations_are_integers(self):
        net, data = self.trained_net()
        x = data.images[:40]
        seen_hidden_dense = False
        ternary_in = False
        for layer in net.layers:
            if isinstance(layer, Dense) and ternary_in:
                out = layer.forward(x, training=False)
                assert np.array_equal(out, np.rint(out))
                seen_hidden_dense = True
                x = out
            else:
                x = layer.forward(x, training=False)
            ternary_in = isinstance(layer, QuantAct)
        assert seen_hidden_dense

    def test_first_layer_weights_are_never_packed(self, monkeypatch):
        # The first dense layer sees real pixels and runs on the float path,
        # so packing its 784-lane weights would be wasted work.
        net = build_network("mlp-784-24-16-10", seed=3)
        g = np.random.default_rng(4)
        data = Dataset(images=np.clip(g.normal(0, 0.5, (60, 1, 28, 28)), -1, 1),
                       labels=g.integers(0, 10, 60), classes=10)
        lanes = []

        def spy(values):
            lanes.append(np.shape(values)[1])
            return pack_ternary_matrix(values)
        monkeypatch.setattr(gxnor.network, "pack_ternary_matrix", spy)
        packed_acc, _ = packed_evaluate(net, data)
        monkeypatch.setattr(gxnor.network, "EVAL_BATCH", 25)
        accuracy, _, _ = check_packed_scores(net, data)
        assert lanes and 784 not in lanes
        assert packed_acc == accuracy == evaluate(net, data)[0]

    def test_eligibility_is_ternary_unit_dense_only(self):
        shape = dict(input_shape=(1, 1, 16), classes=4)
        assert packed_eligible(build_network("mlp-16-8-4", **shape))
        assert not packed_eligible(build_network("mlp-16-8-4", n1=2, r=0.1, a=0.2, **shape))
        assert not packed_eligible(build_network("mlp-16-8-4", h=2.0, **shape))
        assert not packed_eligible(
            build_network("conv-2c3-4fc", input_shape=(1, 6, 6), classes=3))

    def test_rejects_multilevel_grids(self):
        net = build_network("mlp-16-8-4", input_shape=(1, 1, 16), classes=4, n1=2,
                            r=0.1, a=0.2)
        data = synthetic_blobs(n=50, classes=4, dim=16, seed=81)
        with pytest.raises(ValueError):
            packed_evaluate(net, data)

    def test_rejects_conv_stacks(self):
        net = build_network("conv-2c3-4fc", input_shape=(1, 6, 6), classes=3)
        data = synthetic_blobs(n=20, classes=3, dim=36, seed=82)
        images = data.images.reshape(20, 1, 6, 6)
        square = Dataset(images=images, labels=data.labels, classes=3)
        with pytest.raises(ValueError):
            packed_evaluate(net, square)


class TestSecondSight:
    """Each batch-norm -> quantized-activation pair runs as compiled compares
    from the second batch that sees the same state on."""

    def trained_net(self):
        train = synthetic_blobs(n=300, classes=4, dim=16, seed=95)
        net = build_network("mlp-16-32-16-4", input_shape=(1, 1, 16), classes=4, seed=5)
        fit(net, train, train, epochs=1, batch_size=50, lr_start=0.01, lr_fin=0.001, seed=5)
        return net, train

    def test_unchanged_net_runs_no_pair_on_its_second_evaluate(self, monkeypatch):
        net, data = self.trained_net()
        # Three batches: the first runs the layers, the second compiles.
        monkeypatch.setattr(gxnor.network, "EVAL_BATCH", 100)
        first = evaluate(net, data)
        calls = []
        for cls in (BatchNorm, QuantAct):
            def spy(layer, x, training, forward=cls.forward):
                calls.append((type(layer).__name__, training))
                return forward(layer, x, training)
            monkeypatch.setattr(cls, "forward", spy)
        assert evaluate(net, data) == first
        assert calls == []
        assert check_packed_scores(net, data)[:2] == first and calls == []

    @pytest.mark.parametrize("change", ["running_mean", "train_step", "zero_gamma"])
    def test_changed_state_recompiles_on_second_sight(self, change, monkeypatch):
        net, data = self.trained_net()
        images = data.images[:EVAL_BATCH]
        evaluate(net, data)
        evaluate(net, data)  # compiled: one batch each
        before = gxnor.network._walk(net, images)[0]
        compiled = []
        monkeypatch.setattr(gxnor.network, "compile_pair",
                            lambda bn, qa, real=gxnor.network.compile_pair:
                            compiled.append(bn) or real(bn, qa))
        norms = [l for l in net.layers if isinstance(l, BatchNorm)]
        if change == "running_mean":
            norms[0].running_mean[3] += 5.0
        elif change == "zero_gamma":  # a pair that is not monotone runs unfused
            norms[0].gamma.value[3] = 0.0
        else:
            train_step(net, data.images[:50], data.labels[:50],
                       DstOptimizer(net.grid_params()), AdamOptimizer(net.real_params()))
        expected = net.enter(images)
        for layer in net.layers:  # every layer, unfused
            expected = layer.forward(expected, training=False)
        assert not np.array_equal(expected, before)
        fractions, _ = zero_fraction_oracle(net, data, EVAL_BATCH)
        ran = []

        def spy(layer, x, training, forward=BatchNorm.forward):
            if len(x) == len(images):  # not a compile's threshold candidates
                ran.append(layer)
            return forward(layer, x, training)
        monkeypatch.setattr(BatchNorm, "forward", spy)
        unfused = norms[:1] if change == "zero_gamma" else []
        for sight, compiles, runs in ((1, 0, norms), (2, 2, unfused), (3, 2, unfused)):
            ran.clear()
            scores, zeros = gxnor.network._walk(net, images)
            assert scores.tobytes() == expected.tobytes(), sight
            assert tuple(zeros) == fractions, sight
            assert len(compiled) == compiles, sight
            assert ran == runs, sight

    def test_inference_forward_is_the_walk(self):
        """Two inference ``forward`` calls on an unchanged net compile its
        folds, and both give the scores that ``_walk`` gives."""
        net, data = self.trained_net()
        images = data.images[:EVAL_BATCH]
        first, second = net.forward(images), net.forward(images)
        assert net._fold_slot[1] is not None
        walked = gxnor.network._walk(net, images)[0]
        assert first.tobytes() == second.tobytes() == walked.tobytes()

    def test_packed_walk_takes_planes_from_the_compares(self, monkeypatch):
        net, data = self.trained_net()
        monkeypatch.setattr(gxnor.network, "EVAL_BATCH", 7)
        packed_rows = []

        def spy(values):
            packed_rows.append(len(values))
            return pack_ternary_matrix(values)
        monkeypatch.setattr(gxnor.network, "pack_ternary_matrix", spy)
        accuracy, sparsity, report = check_packed_scores(net, data)
        assert (accuracy, sparsity) == evaluate(net, data)
        assert report == packed_evaluate(net, data)[1]
        # Each batch's float walk runs before its packed walk, so the packed
        # walk always finds the state seen: only weights (16 and 4 rows) are
        # ever packed.
        assert set(packed_rows) == {16, 4}
