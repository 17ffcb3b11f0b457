import weakref

import numpy as np
import pytest

import brute
from hagcn import tensor as T
from hagcn.layers import BatchNorm
from hagcn.tensor import Tensor, backward, grad_check
from hagcn.temporal import DILATIONS, TemporalBranch, TemporalConv
from test_tensor import same_bits


def toy_layer(channels=8, stride=1, mode="multiscale", seed=0):
    layer = TemporalConv(channels, stride=stride, mode=mode,
                         rng=np.random.default_rng(seed))
    brute.randomize_layer(layer, np.random.default_rng(seed + 50))
    return layer


def toy_input(channels=8, seed=1, n=2, t=12, v=4):
    return Tensor(np.random.default_rng(seed).standard_normal((n, channels, t, v)))


def set_identity_bn(bn):
    bn.gamma.data[...] = 1.0
    bn.beta.data[...] = 0.0
    bn.running_mean[...] = 0.0
    bn.running_var[...] = 1.0 - bn.eps  # sqrt(rv + eps) == 1 exactly


class TestShapes:
    def test_multiscale_preserves_channels(self):
        out = toy_layer().forward(toy_input(), training=False)
        assert out.data.shape == (2, 8, 12, 4)

    def test_stride_halves_frames(self):
        out = toy_layer(stride=2).forward(toy_input(t=12), training=False)
        assert out.data.shape == (2, 8, 6, 4)
        out = toy_layer(stride=2).forward(toy_input(t=13), training=False)
        assert out.data.shape == (2, 8, 7, 4)

    def test_single_mode_shape(self):
        out = toy_layer(mode="single").forward(toy_input(), training=False)
        assert out.data.shape == (2, 8, 12, 4)

    def test_channels_not_divisible(self):
        with pytest.raises(ValueError, match="divisible"):
            TemporalConv(6, rng=np.random.default_rng(0))

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            TemporalConv(8, mode="pyramid", rng=np.random.default_rng(0))


class TestBranchSemantics:
    def test_fixed_dilation_order(self):
        layer = toy_layer()
        assert tuple(br.dilation for br in layer.branches) == DILATIONS

    def test_identity_configuration_round_trips(self):
        # branch b selects channel slice [2b, 2b+2) with its 1x1 kernel and a
        # center-tap 3x1 kernel; positive inputs survive the mid ReLU, so the
        # concatenated output reproduces the input
        layer = TemporalConv(8, rng=np.random.default_rng(0))
        for bidx, br in enumerate(layer.branches):
            br.reduce_w.data[...] = 0.0
            for o in range(2):
                br.reduce_w.data[o, bidx * 2 + o, 0, 0] = 1.0
            br.reduce_b.data[...] = 0.0
            br.conv_w.data[...] = 0.0
            for o in range(2):
                br.conv_w.data[o, o, 1, 0] = 1.0
            br.conv_b.data[...] = 0.0
            set_identity_bn(br.bn_mid)
            set_identity_bn(br.bn_out)
        x = Tensor(np.abs(np.random.default_rng(3).standard_normal((2, 8, 10, 3))) + 0.1)
        out = layer.forward(x, training=False)
        assert np.allclose(out.data, x.data, atol=1e-12)

    def test_receptive_field_per_dilation(self):
        # an impulse at frame tau reaches exactly [tau - d, tau + d]
        channels, t_len, tau = 8, 21, 10
        layer = TemporalConv(channels, rng=np.random.default_rng(1))
        for br in layer.branches:
            br.reduce_w.data[...] = 0.1
            br.reduce_b.data[...] = 0.0
            br.conv_w.data[...] = 0.1
            br.conv_b.data[...] = 0.0
            set_identity_bn(br.bn_mid)
            set_identity_bn(br.bn_out)
        x = np.zeros((1, channels, t_len, 2))
        x[:, :, tau, :] = 1.0
        out = layer.forward(Tensor(x), training=False).data
        for bidx, d in enumerate(DILATIONS):
            sl = out[0, bidx * 2:(bidx + 1) * 2]
            nonzero_frames = np.where(np.any(sl != 0, axis=(0, 2)))[0]
            assert nonzero_frames.tolist() == [tau - d, tau, tau + d]


class TestOracleEquivalence:
    def test_multiscale_eval_matches_brute(self):
        layer = toy_layer(seed=2)
        x = toy_input(seed=7)
        got = layer.forward(x, training=False).data
        want = brute.temporal_multiscale_eval(layer, x.data)
        assert np.abs(got - want).max() <= 1e-10

    def test_multiscale_strided_matches_brute(self):
        layer = toy_layer(stride=2, seed=3)
        x = toy_input(seed=8, t=11)
        got = layer.forward(x, training=False).data
        want = brute.temporal_multiscale_eval(layer, x.data)
        assert np.abs(got - want).max() <= 1e-10

    def test_single_mode_matches_brute(self):
        layer = toy_layer(mode="single", seed=4)
        x = toy_input(seed=9)
        got = layer.forward(x, training=False).data
        want = brute.conv_temporal(x.data, layer.w.data, layer.b.data,
                                   stride=1, dilation=1, pad=4)
        assert np.abs(got - want).max() <= 1e-10

    def test_train_mode_branch_matches_brute_batch_norm(self):
        br = TemporalBranch(4, 2, dilation=2, stride=1,
                            rng=np.random.default_rng(5))
        brute.randomize_layer(br, np.random.default_rng(6))
        x = toy_input(channels=4, seed=10, t=9)
        got = br.forward(x, training=True, stats_sink=[]).data
        y = brute.conv1x1(x.data, br.reduce_w.data, br.reduce_b.data)
        y = brute.batch_norm_train(y, br.bn_mid.gamma.data, br.bn_mid.beta.data)
        y = np.where(y > 0, y, 0.0)
        y = brute.conv_temporal(y, br.conv_w.data, br.conv_b.data,
                                stride=1, dilation=2, pad=2)
        want = brute.batch_norm_train(y, br.bn_out.gamma.data,
                                      br.bn_out.beta.data)
        assert np.abs(got - want).max() <= 1e-10


class TestState:
    def test_training_updates_running_stats(self):
        layer = toy_layer(seed=11)
        before = {n: b.copy() for n, b in layer.named_buffers()}
        sink = []
        layer.forward(toy_input(seed=12), training=True, stats_sink=sink)
        for bn, mean, var in sink:
            bn.apply_stats(mean, var)
        after = dict(layer.named_buffers())
        assert all(not np.array_equal(before[n], after[n]) for n in before)

    def test_eval_leaves_running_stats(self):
        layer = toy_layer(seed=13)
        before = {n: b.copy() for n, b in layer.named_buffers()}
        layer.forward(toy_input(seed=14), training=False)
        after = dict(layer.named_buffers())
        assert all(np.array_equal(before[n], after[n]) for n in before)

    def test_stats_sink_defers_updates(self):
        layer = toy_layer(seed=15)
        before = {n: b.copy() for n, b in layer.named_buffers()}
        sink = []
        layer.forward(toy_input(seed=16), training=True, stats_sink=sink)
        after = dict(layer.named_buffers())
        assert all(np.array_equal(before[n], after[n]) for n in before)
        assert len(sink) == 8  # two norms per branch
        for bn, mean, var in sink:
            bn.apply_stats(mean, var)
        final = dict(layer.named_buffers())
        assert all(not np.array_equal(before[n], final[n]) for n in before)

    def test_gradients_train_mode(self):
        layer = toy_layer(channels=4, seed=17)
        # fresh stats each call keep fn pure; batch stats drive the math
        xdata = np.random.default_rng(18).standard_normal((2, 4, 6, 3))

        def fn(t):
            return layer.forward(t, training=True, stats_sink=[])

        assert grad_check(fn, Tensor(xdata, requires_grad=True)) < 2e-6


# (mode, stride) of the temporal convs a block can hold
REPLAY_CASES = [("multiscale", 1), ("multiscale", 2), ("single", 1)]


def normed_stack(mode, stride, seed=20):
    """A batch norm feeding a temporal conv, as in a block, and an input."""
    layer = toy_layer(stride=stride, mode=mode, seed=seed)
    bn = BatchNorm(8)
    brute.randomize_layer(bn, np.random.default_rng(seed + 1))
    x = np.random.default_rng(seed + 2).standard_normal((2, 8, 12, 4))
    return layer, bn, x


def stack_forward(layer, bn, x):
    """The norm's output and the temporal output."""
    y = bn.forward(x, True, [])
    return y, layer.forward(y, True, [])


def keep_inputs(monkeypatch):
    """Make every conv keep its input, as before the replay."""
    monkeypatch.setattr(T, "_replayed", lambda out, kernel, source: out)


class TestInputReplay:
    """No temporal conv keeps its input for the weight gradient: the
    batch-normed input and each dilated conv's ``relu(bn_mid(.))`` are
    replayed in backward."""

    @staticmethod
    def inputs_alive(mode, stride, monkeypatch):
        """Whether each conv input outlives the forward: the norm's output,
        then each branch's relu output."""
        refs, relu = [], T.relu

        def spy(x):
            out = relu(x)
            refs.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(T, "relu", spy)
        layer, bn, x = normed_stack(mode, stride)
        y, out = stack_forward(layer, bn, Tensor(x, requires_grad=True))
        refs.insert(0, weakref.ref(y.data))
        del y
        alive = [r() is not None for r in refs]
        assert backward(T.tsum(out))
        return alive

    @pytest.mark.parametrize("mode,stride", REPLAY_CASES)
    def test_inputs_die_after_forward(self, mode, stride, monkeypatch):
        count = 1 if mode == "single" else 1 + len(DILATIONS)
        assert self.inputs_alive(mode, stride, monkeypatch) == [False] * count
        keep_inputs(monkeypatch)
        assert self.inputs_alive(mode, stride, monkeypatch) == [True] * count

    @staticmethod
    def grads(mode, stride):
        layer, bn, xdata = normed_stack(mode, stride, seed=30)
        x = Tensor(xdata, requires_grad=True)
        out = stack_forward(layer, bn, x)[1]
        c = np.random.default_rng(4).standard_normal(out.data.shape)
        g = backward(T.tsum(T.mul(out, c)))
        params = list(layer.named_params()) + list(bn.named_params())
        return [out.data, g[x.node]] + [g[p.node] for _, p in params]

    @pytest.mark.parametrize("mode,stride", REPLAY_CASES)
    def test_gradients_match_kept_inputs(self, mode, stride, monkeypatch):
        got = self.grads(mode, stride)
        keep_inputs(monkeypatch)
        want = self.grads(mode, stride)
        assert len(got) == (6 if mode == "single" else 36)
        assert all(same_bits(a, b) for a, b in zip(got, want))
