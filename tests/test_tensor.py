import io
import struct
import threading
import weakref

import numpy as np
import pytest

import brute
from hagcn import serialize
from hagcn import tensor as T
from hagcn.errors import FormatError, NondeterminismError
from hagcn.tensor import Tensor, backward, grad_check
from test_graph_memory import gm


def randt(shape, seed=0, shift=0.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape) + shift, requires_grad=True)


class TestForwardValues:
    def test_matmul_small(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        assert np.array_equal(T.matmul(a, b).data, [[17.0], [39.0]])

    def test_matmul_batched_broadcast(self):
        a = np.arange(24.0).reshape(2, 2, 2, 3)
        b = np.arange(6.0).reshape(1, 1, 3, 2)
        out = T.matmul(Tensor(a), Tensor(b))
        assert out.data.shape == (2, 2, 2, 2)
        assert np.allclose(out.data, np.matmul(a, b))

    def test_matmul_rank1_rejected(self):
        with pytest.raises(ValueError):
            T.matmul(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]))

    def test_matmul_inner_mismatch(self):
        with pytest.raises(ValueError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_conv_temporal_same_pad(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]).reshape(1, 1, 3, 1))
        w = Tensor(np.ones((1, 1, 3, 1)))
        out = T.conv2d(x, w, np.zeros(1), pad=1)
        assert np.array_equal(out.data.ravel(), [3.0, 6.0, 5.0])

    def test_conv_temporal_stride(self):
        x = Tensor(np.array([1.0, 2, 3, 4, 5]).reshape(1, 1, 5, 1))
        w = Tensor(np.ones((1, 1, 3, 1)))
        out = T.conv2d(x, w, np.zeros(1), stride=2, pad=1)
        assert np.array_equal(out.data.ravel(), [3.0, 9.0, 9.0])

    def test_conv_temporal_dilation(self):
        x = Tensor(np.array([1.0, 2, 3, 4, 5]).reshape(1, 1, 5, 1))
        w = Tensor(np.ones((1, 1, 3, 1)))
        out = T.conv2d(x, w, np.zeros(1), dilation=2, pad=2)
        assert np.array_equal(out.data.ravel(), [4.0, 6.0, 9.0, 6.0, 8.0])

    def test_conv_bias_and_channels(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 4, 5))
        w = rng.standard_normal((6, 3, 1, 1))
        b = rng.standard_normal(6)
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(b))
        ref = np.einsum("ncts,ocn->nots", x, w[:, :, 0, 0].reshape(6, 3, 1).transpose(0, 1, 2))
        ref = np.einsum("nctv,oc->notv", x, w[:, :, 0, 0]) + b.reshape(1, 6, 1, 1)
        assert np.allclose(out.data, ref, atol=1e-12)

    def test_conv_channel_mismatch(self):
        with pytest.raises(ValueError):
            T.conv2d(Tensor(np.ones((1, 2, 3, 4))), Tensor(np.ones((1, 3, 1, 1))),
                     np.zeros(1))

    def test_conv_kernel_too_large(self):
        with pytest.raises(ValueError):
            T.conv2d(Tensor(np.ones((1, 1, 2, 1))), Tensor(np.ones((1, 1, 5, 1))),
                     np.zeros(1))

    def test_conv_rejects_joint_kernel(self):
        with pytest.raises(ValueError, match="k_t, 1"):
            T.conv2d(Tensor(np.ones((2, 3, 10, 4))), Tensor(np.ones((4, 3, 3, 2))),
                     np.zeros(4), pad=1)

    def test_batch_norm_constant_input_is_beta(self):
        x = Tensor(np.full((2, 3, 2, 2), 5.0))
        gamma, beta = Tensor(np.ones(3)), Tensor(np.zeros(3))
        out = T.batch_norm(x, gamma, beta)
        assert np.array_equal(out.data, np.zeros((2, 3, 2, 2)))

    def test_batch_norm_normalizes_per_channel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 3, 5, 6)) * 3.0 + 1.5
        out = T.batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)
        assert np.allclose(out.data.var(axis=(0, 2, 3)), 1.0, atol=1e-4)

    def test_batch_norm_empty_batch(self):
        with pytest.raises(ValueError):
            T.batch_norm(Tensor(np.ones((0, 3, 2, 2))), Tensor(np.ones(3)),
                         Tensor(np.zeros(3)))

    def test_layer_norm_per_sample(self):
        # two samples with different constant values both normalize to beta
        x = np.stack([np.full((3, 2, 2), 7.0), np.full((3, 2, 2), -4.0)])
        out = T.layer_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.array_equal(out.data, np.zeros_like(x))

    def test_layer_norm_statistics(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 4, 5, 2)) * 2.0 - 1.0
        out = T.layer_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)))
        assert np.allclose(out.data.mean(axis=(1, 2, 3)), 0.0, atol=1e-12)
        assert np.allclose(out.data.var(axis=(1, 2, 3)), 1.0, atol=1e-4)

    def test_softmax_matches_direct_formula(self):
        x = np.array([[1.0, 2.0, 3.0]])
        e = np.exp(x - x.max())
        assert np.allclose(T.softmax(Tensor(x), axis=1).data, e / e.sum(), atol=1e-12)

    def test_softmax_rows_normalized(self):
        x = randt((7, 11), seed=2)
        s = T.softmax(x, axis=1).data
        assert np.all(s >= 0)
        assert np.allclose(s.sum(axis=1), 1.0, atol=1e-12)

    def test_tanh_value(self):
        out = T.tanh(Tensor([1.0]))
        assert np.isclose(out.data[0], 0.7615941559557649, atol=1e-15)

    def test_dropout_scaling(self):
        x = Tensor(np.ones((100, 100)))
        rng = np.random.default_rng(0)
        out = T.dropout(x, 0.5, rng)
        kept = out.data != 0
        assert np.allclose(out.data[kept], 2.0)
        assert abs(kept.mean() - 0.5) < 0.05

    def test_dropout_zero_rate_is_identity(self):
        x = Tensor(np.ones(4))
        assert T.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_dropout_bad_rate(self):
        with pytest.raises(ValueError):
            T.dropout(Tensor(np.ones(4)), 1.0, np.random.default_rng(0))

    def test_dropout_needs_an_rng_at_a_positive_rate(self):
        with pytest.raises(ValueError, match="rng"):
            T.dropout(Tensor(np.ones(4)), 0.5, None)
        x = Tensor(np.ones(4))
        assert T.dropout(x, 0.0, None) is x

    def test_dropout_is_a_masked_product_of_one_draw(self):
        x = randt((6, 5), seed=4)
        g = np.random.default_rng(5).standard_normal((6, 5))
        rng, twin = np.random.default_rng(6), np.random.default_rng(6)
        out = T.dropout(x, 0.4, rng)
        keep = (twin.random((6, 5)) >= 0.4) / (1.0 - 0.4)
        assert out.data.tobytes() == (x.data * keep).tobytes()
        grads = backward(T.tsum(T.mul(out, g)))
        assert grads[x.node].tobytes() == (g * keep).tobytes()
        assert rng.random(3).tobytes() == twin.random(3).tobytes()

    def test_concat_and_reductions(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.full((2, 2), 2.0))
        out = T.concat([a, b], axis=1)
        assert out.data.shape == (2, 5)
        assert np.isclose(T.tsum(out).data, 14.0)
        assert np.isclose(T.tmean(out, axes=1).data.mean(), 1.4)

    @pytest.mark.parametrize("axes, np_axes, keepdims", [
        (-2, -2, False), (-1, -1, True), ([2, 0], (2, 0), False),
        ([-1, 1], (-1, 1), True)])
    def test_tmean_takes_axes_as_numpy_does(self, axes, np_axes, keepdims):
        x = randt((2, 3, 4), seed=8)
        out = T.tmean(x, axes=axes, keepdims=keepdims)
        want = x.data.mean(axis=np_axes, keepdims=keepdims)
        assert out.data.shape == want.shape
        assert out.data.tobytes() == want.tobytes()

    def test_tmean_refuses_a_repeated_axis(self):
        with pytest.raises(ValueError):
            T.tmean(randt((2, 3)), axes=(1, -1))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = randt((3, 4), seed=1)
        grads = backward(T.tsum(x))
        assert np.array_equal(grads[x.node], np.ones((3, 4)))

    def test_square_gradient(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        grads = backward(T.tsum(T.mul(x, x)))
        assert np.allclose(grads[x.node], [6.0])

    def test_non_scalar_loss_rejected(self):
        x = randt((2, 2))
        with pytest.raises(ValueError):
            backward(T.mul(x, x))

    def test_cycle_detection(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        out = T.mul(x, x)
        out.node.parents = (out.node,)  # deliberate graph abuse
        with pytest.raises(ValueError, match="cycle"):
            backward(out)

    def test_constant_subgraphs_pruned(self):
        a = Tensor(np.ones(3))
        b = Tensor(np.ones(3))
        out = T.add(a, b)
        assert out.node is None and not out.requires_grad

    def test_graph_is_spent_after_one_walk(self):
        x = randt((3, 4), seed=3)
        h = T.tanh(x)
        loss = T.tsum(T.mul(h, x))
        grads = backward(loss)
        first = {k: np.array(v) for k, v in grads.items()}
        with pytest.raises(RuntimeError, match="already walked"):
            backward(loss)
        assert grads.keys() == first.keys()
        assert all(same_bits(grads[k], first[k]) for k in first)
        # a second loss over the spent part raises before running anything
        other = T.tsum(T.mul(h, 2.0))
        with pytest.raises(RuntimeError, match="already walked"):
            backward(other)
        assert other.node.backward not in (None, T._spent)
        # leaves are never spent: a fresh forward over them walks again
        assert x.node.backward is None
        again = backward(T.tsum(T.mul(T.tanh(x), x)))
        assert same_bits(again[x.node], first[x.node])

    def test_grad_map_collection(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        grads = backward(T.tsum(T.mul(x, x)))
        assert list(grads) == [x.node]
        assert np.allclose(grads[x.node], [6.0])


class TestGradCheck:
    def test_reports_max_relative_error(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        err = grad_check(lambda t: T.mul(t, t), x)
        assert err < 1e-7

    def test_flags_nondeterminism(self):
        rng = np.random.default_rng(0)

        def noisy(t):
            return T.add(t, Tensor(rng.standard_normal(t.data.shape)))

        with pytest.raises(NondeterminismError):
            grad_check(noisy, randt((3,)))


FD_CASES = [
    ("add_broadcast", lambda t: T.add(t, Tensor(np.arange(4.0).reshape(1, 4))), (3, 4), 0.0),
    ("add_broadcast_rhs", lambda t: T.add(Tensor(np.arange(3.0).reshape(3, 1)), t), (1, 4), 0.0),
    ("sub", lambda t: T.sub(t, Tensor(np.ones((2, 3)))), (2, 3), 0.0),
    ("mul_broadcast", lambda t: T.mul(t, Tensor(np.arange(1.0, 4.0))), (5, 3), 0.0),
    ("matmul_lhs", lambda t: T.matmul(t, Tensor(np.arange(12.0).reshape(4, 3))), (2, 4), 0.0),
    ("matmul_rhs", lambda t: T.matmul(Tensor(np.arange(8.0).reshape(2, 4)), t), (4, 3), 0.0),
    ("matmul_batched", lambda t: T.matmul(t, Tensor(np.arange(6.0).reshape(1, 3, 2) / 7)), (4, 2, 3), 0.0),
    ("relu", T.relu, (6, 5), 0.5),
    ("tanh", T.tanh, (4, 4), 0.0),
    ("softmax", lambda t: T.softmax(t, axis=1), (3, 5), 0.0),
    ("log_softmax", lambda t: T.log_softmax(t, axis=1), (3, 5), 0.0),
    ("sum", T.tsum, (2, 3, 4), 0.0),
    ("mean_keepdims", lambda t: T.tmean(t, axes=1, keepdims=True), (3, 4), 0.0),
    ("mean_negative_axis", lambda t: T.tmean(t, axes=-2), (2, 3, 4), 0.0),
    ("mean_axes_list", lambda t: T.tmean(t, axes=[2, 0]), (2, 3, 4), 0.0),
    ("reshape", lambda t: T.reshape(t, (6, 2)), (3, 4), 0.0),
    ("transpose", lambda t: T.transpose(t, (2, 0, 1)), (2, 3, 4), 0.0),
    ("concat", lambda t: T.concat([t, T.mul(t, t)], axis=0), (2, 3), 0.0),
]


@pytest.mark.parametrize("name,fn,shape,shift", FD_CASES, ids=[c[0] for c in FD_CASES])
def test_finite_difference(name, fn, shape, shift):
    assert grad_check(fn, randt(shape, seed=7, shift=shift)) < 1e-6


CONV_CASES = [
    ("conv_1x1", (5, 3, 1, 1), dict()),
    ("conv_3x1_pad", (4, 3, 3, 1), dict(pad=1)),
    ("conv_3x1_stride", (4, 3, 3, 1), dict(stride=2, pad=1)),
    ("conv_3x1_dilated", (4, 3, 3, 1), dict(dilation=3, pad=3)),
    ("conv_9x1", (2, 3, 9, 1), dict(pad=4)),
]


@pytest.mark.parametrize("name,wshape,kw", CONV_CASES, ids=[c[0] for c in CONV_CASES])
def test_conv_finite_difference(name, wshape, kw):
    rng = np.random.default_rng(11)
    w = Tensor(rng.standard_normal(wshape), requires_grad=True)
    b = Tensor(rng.standard_normal(wshape[0]), requires_grad=True)
    xdata = rng.standard_normal((2, wshape[1], 10, 4))

    assert grad_check(lambda t: T.conv2d(t, w, b, **kw),
                      Tensor(xdata.copy(), requires_grad=True)) < 1e-6
    assert grad_check(lambda t: T.conv2d(Tensor(xdata), t, b, **kw), w) < 1e-6
    assert grad_check(lambda t: T.conv2d(Tensor(xdata), w, t, **kw), b) < 1e-6


class TestNormGradients:
    def test_batch_norm_train_mode(self):
        rng = np.random.default_rng(0)
        gamma = Tensor(rng.standard_normal(3) + 1.0, requires_grad=True)
        beta = Tensor(rng.standard_normal(3), requires_grad=True)

        fn = lambda t: T.batch_norm(t, gamma, beta)
        assert grad_check(fn, randt((3, 3, 4, 2), seed=4)) < 1e-5
        x = Tensor(np.random.default_rng(4).standard_normal((3, 3, 4, 2)))
        assert grad_check(lambda t: T.batch_norm(x, t, beta), gamma) < 1e-6
        assert grad_check(lambda t: T.batch_norm(x, gamma, t), beta) < 1e-6

    def test_batch_norm_eval_mode(self):
        rng = np.random.default_rng(1)
        gamma = Tensor(rng.standard_normal(3), requires_grad=True)
        beta = Tensor(rng.standard_normal(3), requires_grad=True)
        rm, rv = rng.standard_normal(3), rng.random(3) + 0.5
        fn = lambda t: T.batch_norm(t, gamma, beta, rm, rv)
        assert grad_check(fn, randt((2, 3, 3, 2), seed=9)) < 1e-6

    def test_layer_norm(self):
        rng = np.random.default_rng(2)
        gamma = Tensor(rng.standard_normal(4) + 1.0, requires_grad=True)
        beta = Tensor(rng.standard_normal(4), requires_grad=True)
        fn = lambda t: T.layer_norm(t, gamma, beta)
        assert grad_check(fn, randt((2, 4, 3, 3), seed=12)) < 1e-5
        x = Tensor(np.random.default_rng(12).standard_normal((2, 4, 3, 3)))
        assert grad_check(lambda t: T.layer_norm(x, t, beta), gamma) < 1e-6
        assert grad_check(lambda t: T.layer_norm(x, gamma, t), beta) < 1e-6

    def test_dropout_gradient_fixed_mask(self):
        def fn(t):
            return T.dropout(t, 0.4, np.random.default_rng(123))

        assert grad_check(fn, randt((5, 5), seed=3)) < 1e-6


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def upstream_layouts(shape, seed):
    """The same upstream gradient as a C array, a transposed view and a
    read-only broadcast, the layouts closures hand to the norm kernels."""
    rng = np.random.default_rng(seed)
    n, c, t, v = shape
    yield rng.standard_normal(shape)
    yield np.swapaxes(rng.standard_normal((n, c, v, t)), 2, 3)
    yield np.broadcast_to(rng.standard_normal((1, c, 1, v)), shape)


class TestKernelsMatchFormulas:
    """The pass-lean norm and conv kernels keep the plain formulas' bits."""

    def test_batch_norm_stats_are_numpy_mean_and_var(self):
        x = np.random.default_rng(0).standard_normal((5, 16, 7, 9)) * 3.0 + 1.5
        stats = []
        T.batch_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16)),
                     stats_out=stats)
        (mean, var), = stats
        assert same_bits(mean, x.mean(axis=(0, 2, 3)))
        assert same_bits(var, x.var(axis=(0, 2, 3)))

    @pytest.mark.parametrize("running", [False, True])
    def test_batch_norm_matches_formula(self, running):
        rng = np.random.default_rng(1)
        shape = (3, 4, 7, 5)
        x = rng.standard_normal(shape) * 2.0 - 0.5
        gamma, beta = rng.standard_normal(4) + 1.0, rng.standard_normal(4)
        stats = (rng.standard_normal(4), rng.random(4) + 0.5) if running else None
        for g in upstream_layouts(shape, seed=2):
            xt, gt, bt = (Tensor(a.copy(), requires_grad=True)
                          for a in (x, gamma, beta))
            out = T.batch_norm(xt, gt, bt, *(stats or ()))
            want = brute.batch_norm_formula(x, gamma, beta, g, running=stats)
            assert same_bits(out.data, want[0])
            for got, ref in zip(out._backward(g), want[1:4]):
                assert same_bits(got, ref)
        with T.no_grad():  # the in-place eval path
            out = T.batch_norm(Tensor(x), Tensor(gamma), Tensor(beta),
                               *(stats or ()))
        assert same_bits(out.data, want[0])

    def test_layer_norm_matches_formula(self):
        rng = np.random.default_rng(3)
        shape = (12, 4, 6, 5)
        x = rng.standard_normal(shape) * 1.5 + 0.7
        gamma, beta = rng.standard_normal(4) + 1.0, rng.standard_normal(4)
        for g in upstream_layouts(shape, seed=4):
            xt, gt, bt = (Tensor(a.copy(), requires_grad=True)
                          for a in (x, gamma, beta))
            out = T.layer_norm(xt, gt, bt)
            want = brute.layer_norm_formula(x, gamma, beta, g)
            assert same_bits(out.data, want[0])
            for got, ref in zip(out._backward(g), want[1:]):
                assert same_bits(got, ref)

    def test_direct_1x1_conv_backward_matches_tap_loop(self):
        # a pad=1 3x1 kernel with zero outer taps runs the general tap loop
        # over the same products; only the sign of zeros may differ
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 10, 4))
        w1 = rng.standard_normal((5, 3, 1, 1))
        w3 = np.zeros((5, 3, 3, 1))
        w3[:, :, 1:2] = w1
        b = rng.standard_normal(5)
        g = rng.standard_normal((2, 5, 10, 4))
        direct = T.conv2d(Tensor(x, True), Tensor(w1, True), Tensor(b, True))
        loop = T.conv2d(Tensor(x, True), Tensor(w3, True), Tensor(b, True),
                        pad=1)
        dx, dw, db = direct._backward(g)
        lx, lw, lb = loop._backward(g)
        assert same_bits(direct.data + 0.0, loop.data + 0.0)
        assert same_bits(dx + 0.0, lx + 0.0)
        assert same_bits(dw, lw[:, :, 1:2])
        assert same_bits(db, lb)


class TestFlowAccumulation:
    """Fan-in sums are added in place only into buffers backward allocated."""

    @staticmethod
    def record_returns(loss):
        """Wrap every closure so each array it returns is snapshotted."""
        seen = []
        for node in T._topo(loss.node):
            if node.backward is None:
                continue

            def wrapped(g, fn=node.backward):
                out = fn(g)
                seen.extend((a, np.array(a)) for a in out if a is not None)
                return out

            node.backward = wrapped
        return seen

    def check(self, loss, leaves, want):
        before = [np.array(p.data) for p in leaves]
        seen = self.record_returns(loss)
        grads = backward(loss)
        for p, data, w in zip(leaves, before, want):
            assert same_bits(p.data, data)
            assert np.array_equal(grads[p.node], w)
        assert seen and all(same_bits(a, copy) for a, copy in seen)

    def test_add_of_self(self):
        # y = x + x hands x two views of one array (read-only broadcasts of
        # the tsum gradient), then two more flows arrive
        x = randt((3, 4), seed=6)
        y = T.add(x, x)
        loss = T.tsum(T.add(T.add(y, x), T.mul(x, 2.0)))
        self.check(loss, [x], [np.full((3, 4), 5.0)])

    def test_reshape_fan_out(self):
        x = randt((2, 6), seed=7)
        c = np.arange(12.0).reshape(3, 4)
        h = T.reshape(x, (3, 4))
        parts = [T.mul(h, c), T.reshape(T.mul(h, 2.0), (12,)), T.mul(h, -1.0), h]
        # times 1.0: the split views are of a writable array this time
        cat = T.concat([T.reshape(p, (12,)) for p in parts], axis=0)
        loss = T.tsum(T.mul(cat, 1.0))
        self.check(loss, [x], [(c + 2.0 - 1.0 + 1.0).reshape(2, 6)])

    def test_concat_split_views(self):
        a, b = randt((2, 3), seed=8), randt((2, 2), seed=9)
        cat = T.concat([a, b], axis=1)
        both = T.add(T.mul(cat, 3.0), T.concat([a, b], axis=1))
        loss = T.add(T.tsum(T.mul(both, 1.0)), T.tsum(a))
        self.check(loss, [a, b], [np.full((2, 3), 5.0), np.full((2, 2), 4.0)])


SHAPE = (2, 3, 4, 5)

# ops whose backward never reads this input's values: (op, extra leaf shapes)
UNREAD_INPUT = {
    "add": (lambda h, p: T.add(h, p[0]), [SHAPE]),
    "sub": (lambda h, p: T.sub(p[0], h), [SHAPE]),
    "tsum": (lambda h, p: T.tsum(h), []),
    "tmean": (lambda h, p: T.tmean(h, axes=1, keepdims=True), []),
    "reshape": (lambda h, p: T.reshape(h, (6, 20)), []),
    "concat": (lambda h, p: T.concat([h, p[0]], axis=1), [SHAPE]),
    "relu": (lambda h, p: T.relu(h), []),
    "batch_norm": (lambda h, p: T.batch_norm(h, p[0], p[1]), [(3,), (3,)]),
    "layer_norm": (lambda h, p: T.layer_norm(h, p[0], p[1]), [(3,), (3,)]),
}


class TestGraphMemory:
    """The graph keeps only what backward formulas read."""

    @staticmethod
    def run(op, keep):
        fn, shapes = UNREAD_INPUT[op]
        leaves = [randt(SHAPE, seed=10)]
        leaves += [randt(s, seed=11 + i, shift=1.0) for i, s in enumerate(shapes)]
        h = T.mul(leaves[0], 1.5)  # a fresh interior array
        out = fn(h, leaves[1:])
        c = np.random.default_rng(20).standard_normal(out.data.shape)
        loss = T.tsum(T.mul(out, c))  # c is a constant: out is not saved
        ref = weakref.ref(h.data)
        kept = h if keep else None
        del h, out
        alive = ref() is not None
        grads = backward(loss)
        del kept
        return alive, [grads[p.node] for p in leaves]

    @pytest.mark.parametrize("op", sorted(UNREAD_INPUT))
    def test_unread_input_dies_with_its_last_reference(self, op):
        alive, grads = self.run(op, keep=False)
        assert not alive
        kept_alive, want = self.run(op, keep=True)
        assert kept_alive
        assert all(same_bits(g, w) for g, w in zip(grads, want))

    def test_leaf_node_exists_from_construction(self):
        x = Tensor(np.ones(3), requires_grad=True)
        node = x.node
        assert node is not None and node.parents == () and node.backward is None
        T.mul(x, x)
        assert x.node is node and Tensor(np.ones(3)).node is None

    def test_gradients_are_keyed_by_leaf_node(self):
        # the first leaf's Tensor dies before the second is built, so the two
        # may share an id; their nodes stay distinct keys
        h = T.mul(Tensor(np.full(3, 2.0), requires_grad=True), 2.0)
        dead = h.node.parents[0]
        x = Tensor(np.ones(3), requires_grad=True)
        grads = backward(T.tsum(T.mul(h, x)))
        assert set(grads) == {x.node, dead}
        assert np.array_equal(grads[x.node], np.full(3, 4.0))
        assert np.array_equal(grads[dead], np.full(3, 2.0))


class TestMatmulRecompute:
    """An operand with a ``replay`` is not kept by a product: a's gradient
    calls b's replay instead."""

    @staticmethod
    def run(recompute, a_needs_grad=True):
        a = randt((2, 3, 4), seed=30)
        if not a_needs_grad:
            a = Tensor(a.data)
        w = randt((4, 5), seed=31)
        b = T.mul(w, 1.5)  # a fresh interior array
        calls = []

        def replay():
            calls.append(1)
            return w.data * 1.5

        if recompute:
            b.replay = replay
        out = T.matmul(a, b)
        ref = weakref.ref(b.data)
        c = np.random.default_rng(32).standard_normal(out.data.shape)
        loss = T.tsum(T.mul(out, c))
        del b, out
        alive = ref() is not None
        grads = backward(loss)
        return alive, calls, grads.get(a.node), grads[w.node]

    def test_gradients_match_the_kept_operand(self):
        _, _, ga, gw = self.run(recompute=True)
        _, _, want_a, want_w = self.run(recompute=False)
        assert same_bits(ga, want_a) and same_bits(gw, want_w)

    def test_replay_runs_once_and_only_for_a_gradient(self):
        _, calls, ga, _ = self.run(recompute=True)
        assert calls == [1] and ga is not None
        _, calls, ga, _ = self.run(recompute=True, a_needs_grad=False)
        assert calls == [] and ga is None

    def test_operand_is_unreachable_after_forward(self):
        assert not self.run(recompute=True)[0]
        assert self.run(recompute=False)[0]


class TestConvRecompute:
    """A conv keeps nothing of an input with a ``replay``, padded or not:
    the weight gradient calls the replay and pads again."""

    @staticmethod
    def run(recompute, pad=0, stride=1, x_needs_grad=True, w_needs_grad=True):
        src = randt((2, 3, 11, 4), seed=40)
        x = T.mul(src, 1.5) if x_needs_grad else Tensor(src.data * 1.5)
        w = randt((5, 3, 3, 1), seed=41)
        if not w_needs_grad:
            w = Tensor(w.data)
        b = randt((5,), seed=42)
        calls = []

        def replay():
            calls.append(1)
            return src.data * 1.5

        if recompute:
            x.replay = replay
        out = T.conv2d(x, w, b, stride=stride, dilation=2, pad=pad)
        c = np.random.default_rng(43).standard_normal(out.data.shape)
        grads = backward(T.tsum(T.mul(out, c)))
        return (out.data, calls, grads.get(src.node), grads.get(w.node),
                grads[b.node])

    @pytest.mark.parametrize("pad", [0, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_the_kept_input(self, pad, stride):
        got = self.run(recompute=True, pad=pad, stride=stride)
        want = self.run(recompute=False, pad=pad, stride=stride)
        assert got[1] == [1] and want[1] == []
        for i in (0, 2, 3, 4):  # output, dx, dW, db
            assert got[i] is not None and same_bits(got[i], want[i])

    def test_replay_runs_only_for_the_weight_gradient(self):
        _, calls, dx, dw, _ = self.run(recompute=True, pad=2,
                                       w_needs_grad=False)
        assert calls == [] and dw is None and dx is not None
        _, calls, dx, dw, _ = self.run(recompute=True, pad=2,
                                       x_needs_grad=False)
        assert calls == [1] and dx is None and dw is not None

    def test_no_replay_under_no_grad(self):
        calls = []
        x, w, b = randt((2, 3, 6, 4)), randt((5, 3, 3, 1)), randt((5,))
        x.replay = lambda: calls.append(1)
        with T.no_grad():
            out = T.conv2d(x, w, b, pad=1)
        assert out.node is None and out.replay is None and calls == []

    @pytest.mark.parametrize("pad", [0, 2])
    @pytest.mark.parametrize("recompute", [False, True])
    def test_input_is_unreachable_after_forward(self, pad, recompute):
        x = T.mul(randt((2, 3, 6, 4), seed=44), 1.5)
        w, b = randt((5, 3, 3, 1), seed=45), randt((5,), seed=46)
        ref = weakref.ref(x.data)
        if recompute:
            x.replay = lambda: None
        out = T.conv2d(x, w, b, dilation=2, pad=pad)
        del x
        # the closure keeps neither the input nor a padded copy of it
        held = {a.shape for a in gm._arrays(out.node.backward)}
        kept = ref() is not None or (2, 3, 6 + 2 * pad, 4) in held
        assert kept != recompute


class TestBatchNormReplay:
    """A norm's output carries a ``replay`` that rebuilds its data bit for
    bit, or None when no graph is built."""

    @pytest.mark.parametrize("running", [False, True])
    def test_replay_matches_the_output(self, running):
        x, gamma, beta = randt((3, 4, 5, 2), seed=47), randt((4,), seed=48), \
            randt((4,), seed=49)
        stats = (np.full(4, 0.3), np.full(4, 1.7)) if running else (None, None)
        out = T.batch_norm(x, gamma, beta, *stats)
        fn = out.replay
        assert same_bits(fn(), out.data) and fn() is not out.data

    @pytest.mark.parametrize("running", [False, True])
    def test_no_replay_without_a_graph(self, running):
        x, gamma, beta = randt((3, 4, 5, 2)), randt((4,)), randt((4,))
        stats = (np.zeros(4), np.ones(4)) if running else (None, None)
        with T.no_grad():
            out = T.batch_norm(x, gamma, beta, *stats)
        assert out.replay is None


class TestLayerNormReplay:
    """A layer norm keeps nothing of an input with a ``replay``: its backward
    and its own replay rebuild x̂ from that replay, bit for bit."""

    @staticmethod
    def run(recompute):
        src = randt((3, 4, 5, 2), seed=60)
        x = T.mul(src, 1.5)  # a fresh interior array
        gamma, beta = randt((4,), seed=61, shift=1.0), randt((4,), seed=62)
        calls = []

        def replay():
            calls.append(1)
            return src.data * 1.5

        if recompute:
            x.replay = replay
        out = T.layer_norm(x, gamma, beta)
        held = {a.shape for a in gm._arrays(out.node.backward)}
        again = out.replay()
        c = np.random.default_rng(63).standard_normal(out.data.shape)
        grads = backward(T.tsum(T.mul(out, c)))
        return (held, calls, out.data, again,
                [grads[p.node] for p in (src, gamma, beta)])

    def test_matches_the_kept_normalised_input(self):
        held, calls, out, again, grads = self.run(recompute=True)
        kept_held, kept_calls, want, want_again, want_grads = self.run(False)
        assert (3, 4, 5, 2) not in held and (3, 4, 5, 2) in kept_held
        # one call for the output's replay, one for the backward
        assert calls == [1, 1] and kept_calls == []
        assert same_bits(out, want) and same_bits(again, out)
        assert same_bits(want_again, want)
        assert all(same_bits(g, w) for g, w in zip(grads, want_grads))

    def test_no_replay_without_a_graph(self):
        x, gamma, beta = randt((3, 4, 5, 2)), randt((4,)), randt((4,))
        x.replay = lambda: None
        with T.no_grad():
            out = T.layer_norm(x, gamma, beta)
        assert out.replay is None


class TestGram:
    """``gram(x)`` is ``matmul(transpose(x), x)`` in one op that reads x
    once, with the same bits forward and back."""

    def test_gradient_oracle(self):
        # the summed output is quadratic in x, so central differences carry
        # no truncation error at any step: a wide step only cuts rounding
        assert grad_check(T.gram, randt((2, 3, 5, 4), seed=70),
                          eps=1e-3) <= 1e-10

    @staticmethod
    def grads(x, fn):
        c = np.random.default_rng(71).standard_normal((2, 3, 4, 4))
        out = fn(x)
        return out.data, backward(T.tsum(T.mul(out, c)))

    @pytest.mark.parametrize("replayed", [False, True])
    def test_matches_the_two_node_product(self, replayed):
        src = randt((2, 3, 5, 4), seed=72)
        w, b = randt((3, 3, 1, 1), seed=73), randt((3,), seed=74)

        def features():
            # a conv output carries a replay; a mul output does not
            return T.conv2d(src, w, b) if replayed else T.mul(src, 1.5)

        def pair(f):
            return T.matmul(T.transpose(f, (0, 1, 3, 2)), f)

        f = features()
        assert (f.replay is not None) == replayed
        got, gg = self.grads(f, T.gram)
        want, gw = self.grads(features(), pair)
        assert same_bits(got, want)
        assert gg.keys() == gw.keys() and src.node in gg
        assert all(same_bits(gg[k], gw[k]) for k in gg)

    def test_replay_runs_once(self):
        src = randt((2, 3, 5, 4), seed=75)
        f = T.mul(src, 1.5)
        calls = []
        f.replay = lambda: calls.append(1) or src.data * 1.5
        backward(T.tsum(T.gram(f)))
        assert calls == [1]

    def test_rejects_other_ranks(self):
        with pytest.raises(ValueError, match="4-D"):
            T.gram(randt((3, 4)))


class TestOutputReplay:
    """In a graph a conv or layer norm output replays whatever its input;
    relu and transpose outputs replay only when their input does. A replay
    rebuilds the output's bits."""

    OPS = {
        "conv2d": lambda x: T.conv2d(x, randt((5, 3, 3, 1), seed=51),
                                     randt((5,), seed=52), stride=2,
                                     dilation=2, pad=2),
        "layer_norm": lambda x: T.layer_norm(x, randt((3,), seed=55),
                                             randt((3,), seed=56)),
        "relu": T.relu,
        "transpose": lambda x: T.transpose(x, (0, 3, 2, 1)),
    }

    @pytest.mark.parametrize("op", sorted(OPS))
    @pytest.mark.parametrize("replayed", [False, True])
    def test_replay_rebuilds_the_output(self, op, replayed):
        x = randt((2, 3, 7, 4), seed=50)
        if replayed:
            x = T.batch_norm(x, randt((3,), seed=53), randt((3,), seed=54))
        else:
            x = T.mul(x, 1.5)
        out = self.OPS[op](x)
        if replayed or op in ("conv2d", "layer_norm"):
            assert same_bits(out.replay(), out.data)
        else:
            assert out.replay is None


class TestSerialization:
    @pytest.mark.parametrize("shape", [(), (4,), (2, 3), (2, 3, 4), (1, 2, 3, 4)])
    def test_round_trip(self, shape):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal(shape)
        buf = io.BytesIO()
        serialize.write_tensor(buf, arr)
        buf.seek(0)
        out = serialize.read_tensor(buf)
        assert out.shape == arr.shape
        assert np.array_equal(out, arr)
        out[...] = 0  # must be writable

    def test_header_layout(self):
        buf = io.BytesIO()
        serialize.write_tensor(buf, np.zeros((2, 3)))
        raw = buf.getvalue()
        assert raw[:4] == b"HAGT"
        assert int.from_bytes(raw[4:12], "little") == 2
        assert int.from_bytes(raw[12:20], "little") == 2
        assert int.from_bytes(raw[20:28], "little") == 3
        assert len(raw) == 28 + 6 * 8

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            serialize.read_tensor(io.BytesIO(b"NOPE" + b"\x00" * 32))

    def test_truncated(self):
        buf = io.BytesIO()
        serialize.write_tensor(buf, np.ones((3, 3)))
        # the second blob declares dims (2**40, 2**30): 2**73 bytes of data
        huge = b"HAGT" + struct.pack("<3Q", 2, 2**40, 2**30)
        for raw in (buf.getvalue()[:-8], huge):
            with pytest.raises(FormatError, match="truncated"):
                serialize.read_tensor(io.BytesIO(raw))

    def test_zero_dim_beside_huge_dim(self):
        # 0 elements pass the size check, but numpy cannot shape (0, 2**62)
        raw = b"HAGT" + struct.pack("<3Q", 2, 0, 2**62)
        with pytest.raises(FormatError, match="dims"):
            serialize.read_tensor(io.BytesIO(raw))

    def test_string_not_utf8(self):
        raw = struct.pack("<Q", 3) + b"w\xff\xfe"
        with pytest.raises(FormatError, match="UTF-8"):
            serialize.read_string(io.BytesIO(raw))

    def test_named_tensors_round_trip(self, tmp_path):
        items = [("w", np.arange(6.0).reshape(2, 3)), ("b", np.zeros(2))]
        buf = io.BytesIO()
        serialize.write_named_tensors(buf, items)
        buf.seek(0)
        out = serialize.read_named_tensors(buf)
        assert list(out) == ["w", "b"]
        assert np.array_equal(out["w"], items[0][1])


class TestNoGrad:
    def test_no_grad_skips_graph_construction(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            y = T.mul(x, x)
        assert y.node is None and not y.requires_grad
        z = T.mul(x, x)
        assert z.requires_grad  # flag restored on exit

    def test_no_grad_nests_and_restores_on_error(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(RuntimeError):
            with T.no_grad():
                with T.no_grad():
                    raise RuntimeError("boom")
        assert T.mul(x, x).requires_grad

    def test_interior_nodes_keep_no_grad_array(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        mid = T.mul(x, x)
        grads = backward(T.tsum(mid))
        assert mid.node not in grads  # only leaves are collected
        assert np.allclose(grads[x.node], [4.0])

    def test_no_grad_is_local_to_its_thread(self):
        x = Tensor(np.ones(3), requires_grad=True)
        entered, release = threading.Event(), threading.Event()

        def hold_no_grad():
            with T.no_grad():
                entered.set()
                release.wait(10)

        th = threading.Thread(target=hold_no_grad)
        th.start()
        try:
            assert entered.wait(10)
            y = T.mul(x, x)
        finally:
            release.set()
            th.join(10)
        assert not th.is_alive()
        assert y.requires_grad and y.node.parents == (x.node, x.node)

    def test_grad_enabled_follows_no_grad(self):
        assert T.grad_enabled()
        with T.no_grad():
            assert not T.grad_enabled()
        assert T.grad_enabled()


class TestMapInThreads:
    def seen(self, i):
        return i, T.grad_enabled(), np.geterr()["over"], threading.get_ident()

    @pytest.mark.parametrize("threads", [1, 2, 5])
    def test_index_order_and_the_callers_context(self, threads):
        # grad mode and numpy 2's errstate are ContextVars: a pool thread
        # would start with the defaults, not the caller's settings
        with T.no_grad(), np.errstate(over="raise"):
            out = T._map_in_threads(self.seen, 6, threads)
        assert [o[:3] for o in out] == [(i, False, "raise") for i in range(6)]
        assert T.grad_enabled() and np.geterr()["over"] != "raise"

    def test_one_thread_runs_inline(self):
        out = T._map_in_threads(self.seen, 3, 1)
        assert {o[3] for o in out} == {threading.get_ident()}

    def test_first_failure_in_index_order_is_raised(self):
        def fail_odd(i):
            if i % 2:
                raise ValueError(f"call {i}")
            return i

        with pytest.raises(ValueError, match="call 1"):
            T._map_in_threads(fail_odd, 4, 2)
